"""Run one workload of the adaptation-stack benchmark and print its result.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload keyed_saturate --seed 1 --seconds 20 --trace 0

The program under test is the ``repro`` package in ``src/`` of the same
checkout; the benchmark imports it from there and exits with code 2,
printing no result, when it is missing.  The last line of standard output
is one JSON object: ``correct``, ``attempted``, ``failed`` and
``metrics``.  With ``--trace 0`` the metrics are the end-to-end metrics of
``BENCHMARK.json``; with ``--trace 1`` they are the per-layer metrics from
traced rounds, alternated with untraced rounds that give the tracing
overhead.  Earlier lines carry the provenance, sample counts and the
failure breakdown (``report:``).
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Any, Dict, List

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORKLOADS = ("keyed_saturate", "orca_control", "adapt_wallclock")
#: set-ups timed after the rounds, so ``setup_s`` is a median of many
EXTRA_SETUPS = 9

#: end-to-end metrics: name -> unit (``bench.Totals`` and README.md
#: define them; times are on ``bench.Workload.clock``)
E2E_UNITS = {
    "setup_s": "s",
    "tuples_per_s": "tuples/s",
    "orca_events_per_s": "events/s",
    "latency_p50_ms": "ms",
    "latency_p99_ms": "ms",
    "rescale_ms": "ms",
    "recovery_ms": "ms",
    "peak_rss_mb": "MB",
}


def parse_args(argv: List[str]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def provenance(args: argparse.Namespace) -> Dict[str, Any]:
    """Seed, run length, host fingerprint, git sha and dirty flag."""
    cpu = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as info:
            for line in info:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    sha, dirty = "unknown", None

    def git(*args: str) -> str:
        return subprocess.run(
            ["git", *args], cwd=ROOT, capture_output=True, text=True,
            timeout=10, check=True,
        ).stdout.strip()

    try:
        # only this checkout's own repository counts, not an enclosing one
        if Path(git("rev-parse", "--show-toplevel")).resolve() == ROOT:
            sha, dirty = git("rev-parse", "HEAD"), bool(git("status", "--porcelain"))
    except (OSError, subprocess.SubprocessError):
        pass  # not a git checkout: recorded as unknown
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "cpu": cpu,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "git_sha": sha,
        "git_dirty": dirty,
    }


def calibration_ms() -> float:
    """CPU ms of a fixed pure-Python loop (median of five): a host speed
    index recorded beside the results, never applied to them."""
    samples = []
    for _ in range(5):
        t0 = time.process_time()
        table: Dict[int, int] = {}
        for i in range(100_000):
            table[i & 1023] = table.get(i & 1023, 0) + i
        samples.append((time.process_time() - t0) * 1000.0)
    return statistics.median(samples)


def determinism_failures(rounds: list) -> int:
    """Sim rounds of one seed must repeat their exact counts."""
    prints = {r.fingerprint for r in rounds if r.fingerprint}
    return len(prints) - 1 if len(prints) > 1 else 0


def main(argv: List[str]) -> int:
    args = parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"perfbench: program source not found at {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import repro  # noqa: F401  (fail here, before any result, if broken)

    if Path(repro.__file__).resolve().parent != (SRC / "repro").resolve():
        print("perfbench: repro imported from outside the checkout", file=sys.stderr)
        return 2
    import bench  # the benchmark's own modules, beside this file

    spec = bench.SPECS[args.workload]
    workload = bench.Workload(spec, args.seed)
    prov = provenance(args)
    prov["calibration_ms_before"] = calibration_ms()
    prov["pe_restart_delay_s"] = bench.PE_RESTART_DELAY
    prov["failure_notification_delay_s"] = bench.FAILURE_NOTIFICATION_DELAY
    if args.trace:
        import tracer

        plain, traced, totals, traced_totals, layers = tracer.run_traced(
            workload, args.seconds, ROOT / ".perfbench"
        )
        rounds = plain + traced
    else:
        totals = bench.Totals(repeatable=spec.executor == "sim")
        rounds = run_rounds(workload, args.seconds, totals)
        plain, traced, layers = rounds, [], {}
    prov["calibration_ms_after"] = calibration_ms()
    failures: Dict[str, int] = {}
    for r in rounds:
        for name, count in r.failures.items():
            failures[name] = failures.get(name, 0) + count
    nondeterministic = determinism_failures(plain)
    if traced:
        nondeterministic += determinism_failures(traced)
    if nondeterministic:
        failures["nondeterministic_rounds"] = nondeterministic
    attempted = sum(r.attempted for r in rounds)
    failed = sum(failures.values())
    e2e = totals.metrics()
    setups = setup_times(workload, plain)
    e2e["setup_s"] = totals.combine(setups)
    e2e["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    samples = totals.sample_counts()
    samples["setup_samples"] = len(setups)
    report = {
        "provenance": prov,
        "samples": samples,
        "failures": failures,
        "per_round": bench.per_round(plain),
        "failed_frac": failed / attempted if attempted else 1.0,
        "end_to_end": e2e,
    }
    if traced:
        report["traced_samples"] = traced_totals.sample_counts()
    print("report: " + json.dumps(report, sort_keys=True))
    if args.trace:
        metrics = {name: {"value": value, "unit": unit} for name, (value, unit) in layers.items()}
    else:
        metrics = {name: {"value": e2e[name], "unit": unit} for name, unit in E2E_UNITS.items()}
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


def run_rounds(workload, seconds: float, totals) -> list:
    """Rounds until ``seconds`` of wall time are spent (at least two),
    each folded into ``totals``."""
    rounds = []
    start = time.perf_counter()
    while len(rounds) < 2 or time.perf_counter() - start < seconds:
        rounds.append(workload.run_round())
        totals.add(rounds[-1])
    return rounds


def setup_times(workload, rounds: list) -> List[float]:
    """Set-up samples: every round's but the first, plus :data:`EXTRA_SETUPS`.

    The first round's set-up also pays the program's lazy first-use
    imports, which ``setup_s`` excludes.
    """
    return [r.setup_s for r in rounds[1:]] + [workload.setup_only() for _ in range(EXTRA_SETUPS)]


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
