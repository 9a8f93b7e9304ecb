"""Self-test of the benchmark; run from the root of a checkout::

    python3 perfbench/selftest.py

It checks that:

1. a smoke-length run of every workload, untraced and traced, prints a
   last line with exactly ``correct``, ``attempted``, ``failed`` and
   ``metrics``, whose metric names and units are those of
   ``BENCHMARK.json`` (end-to-end untraced, per-layer traced), and
   judges the unmodified program correct;
2. the oracle catches a planted defect -- a sink consumer that drops one
   tuple -- by reporting a failure;
3. the attribution-closure check passes an honest traced round and fails
   one where a planted span records the operators' time twice;
4. in a directory that holds only ``BENCHMARK.json`` and the benchmark's
   files, the benchmark exits non-zero without printing a result.

Exits 0 when every check passes, 1 otherwise.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import time
from pathlib import Path
from typing import List

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SMOKE_SECONDS = "1"
KEYS = {"correct", "attempted", "failed", "metrics"}


def run(args: List[str], cwd: Path) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args],
        cwd=cwd, capture_output=True, text=True, timeout=180,
    )


def check_contract(spec: dict) -> List[str]:
    problems = []
    for workload in (w["name"] for w in spec["workloads"]):
        for trace, section in (("0", "end_to_end"), ("1", "per_layer")):
            proc = run(
                ["--workload", workload, "--seed", "7", "--seconds", SMOKE_SECONDS, "--trace", trace],
                ROOT,
            )
            where = f"{workload} --trace {trace}"
            if proc.returncode != 0:
                problems.append(f"{where}: exit {proc.returncode}: {proc.stderr[-400:]}")
                continue
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            if set(result) != KEYS:
                problems.append(f"{where}: keys {sorted(result)}")
                continue
            want = {m["name"]: m["unit"] for m in spec[section]}
            got = {name: m["unit"] for name, m in result["metrics"].items()}
            if got != want:
                missing = sorted(set(want) - set(got))
                extra = sorted(set(got) - set(want))
                wrong = sorted(k for k in set(want) & set(got) if want[k] != got[k])
                problems.append(f"{where}: missing {missing} extra {extra} wrong units {wrong}")
            if not result["correct"] or result["failed"] or result["attempted"] < 1:
                problems.append(f"{where}: judged incorrect: {proc.stdout.splitlines()[-2][:400]}")
            closure = result["metrics"].get("trace.closure_ok", {}).get("value", 1.0)
            if closure != 1.0:
                gap = result["metrics"]["trace.closure_gap_frac"]["value"]
                problems.append(f"{where}: attribution closure failed, gap {gap:+.3f}")
            print(f"ok   {where}: {len(got)} metrics, attempted {result['attempted']}")
    return problems


def _import_benchmark():
    for path in (str(ROOT / "src"), str(HERE)):
        if path not in sys.path:
            sys.path.insert(0, path)
    import bench
    import tracer

    return bench, tracer


def check_planted_defect() -> List[str]:
    """A sink consumer that swallows one tuple must read as a failure."""
    bench, _ = _import_benchmark()
    honest = bench.SinkOracle.consume

    def drop_one(oracle, tup):
        if tup.values["seq"] != 1234:
            honest(oracle, tup)

    bench.SinkOracle.consume = drop_one
    try:
        rnd = bench.Workload(bench.SPECS["keyed_saturate"], seed=7).run_round()
    finally:
        bench.SinkOracle.consume = honest
    if rnd.failures.get("tuples_lost") != 1:
        return [f"planted drop not caught: failures {rnd.failures}"]
    print(f"ok   planted defect caught: failed_frac {rnd.failed / rnd.attempted:.2e} {rnd.failures}")
    return []


def check_closure_catches_double_count() -> List[str]:
    """A span whose time is recorded twice must fail the closure check."""
    bench, tracer = _import_benchmark()

    class DoubleCounting(tracer.Tracer):
        def span(self, fn, name):
            traced = super().span(fn, name)
            if name != "spl.operator":
                return traced

            def twice(*args, **kwargs):
                t0 = time.perf_counter()
                try:
                    return traced(*args, **kwargs)
                finally:
                    self.self_s[name] += time.perf_counter() - t0

            return twice

    workload = bench.Workload(bench.SPECS["keyed_saturate"], seed=7)
    problems = []
    for tracer_cls, want in ((tracer.Tracer, 1.0), (DoubleCounting, 0.0)):
        t = tracer_cls()
        rnd = tracer.traced_round(workload, t)
        metrics = tracer.layer_metrics(t, rnd)
        ok, gap = metrics["trace.closure_ok"][0], metrics["trace.closure_gap_frac"][0]
        if ok != want:
            problems.append(f"{tracer_cls.__name__}: closure_ok {ok}, want {want} (gap {gap:+.3f})")
        else:
            print(f"ok   {tracer_cls.__name__}: closure_ok {ok} (gap {gap:+.3f})")
    return problems


def check_bare_directory() -> List[str]:
    bare = ROOT / ".perfbench" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    try:
        shutil.copy(ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
        shutil.copytree(HERE, bare / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
        proc = run(["--workload", "keyed_saturate", "--seed", "1", "--seconds", "1", "--trace", "0"], bare)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    if proc.returncode == 0 or proc.stdout.strip():
        return [f"bare directory: exit {proc.returncode}, stdout {proc.stdout[:200]!r}"]
    print(f"ok   bare directory: exit {proc.returncode} without a result")
    return []


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    problems = (
        check_bare_directory()
        + check_planted_defect()
        + check_closure_catches_double_count()
        + check_contract(spec)
    )
    for problem in problems:
        print("FAIL " + problem)
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
