"""Per-layer tracing for the benchmark's ``--trace 1`` runs.

The tracer never edits the program: it wraps public entry points of each
layer at run time (class attributes and module names, restored after the
round) and installs its own executor ``event_tap``.  Each wrapped call
records a span -- name, start, end, parent -- on an in-memory stack; a
span's *self* time is its duration minus the part its child spans cover.
The tap times every kernel event as a root span named after its label
family, so the busy time of each family is attributed too.  Spans are
kept in memory (bounded) and written to ``.perfbench/`` in the checkout
when the run ends.

Rounds alternate untraced and traced; end-to-end numbers come from the
untraced rounds only, and the traced/untraced ratio of each is reported
as the tracing overhead.  The attribution-closure check compares the sum
of every layer's self time, the executor's sleeps and the tap's own time
with the wall time spent inside the executor's ``run_until``/``step``.
The executor loop's share of that sum is not the remainder: it is the
event and sleep counts times per-event and per-sleep loop costs measured
on their own, on fresh executors running no-op events
(:func:`loop_costs`).  So time that no span, sleep or calibrated loop
covers, and time counted twice, both show as a gap.
"""

from __future__ import annotations

import json
import statistics
import time
from collections import defaultdict
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Tuple

import repro.checkpoint.service as checkpoint_service_mod
import repro.elastic.controller as elastic_controller_mod
import repro.spl.state as spl_state_mod
import repro.spl.tuples as spl_tuples_mod
from repro import SystemConfig
from repro.checkpoint.service import CheckpointService
from repro.obs.health import HealthMonitor
from repro.obs.listeners import subscribe_runtime
from repro.orca.scopes import ScopeRegistry
from repro.orca.streamgraph import StreamGraph
from repro.runtime.exec import build_executor
from repro.runtime.hc import HostController
from repro.runtime.pe import PERuntime
from repro.runtime.sam import SAM
from repro.runtime.srm import SRM
from repro.runtime.transport import Transport
from repro.spl import library
from repro.spl.operators import Operator
from repro.spl.state import StateStore
from repro.spl.tuples import StreamTuple

import bench

#: share of the traced wall time the layer self times may miss or
#: over-count before the closure check fails
CLOSURE_SLACK = 0.05
#: raw spans kept per run (the aggregates cover every span)
SPAN_CAP = 50_000
#: sample transport queue depths every this many kernel events
QUEUE_SAMPLE_EVERY = 256
#: executor-loop calibration: no-op events due at once, far-future
#: events that keep the heap at a realistic depth meanwhile, and (wall
#: clock only) no-op events spaced so the loop sleeps before each
LOOP_EVENTS = 10_000
LOOP_HEAP = 256
LOOP_SLEEPS = 300
LOOP_SPACING = 3e-4

LAYERS = (
    "spl", "runtime.pe", "runtime.transport", "runtime.delivery",
    "runtime.exec", "runtime.hc", "runtime.srm", "runtime.sam", "orca",
    "elastic", "checkpoint", "obs", "bench",
)

#: span name -> layer credited with its self time
SPAN_LAYER = {
    "spl.operator": "spl",
    "spl.submit": "runtime.pe",  # Operator.submit -> PE routing
    "spl.state_size": "spl",
    "pe.receive": "runtime.pe",
    "pe.restart": "runtime.pe",
    "transport.send": "runtime.transport",
    "transport.flush": "runtime.transport",
    "hc.collect": "runtime.hc",
    "srm.store": "runtime.srm",
    "srm.get_metrics": "runtime.srm",
    "sam.add_remove_pes": "runtime.sam",
    "orca.scope_match": "orca",
    "orca.graph_attrs": "orca",
    "orca.handler": "bench",
    "checkpoint.capture": "checkpoint",
    "obs.pressure": "obs",
    "bench.generator": "bench",
    "bench.oracle": "bench",
}


def event_family(event: Any) -> Tuple[str, str]:
    """(family, layer) of one kernel event, from its label or callback."""
    label = event.label
    if label:
        if label.startswith("transport->"):
            return "transport.deliver", "runtime.transport"
        if label.startswith("transport-batch"):
            return "transport.flush", "runtime.transport"
        if label in ("transport-ack", "transport-retry"):
            return "delivery", "runtime.delivery"
        if label == "health-tick":
            return "health", "obs"
        if label == "checkpoint-loop":
            return "checkpoint", "checkpoint"
        if label.startswith("elastic-drain"):
            return "elastic.drain", "elastic"
        if label.endswith("-opwork"):
            return "operator.work", "spl"
        if label.endswith("-poll"):
            return "orca.poll", "orca"
        if label.endswith("-deliver"):
            return "orca.deliver", "orca"
        if label.startswith("timer-") or label.startswith("orca"):
            return "orca.other", "orca"
    owner = getattr(event.callback, "__qualname__", "").split(".")[0]
    return {
        "HostController": ("hc", "runtime.hc"),
        "SRM": ("srm", "runtime.srm"),
        "SAM": ("sam", "runtime.sam"),
        "ElasticController": ("elastic.other", "elastic"),
        "CheckpointService": ("checkpoint", "checkpoint"),
        "OrcaService": ("orca.other", "orca"),
        "TimerService": ("orca.other", "orca"),
        "DeliveryPlane": ("delivery", "runtime.delivery"),
        "Transport": ("transport.other", "runtime.transport"),
    }.get(owner, ("other", "runtime.exec"))


class Tracer:
    """Span stack, counters and patches for one traced round."""

    def __init__(self) -> None:
        self.stack: List[list] = []
        self.self_s: Dict[str, float] = defaultdict(float)
        self.total_s: Dict[str, float] = defaultdict(float)
        self.calls: Dict[str, int] = defaultdict(int)
        self.counts: Dict[str, int] = defaultdict(int)
        self.spans: List[Tuple[str, float, float, Optional[str]]] = []
        self.family_events: Dict[str, int] = defaultdict(int)
        self.received = 0
        self.window_s = 0.0
        self.tap_s = 0.0
        self.family_busy: Dict[str, float] = defaultdict(float)
        self.family_self: Dict[str, float] = defaultdict(float)
        self.family_layer: Dict[str, str] = {}
        self.lateness: List[float] = []
        self.queue_peak = 0
        self.events = 0
        self.idle_s = 0.0
        self.sleeps = 0
        #: executor loop seconds per event and per sleep, from :func:`loop_costs`
        self.loop_costs = (0.0, 0.0)
        self.system: Any = None
        self._patches: List[Tuple[Any, str, Any]] = []

    # -- spans -------------------------------------------------------------

    def span(self, fn: Callable, name: str) -> Callable:
        """Wrap ``fn`` so every call records a span called ``name``."""
        stack, clock = self.stack, time.perf_counter
        self_s, total_s, calls, spans = self.self_s, self.total_s, self.calls, self.spans

        def traced(*args, **kwargs):
            frame = [name, clock(), 0.0]
            stack.append(frame)
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                dur = end - frame[1]
                calls[name] += 1
                parent = None
                # a root span runs outside any kernel event (set-up or
                # harness code) and stays out of the in-kernel attribution
                if stack:
                    total_s[name] += dur
                    self_s[name] += dur - frame[2]
                    stack[-1][2] += dur
                    parent = stack[-1][0]
                if len(spans) < SPAN_CAP:
                    spans.append((name, frame[1], end, parent))

        return traced

    def counted(self, fn: Callable, name: str) -> Callable:
        """Wrap ``fn`` so every call bumps the ``name`` counter."""
        counts = self.counts

        def counting(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return counting

    def patch(self, owner: Any, attr: str, wrapper: Callable[[Callable], Callable]) -> None:
        original = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        self._patches.append((owner, attr, original))
        setattr(owner, attr, wrapper(getattr(owner, attr)))

    def install(self) -> None:
        """Wrap the public entry points of every layer."""
        span, counted = self.span, self.counted
        self.patch(StreamTuple, "__init__", lambda f: counted(f, "tuple_new"))
        for module in (spl_tuples_mod, spl_state_mod, elastic_controller_mod, checkpoint_service_mod):
            self.patch(module, "estimate_value_size", lambda f: counted(f, "size_estimate"))
        self.patch(Operator, "submit", lambda f: counted(span(f, "spl.submit"), "submit"))
        self.patch(Operator, "submit_batch", lambda f: counted(span(f, "spl.submit"), "submit"))
        self.patch(Operator, "process_batch", lambda f: span(f, "spl.operator"))
        for cls in (library.KeyedCounter, library.ParallelSplitter, library.OrderedMerger, library.Sink):
            for attr in ("on_tuple", "process_batch"):
                if attr in cls.__dict__:
                    self.patch(cls, attr, lambda f: span(f, "spl.operator"))
        self.patch(library.CallbackSource, "generate", lambda f: span(f, "bench.generator"))
        self.patch(StateStore, "size_bytes", lambda f: span(f, "spl.state_size"))
        self.patch(PERuntime, "receive", lambda f: span(self._receive(f), "pe.receive"))
        self.patch(PERuntime, "restart", lambda f: span(f, "pe.restart"))
        self.patch(Transport, "send", lambda f: counted(span(f, "transport.send"), "send"))
        self.patch(Transport, "send_batch", lambda f: counted(span(f, "transport.send"), "send"))
        self.patch(Transport, "flush_open_batches", lambda f: span(f, "transport.flush"))
        self.patch(HostController, "collect_and_push", lambda f: self._collect(span(f, "hc.collect")))
        self.patch(SRM, "store_metrics", lambda f: span(f, "srm.store"))
        self.patch(SRM, "get_metrics", lambda f: span(f, "srm.get_metrics"))
        self.patch(SAM, "add_pes", lambda f: span(f, "sam.add_remove_pes"))
        self.patch(SAM, "remove_pes", lambda f: span(f, "sam.add_remove_pes"))
        self.patch(ScopeRegistry, "matching_keys", lambda f: span(f, "orca.scope_match"))
        self.patch(StreamGraph, "operator_event_attrs", lambda f: span(f, "orca.graph_attrs"))
        self.patch(StreamGraph, "pe_event_attrs", lambda f: span(f, "orca.graph_attrs"))
        self.patch(CheckpointService, "checkpoint_pe", lambda f: span(f, "checkpoint.capture"))
        self.patch(HealthMonitor, "on_transport_pressure", lambda f: counted(span(f, "obs.pressure"), "pressure"))
        for name, value in vars(bench.BenchOrca).items():
            if name.startswith("handle") and callable(value):
                self.patch(bench.BenchOrca, name, lambda f: span(f, "orca.handler"))
        self.patch(bench.SinkOracle, "consume", lambda f: span(f, "bench.oracle"))
        self.patch(time, "sleep", self._sleep)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def _collect(self, fn: Callable) -> Callable:
        counts = self.counts

        def collect(*args, **kwargs):
            pushed = fn(*args, **kwargs)
            counts["hc_pushes"] += 1
            counts["hc_samples"] += pushed
            return pushed

        return collect

    def _receive(self, fn: Callable) -> Callable:
        def receive(pe, op_full_name, port, item, *args, **kwargs):
            self.received += len(item.tuples) if hasattr(item, "tuples") else 1
            return fn(pe, op_full_name, port, item, *args, **kwargs)

        return receive

    def _sleep(self, fn: Callable) -> Callable:
        def sleep(seconds):
            t0 = time.perf_counter()
            try:
                return fn(seconds)
            finally:
                self.idle_s += time.perf_counter() - t0
                self.sleeps += 1

        return sleep

    # -- the executor tap ------------------------------------------------------

    def attach(self, system) -> None:
        """Install the event tap on a freshly built system."""
        self.system = system
        self.checkpoint_records: List[Any] = []
        subscribe_runtime(system, on_checkpoint_attempt=self.checkpoint_records.append)
        self.tap_kernel(system.kernel)

    def tap_kernel(self, kernel) -> None:
        """Time every event of ``kernel`` and its ``run_until``/``step`` windows."""
        clock = time.perf_counter
        families: Dict[Any, Tuple[str, str]] = {}

        def tap(event) -> None:
            t0 = clock()
            self.events += 1
            self.lateness.append(kernel.now - event.time)
            key = (event.label, getattr(event.callback, "__qualname__", None))
            fam = families.get(key)
            if fam is None:
                fam = families[key] = event_family(event)
                self.family_layer[fam[0]] = fam[1]
            self.family_events[fam[0]] += 1
            event.callback = self._timed(event.callback, fam[0])
            if self.system is not None and self.events % QUEUE_SAMPLE_EVERY == 0:
                self._sample_queues()
            self.tap_s += clock() - t0

        kernel.event_tap = tap
        for attr in ("run_until", "step"):
            setattr(kernel, attr, self._window(getattr(kernel, attr)))

    def _window(self, fn: Callable) -> Callable:
        """Time a kernel entry point."""

        def window(*args):
            t0 = time.perf_counter()
            try:
                return fn(*args)
            finally:
                self.window_s += time.perf_counter() - t0

        return window

    def _timed(self, callback: Callable, family: str) -> Callable:
        stack, clock = self.stack, time.perf_counter

        def timed(*args):
            frame = [family, clock(), 0.0]
            stack.append(frame)
            try:
                return callback(*args)
            finally:
                end = clock()
                stack.pop()
                dur = end - frame[1]
                self.family_busy[family] += dur
                self.family_self[family] += dur - frame[2]

        return timed

    def _sample_queues(self) -> None:
        transport = self.system.transport
        for job in self.system.sam.running_jobs():
            for pe in job.pes:
                for op_name, operator in pe.operators.items():
                    for port in range(operator.n_inputs):
                        depth = transport.queue_size(pe.pe_id, op_name, port)
                        if depth > self.queue_peak:
                            self.queue_peak = depth

    # -- output -----------------------------------------------------------------

    def layer_self_s(self) -> Dict[str, float]:
        """Self seconds per layer: spans plus event-family remainders."""
        out = {layer: 0.0 for layer in LAYERS}
        for name, secs in self.self_s.items():
            out[SPAN_LAYER[name]] += secs
        for family, secs in self.family_self.items():
            out[self.family_layer[family]] += secs
        out["runtime.exec"] += self.loop_s()
        return out

    def loop_s(self) -> float:
        """The executor loop's own time, from the calibrated costs."""
        per_event, per_sleep = self.loop_costs
        return self.events * per_event + self.sleeps * per_sleep

    def unattributed_s(self) -> float:
        """Window time beyond the tap, the callbacks and the sleeps."""
        return self.window_s - self.tap_s - self.idle_s - sum(self.family_busy.values())

    def dump(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", encoding="utf-8") as out:
            for name, start, end, parent in self.spans:
                out.write(json.dumps({"name": name, "start": start, "end": end, "parent": parent}) + "\n")


# -- traced runs ---------------------------------------------------------------


def _noop() -> None:
    pass


def _loop_probe(executor: str, offsets: List[float]) -> Tracer:
    """A fresh executor running no-op events at ``offsets`` from now, traced."""
    probe = Tracer()
    probe.patch(time, "sleep", probe._sleep)
    try:
        kernel = build_executor(SystemConfig(executor=executor))
        probe.tap_kernel(kernel)
        start = kernel.now
        for _ in range(LOOP_HEAP):
            kernel.schedule_at(start + 1e6, _noop)
        for offset in offsets:
            kernel.schedule_at(start + offset, _noop)
        kernel.run_until(start + max(offsets))
    finally:
        probe.uninstall()
    return probe


def loop_costs(executor: str) -> Tuple[float, float]:
    """Executor loop seconds per event and per sleep, apart from any workload.

    Fresh executors of the given kind run no-op events under the same tap,
    windows and sleep timer as a traced round; what their windows take
    beyond those is the loop.  :data:`LOOP_EVENTS` events due at once give
    the cost per event; on a wall-clock executor, :data:`LOOP_SLEEPS`
    events :data:`LOOP_SPACING` apart, each waited for, then give the cost
    per sleep.  Medians of three.
    """
    per_event = statistics.median(
        probe.unattributed_s() / probe.events
        for probe in (_loop_probe(executor, [0.0] * LOOP_EVENTS) for _ in range(3))
    )
    if executor == "sim":  # virtual time: the loop never sleeps
        return per_event, 0.0
    spaced = [LOOP_SPACING * (i + 1) for i in range(LOOP_SLEEPS)]
    per_sleep = statistics.median(
        (probe.unattributed_s() - probe.events * per_event) / max(probe.sleeps, 1)
        for probe in (_loop_probe(executor, spaced) for _ in range(3))
    )
    return per_event, per_sleep


def traced_round(workload, tracer: Tracer):
    """One round of ``workload`` under ``tracer``, patches removed after."""
    tracer.loop_costs = loop_costs(workload.spec.executor)
    tracer.install()
    workload.on_system = tracer.attach
    try:
        rnd = workload.run_round()
    finally:
        workload.on_system = None
        tracer.uninstall()
    if rnd.fingerprint:
        rnd.fingerprint = rnd.fingerprint + (tracer.counts["tuple_new"],)
    return rnd


def run_traced(workload, seconds: float, span_dir: Path):
    """Alternate untraced and traced rounds for ``seconds``.

    Returns ``(plain rounds, traced rounds, plain totals, traced totals,
    per-layer metrics)`` where the metrics map name -> (value, unit): the
    median over traced rounds of each layer metric, the tracing overhead
    per end-to-end metric (traced ÷ untraced), and the
    attribution-closure gap.  The last traced round's spans are written
    to ``span_dir``.
    """
    plain, traced, per_round = [], [], []
    repeatable = workload.spec.executor == "sim"
    plain_totals, traced_totals = bench.Totals(repeatable), bench.Totals(repeatable)
    # warm the program's lazy imports, so the first untraced round's
    # set-up is not compared cold against warm traced ones
    workload.setup_only()
    start = time.perf_counter()
    tracer = None
    while not plain or not traced or time.perf_counter() - start < seconds:
        if len(plain) <= len(traced):
            plain.append(workload.run_round())
            plain_totals.add(plain[-1])
            continue
        tracer = Tracer()
        traced.append(traced_round(workload, tracer))
        per_round.append(layer_metrics(tracer, traced[-1]))
        traced_totals.add(traced[-1])
    tracer.dump(span_dir / f"spans-{workload.spec.name}-{workload.seed}.jsonl")
    metrics = {
        name: (statistics.median(m[name][0] for m in per_round), unit)
        for name, (_, unit) in per_round[0].items()
    }
    untraced_e2e = plain_totals.metrics()
    traced_e2e = traced_totals.metrics()
    untraced_e2e["setup_s"] = plain_totals.combine([r.setup_s for r in plain])
    traced_e2e["setup_s"] = traced_totals.combine([r.setup_s for r in traced])
    for name, base in untraced_e2e.items():
        metrics[f"trace.overhead.{name}"] = (traced_e2e[name] / base if base else 0.0, "ratio")
    return plain, traced, plain_totals, traced_totals, metrics


def layer_metrics(t: Tracer, rnd) -> Dict[str, Tuple[float, str]]:
    """Every per-layer metric of one traced round: name -> (value, unit)."""
    system = t.system
    transport = system.transport
    service = next(iter(system.orcas.values()), None)
    n = max(rnd.tuples, 1)
    us, ms = 1e6 / n, 1e3
    journal = service.event_journal if service is not None else []
    delivered = len(journal)
    generated = delivered + (service.queue.dropped_count if service is not None else 0)
    handler_s = t.total_s["orca.handler"]
    rescales = [
        op for op in system.elastic.history if op.old_width != op.new_width and op.completed_at is not None
    ]
    migrations = [op.migration for op in rescales if op.migration is not None]
    records = t.checkpoint_records
    keys_total = sum(r.keys_total for r in records)
    layer_self = t.layer_self_s()
    attributed = sum(layer_self.values()) + t.idle_s + t.tap_s
    out: Dict[str, Tuple[float, str]] = {
        "spl.tuple_new_per_tuple": (t.counts["tuple_new"] / n, "count"),
        "spl.size_estimate_per_tuple": (t.counts["size_estimate"] / n, "count"),
        "spl.submit_per_tuple": (t.counts["submit"] / n, "count"),
        "spl.operator_self_us_per_tuple": (t.self_s["spl.operator"] * us, "us"),
        "spl.state_size_ms": (t.total_s["spl.state_size"] * ms, "ms"),
        "runtime.pe.receive_self_us_per_tuple": (t.self_s["pe.receive"] * us, "us"),
        "runtime.pe.tuples_per_receive": (t.received / max(t.calls["pe.receive"], 1), "count"),
        "runtime.pe.restart_ms": (t.total_s["pe.restart"] * ms, "ms"),
        "runtime.transport.self_us_per_tuple": (
            (t.self_s["transport.send"] + t.self_s["transport.flush"]
             + sum(v for f, v in t.family_self.items() if f.startswith("transport."))) * us,
            "us",
        ),
        "runtime.transport.sends_per_tuple": (t.counts["send"] / n, "count"),
        "runtime.transport.tuples_per_unit": (
            t.received / max(t.family_events["transport.deliver"], 1), "count"
        ),
        "runtime.transport.queue_peak": (float(t.queue_peak), "count"),
        "runtime.delivery.retransmissions": (float(transport.retransmissions), "count"),
        "runtime.delivery.acks_per_tuple": (transport.acks / n, "count"),
        "runtime.delivery.duplicates_suppressed": (float(transport.duplicates_suppressed), "count"),
        "runtime.delivery.replayed": (float(transport.replayed), "count"),
        "runtime.delivery.replay_stalls": (float(transport.replay_stalls), "count"),
        "runtime.delivery.busy_ms": (t.family_busy["delivery"] * ms, "ms"),
        "runtime.exec.events_per_tuple": (t.events / n, "count"),
        "runtime.exec.loop_self_us_per_tuple": (t.loop_s() * us, "us"),
        "runtime.exec.lateness_p99_ms": (bench.percentile(t.lateness, 99) * ms, "ms"),
        "runtime.exec.idle_frac": (t.idle_s / t.window_s if t.window_s else 0.0, "ratio"),
        "runtime.exec.gen_late_p99_ms": (rnd.extra.get("gen_late_p99_ms", 0.0), "ms"),
        "runtime.hc.collect_ms": (t.total_s["hc.collect"] * ms, "ms"),
        "runtime.hc.samples_per_push": (t.counts["hc_samples"] / max(t.counts["hc_pushes"], 1), "count"),
        "runtime.srm.store_ms": (t.total_s["srm.store"] * ms, "ms"),
        "runtime.srm.get_metrics_ms": (t.total_s["srm.get_metrics"] * ms, "ms"),
        "runtime.sam.add_remove_pes_ms": (t.total_s["sam.add_remove_pes"] * ms, "ms"),
        "orca.events_generated": (float(generated), "count"),
        "orca.events_delivered": (float(delivered), "count"),
        "orca.match_ratio": (delivered / generated if generated else 0.0, "ratio"),
        "orca.scope_match_us_per_event": (
            t.total_s["orca.scope_match"] * 1e6 / max(t.calls["orca.scope_match"], 1), "us"
        ),
        "orca.graph_attrs_us_per_event": (
            t.total_s["orca.graph_attrs"] * 1e6 / max(t.calls["orca.graph_attrs"], 1), "us"
        ),
        "orca.poll_busy_ms": (t.family_busy["orca.poll"] * ms, "ms"),
        "orca.deliver_busy_ms": ((t.family_busy["orca.deliver"] - handler_s) * ms, "ms"),
        "orca.handler_ms": (t.self_s["orca.handler"] * ms, "ms"),
        "orca.queue_wait_p99_ms": (
            bench.percentile([e.queue_latency for e in journal if e.queue_latency is not None], 99)
            * ms,
            "ms",
        ),
        "orca.reaction_ms": (rnd.extra.get("reaction_ms", 0.0), "ms"),
        "elastic.drain_polls_per_rescale": (
            statistics.mean(op.drain_polls for op in rescales) if rescales else 0.0, "count"
        ),
        "elastic.migrate_ms": (sum(m.wall_ms for m in migrations), "ms"),
        "elastic.keys_moved": (float(sum(m.keys_moved for m in migrations)), "count"),
        "checkpoint.capture_ms": (t.total_s["checkpoint.capture"] * ms, "ms"),
        "checkpoint.dirty_ratio": (
            sum(r.keys_dirty for r in records) / keys_total if keys_total else 0.0, "ratio"
        ),
        "checkpoint.bytes_written": (float(sum(r.bytes_written for r in records)), "bytes"),
        "obs.health_busy_us_per_tuple": (t.family_busy["health"] * us, "us"),
        "obs.pressure_calls_per_tuple": (t.counts["pressure"] / n, "count"),
    }
    for layer, secs in layer_self.items():
        out[f"{layer}.self_ms"] = (secs * ms, "ms")
    out["trace.tap_ms"] = (t.tap_s * ms, "ms")
    out["trace.window_ms"] = (t.window_s * ms, "ms")
    # positive: time nothing attributed covers; negative: time counted twice
    gap = (t.window_s - attributed) / t.window_s if t.window_s else 0.0
    out["trace.closure_gap_frac"] = (gap, "ratio")
    out["trace.closure_ok"] = (1.0 if abs(gap) <= CLOSURE_SLACK else 0.0, "bool")
    return out
