"""The three workloads of the adaptation-stack benchmark.

Every workload drives the public API of :mod:`repro` with one keyed
parallel-region application managed by one orchestrator, and repeats
*rounds* until its time budget is spent.  A round builds a fresh
``SystemS`` (timed as set-up), runs the workload's measured phase,
judges the output against a reference computed from the generated
input, and records its samples.

* ``keyed_saturate`` -- closed loop on the ``sim`` executor: 64 tuples per
  1 ms sim tick through a width-4 keyed region, batched (64) and
  best-effort.  Sim time is virtual, so wall time is pure compute: the
  per-tuple path (tuples, operators, PE routing, transport batching,
  kernel dispatch, health pressure) does the work.  After the input is
  drained an idle *adaptation probe* rescales and crash-recovers the
  region once per cycle, so ORCA, elastic and recovery run at light load.
* ``orca_control`` -- ORCA-heavy and data-light on ``sim``: four chained
  keyed regions, 50 tuples per sim-second, metric push and ORCA poll at
  0.5 sim-s, operator/PE/region scopes with one stream-graph
  inspection per metric event, and a region toggled 4<->8 every few
  metric epochs.  The same idle probe follows the measured horizon.
* ``adapt_wallclock`` -- open loop in real time on the ``wallclock``
  executor: 1,000 tuples/s offered by a generator that emits every tuple
  due by ``now`` (stamped with its due time), exactly-once delivery,
  0.25 s checkpoints, 8,192 keys, while ORCA timers drive rescales 2<->4
  and channel-PE crashes that the orchestrator recovers itself.

The end-to-end metrics are defined on every workload (the JSON contract
prints each of them on every run); :class:`Totals` says how a run's
rounds combine into them.
"""

from __future__ import annotations

import gc
import math
import random
import statistics
import time
from array import array
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Tuple

from repro import (
    ManagedApplication,
    Orchestrator,
    OrcaDescriptor,
    SystemConfig,
    SystemS,
)
from repro.obs.listeners import subscribe_runtime
from repro.orca.scopes import (
    OperatorMetricScope,
    ParallelRegionScope,
    PEFailureScope,
    PEMetricScope,
    TimerScope,
)
from repro.spl.application import Application
from repro.spl.library import CallbackSource, KeyedCounter, Sink
from repro.spl.parallel import parallel

#: crash reason the benchmark injects; any other crash reason is a failure
INJECTED = "perfbench_injected"

#: configured recovery delays (sim or executor seconds), recorded beside
#: ``recovery_ms`` because they are part of it
PE_RESTART_DELAY = 0.05
FAILURE_NOTIFICATION_DELAY = 0.01


# -- inputs and the oracle --------------------------------------------------


def make_keys(seed: int, n: int, key_space: int) -> array:
    """The generated input: tuple ``seq`` carries key ``keys[seq]``.

    The seed permutes the key space; the input visits it in that order,
    round after round, so every key's state reaches full size early.
    """
    perm = list(range(key_space))
    random.Random(seed).shuffle(perm)
    return array("l", (perm[i % key_space] for i in range(n)))


def reference_counts(keys: array) -> Tuple[array, Dict[int, int]]:
    """Per-tuple expected running count and per-key final count."""
    running: Dict[int, int] = {}
    expected = array("l", bytes(8 * len(keys)))
    for seq, key in enumerate(keys):
        n = running.get(key, 0) + 1
        running[key] = n
        expected[seq] = n
    return expected, running


class SinkOracle:
    """Judges sink arrivals against the reference counts.

    Every ``seq`` must arrive exactly once and each of ``count_attrs``
    must equal the key's running count at that ``seq``.  Only the state
    the check needs is kept: a seen-bitmap, the expected counts and, for
    latency, one emission stamp and one latency per tuple (``inf`` until
    it arrives).
    """

    def __init__(
        self,
        expected: array,
        count_attrs: Tuple[str, ...],
        clock: Callable[[], float],
        stamps: array,
    ) -> None:
        self.expected = expected
        self.count_attrs = count_attrs
        self.clock = clock
        self.stamps = stamps
        self.seen = bytearray(len(expected))
        self.arrived = 0
        self.duplicates = 0
        self.miscounted = 0
        self.unknown = 0
        self.latency = array("d", [math.inf]) * len(expected)
        self.last_arrival = 0.0

    def consume(self, tup: Any) -> None:
        """Sink consumer: check one tuple and record its latency."""
        values = tup.values
        seq = values["seq"]
        now = self.clock()
        if not 0 <= seq < len(self.seen):
            self.unknown += 1
            return
        if self.seen[seq]:
            self.duplicates += 1
            return
        self.seen[seq] = 1
        self.arrived += 1
        self.last_arrival = now
        want = self.expected[seq]
        for attr in self.count_attrs:
            if values[attr] != want:
                self.miscounted += 1
                break
        self.latency[seq] = now - self.stamps[seq]


class LatencyHistogram:
    """Log-binned latency counts (1% wide bins from 1 us to ~100 s).

    Rounds fold into one histogram per run (:class:`Totals`), so a run's
    percentiles cover every tuple while memory stays fixed however many
    rounds run.  Percentiles interpolate inside a bin by rank.
    """

    LOW = 1e-6
    GROWTH = 1.01
    BINS = 1900

    def __init__(self) -> None:
        self.counts = [0] * self.BINS
        self.total = 0

    def add(self, seconds: float) -> None:
        index = 0
        if seconds > self.LOW:
            index = min(self.BINS - 1, int(math.log(seconds / self.LOW, self.GROWTH)))
        self.counts[index] += 1
        self.total += 1

    def add_all(self, latencies: array) -> None:
        """Every delivered tuple's latency (``inf`` marks undelivered)."""
        for seconds in latencies:
            if seconds != math.inf:
                self.add(seconds)

    def percentile_ms(self, q: float) -> float:
        """The q-th percentile (q in [0, 100]) in ms; 0.0 when empty."""
        if not self.total:
            return 0.0
        rank = q / 100.0 * self.total
        seen = 0
        for index, count in enumerate(self.counts):
            if count and seen + count >= rank:
                low = self.LOW * self.GROWTH ** index if index else 0.0
                high = self.LOW * self.GROWTH ** (index + 1)
                return (low + (high - low) * (rank - seen) / count) * 1e3
            seen += count
        return self.LOW * self.GROWTH ** self.BINS * 1e3


def percentile(values: List[float], q: float) -> float:
    """Nearest-rank percentile (q in [0, 100]); 0.0 for no samples."""
    if not values:
        return 0.0
    ordered = sorted(values)
    rank = int(round(q / 100.0 * len(ordered) + 0.5)) - 1
    return ordered[max(0, min(len(ordered) - 1, rank))]


# -- the application ----------------------------------------------------------


def build_app(
    name: str,
    generator: Callable[[float, int], List[Dict[str, Any]]],
    consumer: Callable[[Any], None],
    stages: int,
    width: int,
    period: float,
) -> Application:
    """Source -> ``stages`` chained keyed regions ``r1..`` -> sink."""
    app = Application(name)
    g = app.graph
    prev = g.add_operator(
        "src",
        CallbackSource,
        params={"generator": generator, "period": period},
        partition="feed",
    ).oport(0)
    for i in range(1, stages + 1):
        op = g.add_operator(
            f"kc{i}",
            KeyedCounter,
            params={"key": "key", "count_attr": f"c{i}"},
            parallel=parallel(
                width=width, name=f"r{i}", partition_by="key", max_width=8
            ),
        )
        g.connect(prev, op.iport(0))
        prev = op.oport(0)
    sink = g.add_operator(
        "sink",
        Sink,
        params={"record": False, "consumer": consumer},
        partition="out",
    )
    g.connect(prev, sink.iport(0))
    return app


# -- the orchestrator ---------------------------------------------------------


class BenchOrca(Orchestrator):
    """User adaptation logic driven by ORCA timers and metric epochs.

    Timer payloads are ``(action, arg)`` steps: ``rescale`` (arg = region,
    width), ``crash`` (arg = region; crashes channel 0's PE), and
    ``checkpoint``.  Crashes are recovered from ``handlePEFailureEvent``
    by ``restart_pe(rehydrate=True)``.  With ``toggle_every`` > 0 every
    that-many metric epochs toggle one region between 4 and 8 channels.
    """

    def __init__(
        self,
        app_name: str,
        metric_scopes: bool,
        toggle_every: int,
        stages: int,
        clock: Callable[[], float],
    ) -> None:
        super().__init__()
        self.clock = clock
        self.app_name = app_name
        self.metric_scopes = metric_scopes
        self.toggle_every = toggle_every
        self.stages = stages
        self.job_id: Optional[str] = None
        self.system: Optional[SystemS] = None
        self.last_epoch = 0
        self.toggles = 0
        #: region -> (requested width, clock at the actuation call)
        self.pending_rescale: Dict[str, Tuple[int, float]] = {}
        self.rescale_ms: List[float] = []
        self.rescale_failures = 0
        self.crash_at: Dict[str, float] = {}
        self.reaction_ms: List[float] = []
        self.unexpected_failures = 0
        self.actuation_errors = 0

    # handlers ---------------------------------------------------------------

    def handleOrcaStart(self, context):  # noqa: N802
        orca = self.orca
        orca.registerEventScope(ParallelRegionScope("regions"))
        orca.registerEventScope(PEFailureScope("failures"))
        orca.registerEventScope(TimerScope("timers"))
        if self.metric_scopes:
            orca.registerEventScope(
                OperatorMetricScope("ops").addApplicationFilter(self.app_name)
            )
            orca.registerEventScope(
                PEMetricScope("pes").addApplicationFilter(self.app_name)
            )
        self.job_id = orca.submit_application(self.app_name).job_id

    def handleOperatorMetricEvent(self, context, scopes):  # noqa: N802
        # Fig. 6 style: one stream-graph inspection per metric event
        self.orca.pe_of_operator(context.job_id, context.instance_name)
        self._on_metric(context.epoch)

    def handlePEMetricEvent(self, context, scopes):  # noqa: N802
        self.orca.operators_in_pe(context.pe_id)
        self._on_metric(context.epoch)

    def _on_metric(self, epoch: int) -> None:
        if epoch == self.last_epoch or self.toggle_every <= 0:
            return
        self.last_epoch = epoch
        if epoch % self.toggle_every:
            return
        region = f"r{self.toggles % self.stages + 1}"
        if region in self.pending_rescale:
            return
        width = self.orca.channel_width(self.job_id, region)
        self.toggles += 1
        self.rescale(region, 8 if width == 4 else 4)

    def handleTimerEvent(self, context, scopes):  # noqa: N802
        action, arg = context.payload
        if action == "rescale":
            self.rescale(*arg)
        elif action == "crash":
            plan = self.orca.job(self.job_id).compiled.parallel_regions[arg]
            pe_id = self.orca.pe_of_operator(self.job_id, plan.channel_ops[0][0])
            self.crash_at[pe_id] = self.clock()
            self.system.failures.crash_pe(self.job_id, pe_id=pe_id, reason=INJECTED)
        elif action == "checkpoint":
            self.orca.checkpoint_now(self.job_id)

    def rescale(self, region: str, width: int) -> None:
        """Actuate one rescale and start its clock."""
        self.pending_rescale[region] = (width, self.clock())
        try:
            self.orca.set_channel_width(self.job_id, region, width)
        except Exception:  # noqa: BLE001 - an actuation that cannot start fails
            self.pending_rescale.pop(region, None)
            self.actuation_errors += 1

    def handleRegionRescaledEvent(self, context, scopes):  # noqa: N802
        entry = self.pending_rescale.pop(context.region, None)
        if entry is None:
            return
        width, t0 = entry
        self.rescale_ms.append((self.clock() - t0) * 1000.0)
        actual = self.orca.channel_width(self.job_id, context.region)
        if not context.succeeded or actual != width:
            self.rescale_failures += 1

    def handlePEFailureEvent(self, context, scopes):  # noqa: N802
        t0 = self.crash_at.get(context.pe_id)
        if context.reason != INJECTED or t0 is None:
            self.unexpected_failures += 1
            return
        self.reaction_ms.append((self.clock() - t0) * 1000.0)
        self.orca.restart_pe(context.pe_id, rehydrate=True)


# -- one round ------------------------------------------------------------------


@dataclass
class Round:
    """What one round measured and how it was judged."""

    setup_s: float
    attempted: int = 0
    #: failure class -> count; every class counts against ``attempted``
    failures: Dict[str, int] = field(default_factory=dict)
    tuples: int = 0
    #: clock seconds of each kernel step of the data phase
    data_steps: List[float] = field(default_factory=list)
    #: latency of each tuple by ``seq`` (``inf``: undelivered); dropped
    #: once :meth:`Totals.add` has folded it in
    latency: array = field(default_factory=lambda: array("d"))
    orca_events: int = 0
    #: clock seconds of each kernel step of the span ``orca_events`` counts
    orca_steps: List[float] = field(default_factory=list)
    rescale_ms: List[float] = field(default_factory=list)
    recovery_ms: List[float] = field(default_factory=list)
    #: exact per-seed counts that must repeat round to round (sim only)
    fingerprint: Tuple[int, ...] = ()
    extra: Dict[str, float] = field(default_factory=dict)

    @property
    def failed(self) -> int:
        return sum(self.failures.values())


@dataclass
class Spec:
    """A workload's fixed parameters."""

    name: str
    executor: str
    stages: int
    width: int
    key_space: int
    config: Dict[str, Any]
    metric_scopes: bool
    toggle_every: int = 0
    #: closed loop (keyed_saturate): tuples per round and per 1 ms tick
    n_tuples: int = 0
    per_tick: int = 0
    #: open loop: offered tuples per executor second and the measured
    #: executor seconds per round
    rate: float = 0.0
    horizon: float = 0.0
    #: source tick period (sim or executor seconds)
    period: float = 0.001
    #: ORCA metric poll interval (the paper's default is 15 s)
    poll: float = 0.5
    #: sim workloads: cycles of the idle adaptation probe per round
    probe_cycles: int = 0


SPECS: Dict[str, Spec] = {
    "keyed_saturate": Spec(
        name="keyed_saturate",
        executor="sim",
        stages=1,
        width=4,
        key_space=1024,
        config={"batch_max_size": 64},
        metric_scopes=False,
        # short rounds: a quiet spell of the host must often hold a whole
        # data phase, or latency_p99_ms is not steady (README, Rounds)
        n_tuples=10_000,
        per_tick=64,
        probe_cycles=3,
        # never reached during the data phase, which keeps ORCA light
        poll=15.0,
    ),
    "orca_control": Spec(
        name="orca_control",
        executor="sim",
        stages=4,
        width=4,
        key_space=64,
        config={"metric_push_interval": 0.5},
        metric_scopes=True,
        toggle_every=3,
        rate=50.0,
        horizon=20.0,
        # bursts of five tuples every 0.1 sim-s; a 1 ms tick would be
        # 95% empty polls
        period=0.1,
        # the 0.9 sim-s probe cycle rotates against the 0.5 s push and
        # poll; seven recoveries keep one phase from deciding the median
        probe_cycles=7,
    ),
    "adapt_wallclock": Spec(
        name="adapt_wallclock",
        executor="wallclock",
        stages=1,
        width=2,
        key_space=8192,
        config={
            "delivery": "exactly_once",
            "checkpoint_interval": 0.25,
            "wallclock_time_scale": 1.0,
        },
        metric_scopes=True,
        rate=1000.0,
        horizon=4.0,
    ),
}


def make_generator(
    gate: Dict[str, Any],
    n: int,
    keys: array,
    stamps: array,
    due: Callable[[float, int], int],
    stamp: Callable[[], Tuple[float, float]],
) -> Callable[[float, int], List[Dict[str, Any]]]:
    """The source's generator, for every workload.

    Silent until ``gate["open"]``; then each source tick emits tuples
    ``count`` up to ``due(now, count)`` (at most ``n``), and tuple ``seq``
    is stamped ``base + seq * step`` where ``(base, step) = stamp()``.
    """

    def generator(now: float, count: int) -> List[Dict[str, Any]]:
        if not gate["open"] or count >= n:
            return []
        end = min(due(now, count), n)
        if end <= count:
            return []
        base, step = stamp()
        for seq in range(count, end):
            stamps[seq] = base + seq * step
        return [{"seq": s, "key": keys[s]} for s in range(count, end)]

    return generator


class Workload:
    """Builds and runs rounds of one :class:`Spec` for one seed."""

    def __init__(self, spec: Spec, seed: int) -> None:
        self.spec = spec
        self.seed = seed
        #: the benchmark's clock: process CPU time on the sim executor,
        #: which never sleeps, so time the host scheduler gives to other
        #: processes is not charged to the program; wall time on the
        #: wall-clock executor, whose work is paced by real time
        self.clock = time.process_time if spec.executor == "sim" else time.perf_counter
        #: called with each freshly built system (the tracer's hook)
        self.on_system: Optional[Callable[[SystemS], None]] = None
        self.n = spec.n_tuples or int(spec.horizon * spec.rate)
        self.keys = make_keys(seed, self.n, spec.key_space)
        self.expected, self.final_counts = reference_counts(self.keys)

    # -- set-up ----------------------------------------------------------------

    def _config(self) -> SystemConfig:
        spec = self.spec
        return SystemConfig(
            executor=spec.executor,
            orca_poll_interval=spec.poll,
            pe_restart_delay=PE_RESTART_DELAY,
            failure_notification_delay=FAILURE_NOTIFICATION_DELAY,
            **spec.config,
        )

    def _setup(self, generator, oracle: SinkOracle):
        """Time ``SystemS`` construction to all PEs RUNNING + start handler."""
        spec = self.spec
        clock = self.clock
        t0 = clock()
        system = SystemS(hosts=4, seed=self.seed, config=self._config())
        if self.on_system is not None:
            self.on_system(system)
        app = build_app(
            f"Bench_{spec.name}",
            generator,
            oracle.consume,
            spec.stages,
            spec.width,
            spec.period,
        )
        logic = BenchOrca(
            app.name, spec.metric_scopes, spec.toggle_every, spec.stages, clock
        )
        logic.system = system
        service = system.submit_orchestrator(
            OrcaDescriptor(
                name="PerfbenchOrca",
                logic=lambda: logic,
                applications=[ManagedApplication(name=app.name, application=app)],
            )
        )
        kernel = system.kernel
        while True:
            job = service.jobs.get(logic.job_id) if logic.job_id else None
            if job is not None and job.pes and all(pe.is_running for pe in job.pes):
                break
            if not kernel.step():
                raise RuntimeError("system went idle before its PEs started")
        return clock() - t0, system, service, logic, job

    def setup_only(self) -> float:
        """One more timed set-up of this workload, then tear it down."""

        def idle(now: float, count: int) -> List[Dict[str, Any]]:
            return []

        oracle = SinkOracle(self.expected, (), self.clock, array("d"))
        gc.collect()
        setup_s, _, service, _, _ = self._setup(idle, oracle)
        service.shutdown()
        return setup_s

    # -- rounds ------------------------------------------------------------------

    def run_round(self) -> Round:
        """Set up, run the measured phase, judge the output, tear down."""
        spec, n = self.spec, self.n
        stamps = array("d", bytes(8 * n))
        gate: Dict[str, Any] = {"open": False, "t0": 0.0}
        #: open loop: how late (executor seconds) each emission ran
        late: List[float] = []
        if spec.per_tick:
            per_tick = spec.per_tick

            def due(now: float, count: int) -> int:
                # closed: a fixed batch per tick, at the pipeline's pace
                return count + per_tick

        else:
            rate = spec.rate

            def due(now: float, count: int) -> int:
                # open loop: every tuple due by now; the source tick only
                # polls the generator and never sets the pace
                end = int((now - gate["t0"]) * rate) + 1
                if end > count:
                    late.append(now - gate["t0"] - count / rate)
                return end

        if spec.executor == "sim":
            clock = self.clock

            def stamp() -> Tuple[float, float]:
                # executor time is virtual: the benchmark clock at emission
                return clock(), 0.0

        else:

            def stamp() -> Tuple[float, float]:
                # each tuple's own due time on the executor clock
                return gate["t0"], 1.0 / spec.rate

        oracle = SinkOracle(
            self.expected,
            tuple(f"c{i}" for i in range(1, spec.stages + 1)),
            self.clock,
            stamps,
        )
        generator = make_generator(gate, n, self.keys, stamps, due, stamp)
        gc.collect()
        setup_s, system, service, logic, job = self._setup(generator, oracle)
        kernel = system.kernel
        if spec.executor != "sim":
            # arrivals on the executor clock, the clock of the due stamps
            oracle.clock = lambda: kernel.now
        rnd = Round(setup_s=setup_s)
        restarts = self._watch_restarts(system, logic, rnd)
        events0 = kernel.events_processed
        journal0 = len(service.event_journal)
        if spec.executor == "sim":
            expect_recoveries = self._sim_phase(rnd, system, service, logic, oracle, gate)
            rnd.fingerprint = (
                kernel.events_processed - events0,
                len(service.event_journal) - journal0,
                oracle.arrived,
            )
        else:
            expect_recoveries = self._wallclock_phase(rnd, system, service, logic, oracle, gate)
        rnd.tuples = oracle.arrived
        rnd.latency = oracle.latency
        rnd.recovery_ms = list(restarts)
        self._judge(rnd, system, service, logic, job, oracle, n, expect_recoveries)
        self._check_state(rnd, job)
        rnd.extra["reaction_ms"] = _median(logic.reaction_ms)
        rnd.extra["gen_late_p99_ms"] = percentile(late, 99) * 1e3
        service.shutdown()
        return rnd

    def _sim_phase(self, rnd, system, service, logic, oracle, gate) -> int:
        """Data phase, then the idle probe; returns the recoveries expected.

        The data phase is closed until the input is drained
        (``keyed_saturate``) or runs the fixed sim horizon
        (``orca_control``); a stalled pipeline ends at a deadline.  Both
        run in fixed sim steps whose clock time is kept step by step.
        """
        spec, n = self.spec, self.n
        kernel = system.kernel
        journal0 = len(service.event_journal)
        gate["t0"] = kernel.now
        gate["open"] = True
        if spec.per_tick:
            deadline = kernel.now + n / (spec.per_tick * 1000.0) * 2 + 5.0
            steps = self._timed_steps(kernel, 0.01, lambda: oracle.arrived < n and kernel.now < deadline)
        else:
            end = kernel.now + spec.horizon
            steps = self._timed_steps(kernel, 0.5, lambda: kernel.now < end - 1e-9)
            deadline = kernel.now + 5.0
            steps += self._timed_steps(kernel, 0.1, lambda: oracle.arrived < n and kernel.now < deadline)
        rnd.data_steps = steps
        phase_events = len(service.event_journal) - journal0
        main_rescales = list(logic.rescale_ms)
        # the probe must not race a metric-epoch toggle on the same region
        logic.toggle_every = 0
        probe_steps = self._probe(system, service, logic)
        if spec.toggle_every:
            # the metric-epoch toggles are this workload's rescales
            rnd.rescale_ms = main_rescales
            rnd.orca_events, rnd.orca_steps = phase_events, steps
        else:
            rnd.rescale_ms = logic.rescale_ms[len(main_rescales):]
            rnd.orca_events = len(service.event_journal) - journal0 - phase_events
            rnd.orca_steps = probe_steps
        return spec.probe_cycles

    def _timed_steps(self, kernel, step: float, more: Callable[[], bool]) -> List[float]:
        """Run ``step`` sim seconds at a time while ``more()``; each step's clock time."""
        clock = self.clock
        times = []
        while more():
            t0 = clock()
            kernel.run_for(step)
            times.append(clock() - t0)
        return times

    def _probe(self, system: SystemS, service, logic: BenchOrca) -> List[float]:
        """Idle adaptation probe: checkpoint, crash+recover, rescale out/in."""
        spec = self.spec
        region = "r1"
        up = 8 if spec.width == 4 else spec.width * 2
        t = 0.05
        for _ in range(spec.probe_cycles):
            service.create_timer(t, payload=("checkpoint", None))
            service.create_timer(t + 0.05, payload=("crash", region))
            if not spec.toggle_every:
                service.create_timer(t + 0.3, payload=("rescale", (region, up)))
                service.create_timer(t + 0.6, payload=("rescale", (region, spec.width)))
            t += 0.9
        kernel = system.kernel
        end = kernel.now + t + 0.5
        return self._timed_steps(kernel, 0.1, lambda: kernel.now < end - 1e-9)

    def _wallclock_phase(self, rnd, system, service, logic, oracle, gate) -> int:
        """Open loop in real time under adaptation; returns the recoveries expected."""
        spec, n, rate = self.spec, self.n, self.spec.rate
        kernel = system.kernel
        journal0 = len(service.event_journal)
        # adaptation cycles through ORCA timers every half second:
        # rescale out, crash, rescale in, crash, ... -- every cycle pays
        # the same state costs because keyed state is at full size
        steps = [
            ("rescale", ("r1", 4 if i % 4 == 0 else 2)) if i % 2 == 0 else ("crash", "r1")
            for i in range(int(spec.horizon / 0.5) - 1)
        ]
        for i, payload in enumerate(steps):
            service.create_timer(0.5 * (i + 1), payload=payload)
        wall0 = time.perf_counter()
        gate["t0"] = kernel.now
        gate["open"] = True
        lag: List[int] = []
        end = kernel.now + spec.horizon
        while kernel.now < end:
            kernel.run_for(0.25)
            lag.append(min(n, int((kernel.now - gate["t0"]) * rate)) - oracle.arrived)
        # drain: the backlog must clear within a bounded time
        deadline = kernel.now + 2.0
        while oracle.arrived < n and kernel.now < deadline:
            kernel.run_for(0.05)
        rnd.data_steps = [oracle.last_arrival - gate["t0"]]
        rnd.orca_steps = [time.perf_counter() - wall0]
        rnd.rescale_ms = list(logic.rescale_ms)
        rnd.orca_events = len(service.event_journal) - journal0
        # overload: a sink lag that grows at every sample of the second
        # half and ends above half a second of input fails the round
        half = lag[len(lag) // 2 :]
        if len(half) >= 3 and all(b > a for a, b in zip(half, half[1:])) and half[-1] > rate * 0.5:
            _bump(rnd, "sink_lag_growing")
        return sum(1 for action, _ in steps if action == "crash")

    def _watch_restarts(self, system: SystemS, logic: BenchOrca, rnd: Round) -> List[float]:
        """Recovery samples: crash call to restarted-with-state, in ms."""
        samples: List[float] = []

        def on_restart(pe) -> None:
            t0 = logic.crash_at.pop(pe.pe_id, None)
            if t0 is None:
                return
            samples.append((self.clock() - t0) * 1000.0)
            restore = pe.last_restore
            if restore is None or restore.source != "checkpoint":
                _bump(rnd, "recovery_without_checkpoint")

        def on_failure(pe, reason: str) -> None:
            if reason != INJECTED:
                _bump(rnd, "unexpected_pe_crash")

        subscribe_runtime(system, on_pe_restart=on_restart, on_pe_failure=on_failure)
        return samples

    def _judge(self, rnd, system, service, logic, job, oracle, offered, expect_recoveries) -> None:
        """Count the round's operations and every failure class."""
        rescales = len(logic.rescale_ms) + len(logic.pending_rescale) + logic.actuation_errors
        rnd.attempted = offered + rescales + expect_recoveries
        lost = offered - oracle.arrived
        for name, count in (
            ("tuples_lost", lost),
            ("tuples_duplicated", oracle.duplicates),
            ("tuples_miscounted", oracle.miscounted + oracle.unknown),
            ("handler_errors", len(service.handler_errors)),
            ("rescales_failed", logic.rescale_failures + logic.actuation_errors),
            ("rescales_unfinished", len(logic.pending_rescale)),
            ("recoveries_missing", max(0, expect_recoveries - len(rnd.recovery_ms))),
            ("unexpected_pe_failures", logic.unexpected_failures),
            ("hosts_declared_down", len(system.srm.hosts) - len(system.srm.up_hosts())),
            ("pes_not_running", sum(1 for pe in job.pes if not pe.is_running)),
        ):
            if count:
                _bump(rnd, name, count)

    def _check_state(self, rnd: Round, job) -> None:
        """Keyed state of region r1 must equal the reference final counts."""
        plan = job.compiled.parallel_regions["r1"]
        held: Dict[int, int] = {}
        for ops in plan.channel_ops:
            for op_name in ops:
                operator = job.operator_instance(op_name)
                if operator is None:  # its PE is down: the state is lost
                    _bump(rnd, "state_unavailable")
                    continue
                for key, count in operator.state.keyed("counts").items():
                    if key in held:
                        _bump(rnd, "state_key_on_two_channels")
                    held[key] = count
        want = self.final_counts
        bad = sum(1 for key, count in want.items() if held.get(key) != count)
        bad += sum(1 for key in held if key not in want)
        if bad:
            _bump(rnd, "state_mismatch", bad)


class Totals:
    """A run's end-to-end figures, folded in one round at a time.

    Sim rounds of one seed repeat identical work -- the run fails when
    their kernel events, ORCA events or sink tuples differ -- so they are
    combined by minimum: each data step's clock time, each tuple's latency
    and each rescale or recovery sample (by position) is the fastest of
    its repetitions.  That is the program's own cost; a slower repetition
    differs only by what the host took from it.  Wall-clock rounds do not
    repeat, so their figures are pooled: times summed, every tuple's
    latency binned, every sample kept.
    """

    def __init__(self, repeatable: bool) -> None:
        self.repeatable = repeatable
        self.rounds = 0
        self.tuples = 0
        self.orca_events = 0
        self.data_s: List[float] = []
        self.orca_s: List[float] = []
        self.rescale_ms: List[float] = []
        self.recovery_ms: List[float] = []
        #: repeatable: fastest latency by seq; pooled: every latency, binned
        self.latency = array("d")
        self.hist = LatencyHistogram()

    def add(self, rnd: Round) -> None:
        """Fold one round in and drop its per-tuple latencies."""
        if not self.repeatable:
            self.tuples += rnd.tuples
            self.orca_events += rnd.orca_events
            self.data_s.append(sum(rnd.data_steps))
            self.orca_s.append(sum(rnd.orca_steps))
            self.rescale_ms += rnd.rescale_ms
            self.recovery_ms += rnd.recovery_ms
            self.hist.add_all(rnd.latency)
        elif not self.rounds:
            self.tuples, self.orca_events = rnd.tuples, rnd.orca_events
            self.data_s, self.orca_s = list(rnd.data_steps), list(rnd.orca_steps)
            self.rescale_ms, self.recovery_ms = list(rnd.rescale_ms), list(rnd.recovery_ms)
            self.latency = rnd.latency
        else:
            self.data_s = _fold_min(self.data_s, rnd.data_steps)
            self.orca_s = _fold_min(self.orca_s, rnd.orca_steps)
            self.rescale_ms = _fold_min(self.rescale_ms, rnd.rescale_ms)
            self.recovery_ms = _fold_min(self.recovery_ms, rnd.recovery_ms)
            self.latency = array("d", map(min, self.latency, rnd.latency))
        self.rounds += 1
        rnd.latency = array("d")

    def combine(self, samples: List[float]) -> float:
        """Repeated samples of one figure (``setup_s``): the fastest on
        repeatable rounds, else the median."""
        return min(samples) if self.repeatable else statistics.median(samples)

    def metrics(self) -> Dict[str, float]:
        """Every end-to-end metric but ``setup_s`` and ``peak_rss_mb``."""
        hist = self.hist
        if self.repeatable:
            hist = LatencyHistogram()
            hist.add_all(self.latency)
        return {
            "tuples_per_s": _ratio(self.tuples, sum(self.data_s)),
            "orca_events_per_s": _ratio(self.orca_events, sum(self.orca_s)),
            "latency_p50_ms": hist.percentile_ms(50),
            "latency_p99_ms": hist.percentile_ms(99),
            "rescale_ms": _median(self.rescale_ms),
            "recovery_ms": _median(self.recovery_ms),
        }

    def sample_counts(self) -> Dict[str, int]:
        return {
            "rounds": self.rounds,
            "latency_samples": self.hist.total if not self.repeatable else self.tuples,
            "rescale_samples": len(self.rescale_ms),
            "recovery_samples": len(self.recovery_ms),
            "orca_events": self.orca_events,
        }


def per_round(rounds: List[Round]) -> Dict[str, List[float]]:
    """Each round's own figures, for the spread inside one run."""
    return {
        "tuples_per_s": [_ratio(r.tuples, sum(r.data_steps)) for r in rounds],
        "orca_events_per_s": [_ratio(r.orca_events, sum(r.orca_steps)) for r in rounds],
        "rescale_ms": [_median(r.rescale_ms) for r in rounds],
        "recovery_ms": [_median(r.recovery_ms) for r in rounds],
    }


def _fold_min(mins: List[float], values: List[float]) -> List[float]:
    return [min(a, b) for a, b in zip(mins, values)]


def _ratio(num: float, den: float) -> float:
    return num / den if den > 0 else 0.0


def _bump(rnd: Round, name: str, count: int = 1) -> None:
    rnd.failures[name] = rnd.failures.get(name, 0) + count


def _median(values: List[float]) -> float:
    return statistics.median(values) if values else 0.0
