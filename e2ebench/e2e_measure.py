"""Set-up, timed runs and traced runs of one workload, and their metrics.

A request is one query text turned into a consumed answer through the
public API, with every execution knob at its default::

    compile_query -> optimize -> execute_plan -> iterate the answer

The load is a closed loop with one client.  The timed run measures the
end-to-end metrics with tracing off.  Between set-ups and between passes
a fixed pure-Python calibration loop measures how fast the machine runs;
every reported time is scaled to a reference speed by the speed measured
while it was taken (see :class:`Speed`).  The traced run is separate: it
alternates untraced and traced passes over the request list, passes a
``repro.obs.Tracer`` to ``optimize`` and ``execute_plan``, records the
benchmark's own spans around the four request steps, and times the
stored sequences' ``iter_nonnull``/``at`` from outside the program.
"""

from __future__ import annotations

import gc
import math
import resource
import statistics
import time
import traceback
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Optional

from repro.execution import ExecutionCounters, execute_plan
from repro.lang import compile_query, parse
from repro.obs import Tracer
from repro.optimizer import optimize
from repro.storage import StorageCounters

from e2e_inputs import Loaded, Request, WorkloadInputs, consume, load

#: Set-ups per run: at least the minimum, and more while they have taken
#: less than the budget; ``setup_s`` is their median.
SETUP_MIN_REPEATS = 3
SETUP_MAX_REPEATS = 15
SETUP_BUDGET_S = 3.0

#: The calibration loop's median time on the reference machine (2 vCPUs
#: of a shared host, Python 3.11).  Times are reported as they would
#: read on a machine where the loop takes this long.
REFERENCE_CALIBRATION_S = 0.0025
CALIBRATION_ROUNDS = 3000
#: Calibration samples after each set-up; there are as few as 3 set-ups.
SETUP_CALIBRATIONS = 5
#: How much a request's time moves with the loop's time across the
#: host's spells, as a power: the slope of log pass time on log loop
#: time measured 0.37 to 0.55 on the four workloads.
SPEED_ELASTICITY = 0.5

#: Physical operator kinds the optimizer emits (``PhysicalPlan.kind``).
OPERATOR_KINDS = (
    "scan",
    "probe-source",
    "chain",
    "lockstep",
    "stream-probe",
    "probe-stream",
    "probe-join",
    "window-agg",
    "value-offset",
    "cumulative-agg",
    "global-agg",
    "materialize",
)

LAYERS = ("lang", "optimizer", "analysis", "execution", "storage", "model")

END_TO_END = (
    ("throughput_qps", "1/s"),
    ("latency_p50_ms", "ms"),
    ("latency_p90_ms", "ms"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
)

EXECUTION_COUNTERS = (
    "operator_records",
    "batches_built",
    "predicate_evals",
    "cache_ops",
    "max_cache_occupancy",
    "probes_issued",
    "kernels_fallback",
)
STORAGE_COUNTERS = (
    "page_reads",
    "buffer_hits",
    "index_node_reads",
    "records_streamed",
    "probes",
)

#: Optimizer phase span names -> metric names.
OPTIMIZER_PHASES = {
    "rewrite": "optimizer.rewrite_ms",
    "annotate": "optimizer.annotate_ms",
    "blocks": "optimizer.blocks_ms",
    "plan-gen": "optimizer.plan_gen_ms",
    "selection": "optimizer.selection_ms",
}
ANALYSIS_PHASES = {
    "partition-contract": "analysis.partition_contract_ms",
    "effects": "analysis.effects_ms",
}

PER_LAYER = (
    (
        ("lang.compile_ms", "ms"),
        ("lang.parse_ms", "ms"),
        ("optimizer.optimize_ms", "ms"),
    )
    + tuple((name, "ms") for name in OPTIMIZER_PHASES.values())
    + (
        ("optimizer.plans_considered", "count"),
        ("optimizer.peak_plans_stored", "count"),
        ("optimizer.est_cost_error", "ratio"),
    )
    + tuple((name, "ms") for name in ANALYSIS_PHASES.values())
    + (
        ("catalog.register_s", "s"),
        ("execution.execute_ms", "ms"),
    )
    + tuple((f"execution.op.{kind}_ms", "ms") for kind in OPERATOR_KINDS)
    + tuple((f"execution.{name}", "count") for name in EXECUTION_COUNTERS)
    + (
        ("storage.read_ms", "ms"),
        ("storage.load_s", "s"),
    )
    + tuple((f"storage.{name}", "count") for name in STORAGE_COUNTERS)
    + (
        ("storage.buffer_hit_ratio", "ratio"),
        ("storage.pages_per_answer_record", "pages/record"),
        ("model.answer_ms", "ms"),
        ("model.answer_records", "count"),
    )
    + tuple((f"{layer}.share", "ratio") for layer in LAYERS)
    + (
        ("obs.tracing_overhead_pct", "%"),
        ("obs.unattributed_pct", "%"),
    )
)

_clock = time.perf_counter


@dataclass
class Tally:
    """Answer checks: every request's digest against its reference."""

    references: dict[str, tuple[int, int]]
    attempted: int = 0
    failed: int = 0
    first_failure: Optional[str] = None

    def check(self, request: Request, digest: tuple[int, int]) -> None:
        self.attempted += 1
        if digest != self.references[request.key]:
            self._fail(f"answer digest mismatch for {request.key!r}")

    def error(self, request: Request) -> None:
        self.attempted += 1
        self._fail(f"{request.key!r} raised:\n{traceback.format_exc()}")

    def _fail(self, message: str) -> None:
        self.failed += 1
        if self.first_failure is None:
            self.first_failure = message


def _serve(request: Request, loaded: Loaded) -> tuple[int, int]:
    catalog = loaded.catalogs[request.catalog]
    query = compile_query(request.text, catalog)
    result = optimize(query, catalog=catalog, span=request.span)
    answer = execute_plan(result.plan.plan, result.plan.output_span)
    return consume(answer)


def _timed_request(request: Request, loaded: Loaded, tally: Tally) -> Optional[float]:
    """Serve one request untraced; its latency in seconds, None if it failed."""
    started = _clock()
    try:
        digest = _serve(request, loaded)
    except Exception:  # a failed operation: count it and keep running
        tally.error(request)
        return None
    elapsed = _clock() - started
    tally.check(request, digest)
    return elapsed


def _untraced_pass(
    inputs: WorkloadInputs, loaded: Loaded, tally: Tally
) -> list[Optional[float]]:
    """Each request's latency in list order; None where it failed."""
    return [_timed_request(request, loaded, tally) for request in inputs.requests]


class _Point:
    __slots__ = ("x", "y")

    def __init__(self, x, y):
        self.x = x
        self.y = y


def _calibration_loop() -> float:
    table: dict[int, tuple] = {}
    total = 0.0
    for i in range(CALIBRATION_ROUNDS):
        point = _Point(i, i * 0.5)
        table[i % 97] = (point.x, point.y)
        total += point.y + len(table)
    return total


class Speed:
    """How fast the machine runs, from a calibration loop timed between passes.

    The shared host's speed drifts between fast and slow spells that
    last from seconds to minutes, which moves a run's times by a quarter
    or more from one run to the next.  The calibration loop is fixed
    Python code that does not touch the program, so its time follows
    the host alone.  The loop stays in the first-level cache and its
    time swings about twice as far as the program's, which also waits
    on memory; :meth:`scale` therefore divides out the square root of
    the loop's slowdown.  The factor does not depend on the program, so
    a change to the program moves the scaled times exactly as it moves
    the measured ones.
    """

    def __init__(self) -> None:
        self.samples: list[float] = []

    def sample(self) -> None:
        """Time one calibration loop, with the cyclic collector off.

        A collection triggered inside the loop would charge it with the
        program's garbage.
        """
        gc.disable()
        try:
            started = _clock()
            _calibration_loop()
            self.samples.append(_clock() - started)
        finally:
            gc.enable()

    def calibration_s(self) -> float:
        return statistics.median(self.samples)

    def scale(self) -> float:
        """Factor from measured seconds to seconds at the reference speed."""
        return (REFERENCE_CALIBRATION_S / self.calibration_s()) ** SPEED_ELASTICITY


@dataclass
class SetUp:
    loaded: Loaded
    setup_s: float
    load_s: float
    register_s: float
    repeats: int
    time_scale: float


def set_up(inputs: WorkloadInputs, tally: Tally) -> SetUp:
    """Load the inputs and run the warm-up pass, several times over.

    Each repetition starts from nothing, so lazy caches such as
    ``BaseSequence.nonnull_columns`` fill again; the last set-up is the
    one the runs use.  Times are medians over the repetitions, scaled
    by the speed sampled after each.
    """
    speed = Speed()
    setups: list[float] = []
    loads: list[float] = []
    registers: list[float] = []
    loaded = None
    while len(setups) < SETUP_MIN_REPEATS or (
        sum(setups) < SETUP_BUDGET_S and len(setups) < SETUP_MAX_REPEATS
    ):
        loaded = None  # drop the previous set-up before building the next
        gc.collect()
        started = _clock()
        loaded = load(inputs)
        _untraced_pass(inputs, loaded, tally)
        setups.append(_clock() - started)
        loads.append(loaded.load_s)
        registers.append(loaded.register_s)
        for _ in range(SETUP_CALIBRATIONS):
            speed.sample()
    assert loaded is not None
    scale = speed.scale()
    return SetUp(
        loaded,
        statistics.median(setups) * scale,
        statistics.median(loads) * scale,
        statistics.median(registers) * scale,
        len(setups),
        scale,
    )


def timed_run(
    inputs: WorkloadInputs, setup: SetUp, tally: Tally, seconds: float
) -> tuple[dict, dict]:
    """Send whole passes over the request list for ``seconds``; end-to-end metrics.

    Throughput is completed requests over the time spent in the passes.
    Latencies are summarized per request of the list, by the request's
    interquartile mean over the run.  ``latency_p50_ms`` is their mean
    and ``latency_p90_ms`` their 90th percentile over the list.  A
    percentile of all samples pooled would fall in the gap between two
    requests' latencies and jump with the noise at that gap's edges.
    Every time is scaled to the reference speed.
    """
    speed = Speed()
    latencies: list[list[float]] = [[] for _ in inputs.requests]
    busy = 0.0
    gc.collect()
    deadline = _clock() + seconds
    while _clock() < deadline:
        started = _clock()
        times = _untraced_pass(inputs, setup.loaded, tally)
        busy += _clock() - started
        for samples, elapsed in zip(latencies, times):
            if elapsed is not None:
                samples.append(elapsed)
        speed.sample()
    typical = [_interquartile_mean(samples) for samples in latencies if samples]
    if not typical:
        raise RuntimeError("no request completed")
    completed = sum(len(samples) for samples in latencies)
    scale = speed.scale()
    peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    values = {
        "throughput_qps": completed / (busy * scale),
        "latency_p50_ms": statistics.fmean(typical) * scale * 1e3,
        "latency_p90_ms": _p90(typical) * scale * 1e3,
        "setup_s": setup.setup_s,
        "peak_rss_mb": peak_kb / 1024.0,
    }
    return values, {
        "samples": completed,
        "measured_s": round(busy, 3),
        **_speed_info(speed),
    }


def _interquartile_mean(values: list[float]) -> float:
    """The mean of the middle half of ``values``.

    Central like the median, but where the samples mix fast and slow
    spells of the host it moves in proportion to the mix, while the
    median jumps from one spell's level to the other's.
    """
    ordered = sorted(values)
    quarter = len(ordered) // 4
    return statistics.fmean(ordered[quarter : len(ordered) - quarter])


def _p90(values: list[float]) -> float:
    if len(values) < 2:
        return values[0]
    return statistics.quantiles(values, n=10, method="inclusive")[-1]


def _speed_info(speed: Speed) -> dict:
    return {
        "calibration_ms": round(speed.calibration_s() * 1e3, 4),
        "calibration_samples": len(speed.samples),
        "time_scale": round(speed.scale(), 4),
    }


# -- traced run ---------------------------------------------------------------


class StorageTimer:
    """Times the stored sequences' ``iter_nonnull`` and ``at`` from outside.

    The timers are instance attributes that shadow the class methods, so
    :meth:`detach` restores the untimed program exactly.
    """

    def __init__(self, sequences):
        self.sequences = list(sequences)
        self.seconds = 0.0

    def attach(self) -> None:
        for sequence in self.sequences:
            sequence.iter_nonnull = self._timed_iter(sequence.iter_nonnull)
            sequence.at = self._timed_at(sequence.at)

    def detach(self) -> None:
        for sequence in self.sequences:
            del sequence.iter_nonnull
            del sequence.at

    def _timed_iter(self, iter_nonnull):
        def timed(within=None):
            items = iter_nonnull(within)
            while True:
                started = _clock()
                item = next(items, None)
                self.seconds += _clock() - started
                if item is None:
                    return
                yield item

        return timed

    def _timed_at(self, at):
        def timed(position):
            started = _clock()
            try:
                return at(position)
            finally:
                self.seconds += _clock() - started

        return timed


def _storage_totals(sequences) -> StorageCounters:
    total = StorageCounters()
    for sequence in sequences:
        total = total + sequence.counters
    return total


@dataclass
class TracedRequest:
    """What one traced request leaves behind for the end-of-pass reduction."""

    tracer: Tracer
    plan_children: dict[int, tuple[int, ...]]
    counters: ExecutionCounters
    digest: tuple[int, int]
    plans_considered: int
    peak_plans_stored: int
    estimated_cost: float
    page_reads: int
    parse_s: float


def _plan_children(root) -> dict[int, tuple[int, ...]]:
    """Each physical plan node's children, keyed by ``id``.

    Operator spans carry their node's ``id`` as ``plan_id``.  Their
    parent in the span tree is whatever span was open when they were
    built, which for probe-side operators is not their plan parent.
    """
    children = {}
    stack = [root]
    while stack:
        plan = stack.pop()
        children[id(plan)] = tuple(id(child) for child in plan.children)
        stack.extend(plan.children)
    return children


@contextmanager
def _step(tracer: Tracer, name: str, timer: StorageTimer):
    """A benchmark span around one request step, noting its storage time."""
    storage_start = timer.seconds
    with tracer.span(name, "bench") as span:
        yield span
    span.attrs["storage_s"] = timer.seconds - storage_start


def _traced_request(
    request: Request, loaded: Loaded, timer: StorageTimer
) -> TracedRequest:
    catalog = loaded.catalogs[request.catalog]
    tracer = Tracer()
    # The program gets forks of the benchmark's tracer: the engine
    # finalizes its tracer when execution ends, which would also close
    # the benchmark's spans still open around it.  The forks share the
    # epoch, and are grafted under the steps that called them.
    optimizer_tracer, engine_tracer = tracer.fork(), tracer.fork()
    counters = ExecutionCounters()
    reads_before = _storage_totals(loaded.stored).page_reads
    with tracer.span("request", "bench"):
        with _step(tracer, "compile", timer):
            query = compile_query(request.text, catalog)
        with _step(tracer, "optimize", timer) as optimize_span:
            result = optimize(
                query, catalog=catalog, span=request.span, tracer=optimizer_tracer
            )
        with _step(tracer, "execute", timer) as execute_span:
            answer = execute_plan(
                result.plan.plan, result.plan.output_span, counters, tracer=engine_tracer
            )
        with _step(tracer, "answer", timer):
            digest = consume(answer)
    tracer.adopt(optimizer_tracer, under=optimize_span)
    tracer.adopt(engine_tracer, under=execute_span)
    page_reads = _storage_totals(loaded.stored).page_reads - reads_before
    started = _clock()
    parse(request.text)
    parse_s = _clock() - started
    plan = result.plan
    return TracedRequest(
        tracer,
        _plan_children(plan.plan),
        counters,
        digest,
        plan.plans_considered,
        plan.peak_plans_stored,
        plan.estimated_cost,
        page_reads,
        parse_s,
    )


#: Benchmark step span -> (the layer its self time belongs to, its metric).
_BENCH_STEPS = {
    "compile": ("lang", "lang.compile_ms"),
    "optimize": ("optimizer", "optimizer.optimize_ms"),
    "execute": ("execution", "execution.execute_ms"),
    "answer": ("model", "model.answer_ms"),
}
#: Program span category -> layer.
_CATEGORY_LAYER = {
    "optimizer": "optimizer",
    "analysis": "analysis",
    "engine": "execution",
    "operator": "execution",
}
#: Program phase span (category, name) -> its metric.
_PHASES = {
    **{("optimizer", name): metric for name, metric in OPTIMIZER_PHASES.items()},
    **{("analysis", name): metric for name, metric in ANALYSIS_PHASES.items()},
}


def _request_times(
    tracer: Tracer, plan_children: dict[int, tuple[int, ...]]
) -> dict[str, float]:
    """One request's times in seconds: ``request``, ``self.<layer>`` and metrics.

    A span's self time is its busy time minus its children's busy time.
    For the program's operator spans busy time is the time inside the
    operator's pulls (sampled and scaled on the probe side), and their
    children are the spans of their plan node's children; for every
    other span busy time is the wall interval and children come from
    the span tree.  Storage time is measured inside the benchmark's step
    spans and is subtracted from the layer of the step it happened in.
    Operator self times include the storage reads of leaf access.
    """
    children_busy: dict[Optional[int], float] = defaultdict(float)
    plan_busy: dict[int, float] = defaultdict(float)
    for span in tracer.spans:
        children_busy[span.parent_id] += span.busy_us
        if span.category == "operator":
            plan_busy[span.attrs["plan_id"]] += span.busy_us
    times: dict[str, float] = defaultdict(float)
    for span in tracer.spans:
        if span.category == "operator":
            inner_us = sum(plan_busy[c] for c in plan_children[span.attrs["plan_id"]])
        else:
            inner_us = children_busy[span.span_id]
        self_s = (span.busy_us - inner_us) / 1e6
        wall_s = span.busy_us / 1e6
        if span.category == "bench":
            if span.name == "request":
                times["request"] += wall_s
                continue
            layer, metric = _BENCH_STEPS[span.name]
            storage_s = span.attrs["storage_s"]
            times[f"self.{layer}"] += self_s - storage_s
            times["self.storage"] += storage_s
            times["storage.read_ms"] += storage_s
            times[metric] += wall_s
            continue
        layer = _CATEGORY_LAYER.get(span.category)
        if layer is None:
            raise RuntimeError(f"span {span.name!r} has unknown category {span.category!r}")
        times[f"self.{layer}"] += self_s
        if span.category == "operator":
            times[f"execution.op.{span.attrs['kind']}_ms"] += self_s
        metric = _PHASES.get((span.category, span.name))
        if metric is not None:
            times[metric] += wall_s
    return times


@dataclass
class PassSummary:
    """One traced pass over the request list, reduced."""

    requests: int
    times: dict[str, float]
    counts: dict[str, float]


def _traced_pass(
    inputs: WorkloadInputs, loaded: Loaded, tally: Tally, timer: StorageTimer
) -> PassSummary:
    timer.attach()
    storage_before = _storage_totals(loaded.stored)
    done: list[TracedRequest] = []
    try:
        for request in inputs.requests:
            try:
                traced = _traced_request(request, loaded, timer)
            except Exception:  # a failed operation: count it and keep running
                tally.error(request)
                continue
            tally.check(request, traced.digest)
            done.append(traced)
    finally:
        timer.detach()
    storage = _storage_totals(loaded.stored) - storage_before

    # The spans stayed in memory for the whole pass; reduce them now.
    times: dict[str, float] = defaultdict(float)
    counters = ExecutionCounters()
    ratios = []
    for traced in done:
        for name, value in _request_times(traced.tracer, traced.plan_children).items():
            times[name] += value
        times["lang.parse_ms"] += traced.parse_s
        counters.merge_from(traced.counters)
        if traced.page_reads:
            ratios.append(traced.estimated_cost / traced.page_reads)
    answer_records = sum(traced.digest[0] for traced in done)
    counts: dict[str, float] = {
        "optimizer.plans_considered": sum(t.plans_considered for t in done),
        "optimizer.peak_plans_stored": max((t.peak_plans_stored for t in done), default=0),
        "optimizer.est_cost_error": (
            math.exp(statistics.fmean(math.log(r) for r in ratios)) if ratios else 0.0
        ),
        "model.answer_records": answer_records,
        "storage.buffer_hit_ratio": (
            storage.buffer_hits / (storage.buffer_hits + storage.page_reads)
            if storage.buffer_hits + storage.page_reads
            else 0.0
        ),
        "storage.pages_per_answer_record": (
            storage.page_reads / answer_records if answer_records else 0.0
        ),
    }
    for name in EXECUTION_COUNTERS:
        counts[f"execution.{name}"] = getattr(counters, name)
    for name in STORAGE_COUNTERS:
        counts[f"storage.{name}"] = getattr(storage, name)
    return PassSummary(len(done), dict(times), counts)


def traced_run(
    inputs: WorkloadInputs, setup: SetUp, tally: Tally, seconds: float
) -> tuple[dict, dict]:
    """Alternate untraced and traced passes for ``seconds``; per-layer metrics.

    Times are medians over traced passes of each pass's time per
    request, scaled to the reference speed like the end-to-end times.
    Counts come from the first traced pass, whose place in the run is
    fixed, so they repeat exactly for a given seed.
    """
    loaded = setup.loaded
    speed = Speed()
    timer = StorageTimer(loaded.stored)
    untraced: list[float] = []
    passes: list[PassSummary] = []
    gc.collect()
    deadline = _clock() + seconds
    while not passes or _clock() < deadline:
        times = _untraced_pass(inputs, loaded, tally)
        untraced.append(sum(t for t in times if t is not None))
        passes.append(_traced_pass(inputs, loaded, tally, timer))
        speed.sample()
    passes = [p for p in passes if p.requests]
    if not passes:
        raise RuntimeError("no traced request completed")

    def per_request(name: str) -> float:
        return statistics.median(p.times.get(name, 0.0) / p.requests for p in passes)

    def share(name: str) -> float:
        return statistics.median(p.times.get(name, 0.0) / p.times["request"] for p in passes)

    scale = speed.scale()
    values: dict[str, float] = {}
    for name, unit in PER_LAYER:
        if unit == "ms":
            values[name] = per_request(name) * scale * 1e3
    for layer in LAYERS:
        values[f"{layer}.share"] = share(f"self.{layer}")
    values["catalog.register_s"] = setup.register_s
    values["storage.load_s"] = setup.load_s
    values.update(passes[0].counts)
    traced_s = statistics.median(p.times["request"] for p in passes)
    values["obs.tracing_overhead_pct"] = (traced_s / statistics.median(untraced) - 1.0) * 100
    values["obs.unattributed_pct"] = statistics.median(
        (1.0 - sum(p.times.get(f"self.{layer}", 0.0) for layer in LAYERS) / p.times["request"])
        * 100
        for p in passes
    )
    info = {
        "traced_passes": len(passes),
        "untraced_passes": len(untraced),
        "counters_repeat_across_passes": all(p.counts == passes[0].counts for p in passes),
        **_speed_info(speed),
    }
    return values, info
