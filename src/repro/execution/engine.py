"""The query execution engine.

``execute_plan`` plays the role of the Start operator (Figure 6): it
induces a stream access on the root of a physical plan and materializes
the answer.  ``run_query`` is the one-call entry point: optimize, then
execute, optionally returning the optimizer output and the execution
counters alongside the answer.

Robustness hooks (DESIGN §9): both entry points validate their knobs
before any work or counter mutation happens, accept a
:class:`~repro.execution.guard.QueryGuard` for per-query deadlines,
cancellation, and resource budgets, and offer an opt-in graceful
degradation — a batch-path internal failure re-runs the query on the
row-path oracle, counted in ``ExecutionCounters.fallbacks_taken``.
"""

from __future__ import annotations

import os
import time
from dataclasses import dataclass
from typing import Optional

from repro.errors import (
    ExecutionError,
    QueryGuardError,
    ReproError,
    StorageError,
)
from repro.model.base import BaseSequence, ColumnarAnswer
from repro.model.span import Span
from repro.algebra.graph import Query
from repro.algebra.leaves import SequenceLeaf
from repro.analysis import hooks
from repro.catalog.catalog import Catalog
from repro.optimizer.costmodel import CostParams
from repro.optimizer.optimizer import OptimizationResult, optimize
from repro.optimizer.plans import PhysicalPlan
from repro.execution.batch_streams import DEFAULT_BATCH_SIZE, build_batch_stream
from repro.model.batch import concat_columns, vector_backend
from repro.execution.counters import ExecutionCounters
from repro.execution.guard import QueryGuard
from repro.execution.streams import build_stream
from repro.obs.hist import HistogramSet
from repro.obs.metrics import counters_restore, counters_snapshot
from repro.obs.profile import FlightRecorder, QueryProfile, fingerprint_query
from repro.obs.tracer import CATEGORY_ENGINE, Tracer, active, trace_summary
from repro.storage.counters import StorageCounters

#: Execution modes understood by :func:`execute_plan`.
EXECUTION_MODES = ("batch", "row")

#: Parallel-execution modes: ``"off"`` (default), ``"auto"`` (parallel
#: when certifiable, degrading down the ladder on runtime failure), and
#: ``"force"`` (parallel or a typed refusal/failure — no ladder).
PARALLEL_MODES = ("off", "auto", "force")

#: Worker-pool kinds the parallel supervisor can spawn.
POOL_KINDS = ("thread", "process")

#: Default worker count when ``parallel`` is requested without
#: ``workers``: one lane per visible CPU.
DEFAULT_WORKERS = max(1, os.cpu_count() or 1)


def validate_execution_args(
    mode: str,
    batch_size: int,
    guard: Optional[QueryGuard],
    parallel: str = "off",
    workers: Optional[int] = None,
    pool: str = "thread",
    straggler_timeout: Optional[float] = None,
) -> None:
    """Reject bad execution knobs at the entry-point boundary.

    Called by :func:`execute_plan` and :func:`run_query_detailed`
    *before* any optimization, work, or counter mutation, so a bad knob
    can never leave partial state behind.

    Raises:
        ExecutionError: for an unknown mode, a non-positive or
            non-integer batch size, a guard with nonsensical budgets,
            or bad parallel knobs (unknown parallel mode or pool kind,
            non-positive worker count or straggler timeout).
    """
    if mode not in EXECUTION_MODES:
        raise ExecutionError(
            f"unknown execution mode {mode!r}; expected one of {EXECUTION_MODES}"
        )
    if isinstance(batch_size, bool) or not isinstance(batch_size, int):
        raise ExecutionError(
            f"batch size must be a positive integer, got {batch_size!r}"
        )
    if batch_size < 1:
        raise ExecutionError(f"batch size must be >= 1, got {batch_size}")
    if parallel not in PARALLEL_MODES:
        raise ExecutionError(
            f"unknown parallel mode {parallel!r}; expected one of {PARALLEL_MODES}"
        )
    if workers is not None and (
        isinstance(workers, bool) or not isinstance(workers, int) or workers < 1
    ):
        raise ExecutionError(
            f"parallel workers must be a positive integer, got {workers!r}"
        )
    if pool not in POOL_KINDS:
        raise ExecutionError(
            f"unknown worker pool {pool!r}; expected one of {POOL_KINDS}"
        )
    if straggler_timeout is not None and not (
        isinstance(straggler_timeout, (int, float))
        and not isinstance(straggler_timeout, bool)
        and straggler_timeout > 0
    ):
        raise ExecutionError(
            f"straggler timeout must be > 0 seconds, got {straggler_timeout!r}"
        )
    if guard is not None:
        guard.validate()


def _watch_plan_storage(plan: PhysicalPlan, guard: QueryGuard) -> None:
    """Register every stored base sequence's disk counters with the guard."""
    leaf = plan.node
    if isinstance(leaf, SequenceLeaf):
        counters = getattr(leaf.sequence, "counters", None)
        if isinstance(counters, StorageCounters):
            guard.watch_storage(counters)
    for child in plan.children:
        _watch_plan_storage(child, guard)


def _plan_storage_counters(
    plan: PhysicalPlan, found: Optional[list[StorageCounters]] = None
) -> list[StorageCounters]:
    """Every distinct stored-leaf :class:`StorageCounters` in the plan.

    The flight recorder's pages-read accounting: snapshot each disk's
    ``page_reads`` before execution, delta afterwards (the same leaves
    :func:`_watch_plan_storage` registers with the guard).
    """
    if found is None:
        found = []
    leaf = plan.node
    if isinstance(leaf, SequenceLeaf):
        counters = getattr(leaf.sequence, "counters", None)
        if isinstance(counters, StorageCounters) and all(
            existing is not counters for existing in found
        ):
            found.append(counters)
    for child in plan.children:
        _plan_storage_counters(child, found)
    return found


def _run_batch(
    plan: PhysicalPlan,
    window: Span,
    counters: ExecutionCounters,
    batch_size: int,
    guard: Optional[QueryGuard],
    tracer: Optional[Tracer] = None,
) -> ColumnarAnswer:
    """Materialize the batch-mode answer, keeping it columnar.

    Each batch's columns are compacted to the valid positions (a fancy
    index on vector buffers, ``compress`` on lists) and concatenated;
    the answer never transposes to per-record objects here — the
    returned :class:`~repro.model.base.ColumnarAnswer` materializes
    records lazily if and when a consumer asks for them row-wise.
    """
    schema = plan.schema
    np = vector_backend()
    positions: list[int] = []
    parts: list[list] = []
    for batch in build_batch_stream(plan, window, counters, batch_size, guard, tracer):
        emitted = batch.count_valid()
        counters.records_emitted += emitted
        if guard is not None:
            guard.note_records(emitted)
        if not emitted:
            continue
        valid = batch.valid
        if valid.all():
            positions.extend(range(batch.start, batch.start + len(valid)))
            parts.append(list(batch.columns))
            continue
        selected = valid.indices()
        index_array = None
        compacted: list = []
        for column in batch.columns:
            if np is not None and isinstance(column, np.ndarray):
                if index_array is None:
                    index_array = np.asarray(selected, dtype="int64")
                compacted.append(column[index_array])
            else:
                compacted.append([column[i] for i in selected])
        start = batch.start
        positions.extend(start + i for i in selected)
        parts.append(compacted)
    columns = [concat_columns(list(pieces)) for pieces in zip(*parts)] if parts else [
        [] for _ in schema.attributes
    ]
    return ColumnarAnswer(schema, window, positions, columns)


def _run_row(
    plan: PhysicalPlan,
    window: Span,
    counters: ExecutionCounters,
    guard: Optional[QueryGuard],
    tracer: Optional[Tracer] = None,
) -> list:
    """Materialize the row-mode answer as ``(position, record)`` pairs."""
    pairs: list = []
    for position, record in build_stream(plan, window, counters, guard, tracer):
        counters.records_emitted += 1
        if guard is not None:
            guard.note_records(1)
        pairs.append((position, record))
    return pairs


def _parallel_ladder(
    plan: PhysicalPlan,
    window: Span,
    counters: ExecutionCounters,
    *,
    mode: str,
    batch_size: int,
    guard: Optional[QueryGuard],
    tracer: Optional[Tracer],
    root_span,
    parallel: str,
    workers: Optional[int],
    pool: str,
    straggler_timeout: Optional[float],
    hists: Optional[HistogramSet] = None,
) -> Optional[BaseSequence]:
    """The parallel degradation ladder (DESIGN §14).

    Rung 0: certify the plan for ``workers`` partitions.  A refusal in
    ``auto`` mode returns None — the caller runs the plain single-thread
    path — while ``force`` raises the typed
    :class:`~repro.errors.PartitionSoundnessError`.

    Rung 1: the parallel supervisor
    (:func:`repro.execution.parallel.execute_parallel`).  An
    infrastructure failure (:class:`~repro.errors.ParallelExecutionError`)
    or internal execution error in ``auto`` mode rewinds the counters
    and guard accounting and drops to

    Rung 2: sequential certified execution
    (:func:`~repro.execution.partition.execute_partitioned`), and on a
    further internal failure to

    Rung 3: the row-path oracle.

    Guard verdicts and typed storage faults are never swallowed at any
    rung — they are answers, not infrastructure failures.  Every rung
    taken charges ``parallel_fallbacks`` and records a
    ``parallel:fallback`` event (the ``kernel:fallback`` pattern).
    """
    from repro.analysis.partition import analyze_partition, certify
    from repro.errors import ParallelExecutionError, PartitionSoundnessError
    from repro.execution.parallel import execute_parallel
    from repro.execution.partition import execute_partitioned

    lanes = workers if workers is not None else DEFAULT_WORKERS

    def note_fallback(rung: str, error: Optional[BaseException]) -> None:
        counters.parallel_fallbacks += 1
        if tracer is not None and root_span is not None:
            attrs = {"rung": rung}
            if error is not None:
                attrs["error"] = type(error).__name__
                attrs["message"] = str(error)[:200]
            tracer.event(root_span, "parallel:fallback", **attrs)

    if parallel == "force":
        certificate = certify(plan, lanes, window, tracer=tracer)
    else:
        certificate, _report = analyze_partition(plan, lanes, window, tracer=tracer)
        if certificate is None:
            note_fallback("single-thread", None)
            return None
    snapshot = counters_snapshot(counters)
    guard_records = guard.records_emitted if guard is not None else 0

    def rewind() -> None:
        counters_restore(counters, snapshot)
        if guard is not None:
            guard.rewind_records(guard_records)

    try:
        return execute_parallel(
            plan,
            certificate,
            workers=lanes,
            pool=pool,
            mode=mode,
            batch_size=batch_size,
            counters=counters,
            guard=guard,
            tracer=tracer,
            straggler_timeout=straggler_timeout,
            verify=False,
            hists=hists,
        )
    except QueryGuardError:
        raise
    except StorageError:
        raise
    except (ParallelExecutionError, PartitionSoundnessError, ExecutionError) as error:
        if parallel == "force":
            raise
        rewind()
        note_fallback("sequential-partitioned", error)
        # Re-anchor the rewind point so a rung-2 failure forgets only
        # rung 2's accounting, not the fallback charge just recorded.
        snapshot = counters_snapshot(counters)
        guard_records = guard.records_emitted if guard is not None else 0
    try:
        return execute_partitioned(
            plan,
            certificate,
            mode=mode,
            batch_size=batch_size,
            counters=counters,
            guard=guard,
            tracer=tracer,
            verify=False,
        )
    except QueryGuardError:
        raise
    except StorageError:
        raise
    except ExecutionError as error:
        rewind()
        note_fallback("row-oracle", error)
    pairs = _run_row(plan, window, counters, guard, tracer)
    return BaseSequence.unchecked(plan.schema, pairs, span=window)


def execute_plan(
    plan: PhysicalPlan,
    span: Optional[Span] = None,
    counters: Optional[ExecutionCounters] = None,
    *,
    mode: str = "batch",
    batch_size: int = DEFAULT_BATCH_SIZE,
    guard: Optional[QueryGuard] = None,
    fallback: bool = False,
    tracer: Optional[Tracer] = None,
    parallel: str = "off",
    workers: Optional[int] = None,
    pool: str = "thread",
    straggler_timeout: Optional[float] = None,
    hists: Optional[HistogramSet] = None,
) -> BaseSequence:
    """Run a stream-mode plan and materialize its output.

    Args:
        plan: the root physical plan (stream mode).
        span: output window; defaults to the plan's own span.
        counters: counters to charge (a fresh set if omitted).
        mode: ``"batch"`` (default) runs the columnar batch executor;
            ``"row"`` runs the record-at-a-time executor, kept as the
            semantics oracle.  Both produce identical answers.
        batch_size: positions covered per batch in batch mode.
        guard: per-query governor (deadline, cancellation, budgets);
            checked at batch boundaries and row-loop checkpoints.
        fallback: opt-in graceful degradation — if the batch path fails
            with an internal :class:`~repro.errors.ExecutionError` or a
            :class:`~repro.errors.StorageError`, restore the execution
            counters, charge one ``fallbacks_taken``, and re-run on the
            row-path oracle.  Guard verdicts are never swallowed, and
            the guard's clock keeps running across the rerun.
        tracer: optional span tracer.  When active the run is wrapped
            in an ``execute`` span, every operator gets its own span
            (:mod:`repro.obs.instrument`), a fallback rerun is recorded
            as a ``fallback`` event, and the tracer is finalized when
            the run ends so probe-side spans close.
        parallel: ``"off"`` (default) executes single-threaded;
            ``"auto"`` runs partition-certified plans on the parallel
            supervisor and degrades down the ladder (parallel →
            sequential-partitioned → row oracle) on refusal or runtime
            infrastructure failure; ``"force"`` demands parallel
            execution and raises the typed refusal or failure instead
            of degrading.
        workers: parallel worker lanes (default: one per visible CPU).
        pool: ``"thread"`` (default) or ``"process"`` worker pool.
        straggler_timeout: soft per-partition seconds before the
            supervisor speculatively re-dispatches a straggler.
        hists: optional :class:`~repro.obs.hist.HistogramSet` the
            parallel supervisor folds per-partition lane observations
            into.  Histograms are observational — they record work
            actually performed and are *not* rewound when the
            degradation ladder forgets a failed rung's counters.
    """
    validate_execution_args(
        mode, batch_size, guard, parallel, workers, pool, straggler_timeout
    )
    window = plan.span if span is None else span.intersect(plan.span)
    if not window.is_bounded:
        raise ExecutionError(f"cannot execute over unbounded span {window}")
    # Opt-in self-check (REPRO_VERIFY=1): refuse to run a plan that
    # violates the cache-finiteness or cost-sanity invariants.
    hooks.verify_plan_hook(plan)
    counters = counters if counters is not None else ExecutionCounters()
    if guard is not None:
        guard.start()
        guard.watch_execution(counters)
        _watch_plan_storage(plan, guard)
    if not active(tracer):
        tracer = None
    root_span = None
    if tracer is not None:
        root_span = tracer.begin(
            "execute",
            CATEGORY_ENGINE,
            attrs={
                "mode": mode,
                "batch_size": batch_size if mode == "batch" else None,
                "window": str(window),
                "fallback_enabled": fallback,
                "parallel": parallel,
            },
        )
        tracer.push(root_span)
    answer: Optional[BaseSequence] = None
    pairs: Optional[list] = None
    try:
        if parallel != "off":
            answer = _parallel_ladder(
                plan,
                window,
                counters,
                mode=mode,
                batch_size=batch_size,
                guard=guard,
                tracer=tracer,
                root_span=root_span,
                parallel=parallel,
                workers=workers,
                pool=pool,
                straggler_timeout=straggler_timeout,
                hists=hists,
            )
        if answer is not None:
            pass
        elif mode == "batch":
            # The fallback rewind goes through the one generic
            # snapshot/restore implementation in repro.obs.metrics.
            snapshot = counters_snapshot(counters)
            guard_records = guard.records_emitted if guard is not None else 0
            try:
                answer = _run_batch(plan, window, counters, batch_size, guard, tracer)
            except QueryGuardError:
                raise
            except (ExecutionError, StorageError) as error:
                if not fallback:
                    raise
                # Graceful degradation: forget the failed attempt's engine
                # accounting (the storage counters keep their real I/O) and
                # re-run on the row-path oracle.
                counters_restore(counters, snapshot)
                counters.fallbacks_taken += 1
                if guard is not None:
                    guard.rewind_records(guard_records)
                if tracer is not None and root_span is not None:
                    tracer.event(
                        root_span,
                        "fallback",
                        error=type(error).__name__,
                        message=str(error)[:200],
                    )
                pairs = _run_row(plan, window, counters, guard, tracer)
        else:
            pairs = _run_row(plan, window, counters, guard, tracer)
    finally:
        if tracer is not None and root_span is not None:
            root_span.attrs["records_emitted"] = counters.records_emitted
            tracer.pop()
            tracer.end(root_span)
            tracer.finalize()
    if answer is not None:
        # The batch path finished columnar; keep it that way (records
        # materialize lazily inside the ColumnarAnswer if needed).
        return answer
    # Stream evaluations emit unique ascending positions with records of
    # the plan's schema, so the output skips per-item revalidation.
    return BaseSequence.unchecked(plan.schema, pairs or [], span=window)


@dataclass
class RunResult:
    """A query answer together with how it was obtained.

    Attributes:
        output: the materialized answer sequence.
        optimization: the full optimizer output (plan, annotations,
            Property 4.1 counters, rewrite trace).
        counters: execution-side work counters.
        tracer: the span tracer the run recorded into, when one was
            active (``analyze=True`` or an explicit ``tracer=``);
            None otherwise.
    """

    output: BaseSequence
    optimization: OptimizationResult
    counters: ExecutionCounters
    tracer: Optional[Tracer] = None

    def render_analyze(self) -> str:
        """The EXPLAIN ANALYZE text (requires a recorded trace).

        Raises:
            ExecutionError: when the run was not traced.
        """
        if self.tracer is None or not self.tracer.spans:
            raise ExecutionError(
                "no trace recorded: run the query with analyze=True "
                "(or pass an enabled tracer) before rendering"
            )
        from repro.obs.analyze import render_analyze

        return render_analyze(self.optimization.plan, self.tracer)


def _build_profile(
    *,
    fingerprint: str,
    query: Query,
    mode: str,
    parallel: str,
    workers: Optional[int],
    batch_size: int,
    duration_us: float,
    counters: ExecutionCounters,
    pages_read: int,
    guard: Optional[QueryGuard],
    tracer: Optional[Tracer],
    error: Optional[BaseException],
) -> QueryProfile:
    """Assemble the flight-recorder record for one finished run."""
    verdict = guard.verdict if guard is not None else None
    if verdict is None and isinstance(error, QueryGuardError):
        # A guard-class verdict the shared guard did not stamp itself
        # (e.g. the parallel supervisor's straggler timeout).
        verdict = type(error).__name__
    traced = active(tracer)
    top_operators: list = []
    if traced:
        assert tracer is not None
        top_operators = trace_summary(tracer)["top_operators"]
    return QueryProfile(
        fingerprint=fingerprint,
        query=repr(query)[:200],
        mode=mode,
        parallel=parallel,
        workers=workers,
        batch_size=batch_size,
        duration_us=duration_us,
        records_emitted=counters.records_emitted,
        pages_read=pages_read,
        cache_ops=counters.cache_ops,
        partition_retries=counters.partition_retries,
        stragglers_redispatched=counters.stragglers_redispatched,
        fallbacks_taken=counters.fallbacks_taken,
        parallel_fallbacks=counters.parallel_fallbacks,
        kernels_fallback=counters.kernels_fallback,
        guard_verdict=verdict,
        error=type(error).__name__ if error is not None else None,
        top_operators=top_operators,
        traced=traced,
    )


def run_query_detailed(
    query: Query,
    span: Optional[Span] = None,
    catalog: Optional[Catalog] = None,
    params: Optional[CostParams] = None,
    rewrite: bool = True,
    consider_materialize: bool = True,
    restrict_spans: bool = True,
    mode: str = "batch",
    batch_size: int = DEFAULT_BATCH_SIZE,
    guard: Optional[QueryGuard] = None,
    fallback: bool = False,
    tracer: Optional[Tracer] = None,
    analyze: bool = False,
    parallel: str = "off",
    workers: Optional[int] = None,
    pool: str = "thread",
    straggler_timeout: Optional[float] = None,
    recorder: Optional[FlightRecorder] = None,
) -> RunResult:
    """Optimize and execute ``query``, returning answer + diagnostics.

    ``analyze=True`` records a full trace (creating a
    :class:`~repro.obs.tracer.Tracer` if none was passed) so the result
    supports :meth:`RunResult.render_analyze`.  The ``parallel`` /
    ``workers`` / ``pool`` / ``straggler_timeout`` knobs select the
    parallel partitioned runtime (see :func:`execute_plan`).

    ``recorder`` attaches the flight recorder: the run is timed,
    fingerprinted, and recorded as a compact
    :class:`~repro.obs.profile.QueryProfile` — on success *and* on any
    typed :class:`~repro.errors.ReproError` (which is re-raised
    unchanged).  The recorder also decides tracing for this run: a
    query promoted by a previous slow run, or the every-Nth
    operator-sampling hit, executes with full span capture even when
    the caller passed no tracer.
    """
    # Fail on bad knobs before the optimizer runs: no plan, no counters,
    # no storage access happen for a query that could never execute.
    validate_execution_args(
        mode, batch_size, guard, parallel, workers, pool, straggler_timeout
    )
    fingerprint = None
    if recorder is not None:
        fingerprint = fingerprint_query(query)
        if tracer is None and not analyze:
            if recorder.wants_trace(fingerprint) or recorder.sample_operators():
                tracer = Tracer()
    if analyze and tracer is None:
        tracer = Tracer()
    clock = recorder.clock if recorder is not None else time.perf_counter
    started = clock()
    counters = ExecutionCounters()
    query_hists = HistogramSet() if recorder is not None else None
    storage_watch: list[tuple[StorageCounters, int]] = []

    def pages_read() -> int:
        return sum(
            max(disk.page_reads - baseline, 0)
            for disk, baseline in storage_watch
        )

    try:
        optimization = optimize(
            query,
            catalog=catalog,
            span=span,
            params=params,
            rewrite=rewrite,
            consider_materialize=consider_materialize,
            restrict_spans=restrict_spans,
            tracer=tracer,
        )
        if recorder is not None:
            storage_watch = [
                (disk, disk.page_reads)
                for disk in _plan_storage_counters(optimization.plan.plan)
            ]
        output = execute_plan(
            optimization.plan.plan,
            optimization.plan.output_span,
            counters,
            mode=mode,
            batch_size=batch_size,
            guard=guard,
            fallback=fallback,
            tracer=tracer,
            parallel=parallel,
            workers=workers,
            pool=pool,
            straggler_timeout=straggler_timeout,
            hists=query_hists,
        )
    except ReproError as error:
        if recorder is not None:
            assert fingerprint is not None
            recorder.record(
                _build_profile(
                    fingerprint=fingerprint,
                    query=query,
                    mode=mode,
                    parallel=parallel,
                    workers=workers,
                    batch_size=batch_size,
                    duration_us=max((clock() - started) * 1e6, 0.0),
                    counters=counters,
                    pages_read=pages_read(),
                    guard=guard,
                    tracer=tracer,
                    error=error,
                ),
                hists=query_hists,
            )
        raise
    if recorder is not None:
        assert fingerprint is not None
        recorder.record(
            _build_profile(
                fingerprint=fingerprint,
                query=query,
                mode=mode,
                parallel=parallel,
                workers=workers,
                batch_size=batch_size,
                duration_us=max((clock() - started) * 1e6, 0.0),
                counters=counters,
                pages_read=pages_read(),
                guard=guard,
                tracer=tracer,
                error=None,
            ),
            hists=query_hists,
        )
    return RunResult(
        output=output,
        optimization=optimization,
        counters=counters,
        tracer=tracer if active(tracer) else None,
    )


def run_query(
    query: Query,
    span: Optional[Span] = None,
    catalog: Optional[Catalog] = None,
    params: Optional[CostParams] = None,
    rewrite: bool = True,
    consider_materialize: bool = True,
    restrict_spans: bool = True,
    mode: str = "batch",
    batch_size: int = DEFAULT_BATCH_SIZE,
    guard: Optional[QueryGuard] = None,
    fallback: bool = False,
    tracer: Optional[Tracer] = None,
    analyze: bool = False,
    parallel: str = "off",
    workers: Optional[int] = None,
    pool: str = "thread",
    straggler_timeout: Optional[float] = None,
    recorder: Optional[FlightRecorder] = None,
):
    """Optimize and execute ``query``, returning just the answer.

    With ``analyze=True`` the run is traced and the full
    :class:`RunResult` is returned instead, so the caller can render
    the EXPLAIN ANALYZE tree (:meth:`RunResult.render_analyze`) or
    export the trace alongside the answer (``result.output``).
    """
    result = run_query_detailed(
        query,
        span=span,
        catalog=catalog,
        params=params,
        rewrite=rewrite,
        consider_materialize=consider_materialize,
        restrict_spans=restrict_spans,
        mode=mode,
        batch_size=batch_size,
        guard=guard,
        fallback=fallback,
        tracer=tracer,
        analyze=analyze,
        parallel=parallel,
        workers=workers,
        pool=pool,
        straggler_timeout=straggler_timeout,
        recorder=recorder,
    )
    if analyze:
        return result
    return result.output
