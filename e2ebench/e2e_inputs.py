"""Seeded workload inputs, their loading, and the requests the benchmark sends.

Generation (:func:`generate`) turns a workload name and seed into raw
values only: positions and value tuples.  Loading (:func:`load`) is the
program's set-up work that ``setup_s`` times: building
``BaseSequence`` objects, bulk-loading ``StoredSequence`` objects and
``Catalog.register`` with its statistics.  References
(:func:`reference_digests`) come from ``repro.evaluate_naive`` over the
in-memory form of the same values, so they do not depend on the
storage layer under test.
"""

from __future__ import annotations

import dataclasses
import random
import time
from dataclasses import dataclass
from typing import Optional

from repro import BaseSequence, Catalog, Record, RecordSchema, Span, StoredSequence
from repro.execution import evaluate_naive
from repro.lang import compile_query
from repro.workloads import (
    STOCK_EXAMPLE_QUERIES,
    WEATHER_EXAMPLE_QUERIES,
    StockSpec,
    WeatherSpec,
    generate_stock,
    generate_weather,
)
from repro.workloads.stocks import TABLE1_SPECS

#: Buffer-pool geometry of every stored sequence: the storage defaults.
PAGE_CAPACITY = 32
BUFFER_PAGES = 16

#: The four stock query shapes of ``scan_memory`` and ``scan_paged``.
STOCK_SHAPES = (
    "project(select({s}, volume > 3000), close, volume)",
    "window({s}, avg, close, 16, ma16)",
    "compose({s} as s, {t} as t, s_close > t_close)",
    "select(compose(project({s}, close) as now, window({s}, avg, close, 10) as trend), "
    "now_close > trend_avg_close)",
)

PROBE_TEXTS = (
    "compose(x as x, is as s)",
    "compose(x as x, cs as s)",
    "select(compose(x as x, previous(is) as p), p_close > x_close)",
)
WINDOW_TEXT = "project(is, close, volume)"
WINDOW_WIDTH = 256
WINDOW_COUNT = 4


@dataclass(frozen=True)
class RawSequence:
    """Generated values of one sequence, not yet loaded into the program.

    ``organization`` is None for an in-memory ``BaseSequence``, else the
    ``StoredSequence`` organization to bulk-load under.
    """

    name: str
    schema: RecordSchema
    span: Span
    items: tuple[tuple[int, tuple], ...]
    organization: Optional[str] = None
    placement_seed: int = 0

    def describe(self) -> dict:
        length = self.span.length() or 0
        return {
            "name": self.name,
            "organization": self.organization or "memory",
            "positions": length,
            "records": len(self.items),
            "density": round(len(self.items) / length, 4) if length else 0.0,
        }


@dataclass(frozen=True)
class Request:
    """One query text (plus a requested span) against one catalog."""

    catalog: int
    text: str
    span: Optional[Span] = None

    @property
    def key(self) -> str:
        return self.text if self.span is None else f"{self.text} @ {self.span}"


@dataclass(frozen=True)
class WorkloadInputs:
    """Everything a workload sends the program, generated from one seed."""

    name: str
    seed: int
    catalogs: tuple[tuple[RawSequence, ...], ...]
    correlations: tuple[tuple[tuple[str, str], ...], ...]
    requests: tuple[Request, ...]


@dataclass
class Loaded:
    """The program-side objects of one set-up, with its timings."""

    catalogs: list[Catalog]
    stored: list[StoredSequence]
    load_s: float
    register_s: float


def _raw(sequence: BaseSequence, name: str, organization=None, placement_seed=0) -> RawSequence:
    return RawSequence(
        name,
        sequence.schema,
        sequence.span,
        tuple((position, record.values) for position, record in sequence.iter_nonnull()),
        organization,
        placement_seed,
    )


def _stock_pair(seed: int, length: int) -> tuple[BaseSequence, BaseSequence]:
    """Two 0.95-density walks; ``s`` trades at a steady premium over ``t``.

    The low volatility and the 3x start-price gap keep ``s_close >
    t_close`` true at almost every position for every seed.  Two
    ordinary random walks would make the join's answer size, and with
    it the answer-assembly cost, swing between 0 and the whole span
    from one seed to the next.
    """
    span = Span(1, length)
    s = generate_stock(StockSpec("s", span, 0.95, 300.0, 0.001, seed=2 * seed + 1))
    t = generate_stock(StockSpec("t", span, 0.95, 100.0, 0.001, seed=2 * seed + 2))
    return s, t


def _scaled(length: int, scale: float) -> int:
    return max(64, int(length * scale))


def generate(workload: str, seed: int, scale: float = 1.0) -> WorkloadInputs:
    """The raw inputs and request list of ``workload`` for ``seed``.

    ``scale`` shrinks the generated sequences (the benchmark's own tests
    use a small one); ``adhoc_small`` keeps its fixed Table 1 sizes.
    """
    if workload == "adhoc_small":
        stocks = tuple(
            _raw(generate_stock(dataclasses.replace(spec, seed=spec.seed + 1000 * seed)), spec.name)
            for spec in TABLE1_SPECS
        )
        volcanos, quakes = generate_weather(WeatherSpec(horizon=2000, seed=seed))
        weather = (_raw(volcanos, "v"), _raw(quakes, "e"))
        requests = tuple(Request(0, text) for text in STOCK_EXAMPLE_QUERIES) + tuple(
            Request(1, text) for text in WEATHER_EXAMPLE_QUERIES
        )
        return WorkloadInputs(
            workload,
            seed,
            (stocks, weather),
            ((("ibm", "dec"), ("ibm", "hp"), ("dec", "hp")), ()),
            requests,
        )
    if workload == "scan_memory":
        s, t = _stock_pair(seed, _scaled(40_000, scale))
        requests = tuple(Request(0, shape.format(s="s", t="t")) for shape in STOCK_SHAPES)
        return WorkloadInputs(
            workload, seed, ((_raw(s, "s"), _raw(t, "t")),), ((("s", "t"),),), requests
        )
    if workload == "scan_paged":
        s, t = _stock_pair(seed, _scaled(5_000, scale))
        volcanos, quakes = generate_weather(
            WeatherSpec(horizon=_scaled(20_000, scale), seed=seed)
        )
        sequences = []
        requests = []
        for prefix, organization in (("c", "clustered"), ("l", "log")):
            sequences += [
                _raw(s, prefix + "s", organization),
                _raw(t, prefix + "t", organization),
            ]
            requests += [
                Request(0, shape.format(s=prefix + "s", t=prefix + "t"))
                for shape in STOCK_SHAPES
            ]
        sequences += [_raw(volcanos, "v", "clustered"), _raw(quakes, "e", "clustered")]
        requests.append(Request(0, WEATHER_EXAMPLE_QUERIES[2]))
        return WorkloadInputs(
            workload,
            seed,
            (tuple(sequences),),
            ((("cs", "ct"), ("ls", "lt")),),
            tuple(requests),
        )
    if workload == "probe_paged":
        length = _scaled(10_000, scale)
        span = Span(1, length)
        dense = generate_stock(StockSpec("d", span, 0.95, 300.0, 0.001, seed=2 * seed + 1))
        events = generate_stock(StockSpec("x", span, 1.0, 100.0, 0.001, seed=2 * seed + 2))
        rng = random.Random(seed)
        # Exactly 2% of the positions, so the probe count is the same for
        # every seed.
        keep = set(rng.sample(range(1, length + 1), max(1, length // 50)))
        sparse = BaseSequence(
            events.schema,
            [(p, r) for p, r in events.iter_nonnull() if p in keep],
            span=span,
        )
        width = min(WINDOW_WIDTH, length // 2)
        offsets = [rng.randint(1, length - width + 1) for _ in range(WINDOW_COUNT)]
        sequences = (
            _raw(dense, "is", "indexed", placement_seed=seed),
            _raw(dense, "cs", "clustered"),
            _raw(sparse, "x", "clustered"),
        )
        requests = tuple(Request(0, text) for text in PROBE_TEXTS) + tuple(
            Request(0, WINDOW_TEXT, Span(o, o + width - 1)) for o in offsets
        )
        return WorkloadInputs(workload, seed, (sequences,), ((),), requests)
    raise ValueError(f"unknown workload {workload!r}")


def _records(raw: RawSequence) -> list[tuple[int, Record]]:
    schema = raw.schema
    return [(position, Record(schema, values)) for position, values in raw.items]


def _memory(raw: RawSequence) -> BaseSequence:
    return BaseSequence(raw.schema, _records(raw), raw.span)


def load(inputs: WorkloadInputs) -> Loaded:
    """Load the inputs into the program: the set-up work ``setup_s`` times.

    ``load_s`` is the time spent bulk-loading stored sequences (zero on
    the in-memory workloads); ``register_s`` is ``Catalog.register``
    plus the pairwise correlation analysis.
    """
    clock = time.perf_counter
    catalogs: list[Catalog] = []
    stored: list[StoredSequence] = []
    load_s = register_s = 0.0
    for raws, pairs in zip(inputs.catalogs, inputs.correlations):
        catalog = Catalog()
        for raw in raws:
            if raw.organization is None:
                sequence = _memory(raw)
            else:
                started = clock()
                sequence = StoredSequence.create(
                    raw.name,
                    raw.schema,
                    _records(raw),
                    span=raw.span,
                    organization=raw.organization,
                    page_capacity=PAGE_CAPACITY,
                    buffer_pages=BUFFER_PAGES,
                    seed=raw.placement_seed,
                )
                load_s += clock() - started
                stored.append(sequence)
            started = clock()
            catalog.register(raw.name, sequence)
            register_s += clock() - started
        started = clock()
        for first, second in pairs:
            catalog.analyze_correlation(first, second)
        register_s += clock() - started
        catalogs.append(catalog)
    return Loaded(catalogs, stored, load_s, register_s)


def consume(answer) -> tuple[int, int]:
    """Read every position and value of an answer; return its digest.

    The digest is the record count and the hash of all
    ``(position, values)`` pairs.  String hashes depend on
    ``PYTHONHASHSEED``, so digests compare only between processes that
    share it.
    """
    pairs = [(position, record.values) for position, record in answer.iter_nonnull()]
    return len(pairs), hash(tuple(pairs))


def reference_digests(inputs: WorkloadInputs) -> dict[str, tuple[int, int]]:
    """The naive evaluator's answer digest for every distinct request."""
    envs = [{raw.name: _memory(raw) for raw in raws} for raws in inputs.catalogs]
    digests: dict[str, tuple[int, int]] = {}
    for request in inputs.requests:
        if request.key not in digests:
            query = compile_query(request.text, envs[request.catalog])
            digests[request.key] = consume(evaluate_naive(query, request.span))
    return digests
