"""Property tests: the storage substrate is a faithful sequence store."""

from __future__ import annotations

import hypothesis.strategies as st
from hypothesis import HealthCheck, given, settings

from repro.model import NULL, AtomType, BaseSequence, Record, RecordSchema, Span
from repro.storage import StoredSequence

SCHEMA = RecordSchema.of(v=AtomType.INT)


@st.composite
def stored_case(draw):
    positions = draw(
        st.sets(st.integers(min_value=-40, max_value=120), min_size=0, max_size=60)
    )
    items = [(p, Record(SCHEMA, (p * 3,))) for p in sorted(positions)]
    organization = draw(st.sampled_from(["clustered", "indexed", "log"]))
    page_capacity = draw(st.sampled_from([1, 3, 8, 32]))
    buffer_pages = draw(st.sampled_from([1, 2, 8]))
    fanout = draw(st.sampled_from([2, 4, 16]))
    return items, organization, page_capacity, buffer_pages, fanout


@settings(max_examples=80, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(case=stored_case())
def test_round_trip_scan(case):
    items, organization, page_capacity, buffer_pages, fanout = case
    stored = StoredSequence.create(
        "s", SCHEMA, items, organization=organization,
        page_capacity=page_capacity, buffer_pages=buffer_pages,
        index_fanout=fanout,
    )
    assert stored.to_pairs() == items


@settings(max_examples=80, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(case=stored_case(), data=st.data())
def test_probe_agrees_with_memory(case, data):
    items, organization, page_capacity, buffer_pages, fanout = case
    stored = StoredSequence.create(
        "s", SCHEMA, items, organization=organization,
        page_capacity=page_capacity, buffer_pages=buffer_pages,
        index_fanout=fanout,
    )
    reference = BaseSequence(SCHEMA, items)
    for _ in range(10):
        position = data.draw(st.integers(min_value=-50, max_value=130))
        assert stored.get(position) == reference.get(position)


@settings(max_examples=60, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(case=stored_case(), data=st.data())
def test_window_scan_agrees(case, data):
    items, organization, page_capacity, buffer_pages, fanout = case
    stored = StoredSequence.create(
        "s", SCHEMA, items, organization=organization,
        page_capacity=page_capacity, buffer_pages=buffer_pages,
        index_fanout=fanout,
    )
    reference = BaseSequence(SCHEMA, items)
    lo = data.draw(st.integers(min_value=-50, max_value=130))
    hi = data.draw(st.integers(min_value=lo, max_value=131))
    window = Span(lo, hi)
    assert stored.to_pairs(window) == reference.to_pairs(window)


# -- typed page buffers round-trip every value with its Python type ----------

MIXED_SCHEMA = RecordSchema.of(
    n=AtomType.INT, x=AtomType.FLOAT, flag=AtomType.BOOL, s=AtomType.STR
)

#: INT values include ints past int64; FLOAT values include Python ints
#: (exact and past 2**53), which FLOAT attributes accept.
int_values = st.one_of(
    st.integers(min_value=-(2**63), max_value=2**63 - 1),
    st.integers(min_value=2**63, max_value=2**70),
)
float_values = st.one_of(
    st.floats(allow_nan=False),
    st.integers(min_value=-(2**60), max_value=2**60),
)


@st.composite
def mixed_case(draw):
    positions = sorted(
        draw(st.sets(st.integers(min_value=0, max_value=200), max_size=40))
    )
    # Most columns are uniform (typed buffers); some pages mix in values
    # only a list can hold exactly.
    exotic = draw(st.booleans())
    rows = [
        (
            draw(int_values if exotic else st.integers(-(2**40), 2**40)),
            draw(float_values if exotic else st.floats(allow_nan=False)),
            draw(st.booleans()),
            draw(st.text(max_size=5)),
        )
        for _ in positions
    ]
    organization = draw(st.sampled_from(["clustered", "indexed", "log"]))
    page_capacity = draw(st.sampled_from([1, 3, 8]))
    return list(zip(positions, rows)), organization, page_capacity


def typed(values):
    """Values with their exact Python type (and float sign) spelled out."""
    return tuple((type(value), repr(value)) for value in values)


@settings(max_examples=80, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(case=mixed_case())
def test_typed_round_trip(case):
    items, organization, page_capacity = case
    stored = StoredSequence.create(
        "s", MIXED_SCHEMA,
        [(p, Record(MIXED_SCHEMA, values)) for p, values in items],
        organization=organization, page_capacity=page_capacity, index_fanout=4,
    )
    expected = [(p, typed(values)) for p, values in items]
    assert [(p, typed(r.values)) for p, r in stored.iter_nonnull()] == expected
    assert [(p, typed(stored.at(p).values)) for p, _ in items] == expected


@settings(max_examples=120, deadline=None)
@given(
    values=st.lists(
        st.one_of(int_values, st.floats(allow_nan=False), st.booleans()),
        min_size=1, max_size=12,
    ),
    atype=st.sampled_from([AtomType.INT, AtomType.FLOAT, AtomType.BOOL]),
)
def test_page_keeps_inexact_columns_as_lists(values, atype):
    from repro.model.batch import vector_backend
    from repro.storage import Page

    exact_type = {AtomType.INT: int, AtomType.FLOAT: float, AtomType.BOOL: bool}[atype]
    page = Page(0, len(values))
    page.fill(list(range(len(values))), [values], [atype])
    round_trips = [page.values_at(slot)[0] for slot in range(len(values))]
    assert typed(round_trips) == typed(values)
    if any(type(value) is not exact_type for value in values):
        assert isinstance(page.columns[0], list)
    elif (
        (atype is not AtomType.BOOL or vector_backend() is not None)
        and all(-(2**63) <= value < 2**63 for value in values)
    ):
        assert not isinstance(page.columns[0], list)
