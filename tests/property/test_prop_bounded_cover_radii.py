"""Coverage radii bounded by a search's probe radius.

``QueryContext.cover_radii_within(b)`` computes each O′ row's coverage
radius only as far as ``b``: a row whose radius is at most ``b`` must hold
exactly the unbounded value (bit for bit), and every other row ``+inf``.
The unbounded array itself must match the brute-force definition.  The
draws cover a row exactly at the bound, coincident points, a keyword with
one holder, a mix of bought and rented nearest-holder columns,
``exclude``, and a live view with tombstones and add rows.  Reading above
a cached bound recomputes, never returning ``inf`` for a radius in reach.
"""

from __future__ import annotations

import math

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import Dataset
from repro.core.objects import GeoObject
from repro.core.query import compile_query
from repro.exceptions import InfeasibleQueryError
from repro.live.delta import DeltaOverlay, LiveView

from tests.conftest import brute_radii

TERMS = ("a", "b", "c", "d")
#: Held by exactly one object, so its holder tree has a single point.
LONE = "z"

# A coarse grid, so coincident points are common.
_coord = st.integers(min_value=0, max_value=400).map(lambda i: i / 40.0)
_row = st.tuples(
    _coord, _coord, st.lists(st.sampled_from(TERMS), min_size=1, max_size=2, unique=True)
)
_rows = st.lists(_row, min_size=3, max_size=30)
_query = st.lists(st.sampled_from(TERMS + (LONE,)), min_size=1, max_size=3, unique=True)
#: Which query terms' columns to buy before compiling (bit i = keyword i).
_buy = st.integers(min_value=0, max_value=7)
#: A bound: ``("radius", i)`` is row i's own radius (a row exactly at the
#: bound), ``("scale", f)`` a fraction of the largest radius.
_bound = st.one_of(
    st.tuples(st.just("radius"), st.integers(min_value=0, max_value=10**6)),
    st.tuples(st.just("scale"), st.floats(min_value=0.0, max_value=1.2)),
    st.just(("zero", 0)),
)


def _records(rows):
    """``(oid, x, y, keywords)`` with the lone keyword on the last row."""
    out = [(oid, x, y, list(kws)) for oid, (x, y, kws) in enumerate(rows)]
    out[-1][3].append(LONE)
    return [(oid, x, y, tuple(kws)) for oid, x, y, kws in out]


def _pick_bound(spec, exact):
    kind, value = spec
    finite = exact[np.isfinite(exact)]
    if kind == "zero" or not len(finite):
        return 0.0
    if kind == "radius":
        return float(finite[value % len(finite)])
    return float(finite.max()) * value


def _buy_columns(store, vocabulary, keywords, mask):
    for bit, term in enumerate(keywords):
        if mask >> bit & 1 and term in vocabulary:
            store.term_nn_dists(vocabulary.id_of(term), len(store))


def check_bounded(make_ctx, records, keywords, bound_spec, exclude=()):
    """``make_ctx()`` compiles afresh; ``records`` are the live objects."""
    try:
        exact = make_ctx().cover_radii
    except InfeasibleQueryError:
        return
    ctx = make_ctx()
    kept = [r for r in records if r[0] not in exclude]
    want = brute_radii(kept, keywords, ctx.relevant_ids)
    assert np.allclose(exact, want, rtol=1e-12, atol=0.0)

    bound = _pick_bound(bound_spec, exact)
    bounded = ctx.cover_radii_within(bound)
    within = exact <= bound
    assert np.array_equal(bounded[within], exact[within])
    assert np.all(np.isposinf(bounded[~within]))
    # Cached for any smaller bound; a wider read recomputes.
    assert ctx.cover_radii_within(bound / 2.0) is bounded
    assert np.array_equal(ctx.cover_radii, exact)


@settings(deadline=None, max_examples=150)
@given(rows=_rows, keywords=_query, buy=_buy, bound=_bound, drop=st.integers(0, 3))
def test_sealed_bounded_radii(rows, keywords, buy, bound, drop):
    records = _records(rows)
    dataset = Dataset.from_records([(x, y, list(kws)) for _o, x, y, kws in records])
    exclude = frozenset(range(drop))

    def make_ctx():
        if not exclude:
            _buy_columns(dataset.columns, dataset.vocabulary, keywords, buy)
        return compile_query(dataset, keywords, exclude=exclude or None)

    check_bounded(make_ctx, records, keywords, bound, exclude)


@settings(deadline=None, max_examples=80)
@given(
    rows=_rows,
    adds=st.lists(_row, min_size=1, max_size=8),
    deletes=st.lists(st.integers(min_value=0, max_value=10**6), min_size=1, max_size=6),
    keywords=_query,
    buy=_buy,
    bound=_bound,
)
def test_live_view_bounded_radii(rows, adds, deletes, keywords, buy, bound):
    base_records = _records(rows)
    base = Dataset.seal(base_records, name="prop")
    delta = DeltaOverlay(vocab=base.vocabulary)
    next_oid = len(base_records)
    for x, y, kws in adds:
        delta = delta.with_insert(GeoObject(next_oid, x, y, frozenset(kws)))
        next_oid += 1
    for pick in deletes:
        view = LiveView(base, delta)
        live = sorted(view.live_oids())
        if len(live) == 1:
            break  # keep one object live
        victim = view[live[pick % len(live)]]
        delta = delta.with_delete(victim.oid, victim.keywords)
    view = LiveView(base, delta)
    records = [(oid, x, y, tuple(kws)) for oid, x, y, kws in view.records()]

    def make_ctx():
        _buy_columns(view.columns, view.vocabulary, keywords, buy)
        return compile_query(view, keywords)

    check_bounded(make_ctx, records, keywords, bound)


def test_read_above_the_cached_bound_recomputes():
    dataset = Dataset.from_records(
        [(0.0, 0.0, ["a"]), (1.0, 0.0, ["b"]), (5.0, 0.0, ["a"]), (10.0, 0.0, ["b"])]
    )
    ctx = compile_query(dataset, ["a", "b"])
    narrow = ctx.cover_radii_within(1.0)
    assert narrow.tolist() == [1.0, 1.0, math.inf, math.inf]
    assert ctx.cover_radii_within(4.0).tolist() == [1.0, 1.0, 4.0, math.inf]
    assert ctx.cover_radii.tolist() == [1.0, 1.0, 4.0, 5.0]
