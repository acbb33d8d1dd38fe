"""A live snapshot compiles queries exactly like a fresh seal of its live set.

A live view gathers O′ in two parts — the sealed base's rows with
tombstones masked out, then the delta's add rows — and buys nearest-holder
columns over its own live holders.  None of that may be observable: after
every step of a random insert/delete/compact stream, each compiled query
must equal the same query compiled on ``LiveView(Dataset.seal(
view.records()), DeltaOverlay())`` in ``relevant_ids``, ``coords``,
``masks`` and ``cover_radii`` (rented and bought), and the EXACT, SKECa+
and GKG answers must be the same groups.

The streams deliberately delete a row's nearest base holder, insert nearer
than any base holder, introduce delta-only terms, delete delta adds, and
compact a lagging snapshot so a residual delta survives the seal.
Reopening an engine from its WAL (bare and checkpointed) must compile
the same way too.
"""

from __future__ import annotations

import math

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.common import Deadline
from repro.core.exact import exact
from repro.core.gkg import gkg
from repro.core.query import compile_query
from repro.core.skeca import DEFAULT_EPSILON
from repro.core.skecaplus import skeca_plus
from repro.exceptions import InfeasibleQueryError
from repro.live import LiveMCKEngine
from repro.core.objects import Dataset
from repro.live.delta import DeltaOverlay, LiveView

BASE_TERMS = ("a", "b", "c", "d")
#: Terms the base never holds: they only ever live in a delta.
DELTA_TERMS = ("x", "y")
TERMS = BASE_TERMS + DELTA_TERMS

BASE_RECORDS = [
    (oid, float(oid % 7) * 3.0, float(oid // 7) * 2.5, [BASE_TERMS[oid % 4], BASE_TERMS[(oid * 3 + 1) % 4]])
    for oid in range(28)
]

_point = st.floats(min_value=0.0, max_value=20.0, allow_nan=False)
_terms = st.lists(st.sampled_from(TERMS), min_size=1, max_size=2, unique=True)

_op = st.one_of(
    st.tuples(st.just("insert"), _point, _point, _terms),
    st.tuples(st.just("delete"), st.integers(min_value=0, max_value=10**6)),
    # Insert just off a live object: nearer to it than any base holder.
    st.tuples(st.just("insert_near"), st.integers(min_value=0, max_value=10**6), _terms),
    # Delete the nearest other holder of a term around a live object.
    st.tuples(
        st.just("delete_nearest"),
        st.integers(min_value=0, max_value=10**6),
        st.sampled_from(TERMS),
    ),
    # Seal the snapshot from ``lag`` steps ago; later steps stay as residual.
    st.tuples(st.just("compact"), st.integers(min_value=0, max_value=3)),
)

_queries = st.lists(
    st.lists(st.sampled_from(TERMS), min_size=1, max_size=3, unique=True),
    min_size=1,
    max_size=3,
)


def _compact(base, history, lag):
    """Seal ``history[-1 - lag]`` as compaction does, then rebase the tip."""
    sealed_view = LiveView(base, history[max(0, len(history) - 1 - lag)])
    new_base = sealed_view.seal("prop")
    return new_base, history[-1].rebase(new_base)


def _step(base, history, op):
    """Apply one op; returns the (possibly new) base and delta history."""
    delta = history[-1]
    view = LiveView(base, delta)
    live = sorted(view.live_oids())
    next_oid = max([base.max_oid(), *delta.adds, *delta.tombstones]) + 1
    kind = op[0]
    if kind == "insert":
        _k, x, y, kws = op
        obj = _geo(next_oid, x, y, kws)
        return base, history + [delta.with_insert(obj)]
    if kind == "insert_near" and live:
        _k, pick, kws = op
        anchor = view[live[pick % len(live)]]
        obj = _geo(next_oid, anchor.x + 1e-3, anchor.y - 1e-3, kws)
        return base, history + [delta.with_insert(obj)]
    if kind == "delete" and live:
        victim = view[live[op[1] % len(live)]]
        return base, history + [delta.with_delete(victim.oid, victim.keywords)]
    if kind == "delete_nearest" and live:
        _k, pick, term = op
        anchor = view[live[pick % len(live)]]
        holders = [o for o in view if term in o.keywords and o.oid != anchor.oid]
        if holders:
            victim = min(holders, key=lambda o: math.hypot(o.x - anchor.x, o.y - anchor.y))
            return base, history + [delta.with_delete(victim.oid, victim.keywords)]
    if kind == "compact":
        new_base, residual = _compact(base, history, op[1])
        return new_base, [residual]
    return base, history


def _geo(oid, x, y, kws):
    from repro.core.objects import GeoObject

    return GeoObject(oid, float(x), float(y), frozenset(kws))


def _compiled(view, keywords, buy):
    """A fresh context with its radii taken from rented or bought columns."""
    if buy:
        columns = view.columns
        for term in keywords:
            columns.term_nn_dists(view.vocabulary.id_of(term), len(view))
    ctx = compile_query(view, keywords)
    ctx.cover_radii  # noqa: B018 - forces the rent-or-buy lookup
    return ctx


def _answers(ctx):
    return [
        (group.object_ids, group.diameter)
        for group in (
            exact(ctx, DEFAULT_EPSILON, Deadline.unlimited()),
            skeca_plus(ctx, DEFAULT_EPSILON, Deadline.unlimited()),
            gkg(ctx, Deadline.unlimited()),
        )
    ]


def assert_compiles_like_fresh_seal(view, queries):
    fresh = LiveView(Dataset.seal(view.records(), name="fresh"), DeltaOverlay())
    assert sorted(view.live_oids()) == sorted(fresh.live_oids())
    for keywords in queries:
        try:
            want = _compiled(fresh, keywords, buy=False)
        except InfeasibleQueryError:
            try:
                compile_query(view, keywords)
            except InfeasibleQueryError:
                continue
            raise AssertionError(f"{keywords} compiled live but not sealed")
        got = [_compiled(view, keywords, buy=False), _compiled(view, keywords, buy=True)]
        bought = _compiled(fresh, keywords, buy=True)
        assert bought.relevant_ids == want.relevant_ids
        assert np.array_equal(bought.cover_radii, want.cover_radii)
        for ctx in got:
            assert ctx.relevant_ids == want.relevant_ids
            assert np.array_equal(ctx.coords, want.coords)
            assert ctx.masks == want.masks
            assert np.array_equal(ctx.cover_radii, want.cover_radii)
        assert _answers(got[0]) == _answers(want)


@settings(deadline=None, max_examples=40)
@given(ops=st.lists(_op, min_size=1, max_size=14), queries=_queries)
def test_live_compile_equals_fresh_seal(ops, queries):
    base = Dataset.seal(BASE_RECORDS, name="prop")
    history = [DeltaOverlay(vocab=base.vocabulary)]
    for op in ops:
        base, history = _step(base, history, op)
        assert_compiles_like_fresh_seal(LiveView(base, history[-1]), queries)


def test_named_cases_compile_like_fresh_seal():
    """Each required case once, deterministically."""
    queries = [["a", "b"], ["a", "x"], ["x", "y"], ["b", "c", "d"]]
    base = Dataset.seal(BASE_RECORDS, name="prop")
    history = [DeltaOverlay(vocab=base.vocabulary)]
    for op in [
        ("delete_nearest", 5, "b"),          # a row's nearest base holder
        ("insert_near", 9, ["c"]),           # nearer than any base holder
        ("insert", 4.0, 4.0, ["x", "a"]),    # delta-only term
        ("insert", 9.0, 1.0, ["y"]),
        ("delete", 10**6 - 1),
        ("compact", 2),                      # residual delta survives
        ("insert", 1.0, 2.0, ["y", "b"]),
    ]:
        base, history = _step(base, history, op)
        assert_compiles_like_fresh_seal(LiveView(base, history[-1]), queries)
    # Delete every add: the add rows empty out, tombstones stay.
    delta = history[-1]
    for oid, obj in sorted(delta.adds.items()):
        delta = delta.with_delete(oid, obj.keywords)
    assert len(delta.add_rows) == 0
    assert_compiles_like_fresh_seal(LiveView(base, delta), queries)


@settings(deadline=None, max_examples=10)
@given(ops=st.lists(_op, min_size=1, max_size=10), queries=_queries)
def test_reopened_engine_compiles_like_fresh_seal(ops, queries, tmp_path_factory):
    root = tmp_path_factory.mktemp("reopen")
    wal_path = str(root / "live.wal")
    data_dir = str(root / "data")
    records = [(x, y, kws) for _oid, x, y, kws in BASE_RECORDS]
    bare = LiveMCKEngine.from_records(records, wal_path=wal_path, auto_compact=False)
    durable = LiveMCKEngine.from_records(records, data_dir=data_dir, auto_compact=False)
    try:
        for op in ops:
            for engine in (bare, durable):
                live = engine.dataset.live_oids()
                if op[0] in ("insert", "insert_near"):
                    x, y = (op[1], op[2]) if op[0] == "insert" else (10.0, 10.0)
                    engine.insert(x, y, op[-1])
                elif op[0].startswith("delete") and live:
                    engine.delete(live[op[1] % len(live)])
                elif op[0] == "compact" and engine is durable:
                    engine.compact()
    finally:
        bare.close()
        durable.close()
    reopened = [
        LiveMCKEngine.from_records(records, wal_path=wal_path, auto_compact=False),
        LiveMCKEngine.open(data_dir, auto_compact=False),
    ]
    try:
        assert reopened[0].dataset.live_oids() == reopened[1].dataset.live_oids()
        for engine in reopened:
            assert_compiles_like_fresh_seal(engine.dataset, queries)
    finally:
        for engine in reopened:
            engine.close()
