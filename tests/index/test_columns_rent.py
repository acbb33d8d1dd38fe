"""Rent-or-buy nearest-holder columns behind ``QueryContext.cover_radii``.

A store builds a term's whole-store nearest-holder column only once the
O' sizes charged to that term reach the store size; until then each query
answers from its own per-keyword KD-tree.  Both sources must give
bit-identical radii.
"""

import random

import numpy as np
import pytest

from repro import Dataset, MCKEngine
from repro.core.query import compile_query
from repro.index.columns import ColumnarStore
from repro.kernels import scalar_kernels
from tests.conftest import brute_radii


def _records(dataset):
    return [(o.oid, o.x, o.y, o.keywords) for o in dataset]


@pytest.fixture(scope="module")
def dataset():
    rng = random.Random(0x7E47)
    vocab = [f"kw{i}" for i in range(12)]
    records = [
        (rng.uniform(0, 100), rng.uniform(0, 100), rng.sample(vocab, 1))
        for _ in range(600)
    ]
    return Dataset.from_records(records, name="rent")


def _fresh_store(dataset):
    """Forget bought columns and rent so each test starts from zero."""
    store = dataset.columns
    store._term_nn.clear()
    store._term_rent.clear()
    return store


QUERY = ("kw0", "kw1")


class TestRentOrBuy:
    def test_no_column_on_first_use(self, dataset):
        store = _fresh_store(dataset)
        ctx = compile_query(dataset, QUERY)
        assert 0 < len(ctx) < len(store)
        ctx.cover_radii
        assert store._term_nn == {}

    def test_column_bought_once_rent_reaches_n(self, dataset):
        store = _fresh_store(dataset)
        tid = dataset.vocabulary.id_of(QUERY[0])
        paid = 0
        while True:
            ctx = compile_query(dataset, QUERY)
            ctx.cover_radii
            paid += len(ctx)
            if paid >= len(store):
                break
            assert tid not in store._term_nn
        assert tid in store._term_nn

    def test_radii_identical_across_the_switch(self, dataset):
        store = _fresh_store(dataset)
        with scalar_kernels():
            reference = compile_query(dataset, QUERY).cover_radii
        ctx = compile_query(dataset, QUERY)
        want = brute_radii(_records(dataset), QUERY, ctx.relevant_ids)
        assert np.allclose(reference, want, rtol=1e-12, atol=0.0)
        bought_at = None
        for i in range(12):
            radii = compile_query(dataset, QUERY).cover_radii
            assert np.array_equal(radii, reference)
            if bought_at is None and store._term_nn:
                bought_at = i
        assert bought_at is not None and bought_at > 0
        assert len(store._term_nn) == len(QUERY)

    def test_exclude_never_consults_the_store(self, dataset, monkeypatch):
        _fresh_store(dataset)

        def refuse(self, term_id, rent):
            raise AssertionError("store asked under exclude")

        monkeypatch.setattr(ColumnarStore, "term_nn_dists", refuse)
        full = compile_query(dataset, QUERY)
        dropped = frozenset(full.relevant_ids[:3])
        for _ in range(10):
            ctx = compile_query(dataset, QUERY, exclude=dropped)
            kept = [r for r in _records(dataset) if r[0] not in dropped]
            want = brute_radii(kept, QUERY, ctx.relevant_ids)
            assert np.allclose(ctx.cover_radii, want, rtol=1e-12, atol=0.0)

    def test_distinct_single_use_queries_buy_nothing(self):
        """Worker-memory regression: one-off keywords never buy a column."""
        rng = random.Random(0xB0B)
        records = []
        for q in range(200):
            for kw in (f"a{q}", f"b{q}"):
                records.extend(
                    (rng.uniform(0, 1000), rng.uniform(0, 1000), [kw])
                    for _ in range(5)
                )
        engine = MCKEngine(Dataset.from_records(records, name="distinct"))
        for q in range(200):
            group = engine.query([f"a{q}", f"b{q}"], algorithm="SKECa+")
            assert len(group.object_ids) == 2
        assert engine.dataset.columns._term_nn == {}
