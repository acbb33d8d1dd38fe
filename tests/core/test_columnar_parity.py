"""Columnar-vs-object-path parity: bit-identical groups on a pinned seed.

The PR's acceptance bar: every algorithm must return the *same* answer —
object ids including order, exact diameter, and the search counters — with
the vectorized kernels on and off.  The columnar kernels are constructed
as bit-identical rewrites (stable sorts over the same keys, elementwise
ufuncs over the same operands, prefix selections of the same stable
order), so any drift here is a kernel bug, not tolerance noise.
"""

import random

import pytest

from repro.core.engine import MCKEngine
from repro.core.exact import exact
from repro.core.gkg import gkg
from repro.core.objects import Dataset
from repro.core.query import compile_query
from repro.core.skec import skec
from repro.core.skeca import skeca
from repro.core.skecaplus import skeca_plus
from repro.kernels import scalar_kernels, set_vectorized, vectorized_enabled

SEED = 0xC01
N_OBJECTS = 2500
N_TERMS = 12
M = 5
N_QUERIES = 3

ALGORITHMS = {
    "GKG": gkg,
    "SKEC": skec,
    "SKECa": skeca,
    "SKECa+": skeca_plus,
    "EXACT": exact,
}


@pytest.fixture(scope="module")
def workload():
    rng = random.Random(SEED)
    vocab = [f"kw{i}" for i in range(N_TERMS)]
    records = []
    for _ in range(N_OBJECTS):
        x = rng.uniform(0.0, 1000.0)
        y = rng.uniform(0.0, 1000.0)
        keywords = rng.sample(vocab, rng.randint(1, 3))
        records.append((x, y, keywords))
    dataset = Dataset.from_records(records, name="parity")
    queries = [tuple(rng.sample(vocab, M)) for _ in range(N_QUERIES)]
    return dataset, queries


def _run_all(dataset, queries, vectorized):
    """One full sweep in the given kernel mode; returns comparable tuples."""
    set_vectorized(vectorized)
    out = {}
    for name, fn in ALGORITHMS.items():
        runs = []
        for q in queries:
            ctx = compile_query(dataset, q)
            group = fn(ctx)
            runs.append(
                (
                    tuple(group.object_ids),
                    group.diameter,
                    tuple(sorted(group.stats.items())),
                )
            )
        out[name] = runs
    return out


class TestColumnarParity:
    def test_all_algorithms_bit_identical(self, workload):
        dataset, queries = workload
        original = vectorized_enabled()
        try:
            vec = _run_all(dataset, queries, vectorized=True)
            obj = _run_all(dataset, queries, vectorized=False)
        finally:
            set_vectorized(original)
        for name in ALGORITHMS:
            for qi, (v, o) in enumerate(zip(vec[name], obj[name])):
                assert v[0] == o[0], f"{name} q{qi}: object ids diverge"
                assert v[1] == o[1], f"{name} q{qi}: diameter diverges"
                assert v[2] == o[2], f"{name} q{qi}: stats counters diverge"

    def test_scalar_kernels_context_manager_restores(self):
        before = vectorized_enabled()
        with scalar_kernels():
            assert not vectorized_enabled()
        assert vectorized_enabled() == before

    def test_engine_answers_match_across_modes(self, workload):
        """End-to-end through MCKEngine (compile + dispatch included)."""
        dataset, queries = workload
        engine = MCKEngine(dataset)
        original = vectorized_enabled()
        try:
            set_vectorized(True)
            vec = [
                engine.query(list(q), algorithm="SKECa+").object_ids
                for q in queries
            ]
            set_vectorized(False)
            obj = [
                engine.query(list(q), algorithm="SKECa+").object_ids
                for q in queries
            ]
        finally:
            set_vectorized(original)
        assert vec == obj
