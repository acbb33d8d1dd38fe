"""Golden answers: every algorithm's exact output on a pinned seed.

``golden_answers.json`` holds, for each of the five algorithms and each
pinned query, the object ids in order, the float diameter and the full
``Group.stats``.  They were recorded while the columnar kernels still had
a scalar object-path twin and the two agreed bit for bit, so any drift
here is a kernel change, not tolerance noise: compare with ``==``.
"""

import json
import random
from pathlib import Path

import pytest

from repro.core.engine import MCKEngine
from repro.core.exact import exact
from repro.core.gkg import gkg
from repro.core.objects import Dataset
from repro.core.query import compile_query
from repro.core.skec import skec
from repro.core.skeca import skeca
from repro.core.skecaplus import skeca_plus

GOLDEN = json.loads((Path(__file__).parent / "golden_answers.json").read_text())

ALGORITHMS = {
    "GKG": gkg,
    "SKEC": skec,
    "SKECa": skeca,
    "SKECa+": skeca_plus,
    "EXACT": exact,
}


@pytest.fixture(scope="module")
def workload():
    spec = GOLDEN["workload"]
    rng = random.Random(spec["seed"])
    vocab = [f"kw{i}" for i in range(spec["terms"])]
    records = []
    for _ in range(spec["objects"]):
        x = rng.uniform(0.0, 1000.0)
        y = rng.uniform(0.0, 1000.0)
        keywords = rng.sample(vocab, rng.randint(1, 3))
        records.append((x, y, keywords))
    dataset = Dataset.from_records(records, name="parity")
    queries = [tuple(rng.sample(vocab, spec["m"])) for _ in spec["queries"]]
    assert [list(q) for q in queries] == spec["queries"], "workload generator drifted"
    return dataset, queries


class TestGoldenAnswers:
    def test_all_algorithms_match_golden_answers(self, workload):
        dataset, queries = workload
        for name, fn in ALGORITHMS.items():
            for qi, (q, want) in enumerate(zip(queries, GOLDEN["answers"][name])):
                group = fn(compile_query(dataset, q))
                assert list(group.object_ids) == want["object_ids"], f"{name} q{qi}: ids"
                assert group.diameter == want["diameter"], f"{name} q{qi}: diameter"
                assert dict(group.stats) == want["stats"], f"{name} q{qi}: stats"

    def test_engine_matches_golden_answers(self, workload):
        """End-to-end through MCKEngine (compile + dispatch included)."""
        dataset, queries = workload
        engine = MCKEngine(dataset)
        got = [list(engine.query(list(q), algorithm="SKECa+").object_ids) for q in queries]
        assert got == [a["object_ids"] for a in GOLDEN["answers"]["SKECa+"]]
