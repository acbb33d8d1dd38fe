"""Shared fixtures: handcrafted and random datasets with known structure."""

from __future__ import annotations

import math
import random

import numpy as np
import pytest

from repro import Dataset, MCKEngine
from repro.testing import faults as _faults


@pytest.fixture(autouse=True)
def _disarm_faults():
    """No armed fault ever outlives its test."""
    yield
    _faults.reset()


@pytest.fixture(scope="session")
def kyoto_dataset() -> Dataset:
    """The paper's Figure-1 scenario: shrine/shop/restaurant/hotel POIs.

    Objects 0-3 form a tight cluster (the intended answer); 4-9 are decoys
    spread out so every keyword also appears far away.
    """
    records = [
        (10.0, 10.0, ["shrine"]),       # 0 - cluster
        (11.0, 10.5, ["shop"]),         # 1 - cluster
        (10.5, 11.0, ["restaurant"]),   # 2 - cluster
        (11.2, 11.2, ["hotel"]),        # 3 - cluster
        (50.0, 50.0, ["shrine"]),       # 4
        (52.0, 50.0, ["shop"]),         # 5
        (90.0, 10.0, ["restaurant"]),   # 6
        (10.0, 90.0, ["hotel"]),        # 7
        (60.0, 60.0, ["shop", "cafe"]), # 8
        (0.0, 0.0, ["museum"]),         # 9
    ]
    return Dataset.from_records(records, name="kyoto")


@pytest.fixture(scope="session")
def kyoto_engine(kyoto_dataset) -> MCKEngine:
    return MCKEngine(kyoto_dataset)


@pytest.fixture(scope="session")
def kyoto_query():
    return ["shrine", "shop", "restaurant", "hotel"]


def make_random_dataset(
    seed: int,
    n: int = 40,
    vocab: str = "abcdefgh",
    extent: float = 100.0,
    max_terms: int = 3,
) -> Dataset:
    """Deterministic random dataset used by cross-validation tests."""
    rng = random.Random(seed)
    records = []
    for _ in range(n):
        kws = rng.sample(list(vocab), rng.randint(1, max_terms))
        records.append((rng.uniform(0, extent), rng.uniform(0, extent), kws))
    return Dataset.from_records(records, name=f"random-{seed}")


def feasible_query(dataset: Dataset, seed: int, m: int) -> list:
    """A feasible m-keyword query over ``dataset`` (terms that exist)."""
    rng = random.Random(seed * 7919 + 13)
    terms = dataset.vocabulary.terms_by_frequency()
    if len(terms) < m:
        m = len(terms)
    return rng.sample(terms, m)


@pytest.fixture
def random_dataset_factory():
    return make_random_dataset


@pytest.fixture
def feasible_query_factory():
    return feasible_query


def brute_radii(records, keywords, oids):
    """cover_radii by definition, per oid: the farthest nearest holder.

    ``records`` are ``(oid, x, y, keywords)``; every holder of a query
    keyword is in O', so the nearest holder is searched over all records.
    """
    where = {oid: (x, y) for oid, x, y, _kws in records}
    holders = [[(x, y) for _o, x, y, kws in records if kw in kws] for kw in keywords]

    def radius(oid):
        px, py = where[oid]
        return max(min(math.hypot(x - px, y - py) for x, y in pts) for pts in holders)

    return np.array([radius(oid) for oid in oids])
