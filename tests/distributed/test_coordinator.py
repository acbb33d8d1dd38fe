"""Tests for the distributed mCK protocol."""

import random

import pytest

from repro.core.engine import MCKEngine
from repro.core.objects import Dataset
from repro.distributed import DistributedMCKEngine
from tests.conftest import feasible_query, make_random_dataset


@pytest.fixture(scope="module")
def single_keyword_dataset():
    """Single-keyword objects: every group spans several objects."""
    rng = random.Random(5)
    vocab = list("abcdefgh")
    records = [
        (rng.uniform(0, 100), rng.uniform(0, 100), [rng.choice(vocab)])
        for _ in range(150)
    ]
    return Dataset.from_records(records)


class TestExactness:
    @pytest.mark.parametrize("n_workers", [1, 4, 9])
    @pytest.mark.parametrize("seed", range(4))
    def test_matches_centralized(self, single_keyword_dataset, n_workers, seed):
        ds = single_keyword_dataset
        rng = random.Random(seed)
        query = rng.sample("abcdefgh", rng.randint(2, 4))
        central = MCKEngine(ds).query(query, algorithm="EXACT")
        result = DistributedMCKEngine(ds, n_workers=n_workers).query(query)
        assert result.group.diameter == pytest.approx(
            central.diameter, abs=1e-9
        )

    def test_random_multi_keyword_data(self):
        ds = make_random_dataset(9, n=100)
        query = feasible_query(ds, 9, 3)
        central = MCKEngine(ds).query(query, algorithm="EXACT")
        result = DistributedMCKEngine(ds, n_workers=4).query(query)
        assert result.group.diameter == pytest.approx(central.diameter, abs=1e-9)


class TestProtocolShape:
    def test_single_object_answer_one_round(self):
        ds = Dataset.from_records(
            [(10, 10, ["a", "b"]), (90, 90, ["a"]), (95, 95, ["b"])]
        )
        result = DistributedMCKEngine(ds, n_workers=4).query(["a", "b"])
        assert result.rounds == 1
        assert result.group.diameter == 0.0

    def test_two_rounds_for_spanning_groups(self, single_keyword_dataset):
        result = DistributedMCKEngine(single_keyword_dataset, n_workers=4).query(
            ["a", "b"]
        )
        assert result.rounds in (1, 2)
        assert result.messages > 0
        assert result.bytes_shipped > 0

    def test_makespan_at_most_total(self, single_keyword_dataset):
        result = DistributedMCKEngine(single_keyword_dataset, n_workers=9).query(
            ["a", "b", "c"]
        )
        assert result.makespan_seconds <= result.total_compute_seconds + 1e-9

    def test_fallback_when_no_local_cover(self):
        """Two far corners each hold one keyword: no single partition
        covers the query, so the strip is every relevant row — and the
        answer must still be exact."""
        ds = Dataset.from_records(
            [(0.0, 0.0, ["left"]), (100.0, 100.0, ["right"])]
        )
        result = DistributedMCKEngine(ds, n_workers=4).query(["left", "right"])
        assert result.strip_objects == 2
        assert result.rounds == 2
        assert result.bytes_shipped == 16 * 64 + 2 * 48
        assert result.group.diameter == pytest.approx((2 * 100**2) ** 0.5)
        assert result.group.quality == "exact"

    def test_worker_answers_recorded(self, single_keyword_dataset):
        result = DistributedMCKEngine(single_keyword_dataset, n_workers=4).query(
            ["a", "b"]
        )
        assert len(result.worker_answers) == 4

    def test_straddling_pair_found_in_the_strip(self):
        """Each cell holds a wide local pair; the best pair straddles the
        x = 50 edge, so only the strip solve can find it."""
        ds = Dataset.from_records(
            [
                (0.0, 0.0, ["a"]), (100.0, 100.0, ["b"]),  # fix the extent
                (10.0, 10.0, ["a"]), (40.0, 40.0, ["b"]),
                (60.0, 60.0, ["a"]), (90.0, 90.0, ["b"]),
                (49.0, 20.0, ["a"]), (51.0, 20.0, ["b"]),
            ]
        )
        result = DistributedMCKEngine(ds, n_workers=4).query(["a", "b"])
        assert result.group.object_ids == (6, 7)
        assert result.group.diameter == pytest.approx(2.0)
        assert result.group.quality == "exact"
        assert 2 <= result.strip_objects < len(ds)


class TestScalingBehaviour:
    def test_more_workers_less_makespan_or_close(self, single_keyword_dataset):
        """Parallel speed-up is workload dependent, but the makespan with 9
        workers should never be far above the single-worker cost."""
        one = DistributedMCKEngine(single_keyword_dataset, n_workers=1).query(
            ["a", "b", "c"]
        )
        nine = DistributedMCKEngine(single_keyword_dataset, n_workers=9).query(
            ["a", "b", "c"]
        )
        assert nine.makespan_seconds <= one.makespan_seconds * 3 + 0.05
