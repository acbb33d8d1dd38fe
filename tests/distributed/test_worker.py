"""Unit tests for the simulated worker."""

import pytest

from repro.core.objects import Dataset
from repro.distributed.partition import GridPartitioner, Partition
from repro.distributed.worker import Worker
from tests.conftest import make_random_dataset


@pytest.fixture
def ds():
    return make_random_dataset(3, n=60)


class TestWorkerConstruction:
    def test_holds_partition_objects(self, ds):
        (part, *_rest) = GridPartitioner(ds, 4).partitions()
        worker = Worker(part, ds)
        assert len(worker) == len(part)
        assert worker.local_dataset is not None
        assert len(worker.local_dataset) == len(part)

    def test_empty_partition(self, ds):
        empty = Partition(worker_id=9, core=(0, 0, 0, 0))
        worker = Worker(empty, ds)
        assert len(worker) == 0
        answer = worker.answer(["a"], algorithm="GKG")
        assert answer.group is None
        assert answer.diameter == float("inf")


class TestAnswer:
    def test_answer_in_global_ids(self, ds):
        parts = GridPartitioner(ds, 1).partitions()
        worker = Worker(parts[0], ds)  # owns everything
        terms = ds.vocabulary.terms_by_frequency()[:2]
        answer = worker.answer(terms, algorithm="EXACT")
        assert answer.group is not None
        for oid in answer.group.object_ids:
            # Global ids must resolve in the parent dataset and cover terms.
            assert 0 <= oid < len(ds)
        covered = set()
        for oid in answer.group.object_ids:
            covered |= ds[oid].keywords
        assert set(terms) <= covered

    def test_infeasible_locally(self, ds):
        parts = GridPartitioner(ds, 4).partitions()
        worker = Worker(parts[0], ds)
        answer = worker.answer(["no-such-keyword"], algorithm="GKG")
        assert answer.group is None
        assert len(answer.rows.oids) == 0

    def test_infeasible_worker_ships_holders_of_the_other_keywords(self, ds):
        (part, *_rest) = GridPartitioner(ds, 4).partitions()
        worker = Worker(part, ds)
        term = ds[part.core_ids[0]].keywords
        term = sorted(term)[0]
        answer = worker.answer(["no-such-keyword", term], algorithm="EXACT")
        assert answer.group is None
        holders = [oid for oid in part.core_ids if term in ds[oid].keywords]
        assert answer.rows.oids.tolist() == holders
        assert set(answer.rows.masks.tolist()) == {2}
        for oid, (x, y) in zip(answer.rows.oids, answer.rows.coords):
            assert ds.location_of(int(oid)) == (x, y)

    def test_rows_are_the_answered_context(self, ds):
        parts = GridPartitioner(ds, 1).partitions()
        worker = Worker(parts[0], ds)
        terms = ds.vocabulary.terms_by_frequency()[:2]
        answer = worker.answer(terms, algorithm="SKECa+")
        relevant = [
            oid for oid in range(len(ds)) if ds[oid].keywords & set(terms)
        ]
        assert answer.rows.oids.tolist() == relevant

    def test_compute_time_recorded(self, ds):
        parts = GridPartitioner(ds, 1).partitions()
        worker = Worker(parts[0], ds)
        terms = ds.vocabulary.terms_by_frequency()[:2]
        answer = worker.answer(terms, algorithm="GKG")
        assert answer.compute_seconds >= 0.0

    def test_algorithm_tag_in_group(self, ds):
        parts = GridPartitioner(ds, 1).partitions()
        worker = Worker(parts[0], ds)
        terms = ds.vocabulary.terms_by_frequency()[:2]
        answer = worker.answer(terms, algorithm="GKG")
        assert answer.group.algorithm.endswith(f"@w{worker.worker_id}")
