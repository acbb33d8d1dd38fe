"""Crash/failover properties of the replication subsystem.

For ANY interleaving of inserts, deletes, replica syncs, bootstrap
checkpoints and **primary kills at arbitrary points**, a replication
group must:

1. never lose an acknowledged write (flush-before-ack + promotion of the
   most caught-up replica + draining the dead primary's shipped log);
2. end up answering all five algorithms identically to a never-crashed
   single-engine twin holding the same surviving records;
3. reopen from disk (epoch fencing history + bootstrap segments + WAL
   tails) into exactly the same live set.
"""

from __future__ import annotations

import tempfile

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.live import LiveMCKEngine
from repro.replication import ReplicationGroup

SEED = [
    (0, 0.0, 0.0, ["a"]),
    (1, 8.0, 8.0, ["b"]),
    (2, 16.0, 0.0, ["c", "a"]),
    (3, 0.0, 16.0, ["b", "c"]),
]

ALGORITHMS = ["GKG", "SKEC", "SKECa", "SKECa+", "EXACT"]

_keywords = st.lists(
    st.sampled_from("abcd"), min_size=1, max_size=2, unique=True
)

_op = st.one_of(
    st.tuples(
        st.just("insert"),
        st.floats(min_value=0.0, max_value=16.0, allow_nan=False),
        st.floats(min_value=0.0, max_value=16.0, allow_nan=False),
        _keywords,
    ),
    st.tuples(st.just("delete"), st.integers(min_value=0, max_value=50)),
    st.tuples(st.just("sync")),
    st.tuples(st.just("checkpoint")),
    st.tuples(st.just("crash")),
)


class TestFailoverParity:
    @settings(max_examples=25, deadline=None)
    @given(ops=st.lists(_op, max_size=12))
    def test_any_interleaving_of_mutations_and_kills(self, ops):
        with tempfile.TemporaryDirectory() as tmp:
            group = ReplicationGroup(
                SEED, dir=tmp, n_replicas=1, respawn_backoff=0.0
            )
            model = {oid: (x, y, frozenset(kw)) for oid, x, y, kw in SEED}
            inserted = []
            try:
                for op in ops:
                    if op[0] == "insert":
                        _, x, y, kws = op
                        oid = group.insert(x, y, kws)  # acked => durable
                        model[oid] = (x, y, frozenset(kws))
                        inserted.append(oid)
                    elif op[0] == "delete":
                        if not inserted:
                            continue
                        oid = inserted.pop(op[1] % len(inserted))
                        group.delete(oid)
                        del model[oid]
                    elif op[0] == "sync":
                        group.sync_replicas()
                    elif op[0] == "checkpoint":
                        group.checkpoint_bootstrap()
                    else:  # crash: SIGKILL the primary, then fail over
                        group.crash_primary()
                        group.promote()

                # 1+2: the surviving group answers like a never-crashed twin.
                live = {
                    oid: (x, y, frozenset(kw))
                    for oid, x, y, kw in group.primary_engine.dataset.records()
                }
                assert live == model
                twin = LiveMCKEngine.from_records(
                    [(x, y, kw) for x, y, kw in model.values()]
                )
                try:
                    for algorithm in ALGORITHMS:
                        for keywords in (["a", "b"], ["a", "b", "c"], ["d"]):
                            try:
                                want = twin.query(keywords, algorithm=algorithm)
                            except Exception as err:
                                try:
                                    group.primary_engine.query(
                                        keywords, algorithm=algorithm
                                    )
                                    raise AssertionError(
                                        f"twin raised {err!r}, group answered"
                                    )
                                except type(err):
                                    continue
                            got = group.primary_engine.query(
                                keywords, algorithm=algorithm
                            )
                            assert abs(got.diameter - want.diameter) < 1e-9, (
                                algorithm,
                                keywords,
                            )
                finally:
                    twin.close()
            finally:
                group.close()

            # 3: a cold reopen reconstructs the same live set.
            with ReplicationGroup([], dir=tmp, n_replicas=0) as again:
                reopened = {
                    oid: (x, y, frozenset(kw))
                    for oid, x, y, kw in again.primary_engine.dataset.records()
                }
                assert reopened == model
