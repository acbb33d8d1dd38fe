"""A compiled context shared across algorithms answers like a fresh one.

Engines cache one compiled context per keyword set, and each algorithm
fills that context's coverage radii only up to the bound its own search
can probe (SKECa+ and EXACT: the probe radius; SKEC and SKECa: no bound).  Whatever ran first on the context, every algorithm
must return the same group, diameter, ``Group.stats`` and instrumentation
counters as on a freshly compiled context, on sealed and live engines,
and also when the algorithms run on one context from several threads.
"""

from __future__ import annotations

import itertools
import math
import random
import sys
import threading

import numpy as np
import pytest

from repro import Dataset, MCKEngine
from repro.core import skecaplus
from repro.core.common import Deadline, Instrumentation
from repro.core.engine import _RUNNERS
from repro.core.query import compile_query
from repro.core.skeca import DEFAULT_EPSILON
from repro.core.skecaplus import skeca_plus
from repro.live import LiveMCKEngine

ALGORITHMS = ("GKG", "SKEC", "SKECa", "SKECa+", "EXACT")
QUERY = ("kw0", "kw1", "kw2")


def _records():
    rng = random.Random(0xC0DE)
    vocab = [f"kw{i}" for i in range(8)]
    return [
        (rng.uniform(0, 100), rng.uniform(0, 100), rng.sample(vocab, rng.randint(1, 2)))
        for _ in range(160)
    ]


def _sealed(cache):
    return MCKEngine(Dataset.from_records(_records(), name="reuse"), context_cache_size=cache)


def _live(cache):
    engine = LiveMCKEngine.from_records(
        _records(), auto_compact=False, context_cache_size=cache
    )
    rng = random.Random(7)
    for _ in range(12):
        engine.insert(rng.uniform(0, 100), rng.uniform(0, 100), [f"kw{rng.randrange(4)}"])
    for oid in (3, 17, 40):
        engine.delete(oid)
    return engine


def _answer(engine, algorithm):
    inst = Instrumentation()
    group = engine.query(QUERY, algorithm=algorithm, instrumentation=inst)
    return (
        group.object_ids,
        group.diameter,
        dict(group.stats),
        dict(inst.counters),
        group.quality,
    )


@pytest.mark.parametrize("make_engine", [_sealed, _live], ids=["sealed", "live"])
def test_every_ordered_pair_matches_fresh_contexts(make_engine):
    fresh_engine = make_engine(0)
    fresh = {algorithm: _answer(fresh_engine, algorithm) for algorithm in ALGORITHMS}
    for first, second in itertools.product(ALGORITHMS, repeat=2):
        shared = make_engine(16)
        assert _answer(shared, first) == fresh[first], (first, second)
        assert _answer(shared, second) == fresh[second], (first, second)
        if isinstance(shared, LiveMCKEngine):
            shared.close()
    if isinstance(fresh_engine, LiveMCKEngine):
        fresh_engine.close()


def test_exact_radii_after_a_bounded_search():
    """SKECa+ leaves radii bounded by its probe radius; an unbounded read
    of the same context recomputes rather than reporting ``inf``."""
    dataset = Dataset.from_records(_records(), name="reuse")
    ctx = compile_query(dataset, QUERY)
    skeca_plus(ctx)
    bounded = ctx.cover_radii_within(ctx.probe_radius)
    assert np.isinf(bounded).any()
    want = compile_query(dataset, QUERY).cover_radii
    assert np.isfinite(ctx.cover_radii).all()
    assert np.array_equal(ctx.cover_radii, want)


def test_a_narrower_pass_never_replaces_a_wider_one():
    """Two passes over one context interleave, as two threads' may: the
    narrower one finishing last must leave the wider array cached."""
    want = compile_query(Dataset.from_records(_records()), QUERY).cover_radii
    bound = float(np.median(want))
    # A fresh store, so the pass rents: it asks for holder trees.
    dataset = Dataset.from_records(_records(), name="reuse")
    ctx = compile_query(dataset, QUERY)
    assert not any(tid in dataset.columns._term_nn for tid in ctx.term_ids)
    real_tree = ctx.keyword_tree
    wide = []

    def interleaved(bit_pos):
        # Another thread's unbounded read lands while this pass runs.
        ctx.keyword_tree = real_tree
        wide.append(ctx.cover_radii_within(math.inf))
        return real_tree(bit_pos)

    ctx.keyword_tree = interleaved
    narrow = ctx.cover_radii_within(bound)
    assert len(wide) == 1 and np.array_equal(wide[0], want)
    assert np.array_equal(narrow[want <= bound], want[want <= bound])
    assert np.isposinf(narrow[want > bound]).all()
    assert ctx.cover_radii_within(math.inf) is wide[0]
    assert ctx.cover_radii_within(bound) is wide[0]


def _in_threads(targets):
    """Start ``targets`` together, at a tiny switch interval, and join them."""
    barrier = threading.Barrier(len(targets))

    def run(target):
        barrier.wait()
        target()

    threads = [threading.Thread(target=run, args=(t,)) for t in targets]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)  # switch threads often, mid-pass included
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
    finally:
        sys.setswitchinterval(interval)


def test_threads_reading_radii_at_different_bounds():
    """Concurrent passes at different bounds on one context: every read
    holds the exact radius at each row within its own bound."""
    dataset = Dataset.from_records(_records(), name="reuse")
    want = compile_query(dataset, QUERY).cover_radii
    bounds = [float(q) for q in np.quantile(want, [0.2, 0.5, 0.8])] + [math.inf]
    for round_ in range(150):
        ctx = compile_query(dataset, QUERY)
        wrong = []

        def reader(offset):
            for bound in bounds[offset:] + bounds[:offset]:
                radii = ctx.cover_radii_within(bound)
                within = want <= bound
                if not np.array_equal(radii[within], want[within]):
                    wrong.append(bound)

        _in_threads([lambda o=o: reader(o) for o in (round_ % 4, 3, 1, 0)])
        assert not wrong, (round_, wrong)


def _run(ctx, algorithm):
    inst = Instrumentation()
    group = _RUNNERS[algorithm](ctx, DEFAULT_EPSILON, Deadline(algorithm, None, inst))
    return group.object_ids, group.diameter, dict(group.stats), dict(inst.counters)


def test_threads_sharing_a_context_answer_like_fresh_contexts():
    """Threads run algorithms whose radii bounds differ (SKEC and SKECa
    none, SKECa+ and EXACT their own probe radius, which every SKECa+
    binary step also tightens on the shared context) on one context at
    a time, as a live engine's cached context is shared by a service's
    worker threads; each must answer as on a context of its own."""
    dataset = Dataset.from_records(_records()[:90], name="threads")
    order = ("SKECa+", "EXACT", "SKEC", "SKECa+", "SKECa", "EXACT")
    fresh = {a: _run(compile_query(dataset, QUERY), a) for a in set(order)}
    for _ in range(40):
        ctx = compile_query(dataset, QUERY)
        answers = [None] * len(order)

        def work(slot, algorithm):
            answers[slot] = _run(ctx, algorithm)

        _in_threads([lambda s=s, a=a: work(s, a) for s, a in enumerate(order)])
        assert answers == [fresh[a] for a in order]


def test_skecaplus_reads_radii_at_its_own_probe_bound(monkeypatch):
    """A search sharing the context tightens ``ctx.probe_radius`` right
    after SKECa+ sets it; SKECa+ and EXACT still read radii at their own
    bound and answer as alone."""
    dataset = Dataset.from_records(_records(), name="reuse")
    fresh = {a: _run(compile_query(dataset, QUERY), a) for a in ("SKECa+", "EXACT")}
    bound_probes = skecaplus._bound_probes

    def tightened(ctx, search_ub):
        width = bound_probes(ctx, search_ub)
        ctx.probe_radius = width / 4.0  # another search's later binary step
        return width

    monkeypatch.setattr(skecaplus, "_bound_probes", tightened)
    for algorithm, want in fresh.items():
        assert _run(compile_query(dataset, QUERY), algorithm) == want
