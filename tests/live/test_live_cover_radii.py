"""Coverage radii on a live view match the definition and a sealed rebuild.

A live view's columns are per snapshot (the base store plus the delta's
add rows), so its rent-or-buy nearest-holder columns start empty after
every write.  Radii must not
depend on which source answers: before and after the store buys a column
they equal the brute-force definition and a sealed ``Dataset`` rebuilt
from the same live object set.
"""

import random

import numpy as np
import pytest

from repro import Dataset
from repro.core.query import compile_query
from repro.live import LiveMCKEngine

from tests.conftest import brute_radii

QUERY = ("alpha", "beta")


@pytest.fixture()
def engine():
    rng = random.Random(0x11FE)
    vocab = ["alpha", "beta", "gamma", "delta", "eps", "zeta", "eta", "theta"]
    records = [
        (rng.uniform(0, 100), rng.uniform(0, 100), rng.sample(vocab, 1))
        for _ in range(400)
    ]
    live = LiveMCKEngine.from_records(records, auto_compact=False)
    for _ in range(30):
        live.insert(rng.uniform(0, 100), rng.uniform(0, 100), [rng.choice(vocab)])
    yield live
    live.close()


def _radii_by_oid(ctx, oids=None):
    oids = ctx.relevant_ids if oids is None else oids
    return dict(zip(oids, ctx.cover_radii.tolist()))


def test_live_radii_match_definition_and_sealed_rebuild(engine):
    pole = engine.insert(50.0, 50.0, ["alpha"])
    records = sorted(engine.snapshot().view().records())
    beta = [(x, y, oid) for oid, x, y, kws in records if "beta" in kws]
    _x, _y, nearest = min(beta, key=lambda h: np.hypot(h[0] - 50.0, h[1] - 50.0))
    engine.delete(nearest)

    view = engine.snapshot().view()
    records = sorted(view.records())
    assert nearest not in {r[0] for r in records}
    sealed = Dataset.from_records([(x, y, kws) for _o, x, y, kws in records])
    live_oid_of = [oid for oid, _x, _y, _kws in records]

    seen = set()
    for _ in range(40):
        ctx = compile_query(view, QUERY)
        bought = len(view.columns._term_nn) == len(QUERY)
        got = _radii_by_oid(ctx)
        assert pole in got
        want = brute_radii(records, QUERY, ctx.relevant_ids)
        assert np.allclose(ctx.cover_radii, want, rtol=1e-12, atol=0.0)
        ref = compile_query(sealed, QUERY)
        rebuilt = _radii_by_oid(ref, [live_oid_of[i] for i in ref.relevant_ids])
        assert got == rebuilt
        seen.add(bought)
        if bought:
            break
    assert seen == {False, True}
