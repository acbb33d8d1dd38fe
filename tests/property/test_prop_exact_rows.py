"""Property test: EXACT's branch-and-bound with per-row distances.

``branch_and_bound_search`` computes a distance row only when it selects
an index.  The reference below is the same search over the dense
pole-plus-candidates distance matrix it used to build up front; both must
return the same rows and the bit-identical diameter, from any incumbent.
Float coordinates make ties rare; the integer grid makes them common.
"""

import math

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.exact import branch_and_bound_search
from repro.core.objects import Dataset
from repro.core.query import compile_query

VOCAB = ["a", "b", "c", "d", "e"]


def _dense_reference(ctx, pole_row, candidate_rows, best_rows, best_diameter):
    rows = [r for r in candidate_rows if r != pole_row]
    if ctx.masks[pole_row] == ctx.full_mask:
        return [pole_row], 0.0
    if not rows:
        return best_rows, best_diameter
    local = [pole_row] + list(rows)
    pts = ctx.coords[np.asarray(local, dtype=np.intp)]
    delta = pts[:, None, :] - pts[None, :, :]
    dist = np.hypot(delta[:, :, 0], delta[:, :, 1])
    masks = [ctx.masks[r] for r in local]
    full = ctx.full_mask
    n = len(local)
    suffix_mask = [0] * (n + 1)
    for i in range(n - 1, 0, -1):
        suffix_mask[i] = suffix_mask[i + 1] | masks[i]
    best = {"rows": list(best_rows), "diameter": best_diameter}

    def recurse(selected, covered, diameter, start):
        if covered == full:
            if diameter < best["diameter"]:
                best["diameter"] = diameter
                best["rows"] = [local[i] for i in selected]
            return
        if (covered | suffix_mask[start]) != full:
            return
        for idx in range(start, n):
            mask = masks[idx]
            if mask & ~covered == 0:
                continue
            new_diameter = diameter
            too_far = False
            for s in selected:
                d = dist[s, idx]
                if d >= best["diameter"]:
                    too_far = True
                    break
                if d > new_diameter:
                    new_diameter = d
            if too_far:
                continue
            if (covered | mask | suffix_mask[idx + 1]) != full:
                break
            selected.append(idx)
            recurse(selected, covered | mask, new_diameter, idx + 1)
            selected.pop()

    recurse([0], masks[0], 0.0, 1)
    return best["rows"], best["diameter"]


@st.composite
def search_case(draw):
    grid = draw(st.booleans())
    coord = st.integers(0, 5).map(float) if grid else st.floats(0.0, 50.0, allow_nan=False)
    keywords = st.lists(st.sampled_from(VOCAB), min_size=1, max_size=2, unique=True)
    records = draw(st.lists(st.tuples(coord, coord, keywords), min_size=2, max_size=30))
    present = sorted({t for _x, _y, kws in records for t in kws})
    query = present[: draw(st.integers(1, len(present)))]
    ctx = compile_query(Dataset.from_records(records), query)
    n = len(ctx.relevant_ids)
    pole = draw(st.integers(0, n - 1))
    candidates = sorted(
        draw(st.lists(st.integers(0, n - 1), min_size=0, max_size=n, unique=True))
    )
    incumbent = draw(st.sampled_from(["none", "loose", "tight"]))
    if incumbent == "none":
        best_rows, best_diameter = [], math.inf
    else:
        best_rows = list(range(n))
        best_diameter = ctx.group_diameter_rows(best_rows)
        if incumbent == "tight":
            best_diameter *= draw(st.floats(0.1, 1.0))
    return ctx, pole, candidates, best_rows, best_diameter


class TestRowwiseDistances:
    @settings(max_examples=300, deadline=None)
    @given(search_case())
    def test_matches_dense_matrix_search(self, case):
        ctx, pole, candidates, best_rows, best_diameter = case
        got_rows, got_diameter = branch_and_bound_search(
            ctx, pole, candidates, list(best_rows), best_diameter
        )
        want_rows, want_diameter = _dense_reference(
            ctx, pole, candidates, list(best_rows), best_diameter
        )
        assert list(got_rows) == list(want_rows)
        assert float(got_diameter).hex() == float(want_diameter).hex()
