#!/usr/bin/env python
"""Pinned-seed perf regression gate for the columnar kernels.

Measures per-query latency for every algorithm twice on the same pinned
workload — once with the vectorized (columnar) kernels, once on the
object path, interleaved query by query — and emits per-series p50/p95
latencies, the deterministic circleScan/pruning counters, and the
measured ``speedup_vs_object_path``.

The regression gate compares a run against a committed baseline:

* **counters** are deterministic on a pinned seed, so any drift is an
  algorithmic change and fails exactly;
* **speedup** is a same-process ratio (both modes timed on the same
  machine within one run), so it is robust to host speed differences —
  a series fails when its speedup falls below ``baseline * (1 - tol)``.

Usage::

    # Emit the benchmark artifact (BENCH_6.json) at full scale
    python benchmarks/perf_gate.py --scale full --out BENCH_6.json

    # Record a baseline for the gate
    python benchmarks/perf_gate.py --scale small --write-baseline \
        benchmarks/perf_baseline_small.json

    # CI gate: green within tolerance, red beyond it
    python benchmarks/perf_gate.py --scale small --baseline \
        benchmarks/perf_baseline_small.json

    # Prove the gate trips: inject a synthetic 25% slowdown
    python benchmarks/perf_gate.py --scale small --baseline \
        benchmarks/perf_baseline_small.json --inject-regression 0.25
"""

from __future__ import annotations

import argparse
import json
import random
import statistics
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

SEED = 0xB6B6

#: Workload presets: (objects, vocabulary size, query keywords, queries).
SCALES = {
    "smoke": dict(n=2500, terms=12, m=5, queries=3, repeats=1),
    "small": dict(n=6000, terms=16, m=6, queries=5, repeats=3),
    "full": dict(n=20000, terms=20, m=8, queries=6, repeats=3),
}

#: Counters copied from ``Group.stats`` when present — the deterministic
#: work measures the gate tracks exactly.
TRACKED_COUNTERS = (
    "circle_scans",
    "binary_steps",
    "pruned_poles",
    "candidate_circles",
    "poles_scanned",
    "anchors",
)


def build_workload(scale: str):
    cfg = SCALES[scale]
    rng = random.Random(SEED)
    vocab = [f"kw{i}" for i in range(cfg["terms"])]
    records = []
    for _ in range(cfg["n"]):
        x = rng.uniform(0.0, 1000.0)
        y = rng.uniform(0.0, 1000.0)
        keywords = rng.sample(vocab, rng.randint(1, 3))
        records.append((x, y, keywords))
    from repro.core.objects import Dataset

    dataset = Dataset.from_records(records, name=f"perf-gate-{scale}")
    queries = [tuple(rng.sample(vocab, cfg["m"])) for _ in range(cfg["queries"])]
    return dataset, queries, cfg


def algorithms():
    from repro.core.exact import exact
    from repro.core.gkg import gkg
    from repro.core.skec import skec
    from repro.core.skeca import skeca
    from repro.core.skecaplus import skeca_plus

    return {
        "GKG": gkg,
        "SKEC": skec,
        "SKECa": skeca,
        "SKECa+": skeca_plus,
        "EXACT": exact,
    }


def _run_interleaved(dataset, queries, repeats: int):
    """Per-mode latency samples + answers + counters, modes interleaved.

    Every query runs once in each mode back to back, alternating which
    mode goes first, so host speed drift during the run hits both modes
    alike instead of whichever block was timed second.  Returns one
    ``{algorithm: (samples, answers, counters)}`` dict per mode,
    columnar first.
    """
    from repro.core.query import compile_query
    from repro.kernels import set_vectorized

    modes = (True, False)
    out = {mode: {} for mode in modes}
    turn = 0
    for name, fn in algorithms().items():
        for mode in modes:
            out[mode][name] = ([], [], {key: 0.0 for key in TRACKED_COUNTERS})
        for _rep in range(repeats):
            for q in queries:
                turn += 1
                for mode in modes[:: 1 if turn % 2 else -1]:
                    samples, answers, counters = out[mode][name]
                    set_vectorized(mode)
                    t0 = time.perf_counter()
                    ctx = compile_query(dataset, q)
                    group = fn(ctx)
                    samples.append(time.perf_counter() - t0)
                    if _rep == 0:
                        answers.append((tuple(group.object_ids), group.diameter))
                        for key in TRACKED_COUNTERS:
                            counters[key] += float(group.stats.get(key, 0.0))
    return out[True], out[False]


def measure(scale: str, inject_regression: float = 0.0) -> dict:
    dataset, queries, cfg = build_workload(scale)
    from repro.core.gkg import gkg
    from repro.core.query import compile_query
    from repro.kernels import set_vectorized, vectorized_enabled

    original = vectorized_enabled()
    try:
        # Warm lazy one-time state (scipy import, the columnar store) so
        # the timed passes measure steady-state latency.  The warm-up's
        # cover radii also pay rent toward the store's per-term
        # nearest-holder columns, so terms the workload reuses buy theirs.
        set_vectorized(True)
        for q in queries:
            ctx = compile_query(dataset, q)
            gkg(ctx)
            ctx.cover_radii
        vec, obj = _run_interleaved(dataset, queries, cfg["repeats"])
    finally:
        set_vectorized(original)

    series = {}
    for name in vec:
        v_samples, v_answers, v_counters = vec[name]
        o_samples, o_answers, o_counters = obj[name]
        if v_answers != o_answers:
            raise SystemExit(
                f"PARITY VIOLATION: {name} answers differ between the "
                "columnar and object paths — fix the kernels before timing."
            )
        if v_counters != o_counters:
            raise SystemExit(
                f"PARITY VIOLATION: {name} counters differ between modes."
            )
        if inject_regression:
            v_samples = [s * (1.0 + inject_regression) for s in v_samples]
        series[name] = {
            "p50_us": round(statistics.median(v_samples) * 1e6, 1),
            "p95_us": round(_p95(v_samples) * 1e6, 1),
            "object_path_p50_us": round(statistics.median(o_samples) * 1e6, 1),
            "object_path_p95_us": round(_p95(o_samples) * 1e6, 1),
            "speedup_vs_object_path": round(
                _paired_speedup(v_samples, o_samples, len(queries)), 3
            ),
            "counters": {k: v for k, v in v_counters.items() if v},
        }
    return {
        "bench": "BENCH_6",
        "description": "columnar kernels vs object path, pinned seed",
        "seed": SEED,
        "scale": scale,
        "workload": {k: cfg[k] for k in ("n", "terms", "m", "queries", "repeats")},
        "series": series,
    }


def _p95(samples):
    ordered = sorted(samples)
    idx = min(len(ordered) - 1, int(round(0.95 * (len(ordered) - 1))))
    return ordered[idx]


def _paired_speedup(v_samples, o_samples, n_queries):
    """Median over queries of best-vec vs best-object per-query latency.

    Samples arrive as ``repeats`` back-to-back sweeps over the same query
    list, so index ``i % n_queries`` identifies the query.  Taking the
    per-query minimum over repeats discards scheduler noise, and pairing
    the two modes query-by-query removes cross-query latency variance —
    the resulting ratio is far more stable run-to-run than a ratio of
    global medians, which is what lets the gate hold a tight tolerance.
    """
    ratios = []
    for q in range(n_queries):
        v_best = min(v_samples[i] for i in range(q, len(v_samples), n_queries))
        o_best = min(o_samples[i] for i in range(q, len(o_samples), n_queries))
        ratios.append(o_best / v_best)
    return statistics.median(ratios)


def check_against_baseline(result: dict, baseline: dict, tolerance: float) -> int:
    """Gate: exact counters, speedup within the tolerance band.

    Prints a per-series delta table; returns a process exit code.
    """
    failures = []
    rows = []
    for name, cur in sorted(result["series"].items()):
        base = baseline["series"].get(name)
        if base is None:
            rows.append((name, "-", cur["speedup_vs_object_path"], "NEW"))
            continue
        status = "ok"
        if cur["counters"] != base["counters"]:
            status = "COUNTER DRIFT"
            failures.append(
                f"{name}: counters changed {base['counters']} -> {cur['counters']}"
            )
        floor = base["speedup_vs_object_path"] * (1.0 - tolerance)
        if cur["speedup_vs_object_path"] < floor:
            status = "REGRESSED"
            failures.append(
                f"{name}: speedup {cur['speedup_vs_object_path']:.2f}x fell "
                f"below the tolerance floor {floor:.2f}x "
                f"(baseline {base['speedup_vs_object_path']:.2f}x)"
            )
        rows.append(
            (
                name,
                base["speedup_vs_object_path"],
                cur["speedup_vs_object_path"],
                status,
            )
        )

    print(f"{'series':<8} {'baseline':>9} {'current':>9}  status")
    for name, base_s, cur_s, status in rows:
        base_txt = f"{base_s:.2f}x" if isinstance(base_s, float) else base_s
        print(f"{name:<8} {base_txt:>9} {cur_s:>8.2f}x  {status}")
    if failures:
        print("\nPERF GATE: FAIL")
        for line in failures:
            print(f"  - {line}")
        return 1
    print("\nPERF GATE: OK")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--scale", choices=sorted(SCALES), default="small")
    parser.add_argument("--out", help="write the benchmark artifact JSON here")
    parser.add_argument("--baseline", help="compare against this baseline and gate")
    parser.add_argument("--write-baseline", help="write a fresh baseline here")
    parser.add_argument(
        "--tolerance",
        type=float,
        default=0.15,
        help="allowed fractional speedup drop before the gate trips",
    )
    parser.add_argument(
        "--inject-regression",
        type=float,
        default=0.0,
        metavar="FRACTION",
        help="inflate measured columnar latencies by this fraction "
        "(demonstrates the gate tripping; never use when recording)",
    )
    args = parser.parse_args(argv)

    result = measure(args.scale, inject_regression=args.inject_regression)

    for name, row in sorted(result["series"].items()):
        print(
            f"{name:<8} p50 {row['p50_us']:>9.1f}us  "
            f"object-path p50 {row['object_path_p50_us']:>9.1f}us  "
            f"speedup {row['speedup_vs_object_path']:>6.2f}x"
        )

    if args.out:
        Path(args.out).write_text(json.dumps(result, indent=2, sort_keys=True) + "\n")
        print(f"wrote {args.out}")
    if args.write_baseline:
        if args.inject_regression:
            raise SystemExit("refusing to record a baseline with injected regression")
        Path(args.write_baseline).write_text(
            json.dumps(result, indent=2, sort_keys=True) + "\n"
        )
        print(f"wrote baseline {args.write_baseline}")
    if args.baseline:
        baseline = json.loads(Path(args.baseline).read_text())
        return check_against_baseline(result, baseline, args.tolerance)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
