#!/usr/bin/env python
"""Pinned-seed perf regression gate for the five algorithms.

Times every algorithm (compile + run, per query) on a pinned workload and
scales each sample to the reference host with perfbench's calibration
loop: each sample is multiplied by ``CAL_REF_MS`` over the median of the
latest calibration timings.  The workload is measured in ``PROCESSES`` fresh
interpreters, one after another, and each statistic is the lowest over
them.  It emits per-series normalised p50/p95 latencies, the geometric
mean of the p50s, the deterministic circleScan/pruning counters and every
query's answer (object ids and diameter).

The regression gate compares a run against a committed baseline:

* **counters and answers** are deterministic on a pinned seed, so any
  drift is an algorithmic change and fails exactly;
* **latency** is the geometric mean of the five series' normalised p50s;
  the gate fails when it exceeds ``baseline * (1 + tolerance)`` (default
  15%).  On a small shared VM one series' p50 in one process moves by
  up to ~40% between runs: the calibration takes out the host's speed,
  but not what comes with the process (hash seed, memory layout) or a
  slow spell the loop misses.  Those only ever add time, so the lowest
  of three processes' p50s, in a geometric mean over five series, moves
  by ~9% (see docs/performance.md).

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
import math
import multiprocessing
import random
import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(ROOT))

from perfbench.common import CAL_REF_MS, HostSpeed  # noqa: E402

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

#: Fresh interpreters the workload is measured in; each statistic is the
#: lowest over them.
PROCESSES = 3


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


def _run(dataset, queries, repeats: int):
    """``{algorithm: (normalised samples in ms, answers, counters)}``.

    Before each sample perfbench's calibration loop is timed once more,
    and the sample is scaled by ``CAL_REF_MS`` over the median of the
    latest calibration timings, so a host that runs slower for a while
    slows the loop alike.
    """
    from repro.core.query import compile_query

    speed = HostSpeed()
    out = {}
    for name, fn in algorithms().items():
        samples, answers = [], []
        counters = {key: 0.0 for key in TRACKED_COUNTERS}
        for rep in range(repeats):
            for q in queries:
                factor = speed.factor()
                t0 = time.perf_counter()
                group = fn(compile_query(dataset, q))
                elapsed = time.perf_counter() - t0
                samples.append(elapsed * 1e3 * factor)
                if rep == 0:
                    answers.append(
                        {"ids": list(group.object_ids), "diameter": group.diameter}
                    )
                    for key in TRACKED_COUNTERS:
                        counters[key] += float(group.stats.get(key, 0.0))
        out[name] = (samples, answers, counters)
    return out


def _measure_process(scale: str):
    """One process's :func:`_run` on the workload, after a warm-up."""
    dataset, queries, cfg = build_workload(scale)
    from repro.core.gkg import gkg
    from repro.core.query import compile_query

    # Warm lazy one-time state (scipy import, the columnar store) so the
    # timed passes measure steady-state latency.  The warm-up's cover
    # radii also pay rent toward the store's per-term nearest-holder
    # columns, so terms the workload reuses buy theirs.
    for q in queries:
        ctx = compile_query(dataset, q)
        gkg(ctx)
        ctx.cover_radii
    return _run(dataset, queries, cfg["repeats"])


def measure(scale: str, inject_regression: float = 0.0) -> dict:
    cfg = SCALES[scale]
    spawn = multiprocessing.get_context("spawn")
    with spawn.Pool(1, maxtasksperchild=1) as pool:
        runs = pool.map(_measure_process, [scale] * PROCESSES, chunksize=1)

    slowdown = 1.0 + inject_regression
    series = {}
    for name, (_samples, answers, counters) in runs[0].items():
        for other in runs[1:]:
            if other[name][1:] != (answers, counters):
                raise SystemExit(
                    f"NONDETERMINISM: {name} answers or counters differ between "
                    "processes on the pinned seed."
                )
        per_process = [run[name][0] for run in runs]
        series[name] = {
            "p50_ms": round(slowdown * min(map(statistics.median, per_process)), 3),
            "p95_ms": round(slowdown * min(map(_p95, per_process)), 3),
            "counters": {k: v for k, v in counters.items() if v},
            "answers": answers,
        }
    return {
        "bench": "BENCH_6",
        "description": "per-algorithm latency scaled to the reference host, pinned seed",
        "seed": SEED,
        "scale": scale,
        "calibration_ref_ms": CAL_REF_MS,
        "processes": PROCESSES,
        "workload": {k: cfg[k] for k in ("n", "terms", "m", "queries", "repeats")},
        "geomean_p50_ms": round(_geomean(s["p50_ms"] for s in series.values()), 3),
        "series": series,
    }


def _p95(samples):
    ordered = sorted(samples)
    idx = min(len(ordered) - 1, int(round(0.95 * (len(ordered) - 1))))
    return ordered[idx]


def _geomean(values) -> float:
    values = list(values)
    return math.exp(sum(math.log(v) for v in values) / len(values))


def check_against_baseline(result: dict, baseline: dict, tolerance: float) -> int:
    """Gate: exact counters and answers, geomean p50 within the tolerance.

    Prints a per-series table; returns a process exit code.
    """
    failures = []
    print(f"{'series':<8} {'baseline':>10} {'current':>10}  status")
    for name, cur in sorted(result["series"].items()):
        base = baseline["series"].get(name)
        if base is None:
            failures.append(f"{name}: not in the baseline")
            print(f"{name:<8} {'-':>10} {cur['p50_ms']:>8.2f}ms  NEW")
            continue
        status = "ok"
        if cur["answers"] != base["answers"]:
            status = "ANSWER DRIFT"
            failures.append(f"{name}: answers changed {base['answers']} -> {cur['answers']}")
        if cur["counters"] != base["counters"]:
            status = "COUNTER DRIFT"
            failures.append(
                f"{name}: counters changed {base['counters']} -> {cur['counters']}"
            )
        print(f"{name:<8} {base['p50_ms']:>8.2f}ms {cur['p50_ms']:>8.2f}ms  {status}")

    ceiling = baseline["geomean_p50_ms"] * (1.0 + tolerance)
    print(
        f"{'geomean':<8} {baseline['geomean_p50_ms']:>8.2f}ms "
        f"{result['geomean_p50_ms']:>8.2f}ms  ceiling {ceiling:.2f}ms"
    )
    if result["geomean_p50_ms"] > ceiling:
        failures.append(
            f"geomean p50 {result['geomean_p50_ms']:.2f}ms exceeds the ceiling "
            f"{ceiling:.2f}ms (baseline {baseline['geomean_p50_ms']:.2f}ms "
            f"+ {tolerance:.0%})"
        )
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
        help="allowed fractional rise of the geomean p50 before the gate trips",
    )
    parser.add_argument(
        "--inject-regression",
        type=float,
        default=0.0,
        metavar="FRACTION",
        help="inflate measured latencies by this fraction "
        "(demonstrates the gate tripping; never use when recording)",
    )
    args = parser.parse_args(argv)

    result = measure(args.scale, inject_regression=args.inject_regression)

    for name, row in sorted(result["series"].items()):
        print(f"{name:<8} p50 {row['p50_ms']:>8.2f}ms  p95 {row['p95_ms']:>8.2f}ms")
    print(f"geomean  p50 {result['geomean_p50_ms']:>8.2f}ms (reference-host ms)\n")

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
