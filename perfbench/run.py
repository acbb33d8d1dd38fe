"""Run one benchmark workload and print its result as one JSON line.

    python3 perfbench/run.py --workload http-distinct --seed 1 --seconds 12 --trace 0

Run from the root of a checkout: the program is imported from ``src/``
(pure Python, nothing to build).  Every input comes from ``--seed``.
``--trace 0`` measures with tracing off and reports the end-to-end
metrics; ``--trace 1`` runs an untraced then a traced phase and reports
the per-layer metrics.  The last line of standard output is the result;
the lines before it are a human-readable summary.  See README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK_ROOT = os.path.join(ROOT, ".perfbench_work")


def _declared(key: str) -> dict:
    """``{name: unit}`` of one metric list in BENCHMARK.json."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return {m["name"]: m["unit"] for m in json.load(fh)[key]}


#: Metric names and units, as BENCHMARK.json declares them.  A per-layer
#: metric a workload does not exercise reports 0.
END_TO_END = _declared("end_to_end")
PER_LAYER = _declared("per_layer")


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--workload", required=True,
        choices=("http-distinct", "live-mixed", "sharded-exact"),
    )
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def run(args, **overrides):
    """Run one workload; returns ``(result dict, Outcome)``."""
    from workloads import WORKLOADS, Config

    workdir = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=WORK_ROOT)
    try:
        config = Config(
            seed=args.seed,
            seconds=args.seconds,
            trace=bool(args.trace),
            workdir=workdir,
            **overrides,
        )
        outcome = WORKLOADS[args.workload](config)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    unknown = set(outcome.layers) - set(PER_LAYER) | set(outcome.e2e) - set(END_TO_END)
    if unknown:
        raise RuntimeError(f"metrics not declared in BENCHMARK.json: {sorted(unknown)}")
    values, names = (
        (outcome.layers, PER_LAYER) if args.trace else (outcome.e2e, END_TO_END)
    )
    result = {
        "correct": outcome.correct,
        "attempted": outcome.tally.attempted,
        "failed": outcome.tally.failed,
        "metrics": {
            name: {"value": float(values.get(name, 0.0)), "unit": unit}
            for name, unit in names.items()
        },
    }
    return result, outcome


def prepare() -> bool:
    """Import the program from the checkout, pin to one CPU (see
    ``common.pin_to_one_cpu``) and keep temporary files in the checkout."""
    if not os.path.isdir(os.path.join(SRC, "repro")):
        print(f"perfbench: no program source under {SRC}", file=sys.stderr)
        return False
    sys.path.insert(0, SRC)
    import common

    common.pin_to_one_cpu()
    os.makedirs(WORK_ROOT, exist_ok=True)
    os.environ["TMPDIR"] = WORK_ROOT
    tempfile.tempdir = WORK_ROOT
    return True


def main(argv=None) -> int:
    args = parse_args(argv)
    if not prepare():
        return 2
    import common

    try:
        result, outcome = run(args)
    finally:
        common.stop_children()
    tally = outcome.tally
    print(
        f"{args.workload} seed={args.seed} trace={args.trace}: "
        f"attempted={tally.attempted} failed={tally.failed} "
        f"answered={tally.answered} wrong={tally.wrong} "
        f"(cross-shard gap {outcome.known_gap})"
    )
    if outcome.info:
        print("  also: " + ", ".join(f"{k}={v:.6g}" for k, v in outcome.info.items()))
    for reason in tally.reasons[:10]:
        print(f"  {reason}")
    for name, entry in result["metrics"].items():
        print(f"  {name} = {entry['value']:.6g} {entry['unit']}")
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
