"""Tiny-scale self-test of the benchmark itself.

    python3 perfbench/selftest.py

Runs every workload on a 400-object dataset for one second, traced and
untraced, and asserts that every metric in BENCHMARK.json is emitted
with its unit.  Then proves the checks bite: an injected admission
rejection (armed through ``repro.testing.faults``) must raise the failed
share, and a corrupted answer must raise the wrong share and clear
``correct``.  Exits non-zero on the first broken expectation.
"""

from __future__ import annotations

import argparse
import sys

import run
from ledger import RECONCILE_TOLERANCE

TINY = {"scale": 0.02, "setups": 1}


def _args(workload: str, trace: int, seed: int = 3) -> argparse.Namespace:
    return run.parse_args(
        ["--workload", workload, "--seed", str(seed), "--seconds", "1", "--trace", str(trace)]
    )


def _expect(condition: bool, message: str) -> None:
    if not condition:
        raise SystemExit(f"selftest FAILED: {message}")
    print(f"ok  {message}")


def check_workloads() -> None:
    for workload in ("http-distinct", "live-mixed", "sharded-exact"):
        for trace, table in ((0, run.END_TO_END), (1, run.PER_LAYER)):
            result, outcome = run.run(_args(workload, trace), **TINY)
            _expect(set(result) == {"correct", "attempted", "failed", "metrics"},
                    f"{workload} trace={trace}: result keys")
            _expect(
                {n: m["unit"] for n, m in result["metrics"].items()} == table,
                f"{workload} trace={trace}: every metric emitted with its unit",
            )
            _expect(result["attempted"] >= 1 and result["failed"] == 0,
                    f"{workload} trace={trace}: operations attempted, none failed")
            _expect(result["correct"], f"{workload} trace={trace}: answers pass the checks")
            if trace:
                err = outcome.layers["observability.reconcile_err_frac"]
                _expect(0.0 <= err <= RECONCILE_TOLERANCE,
                        f"{workload}: outside clocks reconcile with spans ({err:.4f})")


def check_checks_bite() -> None:
    from repro.testing import faults

    # Skip the five warm-up queries of the one set-up, then reject three.
    fault = faults.arm_spec("admission-reject:after=5,times=3")
    try:
        _, outcome = run.run(_args("http-distinct", 1), **TINY)
    finally:
        faults.disarm(fault)
    _expect(outcome.tally.failed == 3 and outcome.layers["checks.fail_frac"] > 0,
            "an injected admission rejection raises fail_frac")

    result, outcome = run.run(_args("sharded-exact", 1), corrupt=lambda oids: oids[:-1], **TINY)
    _expect(outcome.layers["checks.wrong_frac"] > 0 and not result["correct"],
            "a corrupted answer raises wrong_frac and clears correct")


def main() -> int:
    if not run.prepare():
        return 2
    import common

    try:
        check_workloads()
        check_checks_bite()
    finally:
        common.stop_children()
    print("selftest passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
