#!/usr/bin/env python
"""Fault-injection smoke check: graceful degradation end to end.

Six scenarios, each deterministic (faults trigger by call count, never by
wall clock):

1. **Degrade.** A skewed deadline clock expires an EXACT query mid-search;
   the service returns a feasible, quality-tagged degraded answer (no
   error) and ``mck_degraded_total`` appears in the Prometheus output.
2. **Strict.** The same fault under ``strict_timeouts=True`` fails the
   query with the timeout message — the paper's §6.2.3 semantics.
3. **Pool retry.** An injected pool rejection is retried; the query
   completes undegraded and ``mck_pool_retries_total`` counts 1.
4. **Breaker + fallback.** A persistently broken pool trips the circuit
   breaker; queries degrade to in-process SKECa+ answers and
   ``mck_circuit_open`` reads 1.
5. **Worker crash.** A distributed worker crashes once; the coordinator
   respawns it and the answer matches the healthy run.
6. **CLI.** ``mck bench --inject-fault slow-scan --prom-out`` runs
   in a subprocess; its JSON reports degraded queries and its Prometheus
   file carries the degradation counter.

Run from the repo root: ``python scripts/fault_smoke.py``.
"""

import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO / "src"))

from concurrent.futures.process import BrokenProcessPool  # noqa: E402

from repro import Dataset  # noqa: E402
from repro.distributed.coordinator import DistributedMCKEngine  # noqa: E402
from repro.exceptions import WorkerCrashed  # noqa: E402
from repro.serving import MetricsRegistry, QueryService  # noqa: E402
from repro.testing import faults  # noqa: E402

QUERY = ["shrine", "shop", "restaurant", "hotel"]


def fail(message):
    print(f"fault-smoke: FAIL: {message}", file=sys.stderr)
    sys.exit(1)


def make_dataset() -> Dataset:
    records = [
        (10.0, 10.0, ["shrine"]),
        (11.0, 10.5, ["shop"]),
        (10.5, 11.0, ["restaurant"]),
        (11.2, 11.2, ["hotel"]),
        (50.0, 50.0, ["shrine"]),
        (52.0, 50.0, ["shop"]),
        (90.0, 10.0, ["restaurant"]),
        (10.0, 90.0, ["hotel"]),
        (60.0, 60.0, ["shop", "cafe"]),
        (0.0, 0.0, ["museum"]),
    ]
    return Dataset.from_records(records, name="smoke")


def check_degrade(dataset):
    with QueryService(dataset, metrics=MetricsRegistry()) as service:
        with faults.injected(
            "core.deadline.clock", skew=1e9, after=2, times=None
        ):
            result = service.query(QUERY, algorithm="EXACT", timeout=60.0)
        if not result.ok:
            fail(f"degraded query failed outright: {result.error}")
        if not result.degraded:
            fail("expired deadline did not mark the answer degraded")
        if not result.group.covers(dataset, QUERY):
            fail("degraded answer does not cover the query keywords")
        if not result.stats.quality:
            fail("degraded answer carries no quality tag")
        prom = service.metrics.to_prometheus()
        if "mck_degraded_total{" not in prom:
            fail("mck_degraded_total missing from Prometheus output")
    print(f"  degrade: quality={result.stats.quality} "
          f"diameter={result.group.diameter:.4f}")


def check_strict(dataset):
    with QueryService(
        dataset, metrics=MetricsRegistry(), strict_timeouts=True
    ) as service:
        with faults.injected(
            "core.deadline.clock", skew=1e9, after=2, times=None
        ):
            result = service.query(QUERY, algorithm="EXACT", timeout=60.0)
        if result.ok:
            fail("strict mode returned an answer on an expired deadline")
        if "exceeded time budget" not in (result.error or ""):
            fail(f"strict-mode error looks wrong: {result.error!r}")
    print(f"  strict: error={result.error!r}")


def check_pool_retry(dataset):
    with QueryService(
        dataset,
        metrics=MetricsRegistry(),
        process_algorithms=("EXACT",),
        process_workers=1,
        pool_retry_backoff=0.0,
    ) as service:
        with faults.injected(
            "serving.pool.submit", error=BrokenProcessPool, times=1
        ):
            result = service.query(QUERY, algorithm="EXACT", timeout=60.0)
        if not result.ok or result.degraded:
            fail("retried pool query should complete undegraded")
        retries = service.metrics.pool_retry_counter.value(algorithm="EXACT")
        if retries != 1.0:
            fail(f"expected 1 pool retry, counted {retries}")
    print(f"  pool-retry: retries={retries:g}")


def check_breaker_fallback(dataset):
    with QueryService(
        dataset,
        metrics=MetricsRegistry(),
        process_algorithms=("EXACT",),
        process_workers=1,
        pool_retries=1,
        pool_retry_backoff=0.0,
        breaker_threshold=2,
    ) as service:
        with faults.injected(
            "serving.pool.submit", error=BrokenProcessPool, times=None
        ):
            result = service.query(QUERY, algorithm="EXACT", timeout=60.0)
        if not result.ok or not result.degraded:
            fail("breaker fallback should serve a degraded answer")
        if result.group.stats.get("pool_fallback") != 1.0:
            fail("fallback answer not marked pool_fallback")
        if service.breaker.state != "open":
            fail(f"breaker should be open, is {service.breaker.state}")
        prom = service.metrics.to_prometheus()
        if "mck_circuit_open 1" not in prom:
            fail("mck_circuit_open gauge not 1 in Prometheus output")
        if "mck_pool_fallbacks_total{" not in prom:
            fail("mck_pool_fallbacks_total missing from Prometheus output")
    print(f"  breaker: state={service.breaker.state} "
          f"quality={result.stats.quality}")


def check_worker_crash(dataset):
    engine = DistributedMCKEngine(
        dataset, n_workers=4, metrics=MetricsRegistry(), retry_backoff_seconds=0.0
    )
    baseline = engine.query(QUERY)
    with faults.injected(
        "distributed.worker.answer",
        error=lambda: WorkerCrashed(-1, "injected"),
        times=1,
    ):
        result = engine.query(QUERY)
    if result.worker_crashes != 1 or result.worker_retries != 1:
        fail(
            f"expected 1 crash / 1 retry, got {result.worker_crashes} / "
            f"{result.worker_retries}"
        )
    if abs(result.group.diameter - baseline.group.diameter) > 1e-9:
        fail("answer after respawn differs from the healthy run")
    crashes = engine.metrics.counter("mck_worker_crashes_total").value(
        round="bound"
    )
    if crashes != 1.0:
        fail(f"mck_worker_crashes_total should read 1, reads {crashes}")
    print(f"  worker-crash: crashes={result.worker_crashes} "
          f"retries={result.worker_retries} diameter={result.group.diameter:.4f}")


def check_cli(tmp):
    json_path = os.path.join(tmp, "bench.json")
    prom_path = os.path.join(tmp, "bench.prom")
    env = dict(os.environ)
    env["PYTHONPATH"] = str(REPO / "src") + (
        os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
    )
    proc = subprocess.run(
        [
            sys.executable,
            "-m",
            "repro.cli",
            "bench",
            "--scale", "0.01",
            "--queries", "6",
            "--operations", "6",
            "--m", "3",
            "--algorithms", "SKECa+",
            "--timeout", "0.002",
            "--inject-fault", "slow-scan:delay=0.01,times=0",
            "--output", json_path,
            "--prom-out", prom_path,
        ],
        env=env,
        cwd=REPO,
        capture_output=True,
        text=True,
        timeout=300,
    )
    if proc.returncode != 0:
        fail(f"bench exited {proc.returncode}: {proc.stderr[-800:]}")
    dump = json.loads(Path(json_path).read_text())
    degraded = dump["workload"]["degraded"]
    if degraded < 1:
        fail("bench under slow-scan + tight timeout degraded nothing")
    if dump["workload"]["injected_faults"] != ["slow-scan:delay=0.01,times=0"]:
        fail("injected fault spec not recorded in the workload summary")
    prom = Path(prom_path).read_text()
    if "mck_degraded_total{" not in prom:
        fail("mck_degraded_total missing from bench --prom-out")
    print(f"  cli: degraded={degraded} prom={len(prom.splitlines())} lines")


def main() -> int:
    dataset = make_dataset()
    print("fault-smoke: scenarios")
    check_degrade(dataset)
    check_strict(dataset)
    check_pool_retry(dataset)
    check_breaker_fallback(dataset)
    check_worker_crash(dataset)
    with tempfile.TemporaryDirectory() as tmp:
        check_cli(tmp)
    print("fault-smoke: OK")
    return 0


if __name__ == "__main__":
    sys.exit(main())
