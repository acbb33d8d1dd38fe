#!/usr/bin/env python
"""Overload-protection smoke check: admission, shedding, adaptive limits.

Four scenarios over a single-worker service (deterministic queueing):

1. **Burst.** A 10x open-loop Poisson burst against a capacity-32
   admission queue: requests are shed (``QueryRejected``, never a hang),
   the accepted requests' execution p95 stays within 2x the unloaded p95,
   and the conservation counters balance at quiescence.
2. **Limiter.** On a fake clock, a fixed service time turns 10x slower
   for an incident, past the AIMD tolerance: the concurrency limit backs
   off multiplicatively, then recovers to near its pre-incident level once
   the service time returns.
3. **Policy.** The same burst under ``deadline-aware`` vs
   ``reject-newest``: the deadline-aware policy sheds requests that could
   not have met their deadline anyway, so a strictly higher fraction of
   its *accepted* requests finish inside the deadline.
4. **CLI.** ``mck bench --arrival-rate ... --admission-capacity
   ... --shed-policy ...`` runs open-loop in a subprocess; its JSON dump
   carries the rejection counts and conserved admission counters, and its
   ``--prom-out`` exposition carries every admission metric family.

Run from the repo root: ``python scripts/overload_smoke.py``.
"""

import json
import logging
import os
import random
import subprocess
import sys
import tempfile
import time
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO / "src"))

# Thousands of intentional rejections would otherwise flood stderr with
# per-request warnings; the smoke asserts on counters, not log lines.
logging.getLogger("repro").setLevel(logging.ERROR)

from repro import Dataset  # noqa: E402
from repro.exceptions import QueryRejected  # noqa: E402
from repro.serving import (  # noqa: E402
    AdmissionController,
    MetricsRegistry,
    QueryService,
)

QUERY = ["shrine", "shop", "restaurant", "hotel"]
#: The limiter scenario's fixed per-request service time on its fake clock.
SERVICE_SECONDS = 0.005
VOCAB = [
    "shrine", "shop", "restaurant", "hotel", "cafe", "museum",
    "park", "bar", "gym", "pier", "temple", "market",
]


def fail(message):
    print(f"overload-smoke: FAIL: {message}", file=sys.stderr)
    sys.exit(1)


def make_dataset(seed: int = 7, n: int = 250) -> Dataset:
    """A dataset big enough that one query costs a few milliseconds."""
    rng = random.Random(seed)
    records = []
    for _ in range(n):
        kws = rng.sample(VOCAB, rng.randint(1, 3))
        records.append((rng.uniform(0, 100), rng.uniform(0, 100), kws))
    return Dataset.from_records(records, name="overload-smoke")


def percentile(samples, q):
    ordered = sorted(samples)
    index = min(len(ordered) - 1, int(round(q / 100.0 * (len(ordered) - 1))))
    return ordered[index]


def assert_conserved(snapshot):
    if snapshot["submitted"] != snapshot["accepted"] + snapshot["rejected"]:
        fail(f"conservation broken: submitted != accepted + rejected: {snapshot}")
    if snapshot["accepted"] != snapshot["completed"] + snapshot["failed"]:
        fail(f"conservation broken: accepted != completed + failed: {snapshot}")


def check_burst(dataset):
    with QueryService(
        dataset,
        max_workers=1,
        cache_size=0,
        admission_capacity=32,
        metrics=MetricsRegistry(),
    ) as service:
        unloaded = []
        for _ in range(20):
            result = service.query(QUERY, algorithm="SKECa+")
            if not result.ok:
                fail(f"unloaded query failed: {result.error}")
            unloaded.append(result.stats.total_seconds)
        unloaded_p95 = percentile(unloaded, 95)

        rate = 10.0 / max(unloaded_p95, 1e-4)  # 10x the service rate
        rng = random.Random(1)
        futures = []
        for _ in range(200):
            time.sleep(rng.expovariate(rate))
            try:
                futures.append(service.submit(QUERY, algorithm="SKECa+"))
            except QueryRejected:
                pass  # counted by the controller; the point is no hang
        loaded = []
        for future in futures:
            try:
                result = future.result(timeout=120)
            except QueryRejected:
                continue
            if result.ok:
                loaded.append(result.stats.total_seconds)
        snapshot = service.admission_dict()

    if snapshot["rejected"] == 0:
        fail("a 10x burst against capacity 32 shed nothing")
    if not loaded:
        fail("the burst completed no accepted queries")
    loaded_p95 = percentile(loaded, 95)
    bound = 2.0 * max(unloaded_p95, 1e-3)
    if loaded_p95 > bound:
        fail(
            f"accepted execution p95 {loaded_p95 * 1e3:.2f}ms exceeds "
            f"2x unloaded p95 {unloaded_p95 * 1e3:.2f}ms"
        )
    assert_conserved(snapshot)
    print(
        f"  burst: unloaded_p95={unloaded_p95 * 1e3:.2f}ms "
        f"accepted_p95={loaded_p95 * 1e3:.2f}ms "
        f"rejected={snapshot['rejected']}/{snapshot['submitted']}"
    )


class FakeClock:
    """A clock that moves only when a served request advances it."""

    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now

    def serve(self, seconds):
        self.now += seconds


def check_limiter_adaptation():
    """Back-off and recovery on a fake clock, so host noise cannot move it.

    A one-worker controller with its default limiter (the one
    ``QueryService`` builds for one worker); each request's execution
    advances the clock by a fixed service time, ten times longer during
    the incident.
    """
    clock = FakeClock()
    with AdmissionController(max_workers=1, clock=clock) as admission:
        limiter = admission.limiter

        def run(requests, seconds):
            for _ in range(requests):
                admission.submit(clock.serve, seconds, key="SKECa+").result(timeout=60)

        run(10, SERVICE_SECONDS)
        pre_incident = limiter.limit
        run(8, 10 * SERVICE_SECONDS)
        dipped = limiter.limit
        if dipped >= pre_incident:
            fail(
                f"limit did not back off under slowdown: "
                f"{pre_incident:.2f} -> {dipped:.2f}"
            )
        if limiter.decreases == 0:
            fail("slowdown triggered no multiplicative decreases")
        run(40, SERVICE_SECONDS)
        recovered = limiter.limit
    if recovered <= dipped:
        fail(f"limit never recovered: dipped {dipped:.2f}, now {recovered:.2f}")
    if recovered < 0.75 * pre_incident:
        fail(
            f"limit recovered only to {recovered:.2f} "
            f"(pre-incident {pre_incident:.2f})"
        )
    print(
        f"  limiter: pre={pre_incident:.2f} dipped={dipped:.2f} "
        f"recovered={recovered:.2f}"
    )


def _run_policy(dataset, policy):
    """Burst one policy; return (accepted, met_deadline, rejected)."""
    with QueryService(
        dataset,
        max_workers=1,
        cache_size=0,
        admission_capacity=40,
        shed_policy=policy,
        metrics=MetricsRegistry(),
    ) as service:
        warm = []
        for _ in range(15):
            result = service.query(QUERY, algorithm="SKECa+")
            warm.append(result.stats.total_seconds)
        # Prime the p95 histogram, then give each burst request ~10
        # service times of end-to-end budget.
        deadline = 10.0 * max(percentile(warm, 95), 1e-3)

        done_at = {}
        entries = []
        rejected = 0
        for _ in range(120):
            submitted_at = time.monotonic()
            try:
                future = service.submit(
                    QUERY, algorithm="SKECa+", timeout=deadline
                )
            except QueryRejected:
                rejected += 1
                continue
            future.add_done_callback(
                lambda f: done_at.setdefault(f, time.monotonic())
            )
            entries.append((submitted_at, future))

        accepted = met = 0
        for submitted_at, future in entries:
            try:
                result = future.result(timeout=120)
            except QueryRejected:
                rejected += 1
                continue
            if not result.ok:
                continue
            accepted += 1
            if done_at[future] - submitted_at <= deadline:
                met += 1
    return accepted, met, rejected


def check_deadline_aware_beats_reject_newest(dataset):
    newest_accepted, newest_met, _ = _run_policy(dataset, "reject-newest")
    aware_accepted, aware_met, aware_rejected = _run_policy(
        dataset, "deadline-aware"
    )
    if aware_accepted == 0:
        fail("deadline-aware accepted nothing")
    if aware_rejected == 0:
        fail("deadline-aware shed nothing under a 120-request burst")
    newest_frac = newest_met / newest_accepted if newest_accepted else 0.0
    aware_frac = aware_met / aware_accepted
    if aware_frac <= newest_frac:
        fail(
            f"deadline-aware met {aware_frac:.2%} of accepted deadlines, "
            f"reject-newest met {newest_frac:.2%} — no improvement"
        )
    print(
        f"  policy: deadline-aware met {aware_met}/{aware_accepted} "
        f"({aware_frac:.0%}), reject-newest met {newest_met}/"
        f"{newest_accepted} ({newest_frac:.0%})"
    )


def check_cli(tmp):
    json_path = os.path.join(tmp, "overload.json")
    prom_path = os.path.join(tmp, "overload.prom")
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
            "--queries", "30",
            "--operations", "60",
            "--m", "3",
            "--workers", "1",
            "--cache-size", "0",
            "--algorithms", "SKECa+",
            "--arrival-rate", "5000",
            "--admission-capacity", "4",
            "--shed-policy", "reject-newest",
            "--seed", "3",
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
    workload = dump["workload"]
    if workload["shed_policy"] != "reject-newest":
        fail("shed policy not recorded in the workload summary")
    if workload["admission_capacity"] != 4:
        fail("admission capacity not recorded in the workload summary")
    if workload["rejected"] < 1:
        fail("open-loop overload at capacity 4 rejected nothing")
    assert_conserved(dump["admission"])
    prom = Path(prom_path).read_text()
    for family in (
        "mck_admission_rejected_total",
        "mck_queue_depth",
        "mck_inflight",
        "mck_concurrency_limit",
    ):
        if family not in prom:
            fail(f"{family} missing from bench --prom-out")
    print(
        f"  cli: rejected={workload['rejected']} of "
        f"{workload['requests_total']} prom={len(prom.splitlines())} lines"
    )


def main() -> int:
    dataset = make_dataset()
    print("overload-smoke: scenarios")
    check_burst(dataset)
    check_limiter_adaptation()
    check_deadline_aware_beats_reject_newest(dataset)
    with tempfile.TemporaryDirectory() as tmp:
        check_cli(tmp)
    print("overload-smoke: OK")
    return 0


if __name__ == "__main__":
    sys.exit(main())
