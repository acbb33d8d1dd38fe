#!/usr/bin/env python
"""Overload-protection smoke check: admission, shedding, adaptive limits.

Four scenarios over a single-worker admission controller.  The first
three run on the controller's injectable fake clock with a fixed service
time, so host load cannot move what they measure:

1. **Burst.** 200 requests arrive while one holds the worker, against a
   capacity-32 admission queue: requests are shed (``QueryRejected``,
   never a hang), the accepted requests' execution p95 stays within 2x
   the unloaded p95, and the conservation counters balance at
   quiescence.
2. **Limiter.** The fixed service time turns 10x slower for an
   incident, past the AIMD tolerance: the concurrency limit backs off
   multiplicatively, then recovers to near its pre-incident level once
   the service time returns.
3. **Policy.** A 120-request burst under ``deadline-aware`` vs
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
import subprocess
import sys
import tempfile
import threading
import time
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO / "src"))

# Thousands of intentional rejections would otherwise flood stderr with
# per-request warnings; the smoke asserts on counters, not log lines.
logging.getLogger("repro").setLevel(logging.ERROR)

from repro.exceptions import QueryRejected  # noqa: E402
from repro.serving import AdmissionController  # noqa: E402

#: The fixed per-request service time on the scenarios' fake clocks.
SERVICE_SECONDS = 0.005


def fail(message):
    print(f"overload-smoke: FAIL: {message}", file=sys.stderr)
    sys.exit(1)


def percentile(samples, q):
    ordered = sorted(samples)
    index = min(len(ordered) - 1, int(round(q / 100.0 * (len(ordered) - 1))))
    return ordered[index]


def assert_conserved(snapshot, requests=None):
    """Admission's counters balance; with ``requests`` (a service's
    snapshot), every request was admitted or served inline as a hit."""
    if snapshot["submitted"] != snapshot["accepted"] + snapshot["rejected"]:
        fail(f"conservation broken: submitted != accepted + rejected: {snapshot}")
    if snapshot["accepted"] != snapshot["completed"] + snapshot["failed"]:
        fail(f"conservation broken: accepted != completed + failed: {snapshot}")
    if requests is not None and (
        snapshot["submitted"] + snapshot["inline_hits"] != requests
    ):
        fail(
            f"conservation broken: submitted + inline_hits != {requests} "
            f"requests: {snapshot}"
        )


class FakeClock:
    """A clock that moves only when a served request advances it."""

    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now

    def serve(self, seconds):
        self.now += seconds


class GatedService:
    """Requests that take a fixed service time on a fake clock.

    Each request waits on ``gate`` (so a burst can fill the queue behind
    the one executing request), then advances the clock by the service
    time; its result is the fake-clock ``(execution seconds, finished
    at)`` pair, so no host scheduling noise reaches a measurement.
    """

    def __init__(self, clock, seconds=SERVICE_SECONDS):
        self.clock = clock
        self.seconds = seconds
        self.gate = threading.Event()
        self.gate.set()

    def __call__(self):
        started = self.clock()
        self.gate.wait()
        self.clock.serve(self.seconds)
        return self.clock() - started, self.clock()

    def hold_first(self, admission, submit):
        """Close the gate and submit one request; return once it executes."""
        self.gate.clear()
        first = submit()
        while admission.inflight < 1:
            time.sleep(0.001)
        return first


def check_burst():
    """A burst far past capacity against a one-worker controller.

    On the controller's fake clock with a fixed service time (as the
    limiter scenario): the first request holds the worker while the burst
    arrives, so the capacity-32 queue fills and the rest is shed.
    """
    clock = FakeClock()
    service = GatedService(clock)
    with AdmissionController(max_workers=1, capacity=32, clock=clock) as admission:

        def submit():
            return admission.submit(service, key="SKECa+")

        unloaded = [submit().result(timeout=60)[0] for _ in range(20)]
        unloaded_p95 = percentile(unloaded, 95)

        futures = [service.hold_first(admission, submit)]
        for _ in range(199):
            try:
                futures.append(submit())
            except QueryRejected:
                pass  # counted by the controller; the point is no hang
        service.gate.set()
        loaded = []
        for future in futures:
            try:
                loaded.append(future.result(timeout=120)[0])
            except QueryRejected:
                continue
        snapshot = admission.counters()

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


def _run_policy(policy):
    """Burst one policy; return (accepted, met_deadline, rejected).

    Every request arrives at fake time 0 with ~10 service times of
    end-to-end budget while the first one holds the worker; the
    controller's p95 service-time estimate is the fixed service time.
    """
    clock = FakeClock()
    service = GatedService(clock)
    deadline = 10.0 * SERVICE_SECONDS
    with AdmissionController(
        max_workers=1,
        capacity=40,
        policy=policy,
        service_time=lambda _key: SERVICE_SECONDS,
        clock=clock,
    ) as admission:

        def submit():
            return admission.submit(service, timeout=deadline, key="SKECa+")

        futures = [service.hold_first(admission, submit)]
        rejected = 0
        for _ in range(119):
            try:
                futures.append(submit())
            except QueryRejected:
                rejected += 1
        service.gate.set()
        accepted = met = 0
        for future in futures:
            try:
                _seconds, finished_at = future.result(timeout=120)
            except QueryRejected:
                rejected += 1
                continue
            accepted += 1
            if finished_at <= deadline:
                met += 1
    return accepted, met, rejected


def check_deadline_aware_beats_reject_newest():
    newest_accepted, newest_met, _ = _run_policy("reject-newest")
    aware_accepted, aware_met, aware_rejected = _run_policy("deadline-aware")
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
    assert_conserved(dump["admission"], requests=workload["requests_total"])
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
    print("overload-smoke: scenarios")
    check_burst()
    check_limiter_adaptation()
    check_deadline_aware_beats_reject_newest()
    with tempfile.TemporaryDirectory() as tmp:
        check_cli(tmp)
    print("overload-smoke: OK")
    return 0


if __name__ == "__main__":
    sys.exit(main())
