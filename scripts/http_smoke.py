#!/usr/bin/env python
"""HTTP serving-tier smoke check: the network contract, over real sockets.

Five scenarios against in-process servers on loopback:

1. **Wire basics.** Health, readiness, a query answered over the wire
   matching the in-process engine's answer, top-k, Prometheus metrics
   exposition carrying the HTTP families.
2. **Mutations.** A live-engine server applies inserts/deletes over the
   wire; a follow-up query sees the new object; a sealed-dataset server
   answers 409.
3. **Overload.** An injected admission-rejection burst surfaces as HTTP
   429 with a sane ``Retry-After``; ``/readyz`` flips unready (503)
   strictly *before* the admission queue saturates, so a load balancer
   sheds first while arriving requests are still admitted.
4. **Forensics.** A slow over-the-wire query (injected circleScan delay +
   clock skew) comes back degraded with its quality tag, the flight
   recorder retains its trace, and EXPLAIN rides the response body.
5. **Open loop.** The bench driver's HTTP transport completes a short
   open-loop Poisson run and reports p50/p95 and per-status counts.

Run from the repo root: ``python scripts/http_smoke.py``.
"""

import json
import logging
import sys
import threading
import time
from http.client import HTTPConnection
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO / "src"))

logging.getLogger("repro").setLevel(logging.ERROR)

from repro import Dataset  # noqa: E402
from repro.live import LiveMCKEngine  # noqa: E402
from repro.observability.flight import FlightRecorder  # noqa: E402
from repro.bench import HTTPSend, Workload, drive  # noqa: E402
from repro.server import MCKServer  # noqa: E402
from repro.serving import MetricsRegistry, QueryService  # noqa: E402
from repro.testing import faults  # noqa: E402

QUERY = ["shrine", "shop", "restaurant", "hotel"]
RECORDS = [
    (10.0, 10.0, ["shrine"]),
    (11.0, 10.5, ["shop"]),
    (10.5, 11.0, ["restaurant"]),
    (11.2, 11.2, ["hotel"]),
    (50.0, 50.0, ["shrine", "cafe"]),
    (52.0, 50.0, ["shop"]),
    (90.0, 10.0, ["restaurant"]),
    (10.0, 90.0, ["hotel"]),
    (60.0, 60.0, ["cafe"]),
]


def fail(message):
    print(f"http-smoke: FAIL: {message}", file=sys.stderr)
    sys.exit(1)


def call(handle, method, path, body=None, timeout=60):
    conn = HTTPConnection(handle.host, handle.port, timeout=timeout)
    try:
        payload = None if body is None else json.dumps(body).encode()
        conn.request(method, path, body=payload)
        response = conn.getresponse()
        raw = response.read()
        headers = dict(response.getheaders())
    finally:
        conn.close()
    try:
        document = json.loads(raw)
    except ValueError:
        document = raw.decode("utf-8", "replace")
    return response.status, document, headers


def check_wire_basics():
    dataset = Dataset.from_records(RECORDS, name="smoke")
    service = QueryService(dataset, max_workers=2, metrics=MetricsRegistry())
    handle = MCKServer(service, owns_service=True).run_in_thread()
    try:
        status, body, _ = call(handle, "GET", "/healthz")
        if status != 200:
            fail(f"healthz returned {status}")
        status, body, _ = call(handle, "GET", "/readyz")
        if status != 200 or body["ready"] is not True:
            fail(f"readyz not ready while idle: {status} {body}")

        status, body, _ = call(
            handle, "POST", "/query",
            {"keywords": QUERY, "algorithm": "EXACT"},
        )
        if status != 200 or body["status"] != "ok":
            fail(f"query failed over the wire: {status} {body}")
        direct = service.engine.query(QUERY, algorithm="EXACT")
        if sorted(body["object_ids"]) != sorted(direct.object_ids):
            fail(
                f"wire answer {body['object_ids']} != "
                f"inline {list(direct.object_ids)}"
            )
        if abs(body["diameter"] - direct.diameter) > 1e-9:
            fail("wire diameter diverges from inline answer")

        # The repeat is a cache hit: answered on the loop thread, it never
        # enters admission control.
        before = service.admission_dict()
        status, again, _ = call(
            handle, "POST", "/query",
            {"keywords": QUERY, "algorithm": "EXACT"},
        )
        after = service.admission_dict()
        if status != 200 or not again["cache_hit"]:
            fail(f"repeated query was not a cache hit: {status} {again}")
        if again["object_ids"] != body["object_ids"]:
            fail("cache hit answer differs from the first answer")
        if (after["submitted"], after["inline_hits"]) != (
            before["submitted"], before["inline_hits"] + 1
        ):
            fail(f"cache hit went through admission: {before} -> {after}")

        status, body, _ = call(
            handle, "GET", "/topk?keywords=shrine,shop&k=2&algorithm=EXACT"
        )
        if status != 200 or not body["groups"]:
            fail(f"topk failed: {status} {body}")

        status, text, _ = call(handle, "GET", "/metrics")
        for family in ("mck_http_requests_total", "mck_server_ready",
                       "mck_query_latency_seconds"):
            if family not in text:
                fail(f"/metrics is missing {family}")

        status, _, _ = call(handle, "GET", "/no-such-route")
        if status != 404:
            fail(f"unknown route returned {status}, want 404")
    finally:
        handle.stop()
    print("http-smoke: wire basics OK (query/topk/metrics/readyz)")


def check_mutations():
    engine = LiveMCKEngine.from_records(RECORDS, name="smoke-live")
    service = QueryService(engine, max_workers=2, metrics=MetricsRegistry())
    handle = MCKServer(service, owns_service=True).run_in_thread()
    try:
        status, body, _ = call(
            handle, "POST", "/mutate",
            {"inserts": [[10.6, 10.6, ["tearoom"]]], "deletes": [8]},
        )
        if status != 200 or len(body["oids"]) != 1:
            fail(f"mutation failed: {status} {body}")
        new_oid = body["oids"][0]
        status, body, _ = call(
            handle, "POST", "/query", {"keywords": ["shrine", "tearoom"]}
        )
        if status != 200 or new_oid not in body["object_ids"]:
            fail(f"query does not see the wire-inserted object: {body}")
    finally:
        handle.stop()

    dataset = Dataset.from_records(RECORDS, name="smoke-sealed")
    service = QueryService(dataset, metrics=MetricsRegistry())
    handle = MCKServer(service, owns_service=True).run_in_thread()
    try:
        status, _, _ = call(
            handle, "POST", "/mutate", {"inserts": [[0.0, 0.0, ["x"]]]}
        )
        if status != 409:
            fail(f"sealed-dataset mutation returned {status}, want 409")
    finally:
        handle.stop()
    print("http-smoke: mutations OK (wire insert/delete visible, sealed=409)")


def check_overload():
    dataset = Dataset.from_records(RECORDS, name="smoke-overload")
    service = QueryService(
        dataset,
        max_workers=1,
        admission_capacity=8,
        cache_size=0,
        metrics=MetricsRegistry(),
    )
    handle = MCKServer(
        service, ready_fraction=0.5, owns_service=True
    ).run_in_thread()
    try:
        # --- readiness flips before rejections saturate ---------------
        gate = threading.Event()
        parked = [service.admission.submit(gate.wait)]
        time.sleep(0.05)  # worker picks up the gated task
        for _ in range(4):  # depth 4 == ceil(0.5 * 8): unready, not full
            parked.append(service.admission.submit(gate.wait))
        status, body, _ = call(handle, "GET", "/readyz")
        if status != 503 or body["ready"] is not False:
            fail(f"readyz did not flip under queue pressure: {status} {body}")
        if body["queue_depth"] >= body["capacity"]:
            fail("readyz flipped only at saturation; must flip before")
        # Still admitted below capacity: shedding belongs to the balancer
        # at this depth, not to 429s.
        parked.append(service.admission.submit(gate.wait))
        gate.set()
        for future in parked:
            future.result(timeout=30)
        deadline = time.time() + 5.0
        while time.time() < deadline:
            status, body, _ = call(handle, "GET", "/readyz")
            if status == 200:
                break
            time.sleep(0.02)
        else:
            fail("readyz never recovered after the queue drained")

        # --- injected rejection burst -> 429 + Retry-After ------------
        fault = faults.arm_spec("admission-reject:times=0")  # unlimited
        rejected = 0
        try:
            for _ in range(10):
                status, body, headers = call(
                    handle, "POST", "/query", {"keywords": QUERY}
                )
                if status != 429:
                    fail(f"expected 429 under injected overload, got {status}")
                if body.get("reason") != "injected":
                    fail(f"429 body lacks the typed reason: {body}")
                retry_after = headers.get("Retry-After", "")
                if not retry_after.isdigit() or not (
                    1 <= int(retry_after) <= 30
                ):
                    fail(f"bad Retry-After {retry_after!r}")
                rejected += 1
        finally:
            faults.disarm(fault)
        # Recovery: the same request is served once the fault clears.
        status, body, _ = call(handle, "POST", "/query", {"keywords": QUERY})
        if status != 200:
            fail(f"service did not recover after the burst: {status}")
        counters = service.admission_dict()
        if counters["submitted"] != counters["accepted"] + counters["rejected"]:
            fail(f"conservation violated after burst: {counters}")
        # Every request was admitted or served inline as a cache hit: the
        # parked tasks, the 10 rejected queries and the recovery query.
        requests = len(parked) + rejected + 1
        if counters["submitted"] + counters["inline_hits"] != requests:
            fail(f"{requests} requests but admission saw {counters}")
    finally:
        handle.stop()
    print(
        f"http-smoke: overload OK ({rejected}x 429 with Retry-After, "
        "readyz shed first, counters conserved)"
    )


def check_forensics():
    dataset = Dataset.from_records(RECORDS, name="smoke-forensics")
    flight = FlightRecorder()
    service = QueryService(
        dataset, max_workers=1, cache_size=0,
        metrics=MetricsRegistry(), flight=flight,
    )
    handle = MCKServer(service, owns_service=True).run_in_thread()
    try:
        with faults.injected(
            "core.deadline.clock", skew=1e9, after=2, times=None
        ):
            status, body, _ = call(
                handle, "POST", "/query",
                {
                    "keywords": QUERY,
                    "algorithm": "EXACT",
                    "timeout": 60.0,
                    "explain": True,
                },
            )
        if status != 200 or body["status"] != "degraded":
            fail(f"slow query did not degrade gracefully: {status} {body}")
        if not body.get("quality"):
            fail("degraded answer carries no quality tag over the wire")
        if not body.get("explain", {}).get("phases"):
            fail("EXPLAIN did not ride the response for a wire query")
        trace_id = body["trace_id"]
        if not trace_id:
            fail("no trace id for an over-the-wire query")
        retained = {t.trace_id for t in flight.traces()}
        if trace_id not in retained:
            fail(
                f"flight recorder did not retain the degraded wire query "
                f"({trace_id} not in {len(retained)} retained)"
            )
        status, body, _ = call(handle, "GET", "/flightz")
        if status != 200 or body["stats"]["completed"] < 1:
            fail(f"/flightz does not report the retained trace: {body}")
    finally:
        handle.stop()
    print("http-smoke: forensics OK (degraded+quality tag, EXPLAIN, "
          "flight retention for wire queries)")


def check_open_loop():
    dataset = Dataset.from_records(RECORDS, name="smoke-loadgen")
    service = QueryService(dataset, max_workers=2, metrics=MetricsRegistry())
    handle = MCKServer(service, owns_service=True).run_in_thread()
    try:
        with HTTPSend(handle.host, handle.port) as send:
            result = drive(
                Workload(
                    [QUERY, ["shrine", "shop"], ["restaurant", "hotel"]],
                    algorithms=["EXACT", "SKECa+"],
                ).draw(60, seed=3),
                send,
                arrival_rate=60.0,
                seed=3,
            )
    finally:
        handle.stop()
    if result.offered == 0:
        fail("load generator offered nothing")
    if result.completed + result.rejected + result.errors != result.offered:
        fail(f"load accounting leaks requests: {result.as_dict()}")
    if result.errors:
        fail(f"open-loop run saw server errors: {result.as_dict()}")
    p50, p95 = result.percentile(0.5), result.percentile(0.95)
    if p50 is None or p95 is None or p95 < p50:
        fail(f"nonsense percentiles: p50={p50} p95={p95}")
    print(
        f"http-smoke: open loop OK ({result.offered} offered, "
        f"{result.completed} completed, p50={p50 * 1e3:.1f}ms "
        f"p95={p95 * 1e3:.1f}ms)"
    )


def main():
    check_wire_basics()
    check_mutations()
    check_overload()
    check_forensics()
    check_open_loop()
    print("http-smoke: all checks passed")


if __name__ == "__main__":
    main()
