#!/usr/bin/env python
"""Observability smoke check: run ``mck trace`` on a tiny synthetic dataset
and validate both exporter outputs.

Checks, in order:

1. ``mck trace`` exits 0 and writes both files;
2. the Chrome trace is valid JSON whose ``traceEvents`` hold complete
   ("ph": "X") spans — including a ``serve.request`` root and at least
   one algorithm-level span — plus ``process_name``/``thread_name``
   metadata ("ph": "M") events naming the coordinator process;
3. the Prometheus text parses line-by-line: every sample line matches the
   exposition grammar (with or without a trailing ``# {...}`` OpenMetrics
   exemplar), ``mck_query_latency_seconds`` has cumulative histogram
   buckets and both ``cache="hit"`` and ``cache="miss"`` series;
4. sweeps batch their poles: at most one ``circlescan`` span per warm-up
   or binary step, and one ``exact.candidate_enumeration`` span (with a
   ``poles`` count) per batch;
5. under SKECa+ and EXACT every ``index.cover_radii_columnar`` span
   reports a finite ``bound`` and its ``rows_queried``.

Run from the repo root: ``python scripts/trace_smoke.py [algorithm]``.
"""

import json
import math
import os
from collections import Counter as _Counter
import re
import subprocess
import sys
import tempfile
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent

SAMPLE_RE = re.compile(
    r"^[a-zA-Z_:][a-zA-Z0-9_:]*(?:\{[^}]*\})? -?(?:[0-9.e+-]+|\+Inf|NaN)"
    r"(?: # \{[^}]*\} -?(?:[0-9.e+-]+|\+Inf|NaN))?$"
)


def fail(message):
    print(f"trace-smoke: FAIL: {message}", file=sys.stderr)
    sys.exit(1)


def main() -> int:
    algorithm = sys.argv[1] if len(sys.argv) > 1 else "SKECa+"
    with tempfile.TemporaryDirectory() as tmp:
        trace_path = Path(tmp) / "trace.json"
        prom_path = Path(tmp) / "metrics.prom"
        cmd = [
            sys.executable,
            "-m",
            "repro",
            "trace",
            "--preset",
            "NY",
            "--scale",
            "0.005",
            "--m",
            "3",
            "--queries",
            "3",
            "--repeat",
            "2",
            "--algorithm",
            algorithm,
            "--trace-out",
            str(trace_path),
            "--prom-out",
            str(prom_path),
        ]
        env = dict(os.environ)
        env["PYTHONPATH"] = str(REPO / "src") + (
            ":" + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
        )
        proc = subprocess.run(cmd, cwd=REPO, env=env, capture_output=True, text=True)
        if proc.returncode != 0:
            fail(f"mck trace exited {proc.returncode}:\n{proc.stderr}")

        # -- Chrome trace ------------------------------------------------ #
        document = json.loads(trace_path.read_text())
        events = document.get("traceEvents")
        if not isinstance(events, list) or not events:
            fail("traceEvents missing or empty")
        spans = [e for e in events if e.get("ph") == "X"]
        metadata = [e for e in events if e.get("ph") == "M"]
        names = {e["name"] for e in spans}
        for event in spans:
            for field in ("name", "ph", "ts", "dur", "pid", "tid"):
                if field not in event:
                    fail(f"trace event missing {field!r}: {event}")
        for event in events:
            if event.get("ph") not in ("X", "M"):
                fail(f"unexpected phase {event.get('ph')!r}")
        if not metadata:
            fail("no metadata (ph=M) events naming processes/threads")
        meta_names = {e["name"] for e in metadata}
        if "process_name" not in meta_names:
            fail(f"no process_name metadata event in {sorted(meta_names)}")
        if not any(
            "coordinator" in e.get("args", {}).get("name", "")
            for e in metadata
            if e["name"] == "process_name"
        ):
            fail("process_name metadata does not label the coordinator")
        if "serve.request" not in names:
            fail(f"no serve.request span in {sorted(names)}")
        algo_spans = {
            "skecaplus.binary_step",
            "skeca.binary_step",
            "circlescan",
            "gkg.anchor_round",
            "gkg.run",
            "exact.search",
            "skec.pole",
        }
        if not (names & algo_spans):
            fail(f"no algorithm-level spans in {sorted(names)}")

        # Sweeps batch their poles: at most one circlescan span per
        # warm-up or binary step, one candidate-enumeration span per batch.
        count = _Counter(e["name"] for e in spans)
        steps = (
            count["skecaplus.warmup"]
            + count["skecaplus.binary_step"]
            + count["skeca.binary_step"]
        )
        if count["circlescan"] > steps:
            fail(f"{count['circlescan']} circlescan spans for {steps} steps")
        for event in spans:
            if event["name"] == "exact.candidate_enumeration" and (
                "poles" not in event.get("args", {})
            ):
                fail(f"candidate enumeration span without a pole count: {event}")
        if count["exact.candidate_enumeration"] > count["exact.skeca_plus_bound"]:
            fail(
                f"{count['exact.candidate_enumeration']} candidate enumeration "
                f"spans for {count['exact.skeca_plus_bound']} EXACT queries "
                "(one batch each on this small set)"
            )

        # SKECa+ and EXACT read coverage radii only up to their probe
        # radius: an unbounded radii pass would cost a KD query per row.
        if algorithm in ("SKECa+", "EXACT"):
            radii = [e for e in spans if e["name"] == "index.cover_radii_columnar"]
            if not radii:
                fail("no index.cover_radii_columnar span")
            for event in radii:
                bound = event.get("args", {}).get("bound")
                if bound is None or not math.isfinite(float(bound)):
                    fail(f"{algorithm} computed coverage radii without a finite bound: {event}")
                if "rows_queried" not in event.get("args", {}):
                    fail(f"cover radii span without rows_queried: {event}")

        # -- Prometheus text --------------------------------------------- #
        prom = prom_path.read_text()
        hit = miss = buckets = 0
        for line in prom.splitlines():
            if not line or line.startswith("#"):
                continue
            if not SAMPLE_RE.match(line):
                fail(f"malformed exposition line: {line!r}")
            if line.startswith("mck_query_latency_seconds_bucket"):
                buckets += 1
                if 'cache="hit"' in line:
                    hit += 1
                if 'cache="miss"' in line:
                    miss += 1
        if buckets == 0:
            fail("no mck_query_latency_seconds buckets")
        if miss == 0:
            fail("no cache=miss latency series")
        if hit == 0:
            fail("no cache=hit latency series (repeat>=2 should produce hits)")

    print(
        f"trace-smoke: OK ({len(spans)} spans + {len(metadata)} metadata "
        f"events, {len(names)} span names, {buckets} latency buckets, "
        f"hit/miss series present)"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
