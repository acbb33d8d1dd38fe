#!/usr/bin/env bash
# Repo health check: byte-compile everything, then run the test suite.
# Usage: scripts/check.sh [extra pytest args...]
set -euo pipefail

cd "$(dirname "$0")/.."

export PYTHONPATH="src${PYTHONPATH:+:$PYTHONPATH}"

echo "== compileall =="
python -m compileall -q src

echo "== pytest =="
python -m pytest -q "$@"

echo "== trace smoke =="
python scripts/trace_smoke.py SKECa+
python scripts/trace_smoke.py EXACT

echo "== fault-injection smoke =="
python scripts/fault_smoke.py

echo "== overload smoke =="
python scripts/overload_smoke.py

echo "== live smoke =="
python scripts/live_smoke.py

echo "== restart smoke =="
python scripts/restart_smoke.py

echo "== forensics smoke =="
python scripts/forensics_smoke.py

echo "== http smoke =="
python scripts/http_smoke.py

echo "== replication smoke =="
python scripts/replication_smoke.py

echo "== perf gate (smoke scale) =="
# Fast variant: parity + counter checks on the pinned seed without a
# latency baseline (host speed varies; CI gates against the committed
# small-scale baseline instead).
python benchmarks/perf_gate.py --scale smoke
