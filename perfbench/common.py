"""Shared pieces of the benchmark: inputs, timing, memory and answer checks.

Nothing here imports ``repro`` at module load; ``run.py`` puts the
checkout's ``src`` on the path first and the workloads import lazily.
"""

from __future__ import annotations

import gc
import math
import multiprocessing
import os
import threading
import time
from collections import deque
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

#: NY-like preset at half scale: 10,000 objects.
DATA_SCALE = 0.5
#: Query circles are drawn with diameter up to this share of the extent.
DIAMETER_FRACTION = 0.1
EPSILON = 0.01

Record = Tuple[float, float, Tuple[str, ...]]


# --------------------------------------------------------------------- #
# Inputs
# --------------------------------------------------------------------- #


def make_records(scale: float = DATA_SCALE) -> Tuple[object, List[Record]]:
    """The NY-like dataset (preset seed) and its ``(x, y, keywords)`` rows."""
    from repro.datasets.synthetic import make_ny_like

    dataset = make_ny_like(scale=scale)
    records = [(o.x, o.y, tuple(sorted(o.keywords))) for o in dataset]
    return dataset, records


def distinct_queries(
    dataset, m: int, count: int, seed: int, exclude: Iterable = ()
) -> List[Tuple[str, ...]]:
    """``count`` keyword sets, pairwise distinct, by the paper's recipe."""
    from repro.datasets.queries import generate_queries

    seen = {frozenset(k) for k in exclude}
    out: List[Tuple[str, ...]] = []
    batch = 0
    while len(out) < count:
        for q in generate_queries(
            dataset,
            m,
            count,
            diameter_fraction=DIAMETER_FRACTION,
            seed=seed * 1009 + batch,
        ):
            key = frozenset(q.keywords)
            if key not in seen and len(out) < count:
                seen.add(key)
                out.append(tuple(q.keywords))
        batch += 1
    return out


def assign_algorithms(
    queries: Sequence[Tuple[str, ...]], algorithms: Sequence[str]
) -> List[Tuple[Tuple[str, ...], str]]:
    """Round-robin, so every run has the same algorithm mix; the queries
    themselves are already in random order."""
    return [(q, algorithms[i % len(algorithms)]) for i, q in enumerate(queries)]


# --------------------------------------------------------------------- #
# Statistics
# --------------------------------------------------------------------- #


def percentile(values: Sequence[float], q: float) -> float:
    """Linear-interpolated percentile; 0.0 for an empty sample."""
    if not values:
        return 0.0
    ordered = sorted(values)
    pos = (len(ordered) - 1) * q / 100.0
    lo = int(math.floor(pos))
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


def median(values: Sequence[float]) -> float:
    return percentile(values, 50.0)


def mean(values: Sequence[float]) -> float:
    return sum(values) / len(values) if values else 0.0


# --------------------------------------------------------------------- #
# Memory: proportional set size over this process and its children
# --------------------------------------------------------------------- #


def _pss_kb(pid: int) -> int:
    try:
        with open(f"/proc/{pid}/smaps_rollup") as fh:
            for line in fh:
                if line.startswith("Pss:"):
                    return int(line.split()[1])
    except OSError:
        pass  # the process ended between listing and reading
    return 0


def _children(pid: int) -> List[int]:
    out: List[int] = []
    try:
        tasks = os.listdir(f"/proc/{pid}/task")
    except OSError:
        return out
    for tid in tasks:
        try:
            with open(f"/proc/{pid}/task/{tid}/children") as fh:
                out.extend(int(c) for c in fh.read().split())
        except OSError:
            continue
    return out


def pss_mb() -> Tuple[float, float]:
    """(this process + all descendants, descendants only) PSS in MiB.

    PSS splits pages shared after ``fork`` between the sharers, so the
    process pool's copy-on-write pages are counted once in the sum.
    """
    me = os.getpid()
    stack, descendants = _children(me), []
    while stack:
        pid = stack.pop()
        descendants.append(pid)
        stack.extend(_children(pid))
    kids = sum(_pss_kb(p) for p in descendants)
    return (_pss_kb(me) + kids) / 1024.0, kids / 1024.0


def baseline_mb() -> float:
    """PSS of this process before the stack under test is built: the
    interpreter, the imported program and the benchmark's own inputs."""
    gc.collect()
    return pss_mb()[0]


class PeakMemory:
    """Samples :func:`pss_mb` on a thread; keeps the peaks until frozen.

    The pool workers' memory grows with every distinct query they serve,
    so a peak over a fixed run time would follow the host's speed.  The
    workloads freeze the peaks at a fixed read count instead.
    """

    def __init__(self, interval: float = 0.25):
        self.interval = interval
        self.peak_total = 0.0
        self.peak_children = 0.0
        self.frozen = False
        self._stop = threading.Event()
        self._thread: Optional[threading.Thread] = None

    def sample(self) -> None:
        if self.frozen:
            return
        total, kids = pss_mb()
        self.peak_total = max(self.peak_total, total)
        self.peak_children = max(self.peak_children, kids)

    def freeze(self) -> None:
        """Sample once more, then keep the peaks as they are."""
        self.sample()
        self.frozen = True

    def __enter__(self) -> "PeakMemory":
        self.sample()

        def _loop() -> None:
            while not self._stop.wait(self.interval):
                self.sample()

        self._thread = threading.Thread(target=_loop, name="bench-pss", daemon=True)
        self._thread.start()
        return self

    def __exit__(self, *exc) -> None:
        self._stop.set()
        self._thread.join()
        self.sample()


# --------------------------------------------------------------------- #
# Host speed: a fixed loop timed in thread CPU time next to every operation
# --------------------------------------------------------------------- #

#: Iterations of the calibration loop, and its thread CPU time on an idle
#: 2-vCPU Xeon VM (the host the bounds were set on).
CAL_LOOP = 20_000
CAL_REF_MS = 1.2
#: Samples in the rolling median a factor is taken from.
CAL_WINDOW = 15
#: Samples timed just before and again just after each set-up.
CAL_BRACKET = 25


def calibration_ms() -> float:
    """Thread CPU time of a fixed interpreter loop, in ms.

    CPU time, not wall time: waiting for the GIL or for a CPU taken by
    the program's own threads and workers does not count, so a program
    change cannot hide in the calibration.  A slower host does count.
    """
    start = time.thread_time()
    acc = 0
    for i in range(CAL_LOOP):
        acc += i * i
    return (time.thread_time() - start) * 1e3


def pin_to_one_cpu() -> None:
    """Pin the calling thread to one CPU; threads and processes it starts
    afterwards (server threads, pool workers, shard threads) inherit it.

    On a small shared VM a hand-off to an idle virtual CPU costs whatever
    the host's load makes it cost, and the calibration loop would time a
    different CPU than the one the work ran on.  On one CPU, hand-offs are
    plain context switches and ``HostSpeed`` times the CPU doing the work.
    """
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})


class HostSpeed:
    """Rolling estimate of how fast the host runs right now.

    :meth:`factor` times the calibration loop once and returns
    ``CAL_REF_MS`` over the median of the latest ``CAL_WINDOW`` timings.
    A latency multiplied by it is the latency on the reference host.
    """

    def __init__(self):
        self._samples: deque = deque(maxlen=CAL_WINDOW)
        for _ in range(CAL_WINDOW - 1):
            self._samples.append(calibration_ms())

    def factor(self) -> float:
        self._samples.append(calibration_ms())
        return CAL_REF_MS / median(self._samples)


class SetupClock:
    """Times set-ups, raw and scaled by the host speed around each one.

    The host's speed flips between states within seconds, and a set-up
    lasts a fraction of one, so the factor comes from the calibration
    loop timed ``CAL_BRACKET`` times just before and just after it.
    """

    def __init__(self):
        self.raw: List[float] = []
        self.adjusted: List[float] = []
        self._before: List[float] = []
        self._started = 0.0

    def start(self) -> float:
        self._before = [calibration_ms() for _ in range(CAL_BRACKET)]
        self._started = time.perf_counter()
        return self._started

    def stop(self) -> None:
        elapsed = time.perf_counter() - self._started
        after = [calibration_ms() for _ in range(CAL_BRACKET)]
        self.raw.append(elapsed)
        self.adjusted.append(elapsed * CAL_REF_MS / median(self._before + after))


# --------------------------------------------------------------------- #
# Answer checks
# --------------------------------------------------------------------- #


def diameter_of(points: Sequence[Tuple[float, float]]) -> float:
    best = 0.0
    for i in range(len(points)):
        xi, yi = points[i]
        for j in range(i + 1, len(points)):
            d = math.hypot(xi - points[j][0], yi - points[j][1])
            if d > best:
                best = d
    return best


def check_answer(
    keywords: Sequence[str],
    objects: Sequence[Optional[Record]],
    diameter: float,
    quality: str,
    optimum: Optional[float] = None,
) -> Optional[str]:
    """Why an answer is wrong, or ``None`` when it passes every check.

    ``objects`` are the returned objects resolved against the benchmark's
    own copy of the data (``None`` for an object it does not know).
    """
    from repro.core.common import quality_ratio_bound

    if not objects:
        return "empty group"
    if any(o is None for o in objects):
        return "group holds an object that is not in the data"
    covered = set()
    for _x, _y, kws in objects:
        covered.update(kws)
    missing = set(keywords) - covered
    if missing:
        return f"keywords not covered: {sorted(missing)}"
    actual = diameter_of([(o[0], o[1]) for o in objects])
    if not math.isclose(actual, diameter, rel_tol=1e-9, abs_tol=1e-6):
        return f"reported diameter {diameter!r} != recomputed {actual!r}"
    if optimum is not None:
        if diameter < optimum * (1 - 1e-9) - 1e-6:
            return f"diameter {diameter!r} below the optimum {optimum!r}"
        bound = quality_ratio_bound(quality, EPSILON)
        if diameter > bound * optimum * (1 + 1e-9) + 1e-6:
            return (
                f"diameter {diameter!r} exceeds {quality!r} bound "
                f"{bound:.4f} x optimum {optimum!r}"
            )
    return None


_REFERENCE_ENGINE = None


def _reference_init(records) -> None:
    global _REFERENCE_ENGINE
    # Untimed: every CPU the system allows (the kernel drops the rest).
    os.sched_setaffinity(0, range(os.cpu_count() or 1))
    from repro import Dataset, MCKEngine

    _REFERENCE_ENGINE = MCKEngine(Dataset.from_records(records, name="reference"))


def _reference_solve(keywords) -> Optional[Tuple[float, list]]:
    """(optimal diameter, its group's points), or ``None`` if infeasible."""
    from repro.exceptions import InfeasibleQueryError

    try:
        group = _REFERENCE_ENGINE.query(list(keywords), "EXACT")
    except InfeasibleQueryError:
        return None
    data = _REFERENCE_ENGINE.dataset
    return float(group.diameter), [(data[o].x, data[o].y) for o in group.object_ids]


class Reference:
    """Untimed optimum diameters from a plain sealed engine's EXACT.

    Solved after the timed phases, on two worker processes (spawned, so
    they share nothing with the stack under test).
    """

    WORKERS = 2

    def __init__(self, records: Iterable[Record]):
        self.records = list(records)
        self._memo: Dict[frozenset, Optional[Tuple[float, list]]] = {}

    def solve(self, keyword_sets: Iterable[Sequence[str]]) -> None:
        todo = list({frozenset(k): tuple(k) for k in keyword_sets
                     if frozenset(k) not in self._memo}.values())
        if not todo:
            return
        ctx = multiprocessing.get_context("spawn")
        with ctx.Pool(self.WORKERS, _reference_init, (self.records,)) as pool:
            answers = pool.map(_reference_solve, todo, chunksize=8)
        for keywords, answer in zip(todo, answers):
            self._memo[frozenset(keywords)] = answer

    def optimum(self, keywords: Sequence[str]) -> Optional[Tuple[float, list]]:
        if frozenset(keywords) not in self._memo:
            self.solve([keywords])
        return self._memo[frozenset(keywords)]


def stop_children(grace: float = 5.0) -> None:
    """Stop every process this one started and wait until each has ended.

    The spawn context behind :class:`Reference` leaves multiprocessing's
    resource tracker running until the interpreter exits, and an error
    path can leave pool workers behind.  The tracker ignores SIGTERM and
    ends when its pipe closes, so it is stopped through its own handle;
    any other child gets SIGTERM, then SIGKILL after ``grace`` seconds.
    """
    import signal
    from multiprocessing import resource_tracker

    tracker = getattr(resource_tracker, "_resource_tracker", None)
    if tracker is not None and getattr(tracker, "_fd", None) is not None:
        tracker._stop()
    pending = set(_children(os.getpid()))
    for pid in pending:
        try:
            os.kill(pid, signal.SIGTERM)
        except ProcessLookupError:
            pass
    deadline = time.monotonic() + grace
    while pending:
        for pid in list(pending):
            try:
                done, _ = os.waitpid(pid, os.WNOHANG)
            except ChildProcessError:
                done = pid  # already reaped elsewhere
            if done:
                pending.discard(pid)
        if not pending:
            break
        if time.monotonic() > deadline:
            for pid in pending:
                try:
                    os.kill(pid, signal.SIGKILL)
                except ProcessLookupError:
                    pass
                try:
                    os.waitpid(pid, 0)
                except ChildProcessError:
                    pass
            break
        time.sleep(0.02)


class Tally:
    """Operation outcome counts behind ``attempted``/``failed``/``wrong``."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.answered = 0
        self.wrong = 0
        self.reasons: List[str] = []

    def fail(self, reason: str) -> None:
        self.failed += 1
        self.reasons.append(f"failed: {reason}")

    def judge(self, reason: Optional[str]) -> None:
        self.answered += 1
        if reason is not None:
            self.wrong += 1
            self.reasons.append(f"wrong: {reason}")


# --------------------------------------------------------------------- #
# Timing proxy around the engine layer (traced runs only)
# --------------------------------------------------------------------- #


class TimedEngine:
    """Forwards everything to an engine; times each ``query`` call.

    The benchmark's own clock around its call into the engine layer: the
    traced run compares it with the span the layer records for the same
    call.  ``on_query(trace_id, start_ns, end_ns)`` receives each timing.
    """

    def __init__(self, target, tracer, on_query):
        object.__setattr__(self, "_target", target)
        object.__setattr__(self, "_tracer", tracer)
        object.__setattr__(self, "_on_query", on_query)

    def __getattr__(self, name):
        return getattr(self._target, name)

    def __setattr__(self, name, value):
        setattr(self._target, name, value)

    def __len__(self) -> int:
        return len(self._target)

    def query(self, *args, **kwargs):
        trace_id = self._tracer.current_trace_id()
        start = time.monotonic_ns()
        try:
            return self._target.query(*args, **kwargs)
        finally:
            self._on_query(trace_id, start, time.monotonic_ns())
