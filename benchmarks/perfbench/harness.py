"""Measurement plumbing shared by the workloads: spans, statistics, results.

Everything here is arithmetic the reported metrics depend on, kept apart
from the workloads so ``selftest.py`` can pin it on small hand-made inputs:

* :class:`Tracer` records spans (name, start, end, parent, request id) in
  memory; :data:`NULL_TRACER` is the same interface doing nothing, so the
  untraced and traced passes run one code path;
* :func:`self_times` / :func:`uncovered` turn spans into per-layer self
  time (duration minus the part of it that child spans cover) and into the
  time no span covers;
* :func:`percentile` applies the reporting rule: a percentile is reported
  only when at least :data:`MIN_BEYOND` samples lie beyond it, and always
  with its sample count;
* :class:`HostClock` / :func:`host_scale` put pass and set-up times on a
  host-normalised clock (see :class:`HostClock`);
* :func:`geomean`, :func:`client_count`, :func:`peak_rss_mb`.
"""

from __future__ import annotations

import contextvars
import gc
import itertools
import math
import os
import resource
import signal
import time
from concurrent.futures import Future, ThreadPoolExecutor
from contextlib import contextmanager
from typing import Iterable, Iterator, Sequence

import numpy as np

#: A percentile is reported only with at least this many samples beyond it.
MIN_BEYOND = 10

_current_span: contextvars.ContextVar[int | None] = contextvars.ContextVar(
    "perfbench_span", default=None
)
_current_request: contextvars.ContextVar[int | None] = contextvars.ContextVar(
    "perfbench_request", default=None
)


def now() -> float:
    """The benchmark's clock (seconds, monotonic, high resolution)."""
    return time.perf_counter()


class Tracer:
    """In-memory span recorder; parents and request ids ride on contextvars.

    Spans opened in an asyncio task, or in an executor job run by
    :class:`InlineExecutor`, nest under the span that was current where
    that task or job was created.
    """

    enabled = True

    def __init__(self) -> None:
        self.spans: list[dict] = []
        self._ids = itertools.count(1)

    @contextmanager
    def span(self, name: str, *, request: int | None = None) -> Iterator[dict]:
        rec = {
            "id": next(self._ids),
            "name": name,
            "parent": _current_span.get(),
            "request": request if request is not None else _current_request.get(),
            "start": now(),
            "end": None,
        }
        span_token = _current_span.set(rec["id"])
        request_token = _current_request.set(rec["request"])
        try:
            yield rec
        finally:
            rec["end"] = now()
            _current_request.reset(request_token)
            _current_span.reset(span_token)
            self.spans.append(rec)


class _NullTracer:
    """The untraced pass: same calls, nothing recorded."""

    enabled = False

    @contextmanager
    def span(self, name: str, *, request: int | None = None) -> Iterator[None]:
        yield None


NULL_TRACER = _NullTracer()


class InlineExecutor(ThreadPoolExecutor):
    """An executor that runs each job at once, in the submitting thread.

    Installed as the event loop's default executor, it keeps the serving
    layer's store and search jobs on the main thread, where
    :class:`HostClock` samples and where the submitting request's span is
    current.  With one closed-loop client nothing else runs while a job
    does, so only the thread hand-off is left out.
    """

    def submit(self, fn, /, *args, **kwargs):
        future: Future = Future()
        try:
            future.set_result(fn(*args, **kwargs))
        except Exception as exc:  # noqa: BLE001 - delivered to the awaiting task
            future.set_exception(exc)
        return future


def _union_length(intervals: Iterable[tuple[float, float]]) -> float:
    total = 0.0
    cur_start = cur_end = None
    for start, end in sorted(intervals):
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        elif end > cur_end:
            cur_end = end
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def self_times(spans: Sequence[dict]) -> dict[int, float]:
    """Span id -> duration minus the part of it its child spans cover."""
    children: dict[int, list[tuple[float, float]]] = {}
    for s in spans:
        if s["parent"] is not None:
            children.setdefault(s["parent"], []).append((s["start"], s["end"]))
    out = {}
    for s in spans:
        start, end = s["start"], s["end"]
        clipped = [
            (max(a, start), min(b, end))
            for a, b in children.get(s["id"], ())
            if min(b, end) > max(a, start)
        ]
        out[s["id"]] = (end - start) - _union_length(clipped)
    return out


def uncovered(start: float, end: float, spans: Sequence[dict]) -> float:
    """Time in ``[start, end]`` that no root span covers."""
    roots = [
        (max(s["start"], start), min(s["end"], end))
        for s in spans
        if s["parent"] is None and min(s["end"], end) > max(s["start"], start)
    ]
    return (end - start) - _union_length(roots)


def layer_busy(spans: Sequence[dict]) -> dict[str, float]:
    """Span name -> summed self time."""
    selfs = self_times(spans)
    out: dict[str, float] = {}
    for s in spans:
        out[s["name"]] = out.get(s["name"], 0.0) + selfs[s["id"]]
    return out


#: What one :func:`reference_work` call takes on an unloaded host (s); the
#: host-normalised clock is scaled so the reference always takes this long.
REF_NOMINAL_S = 0.025
#: :class:`HostClock` runs the reference this often while a window is open (s).
REF_EVERY_S = 1.0


class _RefItem:
    __slots__ = ("key", "pair")

    def __init__(self, key: int, pair: tuple[int, int]):
        self.key = key
        self.pair = pair


def reference_work() -> int:
    """A fixed mix of interpreter, allocation and small-array numpy work.

    It lives here, not in the program, so no change to the program can make
    it faster: its time tracks only how fast the host runs this process at
    that moment.  The cyclic collector is off while it runs, so it never
    pays for a collection of the program's heap.  About
    :data:`REF_NOMINAL_S` on an unloaded host.
    """
    collecting = gc.isenabled()
    gc.disable()
    try:
        table: dict[int, tuple[int, int]] = {}
        acc = 0
        for i in range(90_000):
            key = (i * 7) & 1023
            prev = table.get(key, (0, 1))
            table[key] = (prev[1], (prev[0] + i) & 0xFFFF)
            acc ^= prev[1]
        items = [_RefItem(i, (i, acc)) for i in range(13_500)]
        by_key = {item.key: item for item in items[::3]}
        acc += sum(item.pair[0] for item in items) + len(by_key)
        del items, by_key
        a = np.arange(2048.0)
        for _ in range(300):
            a = a * 0.5 + 1.0
        return acc + int(a[0])
    finally:
        if collecting:
            gc.enable()


def host_scale(samples: Sequence[tuple[float, float]]) -> float:
    """Factor from seconds on this host, as it ran, to host-normalised seconds.

    ``samples`` are the ``(start, end)`` clock readings of reference calls
    made between stretches of work.  The work between two calls is taken to
    run at the mean speed of the two, so the factor is
    :data:`REF_NOMINAL_S` over the work-weighted (harmonic) mean reference
    time.  Needs at least two samples with work between them.
    """
    work = weighted = 0.0
    for (a0, a1), (b0, b1) in zip(samples, samples[1:]):
        gap = b0 - a1
        work += gap
        weighted += gap / (((a1 - a0) + (b1 - b0)) / 2)
    if work <= 0:
        raise ValueError("host_scale needs two reference samples with work between them")
    return REF_NOMINAL_S * weighted / work


class HostClock:
    """Samples host speed while work runs, to normalise the work's time.

    The host shares its cores with other tenants, and the speed one process
    gets wanders by tens of percent over seconds to minutes; raw pass times
    follow it, so two runs of the same code can differ by more than any
    useful regression bound.  Between :meth:`begin` and :meth:`end` an
    interval timer interrupts the main thread every ``every`` seconds and
    runs :func:`reference_work` there; all of the program's work must run
    on the main thread (see :class:`InlineExecutor`), or the reference
    would wait for the interpreter lock and measure the lock, not the host.
    A window's time times :func:`host_scale` is its time on a host where
    the reference takes :data:`REF_NOMINAL_S`; :meth:`ref_between` gives
    the reference time to take out of any interval inside the window.
    """

    def __init__(self, every: float = REF_EVERY_S):
        self.every = every
        self.samples: list[tuple[float, float]] = []
        self._sampling = False

    def _sample(self, *_signal) -> None:
        if self._sampling:
            return
        self._sampling = True
        try:
            t0 = now()
            reference_work()
            self.samples.append((t0, now()))
        finally:
            self._sampling = False

    def begin(self) -> None:
        self.samples = []
        self._sample()
        signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, self.every, self.every)

    def end(self) -> float:
        """Close the window; return its :func:`host_scale`."""
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)
        self._sample()
        return host_scale(self.samples)

    def ref_between(self, start: float, end: float) -> float:
        """Reference time inside ``[start, end]``."""
        total = 0.0
        for a, b in reversed(self.samples):
            if b <= start:
                break
            total += max(0.0, min(b, end) - max(a, start))
        return total


class _NullClock:
    """No sampling: the traced pass reports raw seconds."""

    def ref_between(self, start: float, end: float) -> float:
        return 0.0


NULL_CLOCK = _NullClock()


def percentile(samples: Sequence[float], q: float) -> tuple[float | None, int]:
    """``(value, n)``: the nearest-rank ``q``-quantile and the sample count.

    ``value`` is ``None`` when fewer than :data:`MIN_BEYOND` samples lie
    beyond the rank, so a tail figure is never read off a handful of points.
    """
    n = len(samples)
    if n == 0:
        return None, 0
    rank = max(1, math.ceil(q * n))
    if n - rank < MIN_BEYOND:
        return None, n
    return sorted(samples)[rank - 1], n


def geomean(values: Sequence[float]) -> float:
    if not values or any(v <= 0 for v in values):
        raise ValueError(f"geometric mean needs positive values, got {values!r}")
    return math.exp(sum(math.log(v) for v in values) / len(values))


def client_count(wanted: int) -> int:
    """Closed-loop clients: as many as asked, never more than the cores."""
    return max(1, min(wanted, os.cpu_count() or 1))


def peak_rss_mb() -> float:
    """High-water resident set size of this process (Linux reports KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
