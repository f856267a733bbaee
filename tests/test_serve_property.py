"""Property-based checks for the serving layer (:mod:`repro.serve`).

Four invariants, driven by hypothesis when available and by seeded random
sweeps otherwise (mirroring ``test_trace_property.py``):

* **round trip** — any searched schedule filed in a
  :class:`~repro.serve.store.ScheduleStore` loads back and replays to
  bit-identical numerics, across every kernel the harness records;
* **cache law** — a :class:`~repro.serve.cache.ScheduleCache` driven by
  any request log never exceeds its bound and counts exactly the misses
  ``lru_replay_trace`` counts on the log-as-trace; ``belady_replay_trace``
  on that trace matches the reference walker and floors the cache;
* **single flight** — any multiset of concurrent requests runs exactly
  one search per distinct key; every duplicate coalesces and every
  requester gets the identical object;
* **corruption tolerance** — any strict-prefix truncation or byte-level
  mangling of a stored object reads as a miss (``None``), never an
  exception.
"""

import asyncio
import functools
import os
import tempfile
import threading
import time

import numpy as np
import pytest

from repro.graph.compare import record_case
from repro.graph.policies import belady_replay_reference
from repro.serve import (
    ScheduleCache,
    ScheduleKey,
    ScheduleService,
    ScheduleStore,
    log_to_trace,
)
from repro.trace.replay import belady_replay_trace, lru_replay_trace

try:
    from hypothesis import given, settings
    from hypothesis import strategies as st

    HAVE_HYPOTHESIS = True
except ImportError:  # pragma: no cover - exercised only without hypothesis
    HAVE_HYPOTHESIS = False


@functools.lru_cache(maxsize=None)
def cached_case(kernel, n, m, s):
    return record_case(kernel, n, m, s)


def assert_store_roundtrip(kernel, n, m, s):
    case = cached_case(kernel, n, m, s)
    key = ScheduleKey(kernel, n, m, s)
    with tempfile.TemporaryDirectory() as root:
        store = ScheduleStore(root)
        store.put(key, case.schedule)
        loaded = store.get(key)
    assert loaded is not None
    assert case.check_exact(loaded)


def assert_cache_matches_engines(log, capacity):
    trace = log_to_trace(log)
    lru = ScheduleCache.replay(log, capacity)
    assert len(lru) <= capacity
    assert lru.log == list(log)
    assert lru.misses == lru_replay_trace(trace, capacity).loads
    opt = belady_replay_trace(trace, capacity).loads
    assert opt == belady_replay_reference(trace, capacity).loads
    assert opt <= lru.misses


class CountingSearcher:
    """Slow fake searcher: counts calls, forces requests to overlap."""

    def __init__(self, schedule, delay=0.03):
        self.schedule = schedule
        self.delay = delay
        self.calls = 0
        self._lock = threading.Lock()

    def __call__(self, key):
        with self._lock:
            self.calls += 1
        time.sleep(self.delay)
        return self.schedule


def assert_single_flight(dup_counts):
    """``dup_counts[i]`` concurrent requests for key ``i`` → one search each."""
    schedule = cached_case("tbs", 6, 2, 8).schedule
    keys = [ScheduleKey("tbs", 6 + i, 2, 8) for i in range(len(dup_counts))]
    stream = [k for k, c in zip(keys, dup_counts) for _ in range(c)]
    searcher = CountingSearcher(schedule)
    with tempfile.TemporaryDirectory() as root:
        service = ScheduleService(ScheduleStore(root), ScheduleCache(8),
                                  searcher=searcher)

        async def herd():
            return await asyncio.gather(
                *[service.get_schedule(k) for k in stream]
            )

        results = asyncio.run(herd())
    assert searcher.calls == len(keys)
    assert service.searches == len(keys)
    assert service.coalesced == len(stream) - len(keys)
    by_key = {k.digest(): r for k, r in zip(stream, results)}
    for k, r in zip(stream, results):
        assert r is by_key[k.digest()]  # every duplicate got the same object


def assert_corruption_tolerated(mangle):
    """``mangle(bytes) -> bytes`` rewrites the object; get must not raise."""
    case = cached_case("tbs", 6, 2, 8)
    key = ScheduleKey("tbs", 6, 2, 8)
    with tempfile.TemporaryDirectory() as root:
        store = ScheduleStore(root)
        store.put(key, case.schedule)
        path = store.object_path(key)
        with open(path, "rb") as fh:
            raw = fh.read()
        with open(path, "wb") as fh:
            fh.write(mangle(raw))
        got = store.get(key)  # must never raise
        assert got is None or case.check_exact(got)
        store.put(key, case.schedule)  # a re-put always repairs the entry
        assert store.get(key) is not None


KERNELS = ("tbs", "ocs", "syr2k", "chol")

if HAVE_HYPOTHESIS:

    @settings(max_examples=8, deadline=None)
    @given(
        kernel=st.sampled_from(KERNELS),
        n=st.integers(min_value=6, max_value=12),
        m=st.integers(min_value=2, max_value=3),
        s=st.integers(min_value=8, max_value=16),
    )
    def test_store_roundtrip_hypothesis(kernel, n, m, s):
        assert_store_roundtrip(kernel, n, m, s)

    @settings(max_examples=40, deadline=None)
    @given(
        log=st.lists(st.integers(min_value=0, max_value=9), min_size=1,
                     max_size=120),
        capacity=st.integers(min_value=1, max_value=12),
    )
    def test_cache_matches_engines_hypothesis(log, capacity):
        assert_cache_matches_engines([f"k{i}" for i in log], capacity)

    @settings(max_examples=6, deadline=None)
    @given(dup_counts=st.lists(st.integers(min_value=1, max_value=6),
                               min_size=1, max_size=4))
    def test_single_flight_hypothesis(dup_counts):
        assert_single_flight(dup_counts)

    @settings(max_examples=15, deadline=None)
    @given(data=st.data())
    def test_corruption_tolerated_hypothesis(data):
        mode = data.draw(st.sampled_from(["truncate", "flip"]))
        if mode == "truncate":
            frac = data.draw(st.floats(min_value=0.0, max_value=0.999))
            mangle = lambda raw: raw[: int(len(raw) * frac)]
        else:
            seed = data.draw(st.integers(min_value=0, max_value=2**31))
            def mangle(raw, seed=seed):
                rng = np.random.default_rng(seed)
                buf = bytearray(raw)
                for pos in rng.integers(0, len(buf), size=8):
                    buf[pos] ^= 0xFF
                return bytes(buf)
        assert_corruption_tolerated(mangle)


def test_store_roundtrip_seeded_sweep():
    rng = np.random.default_rng(2022)
    for kernel in KERNELS:
        n = int(rng.integers(6, 13))
        assert_store_roundtrip(
            kernel, n, int(rng.integers(2, 4)), int(rng.integers(8, 17))
        )


def test_cache_matches_engines_seeded_sweep():
    rng = np.random.default_rng(7_11)
    for _ in range(30):
        n = int(rng.integers(1, 150))
        universe = int(rng.integers(1, 14))
        log = [f"k{i}" for i in rng.integers(0, universe, size=n)]
        assert_cache_matches_engines(log, int(rng.integers(1, 13)))


def test_single_flight_seeded_sweep():
    rng = np.random.default_rng(3)
    for _ in range(4):
        counts = [int(c) for c in rng.integers(1, 7, size=rng.integers(1, 5))]
        assert_single_flight(counts)


def test_corruption_tolerated_seeded_sweep():
    rng = np.random.default_rng(13)
    for _ in range(6):
        frac = float(rng.uniform(0.0, 0.999))
        assert_corruption_tolerated(lambda raw: raw[: int(len(raw) * frac)])
    for _ in range(6):
        seed = int(rng.integers(0, 2**31))

        def mangle(raw, seed=seed):
            r = np.random.default_rng(seed)
            buf = bytearray(raw)
            for pos in r.integers(0, len(buf), size=8):
                buf[pos] ^= 0xFF
            return bytes(buf)

        assert_corruption_tolerated(mangle)
