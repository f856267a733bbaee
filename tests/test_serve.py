"""Tests for the schedule-serving layer (:mod:`repro.serve`).

Covers the three tiers and their contracts: content-addressed store
round-trips (bit-identical replays), corruption/stale-manifest recovery
(bad objects read as misses, never exceptions), the bounded cache's LRU
semantics pinned against the array replay engines on the same access
log, the Belady floor on that log, and the async front end's
single-flight guarantee (N concurrent duplicates → exactly one search).
"""

import asyncio
import json
import os
import threading
import time

import numpy as np
import pytest

from repro.__main__ import main
from repro.errors import ConfigurationError
from repro.graph.compare import record_case
from repro.graph.policies import belady_replay_reference
from repro.obs.probe import probe_scope
from repro.sched.schedule import Schedule, replay_schedule
from repro.serve import (
    ScheduleCache,
    ScheduleKey,
    ScheduleService,
    ScheduleStore,
    log_to_trace,
    warm_store,
)
from repro.trace.replay import belady_replay_trace, lru_replay_trace

CASE_ARGS = ("tbs", 20, 3, 10)


@pytest.fixture(scope="module")
def case():
    return record_case(*CASE_ARGS)


@pytest.fixture
def key():
    return ScheduleKey("tbs", 20, 3, 10)


@pytest.fixture
def store(tmp_path):
    return ScheduleStore(tmp_path / "store")


class TestScheduleKey:
    def test_digest_is_spelling_independent(self):
        a = ScheduleKey("tbs", 40, 6, 15, p=1, alpha=1, beta=1)
        b = ScheduleKey("tbs", np.int64(40), 6.0, 15, p=True, alpha=1.0, beta=1.0)
        assert a == b and a.digest() == b.digest()

    def test_dict_roundtrip(self, key):
        assert ScheduleKey.from_dict(key.as_dict()) == key
        assert json.loads(key.canonical()) == key.as_dict()

    def test_every_field_addresses(self, key):
        for other in (
            ScheduleKey("ocs", 20, 3, 10),
            ScheduleKey("tbs", 21, 3, 10),
            ScheduleKey("tbs", 20, 4, 10),
            ScheduleKey("tbs", 20, 3, 11),
            ScheduleKey("tbs", 20, 3, 10, p=4),
            ScheduleKey("tbs", 20, 3, 10, policy="search"),
            ScheduleKey("tbs", 20, 3, 10, alpha=2.0),
            ScheduleKey("tbs", 20, 3, 10, beta=0.5),
        ):
            assert other.digest() != key.digest()

    def test_invalid_dimensions(self):
        with pytest.raises(ConfigurationError):
            ScheduleKey("tbs", 0, 3, 10)
        with pytest.raises(ConfigurationError):
            ScheduleKey("tbs", 20, 3, 10, p=0)

    def test_sortable(self, key):
        assert sorted([ScheduleKey("tbs", 30, 3, 10), key])[0] == key


class TestScheduleStore:
    def test_put_get_bit_identical(self, store, case, key):
        digest = store.put(key, case.schedule)
        assert digest == key.digest()
        assert key in store and len(store) == 1
        loaded = store.get(key)
        assert case.check_exact(loaded)  # replays to bit-identical results

    def test_missing_is_none(self, store, key):
        assert store.get(key) is None
        assert key not in store

    def test_second_instance_same_root(self, store, case, key):
        store.put(key, case.schedule)
        again = ScheduleStore(store.root)
        assert again.get(key) is not None

    def test_corrupt_object_reads_as_miss(self, store, case, key):
        store.put(key, case.schedule)
        with open(store.object_path(key), "wb") as fh:
            fh.write(b"this is not a zip archive")
        with probe_scope() as probe:
            assert store.get(key) is None
        assert probe.counters["serve.store.corrupt"] == 1
        # a fresh put repairs the entry
        store.put(key, case.schedule)
        assert store.get(key) is not None

    def test_truncated_object_reads_as_miss(self, store, case, key):
        store.put(key, case.schedule)
        path = store.object_path(key)
        size = os.path.getsize(path)
        with open(path, "rb+") as fh:
            fh.truncate(size // 2)
        assert store.get(key) is None

    def test_deleted_manifest_recovers(self, store, case, key):
        store.put(key, case.schedule)
        os.unlink(os.path.join(store.root, "manifest.json"))
        assert store.get(key) is not None     # get never needs the manifest
        stats = store.stats()                  # stats rescans the objects
        assert stats["entries"] == 1 and stats["bytes"] > 0

    def test_garbage_manifest_recovers(self, store, case, key):
        store.put(key, case.schedule)
        with open(os.path.join(store.root, "manifest.json"), "w") as fh:
            fh.write("{ not json")
        assert store.get(key) is not None
        assert store.stats()["entries"] == 1

    def test_stale_manifest_entry_dropped(self, store, case, key):
        store.put(key, case.schedule)
        os.unlink(store.object_path(key))
        assert store.get(key) is None
        assert store.stats()["entries"] == 0   # rescan drops the ghost

    def test_keys_listing(self, store, case, key):
        store.put(key, case.schedule)
        other = ScheduleKey("tbs", 20, 3, 10, policy="search")
        store.put(other, case.schedule)
        assert store.keys() == sorted([key, other])
        assert sorted(store.digests()) == sorted([key.digest(), other.digest()])

    def test_orphan_object_adopted_keyless(self, store, case, key):
        store.put(key, case.schedule)
        os.unlink(os.path.join(store.root, "manifest.json"))
        assert store.keys() == []              # orphan: digest serves, key lost
        assert store.stats()["entries"] == 1

    def test_interrupted_put_keeps_old_entry(self, store, case, key, monkeypatch):
        import repro.trace.io as tio

        store.put(key, case.schedule)
        before = open(store.object_path(key), "rb").read()

        real = tio.np.savez_compressed

        def torn(path, **arrays):
            with open(path, "wb") as fh:
                fh.write(b"PK\x03\x04 torn mid-write")
            raise KeyboardInterrupt

        monkeypatch.setattr(tio.np, "savez_compressed", torn)
        with pytest.raises(KeyboardInterrupt):
            store.put(key, case.schedule)
        monkeypatch.setattr(tio.np, "savez_compressed", real)
        assert open(store.object_path(key), "rb").read() == before
        assert store.get(key) is not None

    def test_stats_shape(self, store, case, key):
        store.put(key, case.schedule)
        stats = store.stats()
        assert stats["per_kernel"] == {"tbs": 1}
        assert stats["per_policy"] == {"heuristic": 1}


class TestScheduleCache:
    def test_bound_is_hard(self):
        cache = ScheduleCache(3)
        for i in range(50):
            d = f"k{i % 7}"
            if cache.get(d) is None:
                cache.put(d, i)
            assert len(cache) <= 3
        assert cache.evictions > 0

    def test_lru_eviction_order(self):
        cache = ScheduleCache(3)
        for d in ("a", "b", "c"):
            cache.get(d)
            cache.put(d, d)
        assert cache.get("a") == "a"       # refresh a: b is now the LRU entry
        cache.put("d", "d")
        assert "b" not in cache
        assert all(d in cache for d in ("a", "c", "d"))

    def test_put_refresh_never_evicts(self):
        cache = ScheduleCache(2)
        cache.put("a", 1)
        cache.put("b", 2)
        cache.put("a", 3)                  # refresh, not insert
        assert cache.evictions == 0 and cache.get("a") == 3

    def test_lru_matches_replay_engine(self):
        rng = np.random.default_rng(7)
        log = [f"k{i}" for i in rng.integers(0, 12, size=400)]
        trace = log_to_trace(log)
        for capacity in (1, 2, 3, 5, 8, 12, 20):
            cache = ScheduleCache.replay(log, capacity)
            ref = lru_replay_trace(trace, capacity)
            assert cache.misses == ref.loads, capacity
            assert cache.hits == ref.n_accesses - ref.loads

    def test_belady_floors_lru_on_log(self):
        rng = np.random.default_rng(11)
        log = [f"k{i}" for i in rng.integers(0, 10, size=300)]
        trace = log_to_trace(log)
        for capacity in (1, 2, 4, 6, 10):
            opt = belady_replay_trace(trace, capacity)
            assert opt.loads == belady_replay_reference(trace, capacity).loads
            lru = ScheduleCache.replay(log, capacity)
            assert opt.loads <= lru.misses, capacity  # OPT floors the cache

    def test_invalid_config(self):
        with pytest.raises(ConfigurationError):
            ScheduleCache(0)

    def test_log_records_gets(self):
        cache = ScheduleCache(2)
        cache.get("a"); cache.put("a", 1); cache.get("a")
        assert cache.log == ["a", "a"]
        assert cache.hit_rate == 0.5

    def test_evictions_counted_on_probe(self):
        with probe_scope() as probe:
            ScheduleCache.replay(["a", "b", "c", "a"], 1)
        assert probe.counters["serve.evictions"] == 3


def run(coro):
    return asyncio.run(coro)


class SlowSearcher:
    """A deliberately slow, call-counting fake searcher (thread-safe)."""

    def __init__(self, schedule, delay=0.05, fail_first=False):
        self.schedule = schedule
        self.delay = delay
        self.fail_first = fail_first
        self.calls = 0
        self._lock = threading.Lock()

    def __call__(self, key):
        with self._lock:
            self.calls += 1
            first = self.calls == 1
        time.sleep(self.delay)
        if self.fail_first and first:
            raise RuntimeError("transient search failure")
        return self.schedule


class TestScheduleService:
    def test_single_flight(self, store, case, key):
        searcher = SlowSearcher(case.schedule)
        service = ScheduleService(store, ScheduleCache(4), searcher=searcher)

        async def fan_out():
            return await asyncio.gather(
                *[service.get_schedule(key) for _ in range(16)]
            )

        with probe_scope() as probe:
            results = run(fan_out())
        assert searcher.calls == 1
        assert all(r is results[0] for r in results)
        assert service.searches == 1 and service.misses == 1
        assert service.coalesced == 15
        assert probe.counters["serve.coalesced"] == 15
        assert probe.counters["serve.searches"] == 1

    def test_memory_then_store_tiers(self, store, case, key):
        searcher = SlowSearcher(case.schedule, delay=0.0)
        service = ScheduleService(store, ScheduleCache(4), searcher=searcher)
        run(service.get_schedule(key))
        run(service.get_schedule(key))
        assert (service.searches, service.hits, service.store_hits) == (1, 1, 0)
        # a fresh service over the same root serves from disk, no search
        cold = ScheduleService(store, ScheduleCache(4), searcher=searcher)
        run(cold.get_schedule(key))
        assert (cold.searches, cold.store_hits) == (0, 1)
        assert searcher.calls == 1

    def test_no_cache_tier(self, store, case, key):
        searcher = SlowSearcher(case.schedule, delay=0.0)
        service = ScheduleService(store, None, searcher=searcher)
        run(service.get_schedule(key))
        run(service.get_schedule(key))
        assert service.hits == 0 and service.store_hits == 1
        assert service.stats_snapshot()["searches"] == 1

    def test_corrupt_store_falls_through_to_search(self, store, case, key):
        store.put(key, case.schedule)
        with open(store.object_path(key), "wb") as fh:
            fh.write(b"garbage")
        searcher = SlowSearcher(case.schedule, delay=0.0)
        service = ScheduleService(store, ScheduleCache(4), searcher=searcher)
        run(service.get_schedule(key))
        assert searcher.calls == 1         # corrupt entry read as a miss
        assert store.get(key) is not None  # ... and the search repaired it

    def test_search_failure_propagates_then_retries(self, store, case, key):
        searcher = SlowSearcher(case.schedule, delay=0.01, fail_first=True)

        async def herd():
            return await asyncio.gather(
                *[service.get_schedule(key) for _ in range(4)],
                return_exceptions=True,
            )

        service = ScheduleService(store, ScheduleCache(4), searcher=searcher)
        results = run(herd())
        assert all(isinstance(r, RuntimeError) for r in results)
        assert searcher.calls == 1         # the herd shared one failure
        # the failed flight is gone; the next request searches again
        assert run(service.get_schedule(key)) is case.schedule
        assert searcher.calls == 2

    def test_concurrency_stress(self, store, case):
        keys = [ScheduleKey("tbs", 20, 3, 10 + i) for i in range(6)]
        rng = np.random.default_rng(3)
        stream = [keys[i] for i in rng.integers(0, len(keys), size=60)]
        searcher = SlowSearcher(case.schedule, delay=0.02)
        service = ScheduleService(store, ScheduleCache(3), searcher=searcher)

        async def herd():
            return await asyncio.gather(*[service.get_schedule(k) for k in stream])

        results = run(herd())
        distinct = len({k.digest() for k in stream})
        assert searcher.calls == distinct  # one search per distinct key, ever
        assert service.searches == distinct
        assert len(results) == len(stream)
        assert len(service.cache) <= 3
        snap = service.stats_snapshot()
        assert snap["requests"] == len(stream)
        assert (snap["hits"] + snap["store_hits"] + snap["misses"]
                + snap["coalesced"]) == len(stream)

    def test_real_searcher_by_policy(self, store, key):
        service = ScheduleService(store, ScheduleCache(2))
        schedule = run(service.get_schedule(key))
        assert isinstance(schedule, Schedule)
        assert service.searches == 1
        case = record_case(*CASE_ARGS)
        assert case.check_exact(schedule)

    def test_unknown_policy_raises(self, store):
        bad = ScheduleKey("tbs", 20, 3, 10, policy="magic")
        service = ScheduleService(store, ScheduleCache(2))
        with pytest.raises(ConfigurationError, match="policy"):
            run(service.get_schedule(bad))

    def test_async_context_manager(self, store, case, key):
        async def scenario():
            async with ScheduleService(
                store, searcher=SlowSearcher(case.schedule, delay=0.0)
            ) as service:
                await service.get_schedule(key)
                return service

        assert run(scenario()).searches == 1


class TestWarmStore:
    def test_warm_fills_misses_only(self, store, key):
        other = ScheduleKey("tbs", 22, 3, 10)
        assert warm_store(store, [key, other]) == [key, other]
        assert warm_store(store, [key, other]) == []
        assert warm_store(store, [key], force=True) == [key]
        assert len(store) == 2

    def test_warm_parallel_matches_serial(self, tmp_path):
        keys = [ScheduleKey("tbs", 20, 3, 10), ScheduleKey("tbs", 22, 3, 10)]
        serial = ScheduleStore(tmp_path / "serial")
        fanned = ScheduleStore(tmp_path / "fanned")
        warm_store(serial, keys, jobs=1)
        warm_store(fanned, keys, jobs=2)
        for key in keys:
            a, b = serial.get(key), fanned.get(key)
            assert len(a.steps) == len(b.steps)
            assert a.io_volume() == b.io_volume()


class TestServeCli:
    def test_warm_query_stats_roundtrip(self, tmp_path, capsys):
        root = str(tmp_path / "store")
        base = ["--store", root, "--kernel", "tbs", "--ns", "20", "22",
                "--m", "3", "--s", "10"]
        assert main(["serve", "warm"] + base) == 0
        out = capsys.readouterr().out
        assert "2 searched" in out
        assert main(["serve", "warm"] + base) == 0
        assert "0 searched" in capsys.readouterr().out
        assert main(
            ["serve", "query"] + base
            + ["--requests", "40", "--cache-size", "2", "--batch", "8"]
        ) == 0
        out = capsys.readouterr().out
        assert "mem hits" in out and "coalesced" in out
        stats_json = str(tmp_path / "serve_stats.json")
        assert main(["serve", "stats", "--store", root, "--json", stats_json]) == 0
        out = capsys.readouterr().out
        assert "entries" in out
        doc = json.loads(open(stats_json).read())
        assert doc["experiment"] == "serve_stats"
        assert "provenance" in doc and doc["rows"][0]["entries"] == 2

    def test_query_cold_searches(self, tmp_path, capsys):
        root = str(tmp_path / "store")
        assert main(
            ["serve", "query", "--store", root, "--kernel", "tbs",
             "--ns", "20", "--m", "3", "--s", "10",
             "--requests", "8", "--cache-size", "2"]
        ) == 0
        out = capsys.readouterr().out
        assert "searches" in out and "mean cold search" in out


def test_loaded_schedule_replays(tmp_path, case):
    """End to end: serve → load → replay on a fresh machine, bit-identical."""
    store = ScheduleStore(tmp_path / "s")
    key = ScheduleKey(*CASE_ARGS)
    warm_store(store, [key])
    m = case.make_machine()
    replay_schedule(store.get(key), m)
    m.assert_empty()
    assert np.array_equal(m.result("C"), case.reference["C"])
