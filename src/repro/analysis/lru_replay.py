"""LRU replay: what would a schedule's op *order* cost without explicit control?

The paper's model gives the program explicit control of fast memory, and
all its algorithms exploit that.  Real cache hierarchies are LRU-managed.
This tool takes a recorded schedule, strips the explicit loads/evicts, and
replays only the *compute ops* (their read/write regions, in order) through
an element-granular LRU cache of capacity ``S`` — answering: how much of
TBS/LBC's advantage survives under hardware-style replacement, and how much
slack does LRU need (the classic resource-augmentation question)?

The default :func:`lru_replay` compiles the schedule to the array IR
(:mod:`repro.trace`) and counts misses from cached reuse distances — one
to two orders of magnitude faster than walking Python tuples, which is
what opens up N in the thousands (benchmark E13).  The original tuple/OrderedDict
walker survives as :func:`lru_replay_reference`; the test suite asserts
both return bit-identical counts.

Findings this enables (asserted in tests):

* on blocked schedules the access order is cache-friendly: LRU at the same
  capacity lands within a small constant of the explicit volume, and with
  modest augmentation (~2x) it matches or beats it (LRU keeps tiles around
  "for free" where the explicit schedule conservatively evicts);
* the *relative* TBS-vs-OCS advantage survives LRU replacement — the paper's
  insight is about the order of computations, not about explicit control.
"""

from __future__ import annotations

from collections import OrderedDict

from ..errors import ConfigurationError
from ..sched.schedule import Schedule, access_sequence_reference
from ..trace.compiled import CompiledTrace, compile_trace
from ..trace.replay import LruReplayResult, lru_replay_trace

__all__ = [
    "LruReplayResult",
    "lru_replay",
    "lru_replay_reference",
    "lru_competitiveness",
]


def lru_replay(schedule: Schedule | CompiledTrace, capacity: int) -> LruReplayResult:
    """Replay the compute ops of ``schedule`` under an LRU cache.

    Accepts a recorded :class:`~repro.sched.schedule.Schedule` or an
    already-compiled :class:`~repro.trace.compiled.CompiledTrace` (compile
    once when replaying the same order at many capacities).  Walks the
    canonical element access sequence shared with the Belady/MIN replay so
    the two are directly comparable; writes mark elements dirty.  Evicted
    dirty elements count as stores, as do dirty elements flushed at the
    end.
    """
    if capacity < 1:
        raise ConfigurationError(f"capacity must be >= 1, got {capacity}")
    return lru_replay_trace(compile_trace(schedule), capacity)


def lru_replay_reference(
    schedule: Schedule | CompiledTrace, capacity: int
) -> LruReplayResult:
    """The original tuple-per-touch LRU walker (cross-check path).

    Kept verbatim as the independent oracle for :func:`lru_replay`: it
    shares no code with the array engine, so agreement between the two is
    a meaningful check.
    """
    if capacity < 1:
        raise ConfigurationError(f"capacity must be >= 1, got {capacity}")
    if isinstance(schedule, CompiledTrace):
        seq = schedule.to_access_sequence()
    else:
        seq = access_sequence_reference(schedule)
    cache: OrderedDict[tuple[str, int], bool] = OrderedDict()
    loads = evict_stores = 0
    seen: set[tuple[str, int]] = set()

    for key, write in seq:
        seen.add(key)
        if key in cache:
            dirty = cache.pop(key)
            cache[key] = dirty or write
        else:
            while len(cache) >= capacity:
                _victim, dirty = cache.popitem(last=False)
                if dirty:
                    evict_stores += 1
            cache[key] = write
            loads += 1

    flush = sum(1 for dirty in cache.values() if dirty)
    return LruReplayResult(
        capacity=capacity,
        loads=loads,
        stores=evict_stores + flush,
        n_accesses=len(seq),
        distinct=len(seen),
        evict_stores=evict_stores,
    )


def lru_competitiveness(schedule: Schedule, explicit_loads: int, capacity: int) -> float:
    """``Q_LRU(capacity) / Q_explicit``: how close hardware replacement gets.

    Values near 1 mean the schedule's order is intrinsically cache-friendly;
    large values mean it genuinely relies on explicit control.
    """
    if explicit_loads <= 0:
        raise ConfigurationError("explicit_loads must be positive")
    return lru_replay(schedule, capacity).loads / explicit_loads
