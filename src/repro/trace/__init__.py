"""Compiled trace IR: the array representation every replay consumes.

This package is the performance substrate of the analysis layers:

* :mod:`repro.trace.compiled` — :class:`CompiledTrace`, the element access
  stream of a schedule/op list as dense numpy arrays (interned element
  IDs, write flags, op boundaries) plus vectorized next-use/previous-
  access links;
* :mod:`repro.trace.replay` — array-based LRU and Belady/MIN cache
  replays over the IR, one engine per call shape: cached reuse distances
  for every LRU replay, the chunked engine (vectorized hit runs,
  per-access work only at misses) for one Belady capacity, and one
  grouped OPT-stack pass for a Belady capacity sweep;
* :mod:`repro.trace.io` — compact ``.npz`` + JSON-header on-disk formats
  for compiled traces and for full schedules (reconstructible compute
  ops), behind ``python -m repro trace``.

The legacy tuple-per-touch walkers survive as ``*_reference``
implementations next to their vectorized replacements
(:func:`repro.analysis.lru_replay.lru_replay_reference`,
:func:`repro.graph.policies.belady_replay_reference`,
:func:`repro.sched.schedule.access_sequence_reference`) and are
cross-checked bit for bit in the test suite.
"""

from .compiled import CompiledTrace, compile_trace
from .io import (
    FORMAT_VERSION,
    file_kind,
    load_schedule,
    load_trace,
    save_schedule,
    save_trace,
)
from .replay import (
    BeladyReplayResult,
    LruCursor,
    LruReplayResult,
    belady_replay_trace,
    lru_replay_trace,
    lru_suffix_cost,
    sweep_replay_trace,
)

__all__ = [
    "CompiledTrace",
    "compile_trace",
    "FORMAT_VERSION",
    "file_kind",
    "load_schedule",
    "load_trace",
    "save_schedule",
    "save_trace",
    "BeladyReplayResult",
    "LruCursor",
    "LruReplayResult",
    "belady_replay_trace",
    "lru_replay_trace",
    "lru_suffix_cost",
    "sweep_replay_trace",
]
