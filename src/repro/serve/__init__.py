"""Schedule-serving layer: content-addressed store, hot cache, async front end.

The production framing of the whole pipeline (docs/SERVING.md): schedules
cost a search to produce but are keyed by a tiny request tuple, so serving
is three tiers of memoization —

* :mod:`repro.serve.store` — :class:`ScheduleKey` (the canonical tuple +
  SHA-256 content address) and :class:`ScheduleStore` (atomic ``.npz``
  objects + advisory manifest, corruption-tolerant reads);
* :mod:`repro.serve.cache` — :class:`ScheduleCache`, a bounded in-process
  LRU map whose access log replays through the trace engines
  (:func:`log_to_trace`) — dogfooding the paper's LRU-vs-OPT analysis on
  our serving tier;
* :mod:`repro.serve.frontend` — :class:`ScheduleService`, the asyncio
  front end that coalesces duplicate in-flight keys (single-flight),
  serves memory hits at memory speed, falls through to disk, and queues
  true misses to a :mod:`repro.perf` search-worker pool; plus
  :func:`warm_store`, the offline batch warmer behind
  ``python -m repro serve warm``.

Benchmark E19 (``benchmarks/bench_e19_serve.py``) measures the tiers:
warm-hit vs cold-search latency, hit rate vs cache size under a zipf
request stream, and the LRU-vs-Belady eviction gap on one log.
"""

from .cache import ScheduleCache, log_to_trace
from .frontend import SEARCHERS, ScheduleService, run_searcher, warm_store
from .store import ScheduleKey, ScheduleStore

__all__ = [
    "SEARCHERS",
    "ScheduleCache",
    "ScheduleKey",
    "ScheduleService",
    "ScheduleStore",
    "log_to_trace",
    "run_searcher",
    "warm_store",
]
