"""The benchmark's three workloads: ``reproduce``, ``cold`` and ``serve``.

Each workload is a class with the same four steps, driven by ``run.py``:

``setup()``
    everything before the timed part (seeded inputs, warm-up, a filled
    store); timed and repeated by the driver, which reports the median;
``run_pass(state, tracer, clock)``
    one timed pass; returns a :class:`Pass` with its wall time, its
    samples, and one :class:`Check` per output it verified against the
    pinned counts in ``expected.json``; request latencies leave out the
    time ``clock`` (the driver's :class:`~harness.HostClock`) spent
    sampling host speed inside them;
``traced_pass(state, tracer, untraced)``
    the same work with a span around every call into a layer; ``cold``
    rebuilds its schedules through the searcher's public steps and checks
    they equal what the untraced service served;
``layers(...)``
    per-layer metrics from a traced pass.

What each workload is for:

* ``reproduce`` — the paper's measurement: TBS/OOC_SYRK at N=240, M=6,
  S=15 and LBC/OOC_CHOL at N=120, S=28 on the counting machine, each
  recorded, compiled, replayed under LRU and Belady at S x
  :data:`CAPACITY_FACTORS`, certified, and its explicit loads compared
  with the exact lower bound.  No graph or serve code runs.
* ``cold`` — :class:`~repro.serve.ScheduleService` over an empty store,
  one closed-loop client, two heuristic and two search keys: the only
  workload where ``graph.*``, ``sched.validate`` and ``serve.store.put``
  do the work.
* ``serve`` — a store filled with 12 heuristic keys (set-up), then a
  seeded zipf stream through the service with ``ScheduleCache(4)`` and one
  closed-loop client: store reads and cache hits; no recording or search
  in the timed part.  One client, not two: store reads are bound by the
  interpreter lock, so a second client adds no throughput, and its
  contention made the pass time drift by over 10% between runs.

``cold`` and ``serve`` install :class:`~harness.InlineExecutor` as the
event loop's default executor, so the service's store and search jobs run
on the main thread, where the host clock samples; with one closed-loop
client that leaves out only the hand-off to a worker thread.

Which per-layer metric should move which end-to-end metric, and where:

* ``machine.record.*`` — ``norm_wall_s`` on ``reproduce`` and ``cold`` (there
  also ``serve.frontend.heuristic_s`` and ``search_s``);
* ``trace.compiled.*``, ``trace.replay.*``, ``check.certify.*`` —
  ``reproduce`` ``norm_wall_s`` (``trace.replay`` runs nowhere else);
* ``graph.dependency.*`` — ``cold`` heuristic and search time;
  ``graph.scheduler.*`` — heuristic only; ``graph.search.*`` — search only;
  ``graph.rewriter.busy_s``, ``sched.validate.busy_s``,
  ``serve.store.put.*`` — ``cold`` ``norm_wall_s``;
* ``serve.store.get.*`` — ``serve`` ``norm_wall_s``, request p99 and
  requests/s (most of a read rebuilds op objects, so the recording layer's
  representation moves it too);
* ``serve.cache.*`` and ``serve.frontend.wait_s`` (request time no child
  span covers) — ``serve`` request p50 and requests/s.
"""

from __future__ import annotations

import asyncio
import hashlib
import os
import random
import shutil
import statistics
import tempfile
from dataclasses import dataclass, field

import numpy as np

from repro.baselines.ooc_chol import ooc_chol
from repro.baselines.ooc_syrk import ooc_syrk
from repro.check.certify import certify_schedule
from repro.core.bounds import cholesky_lower_bound, syrk_lower_bound
from repro.core.lbc import lbc_cholesky
from repro.core.syr2k import syr2k_lower_bound
from repro.core.tbs import tbs_syrk
from repro.graph.compare import record_case
from repro.graph.dependency import DependencyGraph
from repro.graph.rewriter import rewrite_trace
from repro.graph.scheduler import list_schedule
from repro.graph.search import search_order
from repro.machine.machine import TwoLevelMachine
from repro.sched.schedule import EvictStep, LoadStep, Schedule, record_schedule
from repro.sched.validate import validate_schedule
from repro.serve import ScheduleCache, ScheduleKey, ScheduleService, ScheduleStore, warm_store
from repro.serve.frontend import SEARCH_ITERS
from repro.trace.compiled import compile_trace
from repro.trace.replay import sweep_replay_trace
from repro.utils.rng import random_spd_matrix, random_tall_matrix

from harness import (
    NULL_CLOCK,
    InlineExecutor,
    client_count,
    layer_busy,
    now,
    percentile,
)

#: reproduce cases: (name, N, M, S); M is unused by the Cholesky kernels.
REPRODUCE_CASES = (
    ("tbs", 240, 6, 15),
    ("ocs", 240, 6, 15),
    ("lbc", 120, 0, 28),
    ("ooc_chol", 120, 0, 28),
)
#: Replay sweep capacities, as multiples of the case's S (floored).
CAPACITY_FACTORS = (1, 1.5, 2, 3, 4, 6, 8, 12, 16)

COLD_KEYS = (
    ScheduleKey("tbs", 120, 6, 15, policy="heuristic"),
    ScheduleKey("chol", 60, 1, 15, policy="heuristic"),
    ScheduleKey("tbs", 90, 6, 15, policy="search"),
    ScheduleKey("chol", 48, 1, 15, policy="search"),
)
#: Served once per cold set-up, on a throwaway store, to finish lazy set-up.
COLD_WARMUP_KEYS = (
    ScheduleKey("tbs", 24, 3, 15, policy="heuristic"),
    ScheduleKey("chol", 24, 1, 15, policy="search"),
)

SERVE_KEYS = tuple(
    ScheduleKey(kernel, n, 1 if kernel == "chol" else 6, 15, policy="heuristic")
    for kernel in ("tbs", "ocs", "syr2k", "chol")
    for n in (24, 36, 48)
)
#: The popularity order of SERVE_KEYS and the order of the request cycle
#: are fixed (not seeded): the seed picks where the stream starts in the
#: cycle, so every seed asks for the same mix of cheap and dear reads.
SERVE_RANK_SEED = 0
ZIPF_A = 1.1
SERVE_CACHE = 4
#: Closed-loop clients of the serve stream (capped by nproc).
SERVE_CLIENTS = 1
#: Requests in one serve pass.  The p99 needs 1000 samples (ten beyond
#: it), so a traced run pools untraced passes until it has them.
SERVE_REQUESTS = 500


@dataclass
class Check:
    label: str
    ok: bool
    detail: str = ""


@dataclass
class Pass:
    #: clock readings at the start and end of the timed part
    start: float = 0.0
    end: float = 0.0
    #: time the client spent checking outputs inside the timed part
    check_s: float = 0.0
    #: time host-speed reference calls took inside the timed part
    ref_s: float = 0.0
    #: host_scale of the pass's timing window (1.0 when not sampled)
    scale: float = 1.0
    checks: list[Check] = field(default_factory=list)
    #: loads / exact lower bound, per case or key (deterministic)
    ratios: list[float] = field(default_factory=list)
    #: per-request latency samples (serve)
    latencies: list[float] = field(default_factory=list)
    #: summed request latency per serving policy (cold)
    by_policy: dict[str, float] = field(default_factory=dict)
    served: dict = field(default_factory=dict)
    extra: dict = field(default_factory=dict)

    @property
    def wall_s(self) -> float:
        """The pass time, without the client's output checks or reference calls."""
        return self.end - self.start - self.check_s - self.ref_s

    @property
    def norm_wall_s(self) -> float:
        """:attr:`wall_s` on the host-normalised clock."""
        return self.wall_s * self.scale


def schedule_fingerprint(schedule: Schedule) -> str:
    """SHA-256 over every step: kind, regions, writeback flag, op name."""
    h = hashlib.sha256()

    def region(r) -> None:
        h.update(r.matrix.encode() + b":" + str(r.flat.size).encode() + b":")
        h.update(np.ascontiguousarray(r.flat, dtype=np.int64).tobytes())

    for step in schedule.steps:
        if isinstance(step, LoadStep):
            h.update(b"L")
            region(step.region)
        elif isinstance(step, EvictStep):
            h.update(b"W" if step.writeback else b"E")
            region(step.region)
        else:
            h.update(b"C" + step.op.name.encode())
            for r in step.op.reads():
                region(r)
            h.update(b"/")
            for r in step.op.writes():
                region(r)
    return h.hexdigest()


def lower_bound(kernel: str, n: int, m: int, s: int) -> float:
    """The exact ``core.bounds`` lower bound; other kernels are Cholesky."""
    if kernel in ("tbs", "ocs"):
        return syrk_lower_bound(n, m, s, form="exact")
    if kernel == "syr2k":
        return syr2k_lower_bound(n, m, s, form="exact")
    return cholesky_lower_bound(n, s, form="exact")


def key_bound(key: ScheduleKey) -> float:
    return lower_bound(key.kernel, key.n, key.m, key.s)


def key_label(key: ScheduleKey) -> str:
    return f"{key.kernel}-n{key.n}-m{key.m}-s{key.s}-{key.policy}"


def _served_check(label: str, schedule: Schedule, expected: dict | None, capacity: int) -> Check:
    """Pinned loads and stores, then a clean ``certify_schedule``."""
    if expected is None:
        return Check(label, False, "no pinned counts")
    loads, stores = schedule.io_volume()
    want = (expected["loads"], expected["stores"])
    if (loads, stores) != want:
        return Check(label, False, f"loads/stores {(loads, stores)} != pinned {want}")
    cert = certify_schedule(schedule, capacity)
    if not cert.ok:
        return Check(label, False, f"certify_schedule found {len(cert.findings)} findings")
    return Check(label, True)


class Workload:
    """Defaults for the optional steps; see the module docstring."""

    name = ""
    #: latency samples the untraced passes of a traced run must gather
    min_traced_samples = 0
    #: set-ups per untraced run (the median is reported as setup_s)
    setup_repeats = 3

    def teardown(self, state) -> None:
        pass

    def check_setup(self, state) -> list[Check]:
        return []

    def traced_pass(self, state, tracer, untraced: list[Pass]) -> Pass:
        return self.run_pass(state, tracer, NULL_CLOCK)


class _Workdir:
    """Scratch directories for stores, inside the checkout, removed after."""

    def __init__(self, root: str):
        os.makedirs(root, exist_ok=True)
        self.root = tempfile.mkdtemp(prefix="perfbench-", dir=root)

    def fresh(self) -> str:
        return tempfile.mkdtemp(dir=self.root)

    def close(self) -> None:
        shutil.rmtree(self.root, ignore_errors=True)


# ---------------------------------------------------------------------- #
# reproduce
# ---------------------------------------------------------------------- #
def case_inputs(seed: int, index: int, name: str, n: int, m: int) -> dict[str, np.ndarray]:
    rng = np.random.default_rng([seed, index])
    if name in ("tbs", "ocs"):
        return {"A": random_tall_matrix(n, m, seed=rng), "C": np.zeros((n, n))}
    return {"A": random_spd_matrix(n, seed=rng)}


def _run_kernel(name: str, machine: TwoLevelMachine, n: int, m: int) -> None:
    if name == "tbs":
        tbs_syrk(machine, "A", "C", range(n), range(m))
    elif name == "ocs":
        ooc_syrk(machine, "A", "C", range(n), range(m))
    elif name == "lbc":
        lbc_cholesky(machine, "A", range(n))
    else:
        ooc_chol(machine, "A", range(n))


def record_kernel(name: str, n: int, m: int, s: int, inputs: dict):
    """Record one kernel run on the counting machine."""
    machine = TwoLevelMachine(s, strict=False, numerics=False)
    for matrix, array in inputs.items():
        machine.add_matrix(matrix, array)
    schedule = record_schedule(machine, lambda: _run_kernel(name, machine, n, m))
    machine.assert_empty()
    return schedule, machine.stats.loads, machine.stats.stores


def sweep_capacities(s: int) -> list[int]:
    return [int(s * f) for f in CAPACITY_FACTORS]


class Reproduce(Workload):
    name = "reproduce"

    def __init__(self, seed: int, expected: dict, workroot: str):
        self.seed = seed
        self.expected = expected["reproduce"]

    def setup(self):
        inputs = [
            case_inputs(self.seed, i, name, n, m)
            for i, (name, n, m, _s) in enumerate(REPRODUCE_CASES)
        ]
        bounds = [lower_bound(*case) for case in REPRODUCE_CASES]
        # Warm-up: one small case of each kernel family through the whole
        # pipeline, so first-call costs stay out of the timed pass.
        for name, n, m, s in (("tbs", 24, 3, 15), ("lbc", 24, 0, 28)):
            schedule, _l, _s = record_kernel(name, n, m, s, case_inputs(self.seed, 99, name, n, m))
            trace = compile_trace(schedule)
            for policy in ("lru", "belady"):
                sweep_replay_trace(trace, sweep_capacities(s), policy=policy)
            certify_schedule(schedule, s)
        return {"inputs": inputs, "bounds": bounds}

    def run_pass(self, state, tracer, clock) -> Pass:
        out = Pass(start=now())
        observed = {}
        for i, (name, n, m, s) in enumerate(REPRODUCE_CASES):
            with tracer.span("reproduce.case", request=i):
                with tracer.span("machine.record"):
                    schedule, loads, stores = record_kernel(name, n, m, s, state["inputs"][i])
                with tracer.span("trace.compiled"):
                    trace = compile_trace(schedule)
                caps = sweep_capacities(s)
                with tracer.span("trace.replay.lru"):
                    lru = sweep_replay_trace(trace, caps, policy="lru")
                with tracer.span("trace.replay.belady"):
                    belady = sweep_replay_trace(trace, caps, policy="belady")
                with tracer.span("check.certify"):
                    cert = certify_schedule(schedule, s)
            observed[name] = {
                "loads": loads,
                "stores": stores,
                "lru_loads": [r.loads for r in lru],
                "belady_loads": [r.loads for r in belady],
                "ops": len(schedule),
                "accesses": trace.n_accesses,
                "findings": len(cert.findings),
                "certified": cert.ok,
            }
            out.ratios.append(loads / state["bounds"][i])
        out.end = now()
        for name, obs in observed.items():
            pinned = {k: obs[k] for k in ("loads", "stores", "lru_loads", "belady_loads")}
            if not obs["certified"]:
                out.checks.append(Check(name, False, f"certify found {obs['findings']} findings"))
            elif pinned != self.expected.get(name):
                out.checks.append(Check(name, False, f"counts {pinned} != pinned {self.expected.get(name)}"))
            else:
                out.checks.append(Check(name, True))
        out.extra = observed
        return out

    def layers(self, traced: Pass, spans, untraced: list[Pass]) -> dict[str, float]:
        busy = layer_busy(spans)
        obs = traced.extra.values()
        n_caps = len(CAPACITY_FACTORS)
        return {
            "machine.record.busy_s": busy["machine.record"],
            "machine.record.ops": sum(o["ops"] for o in obs),
            "trace.compiled.busy_s": busy["trace.compiled"],
            "trace.compiled.accesses": sum(o["accesses"] for o in obs),
            "trace.replay.lru.busy_s": busy["trace.replay.lru"],
            "trace.replay.belady.busy_s": busy["trace.replay.belady"],
            "trace.replay.accesses": sum(2 * n_caps * o["accesses"] for o in obs),
            "check.certify.busy_s": busy["check.certify"],
            "check.certify.findings": sum(o["findings"] for o in obs),
        }


# ---------------------------------------------------------------------- #
# cold
# ---------------------------------------------------------------------- #
def service_seed(key: ScheduleKey) -> int:
    """The serving layer's per-key search seed: the digest's leading 32 bits."""
    return int(key.digest()[:8], 16)


async def _serve_sequentially(
    service: ScheduleService, keys, clock=NULL_CLOCK
) -> list[tuple[Schedule, float]]:
    asyncio.get_running_loop().set_default_executor(InlineExecutor())
    out = []
    for key in keys:
        t0 = now()
        schedule = await service.get_schedule(key)
        t1 = now()
        out.append((schedule, t1 - t0 - clock.ref_between(t0, t1)))
    return out


class Cold(Workload):
    name = "cold"

    def __init__(self, seed: int, expected: dict, workroot: str):
        self.expected = expected["cold"]
        self.workroot = workroot

    def setup(self):
        workdir = _Workdir(self.workroot)
        throwaway = ScheduleService(ScheduleStore(workdir.fresh()), workers=0)
        try:
            asyncio.run(_serve_sequentially(throwaway, COLD_WARMUP_KEYS))
        finally:
            throwaway.close()
        return {"workdir": workdir}

    def teardown(self, state) -> None:
        state["workdir"].close()

    def run_pass(self, state, tracer, clock) -> Pass:
        store_root = state["workdir"].fresh()
        out = Pass(start=now())
        service = ScheduleService(ScheduleStore(store_root), workers=0)
        try:
            served = asyncio.run(_serve_sequentially(service, COLD_KEYS, clock))
        finally:
            service.close()
        out.end = now()
        for key, (schedule, latency) in zip(COLD_KEYS, served):
            label = key_label(key)
            out.by_policy[key.policy] = out.by_policy.get(key.policy, 0.0) + latency
            out.served[label] = schedule
            out.ratios.append(schedule.io_volume()[0] / key_bound(key))
            out.checks.append(_served_check(label, schedule, self.expected.get(label), key.s))
        shutil.rmtree(store_root, ignore_errors=True)
        return out

    def traced_pass(self, state, tracer, untraced: list[Pass]) -> Pass:
        """Rebuild every key through the searcher's public steps, spanned."""
        store = ScheduleStore(state["workdir"].fresh())
        counts = {"ops": 0, "accesses": 0, "edges": 0, "scheduled": 0, "evaluations": 0,
                  "puts": 0, "gets": 0}
        out = Pass(start=now())
        for i, key in enumerate(COLD_KEYS):
            with tracer.span("cold.request", request=i):
                with tracer.span("machine.record"):
                    case = record_case(key.kernel, key.n, key.m, key.s)
                with tracer.span("trace.compiled"):
                    trace = case.trace
                with tracer.span("graph.dependency"):
                    graph = DependencyGraph.from_trace(trace)
                relax = key.policy == "search"
                if relax:
                    with tracer.span("graph.search"):
                        found = search_order(
                            graph, key.s, "anneal", iters=SEARCH_ITERS,
                            seed=service_seed(key), relax_reductions=True,
                        )
                    order = found.order
                    counts["evaluations"] += found.evaluations
                else:
                    with tracer.span("graph.scheduler"):
                        order = list_schedule(graph, "locality").order
                    counts["scheduled"] += len(order)
                with tracer.span("graph.rewriter"):
                    identity = list(range(trace.n_ops))
                    if sorted(order) != identity or not graph.is_valid_order(
                        order, relax_reductions=relax
                    ):
                        raise RuntimeError(f"{key_label(key)}: illegal order")
                    reordered = trace if order == identity else trace.reorder(order)
                    schedule = rewrite_trace(reordered, key.s)
                with tracer.span("sched.validate"):
                    validate_schedule(schedule, key.s)
                with tracer.span("serve.store.put"):
                    store.put(key, schedule)
                with tracer.span("serve.store.get"):
                    rebuilt = store.get(key)
            counts["ops"] += len(case.schedule)
            counts["accesses"] += trace.n_accesses
            counts["edges"] += sum(len(succ) for succ in graph.succs)
            counts["puts"] += 1
            counts["gets"] += 1
            out.served[key_label(key)] = rebuilt
        out.end = now()
        for label, rebuilt in out.served.items():
            reference = untraced[-1].served[label]
            same = rebuilt is not None and (
                rebuilt.io_volume() == reference.io_volume()
                and schedule_fingerprint(rebuilt) == schedule_fingerprint(reference)
            )
            out.checks.append(Check(
                f"traced:{label}", same,
                "" if same else "traced rebuild differs from the schedule the service served",
            ))
        out.extra = counts
        shutil.rmtree(store.root, ignore_errors=True)
        return out

    def layers(self, traced: Pass, spans, untraced: list[Pass]) -> dict[str, float]:
        busy = layer_busy(spans)
        c = traced.extra
        search_s = busy["graph.search"]
        get_durations = [s["end"] - s["start"] for s in spans if s["name"] == "serve.store.get"]
        p50, _n = percentile(get_durations, 0.5)
        return {
            "machine.record.busy_s": busy["machine.record"],
            "machine.record.ops": c["ops"],
            "trace.compiled.busy_s": busy["trace.compiled"],
            "trace.compiled.accesses": c["accesses"],
            "graph.dependency.busy_s": busy["graph.dependency"],
            "graph.dependency.edges": c["edges"],
            "graph.scheduler.busy_s": busy["graph.scheduler"],
            "graph.scheduler.ops": c["scheduled"],
            "graph.search.busy_s": search_s,
            "graph.search.evaluations": c["evaluations"],
            "graph.search.evals_per_s": c["evaluations"] / search_s,
            "graph.rewriter.busy_s": busy["graph.rewriter"],
            "sched.validate.busy_s": busy["sched.validate"],
            "serve.store.put.busy_s": busy["serve.store.put"],
            "serve.store.put.calls": c["puts"],
            "serve.store.get.busy_s": busy["serve.store.get"],
            "serve.store.get.calls": c["gets"],
            "serve.store.get.p50_s": p50 or 0.0,
            "serve.frontend.heuristic_s": statistics.median(
                p.by_policy["heuristic"] for p in untraced
            ),
            "serve.frontend.search_s": statistics.median(p.by_policy["search"] for p in untraced),
        }


# ---------------------------------------------------------------------- #
# serve
# ---------------------------------------------------------------------- #
def serve_stream(seed: int, length: int) -> list[ScheduleKey]:
    """The seeded zipf(a=ZIPF_A) request stream over SERVE_KEYS.

    Stratified: each key appears its zipf share of ``length`` times
    (largest-remainder rounding, so exactly ``length`` requests), in an
    order shuffled once with :data:`SERVE_RANK_SEED`; the seed picks where
    in that cycle the stream starts.  Independent draws would let the seed
    move the mix of cheap and dear store reads, and a fresh shuffle per
    seed moves which requests miss the cache (208 to 235 store reads of
    500 over 15 seeds, and the pass time with them, by over 10%); a
    rotation keeps every seed's store reads within the cache's cold start
    of each other (223 to 226 over 30 seeds).
    """
    ranked = list(SERVE_KEYS)
    random.Random(SERVE_RANK_SEED).shuffle(ranked)
    weights = [1.0 / (rank ** ZIPF_A) for rank in range(1, len(ranked) + 1)]
    shares = [length * w / sum(weights) for w in weights]
    counts = [int(x) for x in shares]
    by_remainder = sorted(range(len(shares)), key=lambda i: counts[i] - shares[i])
    for i in by_remainder[: length - sum(counts)]:
        counts[i] += 1
    cycle = [key for key, c in zip(ranked, counts) for _ in range(c)]
    random.Random(SERVE_RANK_SEED).shuffle(cycle)
    start = random.Random(seed).randrange(length)
    return cycle[start:] + cycle[:start]


class _TracedStore:
    """Delegates to a ScheduleStore, with a span around every read."""

    def __init__(self, inner: ScheduleStore, tracer):
        self._inner = inner
        self._tracer = tracer
        self.root = inner.root

    def get(self, key, *, verify: bool = False):
        with self._tracer.span("serve.store.get"):
            return self._inner.get(key, verify=verify)


class _TracedCache:
    """Delegates to a ScheduleCache, with a span around every lookup."""

    def __init__(self, inner: ScheduleCache, tracer):
        self._inner = inner
        self._tracer = tracer

    def get(self, digest):
        with self._tracer.span("serve.cache.get"):
            return self._inner.get(digest)

    def put(self, digest, payload) -> None:
        with self._tracer.span("serve.cache.put"):
            self._inner.put(digest, payload)


class Serve(Workload):
    name = "serve"
    min_traced_samples = 1000
    #: one fill of the store costs seconds; two keep the run short
    setup_repeats = 2

    def __init__(self, seed: int, expected: dict, workroot: str):
        self.expected = expected["serve"]
        self.workroot = workroot
        self.stream = serve_stream(seed, SERVE_REQUESTS)

    def setup(self):
        workdir = _Workdir(self.workroot)
        store = ScheduleStore(workdir.fresh())
        warm_store(store, SERVE_KEYS)
        return {"workdir": workdir, "store": store}

    def teardown(self, state) -> None:
        state["workdir"].close()

    def check_setup(self, state) -> list[Check]:
        """Check every filled key; remember its loads over the bound."""
        checks, state["ratios"], state["volumes"] = [], [], {}
        for key in SERVE_KEYS:
            label = key_label(key)
            schedule = state["store"].get(key)
            if schedule is None:
                checks.append(Check(f"store:{label}", False, "missing from the filled store"))
                continue
            checks.append(_served_check(
                f"store:{label}", schedule, self.expected.get(label), key.s
            ))
            state["volumes"][label] = schedule.io_volume()
            state["ratios"].append(schedule.io_volume()[0] / key_bound(key))
        return checks

    async def _stream(self, service: ScheduleService, tracer, clock, out: Pass) -> dict:
        asyncio.get_running_loop().set_default_executor(InlineExecutor())
        next_index = iter(range(len(self.stream)))
        last: dict[ScheduleKey, Schedule] = {}

        async def client() -> None:
            for i in next_index:
                key = self.stream[i]
                with tracer.span("serve.request", request=i):
                    t0 = now()
                    schedule = await service.get_schedule(key)
                    t1 = now()
                    out.latencies.append(t1 - t0 - clock.ref_between(t0, t1))
                last[key] = schedule
                expected = self.expected.get(key_label(key), {})
                volume = schedule.io_volume()
                ok = volume == (expected.get("loads"), expected.get("stores"))
                out.checks.append(Check(
                    f"request {i} {key_label(key)}", ok,
                    "" if ok else f"served loads/stores {volume} != pinned",
                ))
                t2 = now()
                out.check_s += t2 - t1 - clock.ref_between(t1, t2)

        await asyncio.gather(*(client() for _ in range(client_count(SERVE_CLIENTS))))
        return last

    def run_pass(self, state, tracer, clock) -> Pass:
        cache = ScheduleCache(SERVE_CACHE)
        store = state["store"]
        if tracer.enabled:
            service = ScheduleService(_TracedStore(store, tracer), _TracedCache(cache, tracer))
        else:
            service = ScheduleService(store, cache)
        out = Pass(start=now())
        try:
            last = asyncio.run(self._stream(service, tracer, clock, out))
        finally:
            service.close()
        out.end = now()
        for key, schedule in last.items():
            label = key_label(key)
            out.checks.append(_served_check(
                f"served:{label}", schedule, self.expected.get(label), key.s
            ))
        out.ratios = state["ratios"]
        out.extra = {"cache_hit_rate": cache.hit_rate, "cache_evictions": cache.evictions}
        return out

    def layers(self, traced: Pass, spans, untraced: list[Pass]) -> dict[str, float]:
        busy = layer_busy(spans)
        gets = [s["end"] - s["start"] for s in spans if s["name"] == "serve.store.get"]
        get_p50, _n = percentile(gets, 0.5)
        latencies = [x for p in untraced for x in p.latencies]
        p50, n = percentile(latencies, 0.5)
        p99, _n = percentile(latencies, 0.99)
        return {
            "serve.store.get.busy_s": busy.get("serve.store.get", 0.0),
            "serve.store.get.calls": len(gets),
            "serve.store.get.p50_s": get_p50 or 0.0,
            "serve.cache.hit_rate": traced.extra["cache_hit_rate"],
            "serve.cache.evictions": traced.extra["cache_evictions"],
            "serve.frontend.wait_s": busy.get("serve.request", 0.0),
            "serve.frontend.requests_per_s": n / sum(p.wall_s for p in untraced),
            "serve.frontend.request_p50_s": p50 or 0.0,
            "serve.frontend.request_p99_s": p99 or 0.0,
            "serve.frontend.request_samples": n,
        }


WORKLOADS = {cls.name: cls for cls in (Reproduce, Cold, Serve)}
