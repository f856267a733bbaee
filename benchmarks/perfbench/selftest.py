"""Self-tests for the arithmetic the benchmark's metrics depend on.

Usage, from the repository root::

    python3 benchmarks/perfbench/selftest.py

Covers the percentile rule, span self time on nested spans (including
spans opened in asyncio tasks and inline executor jobs), the ``io_over_bound``
geometric mean, the host-normalised clock (scale factor, timer sampling,
reference time taken out of intervals), the closed-loop
client cap, and the seed contract: the
seed changes the ``serve`` stream and the ``reproduce`` inputs, never a
pinned ``reproduce`` count.  Takes about ten seconds.
"""

from __future__ import annotations

import asyncio
import json
import math
import os
import signal
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
sys.path.insert(0, os.path.join(ROOT, "src"))

from repro.trace.compiled import compile_trace  # noqa: E402
from repro.trace.replay import sweep_replay_trace  # noqa: E402

from harness import (  # noqa: E402
    MIN_BEYOND,
    REF_NOMINAL_S,
    HostClock,
    InlineExecutor,
    Tracer,
    client_count,
    geomean,
    host_scale,
    percentile,
    self_times,
    now,
    uncovered,
)
from workloads import (  # noqa: E402
    REPRODUCE_CASES,
    case_inputs,
    record_kernel,
    serve_stream,
    sweep_capacities,
)


def span(id_, start, end, parent=None):
    return {"id": id_, "name": f"s{id_}", "parent": parent, "request": None,
            "start": start, "end": end}


class PercentileRule(unittest.TestCase):
    def test_p99_needs_ten_samples_beyond(self):
        value, n = percentile(list(range(1, 1001)), 0.99)
        self.assertEqual((value, n), (990, 1000))
        self.assertEqual(percentile(list(range(1, 1000)), 0.99), (None, 999))

    def test_p50_needs_twenty_samples(self):
        self.assertEqual(percentile(list(range(19)), 0.5), (None, 19))
        self.assertEqual(percentile(list(range(20)), 0.5), (9, 20))

    def test_order_free_and_empty(self):
        samples = [5.0, 1.0, 3.0] * 10
        self.assertEqual(percentile(samples, 0.5), (3.0, 30))
        self.assertEqual(percentile([], 0.5), (None, 0))
        self.assertEqual(MIN_BEYOND, 10)


class SpanArithmetic(unittest.TestCase):
    def test_self_time_nested_and_overlapping(self):
        spans = [
            span(1, 0.0, 10.0),
            span(2, 1.0, 4.0, parent=1),
            span(3, 3.0, 6.0, parent=1),  # overlaps 2: covered once
            span(4, 2.0, 3.0, parent=2),
            span(5, 9.0, 12.0, parent=1),  # runs past its parent: clipped
        ]
        selfs = self_times(spans)
        self.assertAlmostEqual(selfs[1], 10.0 - 5.0 - 1.0)
        self.assertAlmostEqual(selfs[2], 3.0 - 1.0)
        self.assertAlmostEqual(selfs[3], 3.0)
        self.assertAlmostEqual(selfs[4], 1.0)
        self.assertAlmostEqual(selfs[5], 3.0)

    def test_uncovered_counts_gaps_between_roots(self):
        spans = [span(1, 0.0, 2.0), span(2, 1.0, 3.0), span(3, 5.0, 6.0),
                 span(4, 5.5, 9.0, parent=3)]
        self.assertAlmostEqual(uncovered(0.0, 10.0, spans), 6.0)

    def test_tracer_parents_across_tasks_and_executor_jobs(self):
        tracer = Tracer()

        def in_job():
            with tracer.span("leaf"):
                pass

        async def request(i):
            with tracer.span("request", request=i):
                await asyncio.get_running_loop().run_in_executor(None, in_job)

        async def main():
            asyncio.get_running_loop().set_default_executor(InlineExecutor())
            await asyncio.gather(request(0), request(1))

        asyncio.run(main())
        by_id = {s["id"]: s for s in tracer.spans}
        leaves = [s for s in tracer.spans if s["name"] == "leaf"]
        self.assertEqual(len(leaves), 2)
        for leaf in leaves:
            parent = by_id[leaf["parent"]]
            self.assertEqual(parent["name"], "request")
            self.assertEqual(leaf["request"], parent["request"])
        self.assertEqual(sorted(s["request"] for s in leaves), [0, 1])


class GeometricMean(unittest.TestCase):
    def test_io_over_bound_mean(self):
        self.assertAlmostEqual(geomean([2.0, 8.0]), 4.0)
        ratios = [1.924, 2.294, 2.103, 1.978]
        self.assertAlmostEqual(geomean(ratios), math.prod(ratios) ** 0.25)
        with self.assertRaises(ValueError):
            geomean([1.0, 0.0])


class HostScale(unittest.TestCase):
    def test_steady_host_scales_by_reference_time(self):
        samples = [(0.0, 0.1), (1.1, 1.2), (3.2, 3.3)]
        self.assertAlmostEqual(host_scale(samples), REF_NOMINAL_S / 0.1)

    def test_work_weighted_between_neighbouring_samples(self):
        # 1 s of work at a mean reference of 0.1 s, then 1 s at 0.15 s.
        samples = [(0.0, 0.1), (1.1, 1.2), (2.2, 2.4)]
        want = REF_NOMINAL_S * (1.0 / 0.1 + 1.0 / 0.15) / 2.0
        self.assertAlmostEqual(host_scale(samples), want)
        # A host twice as slow throughout gives half the scale.
        slow = [(2 * a, 2 * b) for a, b in samples]
        self.assertAlmostEqual(host_scale(slow), want / 2)

    def test_needs_work_between_two_samples(self):
        with self.assertRaises(ValueError):
            host_scale([(0.0, 0.1)])

    def test_reference_time_taken_out_of_intervals(self):
        clock = HostClock()
        clock.samples = [(0.0, 0.1), (1.0, 1.1), (2.0, 2.1)]
        self.assertAlmostEqual(clock.ref_between(0.05, 2.05), 0.05 + 0.1 + 0.05)
        self.assertAlmostEqual(clock.ref_between(0.2, 0.9), 0.0)
        self.assertAlmostEqual(clock.ref_between(1.05, 3.0), 0.05 + 0.1)

    def test_clock_samples_on_the_timer(self):
        clock = HostClock(every=0.05)
        clock.begin()
        deadline = now() + 0.6
        while now() < deadline:
            sum(range(1000))
        self.assertGreater(clock.end(), 0.0)
        self.assertGreaterEqual(len(clock.samples), 4)
        self.assertIs(signal.getsignal(signal.SIGALRM), signal.SIG_DFL)


class ClientCap(unittest.TestCase):
    def test_clients_never_exceed_cores(self):
        cores = os.cpu_count() or 1
        for wanted in (1, 2, 64):
            self.assertLessEqual(client_count(wanted), cores)
            self.assertGreaterEqual(client_count(wanted), 1)
        self.assertEqual(client_count(1), 1)


class SeedContract(unittest.TestCase):
    def test_seed_changes_the_serve_stream_not_its_mix(self):
        self.assertEqual(serve_stream(1, 1000), serve_stream(1, 1000))
        self.assertNotEqual(serve_stream(1, 1000), serve_stream(2, 1000))
        self.assertEqual(sorted(serve_stream(1, 1000)), sorted(serve_stream(2, 1000)))
        for length in (999, 1000, 1001):
            self.assertEqual(len(serve_stream(1, length)), length)

    def test_seed_changes_inputs_not_reproduce_counts(self):
        with open(os.path.join(HERE, "expected.json"), encoding="utf-8") as fh:
            pinned = json.load(fh)["reproduce"]
        name, n, m, s = REPRODUCE_CASES[0]
        a = case_inputs(1, 0, name, n, m)
        b = case_inputs(2, 0, name, n, m)
        self.assertFalse((a["A"] == b["A"]).all())
        for inputs in (a, b):
            schedule, loads, stores = record_kernel(name, n, m, s, inputs)
            trace = compile_trace(schedule)
            caps = sweep_capacities(s)
            got = {
                "loads": loads,
                "stores": stores,
                "lru_loads": [r.loads for r in sweep_replay_trace(trace, caps, policy="lru")],
                "belady_loads": [
                    r.loads for r in sweep_replay_trace(trace, caps, policy="belady")
                ],
            }
            self.assertEqual(got, pinned[name])


if __name__ == "__main__":
    unittest.main()
