"""The repository benchmark: one workload per call, every metric by name.

Usage, from the repository root::

    python3 benchmarks/perfbench/run.py --workload {reproduce,cold,serve} \\
        --seed N --seconds S --trace {0,1}

The workloads and what each is for are described in ``workloads.py``;
``BENCHMARK.json`` at the root names the metrics, their units and bounds.

A run sets the workload up several times (median reported as
``setup_s``), then runs timed passes until ``--seconds`` is spent (at
least one; another starts only if it fits; a traced ``serve`` run goes on
until its request percentiles have their samples).  Every pass checks its
outputs against the counts pinned in ``expected.json``.

The two end-to-end times are on a host-normalised clock
(``harness.HostClock``): during every set-up and pass an interval timer
runs a fixed reference loop, which no program change can speed up, on the
main thread once a second, and each time (less the loop's own) is
scaled to a host on which that loop takes ``harness.REF_NOMINAL_S``.  On a
shared host whose speed wanders by tens of percent within minutes, this
is what lets two runs of the same code agree.  Raw seconds and the scale
factors are printed too.  So that the loop never waits for the program's
worker threads, ``cold`` and ``serve`` run the serving layer's executor
jobs inline (``harness.InlineExecutor``).

* ``--trace 0`` reports the end-to-end metrics: ``setup_s`` (median
  set-up, normalised), ``norm_wall_s`` (median pass, normalised, without
  the client's output checks or the reference calls), ``peak_rss_mb``,
  ``ok_frac`` (outputs that passed their check over outputs checked) and
  ``io_over_bound`` (geometric mean of explicit loads over the exact
  ``core.bounds`` lower bound).
* ``--trace 1`` runs the untraced passes, then one traced pass with a span
  around every call into a layer and no reference calls, and reports the
  per-layer metrics (raw seconds) plus ``tracing_overhead_s`` (traced
  minus median untraced pass, raw) and ``uncovered_s`` (traced-pass time
  no span and no output check covers).  Layers a workload does not run
  report 0.

The last line of standard output is one JSON object: ``correct``,
``attempted``, ``failed`` and ``metrics``.  A wrong output makes the run
exit 1 after printing it; a tree without ``src/repro`` exits 2 at once.
A provenance-stamped copy with samples and spans goes to
``benchmarks/out/perfbench_<workload>_<mode>.json``.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
SRC = os.path.join(ROOT, "src")

def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return ap.parse_args(argv)


def run(args) -> dict:
    from harness import NULL_TRACER, HostClock, Tracer, geomean, now, peak_rss_mb, uncovered
    from workloads import WORKLOADS

    with open(os.path.join(HERE, "expected.json"), encoding="utf-8") as fh:
        expected = json.load(fh)
    workload = WORKLOADS[args.workload](
        args.seed, expected, os.path.join(ROOT, "benchmarks", "out", "perfbench-work")
    )
    traced = bool(args.trace)
    clock = HostClock()

    setup_raw, setup_scales, state = [], [], None
    for _ in range(1 if traced else workload.setup_repeats):
        if state is not None:
            workload.teardown(state)
        clock.begin()
        t0 = now()
        state = workload.setup()
        t1 = now()
        setup_scales.append(clock.end())
        setup_raw.append(t1 - t0 - clock.ref_between(t0, t1))
    try:
        checks = workload.check_setup(state)
        untraced = []
        t_start = now()
        while True:
            clock.begin()
            p = workload.run_pass(state, NULL_TRACER, clock)
            p.scale = clock.end()
            p.ref_s = clock.ref_between(p.start, p.end)
            untraced.append(p)
            checks += p.checks
            samples = sum(len(q.latencies) for q in untraced)
            if traced and samples < workload.min_traced_samples:
                continue
            if now() - t_start + p.wall_s > args.seconds:
                break
        if traced:
            tracer = Tracer()
            tp = workload.traced_pass(state, tracer, untraced)
            checks += tp.checks
    finally:
        workload.teardown(state)

    ratios = {tuple(p.ratios) for p in untraced}
    if len(ratios) != 1:
        raise RuntimeError(f"loads over bound changed between passes: {ratios}")
    failed = [c for c in checks if not c.ok]
    walls = [p.wall_s for p in untraced]
    setup_times = [raw * scale for raw, scale in zip(setup_raw, setup_scales)]
    doc = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "setup_s_samples": setup_times,
        "setup_raw_s_samples": setup_raw,
        "setup_scale_samples": setup_scales,
        "norm_wall_s_samples": [p.norm_wall_s for p in untraced],
        "wall_s_samples": walls,
        "pass_scale_samples": [p.scale for p in untraced],
        "pass_ref_s_samples": [p.ref_s for p in untraced],
        "failures": [f"{c.label}: {c.detail}" for c in failed],
    }
    if traced:
        metrics = workload.layers(tp, tracer.spans, untraced)
        metrics["tracing_overhead_s"] = tp.wall_s - statistics.median(walls)
        metrics["uncovered_s"] = uncovered(tp.start, tp.end, tracer.spans) - tp.check_s
        doc["traced_wall_s"] = tp.wall_s
        doc["spans"] = tracer.spans
    else:
        metrics = {
            "setup_s": statistics.median(setup_times),
            "norm_wall_s": statistics.median(p.norm_wall_s for p in untraced),
            "peak_rss_mb": peak_rss_mb(),
            "ok_frac": (len(checks) - len(failed)) / len(checks),
            "io_over_bound": geomean(untraced[0].ratios),
        }
        if args.workload == "serve":
            doc["request_latency_s"] = [x for p in untraced for x in p.latencies]
        if args.workload == "cold":
            doc["policy_s"] = [p.by_policy for p in untraced]
    doc["metrics"] = metrics
    doc["attempted"] = len(checks)
    doc["failed"] = len(failed)
    return doc


def report(doc: dict, spec: dict) -> dict:
    """Print the human-readable table; return the contract's result object."""
    from harness import percentile

    kind = "per_layer" if doc["trace"] else "end_to_end"
    out = {}
    print(f"perfbench {doc['workload']} seed={doc['seed']} trace={doc['trace']}")
    for entry in spec[kind]:
        name, unit = entry["name"], entry["unit"]
        value = doc["metrics"].get(name, 0)
        out[name] = {"value": value, "unit": unit}
        print(f"  {name:34s} {value:>16.6g} {unit}")
    def row(label, key):
        print(f"  {label:26s} {', '.join(f'{x:.4f}' for x in doc[key])}")

    row("set-up, normalised (s):", "setup_s_samples")
    row("set-up, raw (s):", "setup_raw_s_samples")
    row("set-up host scale:", "setup_scale_samples")
    row("pass, normalised (s):", "norm_wall_s_samples")
    row("pass, raw (s):", "wall_s_samples")
    row("pass host scale:", "pass_scale_samples")
    lat = doc.get("request_latency_s")
    if lat:
        for q in (0.5, 0.99):
            value, n = percentile(lat, q)
            shown = "n/a (fewer than 10 samples beyond)" if value is None else f"{value:.6f} s"
            print(f"  request p{round(q * 100)}: {shown}, n={n}")
    for by_policy in doc.get("policy_s", ()):
        print("  request time by policy (s): "
              + ", ".join(f"{k} {v:.4f}" for k, v in by_policy.items()))
    for line in doc["failures"]:
        print(f"  FAILED {line}")
    return {
        "correct": doc["failed"] == 0,
        "attempted": doc["attempted"],
        "failed": doc["failed"],
        "metrics": out,
    }


def main(argv=None) -> int:
    args = parse_args(argv)
    if not os.path.isdir(os.path.join(SRC, "repro")):
        print(f"perfbench: no program to measure under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)

    doc = run(args)
    result = report(doc, spec)

    from repro.obs.provenance import provenance_stamp
    from repro.utils.atomic import atomic_write_json

    out_dir = os.path.join(ROOT, "benchmarks", "out")
    os.makedirs(out_dir, exist_ok=True)
    mode = "traced" if args.trace else "untraced"
    atomic_write_json(
        os.path.join(out_dir, f"perfbench_{args.workload}_{mode}.json"),
        {"provenance": provenance_stamp({"benchmark": "perfbench"}), **doc, "result": result},
    )
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
