"""Regenerate ``expected.json``: the counts every benchmark run checks.

Usage, from the repository root::

    python3 benchmarks/perfbench/pin.py

Runs one untraced pass of each workload with nothing pinned and records
what the program produced: per ``reproduce`` case the explicit loads and
stores and the LRU and Belady loads at every sweep capacity; per ``cold``
and ``serve`` key the loads and stores of the served schedule.  The counts
do not depend on the seed.  Re-pin only when a change is meant to alter
them, and say so in the change.
"""

from __future__ import annotations

import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
sys.path.insert(0, os.path.join(ROOT, "src"))

from repro.utils.atomic import atomic_write_json  # noqa: E402

from harness import NULL_CLOCK, NULL_TRACER  # noqa: E402
from workloads import SERVE_KEYS, Cold, Reproduce, Serve, key_label  # noqa: E402

PINNED_FIELDS = ("loads", "stores", "lru_loads", "belady_loads")


def main() -> int:
    nothing = {"reproduce": {}, "cold": {}, "serve": {}}
    workroot = os.path.join(ROOT, "benchmarks", "out", "perfbench-work")
    pinned = {}

    reproduce = Reproduce(0, nothing, workroot)
    p = reproduce.run_pass(reproduce.setup(), NULL_TRACER, NULL_CLOCK)
    pinned["reproduce"] = {
        name: {k: obs[k] for k in PINNED_FIELDS} for name, obs in p.extra.items()
    }

    cold = Cold(0, nothing, workroot)
    state = cold.setup()
    try:
        p = cold.run_pass(state, NULL_TRACER, NULL_CLOCK)
    finally:
        cold.teardown(state)
    pinned["cold"] = {
        label: dict(zip(("loads", "stores"), s.io_volume())) for label, s in p.served.items()
    }

    serve = Serve(0, nothing, workroot)
    state = serve.setup()
    try:
        serve.check_setup(state)
    finally:
        serve.teardown(state)
    pinned["serve"] = {
        key_label(k): dict(zip(("loads", "stores"), state["volumes"][key_label(k)]))
        for k in SERVE_KEYS
    }

    atomic_write_json(os.path.join(HERE, "expected.json"), pinned, indent=1)
    print(f"pinned {sum(len(v) for v in pinned.values())} cases and keys")
    return 0


if __name__ == "__main__":
    sys.exit(main())
