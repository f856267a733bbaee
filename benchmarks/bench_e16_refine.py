"""E16 — extension: transfer-aware partition refinement + weighted makespan.

Not a paper experiment: ROADMAP's "transfer-aware partitioning" next step,
measured.  E14 showed the partitioner is the dominant gap of the sharded
executor (level-greedy at 3.3-4.3x the per-node receive floor vs ~2.0x for
owner-computes); E16 measures how much of that gap *local search over the
assignment space* recovers: every one-shot partitioner's owner[] is fed to
``refine_partition`` (single-op + reduction-class moves, incremental
``max(recv + transfer_in)`` ledger) and the refined partition is re-measured
with real per-shard replays.  Every row also reports the mults-weighted
makespan of the latency model (per-op cost = mults, per-cross-edge cost =
alpha + beta * transferred elements).

Volumes are measured under the ``belady`` policy — the per-(order, shard)
load floor and exactly what the refiner's final seed-vs-refined comparison
measures; a ``rewrite`` run per refined row additionally proves the
assignment still dresses into a validated explicit stream with per-node
peak <= S.

Shape claims:

* refinement never returns a partition measured worse than its seed
  (the refiner's hard postcondition), at every (p, partitioner);
* the best refined ``max(recv + transfer_in)`` is <= the best one-shot
  partitioner's, at p in {4, 16};
* refining the transfer-heaviest seed (level-greedy) strictly reduces its
  ``max(recv + transfer_in)``;
* per-node peak occupancy of every refined partition stays <= S under the
  validated rewrite policy, and every report row carries the weighted
  makespan.

BENCH JSON (``benchmarks/out/bench_e16_refine.json`` or ``$BENCH_E16_JSON``)
records seed/refined volumes, refined/bound ratios and makespans per row.
"""

import pytest

from repro.core.bounds import parallel_syrk_lower_bound_per_node
from repro.graph.compare import record_case
from repro.parallel import (
    PARTITIONERS,
    execute_graph,
    partition_graph,
    refine_partition,
)
from repro.utils.fmt import Table, format_int

M_COLS, S = 6, 15
PS = [4, 16]


def run_sweep(n: int, max_moves: int):
    case = record_case("tbs", n, M_COLS, S)
    graph = case.graph
    rows = []
    for p in PS:
        for part in PARTITIONERS:
            seed = partition_graph(graph, p, part)
            refined = refine_partition(
                graph, seed, p, S, strategy="greedy", max_moves=max_moves
            )
            seed_summ = execute_graph(
                case.schedule, p, S, owner=seed, policy="belady", graph=graph,
                partitioner_label=part,
            )
            ref_summ = execute_graph(
                case.schedule, p, S, owner=refined.owner, policy="belady",
                graph=graph, partitioner_label=f"{part}+refine",
            )
            ref_rewrite = execute_graph(
                case.schedule, p, S, owner=refined.owner, policy="rewrite",
                graph=graph, partitioner_label=f"{part}+refine",
            )
            rows.append((p, part, refined, seed_summ, ref_summ, ref_rewrite))
    return case, graph, rows


def write_bench_json(payload_rows):
    from common import write_bench_json as write_common

    return write_common(
        "e16_partition_refinement", payload_rows,
        env_var="BENCH_E16_JSON", default_name="bench_e16_refine.json",
    )


@pytest.mark.benchmark(group="e16")
def test_e16_refine(once, smoke):
    n = 60 if smoke else 120
    max_moves = 96 if smoke else 256
    case, graph, rows = once(run_sweep, n, max_moves)

    t = Table(
        ["P", "partitioner", "seed r+x", "refined r+x", "gain", "moves",
         "makespan seed", "makespan refined", "(r+x)/bound"],
        title=(
            f"E16: transfer-aware partition refinement, TBS N={n}, "
            f"M={M_COLS}, node memory S={S} (belady volumes)"
        ),
    )
    payload_rows = []
    best_oneshot: dict[int, int] = {}
    best_refined: dict[int, int] = {}
    for p, part, refined, seed_summ, ref_summ, ref_rewrite in rows:
        bound = parallel_syrk_lower_bound_per_node(n, M_COLS, p, S)
        seed_rx = seed_summ.max_recv_incl_transfers
        ref_rx = ref_summ.max_recv_incl_transfers
        ratio = ref_rx / bound if bound > 0 else float("nan")
        t.add_row(
            [p, part, format_int(seed_rx), format_int(ref_rx),
             f"{1 - ref_rx / seed_rx:.1%}", refined.moves,
             format_int(int(seed_summ.makespan)),
             format_int(int(ref_summ.makespan)),
             f"{ratio:.3f}"]
        )
        payload_rows.append({
            "p": p, "partitioner": part,
            "seed_recv_xfer": seed_rx, "refined_recv_xfer": ref_rx,
            "refined_over_bound": ratio, "moves": refined.moves,
            "evaluations": refined.evaluations, "reverted": refined.reverted,
            "seed_makespan": seed_summ.makespan,
            "refined_makespan": ref_summ.makespan,
            "refined_peak_ok": ref_rewrite.peak_ok,
        })
        best_oneshot[p] = min(best_oneshot.get(p, seed_rx), seed_rx)
        best_refined[p] = min(best_refined.get(p, ref_rx), ref_rx)

        # the refiner's measured objective IS the executor's bounding
        # quantity, and the consistency is exact
        assert ref_rx == refined.cost, (p, part, ref_rx, refined.cost)
        assert seed_rx == refined.seed_cost, (p, part)
        # hard postcondition: never worse than the seed
        assert ref_rx <= seed_rx, (p, part, ref_rx, seed_rx)
        # the refined assignment still covers every op exactly once...
        assert sorted(
            v for q in range(p)
            for v in [i for i, o in enumerate(refined.owner) if o == q]
        ) == list(range(len(graph)))
        # ...dresses into a validated explicit stream within node memory,
        # and carries the weighted makespan in every report row
        assert ref_rewrite.peak_ok
        assert ref_summ.makespan > 0 and seed_summ.makespan > 0
        assert ref_summ.critical_path_mults == seed_summ.critical_path_mults

    print()
    print(t.render())
    path = write_bench_json(payload_rows)
    print(f"\nBENCH JSON written to {path}")

    for p in PS:
        # acceptance: refined partitions never trail the best one-shot
        assert best_refined[p] <= best_oneshot[p], (
            p, best_refined[p], best_oneshot[p]
        )
    # the transfer-heaviest seed is where search pays: strict improvement
    lg = {(p): r for p, part, r, *_ in rows if part == "level-greedy"}
    for p in PS:
        assert lg[p].cost < lg[p].seed_cost, (p, lg[p].cost, lg[p].seed_cost)
        print(
            f"level-greedy at P={p}: max(recv+xfer) {lg[p].seed_cost:,} -> "
            f"{lg[p].cost:,} ({1 - lg[p].cost / lg[p].seed_cost:.1%} less), "
            f"{lg[p].moves} moves"
        )
