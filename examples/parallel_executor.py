#!/usr/bin/env python3
"""Sharded DAG execution: run one recorded schedule on P simulated nodes.

The paper's §2.2 observation — a node of a parallel machine is a two-level
machine whose "slow memory" is everyone else — turns distributed SYRK into
p replays of the same machinery used for the sequential results:

1. record the TBS schedule for C += A Aᵀ as a flat op stream;
2. extract its task DAG; the DAG's antichain levels are exactly the op sets
   a multi-node schedule may run concurrently;
3. partition the ops across p nodes (level-greedy / locality /
   owner-computes) and replay each shard on its own counting engine at node
   memory S — every load is a network receive, every store a send, and
   cross-shard RAW/reduction edges pin the node-to-node slice of it;
4. compare the partitioners' maximum per-node receive volume against the
   per-node lower bound, and reproduce the fixed block strategy of
   repro.parallel.simulate bit for bit via the explicit sharding mode.

Run:  python examples/parallel_executor.py
"""

from repro.core.bounds import parallel_syrk_lower_bound_per_node
from repro.graph.compare import record_case
from repro.parallel import (
    PARTITIONERS,
    execute_graph,
    record_block_schedule,
    simulate_syrk,
    triangle_block_assignment,
)
from repro.utils.fmt import Table, banner, format_int

N, M, S, P = 40, 6, 15, 4


def main() -> None:
    print(banner(f"sharded DAG executor: TBS SYRK on {P} nodes"))
    case = record_case("tbs", N, M, S)
    graph = case.graph
    print(
        f"recorded {len(graph)} compute ops; critical path "
        f"{int(graph.critical_path_cost())} — every antichain level is a set of "
        "ops the nodes may run concurrently"
    )

    bound = parallel_syrk_lower_bound_per_node(N, M, P, S)
    t = Table(["partitioner", "max recv", "mean recv", "xfer", "imbalance",
               "peak<=S", "recv/bound"])
    for part in PARTITIONERS:
        summ = execute_graph(case.schedule, P, S, partitioner=part,
                             policy="rewrite", graph=graph)
        t.add_row(
            [part, format_int(summ.max_recv), format_int(int(summ.mean_recv)),
             format_int(summ.total_transfer), f"{summ.compute_imbalance:.3f}",
             str(summ.peak_ok), f"{summ.max_recv / bound:.3f}"]
        )
    print()
    print(t.render())
    print()
    print("owner-computes never splits a commuting reduction class, so its")
    print("cross-node transfer volume is zero and its max receive volume is")
    print("the closest to the per-node lower bound.")

    asg = triangle_block_assignment(N, P, S)
    sched, owner = record_block_schedule(asg, M)
    fixed = simulate_syrk(asg, M)
    summ = execute_graph(sched, P, S, owner=owner, policy="explicit")
    same = all(
        (sr.recv, sr.send, sr.peak_memory) == (nr.total_recv, nr.c_send, nr.peak_memory)
        for sr, nr in zip(summ.shards, fixed.nodes)
    )
    print()
    print(f"fixed triangle-block strategy, re-run through the executor's")
    print(f"explicit sharding mode: per-node counts bit-identical = {same}")


if __name__ == "__main__":
    main()
