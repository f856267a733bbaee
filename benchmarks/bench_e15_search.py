"""E15 — extension: order-search engine vs one-shot heuristics vs Belady.

Not a paper experiment: ROADMAP's "smarter order search" item, measured.
The explicit-vs-Belady gap of a recorded schedule is a property of the
compute *order*; PR 1's worklist heuristics recover part of it with one
greedy pass.  E15 measures how much more a real search recovers: beam
search and lookahead greedy driven by the incremental LRU objective, and
simulated annealing over reduction-class interleavings, all on the TBS
SYRK trace (N=120, M=6, S=15) plus SYR2K and OOC_CHOL side cases.

Every searched order is dressed into an explicit, validated load/evict
stream by the same rewriter as the heuristic orders, so the reported Q is
the per-order optimum (furthest-next-use eviction), not the search's
internal LRU score.

Shape claims:

* every searched order is legal for its dependence setting, and the
  ``relax_reductions=False`` rows replay to bit-identical numerics;
* relaxing reductions enlarges the order space: the best relaxed order
  across strategies is no worse than the best bit-exact one;
* at least one search strategy lands strictly below the best one-shot
  heuristic (including the relaxed locality pass) at equal capacity —
  the headline claim, asserted at full and smoke sizes;
* on the side cases with real RAW/WAR/WAW structure (OOC_CHOL), search
  stays within a few percent of the best heuristic even when one greedy
  pass is already near-optimal.
"""

import pytest

from repro.analysis.lru_replay import lru_replay
from repro.graph.compare import record_case
from repro.graph.policies import belady_replay
from repro.graph.rewriter import reschedule, rewrite_schedule
from repro.graph.scheduler import HEURISTICS
from repro.graph.search import STRATEGIES, search_order
from repro.utils.fmt import Table, format_int

S = 15
M_COLS = 6


def run_case(kernel: str, n: int, mcols: int, *, iters: int, heuristics):
    """One kernel: heuristic baselines + all strategies, strict and relaxed."""
    case = record_case(kernel, n, mcols, S)
    graph = case.graph
    floor = belady_replay(case.trace, S).loads
    lru = lru_replay(case.trace, S).loads

    heur_q = {}
    for heuristic, relax in heuristics:
        rr = reschedule(case.trace, S, heuristic, graph=graph, relax_reductions=relax)
        heur_q[(heuristic, relax)] = rr.loads

    kwargs = {"anneal": {"iters": iters}}
    search_q = {}
    orders = {}
    for strategy in STRATEGIES:
        for relax in (False, True):
            found = search_order(
                graph, S, strategy, relax_reductions=relax,
                **kwargs.get(strategy, {}),
            )
            rw = rewrite_schedule(
                case.trace, S, found.order, graph=graph, relax_reductions=relax
            )
            search_q[(strategy, relax)] = rw.loads
            orders[(strategy, relax)] = (found, rw)
    return case, graph, floor, lru, heur_q, search_q, orders


@pytest.mark.benchmark(group="e15")
def test_e15_search(once, smoke):
    n = 60 if smoke else 120
    iters = 800 if smoke else 1500
    heuristics = [(h, False) for h in HEURISTICS] + [("locality", True)]
    case, graph, floor, lru, heur_q, search_q, orders = once(
        run_case, "tbs", n, M_COLS, iters=iters, heuristics=heuristics
    )

    t = Table(
        ["order / strategy", "relaxed", "Q (loads)", "Q/belady-floor", "Q/bound"],
        title=f"E15: order search, TBS N={n}, M={M_COLS}, S={S}",
    )

    def add(label, relaxed, q):
        t.add_row([label, relaxed, format_int(q), f"{q / floor:.3f}",
                   f"{q / case.lower_bound:.3f}"])

    add("explicit (recorded)", "-", case.explicit_loads)
    add("lru replay", "-", lru)
    add("belady floor", "-", floor)
    for (heuristic, relax), q in heur_q.items():
        add(f"heuristic:{heuristic}", str(relax), q)
    for (strategy, relax), q in search_q.items():
        add(f"search:{strategy}", str(relax), q)
    print()
    print(t.render())

    best_heur = min(heur_q.values())
    best_search = min(search_q.values())

    for (strategy, relax), (found, rw) in orders.items():
        # legality in the right dependence setting + validated rewrite
        assert graph.is_valid_order(found.order, relax_reductions=relax)
        assert rw.summary["peak_occupancy"] <= S
        # the searched orders must replay the recorded numerics exactly
        # when reductions are kept
        if not relax:
            assert case.check_exact(rw.schedule), (strategy, relax)

    # Relaxing reductions enlarges the order space; the searches are
    # heuristic, so per-strategy monotonicity is not a theorem — but the
    # best relaxed order across strategies beating the best strict one is
    # the robust form of the claim (wide margin at both sizes).
    best_relaxed = min(q for (_s, relax), q in search_q.items() if relax)
    best_strict = min(q for (_s, relax), q in search_q.items() if not relax)
    assert best_relaxed <= best_strict, (best_relaxed, best_strict)

    # The headline claim: searching the order space beats every one-shot
    # heuristic (strict AND relaxed-locality baselines) at equal capacity.
    assert best_search < best_heur, (best_search, best_heur)

    print(f"\nbest one-shot heuristic Q = {best_heur:,} "
          f"({best_heur / floor:.3f}x belady floor)")
    print(f"best searched order  Q = {best_search:,} "
          f"({best_search / floor:.3f}x belady floor)")
    print(f"gap to the recorded order's belady floor closed: "
          f"{(best_heur - best_search) / max(1, best_heur - floor):.1%} of what "
          f"the heuristics left on the table")


@pytest.mark.benchmark(group="e15")
def test_e15_search_side_cases(once, smoke):
    """SYR2K and OOC_CHOL: search on traces with richer dependence structure."""
    cases = [("syr2k", 24 if smoke else 36, 4), ("chol", 20 if smoke else 28, 0)]
    rows = []

    def run_all():
        out = []
        for kernel, n, mcols in cases:
            out.append(
                (kernel, n) + run_case(
                    kernel, n, mcols, iters=300,
                    heuristics=[(h, False) for h in HEURISTICS],
                )
            )
        return out

    results = once(run_all)
    t = Table(
        ["kernel", "N", "belady floor", "best heuristic", "best search", "ratio"],
        title=f"E15 side cases (S={S})",
    )
    for kernel, n, case, graph, floor, lru, heur_q, search_q, orders in results:
        best_heur = min(heur_q.values())
        best_search = min(search_q.values())
        for (strategy, relax), (found, rw) in orders.items():
            assert graph.is_valid_order(found.order, relax_reductions=relax)
            if not relax:
                assert case.check_exact(rw.schedule), (kernel, strategy)
        # search never loses more than a few percent to the best one-shot
        # pass, even on DAGs where greedy is already near-optimal
        assert best_search <= 1.05 * best_heur, (kernel, best_search, best_heur)
        t.add_row([kernel, n, format_int(floor), format_int(best_heur),
                   format_int(best_search), f"{best_search / best_heur:.3f}"])
        rows.append((kernel, best_search / best_heur))
    print()
    print(t.render())
