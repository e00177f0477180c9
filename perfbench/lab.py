"""lab: in-process randomlab sweeps over many small distinct hypergraphs.

Thousands of clique queries on distinct inputs, no search and no glue:
the other way of using hypercore.  It fills the clique cache, which shows
in peak memory.
"""

from __future__ import annotations

import itertools

import oracle
from bench import Pass, fresh_import

MODULES = ("ramsey3.hypercore", "ramsey3.colorengine", "ramsey3.randomlab")
FAMILIES = 1000
PRUNE = dict(n=15, p=0.25, k=2, t=4)
REPORT = dict(n=12, p=0.3, t=4, k=2, trials=200)
K6_PAIRS = list(itertools.combinations(range(6), 2))
K7_COLOURINGS = 2048
PROPB = dict(n=6, p=0.3, t=4, families=8)
PASS_S = 7.5  # nominal seconds of one pass


def setup(rng, work) -> tuple:
    rc = fresh_import(MODULES)
    return rc, make_inputs(rc, rng)


def make_inputs(rc, rng) -> dict:
    """Seeds of one pass, plus every 2-colouring of the pairs of K_6."""
    draw = lambda count: [rng.getrandbits(63) for _ in range(count)]  # noqa: E731
    return {
        "families": draw(FAMILIES),
        "report": draw(1)[0],
        "k6": list(itertools.product((1, 2), repeat=len(K6_PAIRS))),
        "k7": draw(K7_COLOURINGS),
        "propb": draw(PROPB["families"]),
    }


def _edge_sets(family) -> list[set]:
    return [set(h.edges) for h in family]


def run_pass(p: Pass, rc, inp: dict) -> None:
    rl, EdgeColoring = rc.randomlab, rc.colorengine.EdgeColoring
    n, prob, k, t = PRUNE["n"], PRUNE["p"], PRUNE["k"], PRUNE["t"]

    def pruned_ok(res) -> str | None:
        family, pruned = res
        if len(family) != k or any(h.vertices != frozenset(range(n)) or h.r != 3 for h in family + pruned):
            return "family members are not 3-graphs on 0..n-1"
        return oracle.prune_problem(_edge_sets(family), _edge_sets(pruned), t)

    for s in inp["families"]:
        def prune(s=s):
            family = rl.sample_family(n, prob, k, s)
            return family, rl.prune(family, t)

        p.op("prune", prune, pruned_ok)

    p.op("expectation_report", lambda: rl.expectation_report(**REPORT, seed=inp["report"]),
         lambda rep: oracle.expectation_problem(rep, **REPORT))

    for cols in inp["k6"]:
        p.op("fact_K6", lambda cols=cols: rl.fact_count_bound(EdgeColoring(2, dict(zip(K6_PAIRS, cols))), 3),
             lambda rep, cols=cols: oracle.fact_report_problem(
                 rep, 6, 2, oracle.mono_counts(6, 2, dict(zip(K6_PAIRS, cols)), 3)))

    k7_pairs = set(itertools.combinations(range(7), 2))

    def k7_ok(res) -> str | None:
        psi, rep = res
        col = psi.assignment
        if set(col) != k7_pairs or not set(col.values()) <= {1, 2}:
            return "random colouring does not 2-colour every pair of K_7"
        return oracle.fact_report_problem(rep, 7, 2, oracle.mono_counts(7, 2, col, 3))

    for s in inp["k7"]:
        def k7(s=s):
            psi = rl.random_complete_graph_coloring(7, 2, s)
            return psi, rl.fact_count_bound(psi, 3)

        p.op("fact_K7", k7, k7_ok)

    def propb_ok(res) -> str | None:
        family, verdict = res
        truth = oracle.property_b(PROPB["n"], _edge_sets(family), PROPB["t"])
        return None if verdict == truth else f"verdict {verdict}, recomputed {truth}"

    for s in inp["propb"]:
        def propb(s=s):
            family = rl.sample_family(PROPB["n"], PROPB["p"], 2, s)
            return family, rl.property_b_toy_check(family, PROPB["t"])

        p.op("property_b", propb, propb_ok)
