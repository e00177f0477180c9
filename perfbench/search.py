"""search: in-process library calls that decide colouring questions.

colorengine and codegree do almost all the work here, on satisfiable and
refuted instances alike; cliques are enumerated once per instance and
nothing is glued.  Every search call has the same node budget.
"""

from __future__ import annotations

import itertools

import oracle
from bench import Pass, Undecided, fresh_import

MODULES = ("ramsey3.hypercore", "ramsey3.colorengine", "ramsey3.codegree", "ramsey3.randomlab")
BUDGET = 1_000_000  # search nodes per call; K_8^(3) needs 904,074
LADDER = range(5, 10)  # free 2-colourings of K_n^(3) with t=4; R(4,4;3) = 13
FORCED_T = range(4, 8)  # forced check on the partition host, full apex bundle
DROP_T = range(4, 7)  # ... and with each single apex edge dropped
BRUTE_T = (4, 5)  # verdicts cross-checked by brute force
CNF_N = (8, 9)
# The >1,000-edge 3-graph does not depend on --seed: deciding it fails
# every time (the search recurses once per edge).
BIG = dict(n=23, p=0.6, seed=20150205, t=6)
PASS_S = 15.0  # nominal seconds of one pass


def setup(rng, work) -> tuple:
    rc = fresh_import(MODULES)
    return rc, make_inputs(rc, rng)


def make_inputs(rc, rng) -> dict:
    """Instances of one pass; the seed orders each apex bundle."""
    complete = rc.hypercore.Hypergraph.complete
    return {
        "ladder": {n: complete(n, 3) for n in LADDER},
        "k9_2": complete(9, 2),
        "k10_2": complete(10, 2),
        "k6_2": complete(6, 2),
        "k8_3": complete(8, 3),
        "orders": {t: rng.sample(range((t - 2) ** 2), (t - 2) ** 2) for t in FORCED_T},
    }


def _found(res, r: int, edges, t: int, k: int):
    """Judge a SearchResult for an instance known to have a free colouring."""
    if res.found is None:
        raise Undecided(f"undecided after {res.nodes} nodes")
    if not res.found:
        return "reported no free colouring, but one exists"
    return oracle.colouring_problem(r, edges, res.coloring.assignment, t, k)


def _host(host) -> tuple:
    colours = host.coloring.assignment
    problem = oracle.host_problem(host.t, host.parts, host.a, host.b, host.h.edges, colours)
    return problem, colours


def run_pass(p: Pass, rc, inp: dict) -> None:
    ce, cd, rl = rc.colorengine, rc.codegree, rc.randomlab

    free_n = 0
    for n, h in inp["ladder"].items():
        edges = list(itertools.combinations(range(n), 3))
        if p.op(f"free_K{n}_3", lambda h=h: ce.find_free_coloring(h, 4, 2, budget=BUDGET),
                lambda res, edges=edges: _found(res, 3, edges, 4, 2)) is not None:
            free_n = n
    p.extra["free_n_max"] = free_n

    # r(3,3,3) = 17, so K_9 has a triangle-free 3-colouring
    p.op("free_K9_2_k3", lambda: ce.find_free_coloring(inp["k9_2"], 3, 3, budget=BUDGET),
         lambda res: _found(res, 2, inp["k9_2"].edges, 3, 3))

    def minimal(g) -> str | None:
        if not g.edges <= inp["k10_2"].edges:
            return "output is not a subgraph of the input"
        return oracle.minimal_arrowing_problem(2, g.edges, 3, 2)

    p.op("minimalize_K10_2", lambda: ce.minimalize(inp["k10_2"], 3, 2, budget=BUDGET), minimal)

    def is_minimal(verdict) -> str | None:
        if verdict is None:
            raise Undecided("undecided within budget")
        truth = oracle.minimal_arrowing_problem(2, inp["k6_2"].edges, 3, 2) is None
        return None if verdict == truth else f"verdict {verdict}, brute force says {truth}"

    p.op("is_minimal_K6_2", lambda: ce.is_minimal_ramsey(inp["k6_2"], 3, 2, budget=BUDGET), is_minimal)

    k8 = inp["k8_3"]

    def patterns(ps) -> str | None:
        if not ps.complete:
            raise Undecided("pattern scan ran out of budget")
        specials = [e for e in k8.edges if 6 in e and 7 in e]
        if ps.ell != len(specials) or not ps.patterns:
            return f"ell={ps.ell} with {len(ps.patterns)} patterns"
        for pat in ps.patterns:
            if any(q not in ps.patterns for q in itertools.permutations(pat)):
                return f"pattern set is not closed under colour permutation at {pat}"
            w = ps.witnesses.get(pat)
            if w is None:
                return f"pattern {pat} has no witness"
            got = tuple(sum(1 for e in specials if w.assignment[e] == c) for c in (1, 2))
            if got != pat:
                return f"witness of {pat} realises {got}"
            problem = oracle.colouring_problem(3, k8.edges, w.assignment, 4, 2)
            if problem:
                return f"witness of {pat}: {problem}"
        return None

    p.op("admissible_K8_3", lambda: ce.admissible_patterns(k8, 6, 7, 4, 2, budget=BUDGET), patterns)

    forced_t = 0
    for t in FORCED_T:
        def full(t=t):
            host = cd.build_partition_host(t)
            bundle = cd.apex_bundle(host)
            order = [bundle[i] for i in inp["orders"][t]]
            return host, order, cd.forced_pattern_check(host, order)

        def full_ok(res, t=t) -> str | None:
            host, order, forced = res
            problem, colours = _host(host)
            if problem:
                return problem
            if forced is not True:
                return f"full bundle reported not forced at t={t}"
            if t in BRUTE_T and not oracle.forced_by_brute(t, colours, order):
                return "brute force finds an apex colouring with no monochromatic K_t"
            return None

        got = p.op(f"forced_t{t}", full, full_ok)
        if got is None:
            continue
        forced_t = t
        if t not in DROP_T:
            continue
        host, order, _ = got
        for i in range(len(order)):
            rest = order[:i] + order[i + 1:]

            def dropped_ok(forced, t=t, rest=rest) -> str | None:
                if forced is not False:
                    return f"still forced at t={t} with an apex edge dropped"
                if t in BRUTE_T and oracle.forced_by_brute(t, host.coloring.assignment, rest):
                    return "brute force says the smaller bundle is still forced"
                return None

            p.op(f"forced_t{t}_drop", lambda rest=rest: cd.forced_pattern_check(host, rest), dropped_ok)
    p.extra["forced_t_max"] = forced_t

    for n in CNF_N:
        h = inp["ladder"][n]

        def cnf(h=h):
            doc = ce.export_cnf(h, 4, 2)
            model = ce.solve_cnf(doc)
            return doc, None if model is None else doc.decode(model)

        def cnf_ok(res, h=h) -> str | None:
            _, col = res
            if col is None:
                return "CNF reported unsatisfiable, but a free colouring exists"
            return oracle.colouring_problem(3, h.edges, col.assignment, 4, 2)

        p.op(f"cnf_K{n}_3", cnf, cnf_ok)

    def big():
        h = rl.sample_h3(BIG["n"], BIG["p"], BIG["seed"])
        return h, ce.find_free_coloring(h, BIG["t"], 2, budget=BUDGET)

    def big_ok(res) -> str | None:
        h, found = res
        if found.found is False:
            witness = oracle.find_free_colouring(3, h.edges, BIG["t"], 2)
            return None if witness is None else "reported no free colouring, but one exists"
        return _found(found, 3, h.edges, BIG["t"], 2)

    p.op("free_big_3graph", big, big_ok)
