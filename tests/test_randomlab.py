"""Seeded sampling, pruning, counting bounds, expectation reports."""

import hashlib
import itertools
import json
import random
from fractions import Fraction

import pytest

from ramsey3 import BudgetExceeded, EdgeColoring, Hypergraph, enumerate_cliques
from ramsey3.randomlab import (
    compute_bad_edges,
    count_bad_supported,
    count_supported_cliques,
    derive_seed,
    expectation_report,
    fact_count_bound,
    paper_scale_params,
    property_b_toy_check,
    prune,
    random_complete_graph_coloring,
    sample_family,
    sample_h3,
)

from _oracles import brute_cliques


# -- seeding and sampling -------------------------------------------------

def test_derive_seed_stable_and_distinct():
    a = derive_seed("run", 1)
    assert a == derive_seed("run", 1)
    assert a != derive_seed("run", 2)
    assert a != derive_seed("run", "1x")
    assert 0 <= a < 2**64
    assert a == 12469126710364362097


@pytest.mark.parametrize("parts", [("run", 1), (7, "member", 0), (0,), ("trial", -3, "x", 2**70), ("ü", "")])
def test_derive_seed_matches_hashlib_blake2b(parts):
    # every sampled family hangs on these values, whichever module supplies blake2b
    text = "/".join(map(str, parts)).encode("utf-8")
    assert derive_seed(*parts) == int.from_bytes(hashlib.blake2b(text, digest_size=8).digest(), "big")


def test_sample_h3_endpoints():
    assert sample_h3(8, 0.0, 1).num_edges == 0
    assert sample_h3(8, 1.0, 1).edges == Hypergraph.complete(8, 3).edges


def test_sample_h3_equals_build_form():
    for n in (0, 3, 7, 12):
        for p in (0.0, 0.3, 1.0):
            for seed in range(10):
                rng = random.Random(seed)
                edges = [e for e in itertools.combinations(range(n), 3) if rng.random() < p]
                h = sample_h3(n, p, seed)
                assert h == Hypergraph.build(3, edges, vertices=range(n))
                assert vars(h).keys() == {"r", "vertices", "edges"}


def test_sample_h3_deterministic():
    a = sample_h3(12, 0.3, 77)
    assert a == sample_h3(12, 0.3, 77)
    assert a != sample_h3(12, 0.3, 78)
    assert a.vertices == frozenset(range(12))


def test_sample_family_members_differ():
    fam = sample_family(12, 0.3, 3, 5)
    assert len(fam) == 3
    assert len({f.edges for f in fam}) == 3
    assert fam == sample_family(12, 0.3, 3, 5)


def test_random_pair_coloring_total():
    psi = random_complete_graph_coloring(7, 3, 9)
    assert set(psi.assignment) == set(itertools.combinations(range(7), 2))
    assert set(psi.assignment.values()) <= {1, 2, 3}
    assert psi == random_complete_graph_coloring(7, 3, 9)


def test_random_pair_coloring_draws_as_randrange():
    # the colors come from getrandbits, drawn exactly as randrange(k) draws them,
    # so every seeded coloring is the one randrange gave
    for k in range(1, 6):
        for n in range(2, 9):
            for seed in range(100):
                rng = random.Random(seed)
                want = {pair: rng.randrange(k) + 1 for pair in itertools.combinations(range(n), 2)}
                assert dict(random_complete_graph_coloring(n, k, seed).assignment) == want, (n, k, seed)


# -- pruning ---------------------------------------------------------------

def quad_edges(q):
    return list(itertools.combinations(q, 3))


def test_bad_edges_by_hand():
    # [DERIVED] member 1 holds a 4-clique and one stray edge, member 2
    # shares one of the clique edges
    h1 = Hypergraph.build(3, quad_edges((0, 1, 2, 3)) + [(1, 2, 4)],
                          vertices=range(5))
    h2 = Hypergraph.build(3, [(0, 1, 2)], vertices=range(5))
    bad1, bad2 = compute_bad_edges((h1, h2), 4)
    assert bad1 == frozenset({(0, 1, 2), (0, 1, 3), (0, 2, 3), (1, 2, 3)})
    assert bad2 == frozenset({(0, 1, 2)})


def test_prune_by_hand():
    h1 = Hypergraph.build(3, quad_edges((0, 1, 2, 3)) + [(1, 2, 4)],
                          vertices=range(5))
    h2 = Hypergraph.build(3, [(0, 1, 2)], vertices=range(5))
    p1, p2 = prune((h1, h2), 4)
    assert p1.edges == frozenset({(1, 2, 4)})
    assert p2.edges == frozenset()
    assert p1.vertices == h1.vertices


def test_prune_random_invariants():
    for i in range(20):
        fam = prune(sample_family(13, 0.3, 2, derive_seed("pr", i)), 4)
        for m in fam:
            assert not enumerate_cliques(m, 4)
        for x, y in itertools.combinations(fam, 2):
            assert not (x.edges & y.edges)


def test_prune_rejects_mixed_vertex_sets():
    h1 = Hypergraph.build(3, [(0, 1, 2)], vertices=range(4))
    h2 = Hypergraph.build(3, [(0, 1, 2)], vertices=range(5))
    with pytest.raises(ValueError):
        compute_bad_edges((h1, h2), 4)


# -- supported cliques ------------------------------------------------------

def test_count_supported_by_hand():
    # [DERIVED] all-one pair coloring supports every triple as color 1
    h = Hypergraph.complete(4, 3)
    pairs = dict.fromkeys(itertools.combinations(range(4), 2), 1)
    psi = EdgeColoring(2, pairs)
    assert count_supported_cliques(h, psi, 1, 4) == 4
    assert count_supported_cliques(h, psi, 2, 4) == 0
    # only the pairs inside {0,1,2} in color 1: one supported triple
    mixed = {p: (1 if set(p) <= {0, 1, 2} else 2) for p in pairs}
    assert count_supported_cliques(h, EdgeColoring(2, mixed), 1, 4) == 1


def test_count_bad_supported_sums_members():
    h = Hypergraph.complete(4, 3)
    pairs = dict.fromkeys(itertools.combinations(range(4), 2), 1)
    psi = EdgeColoring(2, pairs)
    assert count_bad_supported((h, h), psi, 4) == 4
    with pytest.raises(ValueError):
        count_bad_supported((h,), psi, 4)


def test_property_b_toy():
    # [KNOWN] every 2-coloring of the 15 pairs of a 6-set has a
    # monochromatic triangle, so two complete members always lose
    k6 = Hypergraph.complete(6, 3)
    assert property_b_toy_check((k6, k6), 4) is True
    # [DERIVED] a 4-set admits a triangle-free 2-coloring
    k4 = Hypergraph.complete(4, 3)
    assert property_b_toy_check((k4, k4), 4) is False
    with pytest.raises(BudgetExceeded):
        property_b_toy_check((k6, k6), 4, budget=10)


# -- the counting bound --------------------------------------------------------

def all_one_coloring(n):
    return EdgeColoring(
        2, dict.fromkeys(itertools.combinations(range(n), 2), 1))


def test_fact_bound_all_one():
    # [DERIVED] bound 6^3/(2*6^3) = 1/2, color one holds all 20 triangles
    rep = fact_count_bound(all_one_coloring(6), 3)
    assert rep.r == 6 and rep.bound == Fraction(1, 2)
    assert rep.counts == (20, 0) and rep.best == 20
    assert rep.ok


def test_fact_bound_k7_value():
    rep = fact_count_bound(all_one_coloring(7), 3)
    assert rep.bound == Fraction(343, 432)
    assert rep.ok


def test_fact_bound_random_sample():
    for i in range(200):
        psi = random_complete_graph_coloring(6, 2, derive_seed("fb", i))
        assert fact_count_bound(psi, 3).ok


@pytest.mark.parametrize("k, ell, r", [(2, 3, 6), (3, 3, 17), (2, 4, 18)], ids=["3-2", "3-3", "4-2"])
def test_fact_bound_counts_match_brute_force(k, ell, r):
    # every exact entry, at n = r..r+2; ids read ell-k
    for i in range(9):
        n = r + i % 3
        psi = random_complete_graph_coloring(n, k, derive_seed("fb-brute", k, ell, i))
        want = [0] * k
        for q in itertools.combinations(range(n), ell):
            cols = {psi.assignment[pq] for pq in itertools.combinations(q, 2)}
            if len(cols) == 1:
                want[cols.pop() - 1] += 1
        rep = fact_count_bound(psi, ell)
        assert rep.r == r
        assert rep.counts == tuple(want) and rep.best == max(want)
        assert rep.bound == Fraction(n**ell, k * r**ell)
        assert rep.ok == (max(want) >= rep.bound)


def test_fact_bound_validation():
    with pytest.raises(ValueError):
        fact_count_bound(all_one_coloring(5), 3)  # below the Ramsey number
    missing = dict.fromkeys(itertools.combinations(range(6), 2), 1)
    missing.pop((0, 1))
    with pytest.raises(ValueError):
        fact_count_bound(EdgeColoring(2, missing), 3)
    shifted = dict.fromkeys(itertools.combinations(range(1, 7), 2), 1)
    with pytest.raises(ValueError):
        fact_count_bound(EdgeColoring(2, shifted), 3)
    with pytest.raises(ValueError):
        fact_count_bound(all_one_coloring(6), 1)


K6 = list(itertools.combinations(range(6), 2))


@pytest.mark.parametrize("keys, message", [
    (K6[1:], "need all 15 pairs of 0..5 colored"),  # (0, 1) missing
    (K6[1:] + [(0, 6)], "need all 21 pairs of 0..6 colored"),  # C(6, 2) pairs, not those of 0..5
    (list(itertools.combinations(range(1, 7), 2)), "pair coloring must live on vertices 0..n-1"),
    (list(itertools.combinations(range(5), 3)), "need all 10 pairs of 0..4 colored"),  # C(5, 3) == C(5, 2)
    (K6 + [(0, 1, 2)], "need all 15 pairs of 0..5 colored"),
    # no pair at all: n = 0, below r_2(3) = 6.  The id is the case's old name, from before the ell range check went.
    pytest.param([], "bound needs n >= 6: no 6-subset exists below that", id="keys5-ell must lie in 2..n"),
    ([(0, 1), (0, 3), (1, 3)], "pair coloring must live on vertices 0..n-1"),  # n = 4 by the largest id
    ([(0, 1, 2)] + list(itertools.combinations(range(5), 2))[1:], "need all 10 pairs of 0..4 colored"),  # C(5, 2) keys, one a triple
    # every pair of 0..5 in three colors passes the domain check; r_3(3) = 17 stops it.
    # The id is the case's old name, from before r_3(3) had an exact entry.
    pytest.param(EdgeColoring(3, {p: 1 + i % 3 for i, p in enumerate(K6)}), "bound needs n >= 17: no 17-subset exists below that",
                 id="keys8-no exact Ramsey entry for k=3, ell=3"),
    # r_4(3) is not known exactly
    (EdgeColoring(4, {p: 1 + i % 4 for i, p in enumerate(K6)}), "no exact Ramsey entry for k=4, ell=3"),
])
def test_fact_bound_messages(keys, message):
    # a case may give its own coloring, to use more than two colors
    psi = keys if isinstance(keys, EdgeColoring) else EdgeColoring(2, dict.fromkeys(keys, 1))
    with pytest.raises(ValueError) as err:
        fact_count_bound(psi, 3)
    assert str(err.value) == message


def test_prune_and_fact_reports_pinned():
    # 200 seeded families with their pruned members, and 200 pair colorings of
    # K_6..K_9 with their reports; digest taken before the bulk checks
    digest = hashlib.sha256()
    for i in range(200):
        family = sample_family(15, 0.25, 2, derive_seed("pin", i))
        for h in family + prune(family, 4):
            digest.update(json.dumps(sorted(h.edges)).encode())
        rep = fact_count_bound(random_complete_graph_coloring(6 + i % 4, 2, derive_seed("pin", "psi", i)), 3)
        digest.update(json.dumps([rep.n, rep.ell, rep.k, rep.r, str(rep.bound), rep.counts, rep.best, rep.ok]).encode())
    assert digest.hexdigest()[:12] == "d2f28f2904d4"


# -- expectation reports ------------------------------------------------------

def test_expectation_report_ok():
    rep = expectation_report(10, 0.3, 4, 2, 60, derive_seed("er", 1))
    assert rep.ok and len(rep.checks) == 3
    assert {c.name for c in rep.checks} == {"edges", "shared-edges", "cliques"}
    again = expectation_report(10, 0.3, 4, 2, 60, derive_seed("er", 1))
    assert [c.observed for c in again.checks] == [c.observed for c in rep.checks]


def test_expectation_report_degenerate_p():
    rep = expectation_report(8, 0.0, 4, 2, 30, 3)
    assert rep.ok
    for c in rep.checks:
        assert c.observed == 0 and c.expected == 0 and c.se == 0


def test_expectation_report_validation():
    with pytest.raises(ValueError):
        expectation_report(8, 0.3, 4, 2, 10, 3)
    with pytest.raises(ValueError):
        expectation_report(8, 0.3, 4, 1, 30, 3)


# -- scale parameters ----------------------------------------------------------

def test_paper_scale_params_k2_t4():
    p = paper_scale_params(2, 4)
    assert p.log2_n == 5120
    assert p.log2_C == 50
    assert p.log2_p == -5070
    assert p.log2_f == -32
    assert p.f == Fraction(1, 2**32)


def test_paper_scale_params_k3_t5():
    p = paper_scale_params(3, 5)
    assert p.log2_n == 18750
    assert p.log2_C == 60
    assert p.log2_p == 60 - Fraction(112500, 12)
    assert p.log2_f == -75


def test_paper_scale_params_validation():
    with pytest.raises(ValueError):
        paper_scale_params(1, 4)
    with pytest.raises(ValueError):
        paper_scale_params(2, 3)
