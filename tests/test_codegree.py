"""Partition hosts, forced apex patterns, greedy coloring extension."""

import dataclasses
import itertools
import random
import time
import tracemalloc
from fractions import Fraction
from math import comb

import pytest

from ramsey3 import BudgetExceeded, EdgeColoring, Hypergraph, arrows, check_free
from ramsey3.codegree import (
    BLUE,
    RED,
    apex_bundle,
    augment_apex_pair,
    build_partition_host,
    clique_count_formula,
    count_host_cliques,
    expectation_denominator_log2,
    extend_coloring_lower_bound,
    forced_pattern_check,
    random_coloring_expectation,
)
from ramsey3.hypercore import codegree, induced
import ramsey3.colorengine as colorengine

from _oracles import brute_cliques, brute_mono_cliques, random_extension_instance, scan_extension


# -- host construction ---------------------------------------------------

def test_host4_exact():
    # [DERIVED] parts {0,1} and {2,3}; only apex triples exist, the four
    # same-part ones blue and the eight crossing ones red
    host = build_partition_host(4)
    assert host.h.num_vertices == 6
    assert (host.a, host.b) == (4, 5)
    assert host.parts == (frozenset({0, 1}), frozenset({2, 3}))
    assert host.h.num_edges == 12
    blue = {e for e, c in host.coloring.assignment.items() if c == BLUE}
    assert blue == {(0, 1, 4), (0, 1, 5), (2, 3, 4), (2, 3, 5)}
    assert codegree(host.h, host.a, host.b) == 0
    assert check_free(host.h, host.coloring, 4) == []


def test_host5_counts():
    # [DERIVED] 2*C(9,2) apex triples + 3 in-part + 27 transversal
    host = build_partition_host(5)
    assert host.h.num_vertices == 11
    assert host.h.num_edges == 72 + 3 + 27
    assert codegree(host.h, host.a, host.b) == 0
    assert check_free(host.h, host.coloring, 5) == []


def test_host_rejects_small_t():
    with pytest.raises(ValueError):
        build_partition_host(3)


def test_host10_within_time():
    # the host's freeness check once walked all 2 * 8^8 red K_9s (about 45 s on 2 cores);
    # the coloring bound settles each color class at its first vertices
    start = time.perf_counter()
    host = build_partition_host(10)
    elapsed = time.perf_counter() - start
    assert host.h.num_edges == 2 * comb(64, 2) + 8 * comb(8, 3) + comb(8, 3) * 8 ** 3
    assert elapsed < 10.0, f"took {elapsed:.2f}s, budget 10.0s"


def test_apex_bundle_and_augment():
    host = build_partition_host(4)
    bundle = apex_bundle(host)
    assert len(bundle) == 4
    assert all(set(e) > {host.a, host.b} for e in bundle)
    aug, bundle2 = augment_apex_pair(host)
    assert bundle2 == bundle
    assert aug.num_edges == host.h.num_edges + 4
    assert codegree(aug, host.a, host.b) == 4


def test_host_cliques_match_formula_and_scan():
    # [DERIVED] cliques of the augmented host: each part with the pair,
    # plus each transversal with the pair
    for t in (4, 5):
        host = build_partition_host(t)
        n = count_host_cliques(host)
        assert n == clique_count_formula(t) == (t - 2) + (t - 2) ** (t - 2)
        aug, _ = augment_apex_pair(host)
        assert n == len(brute_cliques(aug, t))


def test_host4_clique_identity_value():
    assert clique_count_formula(4) == 6
    assert clique_count_formula(5) == 30
    assert clique_count_formula(6) == 260


def test_host_restricted_to_part_and_pair():
    # [DERIVED] on {0,1,a,b} the bare host keeps its two blue apex
    # triples, augmentation adds the two bundle edges
    host = build_partition_host(4)
    window = set(host.parts[0]) | {host.a, host.b}
    assert induced(host.h, window).num_edges == 2
    aug, _ = augment_apex_pair(host)
    assert induced(aug, window).num_edges == 4


# -- forced patterns -----------------------------------------------------

def test_forced_pattern_full_bundle():
    host = build_partition_host(4)
    assert forced_pattern_check(host) is True


def test_forced_pattern_no_bundle_fails():
    host = build_partition_host(4)
    assert forced_pattern_check(host, apex_edges=()) is False


def test_forced_pattern_each_deletion_fails():
    host = build_partition_host(4)
    bundle = apex_bundle(host)
    for i in range(len(bundle)):
        rest = bundle[:i] + bundle[i + 1:]
        assert forced_pattern_check(host, apex_edges=rest) is False


def test_forced_pattern_t7_within_time():
    # 2^25 apex colorings: settled by search, never enumerated
    host = build_partition_host(7)
    bundle = apex_bundle(host)
    start = time.perf_counter()
    assert forced_pattern_check(host) is True
    assert forced_pattern_check(host, apex_edges=bundle[1:]) is False
    elapsed = time.perf_counter() - start
    assert elapsed < 20.0, f"took {elapsed:.2f}s, budget 20.0s"


def test_forced_pattern_t8_within_time(monkeypatch):
    # 2^36 apex colorings and 46,662 cliques, both verdicts from the search core
    solves = []

    class Recording(colorengine.SearchCore):
        def solve(self, *args, **kwargs):
            res = super().solve(*args, **kwargs)
            solves.append(res)
            return res

    monkeypatch.setattr(colorengine, "SearchCore", Recording)
    host = build_partition_host(8)
    bundle = apex_bundle(host)
    start = time.perf_counter()
    assert forced_pattern_check(host) is True
    assert forced_pattern_check(host, apex_edges=bundle[:7] + bundle[8:]) is False
    elapsed = time.perf_counter() - start
    assert [res.found for res in solves] == [False, True]
    assert elapsed < 60.0, f"took {elapsed:.2f}s, budget 60.0s"


def test_forced_check_checks_its_coloring(monkeypatch):
    # the unwatched clauses rule out every color of apex triple 0, so the
    # coloring found for the dropped bundle must not come back as "not forced"
    class Injected(colorengine.SearchCore):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            self.clauses += [[1], [2]]

    monkeypatch.setattr(colorengine, "SearchCore", Injected)
    host = build_partition_host(4)
    with pytest.raises(RuntimeError):
        forced_pattern_check(host, apex_edges=apex_bundle(host)[:-1])


def test_forced_pattern_budget():
    host = build_partition_host(5)
    with pytest.raises(BudgetExceeded):
        forced_pattern_check(host, budget=10)


def test_forced_pattern_rejects_foreign_edges():
    host = build_partition_host(4)
    with pytest.raises(ValueError):
        forced_pattern_check(host, apex_edges=((0, 1, 2),))


@pytest.mark.parametrize("change", ["uncolor a host edge", "color an apex triple"])
def test_forced_check_needs_the_host_coloring_on_exactly_the_host(change):
    # the apex triples must be the only free edges of the forced check's core
    host = build_partition_host(4)
    colors = dict(host.coloring.assignment)
    if change == "uncolor a host edge":
        del colors[min(colors)]
    else:
        colors[apex_bundle(host)[0]] = BLUE
    bad = dataclasses.replace(host, coloring=EdgeColoring(2, colors))
    with pytest.raises(ValueError, match="host coloring"):
        forced_pattern_check(bad)


@pytest.fixture
def built_and_solved(monkeypatch):
    """Every SearchCore built for codegree, and every result it solves."""
    built, solves = [], []

    class Recording(colorengine.SearchCore):
        def __init__(self, *args, **kwargs):
            built.append(self)
            super().__init__(*args, **kwargs)

        def solve(self, *args, **kwargs):
            res = super().solve(*args, **kwargs)
            solves.append(res)
            return res

    monkeypatch.setattr(colorengine, "SearchCore", Recording)
    return built, solves


def _tree(res):
    return (res.found, res.nodes, res.propagations, res.conflicts, res.learned, res.restarts)


def test_forced_checks_share_one_core_per_host(built_and_solved):
    # every single drop is the full-bundle core solved with one apex edge off
    built, solves = built_and_solved
    host = build_partition_host(5)
    bundle = apex_bundle(host)
    assert forced_pattern_check(host) is True
    for i in range(len(bundle)):
        assert forced_pattern_check(host, bundle[:i] + bundle[i + 1:]) is False
    assert len(built) == 1 and len(solves) == 10


def test_forced_check_apex_edges_are_a_set(built_and_solved):
    _, solves = built_and_solved
    bundle = apex_bundle(build_partition_host(6))
    shuffled = list(bundle)
    random.Random(6).shuffle(shuffled)
    for edges in (None, shuffled, bundle + bundle[3:5], [e[::-1] for e in bundle]):
        assert forced_pattern_check(build_partition_host(6), edges) is True
    assert _tree(solves[0]) == (False, 126, 403, 64, 63, 0)
    assert [_tree(res) for res in solves[1:]] == [_tree(solves[0])] * 3


def test_forced_check_after_drops_matches_fresh_host(built_and_solved):
    _, solves = built_and_solved
    host = build_partition_host(6)
    bundle = apex_bundle(host)
    for i in range(len(bundle)):
        assert forced_pattern_check(host, bundle[:i] + bundle[i + 1:]) is False
    assert forced_pattern_check(host) is True
    assert forced_pattern_check(build_partition_host(6)) is True
    assert _tree(solves[-2]) == _tree(solves[-1])


def test_forced_check_every_t4_sub_bundle_matches_brute_force():
    # forced iff every 2-coloring of the sub-bundle, with the host colors,
    # leaves a monochromatic K_4 in host + sub-bundle; only the full bundle is
    host = build_partition_host(4)
    bundle = apex_bundle(host)
    forced = []
    for size in range(len(bundle) + 1):
        for sub in itertools.combinations(bundle, size):
            aug = host.h.plus_edges(sub)
            brute = all(
                brute_mono_cliques(aug, {**host.coloring.assignment, **dict(zip(sub, cols))}, 4)
                for cols in itertools.product((BLUE, RED), repeat=size)
            )
            assert forced_pattern_check(host, sub) is brute
            if brute:
                forced.append(sub)
    assert forced == [bundle]


# -- extension -----------------------------------------------------------

def test_extension_on_partial_bundle():
    host = build_partition_host(4)
    bundle = apex_bundle(host)
    h = host.h.plus_edges(bundle[:3])
    cert = extend_coloring_lower_bound(h, host.a, host.b, host.coloring, 4)
    assert cert.u == host.a and cert.v == host.b
    assert check_free(h, cert.extended, 4) == []
    # the uncolored pair edges all got a color, nothing else moved
    for e in host.h.edges:
        assert cert.extended.assignment[e] == host.coloring.assignment[e]
    used = {w for bs in cert.b_sets for w in bs}
    for e in bundle[:3]:
        w = next(x for x in e if x not in (host.a, host.b))
        want = RED if w in used else BLUE
        assert cert.extended.assignment[e] == want


def test_extension_rejects_codegree_at_cap():
    host = build_partition_host(4)
    aug, _ = augment_apex_pair(host)
    with pytest.raises(ValueError):
        extend_coloring_lower_bound(aug, host.a, host.b, host.coloring, 4)


def test_extension_rejects_non_free_partial():
    quads = [(0, 1, 2), (0, 1, 3), (0, 2, 3), (1, 2, 3)]
    h = Hypergraph.build(3, quads + [(0, 4, 5)])
    partial = EdgeColoring(2, dict.fromkeys(quads, BLUE))
    with pytest.raises(ValueError):
        extend_coloring_lower_bound(h, 4, 5, partial, 4)


def test_extension_randomized_sample():
    done = 0
    seed = 0
    while done < 15:
        inst = random_extension_instance(4, 31_000 + seed)
        seed += 1
        if inst is None:
            continue
        h, u, v, partial = inst
        cert = extend_coloring_lower_bound(h, u, v, partial, 4)
        assert check_free(h, cert.extended, 4) == []
        done += 1


@pytest.mark.parametrize("t", [4, 5, 6])
def test_extension_matches_the_subset_scan(t):
    # 200 instances for each s = t-2: the kernel's s-cliques pack as the scan of all s-subsets does
    done = seed = 0
    while done < 200:
        inst = random_extension_instance(t, 47_000 + seed)
        seed += 1
        if inst is None:
            continue
        h, u, v, partial = inst
        cert = extend_coloring_lower_bound(h, u, v, partial, t)
        assert (cert.b_sets, cert.extended.assignment) == scan_extension(h, u, v, partial, t), seed
        done += 1


def _host_but_one_apex_triple(t):
    """The partition host plus every apex triple but the first, with the host coloring."""
    host = build_partition_host(t)
    return host, host.h.plus_edges(apex_bundle(host)[1:])


@pytest.mark.parametrize("t", [4, 5, 6, 7, 8])
def test_extension_matches_the_subset_scan_on_partition_hosts(t):
    host, h = _host_but_one_apex_triple(t)
    cert = extend_coloring_lower_bound(h, host.a, host.b, host.coloring, t)
    assert (cert.b_sets, cert.extended.assignment) == scan_extension(h, host.a, host.b, host.coloring, t)


@pytest.mark.parametrize("t, budget", [(8, 0.5), (9, 5.0), (10, 5.0)])
def test_extension_below_the_threshold_within_time(t, budget):
    # the scan of all (t-2)-subsets took 2-2.6 s at t=8 and would face 73.6 M at t=9, 3.9 G at t=10
    host, h = _host_but_one_apex_triple(t)
    start = time.perf_counter()
    cert = extend_coloring_lower_bound(h, host.a, host.b, host.coloring, t)
    elapsed = time.perf_counter() - start
    assert len(cert.b_sets) == t - 3  # every column but the short one
    assert check_free(h, cert.extended, t) == []
    assert elapsed < budget, f"took {elapsed:.2f}s, budget {budget}s"


def test_extension_rejects_t2():
    h = Hypergraph.build(3, [(0, 2, 3)], vertices=range(4))
    with pytest.raises(ValueError, match=r"codegree 0 not below \(t-2\)\^2 = 0"):
        extend_coloring_lower_bound(h, 0, 1, EdgeColoring(2, {(0, 2, 3): BLUE}), 2)


@pytest.mark.parametrize("t", [1, 0, -3])
def test_extension_rejects_t_below_2(t):
    # (t-2)^2 grows again below t = 2, so the codegree cap alone would let these through
    h = Hypergraph.build(3, [(0, 2, 3)], vertices=range(4))
    with pytest.raises(ValueError, match=rf"t = {t} is below 2"):
        extend_coloring_lower_bound(h, 0, 1, EdgeColoring(2, {(0, 2, 3): BLUE}), t)


def test_extension_at_t3_packs_nothing():
    # codegree below 1 leaves the neighbourhood empty, so the packing is empty
    h = Hypergraph.build(3, [], vertices=range(4))
    cert = extend_coloring_lower_bound(h, 0, 1, EdgeColoring(2, {}), 3)
    assert cert.b_sets == () and dict(cert.extended.assignment) == {}


@pytest.mark.parametrize("t", [8, 9, 10])
def test_extension_on_a_pure_codegree_star_is_small_and_fast(t):
    # h is only the (t-2)^2 - 1 edges through the pair, so every (t-2)-subset of
    # the neighbourhood is blue-spanning: C(35, 6) = 1.6 M of them at t=8, C(48, 7)
    # = 73.6 M at t=9; listing them all took 1.5 s and a 162 MiB traced peak at t=8
    m = (t - 2) ** 2 - 1
    h = Hypergraph.build(3, [(w, m, m + 1) for w in range(m)], vertices=range(m + 2))
    start = time.perf_counter()
    cert = extend_coloring_lower_bound(h, m, m + 1, EdgeColoring(2, {}), t)
    elapsed = time.perf_counter() - start
    assert cert.b_sets == tuple(frozenset(range(i, i + t - 2)) for i in range(0, m - t + 3, t - 2))
    assert elapsed < 0.5, f"took {elapsed:.2f}s"
    tracemalloc.start()
    try:
        extend_coloring_lower_bound(h, m, m + 1, EdgeColoring(2, {}), t)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**20, f"traced peak {peak} bytes"


# -- expectation ---------------------------------------------------------

def test_expectation_exact_values():
    # [DERIVED] 6/2^3 and 30/2^9
    e4 = random_coloring_expectation(4)
    assert e4.value == Fraction(3, 4) and e4.lt_one
    e5 = random_coloring_expectation(5)
    assert e5.value == Fraction(15, 256) and e5.lt_one


def test_expectation_matches_enumeration():
    for t in (4, 5):
        host = build_partition_host(t)
        want = Fraction(count_host_cliques(host), 2 ** (comb(t, 3) - 1))
        assert random_coloring_expectation(t).value == want


def test_expectation_denominator_log2_is_the_reduced_denominator():
    for t in range(4, 60):
        den = random_coloring_expectation(t).value.denominator
        assert den == 1 << expectation_denominator_log2(t), t


def test_host_alone_does_not_arrow():
    host = build_partition_host(4)
    v = arrows(host.h, host.t, 2)
    assert v.arrows is False
    assert v.status == "complete"
