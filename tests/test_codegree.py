"""Partition hosts, forced apex patterns, greedy coloring extension."""

import dataclasses
import itertools
import random
import time
from fractions import Fraction
from math import comb

import pytest

from ramsey3 import BudgetExceeded, EdgeColoring, Hypergraph, check_free
from ramsey3.codegree import (
    BLUE,
    RED,
    apex_bundle,
    augment_apex_pair,
    build_partition_host,
    clique_count_formula,
    count_host_cliques,
    extend_coloring_lower_bound,
    forced_pattern_check,
    random_coloring_expectation,
    verify_s22_zero_step,
)
from ramsey3.hypercore import codegree, induced
import ramsey3.colorengine as colorengine

from _oracles import brute_cliques, brute_mono_cliques, random_extension_instance


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


def test_host_alone_does_not_arrow():
    v = verify_s22_zero_step(build_partition_host(4))
    assert v.arrows is False
    assert v.status == "complete"
