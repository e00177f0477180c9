"""Gadget assembly: senders, rainbow stars, equalizers, distance chains."""

import dataclasses
import hashlib
import itertools
import json
import time

import pytest

import ramsey3.colorengine as colorengine
import ramsey3.gadgets as gadgets
import ramsey3.hypercore as hypercore
from ramsey3 import BudgetExceeded, Hypergraph, PatternSet, fano_plane, is_linear, path_distance
from ramsey3.colorengine import EdgeColoring, admissible_vertex_coloring, check_free
from ramsey3.gadgets import (
    TaggedGadget,
    amplify_distance,
    assemble_signal_sender,
    attach_apex,
    build_BEL,
    build_equalizer,
    build_F_ell,
    build_far_seed,
    build_Hstar,
    build_rainbow,
    find_ell,
    mock_sender,
    verify_clique_block_cover,
)
from ramsey3.hypercore import codegree, degree, enumerate_cliques, induced
from ramsey3.codegree import augment_apex_pair, build_partition_host


C5 = Hypergraph.build(2, [(i, (i + 1) % 5) for i in range(5)])
P11 = PatternSet(2, 2, frozenset({(1, 1)}))


def far_mock(s=7):
    eq = build_equalizer(build_rainbow(2, mock_sender()))
    return amplify_distance(build_far_seed(eq, eq), s)


# -- tagged gadgets ------------------------------------------------------

def test_tagged_gadget_validates_tags():
    h = Hypergraph.build(3, [(0, 1, 2)])
    with pytest.raises(ValueError):
        TaggedGadget(h, e=(0, 1, 3))
    with pytest.raises(ValueError):
        TaggedGadget(h, a=9)
    g = TaggedGadget(h, e=(2, 1, 0), a=0)
    assert g.e == (0, 1, 2)


def test_tagged_gadget_json_round_trip():
    g = mock_sender()
    back = TaggedGadget.from_json_dict(g.to_json_dict())
    assert back.h == g.h
    assert (back.e, back.f, back.s_pair, back.a, back.b) == (
        g.e, g.f, g.s_pair, g.a, g.b)
    # blocks are working data, not part of the wire format
    assert back.blocks == ()


def _equalizer():
    return build_equalizer(build_rainbow(2, mock_sender()))


def _bel4():
    host = build_partition_host(4)
    return build_BEL(host.h, host.coloring, 2, 4, far_mock(), build_rainbow(2, mock_sender()))


BUILDERS = {
    "mock sender": mock_sender,
    "rainbow k=2": lambda: build_rainbow(2, mock_sender()),
    "rainbow k=3": lambda: build_rainbow(3, mock_sender()),
    "equalizer": _equalizer,
    "far seed": lambda: build_far_seed(_equalizer(), _equalizer()),
    "amplified s=7": lambda: far_mock(7),
    "BEL t=4": _bel4,
    "apex": lambda: attach_apex(_equalizer(), (0, 1, 2)),
    "sender": lambda: assemble_signal_sender(*build_Hstar(C5, P11, 2), 5),
}


@pytest.mark.parametrize("name", BUILDERS)
def test_builder_documents_round_trip(name):
    g = BUILDERS[name]()
    # every tag survives the wire format through the one tag table; blocks are not serialized
    doc = g.to_json_dict()
    back = TaggedGadget.from_json_dict(doc)
    assert back == dataclasses.replace(g, blocks=())
    assert json.dumps(back.to_json_dict()) == json.dumps(doc)


def test_mock_sender_shape():
    g = mock_sender()
    assert g.h.num_vertices == 4 and g.h.num_edges == 2
    assert set(g.e) & set(g.f) == set(g.s_pair)
    assert g.a in g.e and g.b in g.f


# -- bundle graphs -------------------------------------------------------

def test_f_prime_counts():
    # [DERIVED] K_6^(3) has 20 triples, 4 of them through the tagged pair
    g = build_F_ell(6, 0)
    assert g.h.num_edges == 16
    assert g.s_pair == (4, 5)
    assert codegree(g.h, 4, 5) == 0
    # [DERIVED] pair case: only the pair edge itself is dropped
    g2 = build_F_ell(6, 0, r=2)
    assert g2.h.num_edges == 14
    assert g2.s_pair not in g2.h.edges


def test_f_ell_restores_prefix():
    base = build_F_ell(6, 0).h.num_edges
    for ell in (1, 2, 3):
        g = build_F_ell(6, ell)
        assert g.h.num_edges == base + ell
        assert codegree(g.h, *g.s_pair) == ell


@pytest.mark.parametrize("m, r", [(m, r) for r in (2, 3) for m in range(r + 1, 9)])
def test_f_ell_is_complete_minus_bundle_suffix(m, r):
    bundle = gadgets._special_bundle(m, r)
    full = Hypergraph.complete(m, r)
    for ell in range(len(bundle) + 1):
        g = build_F_ell(m, ell, r)
        assert g.h.vertices == full.vertices and g.h.edges == full.edges - set(bundle[ell:])
        assert g.s_pair == (m - 2, m - 1)


def test_find_ell_triangle_case():
    # [KNOWN] r_2(3) = 6: at m=6 the full graph arrows, one missing
    # special edge already frees it
    assert find_ell(6, 3, 2, r=2) == 0


def test_find_ell_off_range():
    with pytest.raises(ValueError, match="below"):
        find_ell(5, 3, 2, r=2)
    with pytest.raises(ValueError, match="above"):
        find_ell(7, 3, 2, r=2)


def test_find_ell_budget_none():
    assert find_ell(6, 3, 2, r=2, budget=2) is None


@pytest.mark.parametrize("m", [4, 5, 6])
def test_find_ell_scans_to_the_last_special_edge(m):
    # one color: F_ell has a free coloring until the whole bundle is back,
    # so the scan walks every F_ell and ends one short of K_m
    assert find_ell(m, m, 1) == m - 3


def test_find_ell_builds_one_core(monkeypatch):
    # K_m^(r) once; F' and every F_ell are solves with special edges off
    built = []

    class Counting(colorengine.SearchCore):
        def __init__(self, *args, **kwargs):
            built.append(self)
            super().__init__(*args, **kwargs)

    monkeypatch.setattr(colorengine, "SearchCore", Counting)
    assert find_ell(6, 3, 2, r=2) == 0
    assert len(built) == 1


# -- H* ------------------------------------------------------------------

def test_hstar_c5_exact():
    hs, x, y = build_Hstar(C5, P11, 2)
    assert sorted(hs.edges) == [(0, 4), (1, 2), (1, 5), (2, 3), (3, 4)]
    assert (x, y) == (0, 5)
    assert is_linear(hs)
    assert (x, y) not in hs.edges


def test_hstar_drops_edges_outside_a_minimal_witness():
    # two disjoint C_5's: the greedy pass deletes the first cycle, so H* is the one-cycle result shifted by 5
    two = Hypergraph.build(2, list(C5.edges) + [(u + 5, v + 5) for u, v in C5.edges])
    hs, x, y = build_Hstar(two, P11, 2)
    assert sorted(hs.edges) == [(5, 9), (6, 7), (6, 10), (7, 8), (8, 9)]
    assert (x, y) == (5, 10)


def test_hstar_c5_all_colorings_separate():
    hs, x, y = build_Hstar(C5, P11, 2)
    found = admissible_vertex_coloring(hs, P11, mode="enumerate")
    assert found
    for vc in found:
        assert vc.assignment[x] != vc.assignment[y]


def test_hstar_fano():
    # the plane has no bichromatic-line 2-coloring, the peeled version does
    ps = PatternSet(3, 2, frozenset({(1, 2), (2, 1)}))
    hs, x, y = build_Hstar(fano_plane(), ps, 2)
    assert is_linear(hs)
    assert codegree(hs, x, y) == 0
    found = admissible_vertex_coloring(hs, ps, mode="enumerate")
    assert found
    for vc in found:
        assert vc.assignment[x] != vc.assignment[y]


def test_hstar_rejects_colorable_input():
    path = Hypergraph.build(2, [(0, 1), (1, 2)])
    with pytest.raises(ValueError):
        build_Hstar(path, P11, 2)


def test_hstar_rejects_non_linear():
    h = Hypergraph.build(3, [(0, 1, 2), (0, 1, 3)])
    ps = PatternSet(3, 2, frozenset({(1, 2), (2, 1)}))
    with pytest.raises(ValueError):
        build_Hstar(h, ps, 2)


# -- signal senders ------------------------------------------------------

def test_sender_from_c5_hstar():
    hs, x, y = build_Hstar(C5, P11, 2)
    g = assemble_signal_sender(hs, x, y, 5)
    # [DERIVED] 2 shared + 6 core + 5 blocks x 1 private vertex
    assert g.h.num_vertices == 13
    assert g.s_pair == (6, 7)
    assert g.e != g.f and set(g.e) & set(g.f) == set(g.s_pair)
    assert codegree(g.h, g.a, g.b) == 0
    assert len(g.blocks) == hs.num_edges
    assert verify_clique_block_cover(g, 4)


def test_sender_rejects_small_m():
    hs, x, y = build_Hstar(C5, P11, 2)
    with pytest.raises(ValueError):
        assemble_signal_sender(hs, x, y, 3)


def test_sender_needs_four_block_vertices():
    # the blocks are F_ell copies, and F_ell needs m >= 4: a 1-uniform H*
    # at m=3 once gave bare triples through the shared pair
    h1 = Hypergraph.build(1, [(0,), (1,)])
    with pytest.raises(ValueError, match="at least 4 vertices"):
        assemble_signal_sender(h1, 0, 1, 3)
    g = assemble_signal_sender(h1, 0, 1, 4)
    assert sorted(g.h.edges) == [(0, 2, 3), (0, 2, 4), (0, 3, 4), (1, 2, 3), (1, 2, 5), (1, 3, 5)]
    assert g.blocks == (frozenset({0, 2, 3, 4}), frozenset({1, 2, 3, 5}))


def _digest(doc):
    return hashlib.sha256(json.dumps(doc).encode()).hexdigest()[:12]


def test_sender_documents_pinned():
    # documents of the sender that wrote its block triples by hand
    hs, x, y = build_Hstar(C5, P11, 2)
    assert _digest(assemble_signal_sender(hs, x, y, 5).to_json_dict()) == "223bd3826480"
    hf, xf, yf = build_Hstar(fano_plane(), PatternSet(3, 2, frozenset({(1, 2), (2, 1)})), 2)
    g = assemble_signal_sender(hf, xf, yf, 6)
    assert _digest(g.to_json_dict()) == "c50ce109fd7d"
    assert _digest(sorted(sorted(b) for b in g.blocks)) == "a3620194c061"


def test_clique_block_cover_flags_uncovered():
    two = Hypergraph.build(3, [e for q in ((0, 1, 2, 3), (4, 5, 6, 7))
                               for e in itertools.combinations(q, 3)])
    half = TaggedGadget(two, blocks=(frozenset({0, 1, 2, 3}),))
    assert not verify_clique_block_cover(half, 4)
    both = TaggedGadget(two, blocks=(frozenset({0, 1, 2, 3}),
                                     frozenset({4, 5, 6, 7})))
    assert verify_clique_block_cover(both, 4)


# -- rainbow / equalizer / distance chain --------------------------------

def test_rainbow_counts():
    for k in (2, 3, 4):
        rb = build_rainbow(k, mock_sender())
        assert rb.h.num_vertices == k + 2
        assert len(rb.rainbow) == k
        assert rb.s_pair == (k, k + 1)
        for e in rb.rainbow:
            assert set(rb.s_pair) < set(e)


def test_equalizer_counts():
    for k in (2, 3, 4):
        rb = build_rainbow(k, mock_sender())
        eq = build_equalizer(rb)
        assert eq.h.num_vertices == 2 * rb.h.num_vertices - (k + 1)
        assert len(set(eq.e) & set(eq.f)) == 2
        assert induced(eq.h, set(eq.e) | set(eq.f)).num_edges == 2


def test_far_seed_distance_exact():
    eq = build_equalizer(build_rainbow(2, mock_sender()))
    seed = build_far_seed(eq, eq)
    assert seed.dist == 5
    assert len(set(seed.e) | set(seed.f)) == 5
    assert path_distance(seed.h, seed.e, seed.f) == 5


def test_far_seed_rejects_extra_edges_inside_tags():
    # the equalizer tags pass the same check as a rainbow's sender tags
    eq = build_equalizer(build_rainbow(2, mock_sender()))
    extra = next(g for g in itertools.combinations(sorted(set(eq.e) | set(eq.f)), 3) if g not in eq.h.edges)
    bad = TaggedGadget(h=Hypergraph.build(3, [*eq.h.edges, extra], vertices=eq.h.vertices), e=eq.e, f=eq.f)
    with pytest.raises(ValueError, match="extra edges inside e and f"):
        build_far_seed(bad, eq)


def test_amplify_reaches_target():
    eq = build_equalizer(build_rainbow(2, mock_sender()))
    seed = build_far_seed(eq, eq)
    n0 = seed.h.num_vertices
    amp = amplify_distance(seed, 7, verify=True)
    assert amp.dist >= 7
    # one chain step: the 11-vertex gadget's bound is already 7
    assert amp.h.num_vertices == 2 * n0 - 3
    assert path_distance(amp.h, amp.e, amp.f) >= amp.dist


def test_amplify_noop_when_far_enough():
    eq = build_equalizer(build_rainbow(2, mock_sender()))
    seed = build_far_seed(eq, eq)
    assert amplify_distance(seed, 5) == seed


def test_amplify_rejects_close_pair():
    eq = build_equalizer(build_rainbow(2, mock_sender()))
    with pytest.raises(ValueError, match="at least 5"):
        amplify_distance(eq, 7)


# -- BEL assembly --------------------------------------------------------

def test_bel_on_toy_host():
    host = build_partition_host(4)
    far = far_mock()
    rb = build_rainbow(2, mock_sender())
    g = build_BEL(host.h, host.coloring, 2, 4, far, rb)
    nh = host.h.num_vertices
    # the postconditions read the carrier's edges, not a pair index
    assert "pairs" not in vars(g.h)
    # the original graph sits untouched inside
    assert induced(g.h, range(nh)).edges == host.h.edges
    assert len(g.rainbow) == 2
    expected = nh + rb.h.num_vertices + host.h.num_edges * (far.h.num_vertices - 6)
    assert g.h.num_vertices == expected
    # the forced pair keeps codegree zero
    assert codegree(g.h, host.a, host.b) == 0


def test_bel_document_pinned():
    # the carrier documents at t=4, 5 and 6; a change to the glue, the tags or the
    # postcondition checks of the assembly must leave them as they are
    for t, digest in ((4, "9610a98a7d3e"), (5, "85d89d951411"), (6, "95222045abb4")):
        host = build_partition_host(t)
        g = build_BEL(host.h, host.coloring, 2, t, far_mock(11), build_rainbow(2, mock_sender()))
        assert _digest(g.to_json_dict()) == digest, t


def _bel_with_extra_edges(monkeypatch, h, coloring, extra):
    """build_BEL on h with the edges extra(carrier) added to the glued carrier."""
    far, rb = far_mock(), build_rainbow(2, mock_sender())

    def glue_more(a, b, *copies):
        res = hypercore.glue(a, b, *copies)
        if not copies:  # the rainbow, glued on with no pairs, not the far copies
            return res
        return dataclasses.replace(res, h=res.h.plus_edges(extra(res.h)))

    monkeypatch.setattr(gadgets, "glue", glue_more)
    return build_BEL(h, coloring, 2, 4, far, rb)


def test_bel_rejects_an_edge_through_an_uncovered_host_pair(monkeypatch):
    h = Hypergraph.build(3, [(0, 1, 2), (2, 3, 4), (4, 5, 0)])
    zero = [p for p in itertools.combinations(range(6), 2) if codegree(h, *p) == 0]
    assert (1, 3) in zero and (3, 5) in zero

    def extra(acc):
        w = max(acc.vertices)
        return [(3, 5, w), (1, 3, w - 1)]

    with pytest.raises(AssertionError, match=r"^BEL raised the codegree of host pair \(1, 3\)$"):
        _bel_with_extra_edges(monkeypatch, h, EdgeColoring(2, dict.fromkeys(h.edges, 1)), extra)


def test_bel_rejects_a_new_edge_inside_the_host(monkeypatch):
    # its pairs are uncovered too, but the changed host is named first
    h = Hypergraph.build(3, [(0, 1, 2), (2, 3, 4), (4, 5, 0)])
    with pytest.raises(AssertionError, match=r"^BEL changed the host's induced edges$"):
        _bel_with_extra_edges(monkeypatch, h, EdgeColoring(2, dict.fromkeys(h.edges, 1)), lambda acc: [(1, 3, 5)])


@pytest.mark.parametrize("shape", ["host vertex", "host pair"])
def test_bel_rejects_a_new_vertex_joined_to_the_whole_host(monkeypatch, shape):
    host = build_partition_host(4)
    seen = []

    def extra(acc):
        # the two largest new vertices share an edge with every host vertex, through
        # one host vertex per edge or through the host pairs that host edges cover
        w2, w1 = sorted(acc.vertices)[-2:]
        seen.append(w2)
        if shape == "host vertex":
            return [(u, w2, w1) for u in range(host.h.num_vertices)]
        return [(*p, w) for g in host.h.edges for p in itertools.combinations(g, 2) for w in (w2, w1)]

    with pytest.raises(AssertionError, match="has positive codegree with all of the host") as err:
        _bel_with_extra_edges(monkeypatch, host.h, host.coloring, extra)
    assert str(err.value) == f"new vertex {seen[0]} has positive codegree with all of the host"


def test_bel_rejects_a_coloring_of_a_non_edge():
    host = build_partition_host(4)
    outside = next(g for g in itertools.combinations(range(host.h.num_vertices), 3) if g not in host.h.edges)
    colors = {**host.coloring.assignment, outside: 1}
    with pytest.raises(ValueError, match="outside the host"):
        build_BEL(host.h, EdgeColoring(2, colors), 2, 4, far_mock(), build_rainbow(2, mock_sender()))


def test_sparse_carrier_cliques_within_budget():
    # the t=5 carrier: 1,341 vertices but only 1,634 edges
    host = build_partition_host(5)
    far = far_mock(11)
    assert far.h.num_vertices == 19
    g = build_BEL(host.h, host.coloring, 2, 5, far, build_rainbow(2, mock_sender()))
    assert (g.h.num_vertices, g.h.num_edges) == (1341, 1634)
    t0 = time.perf_counter()
    k4s = enumerate_cliques(g.h, 4)
    triangles = enumerate_cliques(g.h, 3)
    elapsed = time.perf_counter() - t0
    assert len(k4s) == 60 and len(triangles) == 1634
    assert sorted(triangles) == sorted(g.h.edges)
    assert elapsed < 5.0, f"took {elapsed:.2f}s, budget 5.0s"


def test_bel_rejects_close_far_gadget():
    host = build_partition_host(4)
    rb = build_rainbow(2, mock_sender())
    eq = build_equalizer(rb)
    seed = build_far_seed(eq, eq)  # distance 5 < 7
    with pytest.raises(ValueError, match="at least 7"):
        build_BEL(host.h, host.coloring, 2, 4, seed, rb)


# the 6-vertex path 012, 123, 234, 345: its end edges sit at distance 6
FORGED_FAR = TaggedGadget(h=Hypergraph.build(3, [(0, 1, 2), (1, 2, 3), (2, 3, 4), (3, 4, 5)]),
                          e=(0, 1, 2), f=(3, 4, 5), dist=7)


def test_bel_rejects_a_forged_dist_tag():
    assert path_distance(FORGED_FAR.h, FORGED_FAR.e, FORGED_FAR.f) == 6
    host = build_partition_host(4)
    with pytest.raises(ValueError, match="far gadget tags must sit at distance at least 7"):
        build_BEL(host.h, host.coloring, 2, 4, FORGED_FAR, build_rainbow(2, mock_sender()))


def test_amplify_certifies_the_base_whatever_its_tag():
    # the tag claims 7, so a chain that trusted it would stop at once
    amp = amplify_distance(FORGED_FAR, 7)
    assert amp.dist == 7 and amp.h.num_vertices > FORGED_FAR.h.num_vertices
    assert path_distance(amp.h, amp.e, amp.f) >= 7


@pytest.mark.parametrize("t, n, m", [(4, 70, 98), (5, 525, 818), (6, 2582, 4098)])
def test_default_carrier_sizes(t, n, m):
    # the default far gadget: amplify_distance(seed, 7) stops at 11 vertices
    far = far_mock()
    assert (far.h.num_vertices, far.dist) == (11, 7)
    host = build_partition_host(t)
    g = build_BEL(host.h, host.coloring, 2, t, far, build_rainbow(2, mock_sender()))
    assert (g.h.num_vertices, g.h.num_edges) == (n, m)


def test_bel_rejects_non_free_coloring():
    # the bare host has no 4-cliques, so augment first to get some
    aug, _ = augment_apex_pair(build_partition_host(4))
    bad = EdgeColoring(2, dict.fromkeys(aug.edges, 1))
    assert check_free(aug, bad, 4)
    with pytest.raises(ValueError):
        build_BEL(aug, bad, 2, 4, far_mock(), build_rainbow(2, mock_sender()))


def test_bel_rejects_coloring_with_more_colors():
    host = build_partition_host(4)
    colors = dict(host.coloring.assignment)
    colors[min(colors)] = 3
    with pytest.raises(ValueError, match="3 colors"):
        build_BEL(host.h, EdgeColoring(3, colors), 2, 4, far_mock(), build_rainbow(2, mock_sender()))


# -- apex ----------------------------------------------------------------

def test_attach_apex():
    g = TaggedGadget(Hypergraph.build(3, [(0, 1, 2)]))
    out = attach_apex(g, (0, 1, 2))
    assert out.apex == 3
    assert out.h.num_edges == 1 + 3
    assert {(0, 1, 3), (0, 2, 3), (1, 2, 3)} <= out.h.edges
    assert codegree(out.h, 0, 3) == 2


def test_attach_apex_needs_two():
    g = TaggedGadget(Hypergraph.build(3, [(0, 1, 2)]))
    with pytest.raises(ValueError):
        attach_apex(g, (0,))
