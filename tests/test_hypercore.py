"""Hypergraph model: construction, degrees, cliques, distance, gluing."""

import gc
import itertools
import math
import random
import weakref

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ramsey3 import (
    GlueMap,
    Hypergraph,
    degree,
    disjoint_union,
    enumerate_cliques,
    fano_plane,
    from_json_dict,
    glue,
    induced,
    is_linear,
    link,
    min_ell_degree,
    min_positive_codegree,
    path_distance,
    to_json_dict,
)
from ramsey3.colorengine import EdgeColoring, VertexColoring
from ramsey3.gadgets import TaggedGadget, attach_apex
from ramsey3.hypercore import canon_edge, codegree

from _oracles import brute_cliques, random_small_hypergraph


def seeded_inputs(seed):
    """The small oracle input, a dense 3-graph and a larger sparse one."""
    rng = random.Random(seed)

    def sample(n, p):
        triples = [e for e in itertools.combinations(range(n), 3) if rng.random() < p]
        return Hypergraph.build(3, triples, vertices=range(n))

    return [random_small_hypergraph(seed), sample(rng.randrange(6, 10), 0.7),
            sample(rng.randrange(14, 21), 0.06)]


# -- construction ------------------------------------------------------

def test_build_canonicalizes_edges():
    h = Hypergraph.build(3, [(2, 0, 1), (0, 1, 2), (3, 1, 0)])
    assert h.edges == {(0, 1, 2), (0, 1, 3)}
    assert h.vertices == {0, 1, 2, 3}
    assert h.num_edges == 2


def test_build_rejects_bad_edges():
    with pytest.raises(ValueError):
        Hypergraph.build(3, [(0, 1)])
    with pytest.raises(ValueError):
        Hypergraph.build(3, [(0, 1, 1)])


def test_isolated_vertices_allowed():
    h = Hypergraph.build(3, [(0, 1, 2)], vertices=range(5))
    assert h.num_vertices == 5
    assert link(h, 4).num_edges == 0


def test_complete_counts():
    # [TRIVIAL] C(n, r) edges
    assert Hypergraph.complete(6, 2).num_edges == 15
    assert Hypergraph.complete(6, 3).num_edges == 20
    assert Hypergraph.complete(5, 3).num_edges == 10


def test_canon_edge():
    assert canon_edge((2, 0, 1)) == (0, 1, 2)
    with pytest.raises(ValueError):
        canon_edge((0, 0, 1))
    with pytest.raises(TypeError):
        canon_edge((0, 1.7, 2))
    with pytest.raises(TypeError):
        Hypergraph.build(3, [(0, 1.7, 2)])


@pytest.mark.parametrize("call", [
    lambda: Hypergraph.build(3, [], vertices=[0.5, 2.9]),
    lambda: induced(Hypergraph.complete(5, 3), [0, 1.5, 2]),
    lambda: degree(Hypergraph.complete(5, 3), [0, 1.5]),
    lambda: GlueMap.of([(0.7, 1.2)]),
    lambda: attach_apex(TaggedGadget(Hypergraph.complete(4, 3)), [0, 1.5, 2]),
], ids=["build", "induced", "degree", "GlueMap.of", "attach_apex"])
def test_float_vertex_ids_rejected(call):
    # a float id is an error, as in canon_edge, never truncated to an int
    with pytest.raises(TypeError):
        call()


def test_minus_plus_edges():
    h = Hypergraph.complete(4, 3)
    g = h.minus_edge((1, 2, 3))
    assert g.num_edges == 3 and g.num_vertices == 4
    assert g.plus_edges([(3, 2, 1)]) == h


# -- links and degrees -------------------------------------------------

def test_link_of_complete():
    # [DERIVED] link of any vertex in K_5^(3) is the complete graph K_4
    lk = link(Hypergraph.complete(5, 3), 0)
    assert lk.r == 2
    assert lk.edges == {(1, 2), (1, 3), (1, 4), (2, 3), (2, 4), (3, 4)}


def test_link_missing_vertex():
    with pytest.raises(ValueError):
        link(Hypergraph.complete(4, 3), 9)


def test_degrees_on_k5():
    # [DERIVED] K_5^(3): vertex degree C(4,2)=6, pair codegree 3
    h = Hypergraph.complete(5, 3)
    assert degree(h, (0,)) == 6
    assert degree(h, (0, 1)) == 3
    assert codegree(h, 0, 1) == 3
    assert min_ell_degree(h, 1) == 6
    assert min_ell_degree(h, 2) == 3
    assert min_positive_codegree(h) == 3
    with pytest.raises(ValueError):
        degree(h, (0, 1, 2))


def test_fano_invariants():
    # [DERIVED] the 7-point plane: degree 3 everywhere, codegree 1, linear
    h = fano_plane()
    assert h.num_vertices == 7 and h.num_edges == 7
    assert all(degree(h, (v,)) == 3 for v in h.vertices)
    assert min_ell_degree(h, 2) == 1
    assert min_positive_codegree(h) == 1
    assert is_linear(h)


def test_min_positive_codegree_none_when_all_zero():
    h = Hypergraph.build(3, [(0, 1, 2), (3, 4, 5)])
    assert min_positive_codegree(h) == 1
    lone = Hypergraph.build(3, [], vertices=range(4))
    assert min_positive_codegree(lone) is None


# -- cliques -----------------------------------------------------------

def test_cliques_k6_pairs():
    # [DERIVED] C(6,3) = 20 triangles in K_6
    qs = list(enumerate_cliques(Hypergraph.complete(6, 2), 3))
    assert len(qs) == 20
    assert qs == sorted(qs)
    assert qs == brute_cliques(Hypergraph.complete(6, 2), 3)


def test_cliques_k5_triples():
    # [DERIVED] C(5,4) = 5 four-sets in K_5^(3)
    h = Hypergraph.complete(5, 3)
    assert list(enumerate_cliques(h, 4)) == brute_cliques(h, 4)
    assert len(enumerate_cliques(h, 4)) == 5


def test_cliques_fano():
    # [DERIVED] linear hypergraph: no two edges share a pair, so no K_4^(3)
    assert not enumerate_cliques(fano_plane(), 4)
    assert len(enumerate_cliques(fano_plane(), 3)) == 7


def test_cliques_validation():
    with pytest.raises(ValueError):
        enumerate_cliques(Hypergraph.complete(4, 3), 2)


@settings(max_examples=60, deadline=None)
@given(st.integers(min_value=0, max_value=2**32 - 1))
def test_cliques_match_subset_scan(seed):
    for h in seeded_inputs(seed):
        for t in (h.r, h.r + 1, h.r + 2):
            assert list(enumerate_cliques(h, t)) == brute_cliques(h, t)


@settings(max_examples=60, deadline=None)
@given(st.integers(min_value=0, max_value=2**32 - 1))
def test_pair_queries_match_edge_scan(seed):
    for h in seeded_inputs(seed):
        for v in h.vertices:
            assert degree(h, (v,)) == sum(1 for e in h.edges if v in e)
        if h.r < 3:
            continue
        scan = {p: sum(1 for e in h.edges if set(p) <= set(e))
                for p in itertools.combinations(sorted(h.vertices), 2)}
        for (u, v), want in scan.items():
            assert codegree(h, u, v) == codegree(h, v, u) == degree(h, (u, v)) == want
        assert min_positive_codegree(h) == min((c for c in scan.values() if c), default=None)


def test_enumerate_cliques_keeps_no_reference():
    for r, t in ((3, 4), (2, 3)):
        h = Hypergraph.complete(6, r)
        ref = weakref.ref(h)
        assert len(enumerate_cliques(h, t)) == math.comb(6, t)
        del h
        gc.collect()
        assert ref() is None


# -- tight-path distance -----------------------------------------------

def test_distance_worked_examples():
    h = Hypergraph.build(3, [(1, 2, 3), (2, 3, 4), (3, 4, 5), (5, 6, 7)])
    e = (1, 2, 3)
    assert path_distance(h, e, e) == 3            # [TRIVIAL] one edge spans 3
    assert path_distance(h, e, (2, 3, 4)) == 4    # [DERIVED] shared pair
    assert path_distance(h, e, (3, 4, 5)) == 5    # [DERIVED] shared vertex
    # [DERIVED] 1,2,3 / 2,3,4 / 3,4,5 / 5,6,7 tile the interval 1..7
    assert path_distance(h, e, (5, 6, 7)) == 7


def test_distance_unreachable():
    h = Hypergraph.build(3, [(0, 1, 2), (5, 6, 7)])
    assert path_distance(h, (0, 1, 2), (5, 6, 7)) == math.inf


def test_distance_tight_path():
    # [DERIVED] interval model: the tight path on n vertices spans n
    for n in (6, 7, 8):
        edges = [(i, i + 1, i + 2) for i in range(n - 2)]
        h = Hypergraph.build(3, edges)
        assert path_distance(h, edges[0], edges[-1]) == n


def test_distance_mixed_offsets():
    # [DERIVED] two offset-2 steps: interval 0..6
    h = Hypergraph.build(3, [(0, 1, 2), (2, 3, 4), (4, 5, 6)])
    assert path_distance(h, (0, 1, 2), (4, 5, 6)) == 7


def test_distance_symmetric():
    h = Hypergraph.build(3, [(0, 1, 2), (1, 2, 3), (2, 3, 4), (3, 4, 5)])
    for e in h.edges:
        for f in h.edges:
            assert path_distance(h, e, f) == path_distance(h, f, e)


def test_distance_validation():
    h = Hypergraph.build(3, [(0, 1, 2)])
    with pytest.raises(ValueError):
        path_distance(h, (0, 1, 2), (3, 4, 5))
    with pytest.raises(ValueError):
        path_distance(Hypergraph.complete(4, 2), (0, 1), (2, 3))


# -- glue --------------------------------------------------------------

def test_glue_empty_map_is_disjoint_union():
    a = Hypergraph.complete(4, 3)
    b = Hypergraph.build(3, [(0, 1, 2)])
    res = glue(a, b)
    assert res.h.num_vertices == 7
    assert res.h.num_edges == 5
    assert res.h == disjoint_union(a, b).h
    # A-side ids survive untouched when A is already dense on 0..n-1
    assert all(res.map_a[v] == v for v in a.vertices)


def test_glue_identifies_pairs():
    a = Hypergraph.build(3, [(0, 1, 2)])
    b = Hypergraph.build(3, [(0, 1, 3)])
    res = glue(a, b, GlueMap([(0, 0), (1, 1)]))
    assert res.h.num_vertices == 4
    assert res.h.num_edges == 2
    assert codegree(res.h, res.map_a[0], res.map_a[1]) == 2


def test_glue_can_merge_edges():
    a = Hypergraph.build(3, [(0, 1, 2)])
    res = glue(a, a, GlueMap([(0, 0), (1, 1), (2, 2)]))
    assert res.h.num_edges == 1 and res.h.num_vertices == 3


def test_glue_rejects_non_injective():
    a = Hypergraph.build(3, [(0, 1, 2)])
    with pytest.raises(ValueError, match="non-injective"):
        glue(a, a, GlueMap([(0, 0), (1, 0)]))


def test_glue_merges_labels():
    a = Hypergraph.build(3, [(0, 1, 2)], labels={0: "x"})
    b = Hypergraph.build(3, [(0, 1, 2)], labels={0: "y"})
    res = glue(a, b, GlueMap([(0, 0)]))
    merged = res.h.labels[res.map_a[0]]
    assert "x" in merged and "y" in merged


@settings(max_examples=60, deadline=None)
@given(st.integers(min_value=0, max_value=2**32 - 1), st.integers(0, 3))
def test_glue_vertex_count(seed, npairs):
    a = random_small_hypergraph(seed)
    b = random_small_hypergraph(seed + 1)
    while b.r != a.r:
        seed += 1
        b = random_small_hypergraph(seed + 1)
    pairs = list(zip(sorted(a.vertices), sorted(b.vertices)))[:npairs]
    res = glue(a, b, GlueMap(pairs))
    assert res.h.num_vertices == a.num_vertices + b.num_vertices - len(pairs)
    # every A edge and every B edge lands in the result
    for e in a.edges:
        assert canon_edge(tuple(res.map_a[v] for v in e)) in res.h.edges
    for e in b.edges:
        assert canon_edge(tuple(res.map_b[v] for v in e)) in res.h.edges


@settings(max_examples=60, deadline=None)
@given(st.integers(min_value=0, max_value=2**32 - 1), st.integers(0, 4))
def test_glue_many_copies_equals_fold(seed, copies):
    rng = random.Random(seed)
    a = random_small_hypergraph(seed)
    a = Hypergraph(a.r, a.vertices, a.edges, {v: f"a{v}" for v in a.vertices if v % 2})
    nb = rng.randrange(a.r, 7)
    b = Hypergraph.build(a.r, [e for e in itertools.combinations(range(nb), a.r) if rng.random() < 0.4],
                         vertices=range(nb), labels={v: f"b{v}" for v in range(nb) if rng.random() < 0.5})
    maps = []
    for _ in range(copies):
        j = rng.randrange(0, min(len(a.vertices), len(b.vertices)) + 1)
        maps.append(GlueMap(tuple(zip(rng.sample(sorted(a.vertices), j),
                                      rng.sample(sorted(b.vertices), j)))))
    once = glue(a, b, maps)
    acc, last = a, None
    for m in maps:
        last = glue(acc, b, m)
        acc = last.h
    assert once.h == acc and once.h.labels == acc.labels
    assert once.map_b == (last.map_b if last else {})


# -- induced / linear ---------------------------------------------------

def test_induced():
    h = Hypergraph.complete(5, 3)
    g = induced(h, {0, 1, 2, 3})
    assert g.num_edges == 4 and g.num_vertices == 4


def test_is_linear():
    assert is_linear(Hypergraph.build(3, [(0, 1, 2), (2, 3, 4)]))
    assert not is_linear(Hypergraph.build(3, [(0, 1, 2), (0, 1, 3)]))


# -- serialization ------------------------------------------------------

def test_json_round_trip_plain():
    h = Hypergraph.build(3, [(0, 1, 2), (1, 2, 3)], labels={3: "tip"})
    doc = to_json_dict(h)
    assert doc["r"] == 3 and doc["n"] == 4
    assert doc["edges"] == sorted(doc["edges"])
    back, tags = from_json_dict(doc)
    assert back == h and tags == {}


def test_json_renumbers_sparse_ids():
    h = Hypergraph.build(3, [(10, 20, 30)])
    doc = to_json_dict(h)
    assert doc["n"] == 3 and doc["edges"] == [[0, 1, 2]]


def test_json_tags_round_trip():
    h = Hypergraph.build(3, [(0, 1, 2), (0, 1, 3)])
    doc = to_json_dict(h, tags={"e": (0, 1, 2), "f": (0, 1, 3),
                                "S": (0, 1), "a": 2, "dist": 4})
    back, tags = from_json_dict(doc)
    assert back == h
    assert tags["e"] == (0, 1, 2) and tags["S"] == (0, 1)
    assert tags["a"] == 2 and tags["dist"] == 4


def test_json_rejects_garbage():
    with pytest.raises(ValueError):
        from_json_dict({"r": 3, "n": 2, "edges": [[0, 1, 2]]})
    with pytest.raises(ValueError):
        from_json_dict({"r": 3, "n": 4, "edges": [[0, 1]]})
    # no float, bool or string where an integer belongs, no vertex outside 0..n-1, no repeats
    for doc in ({"r": 3, "n": 3.9, "edges": [[0, 1, 2]]},
                {"r": 3, "n": 3, "edges": [[0, 1.7, 2]]},
                {"r": True, "n": 3, "edges": [[0]]},
                {"r": 3, "n": "3", "edges": [[0, 1, 2]]},
                {"r": 3, "n": 3, "edges": [[0, 1, 2]], "tags": {"a": 7}},
                {"r": 3, "n": 3, "edges": [[0, 1, 2]], "tags": {"e": [0, 1, 5]}},
                {"r": 3, "n": 3, "edges": 5}):
        with pytest.raises(ValueError):
            from_json_dict(doc)
    for doc in ({"k": 2, "colors": [[[0, 1, 2], 1.9]]},
                {"k": 2.0, "colors": [[[0, 1, 2], 1]]},
                {"k": 2, "colors": [[[0, True, 2], 1]]},
                {"k": 2, "colors": [[[0, 1, 2], 1], [[1, 0, 2], 2]]}):
        with pytest.raises(ValueError):
            EdgeColoring.from_json_dict(doc)
    for doc in ({"k": 2, "colors": [[0, 1.9]]}, {"k": 2, "colors": [["0", 1]]},
                {"k": 2, "colors": [[0, 1], [0, 2]]}):
        with pytest.raises(ValueError):
            VertexColoring.from_json_dict(doc)


@pytest.mark.parametrize("labels", [
    {" 1": "5"}, {"+2": "x"}, {"0": None}, {"01": "x"}, {"1_0": "x"}, {"٣": "x"},
    {"-1": "x"}, {"3": "x"}, {"x": "y"}, {1: "x"}, {"0": 5}, {"2": [1, 2]},
    {" 1": 5, "+2": [1, 2], "0": None},
])
def test_json_labels_are_not_coerced(labels):
    # these used to come back as int(key) -> str(value), e.g. {1: '5', 2: '[1, 2]', 0: 'None'}
    with pytest.raises(ValueError, match="label"):
        from_json_dict({"r": 3, "n": 3, "edges": [[0, 1, 2]], "labels": labels})


@pytest.mark.parametrize("key", ["labels", "tags"])
@pytest.mark.parametrize("value", [False, 0, "", [], None, [["0", "x"]]])
def test_json_labels_and_tags_must_be_objects(key, value):
    # falsy non-objects used to be read as "no labels" or "no tags"
    with pytest.raises(ValueError, match=f"{key} must be a JSON object"):
        from_json_dict({"r": 3, "n": 3, "edges": [[0, 1, 2]], key: value})


def test_json_labels_accept_decimal_ids_and_strings():
    h, _ = from_json_dict({"r": 3, "n": 11, "edges": [[0, 1, 2]], "labels": {"0": "a", "10": ""}})
    assert h.labels == {0: "a", 10: ""}


@settings(max_examples=60, deadline=None)
@given(st.integers(min_value=0, max_value=2**32 - 1))
def test_json_round_trip_random(seed):
    h = random_small_hypergraph(seed)
    back, _ = from_json_dict(to_json_dict(h))
    # vertex ids are dense after renumbering, edge structure is intact
    assert back.num_vertices == h.num_vertices
    assert back.num_edges == h.num_edges
