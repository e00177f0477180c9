"""Hypergraph model: construction, degrees, cliques, distance, gluing."""

import gc
import itertools
import json
import math
import random
import re
import time
import tracemalloc
import weakref

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from ramsey3 import (
    Hypergraph,
    degree,
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
from ramsey3.codegree import BLUE, build_partition_host, extend_coloring_lower_bound
from ramsey3.colorengine import EdgeColoring, VertexColoring
from ramsey3.gadgets import (
    TaggedGadget,
    amplify_distance,
    attach_apex,
    build_equalizer,
    build_far_seed,
    build_rainbow,
    mock_sender,
)
from ramsey3.hypercore import _distance_table, _edges_well_formed, canon_edge, codegree, distance_lower_bound

from _oracles import (
    brute_cliques,
    frozenset_path_distance,
    pairwise_is_linear,
    random_small_hypergraph,
    reference_edge_reader,
    relaxed_path_distance,
)


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


def test_complete_equals_build_form():
    for n in range(8):
        for r in (1, 2, 3, 4):
            h = Hypergraph.complete(n, r)
            assert h == Hypergraph.build(r, itertools.combinations(range(n), r), vertices=range(n))
    with pytest.raises(ValueError):
        Hypergraph.complete(4, 0)


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
    lambda: glue(Hypergraph.complete(4, 3), Hypergraph.complete(4, 3), [[(0.7, 1.2)]]),
    lambda: attach_apex(TaggedGadget(Hypergraph.complete(4, 3)), [0, 1.5, 2]),
    lambda: VertexColoring(2, {0: 1, 1.0: 2}),
], ids=["build", "induced", "degree", "GlueMap", "attach_apex", "VertexColoring"])  # GlueMap: the pair type glue once took
def test_float_vertex_ids_rejected(call):
    # a float id is an error, as in canon_edge, never truncated to an int
    with pytest.raises(TypeError):
        call()


def _edge_loop_outcome(r, vertices, edges):
    """What the vertex id check and the edge-by-edge validation raise, as (type, message), or None."""
    try:
        for v in vertices:
            if type(v) is not int:
                raise ValueError(f"vertex id {v!r} is not an int")
        for e in edges:
            if type(e) is not tuple or len(e) != r or any(type(x) is not int for x in e) or tuple(sorted(set(e))) != e:
                raise ValueError(f"malformed {r}-edge: {e!r}")
            if not set(e) <= vertices:
                raise ValueError(f"edge {e!r} uses vertices outside the vertex set")
    except (TypeError, ValueError) as exc:
        return type(exc), str(exc)
    return None


class _OneOutOfOrder:
    """Equal to 1 and hashed like it, but every order comparison says yes."""

    def __eq__(self, other):
        return other == 1

    def __hash__(self):
        return hash(1)

    __lt__ = __gt__ = lambda self, other: True

    def __repr__(self):
        return "_OneOutOfOrder()"


_loose_ids = st.one_of(st.integers(0, 9), st.booleans(), st.sampled_from([1.0, 2.5, "x", _OneOutOfOrder()]))


@settings(max_examples=300, deadline=None)
@given(st.integers(1, 4),
       st.one_of(st.just(range(10)), st.sets(st.one_of(st.integers(0, 9), st.just(3.0)), max_size=8)),
       st.sets(st.one_of(st.sets(st.integers(0, 9), min_size=1, max_size=4).map(sorted).map(tuple),
                         st.lists(st.integers(0, 9), max_size=5).map(tuple),
                         st.lists(_loose_ids, max_size=4).map(tuple)), max_size=6))
@example(2, range(10), {(0, _OneOutOfOrder())})  # increasing by <, yet the loop's sort moves it
@example(3, range(10), {range(3)})  # increasing ints, but not a tuple
def test_constructor_raises_what_the_edge_loop_raises(r, vertices, edges):
    # the bulk edge check may only accept what the loop accepts; the loop names the bad edge
    vs, es = frozenset(vertices), frozenset(edges)
    want = _edge_loop_outcome(r, vs, es)
    try:
        Hypergraph(r, vs, es)
        got = None
    except (TypeError, ValueError) as exc:
        got = type(exc), str(exc)
    assert got == want


@pytest.mark.parametrize("bad, rest", [((0, 1.0, 2), [(0, 1, 3), (0, 2, 3), (1, 2, 3)]),
                                       ((True, 2, 3), [(0, 1, 2), (0, 1, 3), (0, 2, 3)])])
def test_constructor_rejects_float_and_bool_ids(bad, rest):
    # such an edge was stored, and enumerate_cliques(h, 4) then raised TypeError shifting an int by a float
    with pytest.raises(ValueError, match=re.escape(f"malformed 3-edge: {bad!r}")):
        Hypergraph(3, frozenset(range(4)), frozenset([bad, *rest]))


@pytest.mark.parametrize("call", [
    lambda: Hypergraph.build(3, [(0, True, 2)]),
    lambda: Hypergraph.complete(4, 3).minus_edge((0, True, 2)),
    lambda: Hypergraph.complete(4, 3).plus_edges([(True, 2, 3)]),
    lambda: canon_edge((2, True, 0)),
    lambda: EdgeColoring(2, {(0, True, 2): 1}),
    lambda: EdgeColoring(2, {(2, 0, True): 1, (0, 1, 3): 2}),
], ids=["build", "minus_edge", "plus_edges", "canon_edge", "EdgeColoring", "EdgeColoring unsorted"])
def test_bool_vertex_ids_rejected(call):
    # each call stored or removed (0, 1, 2), True turned into 1
    with pytest.raises(ValueError, match="bool vertex id"):
        call()


@pytest.mark.parametrize("call", [
    lambda: Hypergraph.build(3, [], vertices=[True, 2]),
    lambda: induced(Hypergraph.complete(5, 3), [True, 2, 3]),
    lambda: degree(Hypergraph.complete(5, 3), [True, 2]),
    lambda: glue(Hypergraph.complete(4, 3), Hypergraph.complete(4, 3), [[(True, 0)]]),
    lambda: glue(Hypergraph.complete(4, 3), Hypergraph.complete(4, 3), [((0, True),)]),
    lambda: attach_apex(TaggedGadget(Hypergraph.complete(4, 3)), [True, 2]),
    lambda: TaggedGadget(Hypergraph.complete(4, 3), a=True),
    lambda: TaggedGadget(Hypergraph.complete(4, 3), b=False),
    lambda: TaggedGadget(Hypergraph.complete(4, 3), apex=True),
    lambda: TaggedGadget(Hypergraph.complete(4, 3), s_pair=(True, 2)),
    lambda: VertexColoring(2, {True: 1, 0: 2}),
], ids=["build", "induced", "degree", "GlueMap", "GlueMap b side", "attach_apex", "tag a", "tag b", "tag apex",
        "tag S", "VertexColoring"])  # GlueMap: the pair type glue once took
def test_bool_vertex_id_arguments_rejected(call):
    # each call read True as vertex 1 (False as 0), which canon_edge never does
    with pytest.raises(ValueError, match="bool vertex id"):
        call()


def test_bool_vertex_id_message_names_one_id():
    # the message held the whole id tuple: 4,922 characters here, 688,922 for 100,000 ids
    with pytest.raises(ValueError, match="bool vertex id") as err:
        induced(Hypergraph.complete(1000, 2), [True, *range(2, 1000)])
    assert len(str(err.value)) < 200


@pytest.mark.parametrize("tags", [{"a": 1.0}, {"apex": 2.0}, {"s_pair": (0, 1.0)}])
def test_float_tag_vertex_ids_rejected(tags):
    # a float tag vertex was kept as a float, since 1.0 is in the vertex set {0, 1, 2, 3}
    with pytest.raises(TypeError):
        TaggedGadget(Hypergraph.complete(4, 3), **tags)


@pytest.mark.parametrize("vertices", [{0, 1, 2.5}, {0, 1.0, 2}, {0, True, 2}, {0, "1", 2}])
def test_constructor_rejects_vertex_ids_that_are_not_ints(vertices):
    # {0, 1, 2.5} was a vertex set, and its documents renumbered the float id like any sparse id
    with pytest.raises(ValueError, match="is not an int"):
        Hypergraph(3, frozenset(vertices), frozenset())


def test_bulk_edge_check_reads_every_chunk():
    # 9,880 edges are three chunks of the bulk check; a bad edge in the last one still fails it
    good = list(itertools.combinations(range(40), 3))
    vertices = frozenset(range(40))
    assert _edges_well_formed(3, good, vertices) and _edges_well_formed(3, good)
    for bad in [(0, 1, 40), (2, 1, 0), (0, 1, True), (0, 1, 2.0), (0, 1)]:
        assert not _edges_well_formed(3, good + [bad], vertices), bad
    assert not _edges_well_formed(3, good + [(-1, 0, 1)])
    with pytest.raises(ValueError, match="repeats an edge"):
        EdgeColoring(2, {**dict.fromkeys(good, 1), (5, 4, 3): 2})


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
        degrees = {v: sum(1 for e in h.edges if v in e) for v in h.vertices}
        for v, want in degrees.items():
            assert degree(h, (v,)) == want
        assert min_ell_degree(h, 1) == min(degrees.values())
        if h.r < 3:
            continue
        scan = {p: sum(1 for e in h.edges if set(p) <= set(e))
                for p in itertools.combinations(sorted(h.vertices), 2)}
        for (u, v), want in scan.items():
            assert codegree(h, u, v) == codegree(h, v, u) == degree(h, (u, v)) == want
        assert min_ell_degree(h, 2) == min(scan.values())
        assert min_positive_codegree(h) == min((c for c in scan.values() if c), default=None)


@st.composite
def wide_graphs(draw):
    """A 2- or 3-graph on up to 10 vertices, some ids close together and some spread up to 5,000.

    Half the draws are hub-shaped: up to four first vertices below 13 share
    middle vertices clustered past the mask span, so the edges that continue
    their edges start with the same far vertices and pairs.
    """
    r = draw(st.sampled_from((2, 3)))
    near = st.integers(0, 12)
    if draw(st.booleans()):
        hub = draw(st.integers(300, 5000))
        middle = st.integers(hub, hub + 12)
        ids = draw(st.sets(near, min_size=1, max_size=4)) | draw(st.sets(middle, min_size=r, max_size=6))
    else:
        ids = draw(st.sets(st.one_of(near, st.integers(0, 5000)), min_size=r, max_size=10))
    pool = list(itertools.combinations(sorted(ids), r))
    edges = draw(st.lists(st.sampled_from(pool), max_size=len(pool)))
    return Hypergraph.build(r, edges, vertices=ids)


@settings(max_examples=150, deadline=None)
@given(wide_graphs())
def test_cliques_match_subset_scan_on_wide_ids(h):
    for t in range(h.r, h.r + 4):
        assert list(enumerate_cliques(h, t)) == brute_cliques(h, t)


_HUB = 10**6


@pytest.mark.parametrize("r, firsts, hubs", [
    # each first vertex i meets the hub, which starts 20,000 edges of its own
    (3, [(i, _HUB, _HUB + 1 + i) for i in range(20_000)], [(_HUB, _HUB + 1 + j, _HUB + 2 + j) for j in range(20_000)]),
    # each first vertex i meets the pair (hub, hub + 1), which starts 20,000 edges
    (3, [(i, _HUB, _HUB + 1) for i in range(20_000)], [(_HUB, _HUB + 1, _HUB + 2 + j) for j in range(20_000)]),
    (2, [(i, _HUB) for i in range(20_000)], [(_HUB, _HUB + 1 + j) for j in range(20_000)]),
], ids=["hub", "shared-pair", "graph-hub"])
def test_spread_first_vertices_sharing_a_hub_cost_linear_time(r, firsts, hubs):
    # reading all of the hub's edges once per first vertex is 4*10**8 steps, minutes of work
    h = Hypergraph.build(r, firsts + hubs)
    start = time.perf_counter()
    assert enumerate_cliques(h, r + 1) == ()
    assert time.perf_counter() - start < 5


def test_enumerate_cliques_memory_follows_edges_not_ids():
    # masks span ids only up to a fixed width, so a far id costs no wide int
    n = 100_000
    wide = Hypergraph(3, frozenset(range(n)), frozenset((i, i + 1, n - 1 - i) for i in range(2000)))
    cases = [
        (Hypergraph.build(3, [(0, 1, 10**9)]), 3, ((0, 1, 10**9),)),
        (wide, 3, 2000),
        (wide, 4, 0),
        (Hypergraph.build(2, [e for i in range(2000) for e in ((i, i + 1), (i, n - 1 - i), (i + 1, n - 1 - i))]), 3, 2000),
    ]
    for h, t, want in cases:
        tracemalloc.start()
        try:
            got = enumerate_cliques(h, t)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert (got if isinstance(want, tuple) else len(got)) == want
        # under 1 KiB per edge; one int with bit 10**9 set alone takes 119 MiB,
        # and masks as wide as each edge's id span took 25 MiB on the 2,000-edge graphs
        assert peak < 4 * 2**20, (h.num_edges, t, peak)


def test_enumerate_cliques_memory_grows_linearly_on_a_spread_star():
    # vertex 0 starts every edge, and edges pair its later neighbours off from
    # both ends: masks over 0's ranked neighbours would grow with its degree squared
    def peak(r, k):
        if r == 3:
            edges = [(0, j, 2 * k + 2 - j) for j in range(1, k + 1)]
        else:
            edges = [(0, j) for j in range(1, 2 * k + 1)] + [(j, 2 * k + 1 - j) for j in range(1, k + 1)]
        h = Hypergraph.build(r, edges)
        tracemalloc.start()
        try:
            assert len(enumerate_cliques(h, r + 1)) == (k if r == 2 else 0)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    for r in (2, 3):
        # 4.3 times as much for 4 times the edges; ranked masks took 6.4 times
        assert peak(r, 8000) < 5 * peak(r, 2000), r


def test_enumerate_cliques_builds_no_pair_index():
    h = Hypergraph.complete(6, 3)
    assert len(enumerate_cliques(h, 4)) == 15
    assert "pairs" not in h.__dict__


_PAIR_QUESTIONS = {
    "degree": lambda h: degree(h, (1,)),
    "codegree": lambda h: codegree(h, 0, 1),
    "min_ell_degree": lambda h: min_ell_degree(h, 2),
    "min_positive_codegree": min_positive_codegree,
    "is_linear": is_linear,
    "link": lambda h: link(h, 0),
    "induced": lambda h: induced(h, range(4)),
    "enumerate_cliques": lambda h: enumerate_cliques(h, 4),
    "path_distance": lambda h: path_distance(h, (0, 1, 2), (3, 4, 5)),
    "distance_lower_bound": lambda h: distance_lower_bound(h, (0, 1, 2), (3, 4, 5)),
    "extend_coloring_lower_bound": lambda h: extend_coloring_lower_bound(
        h, 4, 5, EdgeColoring(2, {e: BLUE for e in h.edges if not {4, 5} <= set(e)}), 4),
    "build_partition_host": lambda h: build_partition_host(4).h,
}


# the name counts the labels field, which a Hypergraph no longer has
@pytest.mark.parametrize("question", _PAIR_QUESTIONS)
def test_queries_leave_a_hypergraph_its_four_fields(question):
    # a Hypergraph keeps no derived state: every answer is read off the edges or built per call
    h = Hypergraph.build(3, [(0, 1, 2), (0, 1, 3), (1, 2, 3), (2, 3, 4), (3, 4, 5), (0, 4, 5)])
    out = _PAIR_QUESTIONS[question](h)
    for g in (h, out):
        if isinstance(g, Hypergraph):
            assert vars(g).keys() == {"r", "vertices", "edges"}, question


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


@st.composite
def distance_instances(draw):
    """A 3-graph on up to 8 vertices, ids near 0 or up to 10^12, and two of its edges."""
    ids = draw(st.sets(st.one_of(st.integers(0, 12), st.integers(0, 10**12)), min_size=3, max_size=8))
    pool = list(itertools.combinations(sorted(ids), 3))
    edges = draw(st.lists(st.sampled_from(pool), min_size=1, max_size=12, unique=True))
    return Hypergraph.build(3, edges, vertices=ids), draw(st.sampled_from(edges)), draw(st.sampled_from(edges))


@settings(max_examples=200, deadline=None)
@given(distance_instances())
def test_distance_matches_frozenset_states(inst):
    # the used-vertex masks are over ranks: an id of 10^12 costs one bit
    h, e, f = inst
    assert path_distance(h, e, f) == frozenset_path_distance(h, e, f)


@settings(max_examples=200, deadline=None)
@given(distance_instances())
def test_distance_lower_bound_is_sound(inst):
    h, e, f = inst
    assert distance_lower_bound(h, e, f) <= path_distance(h, e, f)


@settings(max_examples=200, deadline=None)
@given(distance_instances())
def test_distance_lower_bound_matches_the_forward_relaxed_search(inst):
    # the backward table gives the bound the forward relaxed search finds
    h, e, f = inst
    assert distance_lower_bound(h, e, f) == relaxed_path_distance(h, e, f)


def test_relaxed_table_matches_the_forward_search_from_every_frontier():
    # each backward step keeps the forward step's frontier condition: one
    # position may not bring back the dropped vertex, two must add two new ones
    for seed in range(60):
        rng = random.Random(seed)
        pool = list(itertools.combinations(range(rng.randint(5, 8)), 3))
        edges = rng.sample(pool, rng.randint(1, min(12, len(pool))))
        h = Hypergraph.build(3, edges)
        for f in edges:
            togo = _distance_table(h, f, f)[3]
            for fr in itertools.chain.from_iterable(map(itertools.permutations, edges)):
                assert togo.get(fr, math.inf) == relaxed_path_distance(h, fr, f, ordered=True) - 3, (seed, f, fr)


def _chain(eq, steps):
    """The far seed of eq chained steps times; its tags sit at distance 2^(steps + 1) + 3."""
    g = build_far_seed(eq, eq)
    return g if steps == 0 else amplify_distance(g, 2 ** (steps + 1) + 3)


@pytest.mark.parametrize("steps, n, d", [(0, 7, 5), (1, 11, 7), (2, 19, 11), (3, 35, 19)])
def test_distance_lower_bound_is_exact_on_chain_gadgets(steps, n, d):
    g = _chain(build_equalizer(build_rainbow(2, mock_sender())), steps)
    assert g.h.num_vertices == n
    assert distance_lower_bound(g.h, g.e, g.f) == path_distance(g.h, g.e, g.f) == d


def test_distance_lower_bound_on_the_67_vertex_gadget_is_fast():
    g = _chain(build_equalizer(build_rainbow(2, mock_sender())), 4)
    assert g.h.num_vertices == 67
    t0 = time.perf_counter()
    d = distance_lower_bound(g.h, g.e, g.f)
    elapsed = time.perf_counter() - t0
    assert d == 35
    assert elapsed < 1.0, f"took {elapsed:.2f}s, budget 1.0s"


@pytest.mark.parametrize("steps, n, d", [(4, 67, 35), (5, 131, 67)])
def test_exact_distance_on_long_chain_gadgets_is_fast(steps, n, d):
    # a plain Dijkstra over the same states took about 108 s and 1.5 GiB on the 67-vertex chain
    g = _chain(build_equalizer(build_rainbow(2, mock_sender())), steps)
    assert g.h.num_vertices == n
    t0 = time.perf_counter()
    dist = path_distance(g.h, g.e, g.f)
    elapsed = time.perf_counter() - t0
    assert dist == d
    assert elapsed < 1.0, f"took {elapsed:.2f}s, budget 1.0s"


def test_amplify_with_the_exact_check_to_67_is_fast():
    eq = build_equalizer(build_rainbow(2, mock_sender()))
    seed = build_far_seed(eq, eq)
    t0 = time.perf_counter()
    g = amplify_distance(seed, 67, verify=True)
    elapsed = time.perf_counter() - t0
    assert (g.h.num_vertices, g.dist) == (131, 67)
    assert elapsed < 1.0, f"took {elapsed:.2f}s, budget 1.0s"


def test_distance_lower_bound_validation():
    assert distance_lower_bound(Hypergraph.build(3, [(0, 1, 2), (5, 6, 7)]), (0, 1, 2), (5, 6, 7)) == math.inf
    with pytest.raises(ValueError):
        distance_lower_bound(Hypergraph.build(3, [(0, 1, 2)]), (0, 1, 2), (3, 4, 5))
    with pytest.raises(ValueError):
        distance_lower_bound(Hypergraph.complete(4, 2), (0, 1), (2, 3))


def test_distance_memory_on_the_s8_gadget():
    eq = build_equalizer(build_rainbow(2, mock_sender()))
    g = amplify_distance(build_far_seed(eq, eq), 19)
    assert g.h.num_vertices == 35
    tracemalloc.start()
    try:
        d = path_distance(g.h, g.e, g.f)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert d == 19
    # states with frozenset used sets peaked at 10.3 MiB, int masks at 1.7 MiB
    assert peak < 4 * 2**20, peak


# -- glue --------------------------------------------------------------

def test_glue_empty_map_is_disjoint_union():
    a = Hypergraph.complete(4, 3)
    b = Hypergraph.build(3, [(0, 1, 2)])
    res = glue(a, b)
    assert res.h.num_vertices == 7
    assert res.h.num_edges == 5
    assert res.h == glue(a, b, [[]]).h == glue(a, b, [()]).h
    # A-side ids survive untouched when A is already dense on 0..n-1
    assert all(res.map_a[v] == v for v in a.vertices)


def test_glue_identifies_pairs():
    a = Hypergraph.build(3, [(0, 1, 2)])
    b = Hypergraph.build(3, [(0, 1, 3)])
    res = glue(a, b, [[(0, 0), (1, 1)]])
    assert res.h.num_vertices == 4
    assert res.h.num_edges == 2
    assert codegree(res.h, res.map_a[0], res.map_a[1]) == 2


def test_glue_can_merge_edges():
    a = Hypergraph.build(3, [(0, 1, 2)])
    res = glue(a, a, [[(0, 0), (1, 1), (2, 2)]])
    assert res.h.num_edges == 1 and res.h.num_vertices == 3


def test_glue_rejects_non_injective():
    a = Hypergraph.build(3, [(0, 1, 2)])
    with pytest.raises(ValueError, match="non-injective"):
        glue(a, a, [[(0, 0), (1, 0)]])
    with pytest.raises(ValueError, match="non-injective"):
        glue(a, a, [[(0, 0), (0, 1)]])


def test_glue_rejects_mixed_uniformity():
    # without the check, the 2-edges of b reach the 3-uniform result's constructor
    with pytest.raises(ValueError, match="different uniformity"):
        glue(Hypergraph.complete(4, 3), Hypergraph.complete(4, 2))


@pytest.mark.parametrize("pair", [(9, 0), (0, 9)], ids=["a side", "b side"])
def test_glue_rejects_unknown_vertices(pair):
    # an unknown b vertex was dropped in silence; an unknown a vertex made a KeyError
    a = Hypergraph.build(3, [(0, 1, 2)])
    with pytest.raises(ValueError, match=f"^glue pair {re.escape(repr(pair))} uses an unknown vertex$"):
        glue(a, a, [[(1, 1), pair]])


@pytest.mark.parametrize("copies, pair", [([(0, 0), (1, 1)], 0), ([[(0, 0, 1)]], (0, 0, 1)), ([[(0,)]], (0,))],
                         ids=["flat pair list", "three ids", "one id"])
def test_glue_names_a_pair_that_is_not_two_ids(copies, pair):
    # these were TypeError: 'int' object is not iterable, or ValueError: too many values to unpack
    a = Hypergraph.build(3, [(0, 1, 2)])
    with pytest.raises(ValueError, match=f"^glue pair {re.escape(repr(pair))} is not a \\(vertex of a, vertex of b\\) pair$"):
        glue(a, a, copies)


def test_glue_reads_each_copy_once():
    a = Hypergraph.build(3, [(0, 1, 2)])
    copies = (((x, x) for x in range(j)) for j in (3, 2))
    assert glue(a, a, copies).h == glue(a, a, [[(0, 0), (1, 1), (2, 2)], [(0, 0), (1, 1)]]).h


@settings(max_examples=60, deadline=None)
@given(st.integers(min_value=0, max_value=2**32 - 1), st.integers(0, 3))
def test_glue_vertex_count(seed, npairs):
    a = random_small_hypergraph(seed)
    b = random_small_hypergraph(seed + 1)
    while b.r != a.r:
        seed += 1
        b = random_small_hypergraph(seed + 1)
    pairs = list(zip(sorted(a.vertices), sorted(b.vertices)))[:npairs]
    res = glue(a, b, [pairs])
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
    nb = rng.randrange(a.r, 7)
    b = Hypergraph.build(a.r, [e for e in itertools.combinations(range(nb), a.r) if rng.random() < 0.4],
                         vertices=range(nb))
    maps = []
    for _ in range(copies):
        j = rng.randrange(0, min(len(a.vertices), len(b.vertices)) + 1)
        maps.append(list(zip(rng.sample(sorted(a.vertices), j), rng.sample(sorted(b.vertices), j))))
    once = glue(a, b, maps)
    acc, last = a, None
    for m in maps:
        last = glue(acc, b, [m])
        acc = last.h
    assert once.h == acc
    assert once.map_b == (last.map_b if last else {})
    streamed = glue(a, b, (m for m in maps))  # read once, as build_BEL hands them over
    assert streamed == once


# -- induced / linear ---------------------------------------------------

def test_induced():
    h = Hypergraph.complete(5, 3)
    g = induced(h, {0, 1, 2, 3})
    assert g.num_edges == 4 and g.num_vertices == 4


def test_is_linear():
    assert is_linear(Hypergraph.build(3, [(0, 1, 2), (2, 3, 4)]))
    assert not is_linear(Hypergraph.build(3, [(0, 1, 2), (0, 1, 3)]))


_C5 = [(0, 1), (1, 2), (2, 3), (3, 4), (0, 4)]


@st.composite
def _near_linear(draw):
    """Sub-hypergraphs of the Fano plane or of C_5, or a greedy partial linear space, with up to two random edges added."""
    source = draw(st.sampled_from(["fano", "c5", "greedy"]))
    if source == "greedy":
        r, n = 3, draw(st.integers(3, 9))
        edges, covered = [], set()
        for e in draw(st.permutations(list(itertools.combinations(range(n), 3)))):
            pairs = set(itertools.combinations(e, 2))
            if not covered & pairs and draw(st.booleans()):
                edges.append(e)
                covered |= pairs
    else:
        r, n, base = (3, 7, sorted(fano_plane().edges)) if source == "fano" else (2, 5, _C5)
        edges = draw(st.lists(st.sampled_from(base), unique=True))
    extra = st.sets(st.integers(0, n - 1), min_size=r, max_size=r).map(sorted)
    return Hypergraph.build(r, edges + draw(st.lists(extra, max_size=2)), vertices=range(n))


@settings(max_examples=200, deadline=None)
@given(_near_linear())
@example(Hypergraph.build(2, _C5))
@example(fano_plane())
@example(Hypergraph.build(3, [(0, 1, 2), (0, 1, 3)]))
def test_is_linear_matches_pairwise_oracle(h):
    assert is_linear(h) == pairwise_is_linear(h)


# -- serialization ------------------------------------------------------

def test_json_round_trip_plain():
    h = Hypergraph.build(3, [(0, 1, 2), (1, 2, 3)])
    doc = to_json_dict(h)
    assert doc.keys() == {"r", "n", "edges"} and doc["r"] == 3 and doc["n"] == 4
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


def test_json_renumbers_every_tag_kind_on_sparse_ids():
    h = Hypergraph.build(3, [(10, 20, 30), (10, 20, 40), (20, 40, 50)], vertices=[60])
    g = TaggedGadget(h, e=(30, 20, 10), f=(10, 20, 40), rainbow=((20, 40, 50), (10, 20, 30)),
                     s_pair=(20, 10), a=30, b=40, apex=60, dist=3)
    doc = g.to_json_dict()
    # ids 10..60 become 0..5, and the tags come in document order
    assert list(json.loads(json.dumps(doc["tags"])).items()) == [
        ("e", [0, 1, 2]), ("f", [0, 1, 3]), ("rainbow", [[1, 3, 4], [0, 1, 2]]), ("S", [0, 1]),
        ("a", 2), ("b", 3), ("apex", 5), ("dist", 3)]
    dense = Hypergraph.build(3, [(0, 1, 2), (0, 1, 3), (1, 3, 4)], vertices=[5])
    assert TaggedGadget.from_json_dict(doc) == TaggedGadget(
        dense, e=(0, 1, 2), f=(0, 1, 3), rainbow=((1, 3, 4), (0, 1, 2)), s_pair=(0, 1), a=2, b=3, apex=5, dist=3)


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


def test_json_rejects_repeated_edges():
    # a coloring document with the same repeat is rejected too
    for edges in ([[0, 1, 2], [2, 1, 0]], [[0, 1, 2], [0, 1, 2]]):
        with pytest.raises(ValueError, match="hypergraph document repeats an edge"):
            from_json_dict({"r": 3, "n": 3, "edges": edges})


_doc_ids = st.one_of(st.integers(-2, 8), st.booleans(), st.sampled_from([0.0, 1.0, 2.5, "1", None]),
                     st.lists(st.integers(0, 3), max_size=2))


@st.composite
def edge_documents(draw):
    """r, n and edges that may be unsorted, repeated, out of range, negative, float, bool, string or nested."""
    r = draw(st.integers(1, 4))
    n = draw(st.integers(r - 1, 8))
    good = st.lists(st.integers(0, max(n - 1, r)), min_size=r, max_size=r, unique=True)
    edges = draw(st.lists(good, max_size=6))
    if draw(st.booleans()):  # one edge off the rule, anywhere in the list
        spoilt = draw(good)
        i = draw(st.integers(0, r - 1))
        spoilt[i] = draw(st.sampled_from([float(spoilt[i]), True, False, str(spoilt[i]), [spoilt[i]], None, -1, n]))
        bad = draw(st.one_of(st.just(spoilt), st.lists(st.integers(-1, n), max_size=r + 1),
                             st.lists(_doc_ids, max_size=5), st.sampled_from([5, "abc", None, {"0": 1}])))
        edges.insert(draw(st.integers(0, len(edges))), bad)
    if edges and draw(st.booleans()):
        again = draw(st.sampled_from(edges))
        edges.append(draw(st.permutations(again)) if isinstance(again, list) else again)
    return {"r": r, "n": n, "edges": edges}


@settings(max_examples=300, deadline=None)
@given(edge_documents())
def test_json_edges_read_as_the_edge_by_edge_reader_did(doc):
    # accepted exactly when the earlier reader accepted and no edge is listed twice
    try:
        want = reference_edge_reader(doc)
        repeats = len(want.edges) != len(doc["edges"])
    except (TypeError, ValueError):
        want = None
    try:
        got = from_json_dict(doc)[0]
    except ValueError:
        assert want is None or repeats
    else:
        assert want is not None and not repeats and got == want


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
    # a labels member of any value is refused: a hypergraph holds no labels
    want = "labels are not read" if key == "labels" else "tags must be a JSON object"
    with pytest.raises(ValueError, match=want):
        from_json_dict({"r": 3, "n": 3, "edges": [[0, 1, 2]], key: value})


@settings(max_examples=60, deadline=None)
@given(st.integers(min_value=0, max_value=2**32 - 1))
def test_json_round_trip_random(seed):
    h = random_small_hypergraph(seed)
    back, _ = from_json_dict(to_json_dict(h))
    # vertex ids are dense after renumbering, edge structure is intact
    assert back.num_vertices == h.num_vertices
    assert back.num_edges == h.num_edges
