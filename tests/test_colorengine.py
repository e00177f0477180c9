"""Coloring search: free colorings, arrowing, patterns, CNF export."""

import hashlib
import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import ramsey3.colorengine as colorengine
from ramsey3 import (
    ArrowVerdict,
    EdgeColoring,
    Hypergraph,
    PatternSet,
    VertexColoring,
    admissible_patterns,
    admissible_vertex_coloring,
    arrows,
    check_free,
    enumerate_cliques,
    export_cnf,
    fano_plane,
    find_free_coloring,
    is_minimal_ramsey,
    minimalize,
    solve_cnf,
)
import ramsey3.codegree as codegree
from ramsey3.colorengine import SearchCore
from ramsey3.randomlab import sample_h3

from _oracles import (
    brute_free_exists,
    brute_free_patterns,
    brute_mono_cliques,
    brute_sat,
    brute_vertex_colorings,
    random_small_hypergraph,
)

K5 = Hypergraph.complete(5, 3)
K6P = Hypergraph.complete(6, 2)


def all_one_but(h, edge, k=2):
    colors = {e: 2 for e in h.edges}
    colors[edge] = 1
    return EdgeColoring(k, colors)


# -- colorings ----------------------------------------------------------

def test_edge_coloring_validation():
    with pytest.raises(ValueError):
        EdgeColoring(2, {(0, 1, 2): 3})
    with pytest.raises(ValueError):
        EdgeColoring(0, {})
    c = EdgeColoring(2, {(2, 1, 0): 1})
    assert c.color((0, 1, 2)) == 1
    assert EdgeColoring.of(2, {(2, 1, 0): 1}) == c
    with pytest.raises(ValueError):
        EdgeColoring.of(2, {(0, 1, 2): 1, (1, 0, 2): 2})
    with pytest.raises(ValueError):
        EdgeColoring.of(2, {(0, 1, 2): 1.9})


@pytest.mark.parametrize("color", [1.5, 1.0, True, "1", None])
def test_colorings_reject_non_integer_colors(color):
    # a bool or float would otherwise be stored as given
    with pytest.raises(ValueError):
        EdgeColoring(2, {(0, 1): color})
    with pytest.raises(ValueError):
        VertexColoring(2, {0: color})


def test_edge_coloring_recolored():
    c = EdgeColoring(2, {(0, 1, 2): 1, (0, 1, 3): 2})
    swapped = c.recolored({1: 2, 2: 1})
    assert swapped.color((0, 1, 2)) == 2
    assert swapped.color((0, 1, 3)) == 1


def test_edge_coloring_json_round_trip():
    c = EdgeColoring(3, {(0, 1, 2): 2, (0, 1, 3): 3})
    doc = c.to_json_dict()
    assert doc["k"] == 3
    assert doc["colors"] == sorted(doc["colors"])
    assert EdgeColoring.from_json_dict(doc) == c


def test_vertex_coloring_round_trip():
    c = VertexColoring(2, {0: 1, 3: 2})
    assert VertexColoring.from_json_dict(c.to_json_dict()) == c


# -- check_free ---------------------------------------------------------

def test_check_free_counts_k5():
    # [DERIVED] one off-color triple kills the two 4-sets through it,
    # the other 3 of the 5 stay monochromatic
    bad = check_free(K5, all_one_but(K5, (0, 1, 2)), 4)
    assert len(bad) == 3
    assert all(c == 2 for _, c in bad)
    assert {q for q, _ in bad} == {(0, 1, 3, 4), (0, 2, 3, 4), (1, 2, 3, 4)}
    assert bad == brute_mono_cliques(K5, all_one_but(K5, (0, 1, 2)).assignment, 4)


def test_check_free_requires_cover():
    with pytest.raises(ValueError):
        check_free(K5, EdgeColoring(2, {(0, 1, 2): 1}), 4)


def test_check_free_allows_superset():
    h = Hypergraph.complete(4, 3)
    extra = dict.fromkeys(K5.edges, 1)
    assert len(check_free(h, EdgeColoring(2, extra), 4)) == 1


# -- search vs oracle ---------------------------------------------------

def test_search_agrees_with_brute_scan():
    for i in range(40):
        h = random_small_hypergraph(9000 + i)
        t = h.r + 1 if i % 5 else h.r
        for k in (2, 3):
            res = find_free_coloring(h, t, k)
            assert res.found == brute_free_exists(h, t, k), (i, t, k)
            if res.found:
                assert check_free(h, res.coloring, t) == []


def test_search_witness_is_reverified():
    res = find_free_coloring(K5, 4, 2)
    assert res.found is True
    assert not brute_mono_cliques(K5, dict(res.coloring.assignment), 4)


def test_single_edge_cannot_avoid_itself():
    h = Hypergraph.build(3, [(0, 1, 2)])
    assert find_free_coloring(h, 3, 2).found is False


def test_find_free_coloring_enumerates_cliques_once(monkeypatch):
    calls = []

    def counting(h, t):
        calls.append((h, t))
        return enumerate_cliques(h, t)

    monkeypatch.setattr(colorengine, "enumerate_cliques", counting)
    h = Hypergraph.complete(7, 3)
    assert find_free_coloring(h, 4, 2).found is True
    assert calls == [(h, 4)]


@pytest.mark.parametrize("run", [
    lambda: minimalize(Hypergraph.complete(10, 2), 3, 2),
    lambda: is_minimal_ramsey(Hypergraph.complete(6, 2), 3, 2),
], ids=["minimalize", "is_minimal_ramsey"])
def test_minimality_enumerates_cliques_once(monkeypatch, run):
    # the t-cliques of h - e are those of h that do not contain e
    calls = []

    def counting(h, t):
        calls.append((h, t))
        return enumerate_cliques(h, t)

    monkeypatch.setattr(colorengine, "enumerate_cliques", counting)
    run()
    assert len(calls) == 1


@pytest.mark.parametrize("run", [
    lambda: minimalize(Hypergraph.complete(10, 2), 3, 2),
    lambda: is_minimal_ramsey(Hypergraph.complete(6, 2), 3, 2),
], ids=["minimalize", "is_minimal_ramsey"])
def test_minimality_builds_one_core(monkeypatch, run):
    # every deletion is the same core solved with the deleted edges off
    built = []

    class Counting(SearchCore):
        def __init__(self, *args, **kwargs):
            built.append(self)
            super().__init__(*args, **kwargs)

    monkeypatch.setattr(colorengine, "SearchCore", Counting)
    run()
    assert len(built) == 1


@st.composite
def small_minimality_questions(draw):
    r = draw(st.sampled_from((2, 3)))
    n = draw(st.integers(r, 6))
    k = draw(st.integers(1, 3))
    pool = list(itertools.combinations(range(n), r))
    edges = draw(st.lists(st.sampled_from(pool), unique=True, max_size=7 if k < 3 else 5))
    t = draw(st.integers(r, r + 2))
    return Hypergraph.build(r, edges, vertices=range(n)), t, k


@settings(max_examples=100, deadline=None)
@given(small_minimality_questions())
def test_minimality_matches_brute_force(question):
    h, t, k = question

    def arrows_brute(g):
        return not brute_free_exists(g, t, k)

    base = arrows_brute(h)
    minimal = base and not any(arrows_brute(h.minus_edge(e)) for e in sorted(h.edges))
    assert is_minimal_ramsey(h, t, k) is minimal
    if not base:
        with pytest.raises(ValueError):
            minimalize(h, t, k)
        return
    cur = h
    for e in sorted(h.edges):
        if arrows_brute(cur.minus_edge(e)):
            cur = cur.minus_edge(e)
    m = minimalize(h, t, k)
    assert m.edges == cur.edges
    assert m.vertices == {v for e in cur.edges for v in e}


@pytest.mark.parametrize("n", [9, 10])
def test_free_coloring_of_complete_3graphs(n):
    # [KNOWN] R(4,4;3) = 13, so K_n^(3) has a free 2-coloring for n <= 12
    h = Hypergraph.complete(n, 3)
    res = find_free_coloring(h, 4, 2, budget=100_000)
    assert res.found is True
    assert not brute_mono_cliques(h, dict(res.coloring.assignment), 4)
    assert res.propagations > 0 and res.conflicts > 0


def test_search_depth_is_not_recursion_bound():
    # 1,053 edges, more than the interpreter's default recursion limit
    h = sample_h3(23, 0.6, 20150205)
    assert h.num_edges > 1000
    res = find_free_coloring(h, 6, 2, budget=100_000)
    assert res.found is True
    assert not brute_mono_cliques(h, dict(res.coloring.assignment), 6)


@st.composite
def masked_instances(draw):
    n = draw(st.integers(1, 6))
    k = draw(st.integers(1, 3))
    full = (1 << (k + 1)) - 2
    cons = draw(st.lists(
        st.tuples(st.lists(st.integers(0, n - 1), max_size=4, unique=True), st.integers(0, full)),
        max_size=8))
    off = draw(st.sets(st.integers(0, n - 1), max_size=3))
    if draw(st.booleans()):  # color-symmetric, where the search breaks value symmetry
        return n, k, [(mem, full) for mem, _ in cons], {}, off
    pins = draw(st.dictionaries(st.integers(0, n - 1), st.integers(1, k), max_size=3))
    return n, k, cons, {v: c for v, c in pins.items() if v not in off}, off


def _violates(colors, k, cons):
    """Some constraint's members all take one color of its mask."""
    return any(
        mask >> c & 1 and all(colors[v] == c for v in mem)
        for mem, mask in cons for c in range(1, k + 1)
    )


@settings(max_examples=300, deadline=None)
@given(masked_instances())
def test_core_matches_brute_force(inst):
    # off variables are absent: the brute force colors the others and
    # keeps only the constraints that avoid the off ones
    n, k, cons, pins, off = inst
    present = [v for v in range(n) if v not in off]
    kept = [(mem, mask) for mem, mask in cons if off.isdisjoint(mem)]
    brute = any(
        all(colors[v] == c for v, c in pins.items()) and not _violates(colors, k, kept)
        for colors in (dict(zip(present, p)) for p in itertools.product(range(1, k + 1), repeat=len(present)))
    )
    variables = [(v,) for v in range(n)]
    res = SearchCore(variables, k, cons).solve(pins=pins, off=off)
    assert res.found == brute
    if res.found:
        assert set(res.coloring.assignment) == {(v,) for v in present}
        colors = {v: res.coloring.color((v,)) for v in present}
        assert all(colors[v] == c for v, c in pins.items())
        assert not _violates(colors, k, kept)


@st.composite
def fixed_instances(draw):
    """A small 3-graph with some edges pre-colored, at most 3^7 free colorings."""
    n = draw(st.integers(4, 6))
    k = draw(st.integers(2, 3))
    triples = list(itertools.combinations(range(n), 3))
    edges = draw(st.lists(st.sampled_from(triples), unique=True, max_size=12))
    fixed = draw(st.dictionaries(st.sampled_from(edges), st.integers(1, k))) if edges else {}
    while len(edges) - len(fixed) > (10 if k == 2 else 7):
        fixed[next(e for e in edges if e not in fixed)] = draw(st.integers(1, k))
    return Hypergraph.build(3, edges, vertices=range(n)), draw(st.integers(3, 5)), k, fixed


@settings(max_examples=150, deadline=None)
@given(fixed_instances())
def test_clique_core_with_fixed_edges_matches_brute_force(inst):
    # solvable exactly when some coloring of the other edges makes the whole
    # coloring free; its coloring is of exactly those edges
    h, t, k, fixed = inst
    rest = sorted(h.edges.difference(fixed))
    brute = any(
        not brute_mono_cliques(h, {**fixed, **dict(zip(rest, colors))}, t)
        for colors in itertools.product(range(1, k + 1), repeat=len(rest))
    )
    core = colorengine._clique_core(h, t, k, fixed)
    assert list(core.variables) == rest
    res = core.solve()
    assert res.found == brute
    if res.found:
        assert set(res.coloring.assignment) == set(rest)
        assert not brute_mono_cliques(h, {**fixed, **res.coloring.assignment}, t)


def test_core_rejects_bad_off():
    core = SearchCore([(0,), (1,)], 2, [([0, 1], 6)])
    with pytest.raises(ValueError):
        core.solve(off=[2])
    with pytest.raises(ValueError):
        core.solve(pins={0: 1}, off=[0])
    assert core.solve(off=[0]).coloring.assignment.keys() == {(1,)}


def test_core_checks_its_coloring_against_its_clauses():
    # two clauses appended after construction are never watched, so the
    # search colors variable 0 anyway; the check before returning catches it
    core = SearchCore([(0,), (1,)], 2, [([0, 1], 6)])
    core.clauses += [[1], [2]]
    with pytest.raises(RuntimeError):
        core.solve()


def test_admissible_patterns_checks_its_colorings(monkeypatch):
    class Injected(SearchCore):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            self.clauses += [[1], [2]]  # variable 0, edge (0, 1, 2), is never special here

    monkeypatch.setattr(colorengine, "SearchCore", Injected)
    with pytest.raises(RuntimeError):
        admissible_patterns(Hypergraph.complete(8, 3), 6, 7, 4, 2)


def test_core_matches_cnf_near_threshold():
    # not-all-equal 3-SAT near its threshold: about half the instances are
    # satisfiable and most solves learn nogoods and backjump, so an unsound
    # nogood shows as a wrong verdict; solve_cnf is the independent check
    rng = random.Random(20150205)
    verdicts = set()
    for _ in range(150):
        n = rng.randint(20, 32)
        cons = [rng.sample(range(n), 3) for _ in range(int(n * rng.uniform(1.9, 2.3)))]
        pins = {v: rng.randint(1, 2) for v in rng.sample(range(n), rng.randint(0, 2))}
        res = SearchCore([(v,) for v in range(n)], 2, [(mem, 6) for mem in cons]).solve(pins=pins)
        cnf = [tuple(v + 1 for v in mem) for mem in cons] + [tuple(-v - 1 for v in mem) for mem in cons]
        cnf += [(v + 1 if c == 1 else -v - 1,) for v, c in pins.items()]
        assert res.found == (solve_cnf(cnf) is not None)
        verdicts.add(res.found)
        if res.found:
            colors = [res.coloring.color((v,)) for v in range(n)]
            assert all(len({colors[v] for v in mem}) == 2 for mem in cons)
            assert all(colors[v] == c for v, c in pins.items())
    assert verdicts == {True, False}


def test_core_rejects_bad_budgets():
    core = SearchCore([(0,), (1,), (2,)], 2, [([0, 1, 2], 6)])
    for budget in (-1, -3, 1.0, 2.5, True, False, "5"):
        with pytest.raises(ValueError):
            core.solve(budget)
    # budget 0 is undecided at the first decision, as before
    assert _tree(core.solve(0)) == (None, 1, 0, 0, 0, 0)
    assert _tree(core.solve(1)) == (True, 1, 1, 0, 0, 0)


def test_core_rejects_bad_pins_and_members():
    core = SearchCore([(0,), (1,)], 2, [([0, 1], 6)])
    for pins in ({0: True}, {0: 1.0}, {0: 3}, {True: 1}, {2: 1}):
        with pytest.raises(ValueError):
            core.solve(pins=pins)
    for members in ([0, 2], [-1], [0, True], [1, True], [0.0], [0, 1.5]):
        with pytest.raises(ValueError):
            SearchCore([(0,), (1,)], 2, [(members, 6)])


@settings(max_examples=150, deadline=None)
@given(masked_instances())
def test_core_resolves_without_off_as_fresh(inst):
    # learned nogoods from a solve with off may rest on constraints that
    # solve dropped; the next solve must not inherit them
    n, k, cons, pins, off = inst
    variables = [(v,) for v in range(n)]
    core = SearchCore(variables, k, cons)
    core.solve(pins=pins, off=off)
    fresh = SearchCore(variables, k, cons).solve(pins=pins)
    again = core.solve(pins=pins)
    assert _tree(again) == _tree(fresh)
    assert again.coloring == fresh.coloring


def _tree(res):
    return (res.found, res.nodes, res.propagations, res.conflicts, res.learned, res.restarts)


def _color_digest(coloring):
    colors = "".join(str(c) for _, c in sorted(coloring.assignment.items()))
    return hashlib.sha256(colors.encode()).hexdigest()[:12]


@pytest.fixture
def recorded_solves(monkeypatch):
    """Results of every SearchCore.solve made by colorengine and codegree."""
    got = []

    class Recording(SearchCore):
        def solve(self, *args, **kwargs):
            res = super().solve(*args, **kwargs)
            got.append(res)
            return res

    monkeypatch.setattr(colorengine, "SearchCore", Recording)
    return got


# Pinned search trees: a faster core must make the same decisions,
# propagations, conflicts, nogoods and restarts and return the same
# colorings; a change to these figures is a change of search, not of speed.
# The case ids are fixed names that outlive a re-pin: the hex in each is the
# digest that case pinned for the chronological search before this one.
@pytest.mark.parametrize("n, r, t, k, tree, digest", [
    pytest.param(8, 3, 4, 2, (True, 49, 122, 17, 17, 0), "8faf5fa97ebb",
                 id="8-3-4-2-tree0-ca16d6e216a9"),
    pytest.param(9, 3, 4, 2, (True, 50, 123, 15, 15, 0), "238b8e7ee8dd",
                 id="9-3-4-2-tree1-c7c420f7fe6b"),
    pytest.param(10, 3, 4, 2, (True, 147, 897, 80, 80, 0), "81420b05101e",
                 id="10-3-4-2-tree2-b5eed0da241b"),
    pytest.param(9, 2, 3, 3, (True, 101, 234, 51, 51, 0), "9e3f133a8b25",
                 id="9-2-3-3-tree3-7f724b6851a0"),
])
def test_free_coloring_search_tree_unchanged(n, r, t, k, tree, digest):
    res = find_free_coloring(Hypergraph.complete(n, r), t, k)
    assert _tree(res) == tree
    assert _color_digest(res.coloring) == digest


@pytest.mark.parametrize("t, tree", [
    (6, (False, 126, 403, 64, 63, 0)),
    (7, (False, 1516, 4541, 625, 624, 1)),
])
def test_forced_check_search_tree_unchanged(recorded_solves, t, tree):
    assert codegree.forced_pattern_check(codegree.build_partition_host(t)) is True
    assert [_tree(res) for res in recorded_solves] == [tree]


def test_pinned_search_trees_unchanged(recorded_solves):
    ps = admissible_patterns(Hypergraph.complete(8, 3), 6, 7, 4, 2)
    assert ps.complete and len(ps.patterns) == 7
    assert [_tree(res) for res in recorded_solves] == [
        (True, 25, 44, 5, 5, 0), (True, 26, 43, 5, 5, 0), (True, 29, 34, 4, 4, 0), (True, 26, 36, 4, 4, 0)]
    assert [_color_digest(res.coloring) for res in recorded_solves] == [
        "dca65a0106c0", "d5404e2e4e75", "b9a25b8cc10b", "ece33c3d44ba"]


# -- arrowing -----------------------------------------------------------

def test_arrows_k6_pairs():
    # [KNOWN] the 2-color Ramsey number of the triangle is 6
    v = arrows(K6P, 3, 2)
    assert v.arrows is True and v.status == "complete"
    assert v.witness is None and v.nodes > 0


def test_arrows_k5_pairs_with_witness():
    v = arrows(Hypergraph.complete(5, 2), 3, 2)
    assert v.arrows is False
    assert not brute_mono_cliques(
        Hypergraph.complete(5, 2), dict(v.witness.assignment), 3)


def test_k6_minus_edge_does_not_arrow():
    v = arrows(K6P.minus_edge((4, 5)), 3, 2)
    assert v.arrows is False


def test_arrows_budget_unknown():
    v = arrows(K6P, 3, 2, budget=3)
    assert v.arrows is None and v.status == "unknown"
    assert v.witness is None


def test_arrow_verdict_invariants():
    with pytest.raises(ValueError):
        ArrowVerdict(True, EdgeColoring(2, {}), 1, "complete")
    with pytest.raises(ValueError):
        ArrowVerdict(None, None, 1, "complete")
    with pytest.raises(ValueError):
        ArrowVerdict(True, None, 1, "weird")


def test_is_minimal_ramsey():
    assert is_minimal_ramsey(K6P, 3, 2) is True
    assert is_minimal_ramsey(Hypergraph.complete(7, 2), 3, 2) is False
    assert is_minimal_ramsey(Hypergraph.complete(5, 2), 3, 2) is False


def test_minimalize_k7():
    m = minimalize(Hypergraph.complete(7, 2), 3, 2)
    assert m.edges <= Hypergraph.complete(7, 2).edges
    assert arrows(m, 3, 2).arrows is True
    assert is_minimal_ramsey(m, 3, 2) is True
    assert m.num_vertices == 6 and m.num_edges == 15


def test_minimalize_rejects_non_ramsey():
    with pytest.raises(ValueError):
        minimalize(Hypergraph.complete(5, 2), 3, 2)


# -- admissible patterns ------------------------------------------------

def test_admissible_patterns_k5_match_brute():
    ps = admissible_patterns(K5, 0, 1, 4, 2)
    assert ps.ell == 3 and ps.k == 2 and ps.complete
    assert set(ps.patterns) == brute_free_patterns(K5, 0, 1, 4, 2)
    assert set(ps.patterns) == {(0, 3), (1, 2), (2, 1), (3, 0)}


def test_admissible_pattern_witnesses_are_free():
    ps = admissible_patterns(K5, 0, 1, 4, 2)
    specials = [e for e in sorted(K5.edges) if 0 in e and 1 in e]
    for p, w in ps.witnesses.items():
        assert check_free(K5, w, 4) == []
        got = tuple(sum(1 for e in specials if w.assignment[e] == c)
                    for c in (1, 2))
        assert got == p


def test_admissible_patterns_closed_under_color_swap():
    ps = admissible_patterns(K5, 0, 1, 4, 2)
    for p in ps.patterns:
        assert tuple(reversed(p)) in ps.patterns


def test_admissible_patterns_same_for_every_pair_of_k8():
    # every pair of K_8^(3) is equivalent, so each must give all 7 patterns
    k8 = Hypergraph.complete(8, 3)
    for u, v in itertools.combinations(range(8), 2):
        ps = admissible_patterns(k8, u, v, 4, 2, budget=1_000_000)
        assert ps.complete, (u, v)
        assert set(ps.patterns) == {(a, 6 - a) for a in range(7)}, (u, v)


def test_admissible_patterns_budget_incomplete():
    ps = admissible_patterns(K5, 0, 1, 4, 2, budget=5)
    assert not ps.complete


def test_pattern_set_validation():
    with pytest.raises(ValueError):
        PatternSet(3, 2, frozenset({(1, 1)}))  # sums to 2, not 3
    ok = PatternSet(2, 2, frozenset({(1, 1)}))
    assert ok.ell == 2


# -- admissible vertex colorings ----------------------------------------

def test_vertex_coloring_odd_cycle_blocked():
    # [DERIVED] pattern (1,1) forces a proper 2-coloring; C_5 has none
    c5 = Hypergraph.build(2, [(i, (i + 1) % 5) for i in range(5)])
    ps = PatternSet(2, 2, frozenset({(1, 1)}))
    assert admissible_vertex_coloring(c5, ps) is None
    assert admissible_vertex_coloring(c5, ps, mode="enumerate") == []


def test_vertex_coloring_path_has_two():
    path = Hypergraph.build(2, [(i, i + 1) for i in range(4)])
    ps = PatternSet(2, 2, frozenset({(1, 1)}))
    got = admissible_vertex_coloring(path, ps, mode="enumerate")
    assert len(got) == 2
    one = admissible_vertex_coloring(path, ps)
    assert one in got
    for vc in got:
        for u, v in path.edges:
            assert vc.assignment[u] != vc.assignment[v]


def test_vertex_coloring_long_path_without_recursion():
    # 1,501 vertices, deeper than the interpreter's default recursion limit
    path = Hypergraph.build(2, [(i, i + 1) for i in range(1500)])
    ps = PatternSet(2, 2, frozenset({(1, 1)}))
    vc = admissible_vertex_coloring(path, ps)
    assert vc is not None and len(vc.assignment) == 1501
    assert all(vc.assignment[u] != vc.assignment[v] for u, v in path.edges)


@pytest.mark.parametrize("h, ps", [
    (Hypergraph.build(2, [(i, i + 1) for i in range(5)]), PatternSet(2, 2, frozenset({(1, 1)}))),
    (Hypergraph.build(2, [(0, 1), (1, 2), (2, 0), (2, 3)]), PatternSet(2, 3, frozenset({(1, 1, 0), (1, 0, 1), (0, 1, 1)}))),
    (Hypergraph.complete(4, 2), PatternSet(2, 3, frozenset({(1, 1, 0), (1, 0, 1), (0, 1, 1)}))),
    (Hypergraph.complete(4, 3), PatternSet(3, 2, frozenset({(1, 2), (2, 1)}))),
    (Hypergraph.complete(5, 3), PatternSet(3, 2, frozenset({(3, 0), (1, 2)}))),
    (Hypergraph.build(3, [(0, 1, 2), (2, 3, 4), (0, 4, 5)]), PatternSet(3, 3, frozenset({(1, 1, 1), (2, 1, 0)}))),
    (fano_plane(), PatternSet(3, 2, frozenset({(1, 2), (2, 1), (3, 0)}))),
])
def test_vertex_coloring_modes_match_lexicographic_scan(h, ps):
    want = brute_vertex_colorings(h, ps.patterns, ps.k)
    got = admissible_vertex_coloring(h, ps, mode="enumerate")
    assert [vc.assignment for vc in got] == want
    one = admissible_vertex_coloring(h, ps)
    assert (one.assignment if one else None) == (want[0] if want else None)


def test_vertex_coloring_fano_two_coloring_blocked():
    # [KNOWN] no 2-coloring of the 7 points leaves every line bichromatic
    ps = PatternSet(3, 2, frozenset({(1, 2), (2, 1)}))
    assert admissible_vertex_coloring(fano_plane(), ps) is None


def test_vertex_coloring_uniformity_mismatch():
    ps = PatternSet(3, 2, frozenset({(1, 2), (2, 1)}))
    with pytest.raises(ValueError):
        admissible_vertex_coloring(Hypergraph.complete(4, 2), ps)


# -- CNF ----------------------------------------------------------------

def test_cnf_text_shape():
    h = Hypergraph.complete(4, 3)
    prob = export_cnf(h, 4, 2)
    lines = prob.text.splitlines()
    maps = [ln for ln in lines if ln.startswith("c map ")]
    assert len(maps) == h.num_edges * 2
    header = next(ln for ln in lines if ln.startswith("p cnf "))
    assert header == f"p cnf {prob.num_vars} {len(prob.clauses)}"
    assert sum(1 for ln in lines if ln.endswith(" 0")) == len(prob.clauses)


def test_cnf_satisfiable_and_decodes():
    h = Hypergraph.complete(4, 3)
    prob = export_cnf(h, 4, 2)
    model = solve_cnf(prob)
    assert model is not None
    col = prob.decode(model)
    assert check_free(h, col, 4) == []


def test_cnf_unsatisfiable_single_edge():
    h = Hypergraph.build(3, [(0, 1, 2)])
    assert solve_cnf(export_cnf(h, 3, 2)) is None


def test_cnf_agreement_with_search():
    for i in range(25):
        h = random_small_hypergraph(5500 + i)
        t = h.r + 1
        for k in (2, 3):
            sat = solve_cnf(export_cnf(h, t, k)) is not None
            assert sat == find_free_coloring(h, t, k).found


# Pinned documents: export_cnf writes the clique core's clauses, and its
# text is byte for byte the one of the former separate encoding.
@pytest.mark.parametrize("h, t, k, digest", [
    (Hypergraph.complete(6, 3), 4, 2, "202ca3eec231"),
    (Hypergraph.complete(7, 3), 4, 3, "4eeb661c6d10"),
    (Hypergraph.complete(7, 2), 3, 2, "4d0d0bcf3abf"),
    (fano_plane(), 3, 2, "07881016922f"),
    (Hypergraph.build(3, [(0, 1, 2), (0, 1, 3), (0, 2, 3), (1, 2, 3), (2, 3, 4)]), 4, 2, "5c7778c289c0"),
])
def test_cnf_text_unchanged(h, t, k, digest):
    assert hashlib.sha256(export_cnf(h, t, k).text.encode()).hexdigest()[:12] == digest


def test_cnf_decode_rejects_partial():
    prob = export_cnf(Hypergraph.build(3, [(0, 1, 2)]), 4, 2)
    with pytest.raises(ValueError):
        prob.decode([])


def test_solve_cnf_raw_clauses():
    assert solve_cnf([(1, 2), (-1,), (-2,)]) is None
    assert solve_cnf([(1,)]) == frozenset({1})
    assert solve_cnf([]) == frozenset()
    assert solve_cnf([(1, 2), ()]) is None
    assert solve_cnf([(-1, -1), (1, 2)]) == frozenset({2})
    assert solve_cnf(iter([iter((1, 1))])) == frozenset({1})


@pytest.mark.parametrize("bad", [[(0,)], [(1.5,)], [(True,)], [(1, "2")], [(1,), (2, False)]])
def test_solve_cnf_rejects_non_literals(bad):
    with pytest.raises(ValueError):
        solve_cnf(bad)


def _model_digest(model):
    if model is None:
        return None
    return hashlib.sha256(",".join(map(str, sorted(model))).encode()).hexdigest()[:12]


# Pinned models: the solver must make the same decisions and return the
# same models on export_cnf documents; a change here is a change of search.
@pytest.mark.parametrize("n, r, t, k, digest", [
    (5, 3, 4, 2, "4e74d5f96b64"),
    (6, 3, 4, 2, "9531c0a20fa0"),
    (7, 3, 4, 2, "c44ffe223d5b"),
    (8, 3, 4, 2, "24e4bd54c5d1"),
    (9, 3, 4, 2, "904183e89119"),
    (9, 2, 3, 3, "97915ae691e3"),
    (6, 2, 3, 2, None),
])
def test_solve_cnf_models_unchanged(n, r, t, k, digest):
    assert _model_digest(solve_cnf(export_cnf(Hypergraph.complete(n, r), t, k))) == digest


@settings(max_examples=400, deadline=None)
@given(st.lists(
    st.lists(st.integers(-6, 6).filter(bool), max_size=4), max_size=12))
def test_solve_cnf_matches_truth_table(clauses):
    model = solve_cnf(clauses)
    assert (model is not None) == brute_sat(clauses)
    if model is not None:
        assert all(any(x in model if x > 0 else -x not in model for x in cl)
                   for cl in clauses)


def test_solve_cnf_long_implication_chain():
    clauses = [(i, i + 1) for i in range(1, 3001)]
    model = solve_cnf(clauses)
    assert model is not None
    assert all(a in model or b in model for a, b in clauses)


def test_solve_cnf_thousand_edge_sample():
    h = sample_h3(23, 0.6, 20150205)
    prob = export_cnf(h, 6, 2)
    assert h.num_edges == 1053 and len(prob.clauses) == 2110
    model = solve_cnf(prob)
    assert model is not None
    assert check_free(h, prob.decode(model), 6) == []
