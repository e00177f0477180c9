"""Coloring search: free colorings, arrowing, patterns, CNF export."""

import gc
import hashlib
import itertools
import json
import random
import re
import tracemalloc

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import ramsey3.colorengine as colorengine
import ramsey3.hypercore as hypercore
from ramsey3 import (
    ArrowVerdict,
    BudgetExceeded,
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
from ramsey3.gadgets import build_Hstar
from ramsey3.randomlab import fact_count_bound, sample_h3

from _oracles import (
    brute_free_exists,
    brute_free_patterns,
    brute_mono_cliques,
    brute_sat,
    brute_vertex_colorings,
    random_small_hypergraph,
    reference_clique_constraints,
    reference_core_index,
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
    with pytest.raises(ValueError):
        EdgeColoring(2, {(0, 1, 2): 1, (1, 0, 2): 2})
    with pytest.raises(ValueError):
        EdgeColoring(2, {(0, 1, 2): 1.9})


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


def test_edge_coloring_assignment_is_read_only():
    # a changed assignment made fact_count_bound read (16, 0) on the all-one K_6 coloring
    psi = EdgeColoring(2, {e: 1 for e in itertools.combinations(range(6), 2)})
    with pytest.raises(TypeError):
        del psi.assignment[(0, 1)]
    with pytest.raises(TypeError):
        psi.assignment[(1, 0)] = 1
    assert psi.color((1, 0)) == 1
    assert fact_count_bound(psi, 3).counts == (20, 0)


def test_edge_coloring_json_round_trip():
    c = EdgeColoring(3, {(0, 1, 2): 2, (0, 1, 3): 3})
    doc = c.to_json_dict()
    assert doc["k"] == 3
    assert doc["colors"] == sorted(doc["colors"])
    assert EdgeColoring.from_json_dict(doc) == c


@pytest.mark.parametrize("colors", [
    [[[0, 1.0, 2], 1]],
    [[[0, True, 2], 1]],
    [[[0, "1", 2], 1]],
    [[[0, [1], 2], 1]],
    [[[0, None, 2], 1]],
    [[[0, -1, 2], 1]],
    [[[0, 1, 2], 1.0]],
    [[[0, 1, 2], 3]],
    [[[0, 1, 2], 1], [[0, 1, 2], 2]],
    [[[0, 1, 2], 1], [[2, 1, 0], 1]],
    [[5, 1]],
    [[[0, 1, 2]]],
    7,
])
def test_edge_coloring_document_ids_checked_by_the_constructor(colors):
    # the reader passes each edge's ids to the constructor as they are; a bad one,
    # a float or a list included, is a ValueError, never a TypeError
    with pytest.raises(ValueError):
        EdgeColoring.from_json_dict({"k": 2, "colors": colors})


def test_vertex_coloring_assignment_is_read_only():
    # a writable assignment let v.color(0) read 7 although k = 2
    colors = {0: 1, 1: 2}
    v = VertexColoring(2, colors)
    with pytest.raises(TypeError):
        v.assignment[0] = 7
    colors[0] = 7  # nor does the caller's dict reach it
    assert v.color(0) == 1 and dict(v.assignment) == {0: 1, 1: 2}


def _outcome(build):
    """What build() returns, with each entry's types, or what it raises."""
    try:
        return sorted(map(repr, build().items()))
    except (TypeError, ValueError) as exc:
        return type(exc), str(exc)


@st.composite
def _loose_colorings(draw):
    """k and a coloring whose keys may be canonical, reversed, of mixed length
    or hold bools, floats and negative ids, and whose colors may be out of range."""
    k = draw(st.integers(1, 3))
    size = draw(st.integers(1, 3))
    canonical = st.sets(st.integers(-2, 9), min_size=size, max_size=size).map(sorted).map(tuple)
    loose_id = st.one_of(st.integers(-2, 9), st.booleans(), st.sampled_from([1.0, 2.5]))
    key = st.one_of(canonical, canonical.map(lambda e: e[::-1]), st.lists(loose_id, max_size=4).map(tuple))
    color = st.one_of(st.integers(1, k), st.sampled_from([0, k + 1, True, 1.0]))
    return k, draw(st.dictionaries(key, color, max_size=6))


@st.composite
def _subgraph_cases(draw):
    """A hypergraph, a subset of its edges, and an edge it lacks."""
    r = draw(st.integers(1, 3))
    vertices = frozenset(draw(st.sets(st.integers(0, 9), min_size=r, max_size=8)))
    edges = frozenset(draw(st.sets(st.sampled_from(list(itertools.combinations(sorted(vertices), r))))))
    keep = draw(st.sets(st.sampled_from(sorted(edges)))) if edges else set()
    lacking = draw(st.sampled_from([e for e in itertools.combinations(range(12), r) if e not in edges]))
    return Hypergraph(r, vertices, edges), keep, lacking


_PATH = (Hypergraph(2, frozenset({0, 1, 2}), frozenset({(0, 1), (1, 2)})), {(1, 2)}, (0, 2))


@settings(max_examples=300, deadline=None)
@given(_loose_colorings(), _subgraph_cases())
@example((2, {(0, 1): True}), _PATH)
@example((2, {(True, 2): 1, (0, 1): 2}), _PATH)
@example((3, {(0, 1): 1, (1, 0): 2}), _PATH)
@example((1, {(0, 1): 1, (0, 1, 2): 1}), _PATH)
@example((2, {(-1, 3): 1, (0, 2): 2}), _PATH)
def test_bulk_checks_agree_with_the_per_entry_paths(coloring, subgraph):
    # EdgeColoring: the bulk check, then the entry loop only where it fails,
    # accepts, rejects and stores just what the entry loop alone does
    k, assignment = coloring
    got = _outcome(lambda: EdgeColoring(k, assignment).assignment)
    assert got == _outcome(lambda: colorengine._normalized_coloring(k, assignment))
    if colorengine._canonical_coloring(k, assignment):
        assert got == sorted(map(repr, assignment.items()))
    # a sub-hypergraph checked by one subset test equals the fully checked one
    h, keep, lacking = subgraph
    sub = h.spanning_subgraph(keep)
    assert sub == Hypergraph(h.r, h.vertices, frozenset(keep))
    assert (sub.r, sub.vertices, sub.edges) == (h.r, h.vertices, keep)
    with pytest.raises(ValueError, match="is not an edge of the hypergraph"):
        h.spanning_subgraph(keep | {lacking})


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


def test_check_free_leaves_no_reference_cycles():
    # its search left a cycle per first vertex for the collector: 920 objects on K_12 at t = 5
    h = Hypergraph.complete(12, 3)
    coloring = EdgeColoring(2, {e: 1 + sum(e) % 2 for e in h.edges})
    gc.collect()
    gc.disable()
    try:
        assert check_free(h, coloring, 5)
        assert gc.collect() == 0
    finally:
        gc.enable()


@st.composite
def colored_graphs(draw):
    """An r-graph with a k-coloring of its edges and some colored non-edges; ids dense or spread past 256."""
    r = draw(st.sampled_from((2, 3)))
    n = draw(st.integers(r, 9))
    ids = sorted(draw(st.sets(st.integers(0, 3000), min_size=n, max_size=n))) if draw(st.booleans()) else list(range(n))
    r_sets = list(itertools.combinations(ids, r))
    edges = draw(st.sets(st.sampled_from(r_sets)))
    k = draw(st.integers(1, 3))
    colors = {e: draw(st.integers(1, k)) for e in sorted(edges)}
    extra = draw(st.sets(st.sampled_from(r_sets)))
    assignment = {**{e: draw(st.integers(1, k)) for e in sorted(extra - edges)}, **colors}
    return Hypergraph.build(r, edges, ids), EdgeColoring(k, assignment), colors


@settings(max_examples=300, deadline=None)
@given(colored_graphs(), st.integers(0, 3))
@example((Hypergraph.complete(7, 3), EdgeColoring(1, dict.fromkeys(Hypergraph.complete(7, 3).edges, 1)),
          dict.fromkeys(Hypergraph.complete(7, 3).edges, 1)), 3)
def test_check_free_matches_brute_force(case, extra_t):
    h, coloring, colors = case
    t = h.r + extra_t
    assert check_free(h, coloring, t) == brute_mono_cliques(h, colors, t)


def test_check_free_does_not_use_the_clique_kernel(monkeypatch):
    # the check's search is separate from the one that builds the core's constraints
    def kernel(*args):
        raise AssertionError("check_free called the clique kernel")

    for module, name in ((hypercore, "enumerate_cliques"), (hypercore, "_cliques"), (colorengine, "enumerate_cliques")):
        monkeypatch.setattr(module, name, kernel)
    with pytest.raises(AssertionError):
        enumerate_cliques(K5, 4)
    for h, edge in ((K5, (0, 1, 2)), (K6P, (0, 1))):
        coloring = all_one_but(h, edge)
        for t in range(h.r, 6):
            assert check_free(h, coloring, t) == brute_mono_cliques(h, coloring.assignment, t)


@pytest.mark.parametrize("h, t", [(Hypergraph.build(1, [(0,), (1,)]), 2), (Hypergraph.complete(5, 4), 5), (K5, 2)])
def test_check_free_rejects_unsupported_questions(h, t):
    with pytest.raises(ValueError):
        check_free(h, EdgeColoring(1, dict.fromkeys(h.edges, 1)), t)


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


@settings(max_examples=150, deadline=None)
@given(fixed_instances())
# one 4-clique whose fixed edges carry both colors: mask 0, so no clause
@example((Hypergraph.complete(4, 3), 4, 2, {(0, 1, 2): 1, (0, 1, 3): 2}))
def test_clique_core_clauses_match_the_reference_translation(inst):
    h, t, k, fixed = inst
    edges, cons = reference_clique_constraints(h, t, k, fixed)
    assert colorengine._clique_core(h, t, k, fixed).clauses == SearchCore(edges, k, cons).clauses


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
    for members in ([0, 2], [-1], [0, True], [1, True], [0.0], [0, 1.5], ["1"], [None], [0, "a"]):
        with pytest.raises(ValueError):
            SearchCore([(0,), (1,)], 2, [(members, 6)])


def _random_core_instance(rng):
    """n variables, k colors and up to 12 constraints, as lists or tuples.

    Half the instances are color-symmetric (every mask 0 or full); in the
    rest a mask may also hold bit 0 or bits above k.  About one in eight
    gets a bad member: out of range, a bool, a float, a str or None.
    """
    n, k = rng.randint(1, 8), rng.randint(1, 4)
    full = (1 << (k + 1)) - 2
    masks = [0, full] if rng.random() < 0.5 else [0, full, *rng.sample(range(1 << (k + 3)), 4)]
    cons = []
    for _ in range(rng.randint(0, 12)):
        mem = rng.sample(range(n), rng.randint(0, min(n, 5)))
        cons.append((mem if rng.random() < 0.8 else tuple(mem), rng.choice(masks)))
    if cons and rng.random() < 0.125:
        i = rng.randrange(len(cons))
        mem = list(cons[i][0])
        mem.insert(rng.randint(0, len(mem)), rng.choice([n, -1, True, 1.0, "1", None]))
        cons[i] = (mem, cons[i][1])
    return n, k, cons


def test_core_reads_its_constraints_once_as_the_list_reference_did():
    # the core reads its constraints once, here from a generator, and builds what
    # the reference builds from a list of them all, or raises what it raises
    seen = {"error": 0, "symmetric": 0, "asymmetric": 0}
    for seed in range(300):
        n, k, cons = _random_core_instance(random.Random(seed))
        variables = [(v,) for v in range(n)]
        try:
            want = reference_core_index(variables, k, cons)
        except ValueError as exc:
            with pytest.raises(ValueError, match=re.escape(str(exc))):
                SearchCore(variables, k, (c for c in cons))
            seen["error"] += 1
            continue
        core = SearchCore(variables, k, (c for c in cons))
        assert {name: getattr(core, name) for name in want} == want, seed
        seen["symmetric" if want["symmetric"] else "asymmetric"] += 1
    assert min(seen.values()) >= 20, seen


def test_clique_core_streams_its_constraints():
    # each clique becomes its clauses as the fold makes it, so the build holds no
    # constraint list: the t=7 apex core's traced peak was 2.2 times its size
    host = codegree.build_partition_host(7)
    aug = codegree.augment_apex_pair(host)[0]
    gc.collect()
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        core = colorengine._clique_core(aug, 7, 2, host.coloring.assignment)
        retained, peak = (m - base for m in tracemalloc.get_traced_memory())
    finally:
        tracemalloc.stop()
    assert len(core.clauses) == 3130
    assert peak <= 1.25 * retained, (peak, retained)


def test_core_holds_no_clause_tables_for_unconstrained_variables():
    # one 3-member constraint among 30,000 variables: only its members get
    # lists; the others share (), in the core and in each solve's watch copy
    variables = [(v,) for v in range(30000)]
    gc.collect()
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        core = SearchCore(variables, 2, [([0, 1, 2], 6)])
        retained = tracemalloc.get_traced_memory()[0] - base
        res = core.solve()
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert _tree(res) == (True, 29998, 1, 0, 0, 0)
    assert retained < 4 * 2**20, retained
    assert peak < 20 * 2**20, peak


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


def test_sparse_free_coloring_search_tree_unchanged():
    # the benchmark's big 3-graph: 1,053 edges, of which few lie in a 6-clique
    res = find_free_coloring(sample_h3(23, 0.6, 20150205), 6, 2)
    assert _tree(res) == (True, 1050, 2, 0, 0, 0)
    assert _color_digest(res.coloring) == "e09698a0325d"


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


# a minimal Ramsey graph for K_3, from minimalize on a seeded G(11, 0.8): its full
# refutation takes 36 nodes, and one single-edge deletion 38 to find a free coloring
MIN27 = [(0, 2), (0, 5), (0, 6), (0, 8), (0, 9), (0, 10), (2, 3), (2, 5), (2, 6), (2, 7), (2, 8), (2, 9), (2, 10),
         (3, 5), (3, 7), (3, 8), (3, 10), (5, 6), (5, 7), (5, 8), (5, 9), (5, 10), (6, 7), (6, 9), (7, 9), (7, 10), (8, 10)]


def test_is_minimal_ramsey_unknown_when_a_deletion_runs_out():
    h = Hypergraph.build(2, MIN27)
    assert is_minimal_ramsey(h, 3, 2) is True
    assert arrows(h, 3, 2, budget=36).arrows is True  # the full solve is decided within the budget
    assert is_minimal_ramsey(h, 3, 2, budget=36) is None


def test_minimalize_budget_runs_out():
    with pytest.raises(BudgetExceeded, match="budget too small"):
        minimalize(Hypergraph.complete(6, 2), 3, 2, budget=0)


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


@pytest.mark.parametrize("pattern", [(True, True), (1.0, 1), (1, 1.0)], ids=["bool", "float first", "float last"])
def test_pattern_set_rejects_non_int_entries(pattern):
    # (True, True) was accepted as (1, 1)
    with pytest.raises(ValueError, match="is not a composition"):
        PatternSet(2, 2, frozenset({pattern}))


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


def test_vertex_coloring_outputs_pinned():
    # the read-only assignment changes no coloring or order; digest taken before that change
    p11 = PatternSet(2, 2, frozenset({(1, 1)}))
    pf = PatternSet(3, 2, frozenset({(1, 2), (2, 1)}))
    c5 = Hypergraph.build(2, [(i, (i + 1) % 5) for i in range(5)])
    digest = hashlib.sha256()
    for h, ps in ((build_Hstar(c5, p11, 2)[0], p11), (build_Hstar(fano_plane(), pf, 2)[0], pf),
                  (Hypergraph.complete(5, 3), PatternSet(3, 2, frozenset({(3, 0), (1, 2)}))),
                  (Hypergraph.build(2, [(i, i + 1) for i in range(9)]), p11)):
        found = admissible_vertex_coloring(h, ps, mode="enumerate")
        digest.update(json.dumps([sorted(vc.assignment.items()) for vc in found]).encode())
        digest.update(json.dumps(sorted(admissible_vertex_coloring(h, ps).assignment.items())).encode())
    assert digest.hexdigest()[:12] == "250f15c1b578"


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


def test_solve_cnf_contradicting_unit_clauses():
    assert solve_cnf([[1], [-1]]) is None
    assert solve_cnf([[-2], [1, 2], [2]]) is None


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
