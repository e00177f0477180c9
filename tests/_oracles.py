"""Brute-force reference implementations the tests pin values against.

Everything here trades speed for obviousness and deliberately shares no
logic with the package: cliques come from scanning vertex subsets,
coloring questions from scanning whole assignment spaces.  Keep these
dumb; if an oracle and the library disagree, the oracle is the easier
one to audit.
"""

import heapq
import itertools
import math
import random

from ramsey3 import Hypergraph, find_free_coloring
from ramsey3.colorengine import SearchCore
from ramsey3.hypercore import canon_edge


def brute_cliques(h, t):
    """All t-subsets of V(h) whose r-subsets are all edges, sorted."""
    es = {tuple(sorted(e)) for e in h.edges}
    out = []
    for q in itertools.combinations(sorted(h.vertices), t):
        if all(tuple(sorted(s)) in es for s in itertools.combinations(q, h.r)):
            out.append(q)
    return out


def brute_mono_cliques(h, cmap, t):
    """(clique, color) pairs monochromatic under the edge -> color map."""
    out = []
    for q in brute_cliques(h, t):
        cols = {cmap[tuple(sorted(s))] for s in itertools.combinations(q, h.r)}
        if len(cols) == 1:
            out.append((q, cols.pop()))
    return out


def brute_free_exists(h, t, k):
    """Scan all k^|E| edge colorings for one with no mono t-clique."""
    edges = sorted(h.edges)
    cliques = [
        [edges.index(tuple(sorted(s))) for s in itertools.combinations(q, h.r)]
        for q in brute_cliques(h, t)
    ]
    if not cliques:
        return True
    for colors in itertools.product(range(1, k + 1), repeat=len(edges)):
        if all(len({colors[i] for i in q}) > 1 for q in cliques):
            return True
    return False


def brute_free_patterns(h, u, v, t, k):
    """Special-edge color compositions over all free colorings, by scan."""
    edges = sorted(h.edges)
    specials = [e for e in edges if u in e and v in e]
    pats = set()
    for colors in itertools.product(range(1, k + 1), repeat=len(edges)):
        cmap = dict(zip(edges, colors))
        if not brute_mono_cliques(h, cmap, t):
            pats.add(tuple(sum(1 for e in specials if cmap[e] == c)
                           for c in range(1, k + 1)))
    return pats


def brute_vertex_colorings(h, patterns, k):
    """Vertex k-colorings, lexicographic in sorted vertex order, whose
    per-edge color counts are all in patterns, by scan."""
    verts = sorted(h.vertices)
    out = []
    for colors in itertools.product(range(1, k + 1), repeat=len(verts)):
        cmap = dict(zip(verts, colors))
        if all(tuple(sum(1 for x in e if cmap[x] == c) for c in range(1, k + 1)) in patterns
               for e in h.edges):
            out.append(cmap)
    return out


def brute_sat(clauses):
    """Whether some assignment satisfies every clause, by truth table.

    Clauses are sequences of nonzero integer literals over at most 10
    variables."""
    variables = sorted({abs(x) for cl in clauses for x in cl})
    if len(variables) > 10:
        raise ValueError(f"{len(variables)} variables is too many to scan")
    for values in itertools.product((False, True), repeat=len(variables)):
        true = {v if b else -v for v, b in zip(variables, values)}
        if all(any(x in true for x in cl) for cl in clauses):
            return True
    return False


def frozenset_path_distance(h, e, f):
    """path_distance by the same Dijkstra with each state's used vertices a frozenset.

    The reference for the bit-mask states of ramsey3's path_distance; its
    pair lookups scan the edge list instead of a table of third vertices.
    """
    ce, cf = tuple(sorted(e)), tuple(sorted(f))
    if ce == cf:
        return 3
    edges = sorted(h.edges)
    heap = [(3, perm, frozenset(ce)) for perm in itertools.permutations(ce)]
    heapq.heapify(heap)
    best = {}
    while heap:
        n, frontier, used = heapq.heappop(heap)
        if best.get((frontier, used), n) < n:
            continue
        if frozenset(frontier) == frozenset(cf):
            return n
        _, a2, a3 = frontier
        for g in edges:
            if a2 in g and a3 in g:
                (w,) = set(g) - {a2, a3}
                if w not in used:
                    nk = ((a2, a3, w), used | {w})
                    if best.get(nk, n + 2) > n + 1:
                        best[nk] = n + 1
                        heapq.heappush(heap, (n + 1, *nk))
            if a3 in g:
                rest = [x for x in g if x != a3]
                if rest[0] in used or rest[1] in used:
                    continue
                for w1, w2 in (rest, rest[::-1]):
                    nk = ((a3, w1, w2), used | {w1, w2})
                    if best.get(nk, n + 3) > n + 2:
                        best[nk] = n + 2
                        heapq.heappush(heap, (n + 2, *nk))
    return math.inf


def relaxed_path_distance(h, e, f, ordered=False):
    """distance_lower_bound by a forward Dijkstra whose whole state is the ordered frontier triple.

    A step may not reuse a vertex of the frontier, but may reuse an
    earlier one.  With ordered, e is the one start frontier, in its given
    order, and the result is 3 plus that frontier's entry in the backward
    table.  The reference for ramsey3's backward relaxed table; its steps
    scan the edge list, as frozenset_path_distance's do.
    """
    ce, cf = tuple(sorted(e)), tuple(sorted(f))
    if ce == cf:
        return 3
    edges = sorted(h.edges)
    heap = [(3, tuple(e))] if ordered else [(3, perm) for perm in itertools.permutations(ce)]
    heapq.heapify(heap)
    best = {}
    while heap:
        n, frontier = heapq.heappop(heap)
        if best.get(frontier, n) < n:
            continue
        if frozenset(frontier) == frozenset(cf):
            return n
        a1, a2, a3 = frontier
        for g in edges:
            if a2 in g and a3 in g:
                (w,) = set(g) - {a2, a3}
                if w != a1 and best.get((a2, a3, w), n + 2) > n + 1:
                    best[a2, a3, w] = n + 1
                    heapq.heappush(heap, (n + 1, (a2, a3, w)))
            if a3 in g:
                rest = [x for x in g if x != a3]
                if rest[0] in frontier or rest[1] in frontier:
                    continue
                for w1, w2 in (rest, rest[::-1]):
                    if best.get((a3, w1, w2), n + 3) > n + 2:
                        best[a3, w1, w2] = n + 2
                        heapq.heappush(heap, (n + 2, (a3, w1, w2)))
    return math.inf


def pairwise_is_linear(h):
    """is_linear by comparing every two edges: no two distinct edges meet in two vertices or more."""
    es = sorted(h.edges)
    for i, e in enumerate(es):
        se = set(e)
        for f in es[i + 1 :]:
            if len(se.intersection(f)) > 1:
                return False
    return True


def reference_edge_reader(doc):
    """The hypergraph of a document's r, n and edges, read edge by edge and id by id.

    Each id must be an exact int in 0..n-1 and each edge a list or tuple
    of r distinct ids; an edge listed twice, in any order, is kept once.
    Raises ValueError or TypeError on anything else.
    """
    r, n = doc["r"], doc["n"]
    if type(r) is not int or type(n) is not int or r < 1 or not 0 <= n <= 1 << 20:
        raise ValueError(f"bad r {r!r} or n {n!r}")
    edges = set()
    for e in doc.get("edges", []):
        if not isinstance(e, (list, tuple)) or any(type(x) is not int or not 0 <= x < n for x in e):
            raise ValueError(f"edge {e!r} is not a list of ids in 0..{n - 1}")
        if len(e) != r or len(set(e)) != r:
            raise ValueError(f"edge {e!r} is not {r} distinct ids")
        edges.add(tuple(sorted(e)))
    return Hypergraph(r, frozenset(range(n)), frozenset(edges))


def random_small_hypergraph(seed):
    """Seeded hypergraph with at most 9 edges, uniformity 2 or 3."""
    rng = random.Random(seed)
    r = rng.choice((2, 3))
    n = rng.randrange(r + 2, 8)
    pool = list(itertools.combinations(range(n), r))
    m = rng.randrange(1, 10)
    edges = rng.sample(pool, min(m, len(pool)))
    return Hypergraph.build(r, edges, vertices=range(n))


def random_extension_instance(t, seed):
    """Random host, uncolored pair (u, v) below the codegree cap, and a
    free partial coloring of everything off the pair.

    Returns None when the sampled remainder has no free 2-coloring, so
    callers retry with the next seed.
    """
    rng = random.Random(seed)
    n = 8 if t == 4 else 11
    u, v = n, n + 1
    triples = [e for e in itertools.combinations(range(n), 3)
               if rng.random() < 0.15]
    for w1, w2 in itertools.combinations(range(n), 2):
        if rng.random() < 0.10:
            triples.append((w1, w2, u))
        if rng.random() < 0.10:
            triples.append((w1, w2, v))
    m = rng.randrange(0, (t - 2) ** 2)
    uv = [(w, u, v) for w in rng.sample(range(n), min(m, n))]
    h = Hypergraph.build(3, triples + uv, vertices=range(n + 2))
    rest = Hypergraph(3, h.vertices, h.edges - {canon_edge(e) for e in uv})
    res = find_free_coloring(rest, t, 2, budget=500_000)
    if not res.found:
        return None
    return h, u, v, res.coloring


def scan_extension(h, u, v, c_partial, t):
    """extend_coloring_lower_bound's packing and extended assignment, by scanning every (t-2)-subset.

    Each (t-2)-subset B of the pair's codegree neighbours, in
    lexicographic order, is packed when it avoids the vertices packed so
    far and every edge inside B + u and B + v has color 1 (blue).  The
    pair's edges {u, v, w} get color 2 (red) for w packed and 1 otherwise.
    Returns (b_sets, assignment).
    """
    nbhd = sorted(w for e in h.edges if u in e and v in e for w in e if w not in (u, v))

    def blue_spanning(bset):
        for anchor in (u, v):
            for e in itertools.combinations(sorted((*bset, anchor)), 3):
                if e in h.edges and c_partial.assignment[e] != 1:
                    return False
        return True

    chosen, used = [], set()
    for bset in itertools.combinations(nbhd, t - 2):
        if not used.intersection(bset) and blue_spanning(bset):
            chosen.append(frozenset(bset))
            used.update(bset)
    assignment = dict(c_partial.assignment)
    for w in nbhd:
        assignment[tuple(sorted((u, v, w)))] = 2 if w in used else 1
    return tuple(chosen), assignment


def reference_core_index(variables, k, constraints):
    """SearchCore's clauses and index lists, built from a list of all constraints first.

    The constructor body that read the constraints in three passes: a
    copy of each, a flat member list checked in bulk, then the clauses.
    Returns clauses, occ, watch0, short, symmetric and order, or raises
    ValueError naming the first bad member, as the core does.  Clauses
    are tuples, and an atom of a variable in no clause has () for its
    occ and watch0 entries.
    """
    if k < 1:
        raise ValueError("need at least one color")
    n, k1 = len(tuple(variables)), k + 1
    full = (1 << k1) - 2
    kept = [(list(mem), mask & full) for mem, mask in constraints]
    members = list(itertools.chain.from_iterable(mem for mem, _ in kept))
    if members and (set(map(type, members)) != {int} or min(members) < 0 or max(members) >= n):
        bad = next(v for v in members if type(v) is not int or not 0 <= v < n)
        raise ValueError(f"constraint member {bad!r} is not an index in 0..{n - 1}")
    clauses = []
    for mem, mask in kept:
        for c in range(1, k1):
            if mask >> c & 1:
                clauses.append(tuple(v * k1 + c for v in mem))
    live = {v for mem, mask in kept if mask for v in mem}
    occ = [[] if a // k1 in live else () for a in range(n * k1)]
    watch0 = [[] if a // k1 in live else () for a in range(n * k1)]
    for ci, lits in enumerate(clauses):
        for a in lits:
            occ[a].append(ci)
        if len(lits) > 1:
            watch0[lits[0]].append(ci)
            watch0[lits[1]].append(ci)
    short = [ci for ci, lits in enumerate(clauses) if len(lits) < 2]
    symmetric = all(mask in (0, full) for _, mask in kept)
    order = []
    if symmetric:
        count = [sum(map(len, occ[v * k1 + 1:v * k1 + k1])) for v in range(n)]
        order = sorted(range(n), key=count.__getitem__, reverse=True)
    return {"clauses": clauses, "occ": occ, "watch0": watch0, "short": short, "symmetric": symmetric,
            "order": order}


def reference_clique_constraints(h, t, k, fixed):
    """colorengine._clique_core's constraints, one per t-clique with a variable edge.

    The translation the core made before it sorted each clique's codes:
    a variable is its rank among the sorted edges not in fixed, a fixed
    edge with color mask m is ~m, and the mask is full narrowed to the
    fixed edges' masks (0 when they share no color).  A clique of fixed
    edges only gives no constraint.
    """
    edges = sorted(set(h.edges).difference(fixed))
    code = {e: ~m for e, m in fixed.items()}
    code.update((e, i) for i, e in enumerate(edges))
    full = (1 << (k + 1)) - 2
    out = []
    for q in brute_cliques(h, t):
        xs = [code[e] for e in itertools.combinations(q, h.r)]
        vs = [x for x in xs if x >= 0]
        if not vs:
            continue
        mask = full
        for x in [~x for x in xs if x < 0]:
            mask &= x
        out.append((vs, mask))
    return edges, out


def property_b_pair_core(family, t):
    """randomlab.property_b_toy_check's core before it asked _clique_core.

    The pairs of the shared vertex set are the variables, colored 1..k
    for k members; each (t-1)-clique of member i is one constraint, its
    pairs not all of color i.  The family has property B exactly when
    the core has no solution.
    """
    pairs = list(itertools.combinations(sorted(family[0].vertices), 2))
    index = {pq: i for i, pq in enumerate(pairs)}
    constraints = [
        ([index[pq] for pq in itertools.combinations(q, 2)], 1 << i)
        for i, h in enumerate(family, start=1)
        for q in brute_cliques(h, t - 1)
    ]
    return SearchCore(pairs, len(family), constraints)
