"""Immutable model for small uniform hypergraphs.

Shared data layer for the whole package: hypergraphs over integer
vertices, links and (co)degrees, clique enumeration, an interval-based
distance between edges with a polynomial lower bound on it, and vertex
identification (gluing) used by the gadget builders.  Both distance
functions read one relaxed table, searched backwards from the target edge;
the exact distance is an A* search on it, exponential in the worst case.
There are two clique searches that share no code: the kernel of
enumerate_cliques, and _bounded_cliques, pruned by a coloring bound, which
colorengine.check_free runs on each color class.  glue reads its copies
once, so a builder can stream them in.

All values are immutable after construction and every operation is a
pure function, so objects may be shared freely.  A Hypergraph stores no
derived index: pair questions read the edges, and a search that needs a
table (clique masks, the distance table) builds it per call.
"""

from __future__ import annotations

import heapq
import itertools
import operator
import reprlib
from collections import Counter, defaultdict
from dataclasses import dataclass
from math import comb, inf
from typing import Any, Callable, Collection, Iterable, Iterator, Mapping, Optional, Sequence

Edge = tuple[int, ...]

__all__ = [
    "Edge",
    "Hypergraph",
    "GlueResult",
    "fano_plane",
    "link",
    "degree",
    "codegree",
    "min_ell_degree",
    "min_positive_codegree",
    "enumerate_cliques",
    "path_distance",
    "distance_lower_bound",
    "glue",
    "induced",
    "is_linear",
    "to_json_dict",
    "from_json_dict",
]


# an input value as an error shows it: repr(x) for a small x, else cut to 6 items of a container, 30 characters of a string
brief: Callable[[object], str] = reprlib.Repr().repr


def vertex_ids(xs: Iterable[object], what: str = "vertex set") -> tuple[int, ...]:
    """xs as int ids: a bool raises ValueError, a float or other non-integer TypeError."""
    xs = tuple(xs)
    if bool in map(type, xs):
        raise ValueError(f"{what} has a bool vertex id: {next(x for x in xs if type(x) is bool)!r}")
    return tuple(map(operator.index, xs))


def canon_edge(verts: Iterable[int], r: Optional[int] = None) -> Edge:
    """Sorted tuple form of an edge; rejects repeats, negative, bool and non-integer ids."""
    xs = tuple(verts)
    vs = tuple(sorted(vertex_ids(xs, "edge")))
    if len(set(vs)) != len(vs):
        raise ValueError(f"edge {brief(xs)} has repeated vertices")
    if r is not None and len(vs) != r:
        raise ValueError(f"expected a {r}-edge, got {brief(vs)}")
    if vs and vs[0] < 0:
        raise ValueError("vertex ids must be nonnegative")
    return vs


_CHECK_CHUNK = 4096  # edges per step of the bulk edge check; their id columns are all it copies


def _edges_well_formed(r: int, edges: Collection[Edge], vertices: Optional[frozenset[int]] = None) -> bool:
    """True when every edge is a tuple of r >= 1 exact ints, strictly increasing, in range.

    In range means inside vertices when they are given, nonnegative when
    not.  Edges are read a chunk at a time and turned into r columns of
    ids, so each test is one pass at C speed over a column; False means
    that some edge breaks this rule.
    """
    if not set(map(type, edges)) <= {tuple} or not set(map(len, edges)) <= {r}:
        return False
    rest = iter(edges)
    for _ in range(0, len(edges), _CHECK_CHUNK):
        cols = list(zip(*itertools.islice(rest, _CHECK_CHUNK)))
        if not set(map(type, itertools.chain.from_iterable(cols))) <= {int}:
            return False
        if not (all(map(vertices.issuperset, cols)) if vertices is not None else min(cols[0]) >= 0):
            return False
        for lo, hi in zip(cols, cols[1:]):
            if not all(map(operator.lt, lo, hi)):
                return False
    return True


@dataclass(frozen=True)
class Hypergraph:
    """An r-uniform hypergraph on integer vertices; edges are stored as sorted tuples."""

    r: int
    vertices: frozenset[int]
    edges: frozenset[Edge]

    def __post_init__(self) -> None:
        if self.r < 1:
            raise ValueError("uniformity must be at least 1")
        if not set(map(type, self.vertices)) <= {int}:
            raise ValueError(f"vertex id {brief(next(v for v in self.vertices if type(v) is not int))} is not an int")
        if min(self.vertices, default=0) < 0:
            raise ValueError("vertex ids must be nonnegative")
        if not _edges_well_formed(self.r, self.edges, self.vertices):
            # the bulk check's rule, edge by edge, only to name an edge that breaks it
            for e in self.edges:
                if type(e) is not tuple or len(e) != self.r or set(map(type, e)) != {int} or e != tuple(sorted(set(e))):
                    raise ValueError(f"malformed {self.r}-edge: {brief(e)}")
                if not self.vertices.issuperset(e):
                    raise ValueError(f"edge {brief(e)} uses vertices outside the vertex set")

    @classmethod
    def build(cls, r: int, edges: Iterable[Iterable[int]], vertices: Iterable[int] = ()) -> "Hypergraph":
        es = frozenset(canon_edge(e, r) for e in edges)
        vs = frozenset(vertex_ids(vertices)) | {v for e in es for v in e}
        return cls(r, vs, es)

    @classmethod
    def complete(cls, n: int, r: int = 3) -> "Hypergraph":
        return cls(r, frozenset(range(n)), frozenset(itertools.combinations(range(n), r)))

    @property
    def num_vertices(self) -> int:
        return len(self.vertices)

    @property
    def num_edges(self) -> int:
        return len(self.edges)

    def is_dense(self) -> bool:
        """True if the vertex set is exactly 0..n-1: n distinct ids >= 0 whose largest is n-1."""
        return max(self.vertices, default=-1) == len(self.vertices) - 1

    def minus_edge(self, e: Iterable[int]) -> "Hypergraph":
        ce = canon_edge(e, self.r)
        if ce not in self.edges:
            raise ValueError(f"{ce!r} is not an edge of the hypergraph")
        return self.spanning_subgraph(self.edges - {ce})

    def spanning_subgraph(self, edges: Iterable[Edge]) -> "Hypergraph":
        """The hypergraph with these edges of self, and self's r and vertices.

        It equals Hypergraph(r, vertices, edges), but its one check
        is a subset test against self.edges, which passed every check when
        self was built; a frozenset keeps the hash of each member, so the
        test rehashes nothing.
        """
        es = frozenset(edges)
        if not es <= self.edges:
            raise ValueError(f"{next(iter(es - self.edges))!r} is not an edge of the hypergraph")
        sub = object.__new__(Hypergraph)
        vars(sub).update(r=self.r, vertices=self.vertices, edges=es)
        return sub

    def plus_edges(self, extra: Iterable[Iterable[int]]) -> "Hypergraph":
        es = frozenset(canon_edge(e, self.r) for e in extra)
        vs = self.vertices | {v for e in es for v in e}
        return Hypergraph(self.r, vs, self.edges | es)


def fano_plane() -> Hypergraph:
    """The seven lines of the Fano plane; linear and not 2-colorable."""
    lines = [(0, 1, 2), (0, 3, 4), (0, 5, 6), (1, 3, 5), (1, 4, 6), (2, 3, 6), (2, 4, 5)]
    return Hypergraph.build(3, lines)


def link(h: Hypergraph, v: int) -> Hypergraph:
    """Link of a vertex: the (r-1)-graph {e - v : v in e}.

    The vertex set of the link is the support of its edges.

    Raises:
        ValueError: if v is not a vertex of h.
    """
    if v not in h.vertices:
        raise ValueError("vertex not in hypergraph")
    es = frozenset(tuple(x for x in e if x != v) for e in h.edges if v in e)
    vs = frozenset(x for e in es for x in e)
    return Hypergraph(h.r - 1, vs, es)


def degree(h: Hypergraph, s: Iterable[int]) -> int:
    """Number of edges containing every vertex of s, with 1 <= |s| <= r-1."""
    ss = frozenset(vertex_ids(s))
    if not ss <= h.vertices:
        raise ValueError("vertex not in hypergraph")
    if not 1 <= len(ss) <= h.r - 1:
        raise ValueError(f"degree wants a set of size 1..{h.r - 1}, got {len(ss)}")
    return sum(1 for e in h.edges if ss <= set(e))


def codegree(h: Hypergraph, u: int, v: int) -> int:
    return degree(h, (u, v))


def min_ell_degree(h: Hypergraph, ell: int) -> int:
    """Minimum degree over all ell-subsets of the vertex set; 0 unless the edges cover all C(n, ell)."""
    if not 1 <= ell <= h.r - 1:
        raise ValueError(f"ell must lie in 1..{h.r - 1}")
    if len(h.vertices) < ell:
        raise ValueError("not enough vertices")
    cnt = Counter(sub for e in h.edges for sub in itertools.combinations(e, ell))
    return min(cnt.values()) if len(cnt) == comb(len(h.vertices), ell) else 0


def min_positive_codegree(h: Hypergraph) -> Optional[int]:
    """Minimum codegree over vertex pairs of positive codegree; None if all are zero."""
    if h.r < 3:
        raise ValueError("codegree needs uniformity at least 3")
    return min(Counter(p for e in h.edges for p in itertools.combinations(e, 2)).values(), default=None)


# enumerate_cliques reads a vertex's later neighbours on the id line while they
# lie within this many ids of it; no mask it builds is wider
_MASK_SPAN = 256


def _clique_masks(edges: Iterable[Edge], r: int) -> tuple[dict, set[int]]:
    """Later-neighbour bit masks of sorted r-edges, and the vertices whose neighbours they cut off.

    nbrs[a] (r = 2) or nbrs[a][b], a < b (r = 3) marks the vertices after
    the key that complete an edge, read in the frame of the key's last
    vertex x (bit i is vertex x + 1 + i), up to _MASK_SPAN ids on.  For
    r = 3 the first and middle vertex of every edge have a row, and a pair
    that no later vertex completes within the span is absent (mask 0).
    spread holds each vertex with a later neighbour beyond the span.
    """
    nbrs: dict = {}
    spread: set[int] = set()
    if r == 2:
        for a, b in edges:
            if b - a > _MASK_SPAN:
                spread.add(a)
                nbrs.setdefault(a, 0)
            else:
                nbrs[a] = nbrs.get(a, 0) | 1 << (b - a - 1)
    else:
        for a, b, c in edges:
            row = nbrs.get(a)
            if row is None:
                row = nbrs[a] = {}
            if c - b <= _MASK_SPAN:
                row[b] = row.get(b, 0) | 1 << (c - b - 1)
            if b not in nbrs:
                nbrs[b] = {}
            if c - a > _MASK_SPAN:
                spread.add(a)
                if c - b > _MASK_SPAN:
                    spread.add(b)
    return nbrs, spread


def _extend(out: list, nbrs: dict, r: int, stack: list[int], w: int, cands: int, need: int,
            member_rows: Optional[list[dict]] = None) -> None:
    # cands holds vertices after w in w's frame; need >= 1 more members; for
    # r = 3, member_rows holds nbrs[s] for each s on the stack (every s starts
    # or continues an edge, so it has a row)
    while cands:
        i = (cands & -cands).bit_length()
        w += i
        cands >>= i
        if need == 1:
            out.append((*stack, w))
            continue
        # u may join stack+[w] only if it spans an edge with w (r = 2),
        # or with w and each s on the stack (r = 3)
        if r == 2:
            nxt = cands & nbrs[w] if w in nbrs else 0
        else:
            nxt = cands
            for row in member_rows:
                if w not in row:  # no later vertex completes an edge with s and w
                    nxt = 0
                    break
                nxt &= row[w]
        if nxt.bit_count() >= need - 1:
            stack.append(w)
            if r == 3:
                member_rows.append(nbrs[w])
            _extend(out, nbrs, r, stack, w, nxt, need - 1, member_rows)
            if r == 3:
                member_rows.pop()
            stack.pop()


def _cliques(edges: Collection[Edge], r: int, t: int) -> list[tuple[int, ...]]:
    """The t-cliques, t >= r, of the r-graph on these sorted edges, in lexicographic order."""
    if t == r:
        return sorted(edges)
    out: list[tuple[int, ...]] = []
    nbrs, spread = _clique_masks(edges, r)
    # link[v] holds the (r-1)-sets k of the edges (v, *k) that a spread vertex v
    # starts, and rows[k] the last vertices of the edges that start with such a k
    link: dict[int, list[Edge]] = {}
    rows: dict[Edge, set[int]] = {}
    if spread:
        for e in edges:
            if e[0] in spread:
                link.setdefault(e[0], []).append(e[1:])
        keys = {k for ks in link.values() for k in ks}
        for e in edges:
            if e[:-1] in keys:
                rows.setdefault(e[:-1], set()).add(e[-1])
    # every later member of a clique shares an edge with its first vertex
    for v in sorted(nbrs):
        if v not in spread:
            row = nbrs[v]
            if r == 2:
                _extend(out, nbrs, r, [v], v, row, t - 1)
                continue
            # row[w] holds the third vertices of the edges vw*, which are all
            # the later candidates of a clique that starts v, w: take that step here
            for w in sorted(row):
                if row[w].bit_count() >= t - 2:
                    _extend(out, nbrs, r, [v, w], w, row[w], t - 2, [row, nbrs[w]])
            continue
        # the rest of a clique that v starts is a (t-1)-clique of the edges
        # (*k, c), k in link[v], whose other (r-1)-sets with c, (*k[1:], c) and
        # (*k[:-1], c), are in link[v] too; an intersection costs its smaller side
        ks = link.get(v, ())
        after: dict[Edge, set[int]] = {}
        for k in ks:
            after.setdefault(k[:-1], set()).add(k[-1])
        cont = [(*k, c) for k in ks if k in rows for c in rows[k].intersection(after.get(k[1:], ()), after[k[:-1]])]
        out += [(v, *q) for q in _cliques(cont, r, t - 1)]
    return out


def enumerate_cliques(h: Hypergraph, t: int) -> tuple[tuple[int, ...], ...]:
    """All t-subsets of V(h) spanning complete r-uniform subhypergraphs.

    Results are sorted tuples in lexicographic order.  Uniformity 2 and 3
    are supported; t must be at least r.

    One kernel grows each clique from its first vertex v, intersecting
    int neighbour masks, one AND per stack member and step; no mask is
    wider than _MASK_SPAN bits, whatever the ids.  If a later neighbour
    of v lies farther off, the rest of each clique that v starts is found
    as a local problem on the edges that continue v's own.
    """
    if h.r not in (2, 3):
        raise ValueError("clique enumeration supports uniformity 2 and 3 only")
    if t < h.r:
        raise ValueError("clique size below the uniformity")
    return tuple(_cliques(h.edges, h.r, t))


def _bounded_cliques(edges: Iterable[Edge], r: int, t: int) -> list[tuple[int, ...]]:
    """The t-cliques, t >= r, of the r-graph (r = 2 or 3) on these sorted edges, in lexicographic order.

    colorengine.check_free's search, which shares no code with _cliques.
    Each clique grows from its first vertex v, with masks over v's later
    neighbours only (bit i for the i-th), so none is wider than a degree.
    At a node with last member w, candidates C and m members to add, the
    rest is a clique of w's link on C (x ~ y when wxy is an edge; for
    r = 2, the graph itself): the node is pruned when a greedy coloring of
    that link uses fewer than m colors (Tomita and Seki's coloring bound).
    """
    first: dict[int, list[Edge]] = {}  # v -> the rest of each edge that starts at v
    after: dict[Edge, list[int]] = {}  # k -> the last vertex of each edge (*k, x)
    for e in edges:
        first.setdefault(e[0], []).append(e[1:])
        after.setdefault(e[:-1], []).append(e[-1])
    out: list[tuple[int, ...]] = []
    for v in sorted(first):
        us = [v, *sorted({x for k in first[v] for x in k})]  # local id i is us[i]
        pos = {u: i for i, u in enumerate(us)}
        rows: dict[tuple[int, ...], int] = {}

        def row(s: int, x: int) -> int:
            # the local ids i for which (s, x, i) is an edge, or (x, i) for r = 2
            key = (s, x)[3 - r:]
            if key not in rows:
                rows[key] = sum(1 << pos[y] for y in after.get(tuple(us[i] for i in key), ()) if y in pos)
            return rows[key]

        def grow(stack: list[int], cands: int, m: int) -> None:
            # stack: local ids of the members so far; cands: the later local ids that extend it
            if m == 1:
                base = [us[i] for i in stack]
                out.extend((*base, u) for i, u in enumerate(us) if cands >> i & 1)
                return
            left = cands
            for _ in range(m):  # m greedy color classes of the last member's link on cands, or prune
                if not left:
                    return
                free = left
                while free:  # a class takes the lowest id left and drops its later neighbours
                    low = free & -free
                    left ^= low
                    free &= ~(low | row(stack[-1], low.bit_length() - 1))
            while cands:
                low = cands & -cands
                cands ^= low
                x = low.bit_length() - 1
                nxt = cands
                for s in stack if r == 3 else stack[-1:]:
                    nxt &= row(s, x)
                if nxt.bit_count() >= m - 1:
                    stack.append(x)
                    grow(stack, nxt, m - 1)
                    stack.pop()

        grow([0], (1 << len(us)) - 2, t - 1)
        del grow  # its closure holds it: free that cycle now, not at the next collection
    return out


def _distance_table(h: Hypergraph, e: Iterable[int], f: Iterable[int]) -> tuple[Edge, dict, dict, dict]:
    """Edge e of the 3-graph h in canonical form, h's step table, and the relaxed distances to f.

    For each edge uvw, in every order, (v, w) is in ends[u], and w is in
    thirds[u, v] when u < v.  togo maps each ordered frontier triple from
    which a relaxed path reaches f (f's orderings map to 0) to the fewest
    positions such a path still adds.  A relaxed step may not reuse a
    frontier vertex, but may reuse an earlier one, so every path that
    path_distance counts is a relaxed path of the same length.  One
    Dijkstra, run backwards from f's orderings, finds togo.
    """
    if h.r != 3:
        raise ValueError("path distance is defined for 3-uniform hypergraphs")
    ce, cf = canon_edge(e, 3), canon_edge(f, 3)
    for x in (ce, cf):
        if x not in h.edges:
            raise ValueError(f"{x!r} is not an edge of the hypergraph")
    ends: dict[int, list[tuple[int, int]]] = defaultdict(list)
    thirds: dict[tuple[int, int], list[int]] = defaultdict(list)
    for g in h.edges:
        for u, v, w in itertools.permutations(g):
            ends[u].append((v, w))
            if u < v:
                thirds[u, v].append(w)
    togo = dict.fromkeys(itertools.permutations(cf), 0)
    heap = [(0, fr) for fr in togo]
    while heap:
        n, frontier = heapq.heappop(heap)
        if togo[frontier] < n:
            continue
        # the steps into (b1, b2, b3): one position from (a1, b1, b2), two from (a1, a2, b1)
        b1, b2, b3 = frontier
        steps = [((a1, b1, b2), n + 1) for a1 in thirds[min(b1, b2), max(b1, b2)] if a1 != b3]
        steps += [((a1, a2, b1), n + 2) for a1, a2 in ends[b1] if a1 not in frontier and a2 not in frontier]
        for nk, m in steps:
            if togo.get(nk, m + 1) > m:
                togo[nk] = m
                heapq.heappush(heap, (m, nk))
    return ce, ends, thirds, togo


def path_distance(h: Hypergraph, e: Iterable[int], f: Iterable[int]) -> int | float:
    """Fewest vertices of a path of edges from e to f, laid out on a line.

    A path is a sequence of distinct edges e = e_1, ..., e_m = f together
    with a linear order on their vertex union in which every e_i occupies
    three consecutive positions and consecutive edges intersect.  The
    distance is the minimum number of vertices over all such paths, with
    dist(e, e) = 3, and inf when no path exists.

    An A* search (Hart, Nilsson and Raphael) whose estimate is the relaxed
    table that distance_lower_bound reads: it never exceeds the positions
    still needed, and no step lowers it by more than the step adds, so the
    first state popped on f is exact.  Ties in the estimate go to the
    longer prefix.  Exponential in the worst case.  Each search state
    keeps its used vertices as one int mask, bit i for the i-th vertex in
    sorted order (a rank, never a raw id), so a state costs one int.
    """
    ce, ends, thirds, togo = _distance_table(h, e, f)
    bit = {v: 1 << i for i, v in enumerate(sorted(h.vertices))}

    # states are (ordered frontier edge, vertices used so far); extending the
    # frontier interval by one position reuses its last two vertices,
    # extending by two reuses only the last one.  A frontier absent from
    # togo cannot reach f, so the search never enters it; togo is 0 on f's
    # orderings alone.
    start_used = bit[ce[0]] | bit[ce[1]] | bit[ce[2]]
    heap = sorted((3 + togo[fr], -3, fr, start_used) for fr in itertools.permutations(ce) if fr in togo)
    best: dict[tuple[tuple[int, int, int], int], int] = {}
    while heap:
        _, neg, frontier, used = heapq.heappop(heap)
        n = -neg
        if best.get((frontier, used), n) < n:
            continue
        if not togo[frontier]:
            return n
        _, a2, a3 = frontier
        steps = [((a2, a3, w), bit[w], n + 1) for w in thirds[min(a2, a3), max(a2, a3)]]
        steps += [((a3, w1, w2), bit[w1] | bit[w2], n + 2) for w1, w2 in ends[a3]]
        for fr, new, m in steps:
            nk = (fr, used | new)
            if not used & new and fr in togo and best.get(nk, m + 1) > m:
                best[nk] = m
                heapq.heappush(heap, (m + togo[fr], -m, *nk))
    return inf


def distance_lower_bound(h: Hypergraph, e: Iterable[int], f: Iterable[int]) -> int | float:
    """A lower bound on path_distance(h, e, f), found in polynomial time.

    3 plus the least relaxed distance to f from an ordering of e, read off
    the table that path_distance searches by; inf only when no path exists.
    """
    ce, _, _, togo = _distance_table(h, e, f)
    return 3 + min((togo[fr] for fr in itertools.permutations(ce) if fr in togo), default=inf)


@dataclass
class GlueResult:
    h: Hypergraph
    map_a: dict[int, int]
    map_b: dict[int, int]


def glue(a: Hypergraph, b: Hypergraph, copies: Iterable[Iterable[tuple[int, int]]] = ((),)) -> GlueResult:
    """Disjoint union of a and copies of b, followed by the identifications.

    copies is any iterable, read once, with one copy of b per item: the
    pairs (vertex of a, vertex of b) that copy identifies, a partial
    injection from a to it, ids checked by vertex_ids.  The default is one
    copy with no pairs, so glue(a, b) is the disjoint union.  Output ids
    are dense: a's ids (kept verbatim when already 0..n-1, which the gadget
    builders rely on), then each copy's new vertices, so one call equals
    the fold of single-copy calls.  map_b is the vertex map of the last
    copy.  The edges go straight into the result's one edge set, a copy
    at a time, so a generator of copies is never held whole.

    Raises:
        ValueError: on uniformity mismatch, a pair that is not two ids, a
            bool id, unknown vertices, or a non-injective identification.
        TypeError: on a float or other non-integer id.
    """
    if a.r != b.r:
        raise ValueError("cannot glue hypergraphs of different uniformity")
    map_a = {v: i for i, v in enumerate(sorted(a.vertices))}
    fresh = itertools.count(len(map_a))  # the ids of the copies' new vertices, in turn
    map_b: dict[int, int] = {}

    def edges() -> Iterator[Edge]:
        nonlocal map_b
        yield from (tuple(sorted(map(map_a.__getitem__, e))) for e in a.edges)
        for pairs in copies:
            partner_ba: dict[int, int] = {}
            partner_ab: dict[int, int] = {}
            for pair in pairs:
                try:
                    x, y = pair
                except (TypeError, ValueError):  # a bare id (copies given as one flat pair list) or a wrong length
                    raise ValueError(f"glue pair {brief(pair)} is not a (vertex of a, vertex of b) pair") from None
                x, y = vertex_ids((x, y), "glue pair")
                if x not in a.vertices or y not in b.vertices:
                    raise ValueError(f"glue pair {brief((x, y))} uses an unknown vertex")
                if partner_ab.setdefault(x, y) != y or partner_ba.setdefault(y, x) != x:
                    raise ValueError("non-injective glue")
            map_b = {v: map_a[partner_ba[v]] if v in partner_ba else next(fresh) for v in sorted(b.vertices)}
            yield from (tuple(sorted(map(map_b.__getitem__, e))) for e in b.edges)

    es = frozenset(edges())
    return GlueResult(Hypergraph(a.r, frozenset(range(next(fresh))), es), map_a, map_b)


def induced(h: Hypergraph, s: Iterable[int]) -> Hypergraph:
    """Subhypergraph on the vertex set s, keeping isolated vertices of s."""
    ss = frozenset(vertex_ids(s))
    if not ss <= h.vertices:
        raise ValueError("vertex not in hypergraph")
    es = frozenset(e for e in h.edges if set(e) <= ss)
    return Hypergraph(h.r, ss, es)


def is_linear(h: Hypergraph) -> bool:
    """True when every two distinct edges meet in at most one vertex: no pair lies in two edges."""
    return len({p for e in h.edges for p in itertools.combinations(e, 2)}) == len(h.edges) * comb(h.r, 2)


# every tag a document may carry, in document order, and its kind; dist is an int that names no vertex
_TAG_KINDS = {"e": "set", "f": "set", "rainbow": "sets", "S": "set", "a": "vertex", "b": "vertex", "apex": "vertex",
              "dist": "dist"}


def _map_tags(tags: Mapping[str, object], ids: Callable[[Any, str], Sequence[int]]) -> dict:
    """tags by _TAG_KINDS: vertex lists read by ids(xs, what), vertex sets sorted; every error names its tag."""
    out: dict[str, object] = {}
    for tag, val in tags.items():
        kind, what = _TAG_KINDS.get(tag), f"tag {tag}"
        if kind is None:
            raise ValueError(f"unknown tag {brief(tag)}")
        if kind == "dist":
            out[tag] = json_value(val, int, what)
        elif kind == "vertex":
            out[tag] = ids([val], what)[0]
        elif kind == "set":
            out[tag] = tuple(sorted(ids(val, what)))
        else:
            out[tag] = tuple(tuple(sorted(ids(xs, what))) for xs in json_value(val, list, what))
    return out


def to_json_dict(h: Hypergraph, tags: Optional[Mapping[str, object]] = None) -> dict:
    """JSON document for a hypergraph: r, n, sorted edges, tags.

    Vertices are renumbered to 0..n-1 in sorted order; for the dense
    hypergraphs produced by the builders this is the identity, so emitted
    documents round-trip exactly.
    """
    verts = sorted(h.vertices)
    pos = {v: i for i, v in enumerate(verts)}
    # pos keeps the order of ids and stored edges are sorted, so sorting the edges sorts their images
    edges = [[pos[x] for x in e] for e in sorted(h.edges)]
    doc: dict[str, object] = {"r": h.r, "n": len(verts), "edges": edges}
    tags = {tag: val for tag, val in (tags or {}).items() if val is not None}
    if tags:
        doc["tags"] = _map_tags(tags, lambda xs, what: [pos[x] for x in xs])
    return doc


_JSON_MAX_N = 1 << 20  # n costs memory before any edge is read; the t=10 BEL carrier, the largest built, has 165,830


_KINDS = {int: "an integer", list: "a list", dict: "a JSON object"}


def json_value(x: Any, kind: type, what: str) -> Any:
    """x when it is of kind: int (an exact int, no bool), list (a tuple too) or dict (any mapping).

    Anything else raises ValueError naming what.
    """
    if not (type(x) is int if kind is int else isinstance(x, (list, tuple) if kind is list else Mapping)):
        raise ValueError(f"{what} must be {_KINDS[kind]}, got {brief(x)}")
    return x


def json_member(doc: Mapping[str, object], key: str, kind: type) -> Any:
    """doc's member key, read by json_value; an absent member is named as absent, not as null."""
    if key not in doc:
        raise ValueError(f"{key} must be {_KINDS[kind]}, but the document has no {key} member")
    return json_value(doc[key], kind, key)


def from_json_dict(doc: Mapping[str, object]) -> tuple[Hypergraph, dict]:
    """Parse a hypergraph document; returns the hypergraph and its tags.

    Each member is read once, by name, and an error names it.  r, n and
    every vertex id must be JSON integers, and every vertex, in edges and
    in tags alike, must lie in 0..n-1.  The Hypergraph constructor alone
    checks the edges, each read as its sorted ids; none may be listed
    twice.  tags, when present, is a JSON object.  A labels member, which
    to_json_dict never writes, is refused.
    """
    doc = json_value(doc, dict, "hypergraph document")
    r = json_member(doc, "r", int)
    n = json_member(doc, "n", int)
    if not 0 <= n <= _JSON_MAX_N:
        raise ValueError(f"vertex count must lie in 0..{_JSON_MAX_N}, got {n}")
    if "labels" in doc:
        raise ValueError("labels are not read: a hypergraph document holds r, n, edges and tags")
    edges: list[Edge] = []
    for e in json_value(doc.get("edges", []), list, "edges"):
        try:
            edge = tuple(sorted(e))
            hash(edge)  # the frozenset below hashes it too, but could not name it
        except TypeError:  # no list, or ids that do not sort (a string among ints) or do not hash (lists)
            raise ValueError(f"malformed {r}-edge: {brief(e)}") from None
        edges.append(edge)
    tags = json_value(doc.get("tags", {}), dict, "tags")
    h = Hypergraph(r, frozenset(range(n)), frozenset(edges))
    if h.num_edges != len(edges):
        raise ValueError("hypergraph document repeats an edge")

    def ids(xs: object, what: str) -> list[int]:  # the document id rule: exact JSON ints in 0..n-1
        vs = [json_value(x, int, what) for x in json_value(xs, list, what)]
        for v in vs:
            if not 0 <= v < n:
                raise ValueError(f"{what} vertex {v} outside vertex range 0..{n - 1}")
        return vs

    return h, _map_tags(tags, ids)
