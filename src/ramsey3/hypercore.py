"""Immutable model for small uniform hypergraphs.

Shared data layer for the whole package: hypergraphs over integer
vertices, links and (co)degrees, clique enumeration, an interval-based
distance between edges, and vertex identification (gluing) used by the
gadget builders.

All values are immutable after construction and every operation is a
pure function, so objects may be shared freely, and a 3-graph may keep
the one pair index that every pair question reads (Hypergraph.pairs).
"""

from __future__ import annotations

import heapq
import itertools
import operator
from collections import Counter, defaultdict
from dataclasses import dataclass, field
from functools import cached_property
from math import inf
from typing import Collection, Iterable, Mapping, Optional, Sequence, Union

Edge = tuple[int, ...]

__all__ = [
    "Edge",
    "Hypergraph",
    "GlueMap",
    "GlueResult",
    "fano_plane",
    "link",
    "degree",
    "codegree",
    "min_ell_degree",
    "min_positive_codegree",
    "enumerate_cliques",
    "path_distance",
    "glue",
    "disjoint_union",
    "induced",
    "is_linear",
    "to_json_dict",
    "from_json_dict",
]


def canon_edge(verts: Iterable[int], r: Optional[int] = None) -> Edge:
    """Sorted tuple form of an edge; rejects repeats, negative and non-integer ids."""
    vs = tuple(sorted(map(operator.index, verts)))
    if len(set(vs)) != len(vs):
        raise ValueError(f"edge {tuple(verts)!r} has repeated vertices")
    if r is not None and len(vs) != r:
        raise ValueError(f"expected a {r}-edge, got {vs!r}")
    if vs and vs[0] < 0:
        raise ValueError("vertex ids must be nonnegative")
    return vs


@dataclass(frozen=True)
class Hypergraph:
    """An r-uniform hypergraph on integer vertices.

    Edges are stored as sorted tuples.  Labels are free-form provenance
    strings and never affect equality or hashing.
    """

    r: int
    vertices: frozenset[int]
    edges: frozenset[Edge]
    labels: Mapping[int, str] = field(default_factory=dict, compare=False)

    def __post_init__(self) -> None:
        if self.r < 1:
            raise ValueError("uniformity must be at least 1")
        if any(v < 0 for v in self.vertices):
            raise ValueError("vertex ids must be nonnegative")
        for e in self.edges:
            if len(e) != self.r or tuple(sorted(set(e))) != e:
                raise ValueError(f"malformed {self.r}-edge: {e!r}")
            if not set(e) <= self.vertices:
                raise ValueError(f"edge {e!r} uses vertices outside the vertex set")
        if any(v not in self.vertices for v in self.labels):
            raise ValueError("label on a vertex that is not in the hypergraph")

    @classmethod
    def build(
        cls,
        r: int,
        edges: Iterable[Iterable[int]],
        vertices: Iterable[int] = (),
        labels: Optional[Mapping[int, str]] = None,
    ) -> "Hypergraph":
        es = frozenset(canon_edge(e, r) for e in edges)
        vs = frozenset(map(operator.index, vertices)) | {v for e in es for v in e}
        return cls(r, vs, es, dict(labels or {}))

    @classmethod
    def complete(cls, n: int, r: int = 3) -> "Hypergraph":
        return cls.build(r, itertools.combinations(range(n), r), vertices=range(n))

    @property
    def num_vertices(self) -> int:
        return len(self.vertices)

    @property
    def num_edges(self) -> int:
        return len(self.edges)

    def is_dense(self) -> bool:
        """True if the vertex set is exactly 0..n-1."""
        return self.vertices == frozenset(range(len(self.vertices)))

    def minus_edge(self, e: Iterable[int]) -> "Hypergraph":
        ce = canon_edge(e, self.r)
        if ce not in self.edges:
            raise ValueError(f"{ce!r} is not an edge of the hypergraph")
        return Hypergraph(self.r, self.vertices, self.edges - {ce}, self.labels)

    def plus_edges(self, extra: Iterable[Iterable[int]]) -> "Hypergraph":
        es = frozenset(canon_edge(e, self.r) for e in extra)
        vs = self.vertices | {v for e in es for v in e}
        return Hypergraph(self.r, vs, self.edges | es, self.labels)

    @cached_property
    def pairs(self) -> dict[int, dict[int, set[int]]]:
        """Read-only pair index of a 3-graph: pairs[u][v], u < v, is {w : uvw an edge}."""
        if self.r != 3:
            raise ValueError("the pair index is defined for 3-uniform hypergraphs")
        idx: dict[int, dict[int, set[int]]] = {}
        for a, b, c in self.edges:
            row = idx.setdefault(a, {})
            row.setdefault(b, set()).add(c)
            row.setdefault(c, set()).add(b)
            idx.setdefault(b, {}).setdefault(c, set()).add(a)
        return idx

    def thirds(self, u: int, v: int) -> Collection[int]:
        """Third vertices of the edges through {u, v}; empty at codegree zero."""
        return self.pairs.get(min(u, v), {}).get(max(u, v), ())


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
    ss = frozenset(map(operator.index, s))
    if not ss <= h.vertices:
        raise ValueError("vertex not in hypergraph")
    if not 1 <= len(ss) <= h.r - 1:
        raise ValueError(f"degree wants a set of size 1..{h.r - 1}, got {len(ss)}")
    if h.r == 3 and len(ss) == 2:
        return len(h.thirds(*ss))
    return sum(1 for e in h.edges if ss <= set(e))


def codegree(h: Hypergraph, u: int, v: int) -> int:
    return degree(h, (u, v))


def min_ell_degree(h: Hypergraph, ell: int) -> int:
    """Minimum degree over all ell-subsets of the vertex set."""
    if not 1 <= ell <= h.r - 1:
        raise ValueError(f"ell must lie in 1..{h.r - 1}")
    cnt = Counter(sub for e in h.edges for sub in itertools.combinations(e, ell))
    verts = sorted(h.vertices)
    if len(verts) < ell:
        raise ValueError("not enough vertices")
    return min(cnt.get(s, 0) for s in itertools.combinations(verts, ell))


def min_positive_codegree(h: Hypergraph) -> Optional[int]:
    """Minimum codegree over vertex pairs of positive codegree; None if all are zero."""
    if h.r < 3:
        raise ValueError("codegree needs uniformity at least 3")
    return min((degree(h, p) for e in h.edges for p in itertools.combinations(e, 2)), default=None)


def enumerate_cliques(h: Hypergraph, t: int) -> tuple[tuple[int, ...], ...]:
    """All t-subsets of V(h) spanning complete r-uniform subhypergraphs.

    Results are sorted tuples in lexicographic order.  Uniformity 2 and 3
    are supported; t must be at least r.
    """
    if h.r not in (2, 3):
        raise ValueError("clique enumeration supports uniformity 2 and 3 only")
    if t < h.r:
        raise ValueError("clique size below the uniformity")
    out: list[tuple[int, ...]] = []
    r = h.r
    # nbrs[u] covers only vertices after u: every check below asks about a later one
    nbrs: Mapping
    if r == 2:
        nbrs = defaultdict(set)
        for a, b in h.edges:
            nbrs[a].add(b)
    else:
        nbrs = h.pairs

    def extend(stack: list[int], cands: list[int]) -> None:
        if len(stack) == t:
            out.append(tuple(stack))
            return
        for idx, w in enumerate(cands):
            # u may join stack+[w] only if it spans an edge with w (r = 2),
            # or with w and each s on the stack (r = 3)
            rows = [nbrs[w]] if r == 2 else [nbrs[s][w] for s in stack]
            nxt = []
            for u in cands[idx + 1 :]:
                for row in rows:
                    if u not in row:
                        break
                else:
                    nxt.append(u)
            if len(stack) + 1 + len(nxt) < t:
                continue
            stack.append(w)
            extend(stack, nxt)
            stack.pop()

    # every later member of a clique shares an edge with its first vertex
    for v in sorted(nbrs):
        extend([v], sorted(nbrs[v]))
    return tuple(out)


def path_distance(h: Hypergraph, e: Iterable[int], f: Iterable[int]) -> int | float:
    """Fewest vertices of a path of edges from e to f, laid out on a line.

    A path is a sequence of distinct edges e = e_1, ..., e_m = f together
    with a linear order on their vertex union in which every e_i occupies
    three consecutive positions and consecutive edges intersect.  The
    distance is the minimum number of vertices over all such paths, with
    dist(e, e) = 3, and inf when no path exists.
    """
    if h.r != 3:
        raise ValueError("path distance is defined for 3-uniform hypergraphs")
    ce, cf = canon_edge(e, 3), canon_edge(f, 3)
    for x in (ce, cf):
        if x not in h.edges:
            raise ValueError(f"{x!r} is not an edge of the hypergraph")
    if ce == cf:
        return 3
    fset = frozenset(cf)

    by_vertex: dict[int, list[Edge]] = defaultdict(list)
    for g in h.edges:
        for v in g:
            by_vertex[v].append(g)

    # Dijkstra over (ordered frontier edge, vertices used so far); extending
    # the frontier interval by one position reuses its last two vertices,
    # extending by two reuses only the last one.
    heap: list[tuple[int, tuple[int, int, int], frozenset[int]]] = []
    start_used = frozenset(ce)
    for perm in itertools.permutations(ce):
        heapq.heappush(heap, (3, perm, start_used))
    best: dict[tuple[tuple[int, int, int], frozenset[int]], int] = {}
    while heap:
        n, frontier, used = heapq.heappop(heap)
        key = (frontier, used)
        if best.get(key, n) < n:
            continue
        if frozenset(frontier) == fset:
            return n
        _, a2, a3 = frontier
        for w in h.thirds(a2, a3):
            if w in used:
                continue
            nk = ((a2, a3, w), used | {w})
            if best.get(nk, n + 2) > n + 1:
                best[nk] = n + 1
                heapq.heappush(heap, (n + 1, nk[0], nk[1]))
        for g in by_vertex.get(a3, ()):
            rest = [x for x in g if x != a3]
            if rest[0] in used or rest[1] in used:
                continue
            for w1, w2 in (rest, rest[::-1]):
                nk = ((a3, w1, w2), used | {w1, w2})
                if best.get(nk, n + 3) > n + 2:
                    best[nk] = n + 2
                    heapq.heappush(heap, (n + 2, nk[0], nk[1]))
    return inf


@dataclass(frozen=True)
class GlueMap:
    """Cross-side identification list: pairs (vertex of A, vertex of B)."""

    pairs: tuple[tuple[int, int], ...] = ()

    @classmethod
    def of(cls, pairs: Iterable[tuple[int, int]]) -> "GlueMap":
        return cls(tuple((operator.index(x), operator.index(y)) for x, y in pairs))


@dataclass
class GlueResult:
    h: Hypergraph
    map_a: dict[int, int]
    map_b: dict[int, int]


def glue(
    a: Hypergraph,
    b: Hypergraph,
    m: Union[GlueMap, Sequence[GlueMap]] = GlueMap(),
) -> GlueResult:
    """Disjoint union of a and copies of b, followed by the identifications.

    m is one GlueMap or a sequence of them, one copy of b per map, each a
    partial injection from a to its copy.  Output ids are dense: a's ids
    (kept verbatim when already 0..n-1, which the gadget builders rely
    on), then each copy's new vertices, so one call equals the fold of
    single-copy calls.  map_b is the vertex map of the last copy.

    Raises:
        ValueError: on uniformity mismatch, unknown vertices, or a
            non-injective identification.
    """
    if a.r != b.r:
        raise ValueError("cannot glue hypergraphs of different uniformity")
    copies = [m] if isinstance(m, GlueMap) else m
    map_a = {v: i for i, v in enumerate(sorted(a.vertices))}
    labels: dict[int, str] = {map_a[v]: lab for v, lab in a.labels.items()}
    edges = {tuple(sorted(map_a[x] for x in e)) for e in a.edges}
    next_id = len(map_a)
    map_b: dict[int, int] = {}
    for gm in copies:
        partner_ab = dict(gm.pairs)
        partner_ba = {y: x for x, y in gm.pairs}
        if not partner_ab.keys() <= a.vertices or not partner_ba.keys() <= b.vertices:
            raise ValueError(f"glue pairs {gm.pairs} use unknown vertices")
        if any(partner_ab[x] != y or partner_ba[y] != x for x, y in gm.pairs):
            raise ValueError("non-injective glue")
        map_b = {}
        for v in sorted(b.vertices):
            if v in partner_ba:
                map_b[v] = map_a[partner_ba[v]]
            else:
                map_b[v] = next_id
                next_id += 1
        edges.update(tuple(sorted(map_b[x] for x in e)) for e in b.edges)
        for v, lab in sorted(b.labels.items()):
            nv = map_b[v]
            labels[nv] = f"{labels[nv]}|{lab}" if nv in labels else lab

    h = Hypergraph(a.r, frozenset(range(next_id)), frozenset(edges), labels)
    return GlueResult(h, map_a, map_b)


def disjoint_union(a: Hypergraph, b: Hypergraph) -> GlueResult:
    return glue(a, b, GlueMap())


def induced(h: Hypergraph, s: Iterable[int]) -> Hypergraph:
    """Subhypergraph on the vertex set s, keeping isolated vertices of s."""
    ss = frozenset(map(operator.index, s))
    if not ss <= h.vertices:
        raise ValueError("vertex not in hypergraph")
    es = frozenset(e for e in h.edges if set(e) <= ss)
    return Hypergraph(h.r, ss, es, {v: lab for v, lab in h.labels.items() if v in ss})


def is_linear(h: Hypergraph) -> bool:
    """True when every two distinct edges meet in at most one vertex."""
    es = sorted(h.edges)
    for i, e in enumerate(es):
        se = set(e)
        for f in es[i + 1 :]:
            if len(se.intersection(f)) > 1:
                return False
    return True


_VERTEX_TAGS = ("a", "b", "apex")
_EDGE_TAGS = ("e", "f")


def _remap_tags(tags: Mapping[str, object], pos: Mapping[int, int]) -> dict:
    out: dict[str, object] = {}
    for key, val in tags.items():
        if val is None:
            continue
        if key in _VERTEX_TAGS:
            out[key] = pos[val]  # type: ignore[index]
        elif key in _EDGE_TAGS or key == "S":
            out[key] = sorted(pos[x] for x in val)  # type: ignore[union-attr]
        elif key == "rainbow":
            out[key] = [sorted(pos[x] for x in e) for e in val]  # type: ignore[union-attr]
        elif key == "dist":
            out[key] = int(val)  # type: ignore[arg-type]
        else:
            raise ValueError(f"unknown tag {key!r}")
    return out


def to_json_dict(h: Hypergraph, tags: Optional[Mapping[str, object]] = None) -> dict:
    """JSON document for a hypergraph: r, n, sorted edges, labels, tags.

    Vertices are renumbered to 0..n-1 in sorted order; for the dense
    hypergraphs produced by the builders this is the identity, so emitted
    documents round-trip exactly.
    """
    verts = sorted(h.vertices)
    pos = {v: i for i, v in enumerate(verts)}
    edges = sorted(tuple(sorted(pos[x] for x in e)) for e in h.edges)
    doc: dict[str, object] = {"r": h.r, "n": len(verts), "edges": [list(e) for e in edges]}
    if h.labels:
        doc["labels"] = {str(pos[v]): h.labels[v] for v in sorted(h.labels)}
    if tags:
        remapped = _remap_tags(tags, pos)
        if remapped:
            doc["tags"] = remapped
    return doc


def json_int(x: object, what: str) -> int:
    """x when it is a JSON integer; bools, floats and strings raise ValueError."""
    if type(x) is not int:
        raise ValueError(f"{what} must be an integer, got {x!r}")
    return x


def _json_vertices(xs: object, n: int, what: str) -> list[int]:
    if not isinstance(xs, (list, tuple)):
        raise ValueError(f"{what} must be a list of vertices, got {xs!r}")
    vs = [json_int(x, what) for x in xs]
    for v in vs:
        if not 0 <= v < n:
            raise ValueError(f"{what} {xs!r} outside vertex range 0..{n - 1}")
    return vs


def from_json_dict(doc: Mapping[str, object]) -> tuple[Hypergraph, dict]:
    """Parse a hypergraph document; returns the hypergraph and its tags.

    r, n and every vertex id must be JSON integers, and every vertex,
    in edges and in tags alike, must lie in 0..n-1.  labels and tags,
    when present, are JSON objects; label keys are vertex ids in decimal
    and label values are strings.
    """
    try:
        r = json_int(doc["r"], "r")
        n = json_int(doc["n"], "n")
        if n < 0:
            raise ValueError("vertex count must be nonnegative")
        raw_edges = doc.get("edges", [])
        edges = [canon_edge(_json_vertices(e, n, "edge"), r) for e in raw_edges]  # type: ignore[union-attr]
        for key in ("labels", "tags"):
            if not isinstance(doc.get(key, {}), Mapping):
                raise ValueError(f"{key} must be a JSON object, got {doc[key]!r}")
        labels = {}
        for key, lab in doc.get("labels", {}).items():  # type: ignore[union-attr]
            # the id as to_json_dict writes it: ASCII digits, no sign, space or leading zero
            plain = type(key) is str and key.isascii() and key.isdigit() and key == str(int(key))
            if not plain or type(lab) is not str:
                raise ValueError(f"label {key!r}: {lab!r} is not a decimal vertex id mapped to a string")
            labels[int(key)] = lab
        h = Hypergraph.build(r, edges, vertices=range(n), labels=labels)

        tags: dict[str, object] = {}
        for key, val in doc.get("tags", {}).items():  # type: ignore[union-attr]
            if key == "dist":
                tags[key] = json_int(val, "dist")
            elif key in _VERTEX_TAGS:
                tags[key] = _json_vertices([val], n, f"tag {key}")[0]
            elif key in _EDGE_TAGS or key == "S":
                tags[key] = tuple(sorted(_json_vertices(val, n, f"tag {key}")))
            elif key == "rainbow":
                tags[key] = tuple(tuple(sorted(_json_vertices(e, n, "rainbow edge"))) for e in val)  # type: ignore[union-attr]
            else:
                raise ValueError(f"unknown tag {key!r}")
    except (KeyError, TypeError, AttributeError) as exc:
        raise ValueError(f"malformed hypergraph document: {exc}") from exc
    return h, tags
