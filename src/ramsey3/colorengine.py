"""Arrowing engine: free colorings, minimality, patterns, CNF export.

The central question answered here is whether every k-coloring of the
edges of a hypergraph contains a monochromatic complete subhypergraph on
t vertices.  The search is a complete backtracker with forward checking,
so "yes" and "no" answers are both proofs; a node budget turns long runs
into an explicit Unknown verdict instead of an open-ended wait.

Works for uniformity 2 and 3.  The 2-uniform case doubles as a sanity
surface: classical Ramsey facts such as r(3, 3) = 6 are cheap to check
and exercise every code path.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Iterable, Mapping, Optional, Sequence, Union

from .hypercore import Edge, Hypergraph, canon_edge, enumerate_cliques, json_int

__all__ = [
    "BudgetExceeded",
    "EdgeColoring",
    "VertexColoring",
    "PatternSet",
    "ArrowVerdict",
    "SearchResult",
    "check_free",
    "find_free_coloring",
    "arrows",
    "is_minimal_ramsey",
    "minimalize",
    "admissible_patterns",
    "admissible_vertex_coloring",
    "CnfDocument",
    "export_cnf",
    "solve_cnf",
]


class BudgetExceeded(Exception):
    """A bounded search ran out of nodes before reaching a verdict."""


@dataclass(frozen=True)
class EdgeColoring:
    """Total assignment of colors 1..k to a set of edges."""

    k: int
    assignment: Mapping[Edge, int]

    def __post_init__(self) -> None:
        if self.k < 1:
            raise ValueError("need at least one color")
        normalized = {}
        for e, c in self.assignment.items():
            if not 1 <= c <= self.k:
                raise ValueError(f"color {c} of edge {e!r} outside 1..{self.k}")
            normalized[canon_edge(e)] = c
        if len(normalized) != len(self.assignment):
            raise ValueError("assignment repeats an edge up to reordering")
        object.__setattr__(self, "assignment", normalized)

    @classmethod
    def of(cls, k: int, assignment: Mapping[Iterable[int], int]) -> "EdgeColoring":
        return cls(k, {canon_edge(e): int(c) for e, c in assignment.items()})

    def color(self, e: Iterable[int]) -> int:
        return self.assignment[canon_edge(e)]

    def recolored(self, sigma: Mapping[int, int]) -> "EdgeColoring":
        """Apply a color permutation old -> new."""
        return EdgeColoring(self.k, {e: sigma[c] for e, c in self.assignment.items()})

    def to_json_dict(self) -> dict:
        return {
            "k": self.k,
            "colors": [[list(e), c] for e, c in sorted(self.assignment.items())],
        }

    @classmethod
    def from_json_dict(cls, doc: Mapping[str, object]) -> "EdgeColoring":
        try:
            k = json_int(doc["k"], "k")
            pairs = [
                (tuple(json_int(x, "edge vertex") for x in e), json_int(c, "color"))
                for e, c in doc["colors"]  # type: ignore[union-attr]
            ]
        except (KeyError, TypeError) as exc:
            raise ValueError(f"malformed coloring document: {exc}") from exc
        if len(dict(pairs)) != len(pairs):
            raise ValueError("coloring document repeats an edge")
        return cls(k, dict(pairs))


@dataclass(frozen=True)
class VertexColoring:
    """Total assignment of colors 1..k to a set of vertices."""

    k: int
    assignment: Mapping[int, int]

    def __post_init__(self) -> None:
        if self.k < 1:
            raise ValueError("need at least one color")
        for v, c in self.assignment.items():
            if not 1 <= c <= self.k:
                raise ValueError(f"color {c} of vertex {v} outside 1..{self.k}")

    def color(self, v: int) -> int:
        return self.assignment[v]

    def to_json_dict(self) -> dict:
        return {
            "k": self.k,
            "colors": [[v, c] for v, c in sorted(self.assignment.items())],
        }

    @classmethod
    def from_json_dict(cls, doc: Mapping[str, object]) -> "VertexColoring":
        try:
            k = json_int(doc["k"], "k")
            pairs = [(json_int(v, "vertex"), json_int(c, "color")) for v, c in doc["colors"]]  # type: ignore[union-attr]
        except (KeyError, TypeError) as exc:
            raise ValueError(f"malformed coloring document: {exc}") from exc
        if len(dict(pairs)) != len(pairs):
            raise ValueError("coloring document repeats a vertex")
        return cls(k, dict(pairs))


@dataclass(frozen=True)
class PatternSet:
    """Color distributions over a bundle of ell special edges.

    A pattern (a_1, ..., a_k) records how many special edges got each
    color in some valid coloring; every pattern sums to ell.  complete
    is False when a search budget expired before all candidate patterns
    were settled, in which case the set is a verified lower bound.
    """

    ell: int
    k: int
    patterns: frozenset[tuple[int, ...]]
    complete: bool = True
    witnesses: Mapping[tuple[int, ...], EdgeColoring] = field(default_factory=dict, compare=False)

    def __post_init__(self) -> None:
        for p in self.patterns:
            if len(p) != self.k or any(a < 0 for a in p) or sum(p) != self.ell:
                raise ValueError(f"pattern {p!r} is not a composition of {self.ell} into {self.k} parts")


@dataclass(frozen=True)
class ArrowVerdict:
    """Outcome of an arrowing decision.

    arrows is True, False, or None (undecided within budget).  witness
    is a verified free coloring, present exactly when arrows is False.
    """

    arrows: Optional[bool]
    witness: Optional[EdgeColoring]
    nodes: int
    status: str

    def __post_init__(self) -> None:
        if self.status not in ("complete", "unknown"):
            raise ValueError(f"bad status {self.status!r}")
        if (self.status == "unknown") != (self.arrows is None):
            raise ValueError("unknown status must pair with arrows=None")
        if (self.witness is not None) != (self.arrows is False):
            raise ValueError("witness must be present exactly when arrows is False")


@dataclass(frozen=True)
class SearchResult:
    """found: True (coloring below), False (proven none), None (budget)."""

    found: Optional[bool]
    coloring: Optional[EdgeColoring]
    nodes: int


def check_free(
    h: Hypergraph, coloring: EdgeColoring, t: int
) -> list[tuple[tuple[int, ...], int]]:
    """All monochromatic t-cliques under the coloring, as (clique, color).

    The coloring must cover every edge of h; an empty result certifies
    that the coloring is free of monochromatic complete t-sets.
    """
    missing = [e for e in h.edges if e not in coloring.assignment]
    if missing:
        raise ValueError(f"coloring misses {len(missing)} edges, e.g. {sorted(missing)[0]!r}")
    out = []
    for q in enumerate_cliques(h, t):
        cols = {coloring.assignment[e] for e in itertools.combinations(q, h.r)}
        if len(cols) == 1:
            out.append((q, cols.pop()))
    return out


class _Search:
    """Backtracking core shared by the arrowing operations.

    Edges are ordered by descending number of t-cliques through them so
    the constrained part of the hypergraph is decided first.  Forward
    checking keeps, for every clique with one uncolored edge whose
    colored edges are monochromatic, a block on that color; an uncolored
    edge with every color blocked cuts the branch immediately.
    """

    def __init__(self, h: Hypergraph, t: int, k: int) -> None:
        if k < 1:
            raise ValueError("need at least one color")
        self.h, self.t, self.k = h, t, k
        cliques = enumerate_cliques(h, t)
        weight: dict[Edge, int] = {e: 0 for e in h.edges}
        cedges_raw = []
        for q in cliques:
            qe = [canon_edge(e) for e in itertools.combinations(q, h.r)]
            cedges_raw.append(qe)
            for e in qe:
                weight[e] += 1
        self.edges: list[Edge] = sorted(h.edges, key=lambda e: (-weight[e], e))
        self.index: dict[Edge, int] = {e: i for i, e in enumerate(self.edges)}
        self.cedges: list[list[int]] = [sorted(self.index[e] for e in qe) for qe in cedges_raw]
        self.cliques_of: list[list[int]] = [[] for _ in self.edges]
        for qi, qe in enumerate(self.cedges):
            for i in qe:
                self.cliques_of[i].append(qi)

    def decide(
        self,
        budget: Optional[int] = None,
        fixed: Optional[Mapping[int, int]] = None,
        ladder: bool = True,
    ) -> tuple[Optional[bool], Optional[dict[Edge, int]], int]:
        """Search for a coloring avoiding monochromatic cliques.

        fixed maps edge index -> forced color; the value-symmetry ladder
        (a branch may open color c only when colors below c are in use)
        must be off whenever colors are pinned.
        """
        if fixed and ladder:
            raise ValueError("symmetry ladder is unsound with pinned colors")
        m, k = len(self.edges), self.k
        csize = [len(qe) for qe in self.cedges]
        color = [0] * m
        n_assigned = [0] * len(self.cedges)
        count = [[0] * (k + 1) for _ in self.cedges]
        blocked = [[0] * (k + 1) for _ in range(m)]
        nblocked = [0] * m
        trail: list[tuple[int, int]] = []
        nodes = 0

        def place(i: int, c: int) -> bool:
            color[i] = c
            ok = True
            for q in self.cliques_of[i]:
                n_assigned[q] += 1
                cq = count[q]
                cq[c] += 1
                if cq[c] == csize[q]:
                    ok = False
                elif n_assigned[q] == csize[q] - 1 and cq[c] == csize[q] - 1:
                    j = next(j for j in self.cedges[q] if color[j] == 0)
                    blocked[j][c] += 1
                    if blocked[j][c] == 1:
                        nblocked[j] += 1
                        if nblocked[j] == k:
                            ok = False
                    trail.append((j, c))
            return ok

        def unplace(i: int, c: int, mark: int) -> None:
            while len(trail) > mark:
                j, x = trail.pop()
                blocked[j][x] -= 1
                if blocked[j][x] == 0:
                    nblocked[j] -= 1
            for q in self.cliques_of[i]:
                n_assigned[q] -= 1
                count[q][c] -= 1
            color[i] = 0

        def spend() -> None:
            nonlocal nodes
            nodes += 1
            if budget is not None and nodes > budget:
                raise BudgetExceeded(f"search exceeded {budget} nodes")

        def bt(i: int, maxused: int) -> bool:
            while i < m and color[i] != 0:
                i += 1
            if i == m:
                return True
            limit = min(k, maxused + 1) if ladder else k
            bl = blocked[i]
            for c in range(1, limit + 1):
                if bl[c]:
                    continue
                spend()
                mark = len(trail)
                if place(i, c) and bt(i + 1, max(maxused, c)):
                    return True
                unplace(i, c, mark)
            return False

        try:
            for i, c in sorted((fixed or {}).items()):
                if not 0 <= i < m:
                    raise ValueError(f"fixed index {i} out of range")
                if not 1 <= c <= k:
                    raise ValueError(f"fixed color {c} outside 1..{k}")
                spend()
                if not place(i, c):
                    return False, None, nodes
            found = bt(0, 0)
        except BudgetExceeded:
            return None, None, nodes
        if not found:
            return False, None, nodes
        return True, {self.edges[i]: color[i] for i in range(m)}, nodes


def find_free_coloring(
    h: Hypergraph, t: int, k: int, budget: Optional[int] = None
) -> SearchResult:
    """Decide whether some k-coloring of E(h) avoids monochromatic t-cliques.

    Complete search: found=False proves no free coloring exists.  Any
    returned coloring is re-verified with check_free before it leaves.
    """
    found, witness, nodes = _Search(h, t, k).decide(budget=budget)
    if found is None:
        return SearchResult(None, None, nodes)
    if not found:
        return SearchResult(False, None, nodes)
    coloring = EdgeColoring(k, witness or {})
    bad = check_free(h, coloring, t)
    if bad:
        raise RuntimeError(f"search produced a non-free coloring: {bad[:3]!r}")
    return SearchResult(True, coloring, nodes)


def arrows(h: Hypergraph, t: int, k: int, budget: Optional[int] = None) -> ArrowVerdict:
    """Does every k-coloring of E(h) contain a monochromatic t-clique?"""
    res = find_free_coloring(h, t, k, budget=budget)
    if res.found is None:
        return ArrowVerdict(None, None, res.nodes, "unknown")
    if res.found:
        return ArrowVerdict(False, res.coloring, res.nodes, "complete")
    return ArrowVerdict(True, None, res.nodes, "complete")


def is_minimal_ramsey(
    h: Hypergraph, t: int, k: int, budget: Optional[int] = None
) -> Optional[bool]:
    """True when h arrows but no single-edge-deleted subgraph does.

    None when some required arrowing question stayed undecided.
    """
    base = arrows(h, t, k, budget=budget)
    if base.arrows is None:
        return None
    if not base.arrows:
        return False
    pending_unknown = False
    for e in sorted(h.edges):
        sub = arrows(h.minus_edge(e), t, k, budget=budget)
        if sub.arrows:
            return False
        if sub.arrows is None:
            pending_unknown = True
    return None if pending_unknown else True


def minimalize(h: Hypergraph, t: int, k: int, budget: Optional[int] = None) -> Hypergraph:
    """Greedy edge-minimal arrowing subhypergraph, isolated vertices dropped.

    Edges are tried for deletion in lexicographic order.  Arrowing only
    ever shrinks under deletion, so a single pass is minimal: an edge
    whose removal breaks arrowing now would break it in any subgraph too.

    Raises:
        ValueError: if h does not arrow in the first place.
        BudgetExceeded: if some arrowing question stayed undecided.
    """
    base = arrows(h, t, k, budget=budget)
    if base.arrows is None:
        raise BudgetExceeded("budget too small to decide arrowing")
    if not base.arrows:
        raise ValueError("hypergraph does not arrow; nothing to minimalize")
    cur = h
    for e in sorted(h.edges):
        trial = cur.minus_edge(e)
        verdict = arrows(trial, t, k, budget=budget)
        if verdict.arrows is None:
            raise BudgetExceeded("budget too small to decide arrowing")
        if verdict.arrows:
            cur = trial
    support = {v for e in cur.edges for v in e}
    return Hypergraph(
        cur.r,
        frozenset(support),
        cur.edges,
        {v: lab for v, lab in cur.labels.items() if v in support},
    )


def _descending_compositions(total: int, parts: int) -> list[tuple[int, ...]]:
    """All tuples a_1 >= ... >= a_parts >= 0 summing to total."""
    out: list[tuple[int, ...]] = []

    def rec(prefix: list[int], remaining: int, cap: int, slots: int) -> None:
        if slots == 0:
            if remaining == 0:
                out.append(tuple(prefix))
            return
        for a in range(min(cap, remaining), -1, -1):
            if a * slots < remaining:
                break
            prefix.append(a)
            rec(prefix, remaining - a, a, slots - 1)
            prefix.pop()

    rec([], total, total, parts)
    return out


def admissible_patterns(
    h: Hypergraph,
    u: int,
    v: int,
    t: int,
    k: int,
    budget: Optional[int] = None,
) -> PatternSet:
    """Color distributions on the edges through {u, v} over free colorings.

    The special edges are the ell edges containing both u and v.  A
    pattern (a_1, ..., a_k) belongs to the result iff some k-coloring of
    E(h) without monochromatic t-cliques puts exactly a_i special edges
    in color i.  The set is closed under color permutation, so only one
    representative per orbit is searched.  A shared node budget can cut
    the scan short; the result is then marked incomplete.
    """
    if u not in h.vertices or v not in h.vertices:
        raise ValueError("vertex not in hypergraph")
    if u == v:
        raise ValueError("special pair needs two distinct vertices")
    if h.r == 3:
        specials = sorted(canon_edge((u, v, w)) for w in h.thirds(u, v))
    else:
        specials = sorted(e for e in h.edges if u in e and v in e)
    ell = len(specials)
    search = _Search(h, t, k)
    special_idx = [search.index[e] for e in specials]
    sigmas = [dict(zip(range(1, k + 1), perm)) for perm in itertools.permutations(range(1, k + 1))]

    patterns: dict[tuple[int, ...], EdgeColoring] = {}
    complete = True
    remaining = budget
    for rep in sorted(_descending_compositions(ell, k), reverse=True):
        if rep in patterns:
            continue
        multiset: list[int] = []
        for colour, cnt in enumerate(rep, start=1):
            multiset.extend([colour] * cnt)
        for assign in sorted(set(itertools.permutations(multiset))):
            fixed = dict(zip(special_idx, assign))
            found, witness, nodes = search.decide(budget=remaining, fixed=fixed, ladder=False)
            if remaining is not None:
                remaining = max(0, remaining - nodes)
            if found is None:
                complete = False
                break
            if found:
                base = EdgeColoring(k, witness or {})
                for sigma in sigmas:
                    w = base.recolored(sigma)
                    p = tuple(sum(1 for e in specials if w.assignment[e] == c) for c in range(1, k + 1))
                    patterns.setdefault(p, w)
                break
        if not complete:
            break
    return PatternSet(ell, k, frozenset(patterns), complete, patterns)


def admissible_vertex_coloring(
    h: Hypergraph,
    ps: PatternSet,
    mode: str = "exists",
) -> Union[Optional[VertexColoring], list[VertexColoring]]:
    """Vertex k-colorings whose per-edge color counts all lie in ps.

    h must be ps.ell-uniform so the counts of an edge form a composition
    of ell.  mode "exists" returns one coloring or None; "enumerate"
    returns every admissible coloring in lexicographic order.
    """
    if mode not in ("exists", "enumerate"):
        raise ValueError(f"bad mode {mode!r}")
    if h.r != ps.ell:
        raise ValueError(f"patterns describe {ps.ell}-edges, hypergraph is {h.r}-uniform")
    verts = sorted(h.vertices)
    vpos = {x: i for i, x in enumerate(verts)}
    k = ps.k
    pats = sorted(ps.patterns)
    edges = sorted(h.edges)
    edges_of: list[list[int]] = [[] for _ in verts]
    for ei, e in enumerate(edges):
        for x in e:
            edges_of[vpos[x]].append(ei)
    cnt = [[0] * (k + 1) for _ in edges]
    seen = [0] * len(edges)
    color = [0] * len(verts)
    out: list[VertexColoring] = []

    def feasible(ei: int) -> bool:
        c = cnt[ei]
        if seen[ei] == h.r:
            return tuple(c[1:]) in ps.patterns
        return any(all(p[x - 1] >= c[x] for x in range(1, k + 1)) for p in pats)

    def bt(i: int) -> bool:
        if i == len(verts):
            out.append(VertexColoring(k, {verts[j]: color[j] for j in range(len(verts))}))
            return mode == "exists"
        for c in range(1, k + 1):
            color[i] = c
            ok = True
            for ei in edges_of[i]:
                cnt[ei][c] += 1
                seen[ei] += 1
            for ei in edges_of[i]:
                if not feasible(ei):
                    ok = False
                    break
            if ok and bt(i + 1):
                return True
            for ei in edges_of[i]:
                cnt[ei][c] -= 1
                seen[ei] -= 1
            color[i] = 0
        return False

    bt(0)
    if mode == "exists":
        return out[0] if out else None
    return out


@dataclass(frozen=True)
class CnfDocument:
    """Propositional encoding of the free-coloring question.

    Edges are numbered 0..m-1 in lexicographic order and variable
    var(i, c) = i * k + c asserts that edge i has color c.  Clauses say
    each edge has at least one color, at most one color, and no clique
    is monochromatic.  The header comments carry the variable map.
    """

    num_vars: int
    clauses: tuple[tuple[int, ...], ...]
    edges: tuple[Edge, ...]
    k: int

    def var(self, i: int, c: int) -> int:
        return i * self.k + c

    @property
    def text(self) -> str:
        lines = []
        for i, e in enumerate(self.edges):
            for c in range(1, self.k + 1):
                lines.append(f"c map {self.var(i, c)} {','.join(map(str, e))} {c}")
        lines.append(f"p cnf {self.num_vars} {len(self.clauses)}")
        for cl in self.clauses:
            lines.append(" ".join(map(str, cl)) + " 0")
        return "\n".join(lines) + "\n"

    def decode(self, true_vars: Iterable[int]) -> EdgeColoring:
        tv = set(true_vars)
        assignment: dict[Edge, int] = {}
        for i, e in enumerate(self.edges):
            cols = [c for c in range(1, self.k + 1) if self.var(i, c) in tv]
            if len(cols) != 1:
                raise ValueError(f"edge {e!r} has {len(cols)} colors in the model")
            assignment[e] = cols[0]
        return EdgeColoring(self.k, assignment)


def export_cnf(h: Hypergraph, t: int, k: int) -> CnfDocument:
    """CNF whose models are exactly the free k-colorings of E(h)."""
    edges = tuple(sorted(h.edges))
    index = {e: i for i, e in enumerate(edges)}
    clauses: list[tuple[int, ...]] = []
    for i in range(len(edges)):
        clauses.append(tuple(i * k + c for c in range(1, k + 1)))
        for c1 in range(1, k + 1):
            for c2 in range(c1 + 1, k + 1):
                clauses.append((-(i * k + c1), -(i * k + c2)))
    for q in enumerate_cliques(h, t):
        qi = sorted(index[canon_edge(e)] for e in itertools.combinations(q, h.r))
        for c in range(1, k + 1):
            clauses.append(tuple(-(i * k + c) for i in qi))
    return CnfDocument(len(edges) * k, tuple(clauses), edges, k)


def _simplify(
    clauses: Sequence[tuple[int, ...]], lit: int
) -> Optional[list[tuple[int, ...]]]:
    out = []
    for cl in clauses:
        if lit in cl:
            continue
        if -lit in cl:
            nc = tuple(x for x in cl if x != -lit)
            if not nc:
                return None
            out.append(nc)
        else:
            out.append(cl)
    return out


def solve_cnf(
    problem: Union[CnfDocument, Iterable[Sequence[int]]],
) -> Optional[frozenset[int]]:
    """Satisfy a CNF with a tiny DPLL; returns the true variables, or None.

    Variables missing from the result are false.  Only meant for the
    small instances this package emits; it is the independent check on
    export_cnf, so it deliberately shares no code with the search engine.
    """
    if isinstance(problem, CnfDocument):
        clauses: list[tuple[int, ...]] = list(problem.clauses)
    else:
        clauses = [tuple(cl) for cl in problem]
    if any(not cl for cl in clauses):
        return None

    def dpll(cls: list[tuple[int, ...]], trail: frozenset[int]) -> Optional[frozenset[int]]:
        while True:
            unit = next((cl[0] for cl in cls if len(cl) == 1), None)
            if unit is None:
                break
            nxt = _simplify(cls, unit)
            if nxt is None:
                return None
            cls, trail = nxt, trail | {unit}
        if not cls:
            return trail
        lit = cls[0][0]
        for choice in (lit, -lit):
            sub = _simplify(cls, choice)
            if sub is not None:
                res = dpll(sub, trail | {choice})
                if res is not None:
                    return res
        return None

    model = dpll(clauses, frozenset())
    if model is None:
        return None
    return frozenset(x for x in model if x > 0)
