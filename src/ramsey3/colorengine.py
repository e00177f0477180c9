"""Arrowing engine: free colorings, minimality, patterns, CNF export.

The central question answered here is whether every k-coloring of the
edges of a hypergraph contains a monochromatic complete subhypergraph on
t vertices.  One search core, SearchCore, decides it and every other
coloring question in the package: its constraints say "these variables
are not all one color of this mask", so a t-clique is one constraint
with the full mask, a pinned or pre-colored edge narrows the mask, and
codegree's forced-pattern check and randomlab's property-B check are
instances too.  The core is a complete search with unit propagation on
an explicit stack, so "yes" and "no" answers are both proofs at any
size; a node budget turns long runs into an explicit Unknown verdict
instead of an open-ended wait.  Results count nodes (decisions),
propagations and conflicts.  solve_cnf is a separate iterative DPLL
with two watched literals per clause, kept as an independent check on
export_cnf and sharing no code with the core; it branches on the first
open literal of the first unsatisfied clause.

Works for uniformity 2 and 3.  The 2-uniform case doubles as a sanity
surface: classical Ramsey facts such as r(3, 3) = 6 are cheap to check
and exercise every code path.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Collection, Iterable, Mapping, Optional, Sequence, Union

from .hypercore import Edge, Hypergraph, canon_edge, enumerate_cliques, json_int

__all__ = [
    "BudgetExceeded",
    "EdgeColoring",
    "VertexColoring",
    "PatternSet",
    "ArrowVerdict",
    "SearchResult",
    "SearchCore",
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
        """Coloring from edges in any vertex order; colors must be integers."""
        pairs = [(canon_edge(e), json_int(c, "color")) for e, c in assignment.items()]
        if len(dict(pairs)) != len(pairs):
            raise ValueError("assignment repeats an edge up to reordering")
        return cls(k, dict(pairs))

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
    propagations: int = 0
    conflicts: int = 0

    def __post_init__(self) -> None:
        if self.status not in ("complete", "unknown"):
            raise ValueError(f"bad status {self.status!r}")
        if (self.status == "unknown") != (self.arrows is None):
            raise ValueError("unknown status must pair with arrows=None")
        if (self.witness is not None) != (self.arrows is False):
            raise ValueError("witness must be present exactly when arrows is False")


@dataclass(frozen=True)
class SearchResult:
    """found: True (coloring below), False (proven none), None (budget).

    nodes counts decisions, propagations the colors forced by
    propagation, conflicts the dead ends met.
    """

    found: Optional[bool]
    coloring: Optional[EdgeColoring]
    nodes: int
    propagations: int = 0
    conflicts: int = 0


def _mono_cliques(
    cliques: Iterable[tuple[int, ...]], r: int, assignment: Mapping[Edge, int]
) -> list[tuple[tuple[int, ...], int]]:
    out = []
    for q in cliques:
        cols = {assignment[e] for e in itertools.combinations(q, r)}
        if len(cols) == 1:
            out.append((q, cols.pop()))
    return out


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
    return _mono_cliques(enumerate_cliques(h, t), h.r, coloring.assignment)


class SearchCore:
    """Complete coloring search over masked "not all one color" constraints.

    The variables (edges, or pairs) take colors 1..k.  A constraint is
    a list of variable indices with a mask of forbidden colors, bit c
    standing for color c: its members must not all take one color of
    the mask.  A member-less constraint with a nonempty mask can never
    hold.  One instance may be solved many times with different pins.

    The solver keeps an explicit stack of decisions over one trail of
    assignments and color blocks, so depth is bounded by memory, not by
    the interpreter's recursion limit.  Variables passed as off are
    absent from that solve: they are never decided or pinned, every
    constraint through one starts dead and stays dead, and the coloring
    leaves them out.  Each constraint carries one live
    color: 0 while no member is assigned, c while every assigned member
    has color c and c is in the mask, dead otherwise.  The assignment
    that gives a live constraint a second color, or a color outside its
    mask, kills it and keeps its previous live color for the undo; later
    assignments skip it until that undo revives it.  Each assignment
    lists the constraints it counted and those it killed, and undo and
    branching visit only those.  When all but one member of a live
    constraint are assigned, its color is blocked on the last member; a
    variable left with one unblocked color is assigned at once (a
    propagation, not a node), and a variable with none, or a constraint
    whose members all take its live color, is a conflict.  The next
    decision is the first free member of the live constraint with the
    fewest free members among those the last decision counted, else the
    first free variable in descending constraint count.  With no pins
    and every mask full the colors are interchangeable, so a decision
    opens at most one color not yet in use.
    """

    def __init__(
        self, variables: Sequence[Edge], k: int, constraints: Iterable[tuple[Sequence[int], int]]
    ) -> None:
        if k < 1:
            raise ValueError("need at least one color")
        self.variables, self.k = tuple(variables), k
        n = len(self.variables)
        self.full = full = (1 << (k + 1)) - 2
        kept = [(list(mem), mask & full) for mem, mask in constraints if mask & full]
        self.cons_of: list[list[int]] = [[] for _ in range(n)]
        for qi, (mem, _) in enumerate(kept):
            for v in mem:
                self.cons_of[v].append(qi)
        self.order = sorted(range(n), key=lambda v: -len(self.cons_of[v]))
        rank = {v: i for i, v in enumerate(self.order)}
        self.members = [sorted(mem, key=rank.__getitem__) for mem, _ in kept]
        self.mask = [mask for _, mask in kept]
        self.size = [len(mem) for mem in self.members]
        self.blocked = [0] * n
        for mem, mask in zip(self.members, self.mask):
            if len(mem) == 1:
                self.blocked[mem[0]] |= mask
        self.units = [v for v in range(n) if (full & ~self.blocked[v]).bit_count() < 2]
        self.void = any(not mem for mem in self.members)
        self.symmetric = all(mask == full for mask in self.mask)

    def solve(
        self, budget: Optional[int] = None, pins: Optional[Mapping[int, int]] = None, off: Iterable[int] = ()
    ) -> "SearchResult":
        """A coloring of the variables not off meeting every constraint
        that avoids them, with the pinned colors.

        found is None when more than budget decisions were needed.
        """
        k, full, n = self.k, self.full, len(self.variables)
        members, mask, size, cons_of, order = self.members, self.mask, self.size, self.cons_of, self.order
        k1 = k + 1
        pins = pins or {}
        for v, c in pins.items():
            if not 0 <= v < n:
                raise ValueError(f"pinned index {v} out of range")
            if not 1 <= c <= k:
                raise ValueError(f"pinned color {c} outside 1..{k}")
        ladder = self.symmetric and not pins
        free = list(size)
        live = [0] * len(size)  # live color, or ~(live color before death) < 0
        upd: list[list[int]] = [[] for _ in range(n)]  # constraints an assignment counted
        kill: list[list[int]] = [[] for _ in range(n)]  # constraints an assignment killed
        col = [0] * n  # color, 0 while free, -1 when off (run then skips it)
        for v in off:
            if not 0 <= v < n or v in pins:
                raise ValueError(f"off index {v} out of range or pinned")
            col[v] = -1
            for q in cons_of[v]:
                live[q] = -1  # dead with no killing assignment, so never revived
        blocked = list(self.blocked)
        trail: list[int] = []  # v >= 0 assigned v; ~(j * k1 + c) blocked color c on j
        nodes = props = conflicts = 0
        top = 0

        def run(pending: list[tuple[int, int]]) -> bool:
            """Assign pending (var, color) pairs, color 0 meaning forced."""
            nonlocal props, top
            while pending:
                v, c = pending.pop()
                if col[v]:
                    if c and c != col[v]:
                        return False
                    continue
                if c == 0:
                    rest = full & ~blocked[v]
                    if not rest:
                        return False
                    c = rest.bit_length() - 1
                    props += 1
                if c > top:
                    top = c
                col[v] = c
                trail.append(v)
                bit = 1 << c
                counted = upd[v] = []
                killed = kill[v] = []
                for q in cons_of[v]:
                    a = live[q]
                    if a < 0:
                        continue
                    if a and a != c or not mask[q] & bit:
                        live[q] = ~a
                        killed.append(q)
                        continue
                    live[q] = c
                    f = free[q] - 1
                    free[q] = f
                    counted.append(q)
                    if f < 2:
                        if f == 0:
                            return False
                        for j in members[q]:
                            if not col[j]:
                                break
                        b = blocked[j]
                        if not b & bit:
                            b |= bit
                            blocked[j] = b
                            trail.append(~(j * k1 + c))
                            rest = full & ~b
                            if not rest:
                                return False
                            if not rest & (rest - 1):
                                pending.append((j, 0))
            return True

        def undo(mark: int) -> None:
            while len(trail) > mark:
                x = trail.pop()
                if x >= 0:
                    col[x] = 0
                    for q in upd[x]:
                        f = free[q] + 1
                        free[q] = f
                        if f == size[q]:
                            live[q] = 0
                    for q in kill[x]:
                        live[q] = ~live[q]
                else:
                    j, c = divmod(~x, k1)
                    blocked[j] &= ~(1 << c)

        def result(found: Optional[bool]) -> SearchResult:
            coloring = EdgeColoring(k, {e: c for e, c in zip(self.variables, col) if c > 0}) if found else None
            return SearchResult(found, coloring, nodes, props, conflicts)

        if self.void or not run([*pins.items(), *((v, 0) for v in self.units)]):
            conflicts += 1
            return result(False)
        stack: list[list[int]] = []  # [var, color tried, trail mark, top, scan position]
        last, pos = -1, 0
        while True:
            v = -1
            if last >= 0:
                c = col[last]
                best, bestf = -1, n + 1
                for q in upd[last]:
                    f = free[q]
                    if f and f < bestf and live[q] == c:
                        best, bestf = q, f
                if best >= 0:
                    for v in members[best]:
                        if not col[v]:
                            break
            if v < 0:
                while pos < n and col[order[pos]]:
                    pos += 1
                if pos == n:
                    return result(True)
                v = order[pos]
            stack.append([v, 0, len(trail), top, pos])
            while True:
                frame = stack[-1]
                v, c, mark, top, pos = frame
                undo(mark)
                lim = min(k, top + 1) if ladder else k
                b = blocked[v]
                c += 1
                while c <= lim and b >> c & 1:
                    c += 1
                if c > lim:
                    stack.pop()
                    if not stack:
                        return result(False)
                    continue
                frame[1] = c
                nodes += 1
                if budget is not None and nodes > budget:
                    return result(None)
                if run([(v, c)]):
                    last = v
                    break
                conflicts += 1


def _clique_core(h: Hypergraph, t: int, k: int) -> tuple[SearchCore, tuple[tuple[int, ...], ...]]:
    """The free-coloring question on h over its sorted edges, and the t-cliques it was built from."""
    cliques = enumerate_cliques(h, t)
    edges = sorted(h.edges)
    index = {e: i for i, e in enumerate(edges)}
    full = (1 << (k + 1)) - 2
    cons = [([index[e] for e in itertools.combinations(q, h.r)], full) for q in cliques]
    return SearchCore(edges, k, cons), cliques


def _solve_verified(
    core: SearchCore, cliques: Sequence[tuple[int, ...]], r: int, budget: Optional[int], off: Collection[int] = ()
) -> SearchResult:
    """core.solve(budget, off=off) on a _clique_core, its coloring re-verified.

    The coloring must cover exactly the variables not off and leave
    every clique that avoids them non-monochromatic.
    """
    res = core.solve(budget, off=off)
    if res.coloring is not None:
        absent = {core.variables[i] for i in off}
        if res.coloring.assignment.keys() != set(core.variables) - absent:
            raise RuntimeError("search produced a coloring of the wrong edges")
        kept = [q for q in cliques if absent.isdisjoint(itertools.combinations(q, r))] if absent else cliques
        bad = _mono_cliques(kept, r, res.coloring.assignment)
        if bad:
            raise RuntimeError(f"search produced a non-free coloring: {bad[:3]!r}")
    return res


def find_free_coloring(h: Hypergraph, t: int, k: int, budget: Optional[int] = None) -> SearchResult:
    """Decide whether some k-coloring of E(h) avoids monochromatic t-cliques.

    Complete search: found=False proves no free coloring exists.  Any
    returned coloring is re-verified against the cliques before it
    leaves.
    """
    core, cliques = _clique_core(h, t, k)
    return _solve_verified(core, cliques, h.r, budget)


def arrows(h: Hypergraph, t: int, k: int, budget: Optional[int] = None) -> ArrowVerdict:
    """Does every k-coloring of E(h) contain a monochromatic t-clique?"""
    res = find_free_coloring(h, t, k, budget=budget)
    counts = (res.propagations, res.conflicts)
    if res.found is None:
        return ArrowVerdict(None, None, res.nodes, "unknown", *counts)
    if res.found:
        return ArrowVerdict(False, res.coloring, res.nodes, "complete", *counts)
    return ArrowVerdict(True, None, res.nodes, "complete", *counts)


def is_minimal_ramsey(
    h: Hypergraph, t: int, k: int, budget: Optional[int] = None
) -> Optional[bool]:
    """True when h arrows but no single-edge-deleted subgraph does.

    None when some required arrowing question stayed undecided.  One
    search core over h answers every deletion with that edge off.
    """
    core, cliques = _clique_core(h, t, k)
    found = _solve_verified(core, cliques, h.r, budget).found
    if found is not False:
        return None if found is None else False  # undecided, or h does not arrow
    pending_unknown = False
    for i in range(len(core.variables)):
        found = _solve_verified(core, cliques, h.r, budget, {i}).found
        if found is False:
            return False  # h minus this edge still arrows
        if found is None:
            pending_unknown = True
    return None if pending_unknown else True


def minimalize(h: Hypergraph, t: int, k: int, budget: Optional[int] = None) -> Hypergraph:
    """Greedy edge-minimal arrowing subhypergraph, isolated vertices dropped.

    Edges are tried for deletion in lexicographic order.  Arrowing only
    ever shrinks under deletion, so a single pass is minimal: an edge
    whose removal breaks arrowing now would break it in any subgraph too.
    One search core over h answers every trial with the deleted edges off.

    Raises:
        ValueError: if h does not arrow in the first place.
        BudgetExceeded: if some arrowing question stayed undecided.
    """
    core, cliques = _clique_core(h, t, k)
    off: set[int] = set()

    def free_without_off() -> bool:
        found = _solve_verified(core, cliques, h.r, budget, off).found
        if found is None:
            raise BudgetExceeded("budget too small to decide arrowing")
        return found

    if free_without_off():
        raise ValueError("hypergraph does not arrow; nothing to minimalize")
    for i in range(len(core.variables)):
        off.add(i)
        if free_without_off():
            off.discard(i)  # h minus off does not arrow: keep this edge
    edges = frozenset(e for i, e in enumerate(core.variables) if i not in off)
    support = {v for e in edges for v in e}
    return Hypergraph(h.r, frozenset(support), edges, {v: lab for v, lab in h.labels.items() if v in support})


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
    core, _ = _clique_core(h, t, k)
    index = {e: i for i, e in enumerate(core.variables)}
    special_idx = [index[e] for e in specials]
    sigmas = [dict(zip(range(1, k + 1), perm)) for perm in itertools.permutations(range(1, k + 1))]

    patterns: dict[tuple[int, ...], EdgeColoring] = {}
    complete = True
    remaining = budget
    for rep in sorted(_descending_compositions(ell, k), reverse=True):
        if rep in patterns:
            continue
        multiset: list[int] = []
        for color, cnt in enumerate(rep, start=1):
            multiset.extend([color] * cnt)
        for assign in sorted(set(itertools.permutations(multiset))):
            res = core.solve(remaining, pins=dict(zip(special_idx, assign)))
            if remaining is not None:
                remaining = max(0, remaining - res.nodes)
            if res.found is None:
                complete = False
                break
            if res.found:
                base = res.coloring
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

    def place(i: int, c: int, d: int) -> None:
        for ei in edges_of[i]:
            cnt[ei][c] += d
            seen[ei] += d

    # depth-first in lexicographic order on an explicit cursor: color[i]
    # is the color in force at vertex i, 0 before the first try
    n, i = len(verts), 0
    while i >= 0:
        if i == n:
            out.append(VertexColoring(k, dict(zip(verts, color))))
            if mode == "exists":
                break
            i -= 1
            continue
        c = color[i]
        if c:
            place(i, c, -1)
        while c < k:
            c += 1
            place(i, c, 1)
            if all(feasible(ei) for ei in edges_of[i]):
                break
            place(i, c, -1)
        else:
            color[i] = 0
            i -= 1
            continue
        color[i] = c
        i += 1
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


def solve_cnf(
    problem: Union[CnfDocument, Iterable[Sequence[int]]],
) -> Optional[frozenset[int]]:
    """Satisfy a CNF by DPLL; returns the true variables, or None.

    Variables missing from the result are false.  Literals are nonzero
    integers (bools and non-integers raise ValueError); a literal
    repeated within a clause is dropped, and an empty clause makes the
    result None.  The search is iterative: one map of true literals, a
    trail that doubles as the propagation queue, two watched literals
    per clause of length two or more, and an explicit stack of decision
    frames [literal, side tried, trail mark, scan position].  Undo pops
    the trail back to a frame's mark; watches need no undo.  It branches
    on the first unassigned literal of the first clause, in input order,
    that is not yet satisfied, and tries that literal before its
    negation.  Satisfied clauses stay satisfied along a branch, so each
    frame keeps the index of that clause and later scans resume there.
    This is the independent check on export_cnf, so it deliberately
    shares no code with the search engine.
    """
    if isinstance(problem, CnfDocument):
        problem = problem.clauses
    clauses: list[tuple[int, ...]] = []
    for cl in problem:
        cl = tuple(cl)
        for x in cl:
            if type(x) is not int or x == 0:
                raise ValueError(f"CNF literal must be a nonzero integer, got {x!r}")
        clauses.append(tuple(dict.fromkeys(cl)))
    if any(not cl for cl in clauses):
        return None
    true: set[int] = set()
    trail: list[int] = []
    watches: dict[int, list[int]] = {}
    watched = [list(cl) for cl in clauses]  # the first two entries are watched
    for i, cl in enumerate(clauses):
        if len(cl) == 1:
            if -cl[0] in true:
                return None
            if cl[0] not in true:
                true.add(cl[0])
                trail.append(cl[0])
        else:
            watches.setdefault(cl[0], []).append(i)
            watches.setdefault(cl[1], []).append(i)
    stack: list[list[int]] = []
    head = 0
    while True:
        conflict = False
        while head < len(trail) and not conflict:
            false_lit = -trail[head]
            head += 1
            ws = watches.get(false_lit)
            if not ws:
                continue
            keep: list[int] = []
            for j, ci in enumerate(ws):
                w = watched[ci]
                if w[0] == false_lit:
                    w[0], w[1] = w[1], false_lit
                other = w[0]
                if other in true:
                    keep.append(ci)
                    continue
                for q in range(2, len(w)):
                    lit = w[q]
                    if -lit not in true:
                        w[1], w[q] = lit, false_lit
                        watches.setdefault(lit, []).append(ci)
                        break
                else:
                    keep.append(ci)
                    if -other in true:
                        keep.extend(ws[j + 1:])
                        conflict = True
                        break
                    true.add(other)
                    trail.append(other)
            watches[false_lit] = keep
        if conflict:
            while stack:
                frame = stack[-1]
                true.difference_update(trail[frame[2]:])
                del trail[frame[2]:]
                head = frame[2]
                if frame[1] == 0:
                    frame[1] = 1
                    true.add(-frame[0])
                    trail.append(-frame[0])
                    break
                stack.pop()
            else:
                return None
            continue
        pos = stack[-1][3] if stack else 0
        while pos < len(clauses) and not true.isdisjoint(clauses[pos]):
            pos += 1
        if pos == len(clauses):
            return frozenset(x for x in true if x > 0)
        lit = next(x for x in clauses[pos] if -x not in true)
        stack.append([lit, 0, len(trail), pos])
        true.add(lit)
        trail.append(lit)
