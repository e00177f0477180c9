"""Arrowing engine: free colorings, minimality, patterns, CNF export.

The central question answered here is whether every k-coloring of the
edges of a hypergraph contains a monochromatic complete subhypergraph on
t vertices.  One search core, SearchCore, decides it and every other
coloring question in the package: its constraints say "these variables
are not all one color of this mask", so a t-clique is one constraint
with the full mask, a pinned or pre-colored edge narrows the mask, and
codegree's forced-pattern check and randomlab's property-B check are
instances too.  The core is a complete conflict-driven search: watched
clauses propagate, each conflict is learned as a nogood over (variable,
color) assignments and the search backjumps, all on an explicit trail,
so "yes" and "no" answers are both proofs at any size; a node budget
turns long runs into an explicit Unknown verdict instead of an
open-ended wait.  Every coloring a solve returns has been checked
against the core's own clauses.  Results count nodes (decisions),
propagations, conflicts, learned nogoods and restarts.  export_cnf
writes the clauses of the same clique core as DIMACS.  solve_cnf is a
separate iterative DPLL with two watched literals per clause and no
learning, kept as an independent check on export_cnf and sharing no
code with the core; it branches on the first open literal of the first
unsatisfied clause.

Works for uniformity 2 and 3.  The 2-uniform case doubles as a sanity
surface: classical Ramsey facts such as r(3, 3) = 6 are cheap to check
and exercise every code path.
"""

from __future__ import annotations

import itertools
import operator
from bisect import bisect_left
from dataclasses import dataclass, field
from functools import reduce
from heapq import heapify, heappop, heappush
from types import MappingProxyType
from typing import Iterable, Iterator, Mapping, Optional, Sequence, Union

from .hypercore import (Edge, Hypergraph, _bounded_cliques, _edges_well_formed, brief, canon_edge, enumerate_cliques,
                        json_member, json_value, vertex_ids)

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


def _canonical_coloring(k: int, assignment: Mapping[Edge, int]) -> bool:
    """True when every key is a canonical edge and every color an exact int in 1..k.

    Canonical edges are tuples of one length, at least 1, of exact ints,
    strictly increasing from an id >= 0: each is its own canon_edge, so no
    two repeat an edge up to reordering.  The keys go through hypercore's
    bulk edge check, the colors through a type set and min/max, each a pass
    at C speed; False means some entry may be bad, not that one is.
    """
    keys, colors = assignment.keys(), assignment.values()
    first = next(iter(keys), None)
    return (type(first) is tuple and len(first) > 0 and _edges_well_formed(len(first), keys)
            and set(map(type, colors)) <= {int} and 1 <= min(colors) and max(colors) <= k)


def _normalized_coloring(k: int, assignment: Mapping[Iterable[int], int]) -> dict[Edge, int]:
    """The assignment with each edge through canon_edge; raises naming the first bad entry."""
    normalized = {}
    for e, c in assignment.items():
        if type(c) is not int or not 1 <= c <= k:
            raise ValueError(f"color {brief(c)} of edge {brief(e)} is not an integer in 1..{k}")
        normalized[canon_edge(e)] = c
    if len(normalized) != len(assignment):
        raise ValueError("assignment repeats an edge up to reordering")
    return normalized


@dataclass(frozen=True)
class EdgeColoring:
    """Total assignment of colors 1..k to a set of edges; assignment is a read-only view.

    The entries are checked in bulk (_canonical_coloring: a few C-speed
    passes over keys and colors) and copied as they are when that check
    passes.  Otherwise they go entry by entry through _normalized_coloring,
    which puts each edge in canonical form or raises naming the bad entry;
    both paths accept the same input and store the same assignment.
    """

    k: int
    assignment: Mapping[Edge, int]

    def __post_init__(self) -> None:
        if self.k < 1:
            raise ValueError("need at least one color")
        a = self.assignment
        normalized = dict(a) if _canonical_coloring(self.k, a) else _normalized_coloring(self.k, a)
        object.__setattr__(self, "assignment", MappingProxyType(normalized))

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
        """The coloring of a document, read member by member; its ids and colors are checked by the constructor.

        An entry that is not an [edge, color] pair, or whose edge holds an
        id that is not an int, is named here.
        """
        doc = json_value(doc, dict, "coloring document")
        k = json_member(doc, "k", int)
        colors = json_member(doc, "colors", list)
        assignment = {}
        int_ids = {int}.issuperset
        for entry in colors:
            try:
                e, c = entry
                e = tuple(e)
            except (TypeError, ValueError):
                raise ValueError(f"coloring entry {brief(entry)} is not an [edge, color] pair") from None
            if not int_ids(map(type, e)):
                raise ValueError(f"coloring entry {brief(entry)} holds a vertex id that is not an integer")
            assignment[e] = c
        if len(assignment) != len(colors):
            raise ValueError("coloring document repeats an edge")
        return cls(k, assignment)


@dataclass(frozen=True)
class VertexColoring:
    """Total assignment of colors 1..k to a set of vertices; assignment is a read-only view."""

    k: int
    assignment: Mapping[int, int]

    def __post_init__(self) -> None:
        if self.k < 1:
            raise ValueError("need at least one color")
        vs = vertex_ids(self.assignment, "colored vertices")
        for v, c in self.assignment.items():
            if type(c) is not int or not 1 <= c <= self.k:
                raise ValueError(f"color {brief(c)} of vertex {v} is not an integer in 1..{self.k}")
        object.__setattr__(self, "assignment", MappingProxyType(dict(zip(vs, self.assignment.values()))))

    def color(self, v: int) -> int:
        return self.assignment[v]


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
            if len(p) != self.k or any(type(a) is not int or a < 0 for a in p) or sum(p) != self.ell:
                raise ValueError(f"pattern {brief(p)} is not a composition of {self.ell} into {self.k} parts")


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
    learned: int = 0
    restarts: int = 0

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
    propagation, conflicts the dead ends met, learned the nogoods kept
    from them and restarts the returns to level 0.
    """

    found: Optional[bool]
    coloring: Optional[EdgeColoring]
    nodes: int
    propagations: int = 0
    conflicts: int = 0
    learned: int = 0
    restarts: int = 0


def check_free(
    h: Hypergraph, coloring: EdgeColoring, t: int
) -> list[tuple[tuple[int, ...], int]]:
    """All monochromatic t-cliques under the coloring, as (clique, color), in lexicographic clique order.

    The coloring must cover every edge of h; its entries for other sets are
    ignored.  An empty result certifies that the coloring is free of
    monochromatic complete t-sets.  Uniformity 2 and 3 are supported; t must
    be at least r.

    Each color class of h's edges is searched on its own by
    hypercore._bounded_cliques: masks local to each first vertex, and a
    node pruned when a greedy coloring of its last member's link on the
    candidates uses fewer colors than members are still needed (the
    coloring bound of Tomita and Seki).  That search shares no code with
    enumerate_cliques, which builds the search core's constraints, so a
    clique the kernel missed is not also missed here.
    """
    if h.r not in (2, 3):
        raise ValueError("clique enumeration supports uniformity 2 and 3 only")
    if t < h.r:
        raise ValueError("clique size below the uniformity")
    classes: dict[Optional[int], list[Edge]] = {}
    for e in h.edges:
        classes.setdefault(coloring.assignment.get(e), []).append(e)
    missing = classes.get(None)
    if missing:
        raise ValueError(f"coloring misses {len(missing)} edges, e.g. {min(missing)!r}")
    return sorted((q, c) for c, edges in classes.items() for q in _bounded_cliques(edges, h.r, t))


class SearchCore:
    """Conflict-driven coloring search over masked "not all one color" constraints.

    The variables (edges, or pairs) take colors 1..k.  A constraint is
    a list of variable indices with a mask of forbidden colors, bit c
    standing for color c: its members must not all take one color of
    the mask.  A member-less constraint with a nonempty mask can never
    hold.  The constraints are read once, in order, each turned into its
    clauses as it comes, so a generator will do and no copy of them is
    kept.  One instance may be solved many times with different pins.
    Variables passed as off are absent from that solve: they are never
    decided or pinned, every constraint through one is dropped, and the
    coloring leaves them out.

    The atom v * (k + 1) + c stands for "v has color c".  Each
    constraint is one clause per color c of its mask, listing the atoms
    of its members for c that must not all hold, and every clause
    watches two of its atoms: the assignment v = c visits only the
    clauses that watch v for c.  A clause whose other atoms all hold
    rules its last atom out (a block, with the clause as its reason); a
    variable left with one color takes it (a propagation, not a node),
    and a variable with none, or a clause whose atoms all hold, is a
    conflict.  A visited clause whose other watch is already ruled out
    moves this watch to a third ruled-out atom when it has one, so it
    leaves the lists of atoms that keep being assigned.  Only the atoms of
    variables in some clause get clause and watch lists; the others share
    the empty tuple, which every reader takes as no clauses.  The clauses
    are kept as tuples, and each solve copies them into lists whose
    watched atoms it reorders.

    A conflict is traced back through the reasons to its first unique
    implication point.  That yields a nogood: assignments that cannot
    all hold, dropping those forced by atoms already in it.  The nogood
    is learned as one more clause, watched the same way, and the search
    backjumps to the level where it rules out its last assignment.  Each
    learned nogood raises the activity of its variables, and activity
    decays with every conflict.  A decision takes the first open member
    of the first open constraint clause through the atom last taken by a
    decision or by a learned nogood, so that the search works through
    one constraint at a time; when there is none, it takes the open
    variable of highest activity, ties to the lower index.  The variable
    gets its lowest open color.  The search restarts from level 0 on a
    fixed Luby schedule.  Learned clauses are dropped at the start of
    each solve, since they may rest on its pins or on constraints
    through its off variables.  With no pins and every mask full the
    colors are interchangeable, so the first present variable in
    descending constraint count is pinned to color 1 at level 0.  The
    search is iterative and deterministic.

    A coloring leaves solve only after a check: every variable not off
    has a color, and no clause of self.clauses (the constraints as given,
    not learned nogoods) has all its atoms holding; else RuntimeError.
    """

    def __init__(
        self, variables: Sequence[Edge], k: int, constraints: Iterable[tuple[Sequence[int], int]]
    ) -> None:
        if k < 1:
            raise ValueError("need at least one color")
        self.variables, self.k = tuple(variables), k
        n, k1 = len(self.variables), k + 1
        self.full = full = (1 << k1) - 2
        self.clauses = clauses = []
        live = set()  # the variables in some clause
        symmetric = True
        for mem, mask in constraints:
            if mem and (set(map(type, mem)) != {int} or min(mem) < 0 or max(mem) >= n):
                bad = next(v for v in mem if type(v) is not int or not 0 <= v < n)
                raise ValueError(f"constraint member {brief(bad)} is not an index in 0..{n - 1}")
            mask &= full
            symmetric = symmetric and mask in (0, full)
            if mask:
                live.update(mem)
            for c in range(1, k1):
                if mask >> c & 1:
                    clauses.append(tuple([v * k1 + c for v in mem]))
        # clauses through each atom, and clauses first watching it: () for a variable in none
        self.occ = occ = [[] if v in live else () for v in range(n) for _ in range(k1)]
        self.watch0 = watch0 = [[] if v in live else () for v in range(n) for _ in range(k1)]
        for ci, lits in enumerate(clauses):
            for a in lits:
                occ[a].append(ci)
            if len(lits) > 1:
                watch0[lits[0]].append(ci)
                watch0[lits[1]].append(ci)
        self.short = [ci for ci, lits in enumerate(clauses) if len(lits) < 2]
        self.symmetric = symmetric
        self.order: list[int] = []  # by descending constraint count, for the symmetric pin
        if self.symmetric:
            count = [sum(map(len, occ[v * k1 + 1:v * k1 + k1])) for v in range(n)]
            self.order = sorted(range(n), key=count.__getitem__, reverse=True)

    def solve(
        self, budget: Optional[int] = None, pins: Optional[Mapping[int, int]] = None, off: Iterable[int] = ()
    ) -> "SearchResult":
        """A coloring of the variables not off meeting every constraint
        that avoids them, with the pinned colors.

        found is None when more than budget decisions were needed;
        budget=0 stops at the first decision.
        """
        if budget is not None and (type(budget) is not int or budget < 0):
            raise ValueError(f"node budget {brief(budget)} is not a nonnegative integer")
        k, full, n, occ = self.k, self.full, len(self.variables), self.occ
        k1 = k + 1
        pins = pins or {}
        for v, c in pins.items():
            if type(v) is not int or not 0 <= v < n:
                raise ValueError(f"pinned index {brief(v)} out of range")
            if type(c) is not int or not 1 <= c <= k:
                raise ValueError(f"pinned color {brief(c)} is not an integer in 1..{k}")
        col = [0] * n  # color, 0 while open, -1 when off
        val = [0] * (n * k1)  # per atom: 1 holds, 2 ruled out, 0 open
        for v in off:
            if type(v) is not int or not 0 <= v < n or v in pins:
                raise ValueError(f"off index {brief(v)} out of range or pinned")
            col[v] = -1
            val[v * k1 + 1:v * k1 + k1] = [2] * k  # every clause through v is met
        clauses = list(map(list, self.clauses))  # watched atoms first
        blocked = [0] * n
        reason = [0] * (n * k1)  # the clause that blocked an atom
        level = [0] * n
        watches = [w[:] for w in self.watch0]
        act = [0.0] * n
        seen = [False] * n
        trail: list[int] = []  # atoms that took hold, ~atom for blocks
        marks: list[int] = []  # trail length before each open decision
        heap = [(0.0, v) for v in range(n) if not col[v]]
        nodes = props = conflicts = learned = restarts = 0
        qhead, inc, last = 0, 1.0, -1

        def assign(v: int, c: int) -> None:
            base = v * k1
            for a in range(base + 1, base + k1):
                if not val[a]:
                    val[a] = 2
            val[base + c] = 1
            col[v], level[v] = c, len(marks)
            trail.append(base + c)

        def block(a: int, ci: int) -> Optional[int]:
            """Rule atom a out for clause ci; ~v when variable v has no color left."""
            nonlocal props
            v = a // k1
            val[a], reason[a] = 2, ci
            trail.append(~a)
            b = blocked[v] = blocked[v] | 1 << (a - v * k1)
            rest = full & ~b
            if not rest:
                return ~v
            if not rest & (rest - 1):
                props += 1
                assign(v, rest.bit_length() - 1)
            return None

        def propagate() -> Optional[int]:
            """Visit the watches of every new assignment; a conflict, or None.

            A conflict is a clause index, or ~v for a variable with no
            color left.
            """
            nonlocal qhead
            while qhead < len(trail):
                a = trail[qhead]
                qhead += 1
                if a < 0 or not watches[a]:
                    continue
                ws = watches[a]
                keep: list[int] = []
                moved = 0
                for ci in ws:
                    lits = clauses[ci]
                    o = lits[0]
                    if o == a:
                        o = lits[0] = lits[1]
                        lits[1] = a
                    vo = val[o]
                    for j in range(2, len(lits)):
                        b = lits[j]
                        if val[b] == 2 if vo == 2 else val[b] != 1:
                            lits[1], lits[j] = b, a
                            watches[b].append(ci)
                            moved += 1
                            break
                    else:
                        keep.append(ci)
                        if vo != 2:
                            confl = ci if vo == 1 else block(o, ci)
                            if confl is not None:
                                keep.extend(ws[len(keep) + moved:])
                                watches[a] = keep
                                return confl
                watches[a] = keep
            return None

        def cause(v: int, skip: int) -> list[int]:
            """The atoms whose holding blocked the colors of v, all but atom skip."""
            base = v * k1
            return [b for a in range(base + 1, base + k1) if a != skip for b in clauses[reason[a]] if b != a]

        def analyze(confl: int) -> tuple[list[int], int]:
            """First-UIP nogood of a conflict, and the level to backjump to.

            Variables are marked seen as the trace reaches them; those
            below the current level go into the nogood, unless forced
            by atoms that are all in it already or at level 0.
            """
            cur = len(marks)
            todo = clauses[confl] if confl >= 0 else cause(~confl, -1)
            low: list[int] = []  # variables of the nogood below the current level
            count, i = 0, len(trail)
            while True:
                for b in todo:
                    v = b // k1
                    if not seen[v] and level[v]:
                        seen[v] = True
                        if level[v] == cur:
                            count += 1
                        else:
                            low.append(v)
                i -= 1
                while trail[i] < 0 or not seen[trail[i] // k1]:
                    i -= 1
                a = trail[i]
                v = a // k1
                seen[v] = False
                count -= 1
                if not count:
                    break
                todo = cause(v, a)  # v was forced, so it has a cause
            kept = [
                v for v in low
                if trail[marks[level[v] - 1]] == v * k1 + col[v]  # a decision
                or not all(seen[b // k1] or not level[b // k1] for b in cause(v, v * k1 + col[v]))
            ]
            for v in low:
                seen[v] = False
            nogood, jump = [a], 0
            act[a // k1] += inc
            for v in kept:
                act[v] += inc
                nogood.append(v * k1 + col[v])
                if level[v] > jump:
                    jump = level[v]
                    nogood[1], nogood[-1] = nogood[-1], nogood[1]
            return nogood, jump

        def backjump(lv: int) -> None:
            """Undo every assignment and block above decision level lv."""
            nonlocal qhead
            mark = qhead = marks[lv]
            del marks[lv:]
            while len(trail) > mark:
                a = trail.pop()
                if a >= 0:
                    v = a // k1
                    col[v] = 0
                    b, base = blocked[v], v * k1
                    for c in range(1, k1):
                        val[base + c] = 2 if b >> c & 1 else 0
                    heappush(heap, (-act[v], v))
                else:
                    a = ~a
                    v = a // k1
                    val[a] = 0
                    blocked[v] &= ~(1 << (a - v * k1))

        def rebuild() -> None:
            """One heap entry per open variable, with its current activity."""
            heap[:] = [(-act[v], v) for v in range(n) if not col[v]]
            heapify(heap)

        def follow() -> int:
            """The first open member of the first open constraint clause through atom last, or -1."""
            for ci in occ[last] if last >= 0 else ():
                u = -1
                for b in self.clauses[ci]:
                    x = val[b]
                    if x == 2:
                        break
                    if not x and u < 0:
                        u = b // k1
                else:
                    if u >= 0:
                        return u
            return -1

        def result(found: Optional[bool]) -> SearchResult:
            coloring = None
            if found:
                held = {v * k1 + c for v, c in enumerate(col) if c > 0}
                if 0 in col or any(map(held.issuperset, self.clauses)):
                    raise RuntimeError("search produced a coloring that breaks its own clauses")
                coloring = EdgeColoring(k, {e: c for e, c in zip(self.variables, col) if c > 0})
            return SearchResult(found, coloring, nodes, props, conflicts, learned, restarts)

        for v, c in pins.items():
            assign(v, c)
        confl = None
        for ci in self.short:
            lits = clauses[ci]
            if not lits or val[lits[0]] == 1:
                confl = ci
            elif not val[lits[0]]:
                confl = block(lits[0], ci)
            if confl is not None:
                break
        if confl is None and self.symmetric and not pins:
            first = next((v for v in self.order if not col[v]), None)
            if first is not None:
                assign(first, 1)
        if confl is None:
            confl = propagate()
        restart_at, luby = _RESTART_UNIT, 1
        while True:
            if confl is not None:
                conflicts += 1
                if not marks:
                    return result(False)
                nogood, jump = analyze(confl)
                backjump(jump)
                ci = len(clauses)
                clauses.append(nogood)
                learned += 1
                if len(nogood) > 1:
                    watches[nogood[0]].append(ci)
                    watches[nogood[1]].append(ci)
                inc /= _DECAY
                if inc > 1e100:
                    act[:] = [x * 1e-100 for x in act]
                    inc *= 1e-100
                    rebuild()
                confl = block(nogood[0], ci)
                v = nogood[0] // k1
                last = v * k1 + col[v] if col[v] > 0 else -1
                if confl is None and conflicts >= restart_at:
                    luby += 1
                    restart_at = conflicts + _RESTART_UNIT * _luby(luby)
                    if marks:
                        restarts += 1
                        backjump(0)
                if confl is None:
                    confl = propagate()
                continue
            if len(heap) > 2 * n + 64:
                rebuild()
            while heap and col[heap[0][1]]:
                heappop(heap)
            if not heap:
                return result(True)
            v = follow()
            if v < 0:
                v = heappop(heap)[1]
            rest = full & ~blocked[v]
            c = (rest & -rest).bit_length() - 1
            nodes += 1
            if budget is not None and nodes > budget:
                return result(None)
            marks.append(len(trail))
            last = v * k1 + c
            assign(v, c)
            confl = propagate()


_RESTART_UNIT = 100  # conflicts per unit of the Luby restart schedule
_DECAY = 0.95  # activity decay per conflict


def _luby(i: int) -> int:
    """The i-th term (from 1) of the Luby sequence 1, 1, 2, 1, 1, 2, 4, ..."""
    while True:
        b = i.bit_length()
        if i == (1 << b) - 1:
            return 1 << (b - 1)
        i -= (1 << (b - 1)) - 1


def _clique_core(h: Hypergraph, t: int, k: int, fixed: Mapping[Edge, int] = {}) -> SearchCore:
    """The free-coloring question on h with the edges of fixed pre-colored.

    A fixed value is a color mask, bit c for color c: an edge with two bits counts as
    both colors.  The variables are the sorted edges of h not in fixed.  Each t-clique
    with a variable edge is one constraint over its variable edges, its mask narrowed
    to the colors every one of its fixed edges carries; a clique of fixed edges only
    is no constraint.  The constraints are a generator, made one clique at a time as
    the core reads them.  The core's clauses are the whole encoding: its solves check
    their colorings against them, and export_cnf writes them.
    """
    edges = sorted(h.edges.difference(fixed))
    # one lookup per clique edge: i for variable i, else ~ the fixed edge's mask
    code = {e: ~m for e, m in fixed.items()}
    code.update((e, i) for i, e in enumerate(edges))
    full = (1 << (k + 1)) - 2

    def constraints() -> Iterable[tuple[list[int], int]]:
        # a sorted clique's edges come in sorted order, so its variables in increasing order;
        # the negative fixed codes sort first, one per mask
        for q in enumerate_cliques(h, t):
            xs = sorted(set(map(code.__getitem__, itertools.combinations(q, h.r))))
            i = bisect_left(xs, 0)
            if i < len(xs):
                yield xs[i:], reduce(int.__and__, map(operator.invert, xs[:i]), full)

    return SearchCore(edges, k, constraints())


def find_free_coloring(h: Hypergraph, t: int, k: int, budget: Optional[int] = None) -> SearchResult:
    """Decide whether some k-coloring of E(h) avoids monochromatic t-cliques.

    Complete search: found=False proves no free coloring exists.  Any
    returned coloring has been checked against the core's clauses, one
    per clique and color, before it leaves.
    """
    return _clique_core(h, t, k).solve(budget)


def arrows(h: Hypergraph, t: int, k: int, budget: Optional[int] = None) -> ArrowVerdict:
    """Does every k-coloring of E(h) contain a monochromatic t-clique?"""
    res = find_free_coloring(h, t, k, budget=budget)
    counts = (res.propagations, res.conflicts, res.learned, res.restarts)
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
    core = _clique_core(h, t, k)
    found = core.solve(budget).found
    if found is not False:
        return None if found is None else False  # undecided, or h does not arrow
    pending_unknown = False
    for i in range(len(core.variables)):
        found = core.solve(budget, off=[i]).found
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
    core = _clique_core(h, t, k)
    off: set[int] = set()

    def free_without_off() -> bool:
        found = core.solve(budget, off=off).found
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
    return Hypergraph(h.r, frozenset(v for e in edges for v in e), edges)


def _arrangements(counts: tuple[int, ...]) -> Iterator[tuple[int, ...]]:
    """Each sequence with counts[i] entries of color i + 1, once, in lexicographic order."""
    if not any(counts):
        yield ()
    for i, cnt in enumerate(counts):
        if cnt:
            yield from ((i + 1, *tail) for tail in _arrangements(counts[:i] + (cnt - 1,) + counts[i + 1 :]))


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
    representative per orbit is searched, visiting each coloring of the
    special edges with its counts once, in lexicographic order, until one
    extends.  A shared node budget can cut the scan short; the result is
    then marked incomplete.
    """
    if u not in h.vertices or v not in h.vertices:
        raise ValueError("vertex not in hypergraph")
    if u == v:
        raise ValueError("special pair needs two distinct vertices")
    specials = sorted(e for e in h.edges if u in e and v in e)
    ell = len(specials)
    core = _clique_core(h, t, k)
    index = {e: i for i, e in enumerate(core.variables)}
    special_idx = [index[e] for e in specials]
    sigmas = [dict(zip(range(1, k + 1), perm)) for perm in itertools.permutations(range(1, k + 1))]

    patterns: dict[tuple[int, ...], EdgeColoring] = {}
    complete = True
    remaining = budget
    reps = (p for p in itertools.combinations_with_replacement(range(ell, -1, -1), k) if sum(p) == ell)
    for rep in sorted(reps, reverse=True):
        for assign in _arrangements(rep):
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

    def lines(self) -> Iterator[str]:
        """The lines of text, without their newlines, one at a time."""
        for i, e in enumerate(self.edges):
            for c in range(1, self.k + 1):
                yield f"c map {self.var(i, c)} {','.join(map(str, e))} {c}"
        yield f"p cnf {self.num_vars} {len(self.clauses)}"
        for cl in self.clauses:
            yield " ".join(map(str, cl)) + " 0"

    @property
    def text(self) -> str:
        return "\n".join(self.lines()) + "\n"

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
    """CNF whose models are exactly the free k-colorings of E(h), for k >= 1.

    After each edge's at-least-one and at-most-one clauses come the
    clauses of _clique_core(h, t, k), in order: the core's atom
    i * (k + 1) + c becomes the negated variable i * k + c.
    """
    core = _clique_core(h, t, k)
    clauses: list[tuple[int, ...]] = []
    for i in range(len(core.variables)):
        clauses.append(tuple(i * k + c for c in range(1, k + 1)))
        for c1 in range(1, k + 1):
            for c2 in range(c1 + 1, k + 1):
                clauses.append((-(i * k + c1), -(i * k + c2)))
    clauses.extend(tuple(a // (k + 1) - a for a in lits) for lits in core.clauses)
    return CnfDocument(len(core.variables) * k, tuple(clauses), core.variables, k)


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
                raise ValueError(f"CNF literal must be a nonzero integer, got {brief(x)}")
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
