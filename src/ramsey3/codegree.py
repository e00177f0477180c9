"""Codegree forcing: the partition host and the extension argument.

Everything here is 2-colored.  The partition host is a hypergraph on a
(t-2) x (t-2) grid plus a reserved pair {a, b} of codegree zero, built
so that once all (t-2)^2 triples {a, b, u} are added, every 2-coloring
of those triples completes a monochromatic K_t: an all-blue grid column
gives a blue clique, and failing that a red transversal gives a red one.
Deleting even one apex triple breaks the forcing, so the codegree
(t-2)^2 is exactly the threshold.  forced_pattern_check decides this
on one search core per host: colorengine's clique core of host + full
apex bundle with the host coloring fixed, so the apex triples are the
only variables and each clique forbids the color its host edges share.
Missing apex triples are off; that settles t=8 (36 apex triples).

The converse direction is the extension argument: around a pair of
codegree below (t-2)^2, any free coloring of the rest of the hypergraph
extends to the pair's edges, with a greedy packing of blue-spanning
sets deciding which new edges turn red.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import cached_property
from fractions import Fraction
from math import comb
from typing import TYPE_CHECKING, Iterable, Optional

from .colorengine import BudgetExceeded, EdgeColoring, _clique_core, check_free
from .hypercore import Edge, Hypergraph, canon_edge, enumerate_cliques

if TYPE_CHECKING:
    from .colorengine import SearchCore

__all__ = [
    "BLUE",
    "RED",
    "PartitionHost",
    "build_partition_host",
    "apex_bundle",
    "augment_apex_pair",
    "clique_count_formula",
    "count_host_cliques",
    "forced_pattern_check",
    "ExtensionCertificate",
    "extend_coloring_lower_bound",
    "CliqueExpectation",
    "random_coloring_expectation",
    "expectation_denominator_log2",
]

BLUE = 1
RED = 2


@dataclass(frozen=True)
class PartitionHost:
    """Grid-plus-pair host with its prescribed free coloring.

    parts are the grid columns; every edge of h meets the grid in a
    same-part or all-distinct-parts set, and no edge contains both a
    and b until augment_apex_pair adds that bundle.  apex_core is built
    on first use and lives as long as the host.
    """

    t: int
    h: Hypergraph
    parts: tuple[frozenset[int], ...]
    a: int
    b: int
    coloring: EdgeColoring

    @cached_property
    def apex_core(self) -> SearchCore:
        """The forced check's core: the t-cliques of host + full apex
        bundle over the apex triples, the host coloring fixed."""
        fixed = {e: 1 << c for e, c in self.coloring.assignment.items()}
        core = _clique_core(augment_apex_pair(self)[0], self.t, 2, fixed)
        if core.variables != apex_bundle(self):  # an uncolored host edge would be one more variable
            raise ValueError("host coloring must color every host edge and no apex triple")
        return core


def build_partition_host(t: int) -> PartitionHost:
    """Host on (t-2)^2 grid vertices plus {a, b}, colored blue/red.

    Triples {u, v, w} with w in {a, b} are blue when u, v share a part
    and red otherwise.  Grid triples inside one part are blue, grid
    transversal triples (pairwise different parts) are red, and every
    other grid triple is a non-edge.
    """
    if t < 4:
        raise ValueError("host construction needs t >= 4")
    s = t - 2
    n = s * s
    a, b = n, n + 1
    parts = tuple(frozenset(range(i * s, (i + 1) * s)) for i in range(s))
    part_of = {v: i for i, p in enumerate(parts) for v in p}

    colors: dict[Edge, int] = {}
    for u, v in itertools.combinations(range(n), 2):
        col = BLUE if part_of[u] == part_of[v] else RED
        for w in (a, b):
            colors[(u, v, w)] = col
    for tri in itertools.combinations(range(n), 3):
        owners = {part_of[x] for x in tri}
        if len(owners) == 1:
            colors[tri] = BLUE
        elif len(owners) == 3:
            colors[tri] = RED
    h = Hypergraph(3, frozenset(range(n + 2)), frozenset(colors))
    coloring = EdgeColoring(2, colors)
    if check_free(h, coloring, t):
        raise AssertionError("prescribed host coloring is not free")
    return PartitionHost(t, h, parts, a, b, coloring)


def apex_bundle(host: PartitionHost) -> tuple[Edge, ...]:
    """The (t-2)^2 triples {a, b, u}, u ranging over the grid."""
    grid = sorted(v for p in host.parts for v in p)
    return tuple(canon_edge((u, host.a, host.b)) for u in grid)


def augment_apex_pair(host: PartitionHost) -> tuple[Hypergraph, tuple[Edge, ...]]:
    """Add the full apex bundle; returns (augmented hypergraph, bundle)."""
    bundle = apex_bundle(host)
    return host.h.plus_edges(bundle), bundle


def clique_count_formula(t: int) -> int:
    """(t-2) column cliques plus (t-2)^(t-2) transversal cliques."""
    if t < 4:
        raise ValueError("formula defined for t >= 4")
    return (t - 2) + (t - 2) ** (t - 2)


def count_host_cliques(host: PartitionHost) -> int:
    """t-cliques of the augmented host, cross-checked against the formula.

    Every clique must be a column or a transversal together with the
    apex pair; enumeration and formula disagreeing means the host is
    malformed, and that raises.
    """
    aug, _ = augment_apex_pair(host)
    found = len(enumerate_cliques(aug, host.t))
    expected = clique_count_formula(host.t)
    if found != expected:
        raise AssertionError(f"host has {found} cliques, formula says {expected}")
    return found


def forced_pattern_check(
    host: PartitionHost,
    apex_edges: Optional[Iterable[Iterable[int]]] = None,
    budget: Optional[int] = None,
) -> bool:
    """Does every 2-coloring of the apex edges complete a mono K_t?

    apex_edges, a set of apex triples, defaults to the full bundle.  The
    check solves host.apex_core, kept for the host's life, with the other
    apex triples off: the t-cliques of host + apex_edges are those of
    host + bundle avoiding them.  True exactly when no apex coloring
    avoids every constraint; a search needing more than budget
    decisions raises BudgetExceeded.
    """
    core = host.apex_core
    given = set(core.variables) if apex_edges is None else {canon_edge(e) for e in apex_edges}
    foreign = given.difference(core.variables)
    if foreign:
        raise ValueError(f"{min(foreign)!r} is not an apex triple of this host")
    res = core.solve(budget, off=[i for i, e in enumerate(core.variables) if e not in given])
    if res.found is None:
        raise BudgetExceeded(f"forced check exceeded {budget} nodes")
    return not res.found


@dataclass(frozen=True)
class ExtensionCertificate:
    """Free extension of a coloring to the edges through one pair.

    b_sets is the greedy packing of blue-spanning sets that decided
    which new edges went red; extended is the verified full coloring.
    """

    u: int
    v: int
    b_sets: tuple[frozenset[int], ...]
    extended: EdgeColoring


def extend_coloring_lower_bound(
    h: Hypergraph, u: int, v: int, c_partial: EdgeColoring, t: int
) -> ExtensionCertificate:
    """Extend a free coloring over the edges through {u, v}.

    Requires codegree(u, v) < (t-2)^2.  A set B of t-2 codegree
    neighbors is blue-spanning when every edge inside B + u or B + v is
    blue; new edges {u, v, w} turn red exactly for w inside the greedy
    packing of such sets.  A blue K_t through the pair would be a
    blue-spanning set the greedy missed; a red one would overlap some
    packed set twice, because fewer than t-2 sets fit below the
    codegree bound.  The result is re-verified and failure raises.

    Raises:
        ValueError: wrong uniformity, t below 2, codegree too large, or
            c_partial not a free coloring of h without the pair's edges.
        AssertionError: the extension failed verification.
    """
    if h.r != 3:
        raise ValueError("extension argument is 3-uniform")
    if c_partial.k != 2:
        raise ValueError("extension argument is 2-colored")
    if u not in h.vertices or v not in h.vertices or u == v:
        raise ValueError("need two distinct vertices of the hypergraph")
    if t < 2:
        raise ValueError(f"clique size t = {t} is below 2")
    s = t - 2
    nbhd = sorted(w for e in h.edges if u in e and v in e for w in e if w not in (u, v))
    if len(nbhd) >= s * s:
        raise ValueError(f"codegree {len(nbhd)} not below (t-2)^2 = {s * s}")
    rest = h.spanning_subgraph(h.edges - {canon_edge((u, v, w)) for w in nbhd})
    if check_free(rest, c_partial, t):
        raise ValueError("partial coloring is not free")

    def fine(*xs: int) -> bool:  # blue, or not an edge of h
        e = canon_edge(xs)
        return e not in h.edges or c_partial.assignment[e] == BLUE

    def pack(stack: list[int], cands: list[int]) -> bool:  # True: a set was packed, unwind to the root
        if len(stack) == s:
            chosen.append(frozenset(stack))
            used.update(stack)
            return True
        for i, w in enumerate(cands):  # increasing, so the sets come in lexicographic order
            nxt = [z for z in cands[i + 1:] if z not in used and all(fine(x, w, z) for x in (u, v, *stack))]
            if w not in used and len(nxt) >= s - len(stack) - 1 and pack([*stack, w], nxt) and stack:
                return True
        return False

    chosen: list[frozenset[int]] = []
    used: set[int] = set()
    pack([], nbhd)

    assignment = dict(c_partial.assignment)
    assignment.update((canon_edge((u, v, w)), RED if w in used else BLUE) for w in nbhd)
    extended = EdgeColoring(2, assignment)
    bad = check_free(h, extended, t)
    if bad:
        raise AssertionError(f"extension produced monochromatic cliques: {bad[:3]!r}")
    return ExtensionCertificate(u, v, tuple(chosen), extended)


@dataclass(frozen=True)
class CliqueExpectation:
    """Expected monochromatic cliques over a random apex coloring."""

    t: int
    value: Fraction
    lt_one: bool


def random_coloring_expectation(t: int) -> CliqueExpectation:
    """Exact expectation of mono cliques when apex triples get fair coins.

    Each of the (t-2) + (t-2)^(t-2) cliques of the augmented host goes
    monochromatic with probability 2^(1 - C(t,3)) under a uniform
    2-coloring of its C(t,3) edges, giving the closed form below.  A
    value below 1 certifies some apex coloring avoids all of them when
    only the cliques' own edges are at stake.
    """
    value = Fraction(clique_count_formula(t), 2 ** (comb(t, 3) - 1))
    return CliqueExpectation(t, value, value < 1)


def expectation_denominator_log2(t: int) -> int:
    """log2 of random_coloring_expectation(t)'s reduced denominator, found without building it.

    With m = t-2 the clique count is m(1 + m^(m-1)).  For odd m the second
    factor is an odd square plus one, 2 mod 8, so the count has one factor
    2; for even m it is odd, so the count has the factors 2 of m.
    """
    if t < 4:
        raise ValueError("formula defined for t >= 4")
    m = t - 2
    return comb(t, 3) - 1 - (1 if m % 2 else (m & -m).bit_length() - 1)
