"""Random hypergraph experiments: sampling, pruning, counting checks.

Every randomized routine takes an explicit integer seed and runs on
Python's Mersenne Twister, so runs are reproducible bit for bit; named
substreams are derived by hashing, never by reusing a generator.

The lab has three jobs: sample and prune families of random 3-graphs
into clique-free, pairwise edge-disjoint colorable layers; check the
counting bound that forces monochromatic cliques in complete pair
colorings; and report the parameter regime where the real construction
lives, which is far beyond anything samplable and therefore kept in
exact log2 form.
"""

from __future__ import annotations

import itertools
import math
import random
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import comb
from operator import itemgetter
from typing import Optional, Sequence, Union

try:
    # CPython's own blake2b, the object hashlib exports; importing hashlib would also load OpenSSL
    from _blake2 import blake2b
except ImportError:  # an interpreter built without it
    from hashlib import blake2b

from .colorengine import BudgetExceeded, EdgeColoring, SearchCore
from .hypercore import Edge, Hypergraph, enumerate_cliques

__all__ = [
    "derive_seed",
    "sample_h3",
    "sample_family",
    "random_complete_graph_coloring",
    "compute_bad_edges",
    "prune",
    "count_supported_cliques",
    "count_bad_supported",
    "property_b_toy_check",
    "FactBoundReport",
    "fact_count_bound",
    "QuantityCheck",
    "ExpectationReport",
    "expectation_report",
    "PaperScaleParams",
    "paper_scale_params",
]


def derive_seed(*parts: Union[str, int]) -> int:
    """Stable 64-bit substream seed from named parts.

    Hash-based so it is independent of PYTHONHASHSEED and identical
    across runs and platforms.
    """
    text = "/".join(str(p) for p in parts)
    digest = blake2b(text.encode("utf-8"), digest_size=8).digest()
    return int.from_bytes(digest, "big")


def sample_h3(n: int, p: float, seed: int) -> Hypergraph:
    """Binomial random 3-graph on vertices 0..n-1.

    Triples are visited in lexicographic order, each kept independently
    with probability p, so a seed pins down the hypergraph exactly.
    """
    if n < 0:
        raise ValueError("need a nonnegative vertex count")
    if not 0.0 <= p <= 1.0:
        raise ValueError("edge probability must lie in [0, 1]")
    draw = random.Random(seed).random
    edges = [tri for tri in itertools.combinations(range(n), 3) if draw() < p]
    return Hypergraph(3, frozenset(range(n)), frozenset(edges))


def sample_family(n: int, p: float, k: int, seed: int) -> tuple[Hypergraph, ...]:
    """k independent samples of sample_h3 on one vertex set, one per color."""
    if k < 1:
        raise ValueError("need at least one member")
    return tuple(sample_h3(n, p, derive_seed(seed, "member", i)) for i in range(k))


def random_complete_graph_coloring(n: int, k: int, seed: int) -> EdgeColoring:
    """Uniform k-coloring of the pairs of 0..n-1, lexicographic order."""
    if n < 2:
        raise ValueError("need at least two vertices")
    if k < 1:
        raise ValueError("need at least one color")
    # the draws randrange(k) makes: k.bit_length() random bits, again while the value is k or more
    bits, draw, colors = k.bit_length(), random.Random(seed).getrandbits, {}
    for pair in itertools.combinations(range(n), 2):
        c = draw(bits)
        while c >= k:
            c = draw(bits)
        colors[pair] = c + 1
    return EdgeColoring(k, colors)


def compute_bad_edges(family: Sequence[Hypergraph], t: int) -> tuple[frozenset[Edge], ...]:
    """Per member: edges inside a t-clique, plus edges shared with another member."""
    if not family:
        raise ValueError("empty family")
    verts = family[0].vertices
    for h in family:
        if h.r != 3:
            raise ValueError("family members must be 3-uniform")
        if h.vertices != verts:
            raise ValueError("family members must share one vertex set")
    out = []
    for i, h in enumerate(family):
        bad: set[Edge] = set()
        for q in enumerate_cliques(h, t):
            bad.update(itertools.combinations(q, 3))
        for j, other in enumerate(family):
            if j != i:
                bad.update(h.edges & other.edges)
        out.append(frozenset(bad))
    return tuple(out)


def prune(family: Sequence[Hypergraph], t: int) -> tuple[Hypergraph, ...]:
    """Drop every bad edge from every member, then verify the outcome.

    The pruned members are t-clique-free (each clique lost all of its
    edges) and pairwise edge-disjoint (shared edges left both sides), so
    coloring member i with color i is well defined and clique-free on
    the union.  Verification failure raises, it is not a soft warning.
    """
    bad = compute_bad_edges(family, t)
    pruned = tuple(h.spanning_subgraph(h.edges - bad[i]) for i, h in enumerate(family))
    for h in pruned:
        if enumerate_cliques(h, t):
            raise AssertionError("pruned member still has a clique")
    for x, y in itertools.combinations(pruned, 2):
        if x.edges & y.edges:
            raise AssertionError("pruned members still share an edge")
    return pruned


def count_supported_cliques(
    h: Hypergraph, pair_coloring: EdgeColoring, color: int, t: int
) -> int:
    """(t-1)-sets whose pairs are all one color and triples all edges of h.

    Such a set plus an apex vertex whose link carries pair_coloring is
    exactly a monochromatic K_t candidate in the layered construction.
    """
    if not 1 <= color <= pair_coloring.k:
        raise ValueError(f"color {color} outside 1..{pair_coloring.k}")
    found = 0
    for q in enumerate_cliques(h, t - 1):
        if all(pair_coloring.assignment[pq] == color for pq in itertools.combinations(q, 2)):
            found += 1
    return found


def count_bad_supported(
    family: Sequence[Hypergraph], pair_coloring: EdgeColoring, t: int
) -> int:
    """Supported cliques summed over members, member i in color i."""
    if len(family) != pair_coloring.k:
        raise ValueError("one member per color required")
    return sum(
        count_supported_cliques(h, pair_coloring, i, t)
        for i, h in enumerate(family, start=1)
    )


def property_b_toy_check(
    family: Sequence[Hypergraph], t: int, budget: Optional[int] = None
) -> bool:
    """Does every pair coloring support a clique in some member?

    The pairs of the shared vertex set are the search core's variables,
    colored 1..k for k members; each (t-1)-clique of member i is one
    constraint, its pairs not all of color i.  True means the core finds
    no coloring, so no coloring of an apex link could avoid a
    monochromatic clique.  A search needing more than budget decisions
    raises BudgetExceeded.
    """
    if not family:
        raise ValueError("empty family")
    pairs = list(itertools.combinations(sorted(family[0].vertices), 2))
    index = {pq: i for i, pq in enumerate(pairs)}
    constraints = [
        ([index[pq] for pq in itertools.combinations(q, 2)], 1 << i)
        for i, h in enumerate(family, start=1)
        for q in enumerate_cliques(h, t - 1)
    ]
    res = SearchCore(pairs, len(family), constraints).solve(budget)
    if res.found is None:
        raise BudgetExceeded(f"property B check exceeded {budget} nodes")
    return not res.found


# r_k(ell): R(3,3) = 6, and R(3,3,3) = 17 and R(4,4) = 18 (Greenwood & Gleason, Canad. J. Math. 7, 1955)
_RAMSEY = {(2, 3): 6, (3, 3): 17, (2, 4): 18}


@dataclass(frozen=True)
class FactBoundReport:
    """Monochromatic ell-clique counts of one pair coloring vs the bound."""

    n: int
    ell: int
    k: int
    r: int
    bound: Fraction
    counts: tuple[int, ...]
    best: int
    ok: bool


def _count_cliques(later: list[int], ell: int) -> int:
    """ell-cliques, ell >= 3, of the graph where bit v of later[u], u < v, marks an edge uv.

    ell >= 3 because every exact entry of _RAMSEY has ell >= 3.  A
    clique's first vertex u leaves the candidates later[u], all after u,
    and each further member v keeps those & later[v]; the last member's
    choices are one bit_count().  Triangles are counted here, without a
    call, larger cliques by _count_within on later[u].
    """
    total = 0
    for cands in later:
        if ell > 3:
            total += _count_within(later, cands, ell - 1)
            continue
        while cands:
            low = cands & -cands
            cands ^= low
            total += (cands & later[low.bit_length() - 1]).bit_count()
    return total


def _count_within(later: list[int], cands: int, need: int) -> int:
    """need-cliques among the vertices of cands, need >= 2."""
    total = 0
    while cands:
        low = cands & -cands
        cands ^= low
        nxt = cands & later[low.bit_length() - 1]
        total += nxt.bit_count() if need == 2 else _count_within(later, nxt, need - 1)
    return total


def fact_count_bound(psi: EdgeColoring, ell: int) -> FactBoundReport:
    """Check one complete pair coloring against the counting bound.

    Any k-coloring of the pairs of an n-set must have some color with at
    least n^ell / (k * r^ell) monochromatic ell-cliques, r being the
    exact k-color Ramsey number of K_ell: each r-subset contributes a
    monochromatic clique and no clique is counted too often.  r is read
    from _RAMSEY, whose entries all have ell >= 3; any other (k, ell)
    raises ValueError.  psi must color every pair of 0..n-1; n is derived
    from the keys.

    The domain is checked in bulk.  psi's keys are canonical edges
    (sorted tuples of distinct ids >= 0), so when all of them are pairs,
    n is the largest id plus one, and they are all the pairs of 0..n-1
    exactly when there are C(n, 2) of them.  Only when that test fails do
    the vertex scan and the pair scan run, to word the error.  The bound is
    cached per (n, ell, k, r), with the least clique count that meets it.

    Each color class becomes one list of later-neighbour bit masks, and
    its ell-cliques are counted by intersecting masks down to the last
    member, whose choices one bit_count() counts.
    """
    a = psi.assignment
    n = max(map(itemgetter(1), a)) + 1 if set(map(len, a)) == {2} else 0
    if len(a) != comb(n, 2):
        verts = {x for e in a for x in e}
        n = len(verts)
        if verts != set(range(n)):
            raise ValueError("pair coloring must live on vertices 0..n-1")
        want = comb(n, 2)
        if len(a) != want or any(len(e) != 2 for e in a):
            raise ValueError(f"need all {want} pairs of 0..{n - 1} colored")
    k = psi.k
    r = _RAMSEY.get((k, ell))
    if r is None:
        raise ValueError(f"no exact Ramsey entry for k={k}, ell={ell}")
    if n < r:
        raise ValueError(f"bound needs n >= {r}: no {r}-subset exists below that")
    bound, need = _fact_bound(n, ell, k, r)
    # one adjacency mask list per color: bit v of later[c - 1][u], u < v, when uv has color c
    later = [[0] * n for _ in range(k)]
    for (u, v), c in a.items():
        later[c - 1][u] |= 1 << v
    counts = tuple([_count_cliques(row, ell) for row in later])
    best = max(counts)
    return FactBoundReport(n, ell, k, r, bound, counts, best, best >= need)


@lru_cache(maxsize=256)
def _fact_bound(n: int, ell: int, k: int, r: int) -> tuple[Fraction, int]:
    """The bound n^ell / (k r^ell), and the least clique count that meets it."""
    bound = Fraction(n**ell, k * r**ell)
    return bound, math.ceil(bound)


@dataclass(frozen=True)
class QuantityCheck:
    name: str
    observed: float
    expected: float
    se: float
    ok: bool


@dataclass(frozen=True)
class ExpectationReport:
    n: int
    p: float
    t: int
    k: int
    trials: int
    checks: tuple[QuantityCheck, ...]
    ok: bool


def _mc_check(name: str, values: list[float], expected: float) -> QuantityCheck:
    trials = len(values)
    mean = sum(values) / trials
    var = sum((x - mean) ** 2 for x in values) / (trials - 1)
    se = math.sqrt(var / trials)
    if se == 0.0:
        ok = mean == expected
    else:
        ok = abs(mean - expected) <= 4.0 * se
    return QuantityCheck(name, mean, expected, se, ok)


def expectation_report(
    n: int, p: float, t: int, k: int, trials: int, seed: int
) -> ExpectationReport:
    """Monte Carlo sanity check of three first moments of the sampler.

    Per trial a fresh k-member family is sampled; the observed edge
    count of member 0, shared edge count of members 0 and 1, and
    t-clique count of member 0 are averaged over all trials and must
    land within four standard errors of C(n,3)p, C(n,3)p^2 and
    C(n,t)p^C(t,3) respectively.
    """
    if k < 2:
        raise ValueError("need at least two members to observe sharing")
    if trials < 30:
        raise ValueError("need at least 30 trials for a standard error")
    if t < 3:
        raise ValueError("clique size must be at least 3")
    edges: list[float] = []
    shared: list[float] = []
    cliques: list[float] = []
    for j in range(trials):
        fam = sample_family(n, p, k, derive_seed(seed, "trial", j))
        edges.append(float(fam[0].num_edges))
        shared.append(float(len(fam[0].edges & fam[1].edges)))
        cliques.append(float(len(enumerate_cliques(fam[0], t))))
    checks = (
        _mc_check("edges", edges, comb(n, 3) * p),
        _mc_check("shared-edges", shared, comb(n, 3) * p**2),
        _mc_check("cliques", cliques, comb(n, t) * p ** comb(t, 3)),
    )
    return ExpectationReport(n, p, t, k, trials, checks, all(c.ok for c in checks))


@dataclass(frozen=True)
class PaperScaleParams:
    """Construction parameters at true scale, in exact base-2 logarithms.

    The vertex count, probability and clique budget are far outside
    machine range (log2 n is in the thousands already for k=2, t=4), so
    n, p and C stay None and only f, the per-vertex failure allowance,
    is materialized as an exact Fraction.
    """

    k: int
    t: int
    log2_n: Fraction
    log2_C: Fraction
    log2_p: Fraction
    log2_f: Fraction
    f: Fraction
    n: Optional[int] = None
    p: Optional[Fraction] = None
    C: Optional[Fraction] = None


def paper_scale_params(k: int, t: int) -> PaperScaleParams:
    """Exponents of the random construction's parameter choices."""
    if k < 2:
        raise ValueError("need at least two colors")
    if t < 4:
        raise ValueError("need t >= 4")
    log_n = Fraction(10 * k * t**4)
    log_c = Fraction(100 * k, t)
    log_p = log_c - Fraction(60 * k * t**4, (t - 1) * (t - 2))
    log_f = Fraction(-k * t**2)
    f = Fraction(1, 2 ** (k * t**2))
    return PaperScaleParams(k, t, log_n, log_c, log_p, log_f, f)
