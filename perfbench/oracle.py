"""Independent checker for the benchmark; it shares no code with ramsey3.

Everything here works on plain data: an edge is a tuple of ints, a
colouring is a dict from sorted edge tuples to colours 1..k.  A function
that judges a program output returns None when the output is right and a
one-line reason when it is wrong.
"""

from __future__ import annotations

import itertools
import random
from collections import defaultdict
from fractions import Fraction
from math import comb
from typing import Iterable, Mapping, Optional

Edge = tuple[int, ...]

# r(3, 3) = 6: every 2-colouring of the pairs of a 6-set has a
# monochromatic triangle, and some colouring of K_5 has none.
R33 = 6


def canon(e: Iterable[int]) -> Edge:
    return tuple(sorted(int(v) for v in e))


def cliques(r: int, edges: Iterable[Iterable[int]], t: int) -> list[Edge]:
    """All t-sets whose r-subsets are all edges, sorted.

    Grows each clique upwards from its smallest edge, keeping only the
    vertices above the current top that close an edge with every
    (r-1)-subset already chosen, so the cost follows the edges, not n^t.
    """
    if r not in (2, 3) or t < r:
        raise ValueError("cliques: uniformity 2 or 3 and t >= r")
    es = {canon(e) for e in edges}
    out: list[Edge] = []
    if r == 2:
        nbr: dict[int, set[int]] = defaultdict(set)
        for a, b in es:
            nbr[a].add(b)
            nbr[b].add(a)

        def grow2(q: list[int], cand: set[int]) -> None:
            if len(q) == t:
                out.append(tuple(q))
                return
            for w in sorted(cand):
                q.append(w)
                grow2(q, {u for u in cand if u > w and u in nbr[w]})
                q.pop()

        for a, b in sorted(es):
            grow2([a, b], {u for u in nbr[a] & nbr[b] if u > b})
        return sorted(out)

    third: dict[tuple[int, int], set[int]] = defaultdict(set)
    for a, b, c in es:
        third[(a, b)].add(c)
        third[(a, c)].add(b)
        third[(b, c)].add(a)

    def grow3(q: list[int], cand: set[int]) -> None:
        if len(q) == t:
            out.append(tuple(q))
            return
        for w in sorted(cand):
            keep = {u for u in cand if u > w}
            for x in q:
                keep &= third.get((x, w), set())
            q.append(w)
            grow3(q, keep)
            q.pop()

    for a, b, c in sorted(es):
        cand = {u for u in third[(a, b)] & third[(a, c)] & third[(b, c)] if u > c}
        grow3([a, b, c], cand)
    return sorted(out)


def brute_cliques(r: int, vertices: Iterable[int], edges: Iterable[Iterable[int]], t: int) -> list[Edge]:
    """Subset scan: every t-subset of the vertices, kept when all r-subsets are edges."""
    es = {canon(e) for e in edges}
    return [
        q
        for q in itertools.combinations(sorted(vertices), t)
        if all(s in es for s in itertools.combinations(q, r))
    ]


def colouring_problem(
    r: int, edges: Iterable[Iterable[int]], colouring: Mapping, t: int, k: int
) -> Optional[str]:
    """None when colouring is a total k-colouring of edges with no monochromatic t-clique."""
    es = {canon(e) for e in edges}
    col = {canon(e): c for e, c in colouring.items()}
    if len(col) != len(colouring) or set(col) != es:
        return f"colouring covers {len(set(col) & es)} of {len(es)} edges plus {len(set(col) - es)} non-edges"
    for e, c in col.items():
        if isinstance(c, bool) or not isinstance(c, int) or not 1 <= c <= k:
            return f"edge {e} has colour {c!r}, outside 1..{k}"
    for q in cliques(r, es, t):
        cs = {col[s] for s in itertools.combinations(q, r)}
        if len(cs) == 1:
            return f"clique {q} is monochromatic in colour {cs.pop()}"
    return None


def find_free_colouring(r: int, edges: Iterable[Iterable[int]], t: int, k: int) -> Optional[dict]:
    """A k-colouring of edges with no monochromatic t-clique, or None if none exists.

    Exhaustive backtracking over the edges that lie in some t-clique (all
    other edges get colour 1); a clique is tested when its last edge is
    coloured, and the first edge is fixed to colour 1 by colour symmetry.
    """
    es = sorted({canon(e) for e in edges})
    qs = cliques(r, es, t)
    involved = sorted({s for q in qs for s in itertools.combinations(q, r)})
    pos = {e: i for i, e in enumerate(involved)}
    closing: dict[int, list[list[int]]] = defaultdict(list)
    for q in qs:
        idx = [pos[s] for s in itertools.combinations(q, r)]
        closing[max(idx)].append(idx)
    colour = [0] * len(involved)

    def place(i: int) -> bool:
        if i == len(involved):
            return True
        for c in range(1, (k if i else 1) + 1):
            colour[i] = c
            if all(any(colour[j] != c for j in idx) for idx in closing[i]) and place(i + 1):
                return True
        colour[i] = 0
        return False

    if not place(0):
        return None
    out = {e: 1 for e in es}
    out.update(zip(involved, colour))
    return out


def minimal_arrowing_problem(r: int, edges: Iterable[Iterable[int]], t: int, k: int) -> Optional[str]:
    """None when every k-colouring has a monochromatic t-clique and no single-edge deletion keeps that."""
    es = {canon(e) for e in edges}
    if find_free_colouring(r, es, t, k) is not None:
        return "the hypergraph has a free colouring, so it does not arrow"
    for e in sorted(es):
        witness = find_free_colouring(r, es - {e}, t, k)
        if witness is None:
            return f"deleting {e} still arrows, so it is not minimal"
        if colouring_problem(r, es - {e}, witness, t, k) is not None:
            return "the checker's own witness failed its verifier"
    return None


# ------------------------------------------------------------ partition host


def partition_host(t: int, parts: list[list[int]], a: int, b: int) -> dict[Edge, int]:
    """The partition host with its colouring, from its definition: 1 blue, 2 red.

    {u, v, w} with w in {a, b} is blue when u, v share a part and red
    otherwise; grid triples inside one part are blue, triples meeting
    three parts are red, and no other triple is an edge.
    """
    part_of = {v: i for i, p in enumerate(parts) for v in p}
    grid = sorted(part_of)
    want: dict[Edge, int] = {}
    for u, v in itertools.combinations(grid, 2):
        for w in (a, b):
            want[canon((u, v, w))] = 1 if part_of[u] == part_of[v] else 2
    for tri in itertools.combinations(grid, 3):
        owners = {part_of[x] for x in tri}
        if len(owners) == 1:
            want[tri] = 1
        elif len(owners) == 3:
            want[tri] = 2
    return want


def host_problem(t: int, parts, a: int, b: int, edges, colouring: Mapping) -> Optional[str]:
    """None when (edges, colouring) is the partition host on these parts and its K_t count is right."""
    s = t - 2
    parts = [sorted(int(v) for v in p) for p in parts]
    grid = [v for p in parts for v in p]
    if len(parts) != s or any(len(p) != s for p in parts) or len(set(grid)) != s * s:
        return f"parts are not {s} disjoint sets of {s}"
    if a == b or {a, b} & set(grid):
        return "reserved pair overlaps the grid"
    want = partition_host(t, parts, a, b)
    es = {canon(e) for e in edges}
    if es != set(want):
        return f"host has {len(es)} edges, the definition gives {len(want)}"
    col = {canon(e): c for e, c in colouring.items()}
    swapped = {e: 3 - c for e, c in want.items()}
    if col != want and col != swapped:
        return "host colouring differs from the definition"
    if any(a in e and b in e for e in es):
        return "reserved pair has positive codegree"
    aug = es | {canon((u, a, b)) for u in grid}
    found = len(cliques(3, aug, t))
    if found != s + s**s:
        return f"augmented host has {found} K_{t}s, (t-2)+(t-2)^(t-2) = {s + s**s}"
    return None


def forced_by_brute(t: int, colouring: Mapping, apex_edges: Iterable[Iterable[int]]) -> bool:
    """True when every 2-colouring of apex_edges completes a monochromatic K_t."""
    col = {canon(e): c for e, c in colouring.items()}
    apex = [canon(e) for e in apex_edges]
    bit = {e: i for i, e in enumerate(apex)}
    full = (1 << len(apex)) - 1
    # per clique: apex bitmask and the colours of its host edges
    constraints = []
    for q in cliques(3, set(col) | set(apex), t):
        mask, fixed = 0, set()
        for s in itertools.combinations(q, 3):
            if s in bit:
                mask |= 1 << bit[s]
            else:
                fixed.add(col[s])
        if len(fixed) <= 1:
            constraints.append((mask, fixed))
    for x in range(full + 1):  # bit set: that apex edge gets colour 1
        if not any(
            ((x & mask) == mask and fixed <= {1}) or ((x & mask) == 0 and fixed <= {2})
            for mask, fixed in constraints
        ):
            return False
    return True


# ------------------------------------------------------------------ gadgets


def bel_problem(host_edges, n_h: int, doc: Mapping, rainbow_n: int, far_n: int) -> Optional[str]:
    """None when a BEL carrier document keeps the properties the construction promises.

    The host keeps vertices 0..n_h-1 and exactly its induced edges, no host
    pair of codegree zero gains an edge, the vertex count is
    n_h + |V(rainbow)| + |E(host)| * (|V(far)| - 6), and every new vertex
    has codegree zero with some host vertex.
    """
    n = doc.get("n")
    if doc.get("r") != 3 or not isinstance(n, int):
        return "carrier is not a 3-uniform document"
    host = {canon(e) for e in host_edges}
    want_n = n_h + rainbow_n + len(host) * (far_n - 6)
    if n != want_n:
        return f"carrier has {n} vertices, expected {want_n}"
    edges = [canon(e) for e in doc.get("edges", [])]
    if any(len(set(e)) != 3 or e[0] < 0 or e[2] >= n for e in edges):
        return "carrier has a malformed edge"
    es = set(edges)
    if {e for e in es if e[2] < n_h} != host:
        return "host induced edges changed"
    co: dict[tuple[int, int], int] = defaultdict(int)
    touches: dict[int, set[int]] = defaultdict(set)
    for e in es:
        for x, y in itertools.combinations(e, 2):
            co[(x, y)] += 1
            if x < n_h <= y:
                touches[y].add(x)
    host_co = {p for e in host for p in itertools.combinations(e, 2)}
    for p in itertools.combinations(range(n_h), 2):
        if p not in host_co and co.get(p):
            return f"host pair {p} had codegree zero and now has {co[p]}"
    for w in range(n_h, n):
        if len(touches[w]) == n_h:
            return f"new vertex {w} has positive codegree with every host vertex"
    tags = doc.get("tags", {})
    for e in tags.get("rainbow", []):
        if canon(e) not in es:
            return f"rainbow tag {e} is not an edge"
    return None


def moved_edge(host_edges, n_h: int, doc: Mapping, rng: random.Random) -> dict:
    """Copy of a carrier document with one non-host edge moved onto a codegree-zero host pair."""
    host = {canon(e) for e in host_edges}
    host_co = {p for e in host for p in itertools.combinations(e, 2)}
    free_pairs = [p for p in itertools.combinations(range(n_h), 2) if p not in host_co]
    edges = [canon(e) for e in doc["edges"]]
    outer = [i for i, e in enumerate(edges) if e[2] >= n_h]
    i = rng.choice(outer)
    u, v = rng.choice(free_pairs)
    w = rng.choice([x for x in edges[i] if x >= n_h])
    edges[i] = canon((u, v, w))
    return dict(doc, edges=[list(e) for e in edges])


def line_distance(edges: Iterable[Iterable[int]], e: Iterable[int], f: Iterable[int]) -> Optional[int]:
    """Fewest steps between edges e and f, a step joining two edges that share a vertex."""
    es = {canon(x) for x in edges}
    by_vertex: dict[int, list[Edge]] = defaultdict(list)
    for x in es:
        for v in x:
            by_vertex[v].append(x)
    start, goal = canon(e), canon(f)
    seen, frontier, steps = {start}, [start], 0
    while frontier:
        if goal in seen:
            return steps
        nxt = []
        for x in frontier:
            for v in x:
                for y in by_vertex[v]:
                    if y not in seen:
                        seen.add(y)
                        nxt.append(y)
        frontier, steps = nxt, steps + 1
    return None


def distance_problem(edges, e, f, claimed) -> Optional[str]:
    """None when a claimed interval path distance fits bounds checked here.

    A path of m edges on a line spans at least m + 2 vertices, all distinct,
    so 3 + (fewest steps between e and f) <= distance <= number of vertices
    on the path.
    """
    steps = line_distance(edges, e, f)
    if steps is None:
        return None if claimed is None else f"distance {claimed} between disconnected edges"
    nverts = len({v for x in edges for v in x})
    if claimed is None or not 3 + steps <= claimed <= nverts:
        return f"distance {claimed} outside [{3 + steps}, {nverts}]"
    return None


# ---------------------------------------------------------------- lab checks


def prune_problem(members_in: list[set[Edge]], members_out: list[set[Edge]], t: int) -> Optional[str]:
    """None when each pruned member is its original minus its recomputed bad edges."""
    if len(members_in) != len(members_out):
        return "prune changed the number of members"
    for i, es in enumerate(members_in):
        bad = {s for q in cliques(3, es, t) for s in itertools.combinations(q, 3)}
        for j, other in enumerate(members_in):
            if j != i:
                bad |= es & other
        if members_out[i] != es - bad:
            return f"member {i}: {len(members_out[i] ^ (es - bad))} edges differ from original minus bad edges"
        if cliques(3, members_out[i], t):
            return f"member {i} still has a K_{t}"
    for x, y in itertools.combinations(members_out, 2):
        if x & y:
            return "pruned members share an edge"
    return None


def mono_counts(n: int, k: int, colour_of: Mapping, ell: int) -> list[int]:
    """Monochromatic ell-cliques of K_n per colour, for a colouring of its pairs."""
    counts = [0] * k
    for q in itertools.combinations(range(n), ell):
        cs = {colour_of[p] for p in itertools.combinations(q, 2)}
        if len(cs) == 1:
            counts[cs.pop() - 1] += 1
    return counts


def fact_report_problem(rep, n: int, k: int, counts: list[int]) -> Optional[str]:
    """None when a 2-colour, ell=3 counting-bound report matches recomputed counts and meets its bound."""
    bound = Fraction(n**3, k * R33**3)
    if (rep.n, rep.ell, rep.k, rep.r) != (n, 3, k, R33):
        return f"report is for n={rep.n}, ell={rep.ell}, k={rep.k}, r={rep.r}"
    if list(rep.counts) != counts:
        return f"counts {list(rep.counts)}, recomputed {counts}"
    if rep.bound != bound or rep.best != max(counts):
        return f"bound {rep.bound} / best {rep.best}, expected {bound} / {max(counts)}"
    if not (rep.ok and max(counts) >= bound):
        return f"best {max(counts)} misses the bound {bound}"
    return None


def property_b(n: int, members: list[set[Edge]], t: int) -> bool:
    """Does every 2-colouring of the pairs of 0..n-1 support a clique in some member?

    Member i has colour i + 1; a (t-1)-clique of member i is supported when
    all its pairs have colour i + 1.  Colourings are bitmasks over the
    pairs, a set bit meaning colour 2.
    """
    if len(members) != 2:
        raise ValueError("property_b: two members")
    pos = {p: i for i, p in enumerate(itertools.combinations(range(n), 2))}
    masks = []
    for es in members:
        ms = []
        for q in cliques(3, es, t - 1):
            m = 0
            for p in itertools.combinations(q, 2):
                m |= 1 << pos[p]
            ms.append(m)
        masks.append(ms)
    blue, red = masks
    for x in range(1 << len(pos)):
        if not any(x & m == 0 for m in blue) and not any(x & m == m for m in red):
            return False
    return True


def expectation_problem(rep, n: int, p: float, t: int, k: int, trials: int) -> Optional[str]:
    """None when a Monte Carlo report is consistent with its exact first moments and its own verdicts."""
    exact = {
        "edges": (comb(n, 3) * p, comb(n, 3)),
        "shared-edges": (comb(n, 3) * p**2, comb(n, 3)),
        "cliques": (comb(n, t) * p ** comb(t, 3), comb(n, t)),
    }
    if (rep.n, rep.t, rep.k, rep.trials) != (n, t, k, trials) or rep.p != p:
        return "report parameters differ from the request"
    if sorted(c.name for c in rep.checks) != sorted(exact):
        return f"report checks {[c.name for c in rep.checks]}"
    for c in rep.checks:
        mean, top = exact[c.name]
        if abs(c.expected - mean) > 1e-9 * max(1.0, mean):
            return f"{c.name}: expected {c.expected}, exact value {mean}"
        if not 0 <= c.observed <= top or c.se < 0:
            return f"{c.name}: observed {c.observed} with se {c.se} is impossible"
        within = c.observed == c.expected if c.se == 0 else abs(c.observed - c.expected) <= 4 * c.se
        if c.ok != within:
            return f"{c.name}: verdict {c.ok} contradicts observed {c.observed} +- {c.se}"
    if rep.ok != all(c.ok for c in rep.checks):
        return "overall verdict contradicts the per-check verdicts"
    return None


# ----------------------------------------------------------------- self-test


def self_test(seed: int) -> Optional[str]:
    """Check the checker: None when it passes.

    The clique finder must agree with a subset scan on small seeded
    hypergraphs, the colouring verifier must reject a planted
    monochromatic clique, and the free-colouring search must settle
    r(3, 3) = 6 both ways.
    """
    rng = random.Random(f"oracle/{seed}")
    planted = 0
    for trial in range(40):
        r = 2 + trial % 2
        n = rng.randint(r + 2, 9)
        edges = [e for e in itertools.combinations(range(n), r) if rng.random() < rng.choice((0.4, 0.7, 0.9))]
        for t in range(r, min(n, r + 3) + 1):
            qs = cliques(r, edges, t)
            if qs != brute_cliques(r, range(n), edges, t):
                return f"clique finder disagrees with the subset scan (r={r}, n={n}, t={t})"
            if t > r and qs:
                colouring = {canon(e): rng.randint(1, 2) for e in edges}
                q, c = rng.choice(qs), rng.randint(1, 2)
                colouring.update({s: c for s in itertools.combinations(q, r)})
                if colouring_problem(r, edges, colouring, t, 2) is None:
                    return f"verifier accepted the planted monochromatic clique {q}"
                planted += 1
    if planted < 10:
        return f"only {planted} planted cliques were tried"
    k5 = list(itertools.combinations(range(R33 - 1), 2))
    witness = find_free_colouring(2, k5, 3, 2)
    if witness is None or colouring_problem(2, k5, witness, 3, 2) is not None:
        return "no verified free 2-colouring of K_5"
    if minimal_arrowing_problem(2, itertools.combinations(range(R33), 2), 3, 2) is not None:
        return "K_6 not confirmed as minimal for triangles in two colours"
    return None
