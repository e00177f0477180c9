"""Gadget constructions: senders, rainbow stars, equalizers, BEL assembly.

A sender is a hypergraph with two tagged edges e, f whose colors are
coupled in every coloring free of monochromatic K_t: a negative sender
forces different colors, a positive one (equalizer) forces equal colors.
Chaining equalizers pushes the tagged edges arbitrarily far apart, and
the BEL assembly uses such far-apart equalizers to pin the coloring of
a whole target hypergraph up to a permutation of the colors.

The builders here are structural: they produce the right vertex and
edge sets, tag the distinguished pieces in a TaggedGadget (whose JSON
methods are the one mapping between its fields and a document's tags),
and verify the postconditions that are checkable at small scale.  Each
is a composition of the shared layers: senders, rainbows, equalizers,
chains and the BEL carrier are copies of smaller gadgets placed by
hypercore.glue (a sender is one F_ell copy per edge of H*), and
find_ell answers every F_ell on one colorengine search core over K_m.
The coloring-forcing power of a real sender needs hosts far beyond
exhaustive reach, so the test surface substitutes miniature stand-ins
(see mock_sender) whose tags have the same shape.
"""

from __future__ import annotations

import dataclasses
import itertools
from collections import defaultdict
from dataclasses import dataclass
from math import inf
from typing import Iterable, Mapping, Optional

from .colorengine import EdgeColoring, PatternSet, _clique_core, admissible_vertex_coloring, check_free
from .hypercore import (
    Edge,
    Hypergraph,
    _TAG_KINDS,
    _map_tags,
    brief,
    canon_edge,
    codegree,
    distance_lower_bound,
    enumerate_cliques,
    from_json_dict,
    glue,
    induced,
    is_linear,
    path_distance,
    to_json_dict,
    vertex_ids,
)

__all__ = [
    "TaggedGadget",
    "mock_sender",
    "build_F_prime",
    "build_F_ell",
    "find_ell",
    "build_Hstar",
    "assemble_signal_sender",
    "verify_clique_block_cover",
    "build_rainbow",
    "build_equalizer",
    "build_far_seed",
    "amplify_distance",
    "build_BEL",
    "attach_apex",
]

# document tag -> TaggedGadget field, in the order documents list the tags
_TAG_FIELDS = {tag: "s_pair" if tag == "S" else tag for tag in _TAG_KINDS}


@dataclass(frozen=True)
class TaggedGadget:
    """A hypergraph with distinguished structure, written as a tagged document.

    Each field but h and blocks is one tag, named like the field except
    s_pair, whose tag is "S" (_TAG_FIELDS); unset tags are left out.  One
    table, hypercore._TAG_KINDS, fixes each tag's kind and the document
    order; the constructor reads the tags through it by vertex_ids' rule
    and keeps every vertex set sorted.

    e, f: the coupled edge pair of a sender or equalizer.
    rainbow: the star edges of a rainbow gadget, in color order.
    s_pair: the shared vertex pair of the star or special bundle.
    a, b: distinguished vertices (e.g. the separated pair of H*).
    apex: vertex added by attach_apex.
    dist: a checked lower bound on path_distance(h, e, f): the tags of an
        amplify_distance result sit at distance at least dist.  No builder
        trusts it; build_BEL computes its own bound.
    blocks: vertex sets of the sender building blocks; not serialized.
    """

    h: Hypergraph
    e: Optional[Edge] = None
    f: Optional[Edge] = None
    rainbow: tuple[Edge, ...] = ()
    s_pair: Optional[tuple[int, int]] = None
    a: Optional[int] = None
    b: Optional[int] = None
    apex: Optional[int] = None
    dist: Optional[int] = None
    blocks: tuple[frozenset[int], ...] = ()

    def __post_init__(self) -> None:
        for tag, val in _map_tags(self.tags(), vertex_ids).items():
            object.__setattr__(self, _TAG_FIELDS[tag], val)
        if self.s_pair is not None and (len(self.s_pair) != 2 or self.s_pair[0] == self.s_pair[1]):
            raise ValueError(f"s_pair must be two distinct vertices, got {brief(self.s_pair)}")
        for tag, val in (("e", self.e), ("f", self.f), *(("rainbow", e) for e in self.rainbow)):
            if val is not None and val not in self.h.edges:
                raise ValueError(f"tag {tag}={brief(val)} is not an edge of the gadget")
        verts = self.h.vertices
        for tag, val in (("a", self.a), ("b", self.b), ("apex", self.apex), *(("S", v) for v in self.s_pair or ())):
            if val is not None and val not in verts:
                raise ValueError(f"tag {tag}={brief(val)} is not a vertex of the gadget")
        for blk in self.blocks:
            if not blk <= verts:
                raise ValueError("block outside the vertex set")

    def tags(self) -> dict:
        """The document's tags: each set field but h and blocks, under its tag name."""
        tags = {tag: getattr(self, name) for tag, name in _TAG_FIELDS.items()}
        return {tag: val for tag, val in tags.items() if val not in (None, ())}

    def to_json_dict(self) -> dict:
        return to_json_dict(self.h, self.tags())

    @classmethod
    def from_json_dict(cls, doc: Mapping[str, object]) -> "TaggedGadget":
        h, tags = from_json_dict(doc)
        return cls(h, **{name: tags[tag] for tag, name in _TAG_FIELDS.items() if tag in tags})


def mock_sender() -> TaggedGadget:
    """Two triples through a shared pair: the smallest sender-shaped object.

    Carries no forcing power; it exists so the assembly layer can be
    exercised exhaustively at toy scale.
    """
    h = Hypergraph.build(3, [(0, 1, 2), (0, 1, 3)])
    return TaggedGadget(h=h, e=(0, 1, 2), f=(0, 1, 3), s_pair=(0, 1), a=2, b=3)


def _special_bundle(m: int, r: int) -> list[Edge]:
    """Edges of K_m^(r) through the pair {m-2, m-1}, sorted."""
    if r not in (2, 3):
        raise ValueError("only uniformity 2 and 3 are supported")
    if m < r + 1:
        raise ValueError(f"need at least {r + 1} vertices")
    if r == 2:
        return [(m - 2, m - 1)]
    return sorted((w, m - 2, m - 1) for w in range(m - 2))


def build_F_prime(m: int, r: int = 3) -> TaggedGadget:
    """Complete r-graph on m vertices minus every edge through one pair.

    The removed bundle sits on the special pair (m-2, m-1), recorded in
    the s_pair tag.
    """
    full = Hypergraph.complete(m, r)
    h = full.spanning_subgraph(full.edges - set(_special_bundle(m, r)))
    return TaggedGadget(h=h, s_pair=(m - 2, m - 1))


def build_F_ell(m: int, ell: int, r: int = 3) -> TaggedGadget:
    """F_prime with the first ell special edges put back (lexicographic)."""
    bundle = _special_bundle(m, r)
    if not 0 <= ell <= len(bundle):
        raise ValueError(f"ell must lie in 0..{len(bundle)}")
    base = build_F_prime(m, r)
    return dataclasses.replace(base, h=base.h.plus_edges(bundle[:ell]))


def find_ell(
    m: int, t: int, k: int, r: int = 3, budget: Optional[int] = None
) -> Optional[int]:
    """Largest ell for which F_ell still has a free coloring.

    Only meaningful when m is exactly the k-color Ramsey number of K_t:
    below it even the complete hypergraph fails to arrow, above it
    F_prime already arrows.  Both misuses raise.  Returns None when the
    node budget ran out before the scan settled.  One search core over
    K_m^(r) answers every F_ell with the special edges past ell off.
    """
    bundle = _special_bundle(m, r)
    core = _clique_core(Hypergraph.complete(m, r), t, k)
    special = [core.variables.index(e) for e in bundle]

    def free(ell: int) -> Optional[bool]:
        return core.solve(budget, off=special[ell:]).found

    full = free(len(special))
    if full is None:
        return None
    if full:
        raise ValueError("m below r_k: the complete hypergraph does not arrow")
    base = free(0)
    if base is None:
        return None
    if not base:
        raise ValueError("m above r_k: F_prime arrows even without special edges")
    for ell in range(len(special) - 1):
        step = free(ell + 1)
        if step is None:
            return None
        if not step:
            return ell
    return len(special) - 1  # F_{len} is K_m, which arrows


def build_Hstar(h0: Hypergraph, ps: PatternSet, k: int) -> tuple[Hypergraph, int, int]:
    """Auxiliary hypergraph whose admissible colorings separate two vertices.

    Input: an ell-uniform, linear h0 with NO admissible vertex coloring
    for the pattern set.  One edge of an edge-minimal subhypergraph is
    peeled onto fresh vertices one position at a time; the first step
    where admissible colorings appear yields H* together with vertices
    x (old) and y (fresh) such that every admissible coloring gives x
    and y different colors: coloring them equal and identifying them
    would color the previous, uncolorable step.

    Returns (hstar, x, y).
    """
    if ps.k != k:
        raise ValueError("pattern set built for a different number of colors")
    if h0.r != ps.ell:
        raise ValueError(f"patterns describe {ps.ell}-edges, hypergraph is {h0.r}-uniform")
    if not ps.patterns:
        raise ValueError("empty pattern set admits nothing")
    if not is_linear(h0):
        raise ValueError("input must be linear")
    if not h0.edges:
        raise ValueError("input has no edges")
    if admissible_vertex_coloring(h0, ps) is not None:
        raise ValueError("input already has an admissible coloring")

    # no-admissible-coloring is preserved by adding edges, so one greedy
    # pass in lexicographic order leaves an edge-minimal witness
    cur = h0
    for g in sorted(h0.edges):
        if len(cur.edges) == 1:
            break
        trial = cur.minus_edge(g)
        if admissible_vertex_coloring(trial, ps) is None:
            cur = trial
    support = {v for g in cur.edges for v in g}
    cur = Hypergraph.build(cur.r, cur.edges, vertices=support)

    ell = cur.r
    f = min(sorted(cur.edges))
    xs = list(f)
    base = max(cur.vertices) + 1
    ys = list(range(base, base + ell))
    rest = [g for g in sorted(cur.edges) if g != f]
    for i in range(1, ell + 1):
        fi = tuple(sorted(ys[:i] + xs[i:]))
        hi = Hypergraph.build(ell, rest + [fi])
        if admissible_vertex_coloring(hi, ps) is not None:
            x, y = xs[i - 1], ys[i - 1]
            if x not in hi.vertices:
                raise AssertionError("separated vertex fell out of the edge support")
            if any(x in g and y in g for g in hi.edges):
                raise AssertionError("separated pair shares an edge")
            if not is_linear(hi):
                raise AssertionError("peeling broke linearity")
            return hi, x, y
    raise AssertionError("fully peeled edge must admit a coloring; pattern set is inconsistent")


def assemble_signal_sender(hstar: Hypergraph, x: int, y: int, m: int) -> TaggedGadget:
    """Sender glued from one copy of F_ell per edge of H*.

    ell is H*'s uniformity.  H*'s vertices become 0..nv-1 in sorted
    order and the fresh shared pair is (p1, p2) = (nv, nv+1).  The copy
    for the j-th sorted edge g puts its special pair on (p1, p2) and its
    vertices 0..ell-1 on g; its m - 2 - ell private vertices get the ids
    from nv + 2 + j * (m - 2 - ell) on, which glue's dense id rule assigns.
    So each block is a complete 3-graph on {p1, p2} + g + its privates,
    minus the triples {p1, p2, private}.  The surviving triples through
    the shared pair encode a vertex coloring of H* whose per-edge
    patterns are forced into the pattern set of F_ell, and every such
    coloring separates x from y, coupling e = {p1, p2, x} and
    f = {p1, p2, y}.  F_ell needs m >= 4.
    """
    ell = hstar.r
    if m < ell + 2:
        raise ValueError("m too small to host the shared pair plus one edge")
    if x not in hstar.vertices or y not in hstar.vertices:
        raise ValueError("vertex not in hypergraph")
    if not is_linear(hstar):
        raise ValueError("H* must be linear")
    if not any(x in g for g in hstar.edges) or not any(y in g for g in hstar.edges):
        raise ValueError("x and y must both be covered by edges of H*")
    if any(x in g and y in g for g in hstar.edges):
        raise ValueError("x and y must not share an edge of H*")

    verts = sorted(hstar.vertices)
    pos = {v: i for i, v in enumerate(verts)}
    nv = len(verts)
    p1, p2 = nv, nv + 1
    bsize = m - 2 - ell
    block = build_F_ell(m, ell).h
    gs = sorted(hstar.edges)
    maps = [[(p1, m - 2), (p2, m - 1)] + [(pos[u], i) for i, u in enumerate(g)] for g in gs]
    h = glue(Hypergraph.build(3, [], vertices=range(nv + 2)), block, maps).h
    start = nv + 2
    blocks = [
        frozenset([p1, p2, *(pos[u] for u in g), *range(start + j * bsize, start + (j + 1) * bsize)])
        for j, g in enumerate(gs)
    ]
    e_h = canon_edge((p1, p2, pos[x]))
    f_h = canon_edge((p1, p2, pos[y]))
    if e_h not in h.edges or f_h not in h.edges:
        raise AssertionError("tagged edges missing from the assembled sender")
    if codegree(h, pos[x], pos[y]) != 0:
        raise AssertionError("tagged vertices must have codegree zero")
    if h.num_vertices != 2 + nv + hstar.num_edges * bsize:
        raise AssertionError("sender vertex count off")
    for i, bi in enumerate(blocks):
        for bj in blocks[i + 1 :]:
            shared = bi & bj
            inner = [e for e in h.edges if set(e) <= shared]
            if len(inner) > 1 or any(p1 not in e or p2 not in e for e in inner):
                raise AssertionError("blocks may only share one special edge")
    return TaggedGadget(
        h=h, e=e_h, f=f_h, s_pair=(p1, p2), a=pos[x], b=pos[y], blocks=tuple(blocks)
    )


def verify_clique_block_cover(g: TaggedGadget, t: int) -> bool:
    """True when every t-clique of the gadget lies inside a single block."""
    if not g.blocks:
        raise ValueError("gadget carries no blocks")
    return all(
        any(set(q) <= blk for blk in g.blocks) for q in enumerate_cliques(g.h, t)
    )


def _sender_parts(sender: TaggedGadget) -> tuple[int, int, int, int]:
    """Validate sender tags; return (c1, c2, u_e, u_f) with c1 < c2."""
    if sender.e is None or sender.f is None:
        raise ValueError("malformed sender tags: e and f required")
    shared = set(sender.e) & set(sender.f)
    if len(shared) != 2:
        raise ValueError("malformed sender tags: e and f must share a pair")
    if induced(sender.h, set(sender.e) | set(sender.f)).num_edges != 2:
        raise ValueError("malformed sender tags: extra edges inside e and f")
    c1, c2 = sorted(shared)
    (u_e,) = set(sender.e) - shared
    (u_f,) = set(sender.f) - shared
    return c1, c2, u_e, u_f


def build_rainbow(k: int, sender: TaggedGadget) -> TaggedGadget:
    """Star of k edges through a shared pair, pairwise coupled by senders.

    Edge i of the star is {i, k, k+1}.  One sender copy per pair (i, j)
    forces different colors on edges i and j, so a free k-coloring must
    use every color exactly once across the star.
    """
    if k < 2:
        raise ValueError("rainbow needs at least two colors")
    c1, c2, u_e, u_f = _sender_parts(sender)
    star = [(i, k, k + 1) for i in range(k)]
    copies = [[(k, c1), (k + 1, c2), (i, u_e), (j, u_f)] for i, j in itertools.combinations(range(k), 2)]
    acc = glue(Hypergraph.build(3, star), sender.h, copies).h
    rb = tuple(canon_edge(e) for e in star)
    union = set().union(*map(set, rb))
    if len(union) != k + 2:
        raise AssertionError("star span must be k + 2 vertices")
    for ei, ej in itertools.combinations(rb, 2):
        if set(ei) & set(ej) != {k, k + 1}:
            raise AssertionError("star edges must pairwise meet in the shared pair")
    if induced(acc, range(k + 2)).num_edges != k:
        raise AssertionError("sender copies leaked edges into the star")
    return TaggedGadget(h=acc, rainbow=rb, s_pair=(k, k + 1))


def build_equalizer(rb: TaggedGadget) -> TaggedGadget:
    """Positive sender: two rainbow copies overlapping in all but one tip.

    With the shared pair and k-1 of the tips identified, the two free
    tips are forced to carry the one color left over in both copies, so
    the tagged edges e, f always match.
    """
    k = len(rb.rainbow)
    if k < 2 or rb.s_pair is None:
        raise ValueError("equalizer needs a rainbow gadget with at least two star edges")
    s = set(rb.s_pair)
    tips = []
    for e in rb.rainbow:
        (tip,) = set(e) - s
        tips.append(tip)
    pairs = [(v, v) for v in sorted(s)] + [(tips[i], tips[i]) for i in range(1, k)]
    res = glue(rb.h, rb.h, [pairs])
    e = rb.rainbow[0]
    f = tuple(sorted(res.map_b[v] for v in rb.rainbow[0]))
    if res.h.num_vertices != 2 * rb.h.num_vertices - (k + 1):
        raise AssertionError("equalizer vertex count off")
    if len(set(e) & set(f)) != 2:
        raise AssertionError("tagged edges must share exactly the pair")
    if induced(res.h, set(e) | set(f)).num_edges != 2:
        raise AssertionError("extra edges inside the tagged pair")
    return TaggedGadget(h=res.h, e=e, f=f, s_pair=rb.s_pair)


def build_far_seed(eq1: TaggedGadget, eq2: TaggedGadget) -> TaggedGadget:
    """Glue two equalizers tip-to-tip; the tagged edges land at distance 5.

    The second equalizer's f is identified with the first one's f, so
    colors propagate e1 = f1 = f2 = e2 while the surviving tags e1, e2
    span five vertices; distance five is the minimum for equalizers
    whose tags share a pair, hence "seed".
    """
    (a1, b1, _, y1), (a2, b2, _, y2) = _sender_parts(eq1), _sender_parts(eq2)
    res = glue(eq1.h, eq2.h, [[(y1, b2), (b1, a2), (a1, y2)]])
    e = eq1.e
    f = tuple(sorted(res.map_b[v] for v in eq2.e))
    if len(set(e) | set(f)) != 5:
        raise AssertionError("far-seed tags must span five vertices")
    # the path e1, f1 = f2, e2 spans the five vertices, so a bound of 5 is exact
    d = distance_lower_bound(res.h, e, f)
    if d != 5:
        raise AssertionError(f"far-seed distance bound {d}, expected 5")
    return TaggedGadget(h=res.h, e=e, f=f, dist=5)


def _certified_distance(h: Hypergraph, e: Edge, f: Edge, verify: bool) -> int | float:
    """distance_lower_bound(h, e, f); verify checks it against the exact path_distance."""
    d = distance_lower_bound(h, e, f)
    if verify:
        actual = path_distance(h, e, f)
        if actual < d:
            raise AssertionError(f"distance bound {d} exceeds the exact distance {actual}")
    return d


def _chain_step(cur: TaggedGadget, verify: bool) -> TaggedGadget:
    """Glue a fresh copy's e onto f; the distance d grows to 2d - 3.

    cur.dist must be cur's certified bound, and the result carries its own;
    verify as in amplify_distance.
    """
    assert cur.e is not None and cur.f is not None and cur.dist is not None
    e1, f1, f2 = set(cur.e), sorted(cur.f), set(cur.f)
    pairs = None
    for perm in itertools.permutations(sorted(cur.e)):
        cand = list(zip(f1, perm))
        if not any(xa in e1 and yb in f2 for xa, yb in cand):
            pairs = cand
            break
    if pairs is None:
        raise ValueError("chain step needs two edges at distance at least 5")
    res = glue(cur.h, cur.h, [pairs])
    e = cur.e
    f = tuple(sorted(res.map_b[v] for v in cur.f))
    d = _certified_distance(res.h, e, f, verify)
    if d <= cur.dist:
        raise AssertionError(f"chain step left the distance bound at {d} <= {cur.dist}")
    return TaggedGadget(h=res.h, e=e, f=f, dist=d)


def amplify_distance(base: TaggedGadget, s: int, verify: bool = False) -> TaggedGadget:
    """Chain copies of an equalizer until its tags sit at distance >= s.

    Each step glues a fresh copy's e-edge onto the current f-edge,
    avoiding any identification that would pull the outer tags together;
    the distance grows d -> 2d - 3 (5, 7, 11, 19, 35).  Every gadget,
    the base included, is certified by distance_lower_bound, whatever its
    dist tag says; the chain stops at the first whose bound reaches s, and
    that one is tagged dist = s.  verify=True also checks each bound
    against the exact path_distance, an A* search on the bound's own
    table, exponential only in the worst case.
    """
    if base.e is None or base.f is None:
        raise ValueError("tagged edges e and f required")
    d = _certified_distance(base.h, base.e, base.f, verify)
    if d == inf or d < 5:
        raise ValueError("chain step needs two edges at distance at least 5")
    cur = dataclasses.replace(base, dist=d)
    while cur.dist < s:
        cur = _chain_step(cur, verify)
    return dataclasses.replace(cur, dist=s)


def build_BEL(
    h: Hypergraph,
    coloring: EdgeColoring,
    k: int,
    t: int,
    far: TaggedGadget,
    rainbow_g: TaggedGadget,
) -> TaggedGadget:
    """Rigid carrier: every free coloring restricts to h as the given one.

    The rainbow star fixes k reference edges to pairwise different
    colors; a far equalizer copy per edge g of h couples g to the
    reference edge of its intended color.  Any coloring free of
    monochromatic t-cliques then reproduces the input coloring up to a
    color permutation.  h keeps vertices 0..n-1 in the result.

    The far gadget's tags are certified to sit at distance at least 7
    by distance_lower_bound; its dist tag is not read.  The coloring must
    color exactly the edges of h.  The far copies go to glue as a
    generator of maps, one per host edge, so the carrier's edges are held
    once, in its own edge set.  Its codegree postconditions are checked in
    one pass over those edges.
    """
    if not h.is_dense():
        raise ValueError("host must use vertices 0..n-1")
    if h.r != 3:
        raise ValueError("BEL assembly is 3-uniform")
    if coloring.k > k:
        raise ValueError(f"coloring has {coloring.k} colors, the carrier pins {k}")
    if len(rainbow_g.rainbow) != k:
        raise ValueError(f"rainbow gadget carries {len(rainbow_g.rainbow)} edges, need {k}")
    if far.e is None or far.f is None:
        raise ValueError("far gadget must carry e and f tags")
    extra = coloring.assignment.keys() - h.edges
    if extra:
        raise ValueError(f"coloring colors {len(extra)} triples outside the host, e.g. {min(extra)!r}")
    bad = check_free(h, coloring, t)
    if bad:
        raise ValueError(f"input coloring has monochromatic cliques, e.g. {bad[0]!r}")
    if distance_lower_bound(far.h, far.e, far.f) < 7:
        raise ValueError("far gadget tags must sit at distance at least 7")

    n_h = h.num_vertices
    base = glue(h, rainbow_g.h)
    eprime = [tuple(sorted(base.map_b[v] for v in e)) for e in rainbow_g.rainbow]
    fe, ff = sorted(far.e), sorted(far.f)
    copies = ([*zip(g, fe), *zip(eprime[coloring.color(g) - 1], ff)] for g in sorted(h.edges))
    acc = glue(base.h, far.h, copies).h

    expected = n_h + rainbow_g.h.num_vertices + h.num_edges * (far.h.num_vertices - 6)
    if acc.num_vertices != expected:
        raise AssertionError("BEL vertex count off")
    # h keeps the lowest ids, so the host vertices of a sorted carrier edge are
    # a prefix of it; touch[w] masks the host vertices new vertex w shares an edge with
    covered = {p for g in h.edges for p in itertools.combinations(g, 2)}
    inner, raised, touch = [], [], defaultdict(int)
    for g in acc.edges:
        a, b, c = g
        if c < n_h:
            inner.append(g)
        elif b < n_h:
            if (a, b) not in covered:
                raised.append((a, b))
            touch[c] |= 1 << a | 1 << b
        elif a < n_h:
            touch[b] |= 1 << a
            touch[c] |= 1 << a
    if set(inner) != h.edges:
        raise AssertionError("BEL changed the host's induced edges")
    if raised:
        u, v = min(raised)
        raise AssertionError(f"BEL raised the codegree of host pair ({u}, {v})")
    joined = [w for w, mask in touch.items() if mask == (1 << n_h) - 1]
    if n_h >= 4 and joined:
        raise AssertionError(f"new vertex {min(joined)} has positive codegree with all of the host")
    sp = rainbow_g.s_pair
    s_pair = None if sp is None else (base.map_b[sp[0]], base.map_b[sp[1]])
    return TaggedGadget(h=acc, rainbow=tuple(eprime), s_pair=s_pair)


def attach_apex(g: TaggedGadget, base: Iterable[int]) -> TaggedGadget:
    """Add one vertex joined by a triple to every pair of the base set."""
    bs = sorted(set(vertex_ids(base)))
    if len(bs) < 2:
        raise ValueError("apex needs at least two base vertices")
    if not set(bs) <= g.h.vertices:
        raise ValueError("vertex not in hypergraph")
    v = max(g.h.vertices) + 1 if g.h.vertices else 0
    h2 = g.h.plus_edges((u1, u2, v) for u1, u2 in itertools.combinations(bs, 2))
    return dataclasses.replace(g, h=h2, apex=v)
