"""Bipartite representation of a digraph and proper-interval-bigraph tests.

The forbidden structures (long induced cycles, bipartite claw, net, tent) are
searched exhaustively by one integer kernel, forbidden_hosts, on neighbour
bitmasks by position (part1, then part2, in vertex order), so the first
structure found is the first in vertex order; find_forbidden names it.
FORBIDDEN_GUARD bounds the vertices of each graph this exponential search
takes (a component, in is_proper_interval_bigraph) unless the caller raises
it: the bipartite representation of a target, or a `pib-check --input`.

Pattern edge lists for the net and the tent were transcribed from the source
drawings (the running-text edge lists of net and tent are identical there,
which is an evident erratum).  The frozen lists are:

  claw: x4-y1, x1-y1, x4-y2, x2-y2, x4-y3, x3-y3
  net:  4-cycle y1-x3-y2-x4-y1 plus pendants x1-y1, x2-y2, y3-x4
  tent: 6-cycle x1-y2-x4-y1-x2-y3-x1 plus chord x1-y1 plus pendant x3-y1

Both were cross-validated against the hardness witnesses they are expected to
certify (see the classify tests).
"""

from __future__ import annotations

from bisect import bisect_left
from collections.abc import Sequence
from functools import cached_property
from itertools import combinations

from .digraph import (Digraph, GraphError, GuardExceeded, InternalError,
                      _built, _pairs, _quoted, _Record, check_token,
                      components)
from .solver import CostMatrix

#: Default cap on the number of vertices searched for forbidden structures.
FORBIDDEN_GUARD = 16

CLAW_EDGES = (("x4", "y1"), ("x1", "y1"), ("x4", "y2"),
              ("x2", "y2"), ("x4", "y3"), ("x3", "y3"))
NET_EDGES = (("x3", "y1"), ("x4", "y1"), ("x3", "y2"), ("x4", "y2"),
             ("x1", "y1"), ("x2", "y2"), ("x4", "y3"))
TENT_EDGES = (("x1", "y2"), ("x4", "y2"), ("x4", "y1"), ("x2", "y1"),
              ("x2", "y3"), ("x1", "y3"), ("x1", "y1"), ("x3", "y1"))

PATTERNS = {
    "bipartite-claw": CLAW_EDGES,
    "bipartite-net": NET_EDGES,
    "bipartite-tent": TENT_EDGES,
}


class BipartiteGraph(_Record):
    """Bipartite graph with ordered parts (tuples of names); every edge
    crosses the parts, and edges is a frozenset of (part1, part2) pairs.

    The first/second part distinction is semantic (part-respecting
    homomorphism instances depend on it), so the parts are never swapped
    silently.
    """

    _fields = ("part1", "part2", "edges")

    def __init__(self, part1, part2, edges=()):
        p1 = _built(tuple, part1, "part1")
        p2 = _built(tuple, part2, "part2")
        for v in (*p1, *p2):
            check_token(v)
        if len(set(p1)) != len(p1) or len(set(p2)) != len(p2):
            raise GraphError("duplicate vertex declarations")
        if set(p1) & set(p2):
            raise GraphError("parts must be disjoint")
        s1, s2 = set(p1), set(p2)
        norm = set()
        for u, v in _pairs(edges, "edge"):
            if u in s1 and v in s2:
                norm.add((u, v))
            elif v in s1 and u in s2:
                norm.add((v, u))
            else:
                raise GraphError(f"edge ({_quoted(u)}, {_quoted(v)}) "
                                 "does not cross the parts")
        object.__setattr__(self, "part1", p1)
        object.__setattr__(self, "part2", p2)
        object.__setattr__(self, "edges", frozenset(norm))

    @classmethod
    def _wrap(cls, part1: tuple[str, ...], part2: tuple[str, ...],
              edges: frozenset[tuple[str, str]]) -> "BipartiteGraph":
        """A graph holding the parts and edges as they are, unchecked: only
        for a graph derived from an already checked one, whose names,
        parts and (part1, part2) edges are valid by construction."""
        g = object.__new__(cls)
        object.__setattr__(g, "part1", part1)
        object.__setattr__(g, "part2", part2)
        object.__setattr__(g, "edges", edges)
        return g

    @cached_property
    def vertices(self) -> tuple[str, ...]:
        return self.part1 + self.part2

    def has_edge(self, u: str, v: str) -> bool:
        return (u, v) in self.edges or (v, u) in self.edges

    @cached_property
    def digraph(self) -> Digraph:
        """The orientation from part1 to part2, built unchecked: its
        adjacency index and _index, by position in vertices, are this
        graph's one index."""
        return Digraph._wrap(self.vertices, self.edges)

    def induced(self, subset) -> "BipartiteGraph":
        """Subgraph induced by the given vertices (vertex order kept),
        built unchecked from the index: its names and edges are this
        graph's."""
        d = self.digraph
        idx = d._index
        sub = set(subset)
        unknown = [v for v in sub if v not in idx]
        if unknown:
            raise GraphError(f"unknown vertices in induced(): {sorted(unknown)}")
        ks = sorted(map(idx.__getitem__, sub))
        cut = bisect_left(ks, len(self.part1))
        vs, outs = self.vertices, d.adjacency[0]
        inside = set(ks[cut:])
        return BipartiteGraph._wrap(
            tuple(map(vs.__getitem__, ks[:cut])),
            tuple(map(vs.__getitem__, ks[cut:])),
            frozenset((vs[a], vs[b]) for a in ks[:cut] for b in outs[a]
                      if b in inside))


class ForbiddenStructure(_Record):
    """An induced forbidden structure with its embedding into the host.

    kind is one of 'long-induced-cycle', 'bipartite-claw', 'bipartite-net',
    'bipartite-tent'.  The embedding maps pattern labels (c1..cK for cycles,
    x1..x4/y1..y3 for the fixed patterns) to host vertices.
    """

    _fields = ("kind", "embedding")

    def __init__(self, kind: str,
                 embedding: tuple[tuple[str, str], ...]) -> None:
        object.__setattr__(self, "kind", kind)
        object.__setattr__(self, "embedding", embedding)

    def host_vertices(self) -> tuple[str, ...]:
        return tuple(v for _, v in self.embedding)


def bg(h: Digraph) -> BipartiteGraph:
    """Bipartite representation: edge u_1 -- w_2 iff u -> w (loops included).

    h's names are checked, so the names v_1 and v_2 are valid, distinct
    and in disjoint parts: the graph is built unchecked."""
    return BipartiteGraph._wrap(
        tuple(f"{v}_1" for v in h.vertices),
        tuple(f"{v}_2" for v in h.vertices),
        frozenset((f"{t}_1", f"{head}_2") for t, head in h.arcs))


def _masks(g: BipartiteGraph) -> list[int]:
    """By position in g.vertices, the bitmask of each vertex's neighbours."""
    outs, ins, _ = g.digraph.adjacency
    return [sum(1 << x for x in out + inn) for out, inn in zip(outs, ins)]


def _cycle(adj: list[int], members, mask: int) -> list[int] | None:
    """The cycle the positions members (those in mask) induce, walked from
    members[0] towards its lowest neighbour; None unless it is one cycle."""
    if any((adj[v] & mask).bit_count() != 2 for v in members):
        return None
    near = adj[members[0]] & mask
    walk = [members[0]]
    v = (near & -near).bit_length() - 1
    while v != walk[0]:
        walk.append(v)
        v = ((adj[v] & mask) ^ 1 << walk[-2]).bit_length() - 1
    return walk if len(walk) == len(members) else None


def _pattern(edges) -> tuple[list[str], set[tuple[str, str]]]:
    """Sorted labels and adjacent label pairs (both orders) of an edge list."""
    return (sorted({lab for e in edges for lab in e}),
            {(a, b) for a, b in edges} | {(b, a) for a, b in edges})


def _wants(labels, adj) -> list[list[bool]]:
    """Per x label, whether each y label is its neighbour (sorted labels)."""
    return [[(x, y) in adj for y in labels if y[0] == "y"]
            for x in labels if x[0] == "x"]


_WANTS = {kind: _wants(*_pattern(edges)) for kind, edges in PATTERNS.items()}

#: Per x label (x1..x4), the x label whose host its host must follow, or
#: None: each pair is swapped by an automorphism of the pattern, the claw's
#: (x1 x2)(y1 y2) and (x2 x3)(y2 y3), the net's (x1 x2)(y1 y2) and the
#: tent's (x2 x4)(y2 y3).
_AFTER = {"bipartite-claw": (None, 0, 1, None),
          "bipartite-net": (None, 0, None, None),
          "bipartite-tent": (None, None, None, 1)}


def _place(adj: list[int], n1: int, kind: str) -> list[int] | None:
    """First hosts by position of one fixed pattern, x labels in part1
    (positions below n1) before part2.

    The x labels are pairwise nonadjacent, and so are the y labels, so the
    x hosts are any distinct positions of one part, placed in order.  Each
    placement narrows each y label's host mask in the other part to the
    hosts that see exactly its pattern neighbours (opts & adj[a] or
    opts & ~adj[a]); a branch is cut as soon as one is empty.  The y
    columns are distinct, so each y takes the lowest position of its own
    mask.  The y masks are the n-bit fields of one integer, so one step
    narrows them all: adj[a] * spread copies adj[a] into every field, and
    sees[d] is all ones in the fields of x label d's pattern neighbours.
    tries[d] holds the hosts x label d has yet to try, options[d] the y
    masks before it.

    An automorphism of the pattern maps an embedding's x hosts to another
    embedding's, so a label that one swaps with an earlier label tries
    only hosts past that label's host (_AFTER).  The hosts of one x tuple
    decide its y hosts, and within an orbit the lexicographically least x
    tuple meets those order constraints, so the first embedding found is
    the one the unconstrained search finds."""
    wants, after, n = _WANTS[kind], _AFTER[kind], len(adj)
    part1, part2 = range(n1), range(n1, n)
    sides = [(xs, ys) for xs, ys in ((part1, part2), (part2, part1))
             if len(xs) >= len(wants) and len(ys) >= len(wants[0])]
    if not sides:
        return None
    spread = sum(1 << j * n for j in range(len(wants[0])))
    sees = [sum(((1 << n) - 1) << j * n for j, w in enumerate(want) if w)
            for want in wants]
    for xs, ys in sides:
        fields = [(1 << ys.stop) - (1 << ys.start) << j * n
                  for j in range(len(wants[0]))]
        placed: list[int] = []
        options = [sum(fields)]
        tries = [iter(xs)]
        while tries:
            for a in tries[-1]:
                if a in placed:
                    continue
                narrowed = options[-1] & ~(adj[a] * spread ^ sees[len(placed)])
                if all(map(narrowed.__and__, fields)):
                    placed.append(a)
                    if len(placed) == len(wants):
                        return placed + [(f & -f).bit_length() - 1 - j * n
                                         for j, f in enumerate(
                                             map(narrowed.__and__, fields))]
                    options.append(narrowed)
                    e = after[len(placed)]
                    tries.append(iter(xs if e is None else
                                      range(placed[e] + 1, xs.stop)))
                    break
            else:
                # every host tried for this label: undo the one before it
                tries.pop()
                if placed:
                    placed.pop()
                    options.pop()
    return None


def forbidden_hosts(n1: int, adj: list[int]) -> tuple[str, list[int]] | None:
    """find_forbidden's search on the bigraph whose vertex at position k
    has neighbour bitmask adj[k], positions below n1 forming part1: the
    first structure's kind and its hosts by position in label order
    (c1..ck, or x1..x4 then y1..y3), or None."""
    n = len(adj)
    for half in range(3, min(n1, n - n1) + 1):
        seconds = [(b, sum(1 << v for v in b))
                   for b in combinations(range(n1, n), half)]
        for a in combinations(range(n1), half):
            mask_a = sum(1 << v for v in a)
            for b, mask_b in seconds:
                walk = _cycle(adj, a + b, mask_a | mask_b)
                if walk is not None:
                    return "long-induced-cycle", walk
    for kind in ("bipartite-claw", "bipartite-net", "bipartite-tent"):
        hosts = _place(adj, n1, kind)
        if hosts is not None:
            return kind, hosts
    return None


def label_hosts(kind: str, hosts: list[int],
                names: Sequence[str]) -> ForbiddenStructure:
    """The structure forbidden_hosts found, its hosts named by position."""
    labels = (_pattern(PATTERNS[kind])[0] if kind in PATTERNS
              else [f"c{i}" for i in range(1, len(hosts) + 1)])
    return ForbiddenStructure(kind, tuple(zip(labels, map(names.__getitem__,
                                                          hosts))))


def find_forbidden(g: BipartiteGraph,
                   guard: int = FORBIDDEN_GUARD) -> ForbiddenStructure | None:
    """First forbidden structure in g, or None.

    Search order, on g's positions (part1, then part2) and neighbour
    bitmasks (forbidden_hosts): induced cycles of even length 6, 8, ...
    over the subsets with half their positions in each part (a cycle
    alternates between the parts), in lexicographic order, each needing
    (adj[v] & mask).bit_count() == 2 and walked from its lowest position
    towards that one's lowest neighbour; then the claw, the net and the
    tent (_place).  Names are attached to the result only.

    The structure returned has passed validate_forbidden; InternalError
    otherwise.
    """
    n = len(g.vertices)
    if n > guard:
        raise GuardExceeded(
            f"forbidden-structure search is limited to {guard} vertices; "
            "raise the guard explicitly to search this graph"
        )
    found = forbidden_hosts(len(g.part1), _masks(g))
    if found is None:
        return None
    fs = label_hosts(*found, g.vertices)
    if not validate_forbidden(g, fs):
        raise InternalError("bad forbidden structure")
    return fs


def validate_forbidden(g: BipartiteGraph, fs: ForbiddenStructure) -> bool:
    """Re-check that an embedding induces its pattern exactly: a known kind
    (a long cycle c1-c2-...-ck-c1 with k even and >= 6), exactly the
    pattern's labels, and distinct hosts in g."""
    emb = dict(fs.embedding)
    k = len(fs.embedding)
    if fs.kind == "long-induced-cycle":
        if k < 6 or k % 2:
            return False
        edges = tuple((f"c{i}", f"c{i % k + 1}") for i in range(1, k + 1))
    elif fs.kind in PATTERNS:
        edges = PATTERNS[fs.kind]
    else:
        return False
    labels, adj = _pattern(edges)
    if set(emb) != set(labels) or len(set(emb.values())) != k:
        return False
    # a host outside g fails below: every pattern label has a neighbour
    return all(g.has_edge(emb[a], emb[b]) == ((a, b) in adj)
               for a, b in combinations(labels, 2))


def is_proper_interval_bigraph(
        g: BipartiteGraph,
        guard: int = FORBIDDEN_GUARD) -> tuple[bool, ForbiddenStructure | None]:
    """True iff no component of g contains a forbidden structure.

    The false certificate is the forbidden structure found.
    """
    for comp in components(g):
        fs = find_forbidden(g.induced(comp), guard=guard)
        if fs is not None:
            return False, fs
    return True, None


# -- part-respecting instance transformation ------------------------------


def digraph_instance_from_bipartite(g: BipartiteGraph, h: Digraph,
                                    costs: CostMatrix):
    """Convert a part-respecting bipartite instance over BG(h) into a digraph
    instance over h with the same optimal cost.

    Edges of g are oriented from part1 to part2; the new cost of assigning
    h-vertex x to u is the old cost of x_1 (u in part1) or x_2 (u in part2).
    """
    costs.check_shape(set(g.vertices), set(bg(h).vertices))
    entries = {}
    for part, suffix in ((g.part1, "_1"), (g.part2, "_2")):
        for u in part:
            for x in h.vertices:
                c = costs.cost(u, f"{x}{suffix}")
                if c:
                    entries[(u, x)] = c
    return g.digraph, CostMatrix(entries)


def _ordered_edges(g: BipartiteGraph):
    """g's (part1, part2) edges by the positions of their ends in
    g.vertices, read off the index, so the first failing edge an error
    names does not follow the string hash seed."""
    vs = g.vertices
    return ((vs[k], vs[j]) for k, ws in enumerate(g.digraph.adjacency[0])
            for j in ws)


def lift_solution(g: BipartiteGraph, h: Digraph,
                  mapping: dict[str, str]) -> dict[str, str]:
    """Lift a homomorphism of the transformed digraph instance (into h) to a
    part-respecting homomorphism of g into BG(h)."""
    for u in g.vertices:
        if u not in mapping:
            raise GraphError(f"mapping is not total: missing {_quoted(u)}")
        if mapping[u] not in h:
            raise GraphError(
                f"image {_quoted(mapping[u])} is not a vertex of the target")
    for s, t in _ordered_edges(g):
        if not h.has_arc(mapping[s], mapping[t]):
            raise GraphError(
                f"not a homomorphism: edge ({s}, {t}) maps to a non-arc"
            )
    return ({u: mapping[u] + "_1" for u in g.part1}
            | {u: mapping[u] + "_2" for u in g.part2})


def project_solution(g: BipartiteGraph, h: Digraph,
                     mapping: dict[str, str]) -> dict[str, str]:
    """Inverse of lift_solution: strip part subscripts, validating that the
    input is a part-respecting homomorphism of g into BG(h)."""
    bgh = bg(h)
    out = {}
    for part, want in ((g.part1, "_1"), (g.part2, "_2")):
        for u in part:
            if u not in mapping:
                raise GraphError(f"mapping is not total: missing {_quoted(u)}")
            img = mapping[u]
            if not img.endswith(want) or img not in bgh.digraph:
                raise GraphError(
                    f"image {_quoted(img)} does not respect the parts")
            out[u] = img[: -len(want)]
    for s, t in _ordered_edges(g):
        if not bgh.has_edge(mapping[s], mapping[t]):
            raise GraphError(
                f"not a homomorphism: edge ({s}, {t}) maps to a non-edge"
            )
    return out
