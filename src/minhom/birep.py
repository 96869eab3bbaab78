"""Bipartite representation of a digraph and proper-interval-bigraph tests.

The forbidden structures (long induced cycles, bipartite claw, net, tent) are
searched exhaustively: the cycles over vertex subsets, the fixed patterns by
placing their four x labels in one part and narrowing the hosts left for
each y label in the other.  Every use in this project targets the bipartite
representation of a small fixed digraph, never a problem input.

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

from dataclasses import dataclass
from functools import cached_property
from itertools import combinations

from .digraph import (Digraph, GraphError, GuardExceeded, check_token,
                      components)

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


@dataclass(frozen=True)
class BipartiteGraph:
    """Bipartite graph with ordered parts; every edge crosses the parts.

    The first/second part distinction is semantic (part-respecting
    homomorphism instances depend on it), so the parts are never swapped
    silently.
    """

    part1: tuple[str, ...]
    part2: tuple[str, ...]
    edges: frozenset[tuple[str, str]]

    def __init__(self, part1, part2, edges=()):
        p1 = tuple(part1)
        p2 = tuple(part2)
        for v in (*p1, *p2):
            check_token(v)
        if len(set(p1)) != len(p1) or len(set(p2)) != len(p2):
            raise GraphError("duplicate vertex declarations")
        if set(p1) & set(p2):
            raise GraphError("parts must be disjoint")
        s1, s2 = set(p1), set(p2)
        norm = set()
        for u, v in edges:
            u, v = str(u), str(v)
            if u in s1 and v in s2:
                norm.add((u, v))
            elif v in s1 and u in s2:
                norm.add((v, u))
            else:
                raise GraphError(f"edge ({u!r}, {v!r}) does not cross the parts")
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
    def _adjacency(self) -> dict[str, tuple[str, ...]]:
        """Neighbours of every vertex, in vertex order (part1, then part2)."""
        pos = {v: i for i, v in enumerate(self.vertices)}
        adj: dict[str, list[str]] = {v: [] for v in self.vertices}
        for u, v in self.edges:
            adj[u].append(v)
            adj[v].append(u)
        return {v: tuple(sorted(ws, key=pos.__getitem__)) for v, ws in adj.items()}

    def neighbors(self, v: str) -> tuple[str, ...]:
        return self._adjacency[v]

    def induced(self, subset) -> "BipartiteGraph":
        sub = set(subset)
        unknown = sub - set(self.vertices)
        if unknown:
            raise GraphError(f"unknown vertices in induced(): {sorted(unknown)}")
        return BipartiteGraph(
            (v for v in self.part1 if v in sub),
            (v for v in self.part2 if v in sub),
            ((u, v) for u, v in self.edges if u in sub and v in sub),
        )


@dataclass(frozen=True)
class ForbiddenStructure:
    """An induced forbidden structure with its embedding into the host.

    kind is one of 'long-induced-cycle', 'bipartite-claw', 'bipartite-net',
    'bipartite-tent'.  The embedding maps pattern labels (c1..cK for cycles,
    x1..x4/y1..y3 for the fixed patterns) to host vertices.
    """

    kind: str
    embedding: tuple[tuple[str, str], ...]

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


def _induced_cycle(g: BipartiteGraph,
                   subset: tuple[str, ...]) -> ForbiddenStructure | None:
    """The cycle subset induces in g, walked from subset[0] towards its
    first neighbour in vertex order, or None if it induces no single cycle."""
    inside = set(subset)
    nbrs = {}
    for v in subset:
        ws = [w for w in g.neighbors(v) if w in inside]
        if len(ws) != 2:
            return None
        nbrs[v] = ws
    start = subset[0]
    walk = [start, nbrs[start][0]]
    while len(walk) < len(subset):
        a, b = nbrs[walk[-1]]
        nxt = b if a == walk[-2] else a
        if nxt == start:
            return None  # closed early: subset induces several cycles
        walk.append(nxt)
    emb = tuple((f"c{i + 1}", v) for i, v in enumerate(walk))
    return ForbiddenStructure("long-induced-cycle", emb)


def _pattern(edges) -> tuple[list[str], set[tuple[str, str]]]:
    """Sorted labels and adjacent label pairs (both orders) of an edge list."""
    return (sorted({lab for e in edges for lab in e}),
            {(a, b) for a, b in edges} | {(b, a) for a, b in edges})


def _columns(edges) -> tuple[list[str], list[str], list[set[int]]]:
    """Sorted x labels, sorted y labels, and per y label the positions (in
    the x list) of its neighbours."""
    labels, adj = _pattern(edges)
    xs = [lab for lab in labels if lab[0] == "x"]
    ys = [lab for lab in labels if lab[0] == "y"]
    return xs, ys, [{d for d, x in enumerate(xs) if (x, y) in adj} for y in ys]


_COLUMNS = {kind: _columns(edges) for kind, edges in PATTERNS.items()}


def find_pattern(g: BipartiteGraph, kind: str) -> ForbiddenStructure | None:
    """First induced embedding of one fixed pattern, x labels in part1
    before part2: hosts are tried in g.vertices order, labels placed in
    sorted order (x1..x4, then y1..y3), and the first embedding in that
    lexicographic order is returned.

    The x labels are pairwise nonadjacent, and so are the y labels, so the
    x hosts are any four distinct vertices of one part.  Each y then needs a
    host in the other part whose neighbours among the x hosts are exactly
    its pattern neighbours; the y columns are distinct, so no two y labels
    can share a host.  The x hosts are placed in order, keeping per y the
    hosts still possible, and a branch is cut as soon as some y has none.
    """
    xs, ys, cols = _COLUMNS[kind]

    def place(x_part, x_hosts: list[str], options: list[list[str]]):
        d = len(x_hosts)
        if d == len(xs):
            return x_hosts + [hosts[0] for hosts in options]
        for a in x_part:
            if a in x_hosts:
                continue
            near = g.neighbors(a)
            narrowed = [[b for b in hosts if (b in near) == (d in col)]
                        for hosts, col in zip(options, cols)]
            if all(narrowed):
                found = place(x_part, x_hosts + [a], narrowed)
                if found is not None:
                    return found
        return None

    for x_part, y_part in ((g.part1, g.part2), (g.part2, g.part1)):
        if len(x_part) < len(xs) or len(y_part) < len(ys):
            continue
        found = place(x_part, [], [list(y_part)] * len(ys))
        if found is not None:
            return ForbiddenStructure(kind, tuple(zip(xs + ys, found)))
    return None


def find_forbidden(g: BipartiteGraph,
                   guard: int = FORBIDDEN_GUARD) -> ForbiddenStructure | None:
    """First forbidden structure in g, or None.

    Search order: induced cycles of even length 6, 8, ... (subsets in
    lexicographic order over the part1+part2 vertex sequence), then the claw,
    the net, and the tent.
    """
    n = len(g.vertices)
    if n > guard:
        raise GuardExceeded(
            f"forbidden-structure search is limited to {guard} vertices; "
            "raise the guard explicitly to search this graph"
        )
    # a cycle alternates between the parts, so it takes half of its
    # vertices from each: those subsets, in the same order
    for half in range(3, min(len(g.part1), len(g.part2)) + 1):
        for a in combinations(g.part1, half):
            for b in combinations(g.part2, half):
                found = _induced_cycle(g, a + b)
                if found is not None:
                    return found
    for kind in ("bipartite-claw", "bipartite-net", "bipartite-tent"):
        found = find_pattern(g, kind)
        if found is not None:
            return found
    return None


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


def digraph_instance_from_bipartite(g: BipartiteGraph, h: Digraph, costs):
    """Convert a part-respecting bipartite instance over BG(h) into a digraph
    instance over h with the same optimal cost.

    Edges of g are oriented from part1 to part2; the new cost of assigning
    h-vertex x to u is the old cost of x_1 (u in part1) or x_2 (u in part2).
    """
    from .solver import CostMatrix

    costs.check_shape(set(g.vertices), set(bg(h).vertices))
    d = Digraph(g.vertices, g.edges)
    entries = {}
    for u in g.vertices:
        suffix = "_1" if u in g.part1 else "_2"
        for x in h.vertices:
            c = costs.cost(u, f"{x}{suffix}")
            if c:
                entries[(u, x)] = c
    return d, CostMatrix(entries)


def lift_solution(g: BipartiteGraph, h: Digraph,
                  mapping: dict[str, str]) -> dict[str, str]:
    """Lift a homomorphism of the transformed digraph instance (into h) to a
    part-respecting homomorphism of g into BG(h)."""
    for u in g.vertices:
        if u not in mapping:
            raise GraphError(f"mapping is not total: missing {u!r}")
        if mapping[u] not in h.vertices:
            raise GraphError(f"image {mapping[u]!r} is not a vertex of the target")
    for s, t in g.edges:
        if not h.has_arc(mapping[s], mapping[t]):
            raise GraphError(
                f"not a homomorphism: edge ({s}, {t}) maps to a non-arc"
            )
    return {u: mapping[u] + ("_1" if u in g.part1 else "_2") for u in g.vertices}


def project_solution(g: BipartiteGraph, h: Digraph,
                     mapping: dict[str, str]) -> dict[str, str]:
    """Inverse of lift_solution: strip part subscripts, validating that the
    input is a part-respecting homomorphism of g into BG(h)."""
    bgh = bg(h)
    out = {}
    for u in g.vertices:
        if u not in mapping:
            raise GraphError(f"mapping is not total: missing {u!r}")
        img = mapping[u]
        want = "_1" if u in g.part1 else "_2"
        if not img.endswith(want) or img not in bgh.vertices:
            raise GraphError(f"image {img!r} does not respect the parts")
        out[u] = img[: -len(want)]
    for s, t in g.edges:
        if not bgh.has_edge(mapping[s], mapping[t]):
            raise GraphError(
                f"not a homomorphism: edge ({s}, {t}) maps to a non-edge"
            )
    return out
