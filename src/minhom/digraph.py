"""Digraph data model, standard constructions, and structural predicates.

Digraphs may carry loops but never parallel arcs.  Vertex iteration order is
the declaration order; every derived set is emitted in a deterministic order
so that CLI output and test goldens are reproducible.  Digraph.adjacency is
the one adjacency index: each vertex's non-loop out- and in-neighbours and
its loop, by declaration index, cached on first use.  The graph algorithms
(components, is_acyclic, cycle_walk, partite_structure, and the solver and
classifier passes) read it rather than the arc set.  _collect is the one
reachability search, behind components, strong_components and the pair
digraph of minmax.find_minmax; it reads neighbours through a function, so
a caller may store them in lists or compute them on demand.
first_injection is the one backtracking search for isomorphisms and
Min-Max orderings.  _Record is the base of the package's immutable records
(Digraph, BipartiteGraph, ForbiddenStructure, Ordering, ArcPair,
CostMatrix, SolveResult and the classify certificates): each lists its
fields once, and the base gives them equality, hash, repr and immutability.
"""

from __future__ import annotations

from collections.abc import Callable, Iterable, Sequence
from functools import cached_property
from heapq import heappop, heappush
from itertools import chain, combinations
from operator import add, attrgetter


class GraphError(ValueError):
    """Invalid graph data or operation input."""


class NotMultipartiteTournament(GraphError):
    """The digraph (ignoring loops) is not an orientation of a complete
    multipartite graph."""


class GuardExceeded(GraphError):
    """An exhaustive search was asked to run beyond its configured size
    guard."""


class InternalError(RuntimeError):
    """A result or certificate failed its own re-check, or a search missed
    a certificate that theory guarantees.  This indicates a bug, not bad
    input."""


#: Hard cap for the brute-force isomorphism search.
ISO_GUARD = 10

#: Characters of a string that an error message quotes before cutting it.
QUOTE_LIMIT = 40


def _quoted(value) -> str:
    """repr(value) for an error message; a string longer than QUOTE_LIMIT
    characters is cut to its first QUOTE_LIMIT, marked with its length."""
    if isinstance(value, str) and len(value) > QUOTE_LIMIT:
        return f"{value[:QUOTE_LIMIT]!r}... ({len(value)} characters)"
    return repr(value)


def check_token(name: str) -> str:
    """Validate a vertex name: nonempty, no whitespace, no commas, no `#`
    (the file formats read it as the start of a comment)."""
    if not isinstance(name, str) or not name:
        raise GraphError(
            f"vertex name must be a nonempty string, got {_quoted(name)}")
    # str.split() cuts at exactly the characters str.isspace() accepts
    if "," in name or "#" in name or name.split() != [name]:
        raise GraphError(
            f"bad vertex name {_quoted(name)}: "
            "whitespace, commas and '#' are not allowed"
        )
    return name


def _built(make, value, name: str):
    """make(value), make being iter, tuple, list or dict; GraphError naming
    the argument `name` where make raises TypeError or ValueError (value
    is not iterable, a key is not hashable, or an item that dict reads is
    not a pair)."""
    try:
        return make(value)
    except (TypeError, ValueError) as exc:
        raise GraphError(f"bad {name}: {exc}") from None


def _pairs(items, what: str) -> list[tuple[str, str]]:
    """items as (str(a), str(b)) pairs; GraphError naming the first item
    that does not unpack into two, or that is a string (which would unpack
    by character), str subclasses included.  The string test is one pass
    over the items' types; the loop below runs only to name the item."""
    items = _built(list, items, what + "s")
    if not any(issubclass(t, str) for t in set(map(type, items))):
        try:
            return [(str(a), str(b)) for a, b in items]
        except (TypeError, ValueError):
            pass
    for x in items:
        try:
            a, b = x
            ok = not isinstance(x, str)
        except (TypeError, ValueError):
            ok = False
        if not ok:
            raise GraphError(f"{what} {_quoted(x)} is not a pair")
    return [(str(a), str(b)) for a, b in items]  # an error in str() itself


class _Record:
    """An immutable record whose fields are the names in _fields, each set
    once by __init__ with object.__setattr__.  As a frozen dataclass would:
    two records are == when they are of the same class and their fields
    are ==, the hash is that of the fields (TypeError when a field is
    unhashable), the repr is Name(field=value, ...), and assigning or
    deleting an attribute raises AttributeError.  _key reads the fields
    (one attrgetter: a tuple, or the bare value of a one-field record).
    Values that cached_property stores go straight into the instance
    __dict__."""

    _fields: tuple[str, ...] = ()

    def __init_subclass__(cls) -> None:
        cls._key = attrgetter(*cls._fields)

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._key(self) == self._key(other)
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self._key(self))

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}"
                           for name in self._fields)
        return f"{self.__class__.__qualname__}({fields})"

    def __setattr__(self, name: str, value) -> None:
        raise AttributeError(f"cannot assign to field {_quoted(name)}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {_quoted(name)}")


class Digraph(_Record):
    """Immutable digraph: ordered vertices (a tuple of names) and an arc
    set (a frozenset of name pairs; loops allowed)."""

    _fields = ("vertices", "arcs")

    def __init__(self, vertices, arcs=()):
        vs = _built(tuple, vertices, "vertices")
        for v in vs:
            check_token(v)
        declared = set(vs)
        if len(declared) != len(vs):
            raise GraphError("duplicate vertex declarations")
        pairs = _pairs(arcs, "arc")
        aset = frozenset(pairs)
        if not declared.issuperset(chain.from_iterable(aset)):
            for t, h in pairs:  # only to name the first undeclared end
                if t not in declared or h not in declared:
                    raise GraphError(
                        f"arc ({_quoted(t)}, {_quoted(h)}) references an "
                        "undeclared vertex")
        object.__setattr__(self, "vertices", vs)
        object.__setattr__(self, "arcs", aset)

    @classmethod
    def _wrap(cls, vertices: tuple[str, ...],
              arcs: frozenset[tuple[str, str]]) -> "Digraph":
        """A digraph holding `vertices` and `arcs` as they are, unchecked:
        only for a graph whose names and arcs are valid by construction,
        one derived from an already checked graph, built by a package
        constructor from names it made itself, or read by a reader whose
        tokens meet every rule of check_token and __init__ as read
        (io.parse_digraph, for a file whose names hold no comma)."""
        g = object.__new__(cls)
        object.__setattr__(g, "vertices", vertices)
        object.__setattr__(g, "arcs", arcs)
        return g

    # -- basic accessors ---------------------------------------------------

    @cached_property
    def _index(self) -> dict[str, int]:
        return {v: i for i, v in enumerate(self.vertices)}

    def __contains__(self, v: str) -> bool:
        return v in self._index

    def has_arc(self, u: str, v: str) -> bool:
        return (u, v) in self.arcs

    def has_loop(self, v: str) -> bool:
        return (v, v) in self.arcs

    def loops(self) -> tuple[str, ...]:
        return tuple(v for v in self.vertices if (v, v) in self.arcs)

    def nonloop_arcs(self) -> frozenset[tuple[str, str]]:
        return frozenset((t, h) for t, h in self.arcs if t != h)

    def sorted_arcs(self) -> list[tuple[str, str]]:
        return sorted(self.arcs)

    @cached_property
    def adjacency(self) -> tuple[tuple[tuple[int, ...], ...],
                                 tuple[tuple[int, ...], ...], tuple[bool, ...]]:
        """The one adjacency index, by declaration index: (outs, ins,
        looped), where outs[k] and ins[k] are the non-loop out- and
        in-neighbours of vertex k as ascending tuples and looped[k] tells
        whether it has a loop.  Built in one pass over the arcs on first
        use; the graph algorithms read it instead of the arcs.  Tuples
        throughout, so no reader can change it in place."""
        idx = self._index
        outs: list[list[int]] = [[] for _ in self.vertices]
        ins: list[list[int]] = [[] for _ in self.vertices]
        looped = [False] * len(self.vertices)
        for t, h in self.arcs:
            a, b = idx[t], idx[h]
            if a == b:
                looped[a] = True
            else:
                outs[a].append(b)
                ins[b].append(a)
        for ks in chain(outs, ins):
            ks.sort()
        return tuple(map(tuple, outs)), tuple(map(tuple, ins)), tuple(looped)

    # -- constructions -----------------------------------------------------

    def reflexive_closure(self) -> "Digraph":
        """Add a loop to every vertex lacking one.  Idempotent."""
        return Digraph._wrap(self.vertices,
                             self.arcs | {(v, v) for v in self.vertices})

    def induced(self, subset) -> "Digraph":
        """Subdigraph induced by the given vertices (declaration order kept)."""
        sub = set(subset)
        unknown = sub - self._index.keys()
        if unknown:
            raise GraphError(f"unknown vertices in induced(): {sorted(unknown)}")
        return Digraph._wrap(
            tuple(v for v in self.vertices if v in sub),
            frozenset((t, h) for t, h in self.arcs if t in sub and h in sub))


# -- whole-digraph predicates and builders --------------------------------


def _collect(near: Callable[[int], Iterable[int]], start: int,
             free: list[bool]) -> list[int]:
    """The free nodes reachable from start (free too) along near, ascending;
    clears their free flags.  The package's one reachability search; near
    is a function from a node to its neighbours, so components and
    strong_components pass a list's __getitem__, and minmax computes its
    pair digraph's neighbours when a node is popped."""
    free[start] = False
    comp = [start]
    stack = [start]
    while stack:
        for x in near(stack.pop()):
            if free[x]:
                free[x] = False
                comp.append(x)
                stack.append(x)
    comp.sort()
    return comp


def components(g) -> list[tuple[str, ...]]:
    """Connected components of a Digraph (orientation ignored) or a
    BipartiteGraph.

    Each component is sorted by declaration order; the list is sorted by its
    smallest member (also by declaration order).  The search reads
    neighbours by declaration index from the adjacency index: a Digraph's
    own, or that of a BipartiteGraph's part1 -> part2 digraph.
    """
    vs = g.vertices
    outs, ins, _ = (g if isinstance(g, Digraph) else g.digraph).adjacency
    near = list(map(add, outs, ins))
    free = [True] * len(vs)
    return [tuple(map(vs.__getitem__, _collect(near.__getitem__, k, free)))
            for k in range(len(vs)) if free[k]]


def is_acyclic(h: Digraph) -> tuple[bool, tuple[str, ...] | None]:
    """Test whether the loopless part of h has no directed cycle.

    Loops are ignored: a loop is not a cycle.  On success also returns an
    acyclic ordering of all vertices, ties broken by declaration order.
    Successors and in-degrees come from the adjacency index.
    """
    succ, preds, _ = h.adjacency
    indeg = list(map(len, preds))
    # declaration indices of the sources; ascending, so already a heap.
    # Every successor of a pick is pushed before the next pop, so the order
    # does not depend on the order of a successor list
    ready = [k for k, x in enumerate(indeg) if not x]
    order: list[str] = []
    while ready:
        k = heappop(ready)
        order.append(h.vertices[k])
        for x in succ[k]:
            indeg[x] -= 1
            if not indeg[x]:
                heappush(ready, x)
    if len(order) < len(h.vertices):
        return False, None
    return True, tuple(order)


def strong_components(succs: list[Sequence[int]], preds: list[Sequence[int]],
                      nodes: list[int]) -> list[list[int]]:
    """Strong components of the digraph on `nodes` (ascending integers
    below len(succs)) with an arc k -> x for every x in succs[k] that is
    among `nodes`; preds is its transpose.

    Each component lists its members ascending; the components are sorted
    by their first member.  Kosaraju's two searches (Sharir, Comput. Math.
    Appl. 7, 1981): a depth-first search along succs, with a stack of
    successor iterators (no recursion), records the order in which nodes
    finish; in reverse order, each node not yet taken takes the nodes that
    reach it (_collect along preds).
    """
    free = [False] * len(succs)
    for k in nodes:
        free[k] = True
    left = free.copy()  # not yet reached by the first search
    finished: list[int] = []
    for root in nodes:
        if not left[root]:
            continue
        left[root] = False
        work = [(root, iter(succs[root]))]
        while work:
            k, rest = work[-1]
            for x in rest:
                if left[x]:
                    left[x] = False
                    work.append((x, iter(succs[x])))
                    break
            else:
                work.pop()
                finished.append(k)
    found = [_collect(preds.__getitem__, k, free)
             for k in reversed(finished) if free[k]]
    found.sort()
    return found


def cycle_walk(h: Digraph) -> tuple[str, ...] | None:
    """The loopless arcs of h as one directed cycle through all of its
    (at least 2) vertices, walked from h.vertices[0]; None if they are not.

    Loops are ignored.  Successors come from the adjacency index; a target
    with more than two arcs per vertex is refused before building it.
    """
    k = len(h.vertices)
    if k < 2 or len(h.arcs) > 2 * k:
        return None
    outs = h.adjacency[0]
    if any(len(out) != 1 for out in outs):
        return None
    # every out-degree is 1.  A walk that repeats a vertex other than 0 is
    # trapped in a cycle avoiding 0, so returning to 0 after exactly k
    # steps means one cycle through all k vertices (and every in-degree
    # is 1)
    walk = [0]
    v = outs[0][0]
    while v and len(walk) < k:
        walk.append(v)
        v = outs[v][0]
    if v or len(walk) < k:
        return None
    return tuple(map(h.vertices.__getitem__, walk))


def partite_structure(h: Digraph) -> tuple[tuple[str, ...], ...]:
    """Partite sets of h, ignoring loops: each part's names sorted, the
    parts ordered by size and then by first name.

    Raises NotMultipartiteTournament unless nonadjacency is an equivalence
    relation and every cross pair carries exactly one arc.  The adjacency
    index gives each vertex's neighbours by declaration index; the
    vertices with the same neighbours have the same nonadjacency class.
    """
    vs = h.vertices
    outs, ins, _ = h.adjacency
    groups: dict[frozenset[int], list[int]] = {}
    for k, (out, inn) in enumerate(zip(outs, ins)):
        groups.setdefault(frozenset(out).union(inn), []).append(k)
    parts = []
    for ws, members in groups.items():
        # the members' nonadjacency class is everything but ws
        if len(members) + len(ws) != len(vs) or not ws.isdisjoint(members):
            raise NotMultipartiteTournament(
                "nonadjacency is not an equivalence relation"
            )
        parts.append(tuple(sorted(map(vs.__getitem__, members))))
    # now every cross pair is adjacent, so the non-loop arcs outnumber the
    # cross pairs by the digons; the loop runs only to name the first one
    n = len(vs)
    cross = n * (n - 1) // 2 - sum(len(p) * (len(p) - 1) // 2 for p in parts)
    if sum(map(len, outs)) > cross:
        for a, b in combinations(parts, 2):
            for u in a:
                for v in b:
                    if (u, v) in h.arcs and (v, u) in h.arcs:
                        raise NotMultipartiteTournament(
                            f"cross pair ({u}, {v}) has two arcs")
    parts.sort(key=lambda p: (len(p), p[0]))
    return tuple(parts)


def make_tt(p: int) -> Digraph:
    """Transitive tournament TT_p on vertices 1..p, arcs i->j for i < j."""
    if p < 1:
        raise GraphError(f"TT_p needs p >= 1, got {p}")
    vs = tuple(map(str, range(1, p + 1)))
    return Digraph._wrap(vs, frozenset(combinations(vs, 2)))


def make_tt_minus(p: int) -> Digraph:
    """TT_p without the arc 1->p (p >= 2)."""
    if p < 2:
        raise GraphError(f"TT_p^- needs p >= 2, got {p}")
    base = make_tt(p)
    return Digraph._wrap(base.vertices, base.arcs - {("1", str(p))})


def make_cycle(k: int) -> Digraph:
    """Directed k-cycle on vertices 1..k (k >= 2)."""
    if k < 2:
        raise GraphError(f"directed cycle needs k >= 2, got {k}")
    vs = tuple(map(str, range(1, k + 1)))
    return Digraph._wrap(vs, frozenset(zip(vs, vs[1:] + vs[:1])))


def make_oriented_kb(n: int, m: int) -> Digraph:
    """K_{n,m} oriented from the size-n side (vertices 1..n) to the size-m
    side (vertices n+1..n+m)."""
    if n < 1 or m < 1:
        raise GraphError(f"oriented K needs n, m >= 1, got ({n}, {m})")
    vs = [str(i) for i in range(1, n + m + 1)]
    return Digraph(vs, ((str(i), str(j)) for i in range(1, n + 1)
                        for j in range(n + 1, n + m + 1)))


def extend(h: Digraph, sizes: dict[str, int]) -> tuple[Digraph, dict[str, str]]:
    """Substitute each vertex u by an independent set of sizes[u] copies.

    Only defined for loopless h; each size is a positive int (GraphError
    otherwise).  Returns the extension together with the decomposition map
    (new vertex -> original vertex).
    """
    if h.loops():
        raise GraphError("extend() requires a loopless digraph")
    sizes = _built(dict, sizes, "sizes")
    if set(sizes) != set(h.vertices):
        raise GraphError("sizes must cover exactly the vertices of h")
    for u, c in sizes.items():
        # ints only, as CostMatrix takes costs: no bool, float or str
        if type(c) is not int or c < 1:
            raise GraphError(
                f"size for {_quoted(u)} must be a positive integer, "
                f"got {_quoted(c)}")
    new_vertices = []
    decomposition = {}
    copies: dict[str, list[str]] = {}
    for u in h.vertices:
        copies[u] = [f"{u}_{i}" for i in range(1, sizes[u] + 1)]
        for w in copies[u]:
            new_vertices.append(w)
            decomposition[w] = u
    arcs = [(a, b) for t, head in h.arcs for a in copies[t] for b in copies[head]]
    return Digraph(new_vertices, arcs), decomposition


def first_injection(labels, hosts, fits) -> dict | None:
    """First injective map labels -> hosts in lexicographic order, or None.

    Labels are placed in order, each trying the hosts in order, and
    fits(label, host, assign) must hold right after each placement.  The
    one backtracking search behind is_isomorphic and minmax.find_minmax.
    None at once when there are more labels than hosts.  Without
    recursion: assign holds the labels placed, in order, depth counts
    them, and tries[k] holds the hosts labels[k] has yet to try, for
    k <= depth."""
    total = len(labels)
    if total > len(hosts):
        return None
    assign: dict = {}
    if not total:
        return assign
    used: set = set()
    tries = [iter(hosts)]
    depth = 0
    lab = labels[0]
    while True:
        for v in tries[-1]:
            if v not in used:
                assign[lab] = v
                if fits(lab, v, assign):
                    used.add(v)
                    break
                del assign[lab]
        else:
            # every host tried for this label: undo the placement before it
            if not depth:
                return None
            tries.pop()
            depth -= 1
            lab = labels[depth]
            used.remove(assign.popitem()[1])
            continue
        depth += 1
        if depth == total:
            return assign
        lab = labels[depth]
        tries.append(iter(hosts))


def is_isomorphic(h1: Digraph, h2: Digraph,
                  guard: int = ISO_GUARD) -> dict[str, str] | None:
    """Search for an arc-preserving-and-reflecting bijection h1 -> h2.

    Returns the lexicographically first bijection (h1 vertices in declaration
    order, candidates in h2 declaration order), or None.  A plain exhaustive
    search (first_injection), kept as a test oracle.  Different vertex or
    arc counts answer None first; only the search refuses graphs beyond
    the guard.
    """
    if len(h1.vertices) != len(h2.vertices) or len(h1.arcs) != len(h2.arcs):
        return None
    if len(h1.vertices) > guard:
        raise GuardExceeded(
            f"isomorphism search is limited to {guard} vertices; "
            "pass a larger guard explicitly to override"
        )

    def fits(v: str, w: str, mapping: dict[str, str]) -> bool:
        for v2, w2 in mapping.items():
            if ((v, v2) in h1.arcs) != ((w, w2) in h2.arcs):
                return False
            if ((v2, v) in h1.arcs) != ((w2, w) in h2.arcs):
                return False
        return True

    return first_injection(h1.vertices, h2.vertices, fits)
