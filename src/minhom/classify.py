"""Complexity classification of target digraphs with certificates.

Verdicts for the named target families come from their stated
characterizations (family membership), and each family's structure gives
its certificate, an ordering that _poly re-checks (find_minmax searches for
one only in classify_general).  A hardness witness is either an induced
directed cycle carrying a loop, or a small induced subdigraph whose
bipartite representation contains a forbidden structure; it is extracted
best-effort and always re-validated.
"""

from __future__ import annotations

from itertools import (combinations, combinations_with_replacement,
                       permutations, product)

from .birep import (ForbiddenStructure, bg, forbidden_hosts, label_hosts,
                    validate_forbidden)
from .digraph import (Digraph, GraphError, GuardExceeded, InternalError,
                      NotMultipartiteTournament, _Record, components,
                      cycle_walk, is_acyclic, partite_structure)
from .minmax import FIND_GUARD, Ordering, find_minmax, verify_minmax

POLY = "poly"
NP_HARD = "np-hard"
UNKNOWN = "unknown"

#: Largest induced subset inspected by the witness search; every hardness
#: case certified here lives in a <= 4-vertex induced subdigraph.
WITNESS_SUBSET_CAP = 4

#: Largest n enumerate_rmpt accepts.  It tries every orientation of the
#: cross pairs of each partition against every move: n = 7 takes about
#: half a minute, and n = 8 (up to 28 cross pairs) does not finish.
ENUMERATE_LIMIT = 7


class ReflexiveCycleWitness(_Record):
    """An induced directed cycle (length >= 3) with at least one loop."""

    _fields = ("cycle", "looped")

    def __init__(self, cycle: tuple[str, ...], looped: str) -> None:
        object.__setattr__(self, "cycle", cycle)
        object.__setattr__(self, "looped", looped)


class BGForbiddenWitness(_Record):
    """A forbidden structure inside the bipartite representation of a small
    induced subdigraph."""

    _fields = ("subset", "structure")

    def __init__(self, subset: tuple[str, ...],
                 structure: ForbiddenStructure) -> None:
        object.__setattr__(self, "subset", subset)
        object.__setattr__(self, "structure", structure)


Witness = ReflexiveCycleWitness | BGForbiddenWitness


class Classification(_Record):
    """Verdict, the rule that produced it, and an optional certificate."""

    _fields = ("verdict", "rule", "ordering", "witness", "cycle", "notes")

    def __init__(self, verdict: str, rule: str,
                 ordering: Ordering | None = None,
                 witness: Witness | None = None,
                 cycle: tuple[str, ...] | None = None,
                 notes: tuple[str, ...] = ()) -> None:
        object.__setattr__(self, "verdict", verdict)
        object.__setattr__(self, "rule", rule)
        object.__setattr__(self, "ordering", ordering)
        object.__setattr__(self, "witness", witness)
        object.__setattr__(self, "cycle", cycle)
        object.__setattr__(self, "notes", notes)


def validate_witness(h: Digraph, w: Witness) -> bool:
    """Re-check a hardness witness against its host digraph."""
    if isinstance(w, ReflexiveCycleWitness):
        cyc = w.cycle
        k = len(cyc)
        if k < 3 or len(set(cyc)) != k or not all(v in h for v in cyc):
            return False
        if w.looped not in cyc or not h.has_loop(w.looped):
            return False
        sub = h.induced(cyc)
        want = {(cyc[i], cyc[(i + 1) % k]) for i in range(k)}
        return sub.nonloop_arcs() == frozenset(want)
    if isinstance(w, BGForbiddenWitness):
        if not all(v in h for v in w.subset):
            return False
        g = bg(h.induced(w.subset))
        if not validate_forbidden(g, w.structure):
            return False
        hosts = set(w.structure.host_vertices())
        return any(hosts <= set(comp) for comp in components(g))
    return False


def _witnesses(h: Digraph):
    """Every hardness witness candidate, in find_witness's search order, on
    bitmasks by declaration index."""
    vs = h.vertices
    outs, ins, looped = h.adjacency
    # per vertex: weak-neighbour mask, and out-mask with its loop
    out = [sum(1 << x for x in o) for o in outs]
    near = [m | sum(1 << x for x in i) for m, i in zip(out, ins)]
    out = [m | looped[k] << k for k, m in enumerate(out)]
    for size in range(3, WITNESS_SUBSET_CAP + 1):
        for subset in combinations(range(len(vs)), size):
            mask = sum(1 << k for k in subset)
            # the loopless arcs inside as one directed cycle: size steps
            # of out-degree 1 from subset[0] back to it through all of subset
            walk = [subset[0]]
            for _ in range(size):
                step = out[walk[-1]] & mask & ~(1 << walk[-1])
                if not step or step & step - 1:
                    break
                walk.append(step.bit_length() - 1)
            if walk[size:] != [subset[0]] or len(set(walk)) < size:
                continue
            walk.pop()
            looped_at = next((v for v in walk if out[v] >> v & 1), None)
            if looped_at is not None:
                yield ReflexiveCycleWitness(tuple(map(vs.__getitem__, walk)),
                                            vs[looped_at])
    # BG(H[S]) has 2|S| vertices and the smallest forbidden structure (the
    # 6-cycle) has 6, so subsets of fewer than 3 vertices hold none
    memo: dict[tuple[int, ...], tuple[str, list[int]] | None] = {}
    for size in range(3, WITNESS_SUBSET_CAP + 1):
        for subset in combinations(range(len(vs)), size):
            mask = sum(1 << k for k in subset)
            reached = todo = 1 << subset[0]
            while todo:
                low = todo & -todo
                new = near[low.bit_length() - 1] & mask & ~reached
                reached |= new
                todo ^= low | new
            if reached != mask:
                continue  # not weakly connected
            # BG(H[S]) by position, loops included: v_1 at i, w_2 at size + j
            adj = [0] * 2 * size
            for i, v in enumerate(subset):
                for j, w in enumerate(subset):
                    if out[v] >> w & 1:
                        adj[i] |= 1 << size + j
                        adj[size + j] |= 1 << i
            key = tuple(adj)
            if key not in memo:
                memo[key] = forbidden_hosts(size, adj)
            if memo[key] is not None:
                names = [vs[v] for v in subset]
                yield BGForbiddenWitness(tuple(names), label_hosts(
                    *memo[key], [f"{v}_{p}" for p in (1, 2) for v in names]))


def find_witness(h: Digraph) -> Witness | None:
    """Deterministic search for a machine-checkable hardness witness.

    First all induced directed cycles of length 3..4 carrying a loop, then
    all induced subsets of 3 or 4 vertices whose bipartite representation
    contains a forbidden structure, each phase over subsets in lexicographic
    order (declaration order).  The forbidden patterns are connected, so
    every hit automatically lies in one component of the bipartite graph.

    The second phase visits only weakly connected subsets S, and the first
    witness is the same as over all subsets.  BG(H[S]) is the disjoint
    union of BG over the weak components of H[S], and a forbidden structure
    is connected, so one in BG(H[S]) for a disconnected S lies in BG(H[S1])
    for a component S1 of S: S1 is searched first (it is smaller), or it
    has at most 2 vertices and holds no structure.

    Both phases run on bitmasks, with no graph built per subset.  The
    second builds BG(H[S]) by position once per subset, as the neighbour
    masks forbidden_hosts reads, from the arcs among S's positions, loops
    included.  The kernel's answer depends on those masks alone, so it is
    memoized on them, per call: two subsets with one arc pattern get the
    same structure, renamed to each one's vertices.

    The witness returned has passed validate_witness, which rebuilds
    bg(h.induced(subset)) by name; InternalError otherwise.
    """
    w = next(_witnesses(h), None)
    if w is not None and not validate_witness(h, w):
        raise InternalError("bad witness")
    return w


def _poly(h: Digraph, rule: str, ordering: Ordering) -> Classification:
    """Polynomial by a rule whose certificate is `ordering`, re-checked
    by verify_minmax; InternalError if it is not Min-Max."""
    if not verify_minmax(h, ordering)[0]:
        raise InternalError(f"{rule} ordering is not Min-Max")
    return Classification(POLY, rule, ordering=ordering)


def _hard(h: Digraph, rule: str) -> Classification:
    """NP-hard by a theorem's rule, with find_witness's witness or the
    note that it found none."""
    w = find_witness(h)
    return Classification(NP_HARD, rule, witness=w,
                          notes=() if w is not None else ("no-witness-found",))


# -- reflexive multipartite tournaments -----------------------------------


def classify_reflexive_mpt(h: Digraph) -> Classification:
    """Dichotomy for reflexive multipartite tournaments.

    Polynomial exactly for the reflexive closures of TT_k, TT_{k+1}^-,
    and the two one-way orientations of K_{1,2}; NP-hard otherwise, with a
    validated witness.  With n parts h is a tournament; with n - 1, h ~
    RC(TT_n^-) iff it is acyclic and its acyclic ordering (unique: TT_n^-
    has the path 1..n) ends in the two-vertex part, parts[-1].  The
    3-vertex stars get (leaf, centre, leaf).
    """
    if not all(h.adjacency[2]):
        raise GraphError("classify_reflexive_mpt requires a reflexive digraph")
    parts = partite_structure(h)
    k = len(parts)
    n = len(h.vertices)
    if k < 2:
        raise GraphError("classify_reflexive_mpt requires at least 2 partite sets")

    if k == n:
        return _tournament(h)
    if k == n - 1:
        acyclic, order = is_acyclic(h)
        if acyclic and {order[0], order[-1]} == set(parts[-1]):
            return _poly(h, "thm4.1", Ordering(order))
    if n == 3:
        # the two paths are RC(TT_3^-), so h is an oriented star
        (centre,) = parts[0]
        first, second = (v for v in h.vertices if v != centre)
        return _poly(h, "thm4.1", Ordering((first, centre, second)))

    w = find_witness(h)
    if w is None:
        raise InternalError(
            "no witness for a hard reflexive multipartite tournament")
    return Classification(NP_HARD, "thm4.1", witness=w)


def classify_tournament_wpl(h: Digraph) -> Classification:
    """Dichotomy for tournaments with possible loops.

    Polynomial iff the loopless part is acyclic (the acyclic ordering is then
    a Min-Max ordering) or h is the loopless directed 3-cycle; NP-hard
    otherwise, with a witness or the note that none was found.  h is a
    tournament w.p.l. exactly when each vertex is a partite set of its own.
    """
    try:
        tournament = len(partite_structure(h)) == len(h.vertices)
    except NotMultipartiteTournament:
        tournament = False
    if not tournament:
        # some pair carries 0 or 2 arcs; the loop only names the first
        for u, v in combinations(h.vertices, 2):
            if ((u, v) in h.arcs) == ((v, u) in h.arcs):
                raise GraphError(
                    "classify_tournament_wpl requires a tournament w.p.l. "
                    f"(pair ({u}, {v}) breaks it)")
    return _tournament(h)


def _tournament(h: Digraph) -> Classification:
    """Theorem 4.3's verdict on h, a tournament with possible loops."""
    acyclic, order = is_acyclic(h)
    if acyclic:
        return _poly(h, "thm4.3", Ordering(order))
    if len(h.vertices) == 3 and not any(h.adjacency[2]):
        return Classification(POLY, "thm4.3")
    return _hard(h, "thm4.3")


# -- the 16-case family on four vertices ----------------------------------

T5_LOOPS = ("11", "22", "33", "44")
T5_BASE_ARCS = (("1", "2"), ("2", "3"), ("3", "4"), ("1", "4"), ("2", "4"))


def t5_config(loops) -> frozenset[str]:
    b = frozenset(str(x) for x in loops)
    bad = b - set(T5_LOOPS)
    if bad:
        raise GraphError(f"invalid loop indicators: {sorted(bad)}")
    return b


def build_theorem5_digraph(b) -> Digraph:
    """Digraph on {1,2,3,4} with arcs {12,23,34,14,24} plus the loops in b."""
    b = t5_config(b)
    arcs = list(T5_BASE_ARCS) + [(x[0], x[1]) for x in sorted(b)]
    return Digraph(("1", "2", "3", "4"), arcs)


def classify_theorem5(b) -> Classification:
    """Classify the four-vertex family: polynomial iff 33 in B and 44 not,
    each polynomial case certified by the Min-Max ordering 1,2,4,3."""
    b = t5_config(b)
    h = build_theorem5_digraph(b)
    if "33" in b and "44" not in b:
        return _poly(h, "thm5.1", Ordering(("1", "2", "4", "3")))
    return _hard(h, "thm5.1")


# -- generic sufficient conditions ----------------------------------------


def classify_general(h: Digraph, guard: int = FIND_GUARD) -> Classification:
    """Best-effort classification from the generic sufficient conditions.

    The two polynomial rules come first: a loopless directed cycle (solved
    exactly by solve_cycle), then a found Min-Max ordering (solved by
    solve_minmax).  Then a found hardness witness gives NP-hard; otherwise
    the verdict is unknown, noting a Min-Max search the guard stopped.
    Never claims more than the sufficient conditions justify.

    The order changes no verdict: MinHOM(H) is polynomial for a target
    with a Min-Max ordering or a directed-cycle core, and NP-hard for one
    with a witness, so a target with both would give P = NP.
    """
    walk = None if any(h.adjacency[2]) else cycle_walk(h)
    if walk is not None:
        k = len(walk)
        if h.arcs != {(walk[i], walk[(i + 1) % k]) for i in range(k)}:
            raise InternalError("bad directed-cycle certificate")
        return Classification(POLY, "directed-cycle", cycle=walk)
    notes: tuple[str, ...] = ()
    try:
        ordering = find_minmax(h, guard=guard)
    except GuardExceeded:
        ordering, notes = None, ("minmax-skipped-guard",)
    if ordering is not None:
        return _poly(h, "minmax", ordering)
    w = find_witness(h)
    if w is not None:
        rule = "lemma4.2" if isinstance(w, ReflexiveCycleWitness) else "bg-forbidden"
        return Classification(NP_HARD, rule, witness=w)
    return Classification(UNKNOWN, "none", notes=notes)


# -- exhaustive enumeration -----------------------------------------------


def _partitions(n: int) -> set[tuple[int, ...]]:
    """The partitions of n as non-decreasing tuples.  Every multiset of
    sizes is tried, which is cheap as enumerate_rmpt refuses n above
    ENUMERATE_LIMIT first."""
    return {p for k in range(1, n + 1)
            for p in combinations_with_replacement(range(1, n + 1), k)
            if sum(p) == n}


def enumerate_rmpt(n: int) -> list[Digraph]:
    """All reflexive multipartite tournaments on n vertices with >= 2 partite
    sets, up to isomorphism, in a deterministic order (n >= 2).

    Each part-size partition gets fixed labelled parts, and its cross pairs
    are oriented in product order.  An isomorphism maps partite sets onto
    partite sets, so two orientations of one partition are isomorphic
    exactly when a move (a vertex permutation sending every part into one
    part) carries one onto the other; different partitions never are.  The
    first orientation of each orbit is kept, and its whole orbit is marked
    seen as bit tuples (bit 0 for the cross pair (u, v) is the arc u -> v).
    """
    if n < 2:
        raise GraphError(f"enumerate_rmpt needs n >= 2, got {n}")
    if n > ENUMERATE_LIMIT:
        raise GuardExceeded(
            f"enumerate_rmpt is limited to n <= {ENUMERATE_LIMIT}, got {n}")
    found: list[Digraph] = []
    for part_sizes in sorted(_partitions(n), reverse=True):
        if len(part_sizes) < 2:
            continue
        parts = []
        nxt = 1
        for size in part_sizes:
            parts.append([str(i) for i in range(nxt, nxt + size)])
            nxt += size
        vertices = [v for part in parts for v in part]
        cross = [(u, v) for a, b in combinations(parts, 2)
                 for u in a for v in b]
        index = {pair: i for i, pair in enumerate(cross)}
        part_of = {v: i for i, part in enumerate(parts) for v in part}
        moves = []  # per move, where each cross bit goes and whether it flips
        for perm in permutations(vertices):
            m = dict(zip(vertices, perm))
            if all(len({part_of[m[v]] for v in part}) == 1 for part in parts):
                moves.append([(index[m[u], m[v]], 0) if (m[u], m[v]) in index
                              else (index[m[v], m[u]], 1) for u, v in cross])
        seen: set[tuple[int, ...]] = set()
        for bits in product((0, 1), repeat=len(cross)):
            if bits in seen:
                continue
            arcs = [(v, v) for v in vertices]
            for (u, v), bit in zip(cross, bits):
                arcs.append((u, v) if bit == 0 else (v, u))
            found.append(Digraph(vertices, arcs))
            for move in moves:
                image = [0] * len(cross)
                for bit, (j, flip) in zip(bits, move):
                    image[j] = bit ^ flip
                seen.add(tuple(image))
    return found
