"""Min-Max orderings: the staircase verdict, verification and search.

An ordering of V(H) is Min-Max when, for every non-trivial pair of arcs
e = ik and f = js (as position pairs), both (min(i,j), min(k,s)) and
(max(i,j), max(k,s)) are again arcs.  Targets with a Min-Max ordering admit
a polynomial minimum cost homomorphism solver (see solver.solve_minmax).
_is_staircase is the one verdict on the condition, and it reads the rank
rows that _rank_rows builds from Digraph.adjacency: verify_minmax and
solve_minmax decide by it, and find_minmax re-checks the ordering it
returns with it.

find_minmax's search prunes with the pair digraph of Hell and Rafiey
("Monotone proper interval digraphs and min-max orderings", SIAM J.
Discrete Math. 26, 2012): a node (a, a') for each ordered pair of distinct
vertices, read "a before a'", joined to (b, b') when ab and a'b' are arcs,
a != a', b != b', and ab' or a'b is not.  A Min-Max ordering with a < a'
and b' < b would need ab' and a'b, the min and max of ab and a'b', so
every Min-Max ordering orients each component of the pair digraph one way.
_pair_test numbers the components in mirror pairs, c and c ^ 1 holding
(a, b) and (b, a).  An invertible pair, (u, v) and (v, u) in one
component, shows when the mirror's start is already taken, and refutes
the target at once; a placement that orients a component both ways has
no Min-Max completion.  That one test also keeps every placed prefix a
staircase (see find_minmax).
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import accumulate

from .digraph import (Digraph, GraphError, GuardExceeded, InternalError,
                      _built, _collect, _quoted, first_injection)

#: Default cap for the permutation search.
FIND_GUARD = 9


@dataclass(frozen=True)
class Ordering:
    """A permutation of the target's vertices, with 1-based ranks."""

    sequence: tuple[str, ...]

    def __init__(self, sequence):
        seq = tuple(map(str, _built(iter, sequence, "sequence")))
        if len(set(seq)) != len(seq):
            raise GraphError("ordering contains a repeated vertex")
        object.__setattr__(self, "sequence", seq)

    def serialize(self) -> str:
        return ",".join(self.sequence)

    @classmethod
    def parse(cls, text: str) -> "Ordering":
        """Comma-separated names; "" is the empty ordering, and an empty
        name (",," or a comma at either end) is a GraphError."""
        toks = text.split(",") if text else []
        if "" in toks:
            raise GraphError(
                f"ordering {_quoted(text)} has an empty vertex name")
        return cls(toks)


@dataclass(frozen=True)
class ArcPair:
    """Two arcs whose coordinatewise min or max (by position) is no arc."""

    e: tuple[str, str]
    f: tuple[str, str]


def _rank_rows(h: Digraph, seq) -> list[list[int]]:
    """Rank rows of seq, distinct vertices of h (an ordering or a placed
    prefix): rows[r] lists, ascending, each 0-based rank c with an arc
    seq[r] -> seq[c], loops included.  Column c goes into the row of each
    placed in-neighbour of seq[c] (h.adjacency) and into its own row if
    looped: walking seq by rank leaves every row ascending with no sort."""
    _, ins, looped = h.adjacency
    ks = [h._index[v] for v in seq]
    rank = [-1] * len(h.vertices)
    for c, k in enumerate(ks):
        rank[k] = c
    rows: list[list[int]] = [[] for _ in ks]
    for c, k in enumerate(ks):
        for x in ins[k]:
            if rank[x] >= 0:
                rows[rank[x]].append(c)
        if looped[k]:
            rows[c].append(c)
    return rows


def _bits(rows: list[list[int]]) -> list[int]:
    """Each row as one bitmask, bit i for entry i."""
    return [sum(1 << i for i in row) for row in rows]


def _first_violation(rows: list[list[int]]
                     ) -> tuple[tuple[int, int], tuple[int, int]] | None:
    """First pair of rank arcs e = (i, k), f = (j, s), by row and then
    column, whose coordinatewise min or max is no arc; None if there is
    none.  A pair is non-trivial only when i < j and s < k, and fails when
    s is not in row i or k not in row j.  With rows as bitmasks R and up(m)
    the columns above m's first one, row i's failing columns against row j
    are R_i & (~R_j & up(R_j) | R_j & up(R_j & ~R_i)): e takes the least i,
    then k, f the least j for it, then s, in O(n^2) word operations."""
    bits = _bits(rows)

    def up(m: int) -> int:
        return -((m & -m) << 1)

    for i, ri in enumerate(bits):
        fail = [ri & (~rj & up(rj) | rj & up(rj & ~ri))
                for rj in bits[i + 1:]]
        if any(fail):
            low, j = min((m & -m, j) for j, m in enumerate(fail, i + 1) if m)
            ss = bits[j] & ~ri if bits[j] & low else bits[j]
            return (i, low.bit_length() - 1), (j, (ss & -ss).bit_length() - 1)
    return None


def _is_staircase(rows: list[list[int]]) -> bool:
    """Whether rank rows form a staircase: among the nonempty columns (count
    numbers them), every row's columns are contiguous, and the rows' first
    and last columns are nondecreasing down the nonempty rows."""
    filled = set().union(*rows)
    count = list(accumulate(k in filled for k in range(len(rows))))
    last_lo = last_hi = -1
    for row in filter(None, rows):
        lo, hi = count[row[0]], count[row[-1]]
        if hi - lo != len(row) - 1 or lo < last_lo or hi < last_hi:
            return False
        last_lo, last_hi = lo, hi
    return True


def verify_minmax(h: Digraph,
                  ordering: Ordering) -> tuple[bool, ArcPair | None]:
    """Check the Min-Max condition; on failure return the lexicographically
    first violating pair (arcs compared as position pairs).

    The verdict takes O(n + m) for n vertices and m arcs: an ordering is
    Min-Max exactly when its rank rows form a staircase (_is_staircase).
    If rows i < j hold arcs (i, k) and (j, s) with k > s, then row i starts
    at or before s and row j ends at or after k, so contiguity puts (i, s)
    and (j, k) in the arcs; conversely a row that skips a nonempty column,
    or a later row that starts or ends earlier, gives a violating pair.
    Only a failed ordering asks _first_violation for the first one.
    """
    if set(ordering.sequence) != set(h.vertices):
        raise GraphError("ordering is not a permutation of the target's vertices")
    rows = _rank_rows(h, ordering.sequence)
    if _is_staircase(rows):
        return True, None
    found = _first_violation(rows)
    if found is None:
        raise InternalError("a non-staircase ordering has no violating pair")
    (i, k), (j, s) = found
    seq = ordering.sequence
    return False, ArcPair(e=(seq[i], seq[k]), f=(seq[j], seq[s]))


def _pair_test(h: Digraph):
    """find_minmax's pair test, from the components of h's pair digraph:
    fits(rank, v, _) tells whether placing v at `rank` (1-based) after the
    placed prefix keeps every component oriented one way.  None when h has
    an invertible pair, and so no Min-Max ordering.

    Node (a, a') is numbered a * n + a' by declaration index.  Each arc
    (a, a') -> (b, b') comes with its reverse, so _collect along near,
    which computes a node's neighbours (out and in) when it is popped,
    finds the components in O(n^2) memory.  Swapping both ends of every
    node maps arcs to arcs, so the mirror of a component, that of (b, a)
    for its node (a, b), is again one.  The components are numbered in
    mirror pairs: the component of (b, a) is collected right after that of
    (a, b), so the mirror of component c is c ^ 1.  The nodes taken so far
    are closed under the swap, so (b, a), free before, is taken after the
    first collection only if it lies in the component of (a, b): that is an
    invertible pair, and the test answers None without labelling the rest.

    A placement of v at 0-based rank r puts v before every unplaced u: it
    orients the component of each (v, u) forward and its mirror backward,
    and fails when one of them is already oriented backward.  Each pair
    before r was oriented by the placement of its first vertex, so the
    test is complete.  first_injection calls fits for a rank only once the
    lower ranks are final, so a call first undoes the placements at ranks
    r and above.
    """
    outs, ins, looped = h.adjacency
    n = len(h.vertices)
    # neighbour lists with loops, and as bitmasks
    succ = [o + (k,) if looped[k] else o for k, o in enumerate(outs)]
    pred = [i + (k,) if looped[k] else i for k, i in enumerate(ins)]
    succ_bits, pred_bits = _bits(succ), _bits(pred)

    def near(node: int) -> list[int]:
        a, a2 = divmod(node, n)
        found = []
        for adj, bits in ((succ, succ_bits), (pred, pred_bits)):
            for b in adj[a]:
                for b2 in adj[a2]:
                    if b != b2 and not (bits[a] >> b2 & bits[a2] >> b & 1):
                        found.append(b * n + b2)
        return found

    free = [a != b for a in range(n) for b in range(n)]
    comp = [-1] * (n * n)
    count = 0
    for node in range(n * n):
        if free[node]:
            a, b = divmod(node, n)
            for start in node, b * n + a:
                if not free[start]:
                    return None
                for x in _collect(near, start, free):
                    comp[x] = count
                count += 1

    index = h._index
    sign = [0] * count         # 1 forward, -1 backward, 0 not yet oriented
    unplaced = [True] * n
    # by rank: the vertex placed (declaration index) and the components
    # its placement oriented forward
    placed: list[tuple[int, list[int]]] = []

    def fits(rank: int, v: str, by_rank: dict[int, str]) -> bool:
        while len(placed) >= rank:
            k, done = placed.pop()
            unplaced[k] = True
            for c in done:
                sign[c] = sign[c ^ 1] = 0
        k = index[v]
        unplaced[k] = False
        new: list[int] = []
        placed.append((k, new))
        base = k * n
        for u in range(n):
            if unplaced[u]:
                c = comp[base + u]
                if sign[c] < 0:
                    return False
                if not sign[c]:
                    sign[c] = 1
                    sign[c ^ 1] = -1
                    new.append(c)
        return True

    return fits


def find_minmax(h: Digraph, guard: int = FIND_GUARD) -> Ordering | None:
    """Lexicographically first Min-Max ordering, or None.

    Ranks 1..n are filled in turn, each trying the vertices in declaration
    order (digraph.first_injection); a partial placement is abandoned as soon
    as it orients a component of the pair digraph both ways (_pair_test,
    O(n) per placement; the pair digraph is defined in the module
    docstring).  Every Min-Max ordering orients each component one way, so
    no Min-Max ordering is cut, and an invertible pair answers None at once.

    The same test keeps every placed prefix a staircase.  Take placed arcs
    (i, k) and (j, s), as ranks, with i < j and s < k, that lack (i, s) or
    (j, k): they join the nodes (i, j) and (k, s).  Placing i oriented
    (i, j) forward, as j came later, and placing s oriented (k, s)
    backward, as k came later; so a prefix the test passes has no such
    pair.  The search starts only when the declaration order, the first
    permutation, fails the staircase; its pair digraph is built then, so a
    target whose declaration order is Min-Max pays for none.  That O(n + m)
    check comes before the guard, so such an order is returned at any size;
    past `guard` vertices only the search raises GuardExceeded.  The test
    only prunes: the ordering found is re-checked by _is_staircase, the
    package's one Min-Max verdict, and a failure raises InternalError.
    """
    seq = h.vertices
    if _is_staircase(_rank_rows(h, seq)):
        return Ordering(seq)
    n = len(seq)
    if n > guard:
        raise GuardExceeded(
            f"Min-Max ordering search is limited to {guard} vertices; "
            "raise the guard explicitly to search this target"
        )
    fits = _pair_test(h)
    if fits is None:
        return None
    found = first_injection(range(1, n + 1), h.vertices, fits)
    if found is None:
        return None
    if not _is_staircase(_rank_rows(h, found.values())):
        raise InternalError("the ordering found fails the staircase check")
    return Ordering(found.values())

