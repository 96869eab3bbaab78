"""Min-Max orderings: the staircase verdict, verification and search.

An ordering of V(H) is Min-Max when, for every non-trivial pair of arcs
e = ik and f = js (as position pairs), both (min(i,j), min(k,s)) and
(max(i,j), max(k,s)) are again arcs.  Targets with a Min-Max ordering admit
a polynomial minimum cost homomorphism solver (see solver.solve_minmax).
_is_staircase is the one test of the condition, and it reads the rank
rows that _rank_rows builds from Digraph.adjacency: verify_minmax,
find_minmax and solve_minmax all decide by it on those rows.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import accumulate

from .digraph import (Digraph, GraphError, GuardExceeded, InternalError,
                      _built, first_injection, make_oriented_kb)

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
            raise GraphError(f"ordering {text!r} has an empty vertex name")
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


def _first_violation(arcs: list[tuple[int, int]]
                     ) -> tuple[tuple[int, int], tuple[int, int]] | None:
    """First pair of position arcs (in list order) whose coordinatewise min
    or max is not an arc, as (e, f); None if there is none.  Pairs whose
    min and max are e and f themselves are trivial.  Only verify_minmax's
    failure path calls it, to report the pair."""
    arc_set = set(arcs)
    for a, (i, k) in enumerate(arcs):
        for j, s in arcs[a + 1:]:
            mn = (min(i, j), min(k, s))
            mx = (max(i, j), max(k, s))
            if {mn, mx} == {(i, k), (j, s)}:
                continue
            if mn not in arc_set or mx not in arc_set:
                return (i, k), (j, s)
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
    Only a failed ordering pays the quadratic scan for the first one.
    """
    if set(ordering.sequence) != set(h.vertices):
        raise GraphError("ordering is not a permutation of the target's vertices")
    rows = _rank_rows(h, ordering.sequence)
    if _is_staircase(rows):
        return True, None
    found = _first_violation([(i, k + 1) for i, row in enumerate(rows, 1)
                              for k in row])
    if found is None:
        raise InternalError("a non-staircase ordering has no violating pair")
    (i, k), (j, s) = found
    seq = ordering.sequence
    return False, ArcPair(e=(seq[i - 1], seq[k - 1]),
                          f=(seq[j - 1], seq[s - 1]))


def find_minmax(h: Digraph, guard: int = FIND_GUARD) -> Ordering | None:
    """Lexicographically first Min-Max ordering, or None.

    Ranks 1..n are filled in turn, each trying the vertices in declaration
    order (digraph.first_injection); a partial placement is abandoned as soon
    as the rank rows of the placed prefix fail _is_staircase, the one
    Min-Max verdict.  Every min and max position of two placed arcs is
    a placed rank, so that verdict is the pair condition on the placed
    arcs, and a failure stays a failure whatever is placed later.
    """
    n = len(h.vertices)
    if n > guard:
        raise GuardExceeded(
            f"Min-Max ordering search is limited to {guard} vertices; "
            "raise the guard explicitly to search this target"
        )

    def fits(rank: int, v: str, by_rank: dict[int, str]) -> bool:
        return _is_staircase(_rank_rows(h, by_rank.values()))

    seq = first_injection(range(1, n + 1), h.vertices, fits)
    return None if seq is None else Ordering(seq.values())


def make_rc_k12() -> Digraph:
    """Reflexive closure of the single-source orientation of K_{1,2}."""
    return make_oriented_kb(1, 2).reflexive_closure()


def make_rc_k21() -> Digraph:
    """Reflexive closure of the single-sink orientation of K_{2,1}."""
    return make_oriented_kb(2, 1).reflexive_closure()
