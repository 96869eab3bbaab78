"""Min-Max orderings: the staircase verdict, verification and search.

An ordering of V(H) is Min-Max when, for every non-trivial pair of arcs
e = ik and f = js (as position pairs), both (min(i,j), min(k,s)) and
(max(i,j), max(k,s)) are again arcs.  Targets with a Min-Max ordering admit
a polynomial minimum cost homomorphism solver (see solver.solve_minmax).
_is_staircase is the one test of the condition: verify_minmax,
find_minmax and solve_minmax decide by it, the first and last on the list
_position_arcs builds.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import groupby

from .digraph import (Digraph, GraphError, GuardExceeded, InternalError,
                      first_injection, make_oriented_kb)

#: Default cap for the permutation search.
FIND_GUARD = 9


@dataclass(frozen=True)
class Ordering:
    """A permutation of the target's vertices, with 1-based ranks."""

    sequence: tuple[str, ...]

    def __init__(self, sequence):
        seq = tuple(str(v) for v in sequence)
        if len(set(seq)) != len(seq):
            raise GraphError("ordering contains a repeated vertex")
        object.__setattr__(self, "sequence", seq)

    def rank(self) -> dict[str, int]:
        return {v: i + 1 for i, v in enumerate(self.sequence)}

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
    """A pair of arcs in position space, with its coordinatewise min/max."""

    e: tuple[str, str]
    f: tuple[str, str]
    min_pair: tuple[int, int]
    max_pair: tuple[int, int]


def _position_arcs(h: Digraph, ordering: Ordering) -> list[tuple[int, int]]:
    """h's arcs as pairs of 1-based ranks in the ordering, sorted; GraphError
    unless the ordering is a permutation of h's vertices."""
    pos = ordering.rank()
    if set(pos) != set(h.vertices):
        raise GraphError("ordering is not a permutation of the target's vertices")
    return sorted((pos[t], pos[head]) for t, head in h.arcs)


def _first_violation(arcs: list[tuple[int, int]]
                     ) -> tuple[tuple[int, int], ...] | None:
    """First pair of position arcs (in list order) whose coordinatewise min
    or max is not an arc, as (e, f, min_pair, max_pair); None if there is
    none.  Pairs whose min and max are e and f themselves are trivial.
    Only verify_minmax's failure path calls it, to report the pair."""
    arc_set = set(arcs)
    for a, (i, k) in enumerate(arcs):
        for j, s in arcs[a + 1:]:
            mn = (min(i, j), min(k, s))
            mx = (max(i, j), max(k, s))
            if {mn, mx} == {(i, k), (j, s)}:
                continue
            if mn not in arc_set or mx not in arc_set:
                return (i, k), (j, s), mn, mx
    return None


def _is_staircase(arcs: list[tuple[int, int]]) -> bool:
    """Whether sorted position arcs form a staircase: among the nonempty
    columns, every row's columns are contiguous, and the rows' first and
    last columns are nondecreasing down the nonempty rows."""
    rank = {k: r for r, k in enumerate(sorted({k for _, k in arcs}))}
    last_lo = last_hi = -1
    for _, row in groupby(arcs, key=lambda arc: arc[0]):
        cols = [rank[k] for _, k in row]
        lo, hi = cols[0], cols[-1]
        if hi - lo != len(cols) - 1 or lo < last_lo or hi < last_hi:
            return False
        last_lo, last_hi = lo, hi
    return True


def verify_minmax(h: Digraph,
                  ordering: Ordering) -> tuple[bool, ArcPair | None]:
    """Check the Min-Max condition; on failure return the lexicographically
    first violating pair (arcs compared as position pairs).

    The verdict takes O(m log m) for m arcs: an ordering is Min-Max exactly
    when its position arcs form a staircase (_is_staircase).  If rows i < j
    hold arcs (i, k) and (j, s) with k > s, then row i starts at or before
    s and row j ends at or after k, so contiguity puts (i, s) and (j, k) in
    the arcs; conversely a row that skips a nonempty column, or a later row
    that starts or ends earlier, gives a violating pair.  Only a failed
    ordering pays the quadratic scan for the first violating pair.
    """
    arcs = _position_arcs(h, ordering)
    if _is_staircase(arcs):
        return True, None
    found = _first_violation(arcs)
    if found is None:
        raise InternalError("a non-staircase ordering has no violating pair")
    (i, k), (j, s), mn, mx = found
    seq = ordering.sequence
    return False, ArcPair(e=(seq[i - 1], seq[k - 1]), f=(seq[j - 1], seq[s - 1]),
                          min_pair=mn, max_pair=mx)


def find_minmax(h: Digraph, guard: int = FIND_GUARD) -> Ordering | None:
    """Lexicographically first Min-Max ordering, or None.

    Ranks 1..n are filled in turn, each trying the vertices in declaration
    order (digraph.first_injection); a partial placement is abandoned as soon
    as the position arcs among the placed vertices fail _is_staircase, the
    one Min-Max verdict.  Every min and max position of two placed arcs is
    a placed rank, so that verdict is the pair condition on the placed
    arcs, and a failure stays a failure whatever is placed later.
    """
    n = len(h.vertices)
    if n > guard:
        raise GuardExceeded(
            f"Min-Max ordering search is limited to {guard} vertices; "
            "raise the guard explicitly to search this target"
        )
    if n == 0:
        return Ordering(())

    def fits(rank: int, v: str, by_rank: dict[int, str]) -> bool:
        placed = {w: r for r, w in by_rank.items()}
        return _is_staircase(sorted((placed[t], placed[head])
                                    for t, head in h.arcs
                                    if t in placed and head in placed))

    seq = first_injection(range(1, n + 1), h.vertices, fits)
    return None if seq is None else Ordering(seq.values())


def make_rc_k12() -> Digraph:
    """Reflexive closure of the single-source orientation of K_{1,2}."""
    return make_oriented_kb(1, 2).reflexive_closure()


def make_rc_k21() -> Digraph:
    """Reflexive closure of the single-sink orientation of K_{2,1}."""
    return make_oriented_kb(2, 1).reflexive_closure()
