"""Exact minimum cost homomorphism solvers.

Three routes are provided:

* solve_bruteforce — depth-first search (_search) with forward checking on
  label bitmasks and a least-cost bound; the independent oracle everything
  else is validated against.  solve_auto's last route, for targets with
  neither a cycle walk nor a found ordering, runs the reductions of
  solve_minmax (their costs need no ordering) with labels in the target's
  declaration order, then _search on what is left; where optima tie, its
  map need not be brute force's.
* solve_minmax — the polynomial route for targets with a Min-Max ordering.
  Each input vertex gets one cost vector.  The reductions rewrite the
  vectors and arcs in place, and each vertex they remove goes on one trail.
  Pendant trees are folded first (the treewidth-1 case of CSP dynamic
  programming, Freuder 1990): a vertex with one non-loop arc left, to or
  from w, adds for each label of w its least cost over the labels that arc
  allows, and goes on the trail with that cost's least-rank label (its
  pick) for each label of w.  When the loopless part of the target is
  acyclic, every closed walk of d maps to one looped vertex, so every
  homomorphism is constant on each strong component of the vertices left
  (Kosaraju's two searches).  Each component contracts into its first
  member, the others going on the trail with "same label", and the first
  members are folded again.  What is left is solved as a minimum s-t cut
  over threshold variables x_{u,i} = [label(u) >= i], found with a
  Boykov–Kolmogorov max-flow: node c * (p - 1) + i is x_{u,i} of the c-th
  vertex left in declaration order (p labels, i = 2..p).  Each vertex's
  chain runs s -> x_{u,2} -> ... -> x_{u,p} -> t, its i-th step costing
  label i, and each step between two thresholds is one edge pair whose
  reverse, x_{u,i+1} -> x_{u,i}, cannot be cut.  A forest input builds no
  network.  The target's rank rows (minmax._rank_rows) must pass
  the one staircase verdict (minmax._is_staircase), which guards the
  construction; the thresholds lam and mu are then read off the rows.
  The cut's map is read off the max-flow's final source tree, which is the
  set reachable from s in the residual network (see FlowNetwork) and the
  unique inclusion-minimal minimum cut, the same for every maximum flow, so
  the map does not depend on which is found.  The optimal maps form a lattice
  under the coordinatewise order of ranks, and that cut is its least
  element.  One backward pass over the trail labels every other vertex
  from its neighbour's label.  A removed vertex's vector never changes
  after it goes, so its pick is the least-rank label of least cost among
  those its neighbour's label allows: were a smaller label optimal there,
  a smaller optimum would exist.  Contracted members share their first
  member's label, as maps of d and of the contracted digraph correspond
  one to one with equal cost and the same order.  So the map is the
  least optimum, the one the cut over the whole input would give.
* solve_cycle — rotation propagation for directed-cycle targets, in the
  target's own vertex names, along the walk digraph.cycle_walk returns.

All costs are signed integers; negative costs are absorbed by per-vertex
shifts in the cut network, so every answer is exact.  Every route (hence
solve_auto) raises GraphError for a cost entry outside V(D) x V(H).
"""

from __future__ import annotations

import re
import sys
from collections import Counter, deque
from dataclasses import dataclass
from functools import partial
from itertools import product, repeat
from operator import itemgetter
from typing import Callable, Sequence

from .digraph import (Digraph, GraphError, GuardExceeded, InternalError,
                      _built, _pairs, _quoted, cycle_walk, is_acyclic,
                      strong_components)
from .minmax import (FIND_GUARD, Ordering, _bits, _rank_rows, find_minmax,
                     verify_minmax)


class BudgetExceeded(GraphError):
    """The brute-force search ran past its node budget."""


#: Default node budget for the brute-force solver.
BRUTE_BUDGET = 2_000_000

_INT = re.compile(r"[+-]?[0-9]+")


@dataclass(frozen=True)
class CostMatrix:
    """Sparse cost table c_i(u); unspecified entries cost 0.  Costs are
    ints, or strings of an optional sign and ASCII digits (as parse_costs)
    within int()'s digit limit, sys.get_int_max_str_digits()."""

    entries: dict[tuple[str, str], int]

    def __init__(self, entries=None):
        entries = _built(dict, {} if entries is None else entries, "entries")
        norm = {}
        for (u, i), c in zip(_pairs(entries, "cost key"), entries.values()):
            if not (type(c) is int or type(c) is str and _INT.fullmatch(c)):
                raise GraphError(
                    f"cost entry ({_quoted(u)}, {_quoted(i)}) is not an "
                    f"integer: {_quoted(c)}")
            try:
                norm[(u, i)] = int(c)
            except ValueError:  # the int-from-str digit limit
                raise GraphError(
                    f"cost entry ({_quoted(u)}, {_quoted(i)}) has more than "
                    f"{sys.get_int_max_str_digits()} digits") from None
        object.__setattr__(self, "entries", norm)

    @classmethod
    def _wrap(cls, entries: dict[tuple[str, str], int]) -> "CostMatrix":
        """A matrix holding `entries` as they are: keys already pairs of
        str and values int (io.parse_costs builds such a dict)."""
        matrix = object.__new__(cls)
        object.__setattr__(matrix, "entries", entries)
        return matrix

    def cost(self, u: str, i: str) -> int:
        return self.entries.get((u, i), 0)

    def check_shape(self, inputs, targets) -> None:
        """GraphError unless every entry's input vertex is in `inputs` and
        its target vertex in `targets` (each a Digraph or a set of names).
        Two set inclusions decide; the loop runs only to name the first
        entry that fails."""
        inputs, targets = (x._index.keys() if isinstance(x, Digraph) else x
                           for x in (inputs, targets))
        keys = self.entries.keys()
        if (set(map(itemgetter(0), keys)) <= inputs
                and set(map(itemgetter(1), keys)) <= targets):
            return
        for u, i in keys:
            if u not in inputs or i not in targets:
                raise GraphError(
                    f"cost entry ({_quoted(u)}, {_quoted(i)}) does not match "
                    "the instance shape"
                )


@dataclass(frozen=True)
class SolveResult:
    """An optimal homomorphism and its cost, or (both None) an
    infeasibility verdict; method names the route that produced it."""

    mapping: dict[str, str] | None
    cost: int | None
    method: str

    @property
    def feasible(self) -> bool:
        return self.mapping is not None


def is_homomorphism(d: Digraph, h: Digraph, mapping: dict[str, str]) -> bool:
    """True iff every arc of d maps to an arc of h (loops included)."""
    image = mapping.__getitem__
    if not (d._index.keys() <= mapping.keys()
            and set(map(image, d.vertices)) <= h._index.keys()):
        for u in d.vertices:  # only to name the first vertex that fails
            if u not in mapping:
                raise GraphError(f"mapping is not total: missing {_quoted(u)}")
            if mapping[u] not in h:
                raise GraphError(
                    f"image {_quoted(mapping[u])} is not a target vertex")
    return h.arcs.issuperset(zip(map(image, map(itemgetter(0), d.arcs)),
                                 map(image, map(itemgetter(1), d.arcs))))


def map_cost(d: Digraph, costs: CostMatrix, mapping: dict[str, str]) -> int:
    vs = d.vertices
    return sum(map(costs.entries.get, zip(vs, map(mapping.__getitem__, vs)),
                   repeat(0)))


def _revalidated(d: Digraph, h: Digraph, costs: CostMatrix,
                 mapping: dict[str, str], cost: int, method: str) -> SolveResult:
    if not is_homomorphism(d, h, mapping):
        raise InternalError("invalid optimum")
    if map_cost(d, costs, mapping) != cost:
        raise InternalError("cost mismatch")
    return SolveResult(mapping, cost, method)


# -- brute force ----------------------------------------------------------


def _search(vecs: list[list[int | None]], outs: list[Sequence[int]],
            ins: list[Sequence[int]], nodes: Sequence[int], into: list[int],
            from_: list[int], budget: int) -> tuple[int, list[int]] | None:
    """Least-cost labelling of `nodes` (ascending), vecs[k][i] being the
    cost of label i at k (None where barred), by depth-first search over
    nodes in order and labels in index order.  An open node's candidates
    are its unbarred labels ANDed with into[label(w)] (bit i set when
    i -> label(w) is allowed) for each out-neighbour w labelled before it,
    and from_[label(w)] for each such in-neighbour.  The best is replaced
    only on strict improvement, so the lexicographically first optimum
    wins.  Every node counts against budget.  Returns (cost, label),
    label[k] set for k in nodes and 0 elsewhere; None if none exists."""
    row = [vecs[k] for k in nodes]
    n = len(row)
    depth = {k: c for c, k in enumerate(nodes)}
    # rest[c]: the least cost of depths c.., a lower bound on completing c
    rest = [0] * (n + 1)
    for c in range(n - 1, -1, -1):
        finite = [x for x in row[c] if x is not None]
        if not finite:
            return None
        rest[c] = rest[c + 1] + min(finite)
    allowed = [sum(1 << i for i, x in enumerate(r) if x is not None)
               for r in row]
    # forward checking reads only the neighbours in nodes labelled before,
    # each as (its mask table, its depth)
    before = [[(into, depth[x]) for x in outs[k] if depth.get(x, c) < c]
              + [(from_, depth[x]) for x in ins[k] if depth.get(x, c) < c]
              for c, k in enumerate(nodes)]

    # depth-first, without recursion: top is the deepest open node, cands[c]
    # the untried candidates of depth c and sums[c] its partial cost
    lab, cands, sums = [0] * n, [0] * n, [0] * n
    best_cost, best = None, []
    count = c = partial = 0
    top = -1
    while True:
        count += 1
        if count > budget:
            raise BudgetExceeded(
                f"brute-force budget of {budget} nodes exceeded"
            )
        if c == n:
            if best_cost is None or partial < best_cost:
                best_cost, best = partial, lab[:]
        elif best_cost is None or partial + rest[c] <= best_cost:
            mask = allowed[c]
            for table, x in before[c]:
                mask &= table[lab[x]]
            cands[c], sums[c], top = mask, partial, c
        # the next node: the next candidate of the deepest open node
        while top >= 0 and not cands[top]:
            top -= 1
        if top < 0:
            break
        mask = cands[top]
        low = mask & -mask
        cands[top] = mask ^ low
        lab[top] = i = low.bit_length() - 1
        c, partial = top + 1, sums[top] + row[top][i]

    if best_cost is None:
        return None
    label = [0] * len(vecs)
    for k, i in zip(nodes, best):
        label[k] = i
    return best_cost, label


def solve_bruteforce(d: Digraph, h: Digraph, costs: CostMatrix,
                     budget: int = BRUTE_BUDGET) -> SolveResult:
    """Exact optimum by _search over every vertex of d in declaration
    order, labels in h's declaration order, barred only by loops; no
    reduction, so it stays the independent oracle.  Ties are broken so
    that the lexicographically smallest optimal map (over declaration
    orders) is returned."""
    costs.check_shape(d, h)
    hv = h.vertices
    succs, preds = _rows(h, hv)
    outs, ins, looped = d.adjacency
    get, hl = costs.entries.get, h.adjacency[2]
    vecs = [[get((u, i), 0) if ok or not loop else None
             for i, ok in zip(hv, hl)] for u, loop in zip(d.vertices, looped)]
    found = _search(vecs, outs, ins, range(len(vecs)), _bits(preds),
                    _bits(succs), budget)
    if found is None:
        return SolveResult(None, None, "brute")
    cost, label = found
    mapping = dict(zip(d.vertices, map(hv.__getitem__, label)))
    return _revalidated(d, h, costs, mapping, cost, "brute")


# -- max flow kernel ------------------------------------------------------


#: parent[] marks of the Boykov–Kolmogorov search trees (edge ids are >= 0)
_ROOT, _ORPHAN = -1, -2


class FlowNetwork:
    """Integer-capacity flow network with a Boykov–Kolmogorov max-flow.

    Edges live in flat arrays: edge e runs to head[e] with residual capacity
    cap[e], its reverse is e ^ 1, and adj[u] lists the ids of the edges
    leaving u.  add_edge gives the reverse a capacity of its own, 0 unless
    asked, so a chain step whose reverse must not be cut is one pair.
    max_flow grows a search tree from s and one from t, augments along the
    path where they meet and re-attaches the nodes the augmentation cut off
    (Boykov & Kolmogorov, TPAMI 2004).  Growth claims only free nodes.  An
    orphan, a node whose parent edge the augmentation saturated, takes the
    first edge in adj order to a node of its own tree that has residual
    capacity towards it and whose parent chain ends at the root, not at
    another orphan; with none, it is freed and its children become orphans.
    The trees are kept between augmentations, which suits the long chains of
    the layered "label >= i" networks solve_minmax builds; every step is
    iterative.

    The final source tree is the minimal minimum cut, the nodes reachable
    from s in the residual network, so source_side runs no search.  Tree
    edges keep residual capacity from parent to child.  A source-tree node
    with a residual edge out of the tree is queued: growth dequeues a node
    only when it has none, an augmentation adds residual capacity only
    inside a tree or from the sink tree into the source tree, and a node
    freed by adoption re-queues each same-tree neighbour with a residual
    edge into it.  max_flow returns when the queue is empty.
    """

    def __init__(self, n: int):
        self.n = n
        self.adj: list[list[int]] = [[] for _ in range(n)]
        self.head: list[int] = []
        self.cap: list[int] = []

    def add_edge(self, u: int, v: int, cap: int, back: int = 0) -> None:
        """An edge u -> v of capacity cap, paired with its reverse v -> u
        of capacity back."""
        e = len(self.head)
        self.head += (v, u)
        self.cap += (cap, back)
        self.adj[u].append(e)
        self.adj[v].append(e + 1)

    def max_flow(self, s: int, t: int) -> int:
        """Value of a maximum s-t flow; the residual capacities stay in cap
        and the final search trees in tree."""
        head, cap, adj = self.head, self.cap, self.adj
        n = self.n
        # tree[v]: 0 free, 1 source tree, 2 sink tree.  parent[v], read only
        # while v is in a tree, is the edge from v to its tree parent.
        self.tree = tree = [0] * n
        parent = [_ROOT] * n
        queued = [False] * n
        tree[s], tree[t] = 1, 2
        active = deque((s, t))
        queued[s] = queued[t] = True
        total = 0
        while active:
            u = active[0]
            side = tree[u]
            if not side:
                active.popleft()
                queued[u] = False
                continue
            # growth: claim free neighbours until the trees touch at meet.
            # e ^ rev is the arc of e's pair that runs the way flow goes
            # from s to t: u -> v in the source tree, v -> u in the sink tree
            meet = -1
            rev = side - 1
            for e in adj[u]:
                if not cap[e ^ rev]:
                    continue
                v = head[e]
                sv = tree[v]
                if not sv:
                    tree[v] = side
                    parent[v] = e ^ 1
                    if not queued[v]:
                        queued[v] = True
                        active.append(v)
                elif sv != side:
                    meet = e ^ rev
                    break
            if meet < 0:
                active.popleft()
                queued[u] = False
                continue

            # augmentation along s ~> a -> b ~> t, a = tail of meet.  Flow
            # takes parent edge e ^ rev: e's reverse in the source tree (from
            # the parent down to v), e itself in the sink tree
            a, b = head[meet ^ 1], head[meet]
            walks = ((a, s, 1), (b, t, 0))
            push = cap[meet]
            for v, root, rev in walks:
                while v != root:
                    e = parent[v]
                    if cap[e ^ rev] < push:
                        push = cap[e ^ rev]
                    v = head[e]
            total += push
            cap[meet] -= push
            cap[meet ^ 1] += push
            orphans = []
            for v, root, rev in walks:
                while v != root:
                    e = parent[v]
                    cap[e ^ rev] -= push
                    cap[e ^ rev ^ 1] += push
                    if not cap[e ^ rev]:
                        parent[v] = _ORPHAN
                        orphans.append(v)
                    v = head[e]

            # adoption: give each orphan the first neighbour in its own tree
            # that still leads to the root, or free it and orphan its children
            for v in orphans:
                side = tree[v]
                rev = 2 - side  # e ^ rev runs from w towards v as flow goes
                for e in adj[v]:
                    w = head[e]
                    if tree[w] != side or not cap[e ^ rev]:
                        continue
                    x = parent[w]
                    while x >= 0:
                        x = parent[head[x]]
                    if x == _ROOT:
                        parent[v] = e
                        break
                else:
                    tree[v] = 0
                    for e in adj[v]:
                        w = head[e]
                        if tree[w] != side:
                            continue
                        if cap[e ^ rev] and not queued[w]:
                            queued[w] = True
                            active.append(w)
                        pe = parent[w]
                        if pe >= 0 and head[pe] == v:
                            parent[w] = _ORPHAN
                            orphans.append(w)
        return total

    def source_side(self) -> set[int]:
        """The final source tree of max_flow: the nodes reachable from s in
        the residual network (see the class docstring)."""
        return {v for v, side in enumerate(self.tree) if side == 1}


# -- min-cut route for Min-Max ordered targets ----------------------------


def _thresholds(succs: list[list[int]], p: int
                ) -> tuple[list[int], list[int]]:
    """lam and mu of a Min-Max relation, indexed by label 0..p (0 where
    there is none), read off succs (succs[i - 1] lists, ascending, each
    j - 1 with (i, j) in the relation): label(t) >= i forces label(head) >=
    lam[i], the first column of the nearest nonempty row at or above i;
    label(head) >= j forces label(t) >= mu[j], the first row reaching
    column j.  The relation is a staircase (verify_minmax), so row maxima
    never decrease and mu's row only moves down as j grows."""
    lam = [0] * (p + 1)
    mu = [0] * (p + 1)
    first = 0
    for i in range(p, 1, -1):
        if succs[i - 1]:
            first = succs[i - 1][0] + 1
        lam[i] = first
    x = 0
    for j in range(2, p + 1):
        while x < p and (not succs[x] or succs[x][-1] + 1 < j):
            x += 1
        mu[j] = x + 1 if x < p else 0
    return lam, mu


def _fold_pendants(vecs: list[list[int | None]], outs: list[Sequence[int]],
                   ins: list[Sequence[int]], preds: list[list[int]],
                   succs: list[list[int]], nodes, trail: list[tuple]
                   ) -> tuple[list[int], int | None]:
    """Fold pendant trees among `nodes` (ascending; their arcs lead only to
    nodes) into unary costs, in place (Freuder's tree DP).

    Repeatedly removes a vertex k with at most one non-loop arc left.  With
    one arc, to or from w, each label j of w gains k's least cost over the
    labels that arc allows next to j (preds[j] for k -> w, succs[j] for
    w -> k; None if there is none), and (k, w, pick) goes on the trail,
    pick[j] being the least-rank label of that least cost.  A vertex
    removed with no arc left goes on the trail as (k, -1, its least-rank
    argmin), and its cost is added to a constant.  Returns the nodes left
    (ascending) and that constant (None if such a vertex has no label).
    Degrees count arcs, so the two arcs of a digon keep both of its ends.
    """
    deg = [-1] * len(vecs)  # -1 outside nodes and once removed
    for k in nodes:
        deg[k] = len(outs[k]) + len(ins[k])
    stack = [k for k in nodes if deg[k] <= 1]
    fixed = 0
    while stack:
        k = stack.pop()
        vk = vecs[k]
        left, deg[k] = deg[k], -1
        if not left:
            best = -1
            for i, x in enumerate(vk):
                if x is not None and (best < 0 or x < vk[best]):
                    best = i
            trail.append((k, -1, best))
            fixed = None if best < 0 or fixed is None else fixed + vk[best]
            continue
        w, allowed = ([(x, preds) for x in outs[k] if deg[x] >= 0]
                      or [(x, succs) for x in ins[k] if deg[x] >= 0])[0]
        vw = vecs[w]
        pick = [-1] * len(vw)
        for j, c in enumerate(vw):
            if c is not None:
                least = None
                for i in allowed[j]:
                    x = vk[i]
                    if x is not None and (least is None or x < least):
                        least, pick[j] = x, i
                vw[j] = None if least is None else c + least
        trail.append((k, w, pick))
        deg[w] -= 1
        if deg[w] == 1:
            stack.append(w)
    return [k for k in nodes if deg[k] >= 0], fixed


def _cut(vecs: list[list[int | None]], outs: list[Sequence[int]],
         core: list[int], lam: list[int], mu: list[int]
         ) -> tuple[int, list[int]] | None:
    """Least optimum of the core by one minimum s-t cut: returns its cost
    and label, each core vertex's rank (0 elsewhere); None if infeasible.
    An empty core builds no network."""
    label = [0] * len(vecs)
    if not core:
        return 0, label
    p = len(lam) - 1
    chain = [-1] * len(vecs)  # position of each core vertex in core
    # shifts make the core's costs nonnegative; a barred label's edge
    # costs big, more than every cut without one
    shifts = []
    big = 1
    for c, k in enumerate(core):
        chain[k] = c
        finite = [x for x in vecs[k] if x is not None]
        if not finite:
            return None
        shifts.append(max(0, -min(finite)))
        big += shifts[-1] + max(0, max(finite))
    inf = (len(core) + 2) * big

    # nodes: 0 = source, 1 = sink; c * (p - 1) + i is "label >= i"
    # (i = 2..p) of the c-th core vertex.  Each step between two of them
    # is one edge pair whose reverse, "label >= i + 1" -> "label >= i",
    # is uncuttable
    net = FlowNetwork(2 + len(core) * (p - 1))
    source, sink = 0, 1
    for c, k in enumerate(core):
        base = c * (p - 1)
        for i, x in enumerate(vecs[k], 1):
            tail = source if i == 1 else base + i
            head = sink if i == p else base + i + 1
            net.add_edge(tail, head, big if x is None else x + shifts[c],
                         0 if i in (1, p) else inf)

    # arcs in declaration order, so the network (and the max-flow's
    # work) does not depend on the string hash seed
    for c, k in enumerate(core):
        a = c * (p - 1)
        for w in outs[k]:
            if chain[w] < 0:
                continue
            b = chain[w] * (p - 1)
            for i in range(2, p + 1):
                if lam[i] >= 2:
                    net.add_edge(a + i, b + lam[i], inf)
            for j in range(2, p + 1):
                if mu[j] >= 2:
                    net.add_edge(b + j, a + mu[j], inf)

    value = net.max_flow(source, sink)
    if value >= big:
        return None
    side = net.source_side()
    for c, k in enumerate(core):
        for i in range(2, p + 1):
            if c * (p - 1) + i in side:
                label[k] = i - 1
    return value - sum(shifts), label


def _rows(h: Digraph, seq) -> tuple[list[list[int]], list[list[int]]]:
    """succs, the rank rows of seq (minmax._rank_rows: succs[i] lists,
    ascending, each j with an arc seq[i] -> seq[j], loops included), and
    preds, their transpose."""
    succs = _rank_rows(h, seq)
    preds: list[list[int]] = [[] for _ in seq]
    for i, row in enumerate(succs):
        for j in row:
            preds[j].append(i)
    return succs, preds


def _reduced(d: Digraph, h: Digraph, costs: CostMatrix, seq,
             succs: list[list[int]], preds: list[list[int]], method: str,
             solve_core: Callable) -> SolveResult:
    """solve_minmax and solve_auto's last route, labels indexed as in seq
    (succs and preds from _rows): the reductions below, then
    solve_core(vecs, outs, ins, core) for the core's (cost, label) or None,
    then one backward pass over the trail."""
    # d's adjacency index gives each input vertex's non-loop arcs by
    # declaration index.  Its flags (has an out-arc, has an in-arc, looped)
    # bar the labels no arc or loop there can map to; each of the eight
    # combinations' barred labels is listed once.  All n * p costs are
    # looked up in one pass, and each vector is its vertex's slice of
    # them, None where barred.  The reductions replace whole entries of
    # outs and ins, never the index's own tuples
    vs = d.vertices
    p = len(seq)
    outs, ins, looped = d.adjacency
    outs, ins = list(outs), list(ins)
    diag = {i for i in range(p) if i in succs[i]}
    barred = {(out, inn, loop): [i for i in range(p) if out and not succs[i]
                                 or inn and not preds[i]
                                 or loop and i not in diag]
              for out, inn, loop in product((False, True), repeat=3)}
    flags = list(zip(map(bool, outs), map(bool, ins), looped))
    if any(len(barred[f]) == p for f in set(flags)):
        return SolveResult(None, None, method)
    table = list(map(costs.entries.get, product(vs, seq), repeat(0)))
    vecs = []
    for k, f in enumerate(flags):
        vec = table[k * p:k * p + p]
        for i in barred[f]:
            vec[i] = None
        vecs.append(vec)

    # every reduction rewrites vecs, outs and ins in place and appends to
    # one trail, which labels each removed vertex once its neighbour is
    # labelled
    trail: list[tuple] = []
    core, fixed = _fold_pendants(vecs, outs, ins, preds, succs,
                                 range(len(vs)), trail)
    if core and is_acyclic(h)[0]:
        # into a target acyclic up to loops, every closed walk of d stays
        # at one looped vertex, so each strong component of the core takes
        # one label.  Its first member stands for it: its vector sums the
        # members' (barred where one is; two or more members need a looped
        # label), its arcs go to the other components' first members, and
        # the other members go on the trail with the identity as pick.
        # Contracting leaves new pendants, so the first members are folded
        # again (with one-member components nothing folds)
        groups = strong_components(outs, ins, core)
        first = [-1] * len(vs)
        for ks in groups:
            for k in ks:
                first[k] = ks[0]
        same = range(p)
        for ks in groups:
            g = ks[0]
            if len(ks) > 1:
                vecs[g] = [None if i not in diag or None in xs else sum(xs)
                           for i, xs in enumerate(zip(*(vecs[k] for k in ks)))]
            outs[g] = sorted({first[x] for k in ks for x in outs[k]} - {-1, g})
            ins[g] = []
            trail += [(k, g, same) for k in ks[1:]]
        core = [ks[0] for ks in groups]
        for g in core:
            for x in outs[g]:
                ins[x].append(g)
        core, more = _fold_pendants(vecs, outs, ins, preds, succs, core,
                                    trail)
        fixed = None if fixed is None or more is None else fixed + more
    found = None if fixed is None else solve_core(vecs, outs, ins, core)
    if found is None:
        return SolveResult(None, None, method)
    total, label = found
    for k, w, pick in reversed(trail):
        label[k] = pick if w < 0 else pick[label[w]]
    mapping = dict(zip(vs, map(seq.__getitem__, label)))
    return _revalidated(d, h, costs, mapping, total + fixed, method)


def solve_minmax(d: Digraph, h: Digraph, ordering: Ordering,
                 costs: CostMatrix) -> SolveResult:
    """Exact optimum: pendant trees folded into unary costs, strong
    components contracted when h is acyclic up to loops, then one minimum
    s-t cut over the rest of d.  Valid whenever the ordering passes
    verify_minmax (checked; GraphError otherwise)."""
    costs.check_shape(d, h)
    ok, violation = verify_minmax(h, ordering)
    if not ok:
        raise GraphError(
            f"ordering is not Min-Max: pair {violation.e} / {violation.f} fails"
        )
    # cost vectors, preds and succs index labels by rank 0..p-1 (label
    # i = rank + 1 in the network)
    seq = ordering.sequence
    succs, preds = _rows(h, seq)
    lam, mu = _thresholds(succs, len(seq))
    return _reduced(d, h, costs, seq, succs, preds, "minmax",
                    lambda vecs, outs, ins, core:
                    _cut(vecs, outs, core, lam, mu))


# -- directed-cycle targets -----------------------------------------------


def solve_cycle(d: Digraph, h: Digraph, costs: CostMatrix) -> SolveResult:
    """Exact optimum for a directed-cycle target h with any vertex names
    (GraphError for any other target).

    Each cycle vertex has a unique in- and out-neighbor, so a component's
    homomorphism is fixed by the image of one root vertex; the k rotations
    per component are enumerated directly.
    """
    walk = None if h.loops() else cycle_walk(h)
    if walk is None:
        raise GraphError("target is not a directed cycle")
    costs.check_shape(d, h)
    k = len(walk)
    if d.loops():
        return SolveResult(None, None, "cycle")  # cycles carry no loops

    # residues by declaration index; an arc t -> head needs
    # res[head] = res[t] + 1 (mod k).  Each unseen vertex, in declaration
    # order, roots one component, whose members its search collects
    vs = d.vertices
    outs, ins, _ = d.adjacency
    res = [-1] * len(vs)
    get = costs.entries.get
    ring = walk * 2  # ring[r + c] is walk[(r + c) % k] for r, c < k
    mapping: dict[str, str] = {}
    total = 0
    for root in range(len(vs)):
        if res[root] >= 0:
            continue
        res[root] = 0
        comp = [root]
        stack = [root]
        while stack:
            v = stack.pop()
            for ws, step in ((outs[v], 1), (ins[v], -1)):
                val = (res[v] + step) % k
                for w in ws:
                    if res[w] < 0:
                        res[w] = val
                        comp.append(w)
                        stack.append(w)
                    elif res[w] != val:
                        return SolveResult(None, None, "cycle")
        comp.sort()
        names = [vs[v] for v in comp]
        rs = [res[v] for v in comp]
        # the first rotation of least cost
        sums = [sum(map(get, zip(names, [ring[r + c] for r in rs]), repeat(0)))
                for c in range(k)]
        c = sums.index(min(sums))
        total += sums[c]
        mapping.update(zip(names, [ring[r + c] for r in rs]))

    return _revalidated(d, h, costs, mapping, total, "cycle")


# -- extension collapse ---------------------------------------------------


def collapse_extension(hp: Digraph, decomposition: dict[str, str], costs: CostMatrix
                       ) -> tuple[Digraph, CostMatrix,
                                  Callable[[dict[str, str]], dict[str, str]]]:
    """Collapse an extension target back to its base.

    Returns the base digraph, the collapsed costs c_v(u) = min over copies w
    of v of c_w(u), and a lift function turning a base-target homomorphism
    into an extension-target homomorphism of equal cost (argmin copy per
    assignment, first copy on ties).  GraphError for a cost entry whose
    target vertex is not in hp.
    """
    if set(decomposition) != set(hp.vertices):
        raise GraphError("decomposition must cover exactly the extension's vertices")
    if hp.loops():
        raise GraphError("an extension of a loopless digraph cannot have loops")

    base_order: list[str] = []
    copies: dict[str, list[str]] = {}
    for w in hp.vertices:
        v = decomposition[w]
        if v not in copies:
            copies[v] = []
            base_order.append(v)
        copies[v].append(w)

    # arcs between each ordered pair of classes, counted in one pass (hp
    # has no loops, so an arc inside a class joins two copies)
    joined = Counter((decomposition[t], decomposition[x]) for t, x in hp.arcs)
    base_arcs = set()
    for a in base_order:
        for b in base_order:
            present = joined[a, b]
            if not present:
                continue
            if a == b:
                raise GraphError(f"class {_quoted(a)} is not independent")
            if present != len(copies[a]) * len(copies[b]):
                raise GraphError(f"classes {_quoted(a)} -> {_quoted(b)} "
                                 "are only partially joined")
            base_arcs.add((a, b))
    base = Digraph(base_order, base_arcs)

    inputs = set(map(itemgetter(0), costs.entries))
    costs.check_shape(inputs, hp)
    entries = {}
    for u in sorted(inputs):
        for v in base_order:
            c = min(costs.cost(u, w) for w in copies[v])
            if c:
                entries[(u, v)] = c
    collapsed = CostMatrix(entries)

    def lift(mapping: dict[str, str]) -> dict[str, str]:
        out = {}
        for u, v in mapping.items():
            if v not in copies:
                raise GraphError(f"image {_quoted(v)} is not a base vertex")
            # copies[v] is in declaration order, and min keeps the first
            out[u] = min(copies[v], key=lambda w: costs.cost(u, w))
        return out

    return base, collapsed, lift


# -- dispatch -------------------------------------------------------------


def solve_auto(d: Digraph, h: Digraph, costs: CostMatrix,
               guard: int = FIND_GUARD) -> SolveResult:
    """Dispatch: cycle target, then Min-Max route, then the reductions and
    a brute-force search of what they leave (method "brute").

    The route taken checks the cost keys (GraphError for one outside
    V(d) x V(h))."""
    if not h.loops() and cycle_walk(h) is not None:
        return solve_cycle(d, h, costs)
    try:
        ordering = find_minmax(h, guard=guard)
    except GuardExceeded:
        ordering = None
    if ordering is not None:
        return solve_minmax(d, h, ordering, costs)
    # the reductions' costs need no ordering; labels go in declaration order
    costs.check_shape(d, h)
    succs, preds = _rows(h, h.vertices)
    return _reduced(d, h, costs, h.vertices, succs, preds, "brute",
                    partial(_search, into=_bits(preds), from_=_bits(succs),
                            budget=BRUTE_BUDGET))
