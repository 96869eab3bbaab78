"""Exact minimum cost homomorphism solvers.

Three routes are provided:

* solve_bruteforce — backtracking with forward checking; the independent
  oracle everything else is validated against.
* solve_minmax — the polynomial route for targets with a Min-Max ordering.
  Each input vertex gets one cost vector.  Pendant trees are folded first
  (the treewidth-1 case of CSP dynamic programming, Freuder 1990): a
  vertex with one non-loop arc left adds, for each label of its
  neighbour, its least cost over the labels that arc allows, and goes.
  The rest, the core, is solved as a minimum s-t cut over threshold
  variables x_{u,i} = [label(u) >= i], found with a Boykov–Kolmogorov
  max-flow: node c * (p - 1) + i is x_{u,i} of the c-th core vertex in
  declaration order (p labels, i = 2..p).  A forest input builds no
  network.  Every call first runs verify_minmax, whose one staircase
  verdict (minmax._is_staircase) guards the construction; the thresholds
  lam and mu are then read off that staircase.
  The core's map is read off the nodes reachable from s in the residual
  network.  That set is the same for every maximum flow (it is the unique
  inclusion-minimal minimum cut), so the answer does not depend on which
  maximum flow the algorithm finds.  The optimal maps form a lattice
  under the coordinatewise order of ranks, and that cut is its least
  element.  Restricted to the core, the least optimum of the whole input
  is the least optimum of the folded one; the folded vertices, last
  removed first, then take the least-rank label of least folded cost that
  their neighbour's label allows, which is again the least optimum.  So
  the map is the one the cut over the whole input would give.
  When the loopless part of the target is acyclic, every closed walk of d
  maps to one looped vertex, so every homomorphism is constant on each
  strong component of the core (Tarjan's search, iterative).  Each
  component becomes one vertex whose vector sums its members' (only
  looped labels for two or more members), with one arc per pair of
  components; the condensation is folded again and its core cut.  Maps
  of d and of the condensation correspond one to one, with equal cost
  and the same coordinatewise order, so the least optimum lifts to the
  least optimum.  Otherwise, or when every component is one vertex, the
  core is cut as it is.
* solve_cycle — rotation propagation for directed-cycle targets, in the
  target's own vertex names, along the walk digraph.cycle_walk returns.

All costs are signed integers; negative costs are absorbed by per-vertex
shifts in the cut network, so every answer is exact.  Every route (hence
solve_auto) raises GraphError for a cost entry outside V(D) x V(H).
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Callable

from .digraph import (Digraph, GraphError, InternalError, components,
                      cycle_walk, is_acyclic, quotient,
                      strong_components)
from .minmax import FIND_GUARD, Ordering, find_minmax, verify_minmax


class BudgetExceeded(GraphError):
    """The brute-force search ran past its node budget."""


#: Default node budget for the brute-force solver.
BRUTE_BUDGET = 2_000_000


@dataclass(frozen=True)
class CostMatrix:
    """Sparse cost table c_i(u); unspecified entries cost 0."""

    entries: dict[tuple[str, str], int]

    def __init__(self, entries=None):
        norm = {}
        for (u, i), c in dict(entries or {}).items():
            norm[(str(u), str(i))] = int(c)
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

    def __hash__(self):
        return hash(frozenset(self.entries.items()))

    def check_shape(self, inputs, targets) -> None:
        """GraphError unless every entry's input vertex is in `inputs` and
        its target vertex in `targets`."""
        for u, i in self.entries:
            if u not in inputs or i not in targets:
                raise GraphError(
                    f"cost entry ({u!r}, {i!r}) does not match the instance shape"
                )


@dataclass(frozen=True)
class Homomorphism:
    """A vertex mapping together with its total assignment cost."""

    mapping: dict[str, str]
    cost: int

    def __init__(self, mapping, cost):
        object.__setattr__(self, "mapping", dict(mapping))
        object.__setattr__(self, "cost", int(cost))

    def __hash__(self):
        return hash((frozenset(self.mapping.items()), self.cost))


@dataclass(frozen=True)
class SolveResult:
    """Either an optimal homomorphism or an infeasibility verdict."""

    homomorphism: Homomorphism | None
    method: str

    @property
    def feasible(self) -> bool:
        return self.homomorphism is not None

    @property
    def cost(self) -> int | None:
        return None if self.homomorphism is None else self.homomorphism.cost


def is_homomorphism(d: Digraph, h: Digraph, mapping: dict[str, str]) -> bool:
    """True iff every arc of d maps to an arc of h (loops included)."""
    for u in d.vertices:
        if u not in mapping:
            raise GraphError(f"mapping is not total: missing {u!r}")
        if mapping[u] not in h:
            raise GraphError(f"image {mapping[u]!r} is not a target vertex")
    return all(h.has_arc(mapping[t], mapping[head]) for t, head in d.arcs)


def map_cost(d: Digraph, costs: CostMatrix, mapping: dict[str, str]) -> int:
    return sum(costs.cost(u, mapping[u]) for u in d.vertices)


def _revalidated(d: Digraph, h: Digraph, costs: CostMatrix,
                 mapping: dict[str, str], cost: int, method: str) -> SolveResult:
    if not is_homomorphism(d, h, mapping):
        raise InternalError("invalid optimum")
    if map_cost(d, costs, mapping) != cost:
        raise InternalError("cost mismatch")
    return SolveResult(Homomorphism(mapping, cost), method)


# -- brute force ----------------------------------------------------------


def solve_bruteforce(d: Digraph, h: Digraph, costs: CostMatrix,
                     budget: int = BRUTE_BUDGET) -> SolveResult:
    """Exact optimum by backtracking over declaration order.

    Candidates are filtered by forward checking against already assigned
    neighbors; ties are broken so that the lexicographically smallest optimal
    map (over declaration orders) is returned.
    """
    costs.check_shape(d, h)
    dv = d.vertices
    hv = h.vertices
    base: dict[str, list[str]] = {}
    for u in dv:
        cands = [i for i in hv if not d.has_loop(u) or h.has_loop(i)]
        if not cands:
            return SolveResult(None, "brute")
        base[u] = cands

    best_cost: int | None = None
    best_map: dict[str, str] | None = None
    assignment: dict[str, str] = {}
    nodes = 0
    min_cost_per_vertex = {u: min(costs.cost(u, i) for i in base[u]) for u in dv}
    # forward checking reads only the neighbours assigned before u
    rank = d.decl_index
    outs = {u: [v for v in d.out_neighbors(u) if rank(v) < rank(u)] for u in dv}
    ins = {u: [v for v in d.in_neighbors(u) if rank(v) < rank(u)] for u in dv}

    def lower_bound(k: int, partial: int) -> int:
        return partial + sum(min_cost_per_vertex[u] for u in dv[k:])

    def search(k: int, partial: int) -> None:
        nonlocal best_cost, best_map, nodes
        nodes += 1
        if nodes > budget:
            raise BudgetExceeded(
                f"brute-force budget of {budget} nodes exceeded"
            )
        if best_cost is not None and lower_bound(k, partial) > best_cost:
            return
        if k == len(dv):
            if best_cost is None or partial < best_cost:
                best_cost = partial
                best_map = dict(assignment)
            return
        u = dv[k]
        for i in base[u]:
            if not (all(h.has_arc(i, assignment[v]) for v in outs[u])
                    and all(h.has_arc(assignment[v], i) for v in ins[u])):
                continue
            assignment[u] = i
            search(k + 1, partial + costs.cost(u, i))
            del assignment[u]

    search(0, 0)
    if best_map is None:
        return SolveResult(None, "brute")
    return _revalidated(d, h, costs, best_map, best_cost, "brute")


# -- max flow kernel ------------------------------------------------------


#: parent[] marks of the Boykov–Kolmogorov search trees (edge ids are >= 0)
_ROOT, _ORPHAN = -1, -2


class FlowNetwork:
    """Integer-capacity flow network with a Boykov–Kolmogorov max-flow.

    Edges live in flat arrays: edge e runs to head[e] with residual capacity
    cap[e], its reverse is e ^ 1, and adj[u] lists the ids of the edges
    leaving u.  max_flow grows a search tree from s and one from t,
    augments along the path where they meet and re-attaches the nodes the
    augmentation cut off (Boykov & Kolmogorov, TPAMI 2004).  The trees are
    kept between augmentations, which suits the long chains of the layered
    "label >= i" networks solve_minmax builds; every step is iterative.
    """

    def __init__(self, n: int):
        self.n = n
        self.adj: list[list[int]] = [[] for _ in range(n)]
        self.head: list[int] = []
        self.cap: list[int] = []

    def add_edge(self, u: int, v: int, cap: int) -> None:
        e = len(self.head)
        self.head += (v, u)
        self.cap += (cap, 0)
        self.adj[u].append(e)
        self.adj[v].append(e + 1)

    def max_flow(self, s: int, t: int) -> int:
        """Value of a maximum s-t flow; the residual capacities stay in cap."""
        head, cap, adj = self.head, self.cap, self.adj
        n = self.n
        # tree[v]: 0 free, 1 source tree, 2 sink tree.  parent[v], read only
        # while v is in a tree, is the edge from v to its tree parent.
        # ts[v] is the augmentation after which dist[v], the depth of v in
        # its tree, was last known exact.
        tree = [0] * n
        parent = [_ROOT] * n
        ts = [0] * n
        dist = [0] * n
        queued = [False] * n
        tree[s], tree[t] = 1, 2
        active = deque((s, t))
        queued[s] = queued[t] = True
        time = 0
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
            du, tu = dist[u] + 1, ts[u]
            for e in adj[u]:
                if not cap[e ^ rev]:
                    continue
                r = e ^ 1
                v = head[e]
                sv = tree[v]
                if not sv:
                    tree[v] = side
                    parent[v] = r
                    ts[v] = tu
                    dist[v] = du
                    if not queued[v]:
                        queued[v] = True
                        active.append(v)
                elif sv != side:
                    meet = e ^ rev
                    break
                elif ts[v] <= tu and dist[v] > du:
                    # shorten v's path to the root
                    parent[v] = r
                    ts[v] = tu
                    dist[v] = du
            if meet < 0:
                active.popleft()
                queued[u] = False
                continue

            # augmentation along s ~> a -> b ~> t, a = tail of meet.  Flow
            # takes parent edge e ^ rev: e's reverse in the source tree (from
            # the parent down to v), e itself in the sink tree
            time += 1
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

            # adoption: give each orphan a parent in its own tree that
            # still leads to the root, or free it and orphan its children
            for v in orphans:
                side = tree[v]
                rev = 2 - side  # e ^ rev runs from w towards v as flow goes
                best, best_d = -1, n
                for e in adj[v]:
                    w = head[e]
                    if tree[w] != side or not cap[e ^ rev]:
                        continue
                    d = 0
                    x = w
                    while ts[x] != time:
                        pe = parent[x]
                        if pe == _ROOT:
                            ts[x] = time
                            dist[x] = 0
                            break
                        if pe == _ORPHAN:
                            d = n
                            break
                        d += 1
                        x = head[pe]
                    else:
                        d += dist[x]
                    if d < n:
                        if d < best_d:
                            best, best_d = e, d
                        x = w
                        while ts[x] != time:
                            ts[x] = time
                            dist[x] = d
                            d -= 1
                            x = head[parent[x]]
                if best >= 0:
                    parent[v] = best
                    ts[v] = time
                    dist[v] = best_d + 1
                    continue
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

    def source_side(self, s: int) -> set[int]:
        """Residual-reachable nodes from s; call after max_flow."""
        head, cap, adj = self.head, self.cap, self.adj
        seen = {s}
        stack = [s]
        while stack:
            for e in adj[stack.pop()]:
                v = head[e]
                if cap[e] and v not in seen:
                    seen.add(v)
                    stack.append(v)
        return seen


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


def _fold_pendants(vecs: list[list[int | None]], outs: list[list[int]],
                   ins: list[list[int]], preds: list[list[int]],
                   succs: list[list[int]]) -> tuple[list[tuple], list[int]]:
    """Fold pendant trees into unary costs, in place (Freuder's tree DP).

    Repeatedly removes an input vertex k with at most one non-loop arc
    left.  With one arc, to or from w, each label j of w gains k's least
    cost over the labels that arc allows next to j (preds[j] for k -> w,
    succs[j] for w -> k; None if there is none).  Returns the removed
    vertices in removal order as (k, w, allowed), with w = -1 and allowed
    None for a vertex removed with no arc left, and the core: the vertices
    left, ascending.  Degrees count arcs, so the two arcs of a digon keep
    both of its ends.
    """
    n = len(vecs)
    deg = [len(outs[k]) + len(ins[k]) for k in range(n)]
    gone = [False] * n
    folded = []
    stack = [k for k in range(n) if deg[k] <= 1]
    while stack:
        k = stack.pop()
        gone[k] = True
        if not deg[k]:
            folded.append((k, -1, None))
            continue
        w, allowed = ([(x, preds) for x in outs[k] if not gone[x]]
                      or [(x, succs) for x in ins[k] if not gone[x]])[0]
        folded.append((k, w, allowed))
        vk, vw = vecs[k], vecs[w]
        for j, c in enumerate(vw):
            if c is not None:
                least = None
                for i in allowed[j]:
                    x = vk[i]
                    if x is not None and (least is None or x < least):
                        least = x
                vw[j] = None if least is None else c + least
        deg[w] -= 1
        if deg[w] == 1:
            stack.append(w)
    return folded, [k for k in range(n) if not gone[k]]


def _cut(vecs: list[list[int | None]], outs: list[list[int]],
         core: list[int], lam: list[int], mu: list[int],
         label: list[int]) -> int | None:
    """Least optimum of the core by one minimum s-t cut: writes each core
    vertex's rank into label and returns the cost (None if infeasible)."""
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
    # (i = 2..p) of the c-th core vertex
    net = FlowNetwork(2 + len(core) * (p - 1))
    source, sink = 0, 1
    for c, k in enumerate(core):
        base = c * (p - 1)
        for i, x in enumerate(vecs[k], 1):
            tail = source if i == 1 else base + i
            head = sink if i == p else base + i + 1
            net.add_edge(tail, head, big if x is None else x + shifts[c])
        for i in range(2, p):
            net.add_edge(base + i + 1, base + i, inf)

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
    side = net.source_side(source)
    for c, k in enumerate(core):
        for i in range(2, p + 1):
            if c * (p - 1) + i in side:
                label[k] = i - 1
    return value - sum(shifts)


def _unfold(vecs: list[list[int | None]], folded: list[tuple],
            label: list[int]) -> int | None:
    """Label the folded vertices, last removed first: the least-rank
    argmin of the vertex's vector, over the labels its arc allows next to
    its neighbour's label (over all labels for a vertex removed with no
    arc).  Returns the cost of those removed with no arc (None if a vector
    allows no label)."""
    total = 0
    for k, w, allowed in reversed(folded):
        vk = vecs[k]
        best = -1
        for i in range(len(vk)) if w < 0 else allowed[label[w]]:
            if vk[i] is not None and (best < 0 or vk[i] < vk[best]):
                best = i
        if best < 0:
            return None
        label[k] = best
        if w < 0:
            total += vk[best]
    return total


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
    seq = ordering.sequence
    pos = ordering.rank()
    p = len(seq)
    # cost vectors, preds and succs index labels by rank 0..p-1 (label
    # i = rank + 1 in the network); preds[j] and succs[i] list, ascending,
    # the i and the j with an arc from rank i to rank j
    preds: list[list[int]] = [[] for _ in range(p)]
    succs: list[list[int]] = [[] for _ in range(p)]
    for i, j in sorted((pos[t] - 1, pos[head] - 1) for t, head in h.arcs):
        succs[i].append(j)
        preds[j].append(i)
    lam, mu = _thresholds(succs, p)

    # one pass per input vertex: its non-loop arcs by declaration index,
    # and one cost read giving its vector over the labels its arcs and loop
    # allow (None where barred)
    vs = d.vertices
    index = {u: k for k, u in enumerate(vs)}
    every = set(range(p))
    rows = {i for i in every if succs[i]}
    cols = {j for j in every if preds[j]}
    diag = {i for i in every if h.has_loop(seq[i])}
    get = costs.entries.get
    outs, ins, vecs = [], [], []
    for u in vs:
        out = [index[w] for w in d.out_neighbors(u) if w != u]
        inn = [index[w] for w in d.in_neighbors(u) if w != u]
        labels = every
        if out:
            labels = labels & rows
        if inn:
            labels = labels & cols
        if d.has_loop(u):
            labels = labels & diag
        if not labels:
            return SolveResult(None, "minmax")
        outs.append(out)
        ins.append(inn)
        vecs.append([get((u, i), 0) if k in labels else None
                     for k, i in enumerate(seq)])

    # into a target acyclic up to loops, every closed walk of d stays at
    # one looped vertex, so each strong component of the core takes one
    # label.  Contracting them leaves new pendants, so the condensation is
    # folded again (with one-vertex groups it is the core, and nothing folds)
    folded, core = _fold_pendants(vecs, outs, ins, preds, succs)
    if core and is_acyclic(h)[0]:
        groups = strong_components(outs, core)
    else:
        groups = [[k] for k in core]
    # a group's vector sums its members' (barred where one is); two or
    # more members need a looped label
    looped = [i in diag for i in range(p)]
    cvecs = [list(vecs[ks[0]]) if len(ks) == 1 else
             [None if not ok or None in xs else sum(xs)
              for ok, *xs in zip(looped, *(vecs[k] for k in ks))]
             for ks in groups]
    couts, cins = quotient(outs, groups)
    cfolded, ccore = _fold_pendants(cvecs, couts, cins, preds, succs)
    clabel = [0] * len(groups)
    total = _cut(cvecs, couts, ccore, lam, mu, clabel) if ccore else 0
    extra = None if total is None else _unfold(cvecs, cfolded, clabel)
    if extra is None:
        return SolveResult(None, "minmax")
    label = [0] * len(vs)
    for g, members in enumerate(groups):
        for k in members:
            label[k] = clabel[g]
    rest = _unfold(vecs, folded, label)
    if rest is None:
        return SolveResult(None, "minmax")
    mapping = {u: seq[label[k]] for k, u in enumerate(vs)}
    return _revalidated(d, h, costs, mapping, total + extra + rest, "minmax")


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
        return SolveResult(None, "cycle")  # cycles carry no loops

    mapping: dict[str, str] = {}
    total = 0
    for comp in components(d):
        root = comp[0]
        res = {root: 0}
        queue = deque([root])
        conflict = False
        while queue and not conflict:
            v = queue.popleft()
            forced = [(w, (res[v] + 1) % k) for w in d.out_neighbors(v)]
            forced += [(w, (res[v] - 1) % k) for w in d.in_neighbors(v)]
            for w, val in forced:
                if w not in res:
                    res[w] = val
                    queue.append(w)
                elif res[w] != val:
                    conflict = True
                    break
        if conflict:
            return SolveResult(None, "cycle")
        best = None
        for c in range(k):
            cost = sum(costs.cost(v, walk[(res[v] + c) % k]) for v in comp)
            if best is None or cost < best[0]:
                best = (cost, c)
        cost, c = best
        total += cost
        for v in comp:
            mapping[v] = walk[(res[v] + c) % k]

    return _revalidated(d, h, costs, mapping, total, "cycle")


# -- extension collapse ---------------------------------------------------


def collapse_extension(hp: Digraph, decomposition: dict[str, str], costs: CostMatrix
                       ) -> tuple[Digraph, CostMatrix,
                                  Callable[[dict[str, str]], dict[str, str]]]:
    """Collapse an extension target back to its base.

    Returns the base digraph, the collapsed costs c_v(u) = min over copies w
    of v of c_w(u), and a lift function turning a base-target homomorphism
    into an extension-target homomorphism of equal cost (argmin copy per
    assignment, first copy on ties).
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

    base_arcs = set()
    for a in base_order:
        for b in base_order:
            present = sum(1 for w in copies[a] for x in copies[b]
                          if (w, x) in hp.arcs and w != x)
            if a == b:
                if present:
                    raise GraphError(f"class {a!r} is not independent")
                continue
            if present == 0:
                continue
            if present != len(copies[a]) * len(copies[b]):
                raise GraphError(
                    f"classes {a!r} -> {b!r} are only partially joined"
                )
            base_arcs.add((a, b))
    base = Digraph(base_order, base_arcs)

    input_vertices = sorted({u for (u, _) in costs.entries})
    entries = {}
    for u in input_vertices:
        for v in base_order:
            c = min(costs.cost(u, w) for w in copies[v])
            if c:
                entries[(u, v)] = c
    collapsed = CostMatrix(entries)

    def lift(mapping: dict[str, str]) -> dict[str, str]:
        out = {}
        for u, v in mapping.items():
            if v not in copies:
                raise GraphError(f"image {v!r} is not a base vertex")
            out[u] = min(copies[v], key=lambda w: (costs.cost(u, w),
                                                   hp.decl_index(w)))
        return out

    return base, collapsed, lift


# -- dispatch -------------------------------------------------------------


def solve_auto(d: Digraph, h: Digraph, costs: CostMatrix,
               guard: int = FIND_GUARD,
               budget: int = BRUTE_BUDGET) -> SolveResult:
    """Dispatch: cycle target, then Min-Max route, then brute force.

    The route taken checks the cost keys (GraphError for one outside
    V(d) x V(h))."""
    if not h.loops() and cycle_walk(h) is not None:
        return solve_cycle(d, h, costs)
    try:
        ordering = find_minmax(h, guard=guard)
    except GraphError:
        ordering = None
    if ordering is not None:
        return solve_minmax(d, h, ordering, costs)
    return solve_bruteforce(d, h, costs, budget=budget)
