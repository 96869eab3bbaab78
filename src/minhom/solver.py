"""Exact minimum cost homomorphism solvers.

Three routes are provided:

* solve_bruteforce — backtracking with forward checking; the independent
  oracle everything else is validated against.
* solve_minmax — the polynomial route for targets with a Min-Max ordering,
  realized as a minimum s-t cut over threshold variables
  x_{u,i} = [label(u) >= i].
* solve_cycle — rotation propagation for directed-cycle targets.

All costs are signed integers; negative costs are absorbed by per-vertex
shifts in the cut network, so every answer is exact.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Callable

from .digraph import Digraph, GraphError, InternalError, components, make_cycle
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


class FlowNetwork:
    """Integer-capacity flow network with a Dinic max-flow solver.

    Small and deterministic; networks built here have O(p * |V(D)|) nodes.
    """

    def __init__(self, n: int):
        self.n = n
        self.adj: list[list[list[int]]] = [[] for _ in range(n)]

    def add_edge(self, u: int, v: int, cap: int) -> None:
        self.adj[u].append([v, cap, len(self.adj[v])])
        self.adj[v].append([u, 0, len(self.adj[u]) - 1])

    def _bfs(self, s: int, t: int) -> list[int] | None:
        level = [-1] * self.n
        level[s] = 0
        q = deque([s])
        while q:
            u = q.popleft()
            for e in self.adj[u]:
                if e[1] > 0 and level[e[0]] < 0:
                    level[e[0]] = level[u] + 1
                    q.append(e[0])
        return level if level[t] >= 0 else None

    def _augment(self, s: int, t: int, level, it) -> int:
        """Push flow along one s-t path of the level graph; 0 if none is left.

        Depth-first without recursion: each node tries its arcs from its
        current arc it[u] on, and a dead end advances its parent's current
        arc, so paths of any length are found in adjacency-list order.
        """
        nodes = [s]
        path: list[list[int]] = []
        while nodes[-1] != t:
            u = nodes[-1]
            out = self.adj[u]
            while it[u] < len(out):
                e = out[it[u]]
                if e[1] > 0 and level[e[0]] == level[u] + 1:
                    path.append(e)
                    nodes.append(e[0])
                    break
                it[u] += 1
            else:
                nodes.pop()
                if not path:
                    return 0
                path.pop()
                it[nodes[-1]] += 1
        pushed = min(1 << 62, *(e[1] for e in path))
        for e in path:
            e[1] -= pushed
            self.adj[e[0]][e[2]][1] += pushed
        return pushed

    def max_flow(self, s: int, t: int) -> int:
        total = 0
        while True:
            level = self._bfs(s, t)
            if level is None:
                return total
            it = [0] * self.n
            while True:
                pushed = self._augment(s, t, level, it)
                if not pushed:
                    break
                total += pushed

    def source_side(self, s: int) -> set[int]:
        """Residual-reachable nodes from s; call after max_flow."""
        seen = {s}
        stack = [s]
        while stack:
            u = stack.pop()
            for e in self.adj[u]:
                if e[1] > 0 and e[0] not in seen:
                    seen.add(e[0])
                    stack.append(e[0])
        return seen


# -- min-cut route for Min-Max ordered targets ----------------------------


def _staircase(rows: list[int], cols: list[int],
               r: set[tuple[int, int]]) -> tuple[dict[int, int], dict[int, int]]:
    """Validate the staircase form of the relabeled arc relation.

    Returns row minima and maxima.  Any violation is an internal error: it
    would contradict closure under coordinatewise min and max.
    """
    row_min = {i: min(j for x, j in r if x == i) for i in rows}
    row_max = {i: max(j for x, j in r if x == i) for i in rows}
    col_set = set(cols)
    for i in rows:
        row = {j for x, j in r if x == i}
        want = {j for j in col_set if row_min[i] <= j <= row_max[i]}
        if row != want:
            raise InternalError(f"row {i} is not contiguous over nonempty columns")
    for j in cols:
        col = {x for x, y in r if y == j}
        lo, hi = min(col), max(col)
        if col != {x for x in rows if lo <= x <= hi}:
            raise InternalError(f"column {j} is not contiguous over nonempty rows")
    for a, b in zip(rows, rows[1:]):
        if row_min[a] > row_min[b] or row_max[a] > row_max[b]:
            raise InternalError("row minima/maxima are not nondecreasing")
    return row_min, row_max


def solve_minmax(d: Digraph, h: Digraph, ordering: Ordering,
                 costs: CostMatrix) -> SolveResult:
    """Exact optimum via a minimum s-t cut, valid whenever the ordering
    passes verify_minmax (checked; GraphError otherwise)."""
    ok, violation = verify_minmax(h, ordering)
    if not ok:
        raise GraphError(
            f"ordering is not Min-Max: pair {violation.e} / {violation.f} fails"
        )
    seq = ordering.sequence
    pos = ordering.rank()
    p = len(seq)
    r = {(pos[t], pos[head]) for t, head in h.arcs}
    rows = sorted({i for i, _ in r})
    cols = sorted({j for _, j in r})
    diag = {i for i, j in r if i == j}

    allowed: dict[str, set[int]] = {}
    for u in d.vertices:
        labels = set(range(1, p + 1))
        if any(w != u for w in d.out_neighbors(u)):
            labels &= set(rows)
        if any(w != u for w in d.in_neighbors(u)):
            labels &= set(cols)
        if d.has_loop(u):
            labels &= diag
        if not labels:
            return SolveResult(None, "minmax")
        allowed[u] = labels

    if rows:
        row_min, row_max = _staircase(rows, cols, r)
    else:
        row_min, row_max = {}, {}

    shift = {}
    big = 1
    for u in d.vertices:
        cs = [costs.cost(u, i) for i in seq]
        shift[u] = max(0, -min(cs))
        big += shift[u] + max(0, max(cs))
    inf = (len(d.vertices) + 2) * big

    if p == 1:
        # single target label; feasibility was settled by the restrictions
        mapping = {u: seq[0] for u in d.vertices}
        return _revalidated(d, h, costs, mapping,
                            map_cost(d, costs, mapping), "minmax")

    # nodes: 0 = source, 1 = sink, then (u, i) for i in 2..p
    node = {}
    nid = 2
    for u in d.vertices:
        for i in range(2, p + 1):
            node[(u, i)] = nid
            nid += 1
    net = FlowNetwork(nid)
    source, sink = 0, 1

    for u in d.vertices:
        for i in range(1, p + 1):
            cap = shift[u] + costs.cost(u, seq[i - 1]) if i in allowed[u] else big
            tail = source if i == 1 else node[(u, i)]
            head = sink if i == p else node[(u, i + 1)]
            net.add_edge(tail, head, cap)
        for i in range(2, p):
            net.add_edge(node[(u, i + 1)], node[(u, i)], inf)

    # label(t) >= i forces label(head) >= lam[i], the least column of the
    # first row at or above i; label(head) >= j forces label(t) >= mu[j],
    # the first row reaching column j (rows are sorted)
    lam = {i: next((row_min[x] for x in rows if x >= i), None)
           for i in range(2, p + 1)}
    mu = {j: next((x for x in rows if row_max[x] >= j), None)
          for j in range(2, p + 1)}
    for t, head in d.arcs:
        if t == head:
            continue  # loops became unary restrictions above
        for i in range(2, p + 1):
            target = lam[i]
            if target is not None and target >= 2:
                net.add_edge(node[(t, i)], node[(head, target)], inf)
        for j in range(2, p + 1):
            target = mu[j]
            if target is not None and target >= 2:
                net.add_edge(node[(head, j)], node[(t, target)], inf)

    value = net.max_flow(source, sink)
    if value >= big:
        return SolveResult(None, "minmax")

    side = net.source_side(source)
    mapping = {}
    for u in d.vertices:
        label = 1
        for i in range(2, p + 1):
            if node[(u, i)] in side:
                label = i
        mapping[u] = seq[label - 1]
    cost = value - sum(shift.values())
    return _revalidated(d, h, costs, mapping, cost, "minmax")


# -- directed-cycle targets -----------------------------------------------


def solve_cycle(d: Digraph, k: int, costs: CostMatrix) -> SolveResult:
    """Exact optimum for the directed k-cycle target (vertices '1'..'k').

    Each cycle vertex has a unique in- and out-neighbor, so a component's
    homomorphism is fixed by the image of one root vertex; the k rotations
    per component are enumerated directly.
    """
    if k < 2:
        raise GraphError(f"cycle target needs k >= 2, got {k}")
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
            cost = sum(costs.cost(v, str((res[v] + c) % k + 1)) for v in comp)
            if best is None or cost < best[0]:
                best = (cost, c)
        cost, c = best
        total += cost
        for v in comp:
            mapping[v] = str((res[v] + c) % k + 1)

    return _revalidated(d, make_cycle(k), costs, mapping, total, "cycle")


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


def _as_cycle(h: Digraph) -> dict[str, str] | None:
    """If h is a directed |V(h)|-cycle, return the map to canonical names."""
    k = len(h.vertices)
    if k < 2 or h.loops() or len(h.arcs) != k:
        return None
    for v in h.vertices:
        if len(h.out_neighbors(v)) != 1 or len(h.in_neighbors(v)) != 1:
            return None
    walk = [h.vertices[0]]
    names = {walk[0]: "1"}
    while len(walk) < k:
        nxt = h.out_neighbors(walk[-1])[0]
        if nxt in names:
            return None
        walk.append(nxt)
        names[nxt] = str(len(walk))
    if not h.has_arc(walk[-1], walk[0]):
        return None
    return names


def solve_cycle_target(d: Digraph, h: Digraph,
                       costs: CostMatrix) -> SolveResult | None:
    """solve_cycle for a directed-cycle target with any vertex names, or
    None if h is not a directed |V(h)|-cycle."""
    cycle_map = _as_cycle(h)
    if cycle_map is None:
        return None
    renamed = CostMatrix({(u, cycle_map[i]): c
                          for (u, i), c in costs.entries.items()})
    res = solve_cycle(d, len(h.vertices), renamed)
    if not res.feasible:
        return res
    inverse = {c: v for v, c in cycle_map.items()}
    mapping = {u: inverse[i] for u, i in res.homomorphism.mapping.items()}
    return _revalidated(d, h, costs, mapping, res.cost, "cycle")


def solve_auto(d: Digraph, h: Digraph, costs: CostMatrix,
               guard: int = FIND_GUARD,
               budget: int = BRUTE_BUDGET) -> SolveResult:
    """Dispatch: cycle target, then Min-Max route, then brute force."""
    res = solve_cycle_target(d, h, costs)
    if res is not None:
        return res
    try:
        ordering = find_minmax(h, guard=guard)
    except GraphError:
        ordering = None
    if ordering is not None:
        return solve_minmax(d, h, ordering, costs)
    return solve_bruteforce(d, h, costs, budget=budget)
