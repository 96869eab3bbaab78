"""Reference computations the benchmark checks `minhom` outputs against.

Everything here is written from the definitions and shares no code with the
program: the target families, an exact forest DP for MinHOM, the Min-Max
condition and an exhaustive ordering search, the hardness-witness patterns,
and a canonical form over all vertex permutations.

A digraph is a pair (vertices, arcs): a sequence of names and a set of
(tail, head) pairs, loops allowed.
"""

from __future__ import annotations

from itertools import permutations

# -- target families, from their definitions -----------------------------


def rc_tt(p):
    """Reflexive transitive tournament on 1..p: i -> j whenever i <= j."""
    vs = [str(i) for i in range(1, p + 1)]
    return vs, {(str(i), str(j)) for i in range(1, p + 1)
                for j in range(i, p + 1)}


def rc_ttminus(p):
    """rc_tt(p) without the arc 1 -> p."""
    vs, arcs = rc_tt(p)
    return vs, arcs - {("1", str(p))}


def rc_k12():
    """Reflexive star on 1, 2, 3 with arcs from the centre 1 to 2 and 3."""
    return ["1", "2", "3"], {("1", "1"), ("2", "2"), ("3", "3"),
                             ("1", "2"), ("1", "3")}


def cycle(k):
    """Directed k-cycle 1 -> 2 -> ... -> k -> 1."""
    vs = [str(i) for i in range(1, k + 1)]
    return vs, {(str(i), str(i % k + 1)) for i in range(1, k + 1)}


def t5(loops):
    """Vertices 1..4, arcs 12, 23, 34, 14, 24, plus a loop at each vertex in
    `loops` (e.g. "33" or "223344")."""
    arcs = {("1", "2"), ("2", "3"), ("3", "4"), ("1", "4"), ("2", "4")}
    arcs |= {(loops[i], loops[i]) for i in range(0, len(loops), 2)}
    return ["1", "2", "3", "4"], arcs


# -- MinHOM solutions -----------------------------------------------------


def is_homomorphism(d_arcs, h_arcs, mapping):
    return all((mapping[t], mapping[u]) in h_arcs for t, u in d_arcs)


def allowed_labels(d_vertices, d_arcs, h_vertices, h_arcs):
    """Per input vertex, the target vertices a looped vertex may take."""
    loops = {t for t, u in d_arcs if t == u}
    looped = [i for i in h_vertices if (i, i) in h_arcs]
    return {u: (looped if u in loops else list(h_vertices))
            for u in d_vertices}


def cost_bounds(d_vertices, d_arcs, h_vertices, h_arcs, cost):
    """(lower, upper) bounds on the optimum: the sum of per-vertex minima
    over allowed labels, and the cheapest constant map to a looped target
    vertex (None when no target vertex has a loop)."""
    allowed = allowed_labels(d_vertices, d_arcs, h_vertices, h_arcs)
    lower = sum(min((cost(u, i) for i in allowed[u]), default=0)
                for u in d_vertices)
    consts = [sum(cost(u, i) for u in d_vertices)
              for i in h_vertices if (i, i) in h_arcs]
    return lower, (min(consts) if consts else None)


def improving_relabel(d_vertices, d_arcs, h_vertices, h_arcs, cost, mapping):
    """A (vertex, label) whose single change keeps a homomorphism and lowers
    the cost, or None when the mapping is locally optimal."""
    incident = {u: [] for u in d_vertices}
    for t, u in d_arcs:
        incident[t].append((t, u))
        if u != t:
            incident[u].append((t, u))
    for u in d_vertices:
        here = cost(u, mapping[u])
        for i in h_vertices:
            if cost(u, i) < here and all(
                    (i if t == u else mapping[t], i if w == u else mapping[w])
                    in h_arcs for t, w in incident[u]):
                return u, i
    return None


def forest_min_cost(d_vertices, d_arcs, h_vertices, h_arcs, cost):
    """Exact MinHOM optimum for an input whose underlying graph (loops
    aside) is a forest, into any target; None when no homomorphism exists.

    Dynamic programme over each tree rooted at its first vertex:
    best[u][i] = cost(u, i) + sum over children w of the cheapest label of w
    compatible with i along the arc between u and w.
    """
    nbrs = {u: [] for u in d_vertices}
    edges = set()
    for t, u in d_arcs:
        if t == u:
            continue
        key = frozenset((t, u))
        if key in edges:
            raise ValueError(f"digon {t}-{u}: not a forest")
        edges.add(key)
        nbrs[t].append((u, True))
        nbrs[u].append((t, False))
    allowed = allowed_labels(d_vertices, d_arcs, h_vertices, h_arcs)
    inf = float("inf")
    best = {}
    seen = set()
    total = 0
    for root in d_vertices:
        if root in seen:
            continue
        seen.add(root)
        order = [(root, None, None)]
        k = 0
        while k < len(order):
            u = order[k][0]
            k += 1
            for w, out in nbrs[u]:
                if w not in seen:
                    seen.add(w)
                    order.append((w, u, out))
        if len(order) - 1 != sum(len(nbrs[u]) for u, _, _ in order) // 2:
            raise ValueError("input has a cycle: not a forest")
        for u, _, _ in order:
            best[u] = {i: cost(u, i) for i in allowed[u]}
        for w, u, out in reversed(order[1:]):
            for i in list(best[u]):
                cands = [best[w][j] for j in best[w]
                         if ((i, j) if out else (j, i)) in h_arcs]
                best[u][i] += min(cands, default=inf)
        top = min(best[root].values(), default=inf)
        if top == inf:
            return None
        total += top
    return total


# -- Min-Max orderings ----------------------------------------------------


def _closed(pairs, arcs):
    """For every arc ik in `pairs` and js in `arcs` (position pairs),
    (min(i,j), min(k,s)) and (max(i,j), max(k,s)) are in `arcs`."""
    return all((min(i, j), min(k, s)) in arcs and
               (max(i, j), max(k, s)) in arcs
               for i, k in pairs for j, s in arcs)


def is_minmax(h_vertices, h_arcs, order):
    """True iff `order` lists V(H) once each and is a Min-Max ordering."""
    if sorted(order) != sorted(h_vertices):
        return False
    pos = {v: r for r, v in enumerate(order)}
    arcs = {(pos[t], pos[u]) for t, u in h_arcs}
    return _closed(arcs, arcs)


def find_minmax_ordering(h_vertices, h_arcs):
    """Some Min-Max ordering of H, or None, by exhaustive search.

    Vertices are placed one position at a time.  Once all four endpoints of
    two arcs are placed, their min and max positions are placed too, so the
    pair is decided; each pair is checked when its last vertex is placed.
    """
    n = len(h_vertices)
    pos = {}
    order = []
    placed_arcs = []

    def extend():
        if len(order) == n:
            return True
        r = len(order)
        for v in h_vertices:
            if v in pos:
                continue
            pos[v] = r
            new = [(pos[t], pos[u]) for t, u in h_arcs
                   if (t == v or u == v) and t in pos and u in pos]
            if _closed(new, set(placed_arcs) | set(new)):
                order.append(v)
                placed_arcs.extend(new)
                if extend():
                    return True
                order.pop()
                del placed_arcs[len(placed_arcs) - len(new):]
            del pos[v]
        return False

    return list(order) if extend() else None


# -- hardness witnesses ---------------------------------------------------


def is_reflexive_cycle(h_vertices, h_arcs, cyc, looped):
    """`cyc` is an induced directed cycle of length >= 3 of H, in walk order,
    and `looped` is a vertex of it that carries a loop."""
    k = len(cyc)
    if k < 3 or len(set(cyc)) != k or not set(cyc) <= set(h_vertices):
        return False
    if looped not in cyc or (looped, looped) not in h_arcs:
        return False
    inside = {(t, u) for t, u in h_arcs if t != u and t in cyc and u in cyc}
    return inside == {(cyc[r], cyc[(r + 1) % k]) for r in range(k)}


def bipartite_rep(h_vertices, h_arcs):
    """BG(H): parts {v_1} and {v_2}; v_1 -- w_2 is an edge iff v -> w."""
    vs = [f"{v}_1" for v in h_vertices] + [f"{v}_2" for v in h_vertices]
    return vs, {frozenset((f"{t}_1", f"{u}_2")) for t, u in h_arcs}


def _path_edges(names):
    return [(names[r], names[r + 1]) for r in range(len(names) - 1)]


# Each pattern is written from its description as an undirected graph.
PATTERNS = {
    # the claw K_{1,3} with every edge subdivided once
    "bipartite-claw": (_path_edges(["c", "a1", "l1"]) +
                       _path_edges(["c", "a2", "l2"]) +
                       _path_edges(["c", "a3", "l3"])),
    # a 4-cycle with a pendant vertex at three consecutive cycle vertices
    "bipartite-net": (_path_edges(["q1", "q2", "q3", "q4", "q1"]) +
                      [("q1", "p1"), ("q2", "p2"), ("q3", "p3")]),
    # a 6-cycle with the chord r1-r4 (two 4-cycles sharing an edge) and a
    # pendant vertex at the chord's end r1
    "bipartite-tent": (_path_edges(["r1", "r2", "r3", "r4", "r5", "r6", "r1"]) +
                       [("r1", "r4"), ("r1", "p")]),
}


def induced_edges(edges, subset):
    """Edges (as frozensets) of an undirected graph induced by `subset`."""
    sub = set(subset)
    return {e for e in edges if e <= sub}


def is_induced_long_cycle(edges, hosts):
    """`hosts` induce a chordless cycle of length >= 6 (one component, every
    vertex of degree two)."""
    hosts = list(hosts)
    if len(hosts) < 6 or len(set(hosts)) != len(hosts):
        return False
    inside = induced_edges(edges, hosts)
    deg = {v: 0 for v in hosts}
    for e in inside:
        for v in e:
            deg[v] += 1
    if any(x != 2 for x in deg.values()):
        return False
    seen, stack = {hosts[0]}, [hosts[0]]
    while stack:
        v = stack.pop()
        for e in inside:
            if v in e:
                (w,) = e - {v}
                if w not in seen:
                    seen.add(w)
                    stack.append(w)
    return len(seen) == len(hosts)


def isomorphic(vs1, edges1, vs2, edges2):
    """Small undirected graphs (edges as frozensets) are isomorphic."""
    if len(vs1) != len(vs2) or len(edges1) != len(edges2):
        return False
    adj1 = {v: {w for e in edges1 if v in e for w in e if w != v} for v in vs1}
    adj2 = {v: {w for e in edges2 if v in e for w in e if w != v} for v in vs2}
    if sorted(map(len, adj1.values())) != sorted(map(len, adj2.values())):
        return False
    order = list(vs1)
    image = {}

    def extend(r):
        if r == len(order):
            return True
        v = order[r]
        for w in vs2:
            if w in image.values() or len(adj1[v]) != len(adj2[w]):
                continue
            if all((x in adj1[v]) == (image[x] in adj2[w]) for x in image):
                image[v] = w
                if extend(r + 1):
                    return True
                del image[v]
        return False

    return extend(0)


def is_forbidden(edges, kind, hosts):
    """`hosts` induce, in the graph with these edges, the named structure."""
    hosts = list(hosts)
    if len(set(hosts)) != len(hosts):
        return False
    if kind == "long-induced-cycle":
        return is_induced_long_cycle(edges, hosts)
    if kind not in PATTERNS:
        return False
    pattern = {frozenset(e) for e in PATTERNS[kind]}
    labels = sorted({v for e in pattern for v in e})
    return isomorphic(hosts, induced_edges(edges, hosts), labels, pattern)


def is_bg_forbidden(h_vertices, h_arcs, subset, kind, hosts):
    """`hosts` carry the named forbidden structure inside BG(H[subset])."""
    if len(set(subset)) != len(subset) or not set(subset) <= set(h_vertices):
        return False
    sub = set(subset)
    vs, edges = bipartite_rep(list(subset),
                              {(t, u) for t, u in h_arcs if t in sub and u in sub})
    return set(hosts) <= set(vs) and is_forbidden(edges, kind, hosts)


# -- isomorphism classes --------------------------------------------------


def canonical_form(vertices, arcs):
    """Smallest arc bitmask over all relabellings of the vertices by
    0..n-1; two digraphs are isomorphic iff their forms are equal."""
    n = len(vertices)
    idx = {v: r for r, v in enumerate(vertices)}
    pairs = [(idx[t], idx[u]) for t, u in arcs]
    return n, min(sum(1 << (p[t] * n + p[u]) for t, u in pairs)
                  for p in permutations(range(n)))
