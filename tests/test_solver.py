import itertools
import json
import os
import random
import subprocess
import sys
import time
from collections import deque
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import minhom

from minhom import (BudgetExceeded, CostMatrix, Digraph, GraphError, Ordering,
                    collapse_extension, extend, find_minmax, is_homomorphism,
                    make_cycle, make_oriented_kb, make_tt, make_tt_minus,
                    map_cost, solve_auto, solve_bruteforce, solve_cycle,
                    solve_minmax)
from minhom.cli import resolve_target
from minhom.minmax import _is_staircase, _rank_rows
from minhom.solver import FlowNetwork, _cut, _rows, _thresholds


def random_target(rng, max_n=4):
    n = rng.randint(1, max_n)
    vs = [str(i + 1) for i in range(n)]
    return Digraph(vs, [(a, b) for a in vs for b in vs if rng.random() < 0.5])


def random_input(rng, max_n=8, p=0.3):
    n = rng.randint(1, max_n)
    vs = [f"u{i}" for i in range(n)]
    return Digraph(vs, [(a, b) for a in vs for b in vs if rng.random() < p])


def random_costs(rng, d, h, lo=-9, hi=9):
    return CostMatrix({(u, i): rng.randint(lo, hi)
                       for u in d.vertices for i in h.vertices})


# -- is_homomorphism ------------------------------------------------------


def test_constant_map_to_looped_vertex():
    h = make_tt(2).reflexive_closure()
    d = random_input(random.Random(0))
    assert is_homomorphism(d, h, {u: "1" for u in d.vertices})


def test_loop_needs_looped_image():
    d = Digraph(("u",), [("u", "u")])
    h = make_tt(2)
    assert not is_homomorphism(d, h, {"u": "1"})
    assert not is_homomorphism(d, h, {"u": "2"})


def test_arc_maps_to_arc():
    d = Digraph(("u", "v"), [("u", "v")])
    assert is_homomorphism(d, make_tt(2), {"u": "1", "v": "2"})
    assert not is_homomorphism(d, make_tt(2), {"u": "2", "v": "1"})
    with pytest.raises(GraphError):
        is_homomorphism(d, make_tt(2), {"u": "1"})
    with pytest.raises(GraphError):
        is_homomorphism(d, make_tt(2), {"u": "1", "v": "7"})


# -- brute force ----------------------------------------------------------


def test_brute_unary_minimum():
    d = Digraph(("u",))
    h = make_tt(2).reflexive_closure()
    res = solve_bruteforce(d, h, CostMatrix({("u", "1"): 5, ("u", "2"): 3}))
    assert res.feasible and res.cost == 3
    assert res.mapping == {"u": "2"}


def test_brute_parity_infeasible():
    d = make_cycle(3)  # odd cycle as the input
    res = solve_bruteforce(d, make_cycle(2), CostMatrix({}))
    assert not res.feasible


def test_brute_tt3_minus_example():
    h = make_tt_minus(3).reflexive_closure()
    d = Digraph(("u", "v"), [("u", "v")])
    costs = CostMatrix({("u", "1"): 0, ("u", "2"): 5, ("u", "3"): 9,
                        ("v", "1"): 9, ("v", "2"): 5, ("v", "3"): 0})
    res = solve_bruteforce(d, h, costs)
    assert res.cost == 5


def test_brute_lexicographic_tie_break():
    d = Digraph(("u",))
    h = Digraph(("a", "b"), [("a", "a"), ("b", "b")])
    res = solve_bruteforce(d, h, CostMatrix({}))
    assert res.mapping == {"u": "a"}


def test_brute_budget():
    d = random_input(random.Random(1), max_n=8, p=0.1)
    h = make_tt(4).reflexive_closure()
    with pytest.raises(BudgetExceeded):
        solve_bruteforce(d, h, CostMatrix({}), budget=3)


def first_least_homomorphism(d, h, costs):
    """The first least-cost homomorphism d -> h in
    itertools.product(h.vertices, repeat=n) order over d's declaration
    order, by enumeration; None if there is none."""
    best = None
    for images in itertools.product(h.vertices, repeat=len(d.vertices)):
        mapping = dict(zip(d.vertices, images))
        if not all(h.has_arc(mapping[t], mapping[u]) for t, u in d.arcs):
            continue
        cost = sum(costs.cost(u, i) for u, i in mapping.items())
        if best is None or cost < best[1]:
            best = mapping, cost
    return best


def test_brute_is_the_first_least_homomorphism_seeded():
    rng = random.Random(2008)
    feasible = 0
    for _ in range(400):
        h = random_target(rng, max_n=4)
        h = Digraph(h.vertices, list(h.arcs) + [
            (v, v) for v in h.vertices if rng.random() < 0.3])
        d = random_input(rng, max_n=6, p=rng.choice([0.1, 0.25, 0.4]))
        costs = random_costs(rng, d, h, -2, 2)
        res = solve_bruteforce(d, h, costs)
        want = first_least_homomorphism(d, h, costs)
        assert res.feasible == (want is not None)
        if want is not None:
            feasible += 1
            assert (res.mapping, res.cost) == want
    assert 100 < feasible < 400


def budget_instance():
    rng = random.Random(2007)
    vs = [f"u{k}" for k in range(8)]
    d = Digraph(vs, [(a, b) for a in vs for b in vs if rng.random() < 0.2])
    h = resolve_target("t5_223344")
    costs = CostMatrix({(u, i): rng.randint(-3, 3)
                        for u in vs for i in h.vertices})
    return d, h, costs


def test_brute_budget_boundary():
    # this instance takes 83 search nodes, a count pinned from the
    # backtracking search the bitmask kernel replaced
    d, h, costs = budget_instance()
    with pytest.raises(BudgetExceeded):
        solve_bruteforce(d, h, costs, budget=82)
    res = solve_bruteforce(d, h, costs, budget=83)
    assert res.cost == -9
    assert res.mapping == dict(zip(d.vertices, "33332323"))


# -- max-flow kernel ------------------------------------------------------


def random_network(rng):
    """(n, s, t, edges): at most 9 nodes, with zero and near-10^6
    capacities, parallel edges, loops, edges into s and out of t."""
    n = rng.randint(2, 9)
    s, t = rng.sample(range(n), 2)

    def capacity():
        kind = rng.random()
        if kind < 0.15:
            return 0
        if kind < 0.3:
            return 10 ** 6 - rng.randint(0, 3)
        return rng.randint(1, 12)

    edges = [(rng.randrange(n), rng.randrange(n), capacity())
             for _ in range(rng.randint(0, 3 * n))]
    if edges and rng.random() < 0.5:
        edges.append(rng.choice(edges)[:2] + (capacity(),))
    edges.append((rng.randrange(n), s, capacity()))
    edges.append((t, rng.randrange(n), capacity()))
    rng.shuffle(edges)
    return n, s, t, edges


def brute_min_cuts(n, s, t, edges):
    """Minimum cut capacity and the intersection of all minimum-cut source
    sides, by enumerating every source side (as a bit mask)."""
    best, meet = None, 0
    for mask in range(1 << n):
        if not mask >> s & 1 or mask >> t & 1:
            continue
        cut = sum(c for u, v, c in edges if mask >> u & 1 and not mask >> v & 1)
        if best is None or cut < best:
            best, meet = cut, mask
        elif cut == best:
            meet &= mask
    return best, {v for v in range(n) if meet >> v & 1}


def test_max_flow_matches_brute_force_min_cut():
    rng = random.Random(2004)
    for _ in range(2000):
        n, s, t, edges = random_network(rng)
        net = FlowNetwork(n)
        for u, v, c in edges:
            net.add_edge(u, v, c)
        value, side = brute_min_cuts(n, s, t, edges)
        assert net.max_flow(s, t) == value
        # the residual source side is the unique minimal minimum cut
        assert net.source_side() == side


def edmonds_karp(n, s, t, edges):
    """Value of a maximum s-t flow by shortest augmenting paths, and the
    nodes reachable from s in the final residual network."""
    cap = {}
    near = [[] for _ in range(n)]
    for u, v, c in edges:
        for a, b in ((u, v), (v, u)):
            if (a, b) not in cap:
                cap[a, b] = 0
                near[a].append(b)
        cap[u, v] += c
    value = 0
    while True:
        prev = {s: s}
        queue = deque([s])
        while queue and t not in prev:
            u = queue.popleft()
            for v in near[u]:
                if v not in prev and cap[u, v]:
                    prev[v] = u
                    queue.append(v)
        if t not in prev:
            return value, set(prev)
        path = [t]
        while path[-1] != s:
            path.append(prev[path[-1]])
        pairs = list(zip(path[1:], path))
        push = min(cap[a, b] for a, b in pairs)
        for a, b in pairs:
            cap[a, b] -= push
            cap[b, a] += push
        value += push


def test_max_flow_matches_edmonds_karp_on_layered_networks(monkeypatch):
    # the networks _cut builds for paths and rings of a few hundred
    # vertices, nothing folded first: long chains of "label >= i" nodes, so
    # the search trees grow deep and adoption re-attaches whole subtrees
    networks = []
    max_flow = FlowNetwork.max_flow

    def record(net, s, t):
        # each edge pair with both capacities: a chain step's reverse is inf
        networks.append((net.n, s, t, list(zip(
            net.head[1::2], net.head[::2], net.cap[::2], net.cap[1::2]))))
        return max_flow(net, s, t)

    monkeypatch.setattr(FlowNetwork, "max_flow", record)
    rng = random.Random(2004)
    for h in (RC_TT5, RC_TTMINUS6):
        seq = find_minmax(h).sequence
        lam, mu = _thresholds(_rows(h, seq)[0], len(seq))
        for shape in ("path", "ring", "reversed-ring", "zigzag"):
            n = rng.randint(200, 300)
            vecs = [[None if rng.random() < 0.05 else rng.randint(-3, 3)
                     for _ in seq] for _ in range(n)]
            outs = [[k + 1] for k in range(n - 1)] + [[]]
            if shape == "ring":
                outs[-1] = [0]
            elif shape == "reversed-ring":
                outs[0] = [1, n - 1]
            elif shape == "zigzag":
                outs = [[] for _ in range(n)]
                for k in range(n - 1):
                    a, b = (k, k + 1) if rng.random() < 0.5 else (k + 1, k)
                    outs[a].append(b)
            _cut(vecs, outs, list(range(n)), lam, mu)
    monkeypatch.undo()
    assert len(networks) == 8
    for n, s, t, pairs in networks:
        net = FlowNetwork(n)
        for u, v, c, back in pairs:
            net.add_edge(u, v, c, back)
        edges = ([(u, v, c) for u, v, c, _ in pairs]
                 + [(v, u, back) for u, v, _, back in pairs if back])
        value, side = edmonds_karp(n, s, t, edges)
        assert net.max_flow(s, t) == value
        # the residual source side is the unique minimal minimum cut
        assert net.source_side() == side


def test_max_flow_matches_edmonds_karp_on_sparse_random_cores(monkeypatch):
    # the networks _cut builds for sparse random digraphs of 50-300 vertices
    # and about 2n arcs, nothing folded first, as solve-wide's inputs are:
    # many short paths that cross, so orphans have many candidate parents
    networks = []
    max_flow = FlowNetwork.max_flow

    def record(net, s, t):
        networks.append((net.n, s, t, list(zip(
            net.head[1::2], net.head[::2], net.cap[::2], net.cap[1::2]))))
        return max_flow(net, s, t)

    monkeypatch.setattr(FlowNetwork, "max_flow", record)
    rng = random.Random(31)
    for h in (RC_TT5, RC_TTMINUS6):
        seq = find_minmax(h).sequence
        lam, mu = _thresholds(_rows(h, seq)[0], len(seq))
        for _ in range(3):
            n = rng.randint(50, 300)
            vecs = [[None if rng.random() < 0.05 else rng.randint(-3, 3)
                     for _ in seq] for _ in range(n)]
            arcs = {(a, b) for a, b in (rng.sample(range(n), 2)
                                        for _ in range(2 * n))}
            outs = [[] for _ in range(n)]
            for a, b in sorted(arcs):
                outs[a].append(b)
            _cut(vecs, outs, list(range(n)), lam, mu)
    monkeypatch.undo()
    assert len(networks) == 6
    for n, s, t, pairs in networks:
        net = FlowNetwork(n)
        for u, v, c, back in pairs:
            net.add_edge(u, v, c, back)
        edges = ([(u, v, c) for u, v, c, _ in pairs]
                 + [(v, u, back) for u, v, _, back in pairs if back])
        value, side = edmonds_karp(n, s, t, edges)
        assert net.max_flow(s, t) == value
        # the residual source side is the unique minimal minimum cut
        assert net.source_side() == side


def test_max_flow_keeps_the_uncuttable_chain_reverses(monkeypatch):
    # each step between two "label >= i" nodes of _cut's network is one
    # edge pair whose reverse capacity is not 0; Edmonds–Karp gets both
    # directions of such a pair as edges of their own
    networks = []
    max_flow = FlowNetwork.max_flow

    def record(net, s, t):
        networks.append((net.n, s, t, list(zip(
            net.head[1::2], net.head[::2], net.cap[::2], net.cap[1::2]))))
        return max_flow(net, s, t)

    monkeypatch.setattr(FlowNetwork, "max_flow", record)
    rng = random.Random(28)
    seq = find_minmax(RC_TT5).sequence
    lam, mu = _thresholds(_rows(RC_TT5, seq)[0], len(seq))
    for ring in (False, True):
        n = 150
        vecs = [[None if rng.random() < 0.05 else rng.randint(-3, 3)
                 for _ in seq] for _ in range(n)]
        outs = [[k + 1] for k in range(n - 1)] + [[0] if ring else []]
        _cut(vecs, outs, list(range(n)), lam, mu)
    monkeypatch.undo()
    assert len(networks) == 2
    for n, s, t, pairs in networks:
        assert any(back for *_, back in pairs)
        net = FlowNetwork(n)
        for u, v, c, back in pairs:
            net.add_edge(u, v, c, back)
        edges = ([(u, v, c) for u, v, c, _ in pairs]
                 + [(v, u, back) for u, v, _, back in pairs if back])
        value, side = edmonds_karp(n, s, t, edges)
        assert net.max_flow(s, t) == value
        assert net.source_side() == side


# -- min-cut route --------------------------------------------------------


def row_column_thresholds(r, p):
    """lam and mu by their definitions, scanning the rows and columns of
    the relation r on labels 1..p, after checking that every row and
    column is contiguous over the nonempty ones and that row minima and
    maxima never decrease (the checks a staircase implies)."""
    rows = sorted({i for i, _ in r})
    cols = sorted({j for _, j in r})
    row_min = {i: min(j for x, j in r if x == i) for i in rows}
    row_max = {i: max(j for x, j in r if x == i) for i in rows}
    for i in rows:
        assert {j for x, j in r if x == i} == {
            j for j in cols if row_min[i] <= j <= row_max[i]}
    for j in cols:
        col = {x for x, y in r if y == j}
        assert col == {x for x in rows if min(col) <= x <= max(col)}
    for a, b in zip(rows, rows[1:]):
        assert row_min[a] <= row_min[b] and row_max[a] <= row_max[b]
    lam = [0] * (p + 1)
    mu = [0] * (p + 1)
    for i in range(2, p + 1):
        lam[i] = next((row_min[x] for x in rows if x >= i), 0)
        mu[i] = next((x for x in rows if row_max[x] >= i), 0)
    return lam, mu


def test_thresholds_match_the_row_and_column_scan_exhaustive():
    # every relation on at most 4 labels that passes the staircase verdict
    staircases = 0
    for p in range(1, 5):
        cells = [(i, j) for i in range(1, p + 1) for j in range(1, p + 1)]
        for bits in itertools.product((0, 1), repeat=len(cells)):
            arcs = [cell for cell, bit in zip(cells, bits) if bit]
            succs = [[] for _ in range(p)]
            for i, j in arcs:
                succs[i - 1].append(j - 1)
            if not _is_staircase(succs):
                continue
            assert _thresholds(succs, p) == row_column_thresholds(set(arcs), p)
            staircases += 1
    assert 2000 < staircases < 2 ** 16


def test_minmax_rejects_bad_ordering():
    with pytest.raises(GraphError):
        solve_minmax(Digraph(("u",)), make_cycle(2), Ordering(("1", "2")),
                     CostMatrix({}))


def test_minmax_simple():
    h = make_tt(2).reflexive_closure()
    d = Digraph(("u", "v"), [("u", "v")])
    costs = CostMatrix({("u", "1"): 0, ("u", "2"): 10,
                        ("v", "1"): 10, ("v", "2"): 0})
    res = solve_minmax(d, h, Ordering(("1", "2")), costs)
    assert res.cost == 0 and res.mapping == {"u": "1", "v": "2"}


def test_minmax_infeasible_path():
    d = Digraph(("u", "v", "w"), [("u", "v"), ("v", "w")])
    res = solve_minmax(d, make_tt(2), Ordering(("1", "2")), CostMatrix({}))
    assert not res.feasible


def test_minmax_matches_brute_example():
    h = make_tt_minus(3).reflexive_closure()
    d = Digraph(("u", "v"), [("u", "v")])
    costs = CostMatrix({("u", "1"): 0, ("u", "2"): 5, ("u", "3"): 9,
                        ("v", "1"): 9, ("v", "2"): 5, ("v", "3"): 0})
    res = solve_minmax(d, h, Ordering(("1", "2", "3")), costs)
    assert res.cost == 5


def test_minmax_oracle_equivalence_seeded():
    rng = random.Random(4242)
    done = 0
    while done < 200:
        h = random_target(rng)
        sigma = find_minmax(h)
        if sigma is None:
            continue
        d = random_input(rng)
        costs = random_costs(rng, d, h)
        r1 = solve_minmax(d, h, sigma, costs)
        r2 = solve_bruteforce(d, h, costs)
        assert r1.feasible == r2.feasible
        assert r1.cost == r2.cost
        done += 1


def path_dp_cost(vs, h, costs):
    """Optimal cost of mapping the directed path vs[0] -> vs[1] -> ... to h,
    by dynamic programming over the label of each vertex in turn."""
    best = {i: costs.cost(vs[0], i) for i in h.vertices}
    for u in vs[1:]:
        best = {j: costs.cost(u, j) + min(best[i] for i in h.vertices
                                          if h.has_arc(i, j))
                for j in h.vertices}
    return min(best.values())


def ring_dp_cost(vs, h, costs, reversed_closing=False):
    """Optimal cost of mapping the directed ring vs[0] -> ... -> vs[-1] ->
    vs[0] to h (with vs[0] -> vs[-1] as its closing arc if
    reversed_closing): the path dynamic programme once for each label a of
    vs[0], closed by an arc between the label of vs[-1] and a."""
    none = float("inf")
    best = none
    for a in h.vertices:
        row = {i: costs.cost(vs[0], i) if i == a else none for i in h.vertices}
        for u in vs[1:]:
            row = {j: costs.cost(u, j) + min(row[i] for i in h.vertices
                                             if h.has_arc(i, j))
                   for j in h.vertices}
        best = min([best] + [row[i] for i in h.vertices
                             if (h.has_arc(a, i) if reversed_closing
                                 else h.has_arc(i, a))])
    return best


RC_TT5 = make_tt(5).reflexive_closure()
RC_TTMINUS6 = make_tt_minus(6).reflexive_closure()


@pytest.mark.parametrize("h, closing", [
    (RC_TT5, None), (RC_TTMINUS6, None), (RC_TT5, "back"),
    (RC_TTMINUS6, "back"), (RC_TT5, "forward"), (RC_TTMINUS6, "forward")],
    ids=["rc_tt5", "rc_ttminus6", "rc_tt5-ring", "rc_ttminus6-ring",
         "rc_tt5-reversed-ring", "rc_ttminus6-reversed-ring"])
def test_minmax_long_path_matches_path_dp(h, closing):
    # a 4000-vertex directed path, alone or closed by one more arc.  The
    # path folds away before any network is built, and the directed ring
    # (closing arc back to the start) is one strong component, which
    # contracts to one vertex.  Nothing folds or contracts in the ring
    # whose closing arc is reversed, so its long augmenting paths reach
    # the max-flow
    rng = random.Random(4000 + len(h.vertices))
    vs = [f"u{k}" for k in range(4000)]
    arcs = list(zip(vs, vs[1:]))
    if closing:
        arcs.append((vs[-1], vs[0]) if closing == "back" else (vs[0], vs[-1]))
    costs = CostMatrix({(u, i): rng.randint(-20, 20)
                        for u in vs for i in h.vertices})
    res = solve_auto(Digraph(vs, arcs), h, costs)
    assert res.method == "minmax"
    want = (ring_dp_cost(vs, h, costs, closing == "forward") if closing
            else path_dp_cost(vs, h, costs))
    assert res.cost == want


def test_minmax_with_input_loops():
    rng = random.Random(31)
    done = 0
    while done < 60:
        h = random_target(rng)
        sigma = find_minmax(h)
        if sigma is None:
            continue
        d = random_input(rng, max_n=5, p=0.4)
        # force some loops into the input
        arcs = set(d.arcs) | {(v, v) for v in d.vertices if rng.random() < 0.5}
        d = Digraph(d.vertices, arcs)
        costs = random_costs(rng, d, h)
        r1 = solve_minmax(d, h, sigma, costs)
        r2 = solve_bruteforce(d, h, costs)
        assert (r1.feasible, r1.cost) == (r2.feasible, r2.cost)
        done += 1


def test_reflexive_target_never_infeasible():
    rng = random.Random(8)
    for _ in range(30):
        h = random_target(rng).reflexive_closure()
        d = random_input(rng, max_n=5)
        costs = random_costs(rng, d, h)
        res = solve_bruteforce(d, h, costs)
        assert res.feasible
        bound = min(sum(costs.cost(u, i) for u in d.vertices)
                    for i in h.vertices)
        assert res.cost <= bound


def test_cost_shift_invariance():
    rng = random.Random(13)
    for _ in range(20):
        h = make_tt(3).reflexive_closure()
        d = random_input(rng, max_n=4)
        costs = random_costs(rng, d, h)
        base = solve_bruteforce(d, h, costs)
        u0 = d.vertices[0]
        shifted = dict(costs.entries)
        for i in h.vertices:
            shifted[(u0, i)] = shifted.get((u0, i), 0) + 7
        res = solve_bruteforce(d, h, CostMatrix(shifted))
        assert res.cost == base.cost + 7
        assert res.mapping == base.mapping


# -- cycle route ----------------------------------------------------------


def test_cycle_zero_costs():
    res = solve_cycle(make_cycle(3), make_cycle(3), CostMatrix({}))
    assert res.feasible and res.cost == 0


def test_cycle_two_rotations():
    d = Digraph(("u", "v"), [("u", "v")])
    costs = CostMatrix({("u", "1"): 1, ("u", "2"): 5,
                        ("v", "1"): 2, ("v", "2"): 1})
    res = solve_cycle(d, make_cycle(2), costs)
    assert res.cost == 2 and res.mapping == {"u": "1", "v": "2"}


def test_cycle_maps_component_by_component():
    # the map lists each component's members in declaration order, the
    # components by their first member; an infeasible answer has no map
    d = Digraph(("a", "b", "c", "d", "e"),
                [("d", "b"), ("a", "e"), ("c", "a")])
    res = solve_cycle(d, make_cycle(3), CostMatrix({("b", "1"): 1}))
    assert list(res.mapping) == ["a", "c", "e", "b", "d"]
    assert res.cost == 0 and res.method == "cycle"
    res = solve_cycle(make_cycle(3), make_cycle(2), CostMatrix({}))
    assert (res.mapping, res.cost, res.method) == (None, None, "cycle")


def test_cycle_odd_input_infeasible():
    assert not solve_cycle(make_cycle(3), make_cycle(2), CostMatrix({})).feasible


def test_cycle_input_loop_infeasible():
    d = Digraph(("u",), [("u", "u")])
    assert not solve_cycle(d, make_cycle(3), CostMatrix({})).feasible


def test_cycle_oracle_equivalence_seeded():
    rng = random.Random(555)
    for _ in range(150):
        k = rng.randint(2, 5)
        d = random_input(rng)
        costs = CostMatrix({(u, str(i + 1)): rng.randint(-9, 9)
                            for u in d.vertices for i in range(k)})
        r1 = solve_cycle(d, make_cycle(k), costs)
        r2 = solve_bruteforce(d, make_cycle(k), costs)
        assert (r1.feasible, r1.cost) == (r2.feasible, r2.cost)


@st.composite
def cycle_instances(draw):
    """(d, cycle_k, costs): up to 8 input vertices, random arcs (digons
    included; each loop may be drawn with chance 1/4), k = 3..5 and costs
    in [-3, 3] so that optima tie."""
    k = draw(st.integers(3, 5))
    n = draw(st.integers(1, 8))
    vs = [f"u{i}" for i in range(n)]
    pairs = [(a, b) for a in vs for b in vs
             if a != b or draw(st.integers(0, 3)) == 0]
    arcs = draw(st.lists(st.sampled_from(pairs), max_size=2 * n)) if pairs else []
    costs = {(u, str(i)): draw(st.integers(-3, 3))
             for u in vs for i in range(1, k + 1)}
    return Digraph(vs, arcs), make_cycle(k), CostMatrix(costs)


@settings(max_examples=300)
@given(cycle_instances())
def test_cycle_matches_brute_force(instance):
    d, h, costs = instance
    got = solve_cycle(d, h, costs)
    want = solve_bruteforce(d, h, costs)
    assert got.cost == want.cost
    if got.feasible:
        mapping = got.mapping
        assert is_homomorphism(d, h, mapping)
        assert map_cost(d, costs, mapping) == got.cost


# -- extension collapse ---------------------------------------------------


def test_collapse_minimum_of_copies():
    hp, decomp = extend(make_tt(2), {"1": 2, "2": 1})
    costs = CostMatrix({("u", "1_1"): 4, ("u", "1_2"): 2})
    base, collapsed, lift = collapse_extension(hp, decomp, costs)
    assert collapsed.cost("u", "1") == 2
    assert lift({"u": "1"}) == {"u": "1_2"}


def test_collapse_singletons_keep_costs():
    h = Digraph(("a", "b"), [("a", "b")])
    hp, decomp = extend(h, {"a": 1, "b": 1})
    costs = CostMatrix({("u", "a_1"): 3})
    _, collapsed, _ = collapse_extension(hp, decomp, costs)
    assert collapsed.cost("u", "a") == 3


def test_collapse_rejects_bad_decomposition():
    hp, decomp = extend(make_tt(2), {"1": 2, "2": 1})
    bad = dict(decomp)
    bad.popitem()
    with pytest.raises(GraphError):
        collapse_extension(hp, bad, CostMatrix({}))
    looped = Digraph(hp.vertices, hp.arcs | {("2_1", "2_1")})
    with pytest.raises(GraphError, match="cannot have loops"):
        collapse_extension(looped, decomp, CostMatrix({}))


def test_collapse_lifts_only_base_images():
    hp, decomp = extend(make_tt(2), {"1": 2, "2": 1})
    _, _, lift = collapse_extension(hp, decomp, CostMatrix({}))
    assert lift({"u": "1", "v": "2"}) == {"u": "1_1", "v": "2_1"}
    with pytest.raises(GraphError) as info:
        lift({"u": "1", "v": "1_1"})
    assert str(info.value) == "image '1_1' is not a base vertex"


def test_collapse_checks_its_cost_keys():
    # an entry for a target vertex outside the extension was dropped
    hp, decomp = extend(make_tt(2), {"1": 2, "2": 1})
    with pytest.raises(GraphError) as info:
        collapse_extension(hp, decomp, CostMatrix({("u", "zz"): -5}))
    assert str(info.value) == (
        "cost entry ('u', 'zz') does not match the instance shape")
    # any input vertex may carry costs
    _, collapsed, _ = collapse_extension(hp, decomp,
                                         CostMatrix({("q", "2_1"): -5}))
    assert collapsed.entries == {("q", "2"): -5}


def test_collapse_names_the_first_bad_class_pair():
    # classes are taken in declaration order, pairs row by row: a -> b is
    # partly joined and c holds an arc, and whichever comes first is named
    arcs = [("a1", "b1"), ("c1", "c2")]
    decomp = {"a1": "a", "a2": "a", "b1": "b", "c1": "c", "c2": "c"}
    for order, message in (("a1 a2 b1 c1 c2", "'a' -> 'b' are only partially"),
                           ("c1 c2 a1 a2 b1", "'c' is not independent")):
        with pytest.raises(GraphError, match=message):
            collapse_extension(Digraph(order.split(), arcs), decomp,
                               CostMatrix({}))


def test_collapse_lift_ties_take_the_first_declared_copy():
    hp = Digraph(("x2", "x1", "y"), [("x2", "y"), ("x1", "y")])
    decomp = {"x1": "x", "x2": "x", "y": "y"}
    costs = CostMatrix({("u", "x1"): 1, ("u", "x2"): 1})
    _, _, lift = collapse_extension(hp, decomp, costs)
    assert lift({"u": "x", "v": "x"}) == {"u": "x2", "v": "x2"}


def test_collapse_equals_extension_optimum_seeded():
    rng = random.Random(808)
    for _ in range(200):
        n = rng.randint(1, 3)
        vs = [chr(97 + i) for i in range(n)]
        h = Digraph(vs, [(a, b) for a in vs for b in vs
                         if a != b and rng.random() < 0.5])
        hp, decomp = extend(h, {v: rng.randint(1, 2) for v in vs})
        d = random_input(rng, max_n=4)
        costs = CostMatrix({(u, w): rng.randint(-5, 5)
                            for u in d.vertices for w in hp.vertices})
        base, collapsed, lift = collapse_extension(hp, decomp, costs)
        r1 = solve_bruteforce(d, hp, costs)
        r2 = solve_bruteforce(d, base, collapsed)
        assert (r1.feasible, r1.cost) == (r2.feasible, r2.cost)
        if r2.feasible:
            lifted = lift(r2.mapping)
            assert is_homomorphism(d, hp, lifted)
            assert map_cost(d, costs, lifted) == r2.cost


def test_cycle_rejects_other_targets():
    d = Digraph(("u",))
    for h in (make_tt(3), make_cycle(3).reflexive_closure(), Digraph(("a",)),
              Digraph(("a", "b", "c"), [("a", "b"), ("b", "c"), ("c", "b")])):
        with pytest.raises(GraphError, match="not a directed cycle"):
            solve_cycle(d, h, CostMatrix({}))


def test_cycle_renamed_targets_match_brute_force_seeded():
    # vertex names and declaration order of the target are arbitrary
    rng = random.Random(556)
    for _ in range(150):
        k = rng.randint(2, 5)
        names = [f"t{i}" for i in range(k)]
        rng.shuffle(names)
        arcs = [(names[i], names[(i + 1) % k]) for i in range(k)]
        rng.shuffle(names)
        h = Digraph(names, arcs)
        d = random_input(rng)
        costs = random_costs(rng, d, h)
        r1 = solve_cycle(d, h, costs)
        r2 = solve_bruteforce(d, h, costs)
        assert (r1.feasible, r1.cost) == (r2.feasible, r2.cost)
        assert solve_auto(d, h, costs) == r1


# -- dispatch -------------------------------------------------------------


def test_auto_dispatch_cycle():
    res = solve_auto(make_cycle(5), make_cycle(5), CostMatrix({}))
    assert res.method == "cycle" and res.cost == 0


def test_auto_dispatch_minmax():
    d = Digraph(("u", "v"), [("u", "v")])
    res = solve_auto(d, make_tt(3).reflexive_closure(), CostMatrix({}))
    assert res.method == "minmax" and res.feasible


def test_auto_takes_the_min_cut_route_above_the_guard():
    # rc_tt10's declaration order is Min-Max, so no search runs and the
    # guard does not apply.  The least optimum the min-cut route returns
    # is the lexicographically first one brute force returns
    h = resolve_target("rc_tt10")
    rng = random.Random(10)
    for _ in range(40):
        d = random_input(rng, max_n=6)
        costs = random_costs(rng, d, h)
        res = solve_auto(d, h, costs)
        brute = solve_bruteforce(d, h, costs)
        assert res.method == "minmax"
        assert (res.mapping, res.cost) == (brute.mapping, brute.cost)


def test_auto_dispatch_brute():
    d = Digraph(("u",))
    res = solve_auto(d, make_cycle(3).reflexive_closure(), CostMatrix({}))
    assert res.method == "brute" and res.feasible


def oriented_tree(rng, n):
    vs = [f"v{k}" for k in range(n)]
    arcs = []
    for k in range(1, n):
        pair = (vs[k], vs[rng.randrange(k)])
        arcs.append(pair if rng.random() < 0.5 else pair[::-1])
    return Digraph(vs, arcs)


def forest_dp_cost(d, h, costs):
    """Optimal cost of a loopless forest d into h, by dynamic programming
    from the leaves of each tree (rooted at its first vertex reached) up:
    best[u][i] is the least cost of u's subtree with u labelled i."""
    nbrs = {u: [] for u in d.vertices}  # (neighbour, arc runs u -> it)
    for t, w in d.arcs:
        nbrs[t].append((w, True))
        nbrs[w].append((t, False))
    order, parent, seen = [], {}, set()
    for root in d.vertices:
        if root in seen:
            continue
        seen.add(root)
        stack = [root]
        while stack:
            u = stack.pop()
            order.append(u)
            for w, down in nbrs[u]:
                if w not in seen:
                    seen.add(w)
                    parent[w] = (u, down)
                    stack.append(w)
    best = {u: {i: costs.cost(u, i) for i in h.vertices} for u in order}
    total = 0
    for u in reversed(order):
        if u not in parent:
            total += min(best[u].values())
            continue
        w, down = parent[u]  # down: the arc runs w -> u
        for j in h.vertices:
            best[w][j] += min(
                (best[u][i] for i in h.vertices
                 if h.has_arc(*((j, i) if down else (i, j)))),
                default=float("inf"))
    return total


@pytest.mark.parametrize("name", ["t5_223344", "t5_1122", "t5_11", "rc_tt10"])
def test_auto_solves_trees_into_targets_without_an_ordering(name):
    # none of these targets has a cycle walk or an ordering find_minmax
    # finds (rc_tt10, declared 1,3,...,9,2,4,...,10, needs a search beyond
    # its guard), yet a tree input folds away
    h = resolve_target(name)
    if name == "rc_tt10":
        h = Digraph(h.vertices[::2] + h.vertices[1::2], h.arcs)
        assert not _is_staircase(_rank_rows(h, h.vertices))
    rng = random.Random(name)
    for _ in range(3):
        d = oriented_tree(rng, 40)
        costs = random_costs(rng, d, h, -20, 20)
        start = time.perf_counter()
        res = solve_auto(d, h, costs)
        assert time.perf_counter() - start < 0.1
        assert res.method == "brute"
        assert res.cost == forest_dp_cost(d, h, costs)


def test_auto_solves_a_large_tree_into_t5():
    h = resolve_target("t5_223344")
    rng = random.Random(10 ** 4)
    d = oriented_tree(rng, 10 ** 4)
    costs = random_costs(rng, d, h, -20, 20)
    start = time.perf_counter()
    res = solve_auto(d, h, costs)
    assert time.perf_counter() - start < 2
    assert res.cost == forest_dp_cost(d, h, costs)


def test_auto_rejects_cost_keys_outside_the_instance():
    # the cycle, min-cut and brute-force routes alike raise GraphError
    d = Digraph(("u",))
    targets = [make_cycle(3), make_tt(3).reflexive_closure(),
               make_cycle(3).reflexive_closure()]
    methods = [solve_auto(d, h, CostMatrix({})).method for h in targets]
    assert methods == ["cycle", "minmax", "brute"]
    for h in targets:
        for key in (("u", "zz"), ("nosuch", "1")):
            with pytest.raises(GraphError, match="cost entry"):
                solve_auto(d, h, CostMatrix({key: 7}))


def test_auto_cycle_with_renamed_target():
    # the same 3-cycle under other vertex names dispatches to the cycle route
    h = Digraph(("x", "y", "z"), [("x", "y"), ("y", "z"), ("z", "x")])
    d = make_cycle(3)
    costs = CostMatrix({("1", "x"): -2, ("2", "y"): 1})
    res = solve_auto(d, h, costs)
    assert res.method == "cycle"
    assert res.cost == min(-2 + 1, 0, 0) or res.cost <= 0
    brute = solve_bruteforce(d, h, costs)
    assert res.cost == brute.cost


NETWORK_PROBE = """
import json
from minhom import CostMatrix, Digraph, make_tt, solve_auto
from minhom.solver import FlowNetwork

seen = []
max_flow = FlowNetwork.max_flow


def probe(net, s, t):
    seen.append((net.n, net.head[:], net.cap[:]))
    return max_flow(net, s, t)


FlowNetwork.max_flow = probe
# ten directed 4-cycles (strong components), group g joined to groups g + 1
# and g + 3: the condensation keeps undirected cycles, so it is cut
vs = [f"v{i}" for i in range(40)]
arcs = []
for i in range(40):
    g, m = divmod(i, 4)
    arcs.append((vs[i], vs[4 * g + (m + 1) % 4]))
    if g < 9:
        arcs.append((vs[i], vs[4 * (g + 1) + (m + 1) % 4]))
    if g < 7:
        arcs.append((vs[i], vs[4 * (g + 3) + (3 * m + 2) % 4]))
d = Digraph(vs, arcs)
costs = CostMatrix({(v, str(1 + i % 4)): i % 7 - 3 for i, v in enumerate(vs)})
solve_auto(d, make_tt(4).reflexive_closure(), costs)
print(json.dumps(seen))
"""


def test_minmax_network_independent_of_hash_seed():
    # the min-cut network, over the strong components of the input, is
    # built in declaration order, not in the order of the arc frozenset,
    # which follows the string hash seed
    src = str(Path(minhom.__file__).parent.parent)
    runs = []
    for seed in ("1", "2"):
        env = dict(os.environ, PYTHONPATH=src, PYTHONHASHSEED=seed)
        proc = subprocess.run([sys.executable, "-c", NETWORK_PROBE], env=env,
                              capture_output=True, text=True, check=True)
        runs.append(json.loads(proc.stdout))
    assert len(runs[0]) == 1 and runs[0] == runs[1]
    assert runs[0][0][0] == 2 + 10 * 3  # one chain of 3 nodes per component


def test_minmax_one_label_and_arcless_targets():
    # one target label gives a network with only source -> sink edges;
    # an arcless or empty target leaves every arc and loop of d unmappable
    targets = [Digraph(("1",), [("1", "1")]), Digraph(("1",)),
               Digraph(("1", "2")), Digraph(("1", "2"), [("1", "1")]),
               Digraph(())]
    rng = random.Random(8)
    seen = set()
    for h in targets:
        ordering = find_minmax(h)
        inputs = [Digraph(())] + [random_input(rng, max_n=5, p=q)
                                  for q in (0.0, 0.15, 0.3) for _ in range(20)]
        for d in inputs:
            costs = random_costs(rng, d, h)
            got = solve_minmax(d, h, ordering, costs)
            want = solve_bruteforce(d, h, costs)
            assert got.method == "minmax"
            assert (got.feasible, got.cost) == (want.feasible, want.cost)
            seen.add((len(h.vertices), got.feasible, bool(d.arcs)))
    # feasible and infeasible answers, with and without arcs in d
    assert {(1, True, True), (1, True, False), (2, True, False),
            (2, False, True), (0, True, False), (0, False, False)} <= seen


def barred_labels(h, out, inn, loop):
    """The labels of h that an input vertex with these flags (a non-loop
    out-arc, a non-loop in-arc, a loop) cannot take."""
    return {i for i in h.vertices
            if out and not any(h.has_arc(i, j) for j in h.vertices)
            or inn and not any(h.has_arc(j, i) for j in h.vertices)
            or loop and not h.has_loop(i)}


def test_auto_cost_vectors_bar_the_labels_of_each_flag_combination():
    # the Min-Max targets bar some label for each combination with a flag
    # (one with none bars nothing), and one combination bars every label
    # of B and of C; D and E have no Min-Max ordering and take the
    # reductions of the brute route
    targets = {
        "A": Digraph(("1", "2", "3"),
                     [("1", "2"), ("2", "3"), ("1", "3"), ("2", "2")]),
        "B": Digraph(("1", "2", "3"), [("1", "2"), ("2", "3"), ("1", "3")]),
        "C": Digraph(("1", "2", "3"), [("1", "2"), ("1", "3")]),
        "D": Digraph(("1", "2", "3"),
                     [("1", "2"), ("2", "3"), ("3", "1"), ("1", "1")]),
        "E": Digraph(("1", "2", "3", "4"), [("1", "2"), ("2", "3"),
                                            ("3", "4"), ("4", "1"),
                                            ("1", "3")])}
    flags = list(itertools.product((False, True), repeat=3))
    for name in "ABC":
        assert all(barred_labels(targets[name], *f) for f in flags[1:])
    assert {"B", "C"} == {name for name in "ABC" if any(
        len(barred_labels(targets[name], *f)) == 3 for f in flags)}
    rng = random.Random(32)
    seen, answers = set(), set()
    for name, h in targets.items():
        for _ in range(60):
            d = random_input(rng, max_n=8, p=rng.choice((0.05, 0.12, 0.2)))
            d = Digraph(d.vertices, [(u, w) for u, w in d.arcs if u != w]
                        + [(u, u) for u in d.vertices if rng.random() < 0.3])
            outs, ins, looped = d.adjacency
            seen |= set(zip(map(bool, outs), map(bool, ins), looped))
            costs = random_costs(rng, d, h)
            got, want = solve_auto(d, h, costs), solve_bruteforce(d, h, costs)
            assert got.method == ("brute" if name in "DE" else "minmax")
            assert (got.feasible, got.cost) == (want.feasible, want.cost), \
                (name, d, costs)
            answers.add((name, got.feasible))
    assert seen == set(flags)
    assert {("A", True), ("B", False), ("C", False), ("D", True),
            ("E", False)} <= answers
    empty = Digraph(())
    got = solve_auto(empty, empty, CostMatrix({}))
    want = solve_bruteforce(empty, empty, CostMatrix({}))
    assert (got.mapping, got.cost) == (want.mapping, want.cost) == ({}, 0)
