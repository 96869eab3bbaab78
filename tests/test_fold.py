"""The pendant-tree fold and the strong-component contraction of
solve_minmax, and of solve_auto's route for targets without an ordering,
against exhaustive search.

solve_minmax folds every vertex with at most one arc left into its
neighbour's costs; into a target acyclic up to loops it then contracts each
strong component of the rest (the core) and folds again; it cuts only what
is left.  Its cost must be the brute-force optimum, and its map the least
optimum: the coordinatewise minimum, by ordering rank, of all optimal maps.
"""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from minhom import (CostMatrix, Digraph, find_minmax, is_homomorphism,
                    make_cycle, make_tt, make_tt_minus, map_cost, solve_auto,
                    solve_bruteforce, solve_minmax)
from minhom.cli import resolve_target
from minhom.solver import FlowNetwork

TARGETS = {"rc_tt3": make_tt(3).reflexive_closure(),
           "rc_tt5": make_tt(5).reflexive_closure(),
           "rc_ttminus6": make_tt_minus(6).reflexive_closure(),
           "rc_k12": resolve_target("rc_k12"),
           "tt4": make_tt(4),
           # a loopless digon: a directed cycle of d need not map to one
           # vertex, so nothing may be contracted
           "rc_k2": Digraph(("1", "2"), [("1", "1"), ("1", "2"), ("2", "1"),
                                         ("2", "2")])}
ACYCLIC = sorted(set(TARGETS) - {"rc_k2"})
ORDERINGS = {name: find_minmax(h) for name, h in TARGETS.items()}
# targets with neither a cycle walk nor a Min-Max ordering: solve_auto
# folds and contracts as solve_minmax does, then searches the core
UNORDERED = {"t5_223344": resolve_target("t5_223344"),
             "rc_c3": make_cycle(3).reflexive_closure(),
             # a digon with a loop at one end only
             "half_looped_digon": Digraph(("1", "2"), [("1", "1"), ("1", "2"),
                                                       ("2", "1")])}


def least_optimum(d, h, ordering, costs, best):
    """Coordinatewise least map, by rank in ordering, over every
    homomorphism d -> h of cost best (found by exhaustive search)."""
    rank = {v: i for i, v in enumerate(ordering.sequence, 1)}
    vs = d.vertices
    low = [min(costs.cost(u, i) for i in h.vertices) for u in vs]
    rest = [sum(low[k:]) for k in range(len(vs) + 1)]
    least: dict[str, str] = {}
    assign: dict[str, str] = {}

    def search(k, partial):
        if partial + rest[k] > best:
            return
        if k == len(vs):
            for u, i in assign.items():
                if u not in least or rank[i] < rank[least[u]]:
                    least[u] = i
            return
        u = vs[k]
        for i in h.vertices:
            if d.has_loop(u) and not h.has_loop(i):
                continue
            if all(h.has_arc(assign[t], i) for t, w in d.arcs
                   if w == u and t in assign) and \
               all(h.has_arc(i, assign[w]) for t, w in d.arcs
                   if t == u and w in assign):
                assign[u] = i
                search(k + 1, partial + costs.cost(u, i))
                del assign[u]

    search(0, 0)
    return least


@st.composite
def instances(draw, targets=TARGETS):
    """(target name, d, costs): a random forest on up to n = 7 vertices
    (some isolated), then up to n extra arcs (cycles, digons, loops; strong
    components of 3 or more vertices with pendant trees) and input loops,
    with costs in [-3, 3] so that optima tie."""
    name = draw(st.sampled_from(sorted(targets)))
    h = targets[name]
    n = draw(st.integers(1, 7))
    vs = [f"u{k}" for k in range(n)]
    arcs = set()
    for k in range(1, n):
        parent = draw(st.integers(-1, k - 1))  # -1: no arc, k starts a tree
        if parent >= 0:
            pair = (vs[k], vs[parent])
            arcs.add(pair if draw(st.booleans()) else pair[::-1])
    pick = st.sampled_from(vs)
    for _ in range(draw(st.integers(0, n))):
        arcs.add((draw(pick), draw(pick)))
    for u in draw(st.lists(pick, max_size=2)):
        arcs.add((u, u))
    order = draw(st.permutations(vs))
    values = st.integers(-3, 3)
    costs = CostMatrix({(u, i): draw(values)
                        for u in vs for i in h.vertices})
    return name, Digraph(order, arcs), costs


@settings(max_examples=400)
@given(instances())
def test_fold_matches_brute_force_and_least_optimum(instance):
    name, d, costs = instance
    h, ordering = TARGETS[name], ORDERINGS[name]
    got = solve_minmax(d, h, ordering, costs)
    want = solve_bruteforce(d, h, costs)
    assert (got.feasible, got.cost) == (want.feasible, want.cost)
    if got.feasible:
        assert got.mapping == \
            least_optimum(d, h, ordering, costs, want.cost)


@settings(max_examples=300)
@given(instances(UNORDERED))
def test_auto_without_an_ordering_matches_brute_force(instance):
    # the cost must be the optimum and the map a homomorphism of that
    # cost; which optimum is not pinned, as without a Min-Max ordering the
    # optima need not form a lattice with a least element
    name, d, costs = instance
    h = UNORDERED[name]
    got = solve_auto(d, h, costs)
    want = solve_bruteforce(d, h, costs)
    assert got.method == "brute"
    assert (got.feasible, got.cost) == (want.feasible, want.cost)
    if got.feasible:
        assert is_homomorphism(d, h, got.mapping)
        assert map_cost(d, costs, got.mapping) == got.cost


@pytest.mark.parametrize("name", ["tt4", "rc_tt3"])
@pytest.mark.parametrize("extra", [0, 3])
def test_fold_pendant_path_makes_instance_infeasible(name, extra):
    # a directed path of 4 + extra arcs hangs off a transitive triangle.
    # TT_4 has the triangle but no such path, so the folded costs of the
    # triangle's vertex are all barred
    h = TARGETS[name]
    vs = [f"p{k}" for k in range(5 + extra)]
    d = Digraph(["a", "b", "c"] + vs,
                [("a", "b"), ("b", "c"), ("a", "c"), ("c", vs[0])]
                + list(zip(vs, vs[1:])))
    res = solve_minmax(d, h, ORDERINGS[name], CostMatrix({}))
    assert res.feasible == (name == "rc_tt3")
    assert res.feasible == solve_bruteforce(d, h, CostMatrix({})).feasible


def random_forest(rng, n):
    vs = [f"v{k}" for k in range(n)]
    arcs = []
    for k in range(1, n):
        parent = rng.randrange(-1, k)
        if parent >= 0:
            pair = (vs[k], vs[parent])
            arcs.append(pair if rng.random() < 0.5 else pair[::-1])
    return Digraph(vs, arcs)


def test_forest_input_builds_no_network(monkeypatch):
    def refuse(net, s, t):
        raise AssertionError("a forest input reached max_flow")

    monkeypatch.setattr(FlowNetwork, "max_flow", refuse)
    rng = random.Random(1990)
    for name in sorted(TARGETS):
        h = TARGETS[name]
        for n in (1, 2, 5, 200):
            d = random_forest(rng, n)
            costs = CostMatrix({(u, i): rng.randint(-9, 9)
                                for u in d.vertices for i in h.vertices})
            res = solve_minmax(d, h, ORDERINGS[name], costs)
            if n <= 5:
                assert res.cost == solve_bruteforce(d, h, costs).cost


def random_strong(rng, n):
    """A strongly connected digraph: a directed ring through all n vertices
    in random order, n random chords and a few loops."""
    vs = [f"v{k}" for k in range(n)]
    ring = rng.sample(vs, n)
    arcs = list(zip(ring, ring[1:] + ring[:1]))
    arcs += [tuple(rng.sample(vs, 2)) for _ in range(n if n > 1 else 0)]
    arcs += [(v, v) for v in vs if rng.random() < 0.1]
    return Digraph(vs, arcs)


def test_strongly_connected_input_builds_no_network(monkeypatch):
    # into a target acyclic up to loops, the whole input contracts to one
    # vertex, which the second fold removes
    def refuse(net, s, t):
        raise AssertionError("a strongly connected input reached max_flow")

    monkeypatch.setattr(FlowNetwork, "max_flow", refuse)
    rng = random.Random(1972)
    for name in ACYCLIC:
        h = TARGETS[name]
        for n in (1, 2, 5, 200):
            d = random_strong(rng, n)
            costs = CostMatrix({(u, i): rng.randint(-9, 9)
                                for u in d.vertices for i in h.vertices})
            res = solve_minmax(d, h, ORDERINGS[name], costs)
            if n <= 5:
                assert res.cost == solve_bruteforce(d, h, costs).cost


def strong_tree(rng, sizes):
    """Strongly connected parts of the given sizes (random_strong), each
    after the first joined to an earlier part by one to three arcs that
    all run the same way: the parts are the strong components, and they
    form a tree."""
    parts, arcs = [], []
    for p, n in enumerate(sizes):
        part = random_strong(rng, n)
        names = {v: f"p{p}{v}" for v in part.vertices}
        arcs += [(names[t], names[head]) for t, head in part.arcs]
        parts.append(list(names.values()))
        if p:
            ends = [parts[rng.randrange(p)], parts[p]]
            rng.shuffle(ends)
            arcs += [(rng.choice(ends[0]), rng.choice(ends[1]))
                     for _ in range(rng.randint(1, 3))]
    return Digraph([v for part in parts for v in part], arcs)


def test_tree_of_strong_components_builds_no_network(monkeypatch):
    # each strong component contracts to its first member, with one arc
    # per pair of joined components however many arcs join them, so the
    # contracted input is a tree and the second fold removes all of it
    def refuse(net, s, t):
        raise AssertionError("a tree of strong components reached max_flow")

    monkeypatch.setattr(FlowNetwork, "max_flow", refuse)
    rng = random.Random(1978)
    for name in ACYCLIC:
        h = TARGETS[name]
        for sizes in ([2, 1, 2], [1, 3, 1], [3, 1, 4, 1, 5, 9, 2, 6], [40] * 5):
            d = strong_tree(rng, sizes)
            costs = CostMatrix({(u, i): rng.randint(-9, 9)
                                for u in d.vertices for i in h.vertices})
            res = solve_minmax(d, h, ORDERINGS[name], costs)
            if len(d.vertices) <= 5:
                assert res.cost == solve_bruteforce(d, h, costs).cost


def test_tree_plus_one_cycle_cuts_only_the_cycle(monkeypatch):
    sizes = []
    max_flow = FlowNetwork.max_flow

    def record(net, s, t):
        sizes.append(net.n)
        return max_flow(net, s, t)

    monkeypatch.setattr(FlowNetwork, "max_flow", record)
    rng = random.Random(4)
    h = TARGETS["rc_tt5"]
    p = len(h.vertices)
    # a 5-cycle with mixed orientations, a 40-vertex tree hanging off one
    # of its vertices and a pendant vertex off another
    cycle = [f"c{k}" for k in range(5)]
    arcs = [(cycle[k], cycle[(k + 1) % 5]) if k % 2 else
            (cycle[(k + 1) % 5], cycle[k]) for k in range(5)]
    tree = [f"v{k}" for k in range(40)]
    for k in range(1, 40):
        pair = (tree[k], tree[rng.randrange(k)])
        arcs.append(pair if rng.random() < 0.5 else pair[::-1])
    arcs += [(cycle[0], "v0"), ("x", cycle[3])]
    d = Digraph(tree + cycle + ["x"], arcs)
    costs = CostMatrix({(u, i): rng.randint(-9, 9)
                        for u in d.vertices for i in h.vertices})
    res = solve_minmax(d, h, ORDERINGS["rc_tt5"], costs)
    assert sizes == [2 + len(cycle) * (p - 1)]
    assert res.feasible


def test_reductions_leave_the_adjacency_index_alone():
    # the fold and the contraction rewrite solve_minmax's own lists of
    # neighbours; the index cached on d must stay as built, so a second
    # solve of the same d gives the same answer
    rng = random.Random(15)
    h = TARGETS["rc_tt5"]
    core = strong_tree(rng, [3, 2, 4])
    arcs = set(core.arcs)
    tree = [f"t{k}" for k in range(12)]  # pendant trees on the components
    for k, v in enumerate(tree):
        w = rng.choice(core.vertices + tuple(tree[:k]))
        arcs.add((v, w) if rng.random() < 0.5 else (w, v))
    d = Digraph(core.vertices + tuple(tree), arcs)
    costs = CostMatrix({(u, i): rng.randint(-9, 9)
                        for u in d.vertices for i in h.vertices})
    first = solve_minmax(d, h, ORDERINGS["rc_tt5"], costs)
    assert d.adjacency == Digraph(d.vertices, d.arcs).adjacency
    again = solve_minmax(d, h, ORDERINGS["rc_tt5"], costs)
    assert first.feasible and again == first
    assert first.cost == solve_bruteforce(d, h, costs).cost
