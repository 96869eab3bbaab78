import itertools
import os
import random
import subprocess
import sys
import time
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import minhom
from minhom import (BipartiteGraph, CostMatrix, Digraph, GraphError,
                    GuardExceeded, bg, components,
                    digraph_instance_from_bipartite,
                    find_forbidden, is_proper_interval_bigraph, lift_solution,
                    make_cycle, make_tt, project_solution, solve_bruteforce)
from minhom.birep import (_AFTER, _WANTS, CLAW_EDGES, NET_EDGES, PATTERNS,
                          TENT_EDGES, _cycle, _masks, _pattern, _place,
                          label_hosts, validate_forbidden)
from minhom.digraph import InternalError, first_injection


def kernel(g, kind, subset=()):
    """What find_forbidden's kernels find in g, named by label_hosts: the
    first embedding of a pattern kind (_place), or for a long induced cycle
    the cycle that subset induces (_cycle), walked from subset[0]; None if
    there is none."""
    adj = _masks(g)
    if kind in PATTERNS:
        hosts = _place(adj, len(g.part1), kind)
    else:
        members = [g.digraph._index[v] for v in subset]
        hosts = _cycle(adj, members, sum(1 << k for k in members))
    return hosts and label_hosts(kind, hosts, g.vertices)


def pattern_graph(kind):
    edges = PATTERNS[kind]
    xs = sorted({a for a, _ in edges})
    ys = sorted({b for _, b in edges})
    return BipartiteGraph(xs, ys, edges)


def test_bipartite_validation():
    with pytest.raises(GraphError):
        BipartiteGraph(("a",), ("a",))
    with pytest.raises(GraphError):
        BipartiteGraph(("a", "b"), ("c",), [("a", "b")])
    for part1, part2 in ((("a", "a"), ("b",)), (("a",), ("b", "b"))):
        with pytest.raises(GraphError, match="duplicate vertex declarations"):
            BipartiteGraph(part1, part2)


def test_bg_loop_gives_cross_edge():
    h = Digraph(("v",), [("v", "v")])
    assert bg(h).edges == frozenset({("v_1", "v_2")})


def test_bg_tt2():
    assert bg(make_tt(2)).edges == frozenset({("1_1", "2_2")})


def test_bg_edge_count_matches_arcs():
    rng = random.Random(3)
    for _ in range(20):
        vs = [str(i) for i in range(1, 5)]
        arcs = [(a, b) for a in vs for b in vs if rng.random() < 0.4]
        h = Digraph(vs, arcs)
        assert len(bg(h).edges) == len(h.arcs)


def test_bg_of_converse_swaps_parts():
    h = Digraph(("a", "b", "c"), [("a", "b"), ("b", "c"), ("a", "a")])
    g1 = bg(h)
    g2 = bg(Digraph(h.vertices, [(b, a) for a, b in h.arcs]))
    flip = {(v + "_1"): (v + "_2") for v in h.vertices}
    flip |= {(v + "_2"): (v + "_1") for v in h.vertices}
    assert {frozenset((flip[u], flip[v])) for u, v in g1.edges} == \
        {frozenset(e) for e in g2.edges}


def test_bg_rc_c3_is_induced_six_cycle():
    g = bg(make_cycle(3).reflexive_closure())
    fs = find_forbidden(g)
    assert fs is not None and fs.kind == "long-induced-cycle"
    assert len(fs.embedding) == 6
    assert validate_forbidden(g, fs)
    ok, cert = is_proper_interval_bigraph(g)
    assert not ok and cert.kind == "long-induced-cycle"


def test_patterns_detected_in_themselves():
    for kind in PATTERNS:
        g = pattern_graph(kind)
        fs = find_forbidden(g)
        assert fs is not None and fs.kind == kind
        assert validate_forbidden(g, fs)


def test_patterns_absent_from_proper_induced_subgraphs():
    for kind in PATTERNS:
        g = pattern_graph(kind)
        for drop in g.vertices:
            sub = g.induced(v for v in g.vertices if v != drop)
            assert find_forbidden(sub) is None


def test_pattern_found_with_parts_swapped():
    g = pattern_graph("bipartite-claw")
    swapped = BipartiteGraph(g.part2, g.part1, g.edges)
    fs = kernel(swapped, "bipartite-claw")
    assert fs is not None and validate_forbidden(swapped, fs)


def test_single_edge_is_clean():
    g = BipartiteGraph(("a",), ("b",), [("a", "b")])
    assert find_forbidden(g) is None
    assert is_proper_interval_bigraph(g) == (True, None)


def test_path_is_proper_interval_bigraph():
    # path with 5 edges
    p1 = ["a0", "a1", "a2"]
    p2 = ["b0", "b1", "b2"]
    edges = [("a0", "b0"), ("b0", "a1"), ("a1", "b1"), ("b1", "a2"), ("a2", "b2")]
    ok, _ = is_proper_interval_bigraph(BipartiteGraph(p1, p2, edges))
    assert ok


def test_six_cycle_fails():
    p1 = ["a0", "a1", "a2"]
    p2 = ["b0", "b1", "b2"]
    edges = [("a0", "b0"), ("b0", "a1"), ("a1", "b1"), ("b1", "a2"),
             ("a2", "b2"), ("b2", "a0")]
    ok, cert = is_proper_interval_bigraph(BipartiteGraph(p1, p2, edges))
    assert not ok and cert.kind == "long-induced-cycle"


def test_net_graph_detected_as_net():
    g = pattern_graph("bipartite-net")
    fs = find_forbidden(g)
    assert fs.kind == "bipartite-net"


def test_guard():
    p1 = [f"a{i}" for i in range(9)]
    p2 = [f"b{i}" for i in range(9)]
    g = BipartiteGraph(p1, p2)
    with pytest.raises(GuardExceeded):
        find_forbidden(g)
    assert find_forbidden(g, guard=18) is None


def test_pib_is_hereditary_spot_check():
    rng = random.Random(11)
    for _ in range(20):
        p1 = [f"a{i}" for i in range(3)]
        p2 = [f"b{i}" for i in range(3)]
        edges = [(a, b) for a in p1 for b in p2 if rng.random() < 0.5]
        g = BipartiteGraph(p1, p2, edges)
        if not is_proper_interval_bigraph(g)[0]:
            continue
        keep = [v for v in g.vertices if rng.random() < 0.7]
        assert is_proper_interval_bigraph(g.induced(keep))[0]


def filtered_induced(g, subset):
    """induced() as a filter of g's parts and edges by name."""
    sub = set(subset)
    unknown = sub - set(g.vertices)
    if unknown:
        raise GraphError(f"unknown vertices in induced(): {sorted(unknown)}")
    return (tuple(v for v in g.part1 if v in sub),
            tuple(v for v in g.part2 if v in sub),
            frozenset(e for e in g.edges if e[0] in sub and e[1] in sub))


def test_induced_matches_the_edge_filter():
    rng = random.Random(21)
    for _ in range(300):
        names = [f"v{i}" for i in range(rng.randint(0, 14))]
        rng.shuffle(names)
        cut = rng.randint(0, len(names))
        g = BipartiteGraph(names[:cut], names[cut:],
                           [(u, v) for u in names[:cut] for v in names[cut:]
                            if rng.random() < 0.4])
        subset = [v for v in names if rng.random() < 0.6]
        if rng.random() < 0.2:
            subset += rng.sample(["w1", "w2", "v99"], rng.randint(1, 3))
        rng.shuffle(subset)
        try:
            want = filtered_induced(g, subset)
        except GraphError as exc:
            with pytest.raises(GraphError) as got:
                g.induced(subset)
            assert str(got.value) == str(exc)
            continue
        sub = g.induced(subset)
        assert (sub.part1, sub.part2, sub.edges) == want
        # a derived graph reads its own index
        half = subset[: len(subset) // 2]
        inner = sub.induced(half)
        assert (inner.part1, inner.part2, inner.edges) == \
            filtered_induced(sub, half)


def matching(n):
    return BipartiteGraph([f"s{i}" for i in range(n)],
                          [f"t{i}" for i in range(n)],
                          [(f"s{i}", f"t{i}") for i in range(n)])


def test_pib_check_is_linear_in_the_components():
    g = matching(5000)
    start = time.perf_counter()
    assert is_proper_interval_bigraph(g) == (True, None)
    assert time.perf_counter() - start < 1
    # a claw on vertices declared last is the last of the 4997 components
    claw = pattern_graph("bipartite-claw")
    m = matching(4995)
    g = BipartiteGraph(m.part1 + claw.part1, m.part2 + claw.part2,
                       m.edges | claw.edges)
    start = time.perf_counter()
    got = is_proper_interval_bigraph(g)
    assert time.perf_counter() - start < 1
    last = components(g)[-1]
    assert set(last) == set(claw.vertices)
    fs = find_forbidden(g.induced(last))
    assert fs.kind == "bipartite-claw" and got == (False, fs)


def test_instance_transforms_are_linear():
    g = matching(10000)
    h = make_tt(2)
    costs = CostMatrix({("s0", "1_1"): 3, ("t9999", "2_2"): -2})
    mapping = dict.fromkeys(g.part1, "1") | dict.fromkeys(g.part2, "2")
    start = time.perf_counter()
    d, dcosts = digraph_instance_from_bipartite(g, h, costs)
    assert time.perf_counter() - start < 1
    assert d.arcs == g.edges and dcosts.entries == {("s0", "1"): 3,
                                                    ("t9999", "2"): -2}
    start = time.perf_counter()
    lifted = lift_solution(g, h, mapping)
    assert time.perf_counter() - start < 1
    start = time.perf_counter()
    assert project_solution(g, h, lifted) == mapping
    assert time.perf_counter() - start < 1


def brute_minhomps(g, target, costs):
    """Independent oracle: enumerate part-respecting maps into target."""
    best = None
    for im1 in itertools.product(target.part1, repeat=len(g.part1)):
        for im2 in itertools.product(target.part2, repeat=len(g.part2)):
            f = dict(zip(g.part1, im1)) | dict(zip(g.part2, im2))
            if all(target.has_edge(f[u], f[v]) for u, v in g.edges):
                c = sum(costs.cost(u, f[u]) for u in g.vertices)
                if best is None or c < best:
                    best = c
    return best


def random_bipartite_instance(rng):
    nh = rng.randint(1, 3)
    hv = [str(i + 1) for i in range(nh)]
    h = Digraph(hv, [(a, b) for a in hv for b in hv if rng.random() < 0.5])
    bgh = bg(h)
    p1 = [f"s{i}" for i in range(rng.randint(1, 3))]
    p2 = [f"t{i}" for i in range(rng.randint(1, 3))]
    g = BipartiteGraph(p1, p2,
                       [(a, b) for a in p1 for b in p2 if rng.random() < 0.5])
    costs = CostMatrix({(u, x): rng.randint(-5, 5)
                        for u in g.vertices for x in bgh.vertices})
    return g, h, bgh, costs


def test_instance_transformation_single_edge():
    h = make_tt(2)
    g = BipartiteGraph(("s",), ("t",), [("s", "t")])
    d, _ = digraph_instance_from_bipartite(g, h, CostMatrix({}))
    assert d.arcs == frozenset({("s", "t")})


def test_instance_transformation_no_edges_copies_part1_costs():
    h = make_tt(2)
    g = BipartiteGraph(("s",), ("t",), [])
    costs = CostMatrix({("s", "1_1"): 7, ("s", "1_2"): 9, ("t", "2_2"): 3})
    d, dcosts = digraph_instance_from_bipartite(g, h, costs)
    assert d.arcs == frozenset()
    assert dcosts.cost("s", "1") == 7  # part-1 column for a part-1 vertex
    assert dcosts.cost("t", "2") == 3  # part-2 column for a part-2 vertex


def test_instance_transformation_shape_mismatch():
    h = make_tt(2)
    g = BipartiteGraph(("s",), ("t",), [("s", "t")])
    with pytest.raises(GraphError):
        digraph_instance_from_bipartite(g, h, CostMatrix({("s", "bogus"): 1}))


def test_transformation_preserves_optimum():
    rng = random.Random(2024)
    for _ in range(50):
        g, h, bgh, costs = random_bipartite_instance(rng)
        d, dcosts = digraph_instance_from_bipartite(g, h, costs)
        res = solve_bruteforce(d, h, dcosts)
        expect = brute_minhomps(g, bgh, costs)
        assert (res.cost if res.feasible else None) == expect


def test_lift_project_round_trip():
    rng = random.Random(99)
    done = 0
    while done < 25:
        g, h, bgh, costs = random_bipartite_instance(rng)
        d, dcosts = digraph_instance_from_bipartite(g, h, costs)
        res = solve_bruteforce(d, h, dcosts)
        if not res.feasible:
            continue
        f = res.mapping
        lifted = lift_solution(g, h, f)
        assert sum(costs.cost(u, lifted[u]) for u in g.vertices) == res.cost
        assert project_solution(g, h, lifted) == f
        done += 1


def test_lift_rejects_non_homomorphism():
    h = make_tt(2)
    g = BipartiteGraph(("s",), ("t",), [("s", "t")])
    with pytest.raises(GraphError):
        lift_solution(g, h, {"s": "2", "t": "1"})


def test_lift_and_project_name_a_bad_mapping():
    h = make_tt(2)
    g = BipartiteGraph(("s",), ("t",), [("s", "t")])
    for convert, mapping, message in (
            (lift_solution, {"s": "1"}, "mapping is not total: missing 't'"),
            (lift_solution, {"s": "1", "t": "zz"},
             "image 'zz' is not a vertex of the target"),
            (project_solution, {"s": "1_1"},
             "mapping is not total: missing 't'"),
            (project_solution, {"s": "1_2", "t": "2_2"},
             "image '1_2' does not respect the parts"),
            (project_solution, {"s": "9_1", "t": "2_2"},
             "image '9_1' does not respect the parts")):
        with pytest.raises(GraphError) as info:
            convert(g, h, mapping)
        assert str(info.value) == message


ERROR_PROBE = """
from minhom import (BipartiteGraph, CostMatrix, Digraph, GraphError,
                    lift_solution, make_tt, project_solution)

g = BipartiteGraph(("a", "b"), ("x", "y"),
                   [("a", "x"), ("a", "y"), ("b", "x"), ("b", "y")])
h = make_tt(2)
calls = [
    lambda: lift_solution(g, h, dict.fromkeys(g.vertices, "1")),
    lambda: project_solution(g, h, {"a": "1_1", "b": "1_1",
                                    "x": "1_2", "y": "1_2"}),
    lambda: CostMatrix({("u", "1"): 1, "ab": 2}),
    lambda: Digraph(("a", "b"), [("a", "b"), ("a",)]),
    lambda: Digraph(("a", "b"), [("a", "b"), ("a", "b", "c")]),
    lambda: BipartiteGraph(("a",), ("b",), [("a", "b"), "ab"]),
    lambda: Digraph(["a"], [("a", "x"), ("a", "y"), ("b", "a")]),
]
for call in calls:
    try:
        call()
        print("no error")
    except GraphError as exc:
        print(exc)
"""


def test_error_messages_independent_of_hash_seed():
    # every edge of g fails, and the one named is the first in g's vertex
    # order, not in the order of the edge frozenset, which follows the
    # string hash seed; likewise the first undeclared arc in the order given
    src = str(Path(minhom.__file__).parent.parent)
    runs = []
    for seed in ("1", "2"):
        env = dict(os.environ, PYTHONPATH=src, PYTHONHASHSEED=seed)
        proc = subprocess.run([sys.executable, "-c", ERROR_PROBE], env=env,
                              capture_output=True, text=True, check=True)
        runs.append(proc.stdout)
    assert runs[0] == runs[1]
    assert runs[0].splitlines() == [
        "not a homomorphism: edge (a, x) maps to a non-arc",
        "not a homomorphism: edge (a, x) maps to a non-edge",
        "cost key 'ab' is not a pair",
        "arc ('a',) is not a pair",
        "arc ('a', 'b', 'c') is not a pair",
        "edge 'ab' is not a pair",
        "arc ('a', 'x') references an undeclared vertex",
    ]


def test_find_forbidden_rechecks_its_structure(monkeypatch):
    g = pattern_graph("bipartite-claw")
    assert find_forbidden(g).kind == "bipartite-claw"
    monkeypatch.setattr("minhom.birep.validate_forbidden",
                        lambda g, fs: False)
    with pytest.raises(InternalError, match="bad forbidden structure"):
        find_forbidden(g)
    with pytest.raises(InternalError):
        is_proper_interval_bigraph(g)
    # a graph without a structure has nothing to re-check
    assert find_forbidden(BipartiteGraph(("a",), ("b",), [("a", "b")])) is None


def test_pattern_edge_lists_are_frozen():
    # guard against accidental edits: exact golden edge lists
    assert sorted(CLAW_EDGES) == sorted(
        [("x4", "y1"), ("x1", "y1"), ("x4", "y2"),
         ("x2", "y2"), ("x4", "y3"), ("x3", "y3")])
    assert len(NET_EDGES) == 7 and len(TENT_EDGES) == 8


def test_induced_cycle_hand_cases():
    # 6-cycle a1-b1-a2-b2-a3-b3-a1, declared so that the walk from a1 goes
    # towards b1, its first neighbour in vertex order
    g = BipartiteGraph(("a1", "a2", "a3"), ("b1", "b2", "b3"),
                       [("a1", "b1"), ("a2", "b1"), ("a2", "b2"),
                        ("a3", "b2"), ("a3", "b3"), ("a1", "b3")])
    fs = kernel(g, "long-induced-cycle", g.vertices)
    assert fs.kind == "long-induced-cycle"
    assert fs.host_vertices() == ("a1", "b1", "a2", "b2", "a3", "b3")
    assert validate_forbidden(g, fs)
    # a chord leaves a1 with three neighbours in the subset
    chord = BipartiteGraph(g.part1, g.part2, g.edges | {("a1", "b2")})
    assert kernel(chord, "long-induced-cycle", chord.vertices) is None
    # a path: the ends have one neighbour
    path = BipartiteGraph(g.part1, g.part2, g.edges - {("a1", "b3")})
    assert kernel(path, "long-induced-cycle", path.vertices) is None
    # two disjoint 4-cycles: every degree is 2, but the walk closes early
    two = BipartiteGraph(("a1", "a2", "a3", "a4"), ("b1", "b2", "b3", "b4"),
                         [("a1", "b1"), ("a1", "b2"), ("a2", "b1"),
                          ("a2", "b2"), ("a3", "b3"), ("a3", "b4"),
                          ("a4", "b3"), ("a4", "b4")])
    assert kernel(two, "long-induced-cycle", two.vertices) is None
    assert kernel(two, "long-induced-cycle",
                  ("a1", "a2", "b1", "b2")).host_vertices() == (
        "a1", "b1", "a2", "b2")


def brute_induced_cycle(g, subset):
    """subset induces one cycle iff it is connected and 2-regular in g."""
    inside = set(subset)
    deg = {v: sum(1 for w in subset if g.has_edge(v, w)) for v in subset}
    if any(d != 2 for d in deg.values()):
        return False
    seen, stack = {subset[0]}, [subset[0]]
    while stack:
        v = stack.pop()
        for w in inside - seen:
            if g.has_edge(v, w):
                seen.add(w)
                stack.append(w)
    return seen == inside


def test_induced_cycle_matches_brute_force_seeded():
    rng = random.Random(99)
    hits = 0
    for _ in range(150):
        p1 = [f"x{i}" for i in range(rng.randint(2, 4))]
        p2 = [f"y{i}" for i in range(rng.randint(2, 4))]
        g = BipartiteGraph(p1, p2, [(a, b) for a in p1 for b in p2
                                    if rng.random() < 0.5])
        for size in range(4, len(g.vertices) + 1):
            for subset in itertools.combinations(g.vertices, size):
                fs = kernel(g, "long-induced-cycle", subset)
                assert (fs is not None) == brute_induced_cycle(g, subset)
                if fs is None:
                    continue
                hits += 1
                walk = fs.host_vertices()
                assert sorted(walk) == sorted(subset)
                assert walk[0] == subset[0]
                near = {u if v == walk[0] else v
                        for u, v in g.edges if walk[0] in (u, v)}
                assert walk[1] == next(w for w in g.vertices
                                       if w in near and w in subset)
                assert all(g.has_edge(walk[i], walk[(i + 1) % size])
                           for i in range(size))
    assert hits > 50


def brute_first_pattern(g, kind):
    """First induced embedding in itertools.permutations order: x labels on
    part1 before part2, each label set placed in sorted label order."""
    edges = PATTERNS[kind]
    labels = sorted({a for a, _ in edges}) + sorted({b for _, b in edges})
    nx = sum(lab[0] == "x" for lab in labels)
    adj = {frozenset(e) for e in edges}
    pairs = [(i, j, frozenset((labels[i], labels[j])) in adj)
             for i, j in itertools.combinations(range(len(labels)), 2)]
    for xpart, ypart in ((g.part1, g.part2), (g.part2, g.part1)):
        for px in itertools.permutations(xpart, nx):
            for py in itertools.permutations(ypart, len(labels) - nx):
                hosts = px + py
                if all(g.has_edge(hosts[i], hosts[j]) == e for i, j, e in pairs):
                    return tuple(zip(labels, hosts))
    return None


def test_find_pattern_is_first_permutation_seeded():
    rng = random.Random(63)
    graphs = []
    for _ in range(100):
        vs = [f"v{i}" for i in range(4)]
        rng.shuffle(vs)
        graphs.append(bg(Digraph(vs, [(a, b) for a in vs for b in vs
                                      if rng.random() < 0.55])))
    # each pattern, parts shuffled, plus one vertex joined at random
    for kind in sorted(PATTERNS) * 4:
        g = pattern_graph(kind)
        p1, p2 = list(g.part1) + ["x9"], list(g.part2)
        rng.shuffle(p1)
        rng.shuffle(p2)
        extra = [("x9", y) for y in p2 if rng.random() < 0.5]
        graphs.append(BipartiteGraph(p1, p2, [*g.edges, *extra]))
    found = 0
    for g in graphs:
        for kind in PATTERNS:
            fs = kernel(g, kind)
            want = brute_first_pattern(g, kind)
            assert (None if fs is None else fs.embedding) == want
            found += fs is not None
    assert found > 30


def unconstrained_place(adj, n1, kind):
    """birep._place before it skipped symmetric x-host orders: every x
    label tries every host of its part."""
    wants, n = _WANTS[kind], len(adj)
    part1, part2 = range(n1), range(n1, n)
    sides = [(xs, ys) for xs, ys in ((part1, part2), (part2, part1))
             if len(xs) >= len(wants) and len(ys) >= len(wants[0])]
    if not sides:
        return None
    spread = sum(1 << j * n for j in range(len(wants[0])))
    sees = [sum(((1 << n) - 1) << j * n for j, w in enumerate(want) if w)
            for want in wants]
    for xs, ys in sides:
        fields = [(1 << ys.stop) - (1 << ys.start) << j * n
                  for j in range(len(wants[0]))]
        placed, options, tries = [], [sum(fields)], [iter(xs)]
        while tries:
            for a in tries[-1]:
                if a in placed:
                    continue
                narrowed = options[-1] & ~(adj[a] * spread ^ sees[len(placed)])
                if all(map(narrowed.__and__, fields)):
                    placed.append(a)
                    if len(placed) == len(wants):
                        return placed + [(f & -f).bit_length() - 1 - j * n
                                         for j, f in enumerate(
                                             map(narrowed.__and__, fields))]
                    options.append(narrowed)
                    tries.append(iter(xs))
                    break
            else:
                tries.pop()
                if placed:
                    placed.pop()
                    options.pop()
    return None


def test_place_skips_symmetric_orders_and_finds_the_same_hosts():
    rng = random.Random(16)
    hits = 0
    for _ in range(1500):
        n1, n2 = rng.randint(3, 7), rng.randint(3, 7)
        p = rng.choice((0.3, 0.5, 0.7))
        adj = [0] * (n1 + n2)
        for a in range(n1):
            for b in range(n1, n1 + n2):
                if rng.random() < p:
                    adj[a] |= 1 << b
                    adj[b] |= 1 << a
        for kind in PATTERNS:
            hosts = _place(adj, n1, kind)
            assert hosts == unconstrained_place(adj, n1, kind), (adj, n1)
            hits += hosts is not None
    assert hits > 500


# the pattern automorphisms behind _AFTER: each swaps two x labels (and
# two y labels), the later x label's host following the earlier one's
SWAPS = {"bipartite-claw": [{"x1": "x2", "y1": "y2"},
                            {"x2": "x3", "y2": "y3"}],
         "bipartite-net": [{"x1": "x2", "y1": "y2"}],
         "bipartite-tent": [{"x2": "x4", "y2": "y3"}]}


def test_place_order_constraints_come_from_automorphisms():
    for kind, swaps in SWAPS.items():
        edges = set(PATTERNS[kind])
        follows = set()
        for swap in swaps:
            swap = {**swap, **{b: a for a, b in swap.items()}}
            assert {(swap.get(x, x), swap.get(y, y)) for x, y in edges} \
                == edges, (kind, swap)
            first, later = sorted(v for v in swap if v[0] == "x")
            follows.add((int(later[1]) - 1, int(first[1]) - 1))
        assert follows == {(d, e) for d, e in enumerate(_AFTER[kind])
                           if e is not None}, kind


def test_validate_forbidden_rejects_bad_certificates():
    from minhom import ForbiddenStructure
    g = bg(make_cycle(3).reflexive_closure())
    six = find_forbidden(g)
    assert six.kind == "long-induced-cycle" and validate_forbidden(g, six)
    emb = six.embedding
    bad = [
        ("bipartite-tent", ()),                       # empty embedding
        ("long-induced-cycle", ()),
        ("no-such-kind", emb),                        # unknown kind
        ("long-induced-cycle",                        # labels not c1..c6
         tuple((f"d{i}", v) for i, (_, v) in enumerate(emb))),
        ("long-induced-cycle", emb[:5]),              # incomplete
        ("long-induced-cycle", emb[:4]),              # k < 6
        ("long-induced-cycle", emb + (("c7", "nosuch"),)),   # odd k
        ("long-induced-cycle", emb[:5] + (("c6", emb[0][1]),)),  # repeated host
        ("long-induced-cycle", emb[:5] + (("c1", emb[5][1]),)),  # repeated label
        ("long-induced-cycle",
         emb[:4] + (("c5", "nosuch"), ("c6", "other"))),     # hosts not in g
    ]
    for kind, embedding in bad:
        assert validate_forbidden(g, ForbiddenStructure(kind, embedding)) is False
    # a complete pattern embedding validates; dropping or adding a label does not
    for kind in PATTERNS:
        pg = pattern_graph(kind)
        fs = kernel(pg, kind)
        assert validate_forbidden(pg, fs)
        for embedding in (fs.embedding[1:], fs.embedding + (("z1", "y9"),)):
            assert not validate_forbidden(pg, ForbiddenStructure(kind, embedding))


# -- the searches against the plain exhaustive ones --------------------------


def injection_pattern(g, kind):
    """_place as a plain search: digraph.first_injection of the sorted
    labels over all of g's vertices, x labels in part1 before part2."""
    labels, pattern_adj = _pattern(PATTERNS[kind])
    side = dict.fromkeys(g.part1, 1) | dict.fromkeys(g.part2, 2)
    for x_side in (1, 2):
        want = {lab: x_side if lab[0] == "x" else 3 - x_side
                for lab in labels}

        def fits(lab, v, assign):
            return side[v] == want[lab] and all(
                ((lab, lab2) in pattern_adj) == g.has_edge(v, v2)
                for lab2, v2 in assign.items() if lab2 != lab)

        assign = first_injection(labels, g.vertices, fits)
        if assign is not None:
            return tuple((lab, assign[lab]) for lab in labels)
    return None


def exhaustive_forbidden(g):
    """find_forbidden as a plain search: cycles over every vertex subset of
    each even length, then the patterns by injection_pattern."""
    for length in range(6, len(g.vertices) + 1, 2):
        for subset in itertools.combinations(g.vertices, length):
            found = kernel(g, "long-induced-cycle", subset)
            if found is not None:
                return found.kind, found.embedding
    for kind in ("bipartite-claw", "bipartite-net", "bipartite-tent"):
        found = injection_pattern(g, kind)
        if found is not None:
            return kind, found
    return None


@st.composite
def bigraphs(draw, most=10):
    n1 = draw(st.integers(2, most // 2 + 1))
    n2 = draw(st.integers(most // 2 - 1, most - n1))
    names = draw(st.permutations([f"v{i}" for i in range(n1 + n2)]))
    part1, part2 = names[:n1], names[n1:]
    p = draw(st.sampled_from((0.3, 0.5, 0.7)))
    rng = draw(st.randoms(use_true_random=False))
    return BipartiteGraph(part1, part2, [(u, v) for u in part1 for v in part2
                                         if rng.random() < p])


@settings(max_examples=200)
@given(bigraphs())
def test_find_pattern_matches_the_injection_search(g):
    for kind in PATTERNS:
        fs = kernel(g, kind)
        assert (None if fs is None else fs.embedding) == \
            injection_pattern(g, kind)


@settings(max_examples=200)
@given(bigraphs())
def test_find_forbidden_matches_the_exhaustive_search(g):
    fs = find_forbidden(g)
    assert (None if fs is None else (fs.kind, fs.embedding)) == \
        exhaustive_forbidden(g)


def test_induced_cycles_of_every_length_up_to_the_guard():
    rng = random.Random(65)
    for k in range(3, 9):
        xs = [f"x{i}" for i in range(k)]
        ys = [f"y{i}" for i in range(k)]
        edges = [(xs[i], ys[i]) for i in range(k)]
        edges += [(xs[(i + 1) % k], ys[i]) for i in range(k)]
        rng.shuffle(xs)
        rng.shuffle(ys)
        g = BipartiteGraph(xs, ys, edges)
        fs = find_forbidden(g)
        assert (fs.kind, len(fs.embedding)) == ("long-induced-cycle", 2 * k)
        assert validate_forbidden(g, fs)
        assert (fs.kind, fs.embedding) == exhaustive_forbidden(g)
