import itertools
import random
import re
import time
from heapq import heappop, heappush

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import minhom.digraph
import minhom.minmax
from minhom import (BipartiteGraph, Digraph, GraphError, GuardExceeded,
                    NotMultipartiteTournament, components, cycle_walk, extend,
                    find_minmax, is_acyclic, is_isomorphic, make_cycle, make_oriented_kb,
                    make_tt, make_tt_minus, partite_structure)
from minhom.digraph import first_injection, strong_components


def test_vertex_name_validation():
    with pytest.raises(GraphError):
        Digraph(("a b",))
    with pytest.raises(GraphError):
        Digraph(("a,b",))
    with pytest.raises(GraphError):
        Digraph(("",))
    with pytest.raises(GraphError):
        Digraph(("a", "a"))


def test_arcs_need_declared_endpoints():
    with pytest.raises(GraphError):
        Digraph(("a",), [("a", "b")])


def test_converse_of_rc_k12_is_rc_k21():
    k12 = make_oriented_kb(1, 2).reflexive_closure()
    k21 = make_oriented_kb(2, 1).reflexive_closure()
    assert is_isomorphic(Digraph(k12.vertices, [(b, a) for a, b in k12.arcs]),
                         k21)


def test_reflexive_closure():
    h = make_tt(2).reflexive_closure()
    assert h.arcs == frozenset({("1", "2"), ("1", "1"), ("2", "2")})
    assert h.reflexive_closure() == h  # idempotent
    c3 = make_cycle(3).reflexive_closure()
    assert len(c3.arcs) == 6


def test_reflexive_closure_adds_exactly_missing_loops():
    h = Digraph(("a", "b", "c"), [("a", "a"), ("a", "b"), ("b", "c")])
    rc = h.reflexive_closure()
    assert len(rc.arcs) - len(h.arcs) == 2


def test_induced():
    h = make_tt(3).reflexive_closure()
    sub = h.induced({"1", "3"})
    assert sub.arcs == frozenset({("1", "3"), ("1", "1"), ("3", "3")})
    assert h.induced(h.vertices) == h
    assert h.induced(()).vertices == ()
    with pytest.raises(GraphError):
        h.induced({"nope"})


def test_neighbor_index():
    h = Digraph(("c", "a", "b"), [("b", "a"), ("c", "a"), ("a", "b"),
                                  ("a", "a"), ("b", "c")])
    outs, ins, looped = h.adjacency
    # by declaration index: c = 0, a = 1, b = 2
    assert outs == ((1,), (2,), (0, 1))
    assert ins == ((2,), (0, 2), (1,))  # declaration order
    assert looped == (False, True, False)  # a loop is flagged, not listed
    # a digon (a <-> b) is one neighbour each way
    assert set(outs[1]).union(ins[1]) == {0, 2}
    assert set(outs[0]).union(ins[0]) == {1, 2}
    assert make_cycle(2).adjacency == (((1,), (0,)), ((1,), (0,)),
                                       (False, False))


@st.composite
def looped_digraphs(draw):
    """Digraphs on up to 8 vertices, declared in a random order, with loops
    and digons."""
    n = draw(st.integers(0, 8))
    vs = draw(st.permutations([f"v{k}" for k in range(n)]))
    p = draw(st.sampled_from((0.1, 0.3, 0.6)))
    rng = draw(st.randoms(use_true_random=False))
    return Digraph(vs, [(a, b) for a in vs for b in vs if rng.random() < p])


@settings(max_examples=300)
@given(looped_digraphs())
def test_adjacency_index_rebuilds_the_arcs(h):
    outs, ins, looped = h.adjacency
    vs = h.vertices
    assert len(outs) == len(ins) == len(looped) == len(vs)
    loops = {(v, v) for v, loop in zip(vs, looped) if loop}
    assert {(vs[k], vs[x]) for k, xs in enumerate(outs) for x in xs} \
        | loops == h.arcs
    assert {(vs[x], vs[k]) for k, xs in enumerate(ins) for x in xs} \
        | loops == h.arcs
    assert sum(map(len, outs)) + len(loops) == len(h.arcs)
    for xs in outs + ins:
        assert type(xs) is tuple and list(xs) == sorted(set(xs))
    assert h.adjacency[0] is outs  # built once, then cached


def test_components():
    assert components(make_tt(3)) == [("1", "2", "3")]
    two = Digraph(("a", "b"), [("a", "a"), ("b", "b")])
    assert components(two) == [("a",), ("b",)]
    assert components(Digraph(())) == []
    g = BipartiteGraph(("s", "t"), ("x", "y", "z"), [("t", "x"), ("s", "z")])
    assert components(g) == [("s", "z"), ("t", "x"), ("y",)]


def seeded_bigraph(rng):
    """Parts of 0-8 shuffled names each, sparse or dense random edges."""
    names = [f"v{i}" for i in range(rng.randint(0, 16))]
    rng.shuffle(names)
    cut = rng.randint(0, len(names))
    part1, part2 = names[:cut], names[cut:]
    p = rng.choice((0.1, 0.3, 0.6))
    return BipartiteGraph(part1, part2, [(u, v) for u in part1 for v in part2
                                         if rng.random() < p])


def bfs_components(g):
    """Breadth-first search over g.edges by name: components in order of
    their first vertex, members in vertex order."""
    near = {v: [] for v in g.vertices}
    for u, v in sorted(g.edges):
        near[u].append(v)
        near[v].append(u)
    seen, out = set(), []
    for start in g.vertices:
        if start in seen:
            continue
        seen.add(start)
        comp, queue = [start], [start]
        while queue:
            for w in near[queue.pop(0)]:
                if w not in seen:
                    seen.add(w)
                    comp.append(w)
                    queue.append(w)
        out.append(tuple(v for v in g.vertices if v in comp))
    return out


def test_bigraph_components_match_a_breadth_first_search():
    rng = random.Random(20)
    for _ in range(300):
        g = seeded_bigraph(rng)
        assert components(g) == bfs_components(g)


def test_is_acyclic():
    ok, order = is_acyclic(make_tt(4).reflexive_closure())
    assert ok and order == ("1", "2", "3", "4")
    assert is_acyclic(make_cycle(3).reflexive_closure()) == (False, None)
    ok, order = is_acyclic(Digraph(("v",), [("v", "v")]))
    assert ok and order == ("v",)  # a loop is not a cycle


def adjacency_is_acyclic(h):
    """is_acyclic as it was when it read the adjacency index of names, with
    the neighbour lists built here from the arcs."""
    outs = {v: [head for t, head in h.arcs if t == v != head]
            for v in h.vertices}
    indeg = {v: sum(1 for t, head in h.arcs if head == v != t)
             for v in h.vertices}
    index = {v: k for k, v in enumerate(h.vertices)}
    ready = [index[v] for v in h.vertices if indeg[v] == 0]
    order = []
    while ready:
        pick = h.vertices[heappop(ready)]
        order.append(pick)
        for head in outs[pick]:
            indeg[head] -= 1
            if indeg[head] == 0:
                heappush(ready, index[head])
    if len(order) < len(h.vertices):
        return False, None
    return True, tuple(order)


def test_is_acyclic_matches_adjacency_index_version_seeded():
    rng = random.Random(1962)
    verdicts = set()
    for _ in range(600):
        n = rng.randint(0, 12)
        vs = [f"v{k}" for k in range(n)]
        rank = rng.sample(range(n), n)
        forward = rng.random() < 0.7  # arcs only up a hidden order
        arcs = [(a, b) for a in range(n) for b in range(n)
                if (a == b or not forward or rank[a] < rank[b])
                and rng.random() < 0.3]
        h = Digraph(rng.sample(vs, n), [(vs[a], vs[b]) for a, b in arcs])
        got = is_acyclic(h)
        assert got == adjacency_is_acyclic(h)
        verdicts.add(got[0])
    assert verdicts == {True, False}


def test_is_acyclic_matches_converse():
    for h in (make_tt(3), make_cycle(4), make_tt_minus(4).reflexive_closure()):
        conv = Digraph(h.vertices, [(b, a) for a, b in h.arcs])
        assert is_acyclic(h)[0] == is_acyclic(conv)[0]


def test_partite_structure():
    parts = partite_structure(make_oriented_kb(1, 2).reflexive_closure())
    assert parts == (("1",), ("2", "3"))
    assert partite_structure(make_tt(3)) == (("1",), ("2",), ("3",))
    with pytest.raises(NotMultipartiteTournament):
        partite_structure(Digraph(("a", "b", "c"), [("a", "b")]))
    with pytest.raises(NotMultipartiteTournament):
        partite_structure(make_cycle(2))  # digon: two arcs across a pair


def test_partite_structure_ignores_loops():
    h = make_oriented_kb(2, 2)
    assert partite_structure(h) == partite_structure(h.reflexive_closure())


def partite_structure_pairwise(h):
    """The partite sets by an adjacency test for every pair of vertices
    (the earlier routine)."""
    groups = {}
    for v in h.vertices:
        nonadj = frozenset(w for w in h.vertices if w == v or not (
            (v, w) in h.arcs or (w, v) in h.arcs))
        groups.setdefault(nonadj, []).append(v)
    parts = []
    for key, members in groups.items():
        if set(members) != set(key):
            raise NotMultipartiteTournament(
                "nonadjacency is not an equivalence relation")
        parts.append(tuple(sorted(members)))
    for a, b in itertools.combinations(parts, 2):
        for u in a:
            for v in b:
                fwd = (u, v) in h.arcs
                bwd = (v, u) in h.arcs
                if fwd == bwd:
                    which = "two arcs" if fwd else "no arc"
                    raise NotMultipartiteTournament(
                        f"cross pair ({u}, {v}) has {which}")
    parts.sort(key=lambda p: (len(p), p[0]))
    return parts


def test_partite_structure_matches_pairwise_seeded():
    # multipartite tournaments with shuffled names and loops, some with an
    # arc removed, reversed into a digon or added inside a part
    rng = random.Random(91)
    errors = set()
    for _ in range(400):
        n = rng.randint(1, 9)
        names = [f"v{k}" for k in range(n)]
        rng.shuffle(names)
        part = {v: rng.randrange(rng.randint(1, n)) for v in names}
        arcs = {(v, v) for v in names if rng.random() < 0.5}
        arcs |= {(u, v) if rng.random() < 0.5 else (v, u)
                 for u, v in itertools.combinations(names, 2)
                 if part[u] != part[v]}
        for _ in range(rng.choice((0, 0, 1, 2))):
            u, v = rng.choice(names), rng.choice(names)
            arcs ^= {(u, v)}
        h = Digraph(names, arcs)
        try:
            want = partite_structure_pairwise(h)
        except NotMultipartiteTournament as exc:
            errors.add(str(exc).split(" (")[0])
            with pytest.raises(NotMultipartiteTournament) as got:
                partite_structure(h)
            assert str(got.value) == str(exc)
        else:
            assert partite_structure(h) == tuple(want)
    assert errors == {"nonadjacency is not an equivalence relation",
                      "cross pair"}


def test_multipartite_arc_count():
    # non-loop arcs = C(n,2) - sum C(|S_i|,2)
    from math import comb
    for h in (make_oriented_kb(2, 3), make_tt(4), make_oriented_kb(1, 2)):
        parts = partite_structure(h)
        n = len(h.vertices)
        expect = comb(n, 2) - sum(comb(len(p), 2) for p in parts)
        assert len(h.nonloop_arcs()) == expect


def test_makers():
    assert make_tt(3).arcs == frozenset({("1", "2"), ("1", "3"), ("2", "3")})
    assert make_tt_minus(3).arcs == frozenset({("1", "2"), ("2", "3")})
    assert make_cycle(2).arcs == frozenset({("1", "2"), ("2", "1")})
    assert make_oriented_kb(2, 1).arcs == frozenset({("1", "3"), ("2", "3")})
    for bad in (lambda: make_tt(0), lambda: make_tt_minus(1),
                lambda: make_cycle(1), lambda: make_oriented_kb(0, 1)):
        with pytest.raises(GraphError):
            bad()


def test_tt_and_cycle_equal_the_checked_construction():
    # make_tt and make_cycle skip Digraph's checks (their names are made
    # by the constructor); they build what the checking constructor does
    for p in range(1, 9):
        vs = [str(i) for i in range(1, p + 1)]
        built = [(make_tt(p), Digraph(vs, itertools.combinations(vs, 2)))]
        if p >= 2:
            built.append((make_cycle(p), Digraph(vs, zip(vs, vs[1:] + vs[:1]))))
        for fast, checked in built:
            assert fast == checked
            assert fast.adjacency == checked.adjacency


def test_extend():
    hp, decomp = extend(make_tt(2), {"1": 2, "2": 1})
    assert is_isomorphic(hp, make_oriented_kb(2, 1))
    assert set(decomp.values()) == {"1", "2"}

    hp, _ = extend(make_cycle(3), {"1": 1, "2": 1, "3": 2})
    assert len(hp.vertices) == 4 and len(hp.arcs) == 5

    h = Digraph(("a", "b", "c"), [("a", "b"), ("b", "c")])
    hp, _ = extend(h, {v: 1 for v in h.vertices})
    assert is_isomorphic(hp, h)

    with pytest.raises(GraphError):
        extend(Digraph(("a",), [("a", "a")]), {"a": 1})
    with pytest.raises(GraphError):
        extend(make_tt(2), {"1": 0, "2": 1})
    for sizes in ({"1": 1}, {"1": 1, "2": 1, "3": 1}):
        with pytest.raises(GraphError, match="sizes must cover exactly"):
            extend(make_tt(2), sizes)


def test_extend_takes_only_positive_int_sizes():
    # sizes follow CostMatrix's rule for costs: an int, never a bool, and
    # here at least 1; anything else is a GraphError naming the vertex
    for bad in (2.5, 2.0, "2", None, True, False, 0, -1):
        with pytest.raises(GraphError,
                           match=f"size for '1' must be a positive integer, "
                                 f"got {re.escape(repr(bad))}"):
            extend(make_tt(2), {"1": bad, "2": 1})
    # and sizes is a mapping, or pairs that make one
    for bad in (None, 5, ["1", "2"]):
        with pytest.raises(GraphError, match="bad sizes"):
            extend(make_tt(2), bad)
    hp, _ = extend(make_tt(2), {"1": 3, "2": 1})
    assert len(hp.vertices) == 4


def test_is_isomorphic():
    assert is_isomorphic(make_tt(3), make_cycle(3)) is None
    h = make_tt(3).reflexive_closure()
    assert is_isomorphic(h, h) == {v: v for v in h.vertices}
    shuffled = Digraph(("x", "y", "z"), [("y", "x"), ("y", "z"), ("x", "z")])
    iso = is_isomorphic(make_tt(3), shuffled)
    assert iso == {"1": "y", "2": "x", "3": "z"}
    with pytest.raises(GuardExceeded):
        is_isomorphic(make_tt(11), make_tt(11))
    assert is_isomorphic(make_tt(11), make_tt(11), guard=11)


def test_is_isomorphic_counts_before_the_guard():
    # different vertex or arc counts answer None without a search, so the
    # guard does not apply; equal counts beyond it still raise
    assert is_isomorphic(make_tt(11), make_cycle(3)) is None
    assert is_isomorphic(make_tt(11), make_tt_minus(11)) is None
    with pytest.raises(GuardExceeded):
        is_isomorphic(make_tt(11), make_tt(11))


def test_cycle_walk_hand_cases():
    assert cycle_walk(make_cycle(2)) == ("1", "2")
    assert cycle_walk(make_cycle(5)) == ("1", "2", "3", "4", "5")
    # walked from the first declared vertex, loops ignored
    h = Digraph(("b", "a", "c"), [("a", "b"), ("b", "c"), ("c", "a")])
    assert cycle_walk(h) == ("b", "c", "a")
    assert cycle_walk(make_cycle(3).reflexive_closure()) == ("1", "2", "3")
    # rho: every out-degree is 1, but b has in-degree 2
    rho = Digraph(("a", "b", "c"), [("a", "b"), ("b", "c"), ("c", "b")])
    assert cycle_walk(rho) is None
    two_digons = Digraph(("a", "b", "c", "d"),
                         [("a", "b"), ("b", "a"), ("c", "d"), ("d", "c")])
    assert cycle_walk(two_digons) is None
    assert cycle_walk(Digraph(("a",))) is None
    assert cycle_walk(Digraph(("a",), [("a", "a")])) is None
    assert cycle_walk(make_tt(3)) is None
    assert cycle_walk(Digraph(("a", "b"), [("a", "b")])) is None


def brute_cycle_walk(h):
    """Walk from the first vertex along a vertex order whose consecutive
    pairs (cyclically) are exactly the loopless arcs, by trying them all."""
    vs = h.vertices
    if len(vs) < 2:
        return None
    for rest in itertools.permutations(vs[1:]):
        walk = (vs[0],) + rest
        arcs = {(walk[i], walk[(i + 1) % len(walk)]) for i in range(len(walk))}
        if arcs == h.nonloop_arcs():
            return walk
    return None


def test_cycle_walk_matches_brute_force_seeded():
    rng = random.Random(2024)
    hits = 0
    for _ in range(1500):
        n = rng.randint(1, 6)
        vs = [f"v{i}" for i in range(n)]
        kind = rng.randrange(3)
        if kind == 0:  # random arcs
            arcs = {(a, b) for a in vs for b in vs if rng.random() < 0.3}
        else:  # a random permutation's arcs (one or more cycles), perturbed
            succ = vs[:]
            rng.shuffle(succ)
            arcs = set(zip(vs, succ))
            if kind == 2:
                arcs ^= {(rng.choice(vs), rng.choice(vs))}
        arcs |= {(v, v) for v in vs if rng.random() < 0.2}
        rng.shuffle(vs)
        h = Digraph(vs, arcs)
        want = brute_cycle_walk(h)
        assert cycle_walk(h) == want, h
        hits += want is not None
    assert hits > 100


def brute_first_isomorphism(h1, h2):
    """First bijection in itertools.permutations order that maps the arc
    set of h1 exactly onto that of h2."""
    if len(h1.vertices) != len(h2.vertices):
        return None
    for perm in itertools.permutations(h2.vertices):
        m = dict(zip(h1.vertices, perm))
        if {(m[t], m[u]) for t, u in h1.arcs} == h2.arcs:
            return m
    return None


def test_is_isomorphic_is_first_permutation_seeded():
    rng = random.Random(61)
    found = 0
    for _ in range(300):
        n = rng.randint(1, 6)
        vs = [f"v{i}" for i in range(n)]
        arcs = [(a, b) for a in vs for b in vs if rng.random() < 0.35]
        h1 = Digraph(vs, arcs)
        # a shuffled, renamed copy (always isomorphic) or the converse
        order = vs[:]
        rng.shuffle(order)
        ren = {v: f"w{i}" for i, v in enumerate(order)}
        rng.shuffle(order)
        copy = Digraph([ren[v] for v in order], [(ren[a], ren[b]) for a, b in arcs])
        for h2 in (copy, Digraph(vs, [(b, a) for a, b in arcs])):
            iso = is_isomorphic(h1, h2)
            assert iso == brute_first_isomorphism(h1, h2)
            found += iso is not None
    assert found > 350


def test_first_injection_more_labels_than_hosts():
    calls = []

    def fits(lab, v, assign):
        calls.append((lab, v))
        return True

    assert first_injection(("a", "b", "c"), ("x", "y"), fits) is None
    assert first_injection(range(4), (), fits) is None
    assert calls == []
    assert first_injection(("a",), ("x", "y"), fits) == {"a": "x"}


def test_strong_components_match_mutual_reachability_seeded():
    rng = random.Random(1972)
    for _ in range(300):
        n = rng.randint(0, 10)
        succs = [[x for x in range(n) if rng.random() < 0.2] for _ in range(n)]
        nodes = sorted(rng.sample(range(n), rng.randint(0, n)))
        reach = {k: {k} for k in nodes}  # reachability inside nodes
        for _ in nodes:
            for k in nodes:
                for x in succs[k]:
                    if x in reach:
                        reach[k] |= reach[x]
        want = sorted({tuple(x for x in nodes if k in reach[x] and x in reach[k])
                       for k in nodes})
        preds = [[k for k in range(n) if x in succs[k]] for x in range(n)]
        assert strong_components(succs, preds, nodes) == [list(c) for c in want]


def test_strong_components_of_a_long_ring_do_not_recurse():
    n = 100_000
    succs = [[(k + 1) % n] for k in range(n)]
    preds = [[(k - 1) % n] for k in range(n)]
    assert strong_components(succs, preds, list(range(n))) == [list(range(n))]
    assert (strong_components(succs, preds, list(range(n - 1)))
            == [[k] for k in range(n - 1)])


def mutual_reachability(outs, nodes):
    """Strong components of the digraph outs induces on nodes, as
    strong_components orders them, by one breadth-first search per node."""
    inside = set(nodes)
    reach = {}
    for k in nodes:
        seen = {k}
        queue = [k]
        for v in queue:
            for x in outs[v]:
                if x in inside and x not in seen:
                    seen.add(x)
                    queue.append(x)
        reach[k] = seen
    return sorted({tuple(sorted(x for x in reach[k] if k in reach[x]))
                   for k in nodes})


def test_strong_components_of_digraphs_against_mutual_reachability():
    # succs and preds straight from the adjacency index; the nodes are a
    # random subset, so arcs also leave it, and must be ignored both ways
    rng = random.Random(1981)
    for _ in range(200):
        n = rng.randint(1, 40)
        vs = [f"v{k}" for k in range(n)]
        p = rng.choice((0.02, 0.05, 0.1, 0.2))
        g = Digraph(vs, [(u, v) for u in vs for v in vs if rng.random() < p])
        outs, ins, _ = g.adjacency
        nodes = sorted(rng.sample(range(n), rng.randint(0, n)))
        want = [list(c) for c in mutual_reachability(outs, nodes)]
        assert strong_components(outs, ins, nodes) == want


def test_components_agree_with_strong_components_of_the_symmetric_digraph():
    # components and strong_components share one search (_collect); over
    # the symmetric neighbour lists every component is strong
    rng = random.Random(23)
    for _ in range(200):
        n = rng.randint(0, 30)
        vs = [f"v{k}" for k in range(n)]
        g = Digraph(vs, [(rng.choice(vs), rng.choice(vs))
                         for _ in range(rng.randint(0, n))])
        outs, ins, _ = g.adjacency
        near = [a + b for a, b in zip(outs, ins)]
        index = {v: k for k, v in enumerate(vs)}
        got = [[index[v] for v in comp] for comp in components(g)]
        assert got == strong_components(near, near, list(range(n)))


def test_strong_components_scale_to_a_large_random_digraph():
    # 10^5 nodes of out-degree 3 run in well under a second on a 2-vCPU
    # host (Python 3.11); the bound leaves room for a slow one
    rng = random.Random(3)
    n = 100_000
    succs = [sorted({rng.randrange(n) for _ in range(3)} - {k})
             for k in range(n)]
    preds = [[] for _ in range(n)]
    for k, out in enumerate(succs):
        for x in out:
            preds[x].append(k)
    start = time.perf_counter()
    found = strong_components(succs, preds, list(range(n)))
    assert time.perf_counter() - start < 2.0
    assert sorted(k for comp in found for k in comp) == list(range(n))


def recursive_first_injection(labels, hosts, fits):
    """first_injection as it was: one recursive call per label."""
    if len(labels) > len(hosts):
        return None
    assign = {}
    used = set()

    def search(k):
        if k == len(labels):
            return True
        lab = labels[k]
        for v in hosts:
            if v in used:
                continue
            assign[lab] = v
            if fits(lab, v, assign):
                used.add(v)
                if search(k + 1):
                    return True
                used.remove(v)
            del assign[lab]
        return False

    return assign if search(0) else None


def test_first_injection_matches_the_recursive_search_seeded():
    # the same calls of fits, in the same order, and the same answer
    rng = random.Random(1200)
    found = 0
    for _ in range(400):
        labels = list(range(rng.randint(0, 6)))
        hosts = rng.sample("abcdefgh", rng.randint(0, 7))
        allowed = {(lab, v) for lab in labels for v in hosts
                   if rng.random() < 0.6}
        before = {(lab, v, w) for lab in labels for v in hosts for w in hosts
                  if rng.random() < 0.8}  # v may follow w placed just before
        answers, calls = [], []
        for search in (first_injection, recursive_first_injection):
            seen = []

            def fits(lab, v, assign):
                seen.append((lab, v, tuple(assign.items())))
                return (lab, v) in allowed and (
                    lab == 0 or (lab, v, assign[lab - 1]) in before)

            answers.append(search(labels, hosts, fits))
            calls.append(seen)
        assert answers[0] == answers[1] and calls[0] == calls[1]
        assert answers[0] is None or list(answers[0]) == labels
        found += answers[0] is not None
    assert 50 < found < 350


def test_find_minmax_and_is_isomorphic_match_the_recursive_search_seeded(
        monkeypatch):
    rng = random.Random(1201)
    cases = []
    for _ in range(150):
        n = rng.randint(1, 6)
        vs = [f"v{i}" for i in range(n)]
        h = Digraph(rng.sample(vs, n),
                    [(a, b) for a in vs for b in vs if rng.random() < 0.4])
        other = Digraph(vs, [(a, b) for a in vs for b in vs
                             if rng.random() < 0.4])
        cases.append((h, other))
    cases = [(h, Digraph(h.vertices, [(b, a) for a, b in h.arcs]), other)
             for h, other in cases]
    got = [(find_minmax(h), is_isomorphic(h, conv), is_isomorphic(h, other))
           for h, conv, other in cases]
    monkeypatch.setattr(minhom.digraph, "first_injection",
                        recursive_first_injection)
    monkeypatch.setattr(minhom.minmax, "first_injection",
                        recursive_first_injection)
    want = [(find_minmax(h), is_isomorphic(h, conv), is_isomorphic(h, other))
            for h, conv, other in cases]
    assert got == want
    assert any(x[0] for x in got) and any(x[0] is None for x in got)
    assert any(x[2] for x in got) and any(x[2] is None for x in got)


def test_first_injection_does_not_recurse_per_label():
    n = 1500  # beyond the default recursion limit of 1000
    assign = first_injection(range(n), range(n), lambda lab, v, a: True)
    assert assign == {k: k for k in range(n)}
