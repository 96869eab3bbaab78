"""The benchmark's reference computations, on small hand-made cases.

    python3 -m pytest bench/test_oracle.py
"""

from itertools import permutations, product

import oracle
import workloads


def exhaustive_min_cost(dv, da, hv, ha, cost):
    best = None
    for labels in product(hv, repeat=len(dv)):
        m = dict(zip(dv, labels))
        if oracle.is_homomorphism(da, ha, m):
            c = sum(cost(u, m[u]) for u in dv)
            best = c if best is None else min(best, c)
    return best


def test_target_families():
    assert oracle.rc_tt(2)[1] == {("1", "1"), ("1", "2"), ("2", "2")}
    assert ("1", "4") not in oracle.rc_ttminus(4)[1]
    assert ("1", "3") in oracle.rc_ttminus(4)[1]
    assert oracle.cycle(3)[1] == {("1", "2"), ("2", "3"), ("3", "1")}
    vs, arcs = oracle.t5("33")
    assert len(arcs) == 6 and ("3", "3") in arcs and ("4", "4") not in arcs


def test_forest_dp_on_a_path_by_hand():
    # a -> b into rc_tt2: b must not sit below a.
    costs = {("a", "1"): 5, ("a", "2"): 0, ("b", "1"): 0, ("b", "2"): 4}
    cost = lambda u, i: costs.get((u, i), 0)
    hv, ha = oracle.rc_tt(2)
    # a=2 forces b=2: 0 + 4; a=1, b=1: 5 + 0; a=1, b=2: 9
    assert oracle.forest_min_cost(["a", "b"], [("a", "b")], hv, ha, cost) == 4


def test_forest_dp_matches_exhaustive_search():
    cost = lambda u, i: (7 * ord(u) + 3 * int(i)) % 11 - 5
    dv = ["r", "s", "t", "u", "w"]
    da = [("r", "s"), ("t", "s"), ("s", "u"), ("w", "u"), ("w", "w")]
    for hv, ha in (oracle.cycle(3), oracle.rc_k12(), oracle.t5("2244"),
                   oracle.rc_ttminus(4)):
        want = exhaustive_min_cost(dv, da, hv, ha, cost)
        assert oracle.forest_min_cost(dv, da, hv, ha, cost) == want


def test_forest_dp_infeasible_and_rejects_cycles():
    hv, ha = oracle.cycle(3)
    assert oracle.forest_min_cost(["a"], [("a", "a")], hv, ha,
                                  lambda u, i: 0) is None
    for arcs in ([("a", "b"), ("b", "c"), ("c", "a")], [("a", "b"), ("b", "a")]):
        try:
            oracle.forest_min_cost(["a", "b", "c"], arcs, hv, ha, lambda u, i: 0)
        except ValueError:
            continue
        raise AssertionError(f"{arcs} accepted as a forest")


def test_bounds_and_local_optimality():
    hv, ha = oracle.rc_tt(2)
    costs = {("a", "1"): 3, ("b", "2"): 2}
    cost = lambda u, i: costs.get((u, i), 0)
    lower, upper = oracle.cost_bounds(["a", "b"], [("a", "b")], hv, ha, cost)
    assert (lower, upper) == (0, 2)
    # a=1, b=1 costs 3; moving a to 2 breaks a -> b, moving b is not cheaper
    assert oracle.improving_relabel(["a", "b"], [("a", "b")], hv, ha, cost,
                                    {"a": "1", "b": "1"}) is None
    assert oracle.improving_relabel(["a", "b"], [], hv, ha, cost,
                                    {"a": "1", "b": "1"}) == ("a", "2")


def test_minmax_checker_by_hand():
    assert oracle.is_minmax(*oracle.rc_tt(3), ["1", "2", "3"])
    assert oracle.is_minmax(*oracle.rc_k12(), ["2", "1", "3"])
    # positions 1 -> 3 and 2 -> 2: the max pair (2, 3) is no arc
    assert not oracle.is_minmax(*oracle.rc_k12(), ["1", "2", "3"])
    assert oracle.is_minmax(*oracle.t5("33"), ["1", "2", "4", "3"])
    assert not oracle.is_minmax(*oracle.rc_tt(3), ["1", "2"])


def test_ordering_search_agrees_with_all_permutations():
    vs = ["a", "b", "c"]
    pairs = [(t, u) for t in vs for u in vs]
    for bits in product((0, 1), repeat=len(pairs)):
        arcs = {p for p, bit in zip(pairs, bits) if bit}
        found = oracle.find_minmax_ordering(vs, arcs)
        exists = any(oracle.is_minmax(vs, arcs, list(p)) for p in permutations(vs))
        assert (found is not None) == exists
        assert found is None or oracle.is_minmax(vs, arcs, found)
    assert oracle.find_minmax_ordering(*oracle.cycle(3)) is None


def test_reflexive_cycle_witness():
    vs, arcs = oracle.cycle(4)
    looped = arcs | {("2", "2")}
    assert oracle.is_reflexive_cycle(vs, looped, ["1", "2", "3", "4"], "2")
    assert not oracle.is_reflexive_cycle(vs, looped, ["1", "2", "3", "4"], "1")
    assert not oracle.is_reflexive_cycle(vs, looped, ["1", "3", "2", "4"], "2")
    chord = looped | {("1", "3")}
    assert not oracle.is_reflexive_cycle(vs, chord, ["1", "2", "3", "4"], "2")


def test_bipartite_rep():
    vs, edges = oracle.bipartite_rep(*oracle.rc_tt(2))
    assert sorted(vs) == ["1_1", "1_2", "2_1", "2_2"]
    assert edges == {frozenset(e) for e in
                     (("1_1", "1_2"), ("1_1", "2_2"), ("2_1", "2_2"))}


def test_patterns_detect_themselves_only():
    for kind, pattern in oracle.PATTERNS.items():
        edges = {frozenset(e) for e in pattern}
        hosts = sorted({v for e in pattern for v in e})
        assert len(hosts) == 7
        assert oracle.is_forbidden(edges, kind, hosts[::-1])
        others = [k for k in oracle.PATTERNS if k != kind]
        assert not any(oracle.is_forbidden(edges, k, hosts) for k in others)
        extra = next(frozenset((a, b)) for a in hosts for b in hosts
                     if a < b and frozenset((a, b)) not in edges)
        assert not oracle.is_forbidden(edges | {extra}, kind, hosts)


def test_long_cycle():
    ring = [f"c{k}" for k in range(6)]
    edges = {frozenset((ring[k], ring[(k + 1) % 6])) for k in range(6)}
    assert oracle.is_forbidden(edges, "long-induced-cycle", ring)
    assert not oracle.is_forbidden(edges | {frozenset(("c0", "c3"))},
                                   "long-induced-cycle", ring)
    square = {frozenset((ring[k], ring[(k + 1) % 4])) for k in range(4)}
    assert not oracle.is_forbidden(square, "long-induced-cycle", ring[:4])
    two = edges | {frozenset((f"d{k}", f"d{(k + 1) % 6}")) for k in range(6)}
    assert not oracle.is_forbidden(two, "long-induced-cycle",
                                   ring[:3] + ["d0", "d1", "d2"])


def test_bg_forbidden_reflexive_triangle():
    # BG of the reflexive directed 3-cycle is an induced 6-cycle
    vs, arcs = oracle.cycle(3)
    arcs = arcs | {(v, v) for v in vs}
    hosts = [f"{v}_{s}" for v in vs for s in (1, 2)]
    assert oracle.is_bg_forbidden(vs, arcs, vs, "long-induced-cycle", hosts)
    assert not oracle.is_bg_forbidden(vs, arcs, vs, "bipartite-claw", hosts)
    assert not oracle.is_bg_forbidden(vs, arcs, ["1", "2"],
                                      "long-induced-cycle", hosts)


def test_canonical_form():
    star = ["a", "b", "c"], {("a", "b"), ("a", "c")}
    relabelled = ["x", "y", "z"], {("z", "x"), ("z", "y")}
    path = ["a", "b", "c"], {("a", "b"), ("b", "c")}
    assert oracle.canonical_form(*star) == oracle.canonical_form(*relabelled)
    assert oracle.canonical_form(*star) != oracle.canonical_form(*path)


def test_reflexive_mpt_class_counts():
    # n = 3: parts {2, 1} give out-star, in-star and mixed; three singleton
    # parts give the transitive and the cyclic tournament
    assert len(workloads.rmpt_classes(3)) == 5
    assert len(workloads.rmpt_classes(4)) == 22


def test_interval_blocks_and_plants():
    import random
    rng = random.Random(0)
    for n in range(12, 19):
        for plant in (None,) + workloads.PLANTS:
            p1, p2, edges = workloads.bigraph(rng, n, plant)
            assert len(p1) + len(p2) == n
            assert all(u in p1 and v in p2 for u, v in edges)
