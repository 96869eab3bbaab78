import itertools
import random
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from minhom import (Classification, CostMatrix, Digraph, GraphError,
                    GuardExceeded, InternalError, build_theorem5_digraph,
                    classify_general, classify_reflexive_mpt,
                    classify_theorem5, classify_tournament_wpl, components,
                    enumerate_rmpt, find_minmax, find_witness,
                    is_homomorphism, make_cycle, make_oriented_kb, make_tt,
                    make_tt_minus, map_cost, solve_auto, solve_bruteforce,
                    validate_witness, verify_minmax)
from minhom.birep import bg, find_forbidden
from minhom.classify import (WITNESS_SUBSET_CAP, BGForbiddenWitness,
                             ReflexiveCycleWitness, _witnesses)
from minhom.digraph import cycle_walk
from minhom.minmax import FIND_GUARD, _is_staircase, _rank_rows
from test_birep import kernel


def test_witness_none_for_rc_tt3():
    assert find_witness(make_tt(3).reflexive_closure()) is None


def test_witness_looped_star_claw():
    h = Digraph(("z", "u", "v", "w"), [("z", "u"), ("z", "v"), ("w", "z"),
                                       ("z", "z"), ("u", "u"), ("v", "v")])
    w = find_witness(h)
    assert isinstance(w, BGForbiddenWitness)
    assert w.structure.kind == "bipartite-claw"
    assert validate_witness(h, w)
    # the claw survives in the fully reflexive variant and both converses
    rc = h.reflexive_closure()
    for variant in (Digraph(h.vertices, [(b, a) for a, b in h.arcs]), rc,
                    Digraph(h.vertices, [(b, a) for a, b in rc.arcs])):
        w2 = find_witness(variant)
        assert w2 is not None and validate_witness(variant, w2)


def test_find_witness_checks_each_witness_once(monkeypatch):
    import minhom.classify
    rc3 = make_cycle(3).reflexive_closure()
    star = make_oriented_kb(1, 3).reflexive_closure()
    calls = []
    check = minhom.classify.validate_witness
    monkeypatch.setattr(minhom.classify, "validate_witness",
                        lambda h, w: calls.append(w) or check(h, w))
    kinds = set()
    for classify, h in ((classify_general, rc3), (classify_general, star),
                        (classify_reflexive_mpt, rc3),
                        (classify_reflexive_mpt, star),
                        (classify_theorem5, {"11", "22"})):
        calls.clear()
        c = classify(h)
        assert c.witness is not None and calls == [c.witness]
        kinds.add(type(c.witness))
    assert kinds == {ReflexiveCycleWitness, BGForbiddenWitness}
    # a witness that fails its check is never returned, of either kind
    monkeypatch.setattr(minhom.classify, "validate_witness",
                        lambda h, w: False)
    for h in (rc3, star):
        with pytest.raises(InternalError):
            find_witness(h)


def test_find_witness_skips_subsets_too_small_for_a_structure(monkeypatch):
    # BG(H[S]) has 2|S| vertices; the smallest forbidden structure has 6
    import minhom.classify
    sizes = []
    search = minhom.classify.forbidden_hosts
    monkeypatch.setattr(
        minhom.classify, "forbidden_hosts",
        lambda n1, adj: sizes.append(len(adj)) or search(n1, adj))
    rng = random.Random(11)
    targets = [make_tt(4).reflexive_closure(),
               make_oriented_kb(1, 3).reflexive_closure(),
               build_theorem5_digraph({"11", "22"})]
    for _ in range(40):
        vs = [str(i) for i in range(rng.randint(1, 6))]
        targets.append(Digraph(vs, [(a, b) for a in vs for b in vs
                                    if rng.random() < 0.4]))
    found = 0
    for h in targets:
        found += find_witness(h) is not None
    assert sizes and min(sizes) == 6 and found
    # the first one-vertex subset is never searched, so neither is h
    sizes.clear()
    assert find_witness(Digraph(("a", "b"), [("a", "b"), ("b", "a")])) is None
    assert sizes == []


def test_witness_fully_looped_t5_tent_exists():
    from minhom.birep import bg, validate_forbidden
    h = build_theorem5_digraph({"11", "22", "33", "44"})
    g = bg(h)
    tent = kernel(g, "bipartite-tent")
    assert tent is not None and validate_forbidden(g, tent)


def test_witness_reflexive_cycle():
    h = make_cycle(3).reflexive_closure()
    w = find_witness(h)
    assert isinstance(w, ReflexiveCycleWitness)
    assert len(w.cycle) == 3 and validate_witness(h, w)


def test_witness_single_loop_on_cycle():
    h = Digraph(("1", "2", "3"),
                [("1", "2"), ("2", "3"), ("3", "1"), ("2", "2")])
    w = find_witness(h)
    assert isinstance(w, ReflexiveCycleWitness) and w.looped == "2"


# -- reflexive multipartite tournaments -----------------------------------


def test_classify_rmpt_requires_reflexive():
    with pytest.raises(GraphError):
        classify_reflexive_mpt(make_tt(3))


def test_classify_rmpt_poly_families():
    for h in (make_tt(3).reflexive_closure(),
              make_tt_minus(4).reflexive_closure(),
              make_oriented_kb(1, 2).reflexive_closure(),
              make_oriented_kb(2, 1).reflexive_closure()):
        c = classify_reflexive_mpt(h)
        assert c.verdict == "poly"
        if c.ordering is not None:
            assert verify_minmax(h, c.ordering)[0]


def test_classify_rmpt_k22_net():
    h = make_oriented_kb(2, 2).reflexive_closure()
    c = classify_reflexive_mpt(h)
    assert c.verdict == "np-hard"
    assert isinstance(c.witness, BGForbiddenWitness)
    assert c.witness.structure.kind == "bipartite-net"


def test_classify_rmpt_reflexive_c3():
    c = classify_reflexive_mpt(make_cycle(3).reflexive_closure())
    assert c.verdict == "np-hard"
    assert isinstance(c.witness, ReflexiveCycleWitness)


def test_classify_rmpt_transported_ordering_on_relabeled_target():
    # relabeled RC(TT_4^-): poly with an ordering that verifies on the input
    base = make_tt_minus(4).reflexive_closure()
    names = {"1": "d", "2": "c", "3": "b", "4": "a"}
    h = Digraph(tuple(names[v] for v in base.vertices),
                [(names[t], names[u]) for t, u in base.arcs])
    c = classify_reflexive_mpt(h)
    assert c.verdict == "poly" and verify_minmax(h, c.ordering)[0]


def test_classify_rmpt_beyond_ten_vertices():
    for n in (11, 12):
        c = classify_reflexive_mpt(make_tt_minus(n).reflexive_closure())
        assert (c.verdict, c.rule) == ("poly", "thm4.1")
        assert c.ordering.sequence == tuple(str(i) for i in range(1, n + 1))
    # relabelled, declared in shuffled order: the ordering is the image of 1..12
    base = make_tt_minus(12).reflexive_closure()
    rng = random.Random(64)
    names = dict(zip(base.vertices, rng.sample([f"q{i}" for i in range(12)], 12)))
    h = Digraph([names[v] for v in rng.sample(base.vertices, 12)],
                [(names[t], names[u]) for t, u in base.arcs])
    c = classify_reflexive_mpt(h)
    assert (c.verdict, c.rule) == ("poly", "thm4.1")
    assert c.ordering.sequence == tuple(names[v] for v in base.vertices)
    # RC(TT_11^-) with the arc 1->2 reversed: 11 vertices, 10 parts, hard
    rc11 = make_tt_minus(11).reflexive_closure()
    hard = Digraph(rc11.vertices, (rc11.arcs - {("1", "2")}) | {("2", "1")})
    c = classify_reflexive_mpt(hard)
    assert (c.verdict, c.rule) == ("np-hard", "thm4.1")
    assert validate_witness(hard, c.witness)


def test_classify_rmpt_three_vertex_orderings():
    # a path is RC(TT_3^-), ordered along the path; an oriented star is
    # ordered (first declared leaf, centre, second declared leaf)
    for order in itertools.permutations("abc"):
        first, second = (v for v in order if v != "c")
        for arcs, want in (((("a", "c"), ("c", "b")), ("a", "c", "b")),
                           ((("b", "c"), ("c", "a")), ("b", "c", "a")),
                           ((("c", "a"), ("c", "b")), (first, "c", second)),
                           ((("a", "c"), ("b", "c")), (first, "c", second))):
            c = classify_reflexive_mpt(Digraph(order, arcs).reflexive_closure())
            assert (c.verdict, c.rule) == ("poly", "thm4.1")
            assert c.ordering.sequence == want


# -- tournaments w.p.l. ---------------------------------------------------


def test_classify_tournament_acyclic_with_loops():
    h = Digraph(make_tt(4).vertices,
                set(make_tt(4).arcs) | {("2", "2"), ("3", "3")})
    c = classify_tournament_wpl(h)
    assert c.verdict == "poly" and verify_minmax(h, c.ordering)[0]


def test_classify_tournament_loopless_c3_poly():
    c = classify_tournament_wpl(make_cycle(3))
    assert c.verdict == "poly" and c.ordering is None


def test_classify_tournament_c3_with_loop_hard():
    h = Digraph(("1", "2", "3"),
                [("1", "2"), ("2", "3"), ("3", "1"), ("1", "1")])
    c = classify_tournament_wpl(h)
    assert c.verdict == "np-hard"
    assert isinstance(c.witness, ReflexiveCycleWitness)


def test_classify_tournament_rejects_non_tournament():
    with pytest.raises(GraphError):
        classify_tournament_wpl(make_oriented_kb(1, 2))


def test_classify_tournament_hard_has_witness_or_note():
    # every labelled 4-vertex tournament w.p.l.: an np-hard verdict carries
    # a witness that re-checks, or says that the search found none (the
    # loopless 1->2, 1->3, 2->3, 2->4, 3->4, 4->1 has no small witness)
    vs = ("1", "2", "3", "4")
    pairs = list(itertools.combinations(vs, 2))
    hard = bare = 0
    for flips in itertools.product((0, 1), repeat=len(pairs)):
        for loops in itertools.product((0, 1), repeat=len(vs)):
            arcs = [(v, u) if flip else (u, v)
                    for (u, v), flip in zip(pairs, flips)]
            arcs += [(v, v) for v, loop in zip(vs, loops) if loop]
            h = Digraph(vs, arcs)
            c = classify_tournament_wpl(h)
            if c.verdict != "np-hard":
                continue
            hard += 1
            if c.witness is None:
                bare += 1
                assert c.notes == ("no-witness-found",), h.sorted_arcs()
            else:
                assert validate_witness(h, c.witness) and not c.notes
    assert hard == 640 and bare == 24


def first_broken_pair(h):
    """The first pair in declaration order carrying 0 or 2 arcs, or None."""
    for u, v in itertools.combinations(h.vertices, 2):
        if ((u, v) in h.arcs) == ((v, u) in h.arcs):
            return u, v
    return None


def outcome(classify, h):
    try:
        return classify(h)
    except GraphError as e:
        return type(e), str(e)


def test_tournament_check_matches_the_pair_scan():
    # every digraph on 3 vertices, then seeded 4-6-vertex tournaments w.p.l.
    # with up to two pairs broken (0 or 2 arcs), declared in shuffled order
    cases = []
    vs = ("1", "2", "3")
    every = list(itertools.product(vs, repeat=2))
    for bits in itertools.product((0, 1), repeat=len(every)):
        cases.append(Digraph(vs, [a for a, b in zip(every, bits) if b]))
    rng = random.Random(21)
    for _ in range(600):
        n = rng.randint(4, 6)
        vs = [str(i) for i in range(1, n + 1)]
        rng.shuffle(vs)
        arcs = {(u, v) if rng.random() < 0.5 else (v, u)
                for u, v in itertools.combinations(vs, 2)}
        loop_rate = rng.choice((0.0, 0.5, 1.0))
        arcs |= {(v, v) for v in vs if rng.random() < loop_rate}
        for _ in range(rng.choice((0, 0, 1, 2))):
            u, v = rng.sample(vs, 2)
            if (u, v) in arcs:
                arcs.discard((u, v))
            else:
                arcs.add((u, v))
        cases.append(Digraph(vs, arcs))
    broken = reflexive = 0
    for h in cases:
        pair = first_broken_pair(h)
        got = outcome(classify_tournament_wpl, h)
        if pair is not None:
            broken += 1
            assert got == (GraphError,
                           "classify_tournament_wpl requires a tournament "
                           f"w.p.l. (pair ({pair[0]}, {pair[1]}) breaks it)")
            continue
        assert not isinstance(got, tuple), got
        if all((v, v) in h.arcs for v in h.vertices):
            reflexive += 1
            assert classify_reflexive_mpt(h) == got
    assert broken == 740 and reflexive == 128


# -- the four-vertex sixteen-case family ----------------------------------


def all_b_subsets():
    loops = ("11", "22", "33", "44")
    for r in range(5):
        yield from (frozenset(c) for c in itertools.combinations(loops, r))


def test_theorem5_digraph_shape():
    h = build_theorem5_digraph({"33"})
    assert h.nonloop_arcs() == frozenset(
        {("1", "2"), ("2", "3"), ("3", "4"), ("1", "4"), ("2", "4")})
    assert h.loops() == ("3",)
    with pytest.raises(GraphError):
        build_theorem5_digraph({"55"})


def test_theorem5_truth_table():
    poly_sets = {frozenset({"33"}), frozenset({"11", "33"}),
                 frozenset({"22", "33"}), frozenset({"11", "22", "33"})}
    for b in all_b_subsets():
        c = classify_theorem5(b)
        assert c.verdict == ("poly" if b in poly_sets else "np-hard"), b
        if c.witness is not None:
            assert validate_witness(build_theorem5_digraph(b), c.witness)
        if c.ordering is not None:
            assert verify_minmax(build_theorem5_digraph(b), c.ordering)[0]


def test_theorem5_poly_cases_have_minmax_orderings():
    # every polynomial case of the four-vertex family is certified by the
    # Min-Max ordering 1,2,4,3
    for b in ({"33"}, {"11", "33"}, {"22", "33"}, {"11", "22", "33"}):
        c = classify_theorem5(b)
        assert c.ordering is not None
        assert c.ordering.sequence == ("1", "2", "4", "3")


def test_theorem5_poly_case_without_ordering_is_internal(monkeypatch):
    import minhom.classify
    monkeypatch.setattr(minhom.classify, "verify_minmax",
                        lambda h, ordering: (False, None))
    with pytest.raises(InternalError):
        classify_theorem5({"33"})


# -- generic classifier ---------------------------------------------------


def test_general_reflexive_out_star():
    h = Digraph(("z", "u", "v", "w"), [("z", "u"), ("z", "v"), ("z", "w"),
                                       ("u", "u"), ("v", "v"), ("w", "w")])
    c = classify_general(h)
    assert c.verdict == "np-hard"
    assert c.witness.structure.kind == "bipartite-claw"


def test_general_rc_tt3():
    c = classify_general(make_tt(3).reflexive_closure())
    assert c.verdict == "poly"
    assert c.ordering.sequence == ("1", "2", "3")


def test_general_open_family_case():
    # the four-vertex digraph with arcs {12,23,24} and loops {33,44} is left
    # open by the dichotomy machinery: no witness and no Min-Max ordering
    h = Digraph(("1", "2", "3", "4"),
                [("1", "2"), ("2", "3"), ("2", "4"), ("3", "3"), ("4", "4")])
    c = classify_general(h)
    assert c.verdict == "unknown"


def test_general_directed_cycle():
    c = classify_general(make_cycle(9))
    assert (c.verdict, c.rule) == ("poly", "directed-cycle")
    assert c.cycle == tuple(str(i) for i in range(1, 10))
    assert c.ordering is None and c.witness is None
    # any vertex names; the walk starts at the first declared vertex
    h = Digraph(("x", "w", "z", "y"),
                [("x", "y"), ("y", "w"), ("w", "z"), ("z", "x")])
    c = classify_general(h)
    assert (c.verdict, c.rule, c.cycle) == ("poly", "directed-cycle",
                                             ("x", "y", "w", "z"))
    # a loop makes it another target: no directed-cycle rule
    looped = Digraph(make_cycle(5).vertices, make_cycle(5).arcs | {("1", "1")})
    c = classify_general(looped)
    assert c.rule != "directed-cycle" and c.cycle is None


def test_general_rechecks_the_cycle_certificate(monkeypatch):
    import minhom.classify
    monkeypatch.setattr(minhom.classify, "cycle_walk",
                        lambda h: ("1", "3", "2"))
    with pytest.raises(InternalError):
        classify_general(make_cycle(3))


def test_general_answers_long_cycles_without_the_witness_search():
    start = time.perf_counter()
    c = classify_general(make_cycle(40))
    assert time.perf_counter() - start < 1.0
    assert (c.verdict, c.rule) == ("poly", "directed-cycle")
    assert c.cycle == tuple(str(i) for i in range(1, 41))


def test_validate_witness_rejects_mislabelled_structures():
    from minhom import ForbiddenStructure
    c3 = make_cycle(3)
    for kind in ("bipartite-net", "bipartite-tent", "no-such-kind"):
        w = BGForbiddenWitness(("1",), ForbiddenStructure(kind, ()))
        assert validate_witness(c3, w) is False
    # a witness naming a vertex outside h
    rc3 = c3.reflexive_closure()
    w = BGForbiddenWitness(("zz",), ForbiddenStructure("bipartite-net", ()))
    assert validate_witness(rc3, w) is False
    assert validate_witness(rc3, ReflexiveCycleWitness(("1", "2", "zz"), "1")) is False
    # the looped vertex must be on the cycle and carry a loop
    looped = Digraph(("1", "2", "3", "4"), [*c3.arcs, ("1", "1"), ("4", "4")])
    assert validate_witness(looped, ReflexiveCycleWitness(("1", "2", "3"), "1"))
    for w in (ReflexiveCycleWitness(("1", "2", "3"), "4"),
              ReflexiveCycleWitness(("1", "2", "3"), "2")):
        assert validate_witness(looped, w) is False


def test_rmpt_needs_two_partite_sets():
    for h in (Digraph(("a",), [("a", "a")]),
              Digraph(("a", "b"), [("a", "a"), ("b", "b")])):
        with pytest.raises(GraphError, match="at least 2 partite sets"):
            classify_reflexive_mpt(h)


def test_general_skips_minmax_beyond_guard():
    # declared 1,3,5,2,4,6, so the guard stops a real search
    rc = make_tt(6).reflexive_closure()
    h = Digraph(rc.vertices[::2] + rc.vertices[1::2], rc.arcs)
    assert not _is_staircase(_rank_rows(h, h.vertices))
    c = classify_general(h, guard=4)
    assert c.verdict == "unknown" and "minmax-skipped-guard" in c.notes


def witness_first(h, guard=FIND_GUARD):
    """classify_general's rules with the witness search asked before the
    Min-Max search: the reference order for the two tests below."""
    walk = None if any(h.adjacency[2]) else cycle_walk(h)
    if walk is not None:
        return Classification("poly", "directed-cycle", cycle=walk)
    w = find_witness(h)
    if w is not None:
        rule = ("lemma4.2" if isinstance(w, ReflexiveCycleWitness)
                else "bg-forbidden")
        return Classification("np-hard", rule, witness=w)
    try:
        ordering = find_minmax(h, guard=guard)
    except GuardExceeded:
        return Classification("unknown", "none",
                              notes=("minmax-skipped-guard",))
    if ordering is not None:
        return Classification("poly", "minmax", ordering=ordering)
    return Classification("unknown", "none")


def test_general_route_order_changes_no_answer():
    # a target with a Min-Max ordering and a witness would make an NP-hard
    # problem polynomial, so asking the ordering first changes nothing
    def labelled(vs, bits):
        pairs = [(a, b) for a in vs for b in vs]
        return Digraph(vs, [p for k, p in enumerate(pairs) if bits >> k & 1])

    rng = random.Random(33)
    targets = [labelled(("1", "2", "3"), bits) for bits in range(1 << 9)]
    targets += [labelled(("1", "2", "3", "4"), bits)
                for bits in rng.sample(range(1 << 16), 2000)]
    verdicts = set()
    for h in targets:
        c = classify_general(h)
        assert c == witness_first(h), h
        verdicts.add(c.verdict)
    assert verdicts == {"poly", "np-hard", "unknown"}
    # under a guard that stops the search, the note survives a search
    # for a witness that finds none
    rc = make_tt(6).reflexive_closure()
    h = Digraph(rc.vertices[::2] + rc.vertices[1::2], rc.arcs)
    assert classify_general(h, guard=4) == witness_first(h, guard=4)


def test_general_finds_a_min_max_ordering_without_the_witness_search(
        monkeypatch):
    import minhom.classify
    calls = []
    search = minhom.classify.find_witness
    monkeypatch.setattr(minhom.classify, "find_witness",
                        lambda h: calls.append(h) or search(h))
    for h, rule in ((make_tt(80).reflexive_closure(), "minmax"),
                    (make_cycle(5), "directed-cycle"),
                    (build_theorem5_digraph({"33"}), "minmax")):
        c = classify_general(h)
        assert (c.verdict, c.rule) == ("poly", rule)
    assert calls == []
    # where no rule of the first two holds, the witness search runs
    c = classify_general(build_theorem5_digraph({"11", "22", "33", "44"}))
    assert c.verdict == "np-hard" and len(calls) == 1


# -- out-star family, exhaustively ----------------------------------------


def test_out_star_family_exhaustive():
    loops = ("uu", "vv", "ww", "zz")
    for conv in (False, True):
        for r in range(5):
            for b in itertools.combinations(loops, r):
                arcs = [("z", "u"), ("z", "v"), ("z", "w")]
                arcs += [(x[0], x[1]) for x in b]
                if conv:
                    arcs = [(y, x) for x, y in arcs]
                h = Digraph(("u", "v", "w", "z"), arcs)
                hard = {"uu", "vv", "ww"} <= set(b)
                if hard:
                    w = find_witness(h)
                    assert isinstance(w, BGForbiddenWitness)
                    assert w.structure.kind == "bipartite-claw"
                    assert validate_witness(h, w)
                else:
                    assert find_minmax(h) is not None


# -- enumeration ----------------------------------------------------------


def test_enumerate_rmpt_counts():
    assert len(enumerate_rmpt(2)) == 1
    assert len(enumerate_rmpt(3)) == 5
    assert len(enumerate_rmpt(4)) == 22
    assert len(enumerate_rmpt(5)) == 143
    assert len(enumerate_rmpt(6)) == 1643


def pairwise_rmpt(n):
    """The enumeration with every candidate compared against every class
    kept so far, through is_isomorphic as the oracle."""
    from minhom import is_isomorphic
    from minhom.classify import _partitions
    found = []
    for part_sizes in sorted(_partitions(n), reverse=True):
        if len(part_sizes) < 2:
            continue
        vertices = [str(i) for i in range(1, n + 1)]
        bounds = list(itertools.accumulate(part_sizes, initial=0))
        parts = [vertices[a:b] for a, b in zip(bounds, bounds[1:])]
        cross = [(u, v) for a, b in itertools.combinations(parts, 2)
                 for u in a for v in b]
        for bits in itertools.product((0, 1), repeat=len(cross)):
            arcs = [(v, v) for v in vertices]
            arcs += [(u, v) if bit == 0 else (v, u)
                     for (u, v), bit in zip(cross, bits)]
            h = Digraph(vertices, arcs)
            if not any(is_isomorphic(h, c) for c in found):
                found.append(h)
    return found


def test_enumerate_rmpt_matches_pairwise_isomorphism():
    for n in range(2, 6):
        got = [(h.vertices, h.sorted_arcs()) for h in enumerate_rmpt(n)]
        want = [(h.vertices, h.sorted_arcs()) for h in pairwise_rmpt(n)]
        assert got == want, n


def test_enumerate_rmpt_all_reflexive_multipartite():
    from minhom import partite_structure
    for h in enumerate_rmpt(4):
        assert set(h.loops()) == set(h.vertices)
        assert len(partite_structure(h)) >= 2


def test_consistency_general_vs_rmpt():
    for h in enumerate_rmpt(4):
        verdict = classify_reflexive_mpt(h).verdict
        general = classify_general(h).verdict
        if general != "unknown":
            assert general == verdict, h.arcs


def all_subsets_witness(h):
    """find_witness over every subset, connected or not: looped cycles
    through 3 or 4 vertices, then forbidden structures in BG(H[S])."""
    for size in range(3, WITNESS_SUBSET_CAP + 1):
        for subset in itertools.combinations(h.vertices, size):
            walk = cycle_walk(h.induced(subset)) or ()
            looped = next((v for v in walk if h.has_loop(v)), None)
            if looped is not None:
                return ReflexiveCycleWitness(walk, looped)
    for size in range(3, WITNESS_SUBSET_CAP + 1):
        for subset in itertools.combinations(h.vertices, size):
            fs = find_forbidden(bg(h.induced(subset)))
            if fs is not None:
                return BGForbiddenWitness(subset, fs)
    return None


@st.composite
def digraphs(draw, most=7):
    n = draw(st.integers(1, most))
    vs = draw(st.permutations([str(i) for i in range(n)]))
    p = draw(st.sampled_from((0.15, 0.3, 0.5, 0.7)))
    rng = draw(st.randoms(use_true_random=False))
    return Digraph(vs, [(a, b) for a in vs for b in vs if rng.random() < p])


@settings(max_examples=400)
@given(digraphs())
def test_find_witness_matches_the_all_subsets_search(h):
    assert find_witness(h) == all_subsets_witness(h)


def named_witnesses(h):
    """The witness generator by name, one graph per subset: weakly
    connected subsets in combinations order, cycle_walk of each induced
    subdigraph, then find_forbidden of its bipartite representation."""
    connected = [[subset for subset in itertools.combinations(h.vertices, size)
                  if len(components(h.induced(subset))) == 1]
                 for size in range(3, WITNESS_SUBSET_CAP + 1)]
    for subsets in connected:
        for subset in subsets:
            walk = cycle_walk(h.induced(subset)) or ()
            looped = next((v for v in walk if h.has_loop(v)), None)
            if looped is not None:
                yield ReflexiveCycleWitness(walk, looped)
    for subsets in connected:
        for subset in subsets:
            fs = find_forbidden(bg(h.induced(subset)))
            if fs is not None:
                yield BGForbiddenWitness(subset, fs)


def test_witness_sequence_matches_the_named_search_seeded():
    # loops and digons: each ordered pair and each loop is drawn on its own
    rng = random.Random(16)
    seen = set()
    for _ in range(2000):
        vs = [f"v{i}" for i in range(rng.randint(1, 8))]
        rng.shuffle(vs)
        p, loop_p = rng.choice((0.15, 0.3, 0.5)), rng.choice((0, 0.3, 0.7, 1))
        h = Digraph(vs, [(a, b) for a in vs for b in vs
                         if rng.random() < (loop_p if a == b else p)])
        got = list(_witnesses(h))
        assert got == list(named_witnesses(h)), h
        seen.update(type(w) for w in got)
        seen.update(w.structure.kind for w in got
                    if isinstance(w, BGForbiddenWitness))
    assert seen == {ReflexiveCycleWitness, BGForbiddenWitness,
                    "long-induced-cycle", "bipartite-claw", "bipartite-net",
                    "bipartite-tent"}


def test_witness_memo_renames_and_keeps_loops_apart():
    # the reflexive 3-cycle has a 6-cycle in BG; drop one loop and BG is a
    # path.  Two looped copies share one arc pattern, the third copy's
    # pattern differs from theirs by one loop only
    def triangle(tag, loops):
        vs = [f"{tag}{i}" for i in range(3)]
        return vs, [(vs[i], vs[(i + 1) % 3]) for i in range(3)] + \
            [(v, v) for v in vs[:loops]]

    parts = [triangle("a", 3), triangle("b", 2), triangle("c", 3)]
    for order in (parts, parts[::-1]):
        h = Digraph([v for vs, _ in order for v in vs],
                    [arc for _, arcs in order for arc in arcs])
        found = {w.subset: w.structure for w in _witnesses(h)
                 if isinstance(w, BGForbiddenWitness)}
        assert sorted(found) == [("a0", "a1", "a2"), ("c0", "c1", "c2")]
        for subset, fs in found.items():
            assert fs.kind == "long-induced-cycle"
            assert {v[:-2] for v in fs.host_vertices()} == set(subset)
            assert fs == find_forbidden(bg(h.induced(subset)))
        rename = str.maketrans("a", "c")
        assert [(lab, v.translate(rename))
                for lab, v in found["a0", "a1", "a2"].embedding] == \
            list(found["c0", "c1", "c2"].embedding)
        assert list(_witnesses(h)) == list(named_witnesses(h))


@st.composite
def directed_cycles(draw):
    """A directed cycle through 2 to 6 vertices, declared in a random order."""
    walk = draw(st.permutations([str(i) for i in range(draw(st.integers(2, 6)))]))
    return Digraph(draw(st.permutations(walk)), zip(walk, walk[1:] + walk[:1]))


@settings(max_examples=300)
@given(st.one_of(digraphs(most=6), directed_cycles()), digraphs(most=5),
       st.randoms(use_true_random=False))
def test_every_certificate_validates(h, d, rng):
    c = classify_general(h)
    if c.ordering is not None:
        assert verify_minmax(h, c.ordering)[0]
    if c.cycle is not None:
        k = len(c.cycle)
        assert sorted(c.cycle) == sorted(h.vertices)
        assert h.arcs == {(c.cycle[i], c.cycle[(i + 1) % k]) for i in range(k)}
    if c.witness is not None:
        assert validate_witness(h, c.witness)
    costs = CostMatrix({(u, i): rng.randint(-3, 3)
                        for u in d.vertices for i in h.vertices})
    res = solve_auto(d, h, costs)
    if res.feasible:
        mapping = res.mapping
        assert is_homomorphism(d, h, mapping)
        assert map_cost(d, costs, mapping) == res.cost
    assert res.cost == solve_bruteforce(d, h, costs).cost
