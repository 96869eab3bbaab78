import itertools
import random
import time

import pytest

import minhom.minmax
from minhom import (ArcPair, Digraph, GraphError, GuardExceeded,
                    InternalError, Ordering, find_minmax, make_cycle,
                    make_oriented_kb, make_tt, make_tt_minus, verify_minmax)
from minhom.cli import resolve_target
from minhom.digraph import first_injection
from minhom.minmax import _is_staircase, _pair_test, _rank_rows


def test_ordering_parse_serialize():
    o = Ordering(("2", "1", "3"))
    assert o.serialize() == "2,1,3"
    assert Ordering.parse("2,1,3") == o
    assert Ordering.parse("") == Ordering(())
    with pytest.raises(GraphError):
        Ordering(("a", "a"))
    # an empty name is an error, not a name dropped
    for text in ("1,,2", "1,2,", ",1", ","):
        with pytest.raises(GraphError, match="empty vertex name"):
            Ordering.parse(text)


def test_verify_requires_permutation():
    with pytest.raises(GraphError):
        verify_minmax(make_tt(2), Ordering(("1",)))


def test_rc_k12_stated_ordering():
    h = make_oriented_kb(1, 2).reflexive_closure()
    assert h.arcs == frozenset(
        {("1", "2"), ("1", "3"), ("1", "1"), ("2", "2"), ("3", "3")})
    ok, _ = verify_minmax(h, Ordering(("2", "1", "3")))
    assert ok


def test_digon_identity_ordering_fails():
    ok, pair = verify_minmax(make_cycle(2), Ordering(("1", "2")))
    assert not ok
    # their coordinatewise min, (1, 1), is no arc
    assert {pair.e, pair.f} == {("1", "2"), ("2", "1")}


def test_rc_tt_identity_ordering():
    for p in range(1, 9):
        ok, _ = verify_minmax(make_tt(p).reflexive_closure(),
                              Ordering(str(i) for i in range(1, p + 1)))
        assert ok


def test_find_minmax_rc_ttminus4():
    found = find_minmax(make_tt_minus(4).reflexive_closure())
    assert found == Ordering(("1", "2", "3", "4"))


def test_find_minmax_reflexive_c3_none():
    assert find_minmax(make_cycle(3).reflexive_closure()) is None


def test_find_minmax_single_loop():
    h = Digraph(("v",), [("v", "v")])
    assert find_minmax(h) == Ordering(("v",))


def test_find_minmax_guard():
    # the declaration order is answered at any size; the guard bounds the
    # search, which this interleaved order 1,3,...,9,2,4,...,10 needs
    tt = make_tt(10)
    h = Digraph(tt.vertices[::2] + tt.vertices[1::2], tt.arcs)
    assert not _is_staircase(_rank_rows(h, h.vertices))
    with pytest.raises(GuardExceeded):
        find_minmax(h)


def test_find_minmax_self_consistent():
    import random
    rng = random.Random(5)
    for _ in range(40):
        vs = [str(i) for i in range(1, rng.randint(2, 5))]
        h = Digraph(vs, [(a, b) for a in vs for b in vs if rng.random() < 0.5])
        found = find_minmax(h)
        if found is not None:
            assert verify_minmax(h, found)[0]


def all_digraphs_on(vs):
    pairs = [(a, b) for a in vs for b in vs]
    for bits in itertools.product((0, 1), repeat=len(pairs)):
        yield Digraph(vs, [p for p, b in zip(pairs, bits) if b])


def test_verify_invariant_under_converse_exhaustive():
    vs = ("1", "2", "3")
    orderings = [Ordering(p) for p in itertools.permutations(vs)]
    for h in all_digraphs_on(vs):
        conv = Digraph(vs, [(b, a) for a, b in h.arcs])
        for o in orderings:
            assert verify_minmax(h, o)[0] == verify_minmax(conv, o)[0]


def test_verify_invariant_under_reversal_exhaustive():
    vs = ("1", "2", "3")
    orderings = [Ordering(p) for p in itertools.permutations(vs)]
    for h in all_digraphs_on(vs):
        for o in orderings:
            if verify_minmax(h, o)[0]:
                assert verify_minmax(h, Ordering(reversed(o.sequence)))[0]


def test_canonical_orderings_all_verify():
    # each star's centre (the source of rc_k12, the sink of rc_k21) sits
    # between its two other vertices
    cases = [(resolve_target("rc_k12"), Ordering(("2", "1", "3"))),
             (resolve_target("rc_k21"), Ordering(("1", "3", "2")))]
    for p in range(1, 9):
        h = make_tt(p).reflexive_closure()
        cases.append((h, Ordering(h.vertices)))
    for p in range(2, 9):
        h = make_tt_minus(p).reflexive_closure()
        cases.append((h, Ordering(h.vertices)))
    for h, ordering in cases:
        assert verify_minmax(h, ordering)[0]


def test_find_minmax_is_first_permutation_seeded():
    import random
    rng = random.Random(62)
    found = 0
    for _ in range(150):
        n = rng.randint(1, 6)
        vs = [f"v{i}" for i in range(n)]
        rng.shuffle(vs)
        p = rng.choice((0.3, 0.5, 0.7))
        h = Digraph(vs, [(a, b) for a in vs for b in vs if rng.random() < p])
        first = next((Ordering(perm) for perm in itertools.permutations(vs)
                      if verify_minmax(h, Ordering(perm))[0]), None)
        assert find_minmax(h) == first
        found += first is not None
    assert 30 < found < 140


def first_violating_pair(h, ordering):
    """The first pair of arcs, in sorted position order, whose coordinatewise
    min or max is no arc, as an ArcPair; None if there is none."""
    pos = {v: i for i, v in enumerate(ordering.sequence, 1)}
    arcs = sorted((pos[t], pos[u]) for t, u in h.arcs)
    arc_set = set(arcs)
    seq = ordering.sequence
    for a, (i, k) in enumerate(arcs):
        for j, s in arcs[a + 1:]:
            mn = (min(i, j), min(k, s))
            mx = (max(i, j), max(k, s))
            if {mn, mx} != {(i, k), (j, s)} and not {mn, mx} <= arc_set:
                return ArcPair(e=(seq[i - 1], seq[k - 1]),
                               f=(seq[j - 1], seq[s - 1]))
    return None


def pair_scan_verdict(h, ordering):
    """verify_minmax's verdict by the scan of every pair of arcs."""
    return first_violating_pair(h, ordering) is None


def near_staircase(rng, n):
    """A random staircase on n positions with up to two arcs flipped, and
    the ordering that puts v{i} at position i + 1; the digraph declares its
    vertices in another order."""
    bounds = sorted(rng.randint(1, n) for _ in range(2 * n))
    lo, hi = sorted(bounds[0::2]), sorted(bounds[1::2])
    rows = [i for i in range(1, n + 1) if rng.random() < 0.8]
    arcs = {(i, k) for i in rows for k in range(lo[i - 1], hi[i - 1] + 1)}
    for _ in range(rng.randint(0, 2)):
        arcs ^= {(rng.randint(1, n), rng.randint(1, n))}
    names = [f"v{i}" for i in range(n)]
    o = Ordering(names)
    rng.shuffle(names)
    return Digraph(names, [(f"v{i - 1}", f"v{k - 1}") for i, k in arcs]), o


def test_verify_verdict_matches_the_pair_scan_exhaustive():
    for n in range(1, 4):
        vs = tuple(str(i) for i in range(1, n + 1))
        orderings = [Ordering(p) for p in itertools.permutations(vs)]
        for h in all_digraphs_on(vs):
            for o in orderings:
                assert verify_minmax(h, o)[0] == pair_scan_verdict(h, o)
    # every ordering of a digraph on 4 vertices gives, in positions, one of
    # these arc sets under the identity ordering
    vs = ("1", "2", "3", "4")
    o = Ordering(vs)
    agree = 0
    for h in all_digraphs_on(vs):
        ok = verify_minmax(h, o)[0]
        assert ok == pair_scan_verdict(h, o)
        agree += ok
    assert 0 < agree < 2 ** 16


def test_verify_verdict_matches_the_pair_scan_seeded():
    rng = random.Random(64)
    verdicts = []
    for _ in range(1500):
        h, o = near_staircase(rng, rng.randint(2, 9))
        ok = verify_minmax(h, o)[0]
        assert ok == pair_scan_verdict(h, o)
        verdicts.append(ok)
    assert 300 < sum(verdicts) < 1200


def test_verify_pair_matches_the_first_violating_pair():
    # the whole ArcPair, on every digraph of at most 3 vertices under every
    # ordering and every 4-vertex digraph under the identity, then on
    # seeded 4-6-vertex digraphs under shuffled orderings and seeded
    # near-staircases of 7-12 vertices
    cases = []
    for n in range(1, 4):
        vs = tuple(str(i) for i in range(1, n + 1))
        orderings = [Ordering(p) for p in itertools.permutations(vs)]
        cases += [(h, o) for h in all_digraphs_on(vs) for o in orderings]
    vs = ("1", "2", "3", "4")
    cases += [(h, Ordering(vs)) for h in all_digraphs_on(vs)]
    rng = random.Random(18)
    for _ in range(1500):
        vs = [f"v{i}" for i in range(rng.randint(4, 6))]
        p = rng.choice((0.3, 0.5, 0.7))
        h = Digraph(vs, [(a, b) for a in vs for b in vs if rng.random() < p])
        cases.append((h, Ordering(rng.sample(vs, len(vs)))))
    cases += [near_staircase(rng, rng.randint(7, 12)) for _ in range(1500)]
    failed = 0
    for h, o in cases:
        ok, pair = verify_minmax(h, o)
        assert pair == first_violating_pair(h, o)
        assert ok == (pair is None)
        failed += not ok
    assert 0 < failed < len(cases)


def test_verify_reports_the_pair_on_400_vertices_fast():
    # the pair is read off the rank rows as bitmasks in O(n^2) word
    # operations; a scan of every pair of arcs is O(m^2), m ~ n^2 / 2 here
    h = make_tt(400).reflexive_closure()
    seq = list(h.vertices)
    seq[-2:] = seq[-1], seq[-2]
    start = time.perf_counter()
    ok, pair = verify_minmax(h, Ordering(seq))
    assert time.perf_counter() - start < 1.0
    assert not ok
    assert pair == ArcPair(e=("1", "399"), f=("400", "400"))
    # a lower-triangular staircase whose last row skips rank 398
    names = [str(i) for i in range(400)]
    h = Digraph(names, [(names[i], names[k]) for i in range(400)
                        for k in range(i + 1) if (i, k) != (399, 398)])
    start = time.perf_counter()
    ok, pair = verify_minmax(h, Ordering(names))
    assert time.perf_counter() - start < 1.0
    assert pair == ArcPair(e=("398", "398"), f=("399", "0"))


def test_verify_raises_when_a_failed_ordering_has_no_pair(monkeypatch):
    monkeypatch.setattr(minhom.minmax, "_first_violation", lambda rows: None)
    h = Digraph(("1", "2"), [("1", "2"), ("2", "1")])
    with pytest.raises(InternalError, match="no violating pair"):
        verify_minmax(h, Ordering(("1", "2")))


def test_find_minmax_on_rc_tt200_is_fast():
    # the search reads rank rows built from the adjacency index; with a
    # rescan of the arc set per placement this took about 2.4 s
    h = make_tt(200).reflexive_closure()
    start = time.perf_counter()
    found = find_minmax(h, guard=5000)
    assert time.perf_counter() - start < 1.0
    assert found == Ordering(h.vertices)


def staircase_search(h):
    """find_minmax as a plain search: the full staircase verdict on the
    rank rows of the placed prefix after every placement."""
    seq = first_injection(
        range(1, len(h.vertices) + 1), h.vertices,
        lambda rank, v, by_rank: _is_staircase(_rank_rows(h, by_rank.values())))
    return None if seq is None else Ordering(seq.values())


def walk_prefixes(fits, perms, verdict, counts):
    """Place every prefix of perms (in lexicographic order) as
    first_injection does: only the ranks after the longest shared prefix
    that passed are placed again, so each call rolls the state of fits
    back over what the previous permutation placed.  Asserts that fits
    agrees with verdict(prefix) at every placement where that is not None
    (None lets either answer stand), and counts the [failed, passed]
    placements into counts."""
    prev, passed = (), 0
    for perm in perms:
        shared = next((i for i, (a, b) in enumerate(zip(perm, prev))
                       if a != b), len(prev))
        passed = min(passed, shared)
        by_rank = dict(enumerate(perm[:passed], 1))
        for rank in range(passed + 1, len(perm) + 1):
            by_rank[rank] = perm[rank - 1]
            ok = fits(rank, perm[rank - 1], by_rank)
            assert verdict(perm[:rank]) in (None, ok)
            counts[ok] += 1
            if not ok:
                break
            passed = rank
        prev = perm


def prefix_cases(seed):
    """Every digraph on at most 3 vertices with all its permutations, then
    40 seeded 5-7-vertex digraphs with 30 sorted random permutations each."""
    cases = [(h, list(itertools.permutations(h.vertices)))
             for n in range(1, 4)
             for h in all_digraphs_on(tuple(str(i) for i in range(1, n + 1)))]
    rng = random.Random(seed)
    for _ in range(40):
        vs = [f"v{i}" for i in range(rng.randint(5, 7))]
        p = rng.choice((0.15, 0.3, 0.5))
        h = Digraph(vs, [(a, b) for a in vs for b in vs if rng.random() < p])
        cases.append((h, sorted(rng.sample(vs, len(vs)) for _ in range(30))))
    return cases


def test_pair_test_passes_only_staircases_exhaustive():
    # a prefix the pair test passes is a staircase, and a full permutation
    # passes exactly when it is Min-Max: every prefix of a Min-Max one
    # passes.  A staircase prefix with no Min-Max completion among perms
    # may pass or be cut.  With an invertible pair there is no test, and
    # no permutation is Min-Max
    verdicts = [0, 0]
    orderings = 0
    for h, perms in prefix_cases(24):
        minmax = [p for p in perms if _is_staircase(_rank_rows(h, p))]
        fits = _pair_test(h)
        if fits is None:
            assert not minmax
            continue
        orderings += len(minmax)
        completed = {tuple(p[:r]) for p in minmax
                     for r in range(1, len(p) + 1)}

        def verdict(prefix):
            if tuple(prefix) in completed:
                return True
            return None if _is_staircase(_rank_rows(h, prefix)) else False

        walk_prefixes(fits, perms, verdict, verdicts)
    assert min(verdicts) > 500 and orderings > 500, (verdicts, orderings)


def pair_components(h):
    """Component of each node of h's pair digraph, by union-find over
    every two arcs ab, a'b' with a != a', b != b' and ab' or a'b missing."""
    parent = {(a, b): (a, b) for a in h.vertices for b in h.vertices if a != b}

    def find(x):
        while parent[x] != x:
            x = parent[x]
        return x

    for a, b in h.arcs:
        for a2, b2 in h.arcs:
            if a != a2 and b != b2 and not (
                    (a, b2) in h.arcs and (a2, b) in h.arcs):
                parent[find((a, a2))] = find((b, b2))
    return {x: find(x) for x in parent}


def test_pair_test_matches_the_components_exhaustive():
    # None exactly when some (u, v) and (v, u) share a component; else a
    # prefix passes exactly when the pairs it orients, (p, x) for each
    # placed p and each x after it, meet no component in both directions
    verdicts = [0, 0]
    invertible = 0
    for h, perms in prefix_cases(26):
        comp = pair_components(h)
        fits = _pair_test(h)
        if any(comp[a, b] == comp[b, a] for a, b in comp):
            assert fits is None
            invertible += 1
            continue

        def verdict(prefix):
            placed, oriented = set(), []
            for p in prefix:
                placed.add(p)
                oriented += [(p, x) for x in h.vertices if x not in placed]
            return not ({comp[a, b] for a, b in oriented}
                        & {comp[b, a] for a, b in oriented})

        walk_prefixes(fits, perms, verdict, verdicts)
    assert invertible > 100 and min(verdicts) > 500, (invertible, verdicts)


def test_find_minmax_rechecks_the_ordering_found(monkeypatch):
    # the pair test only prunes: an ordering it wrongly let through fails
    # the staircase re-check.  Reflexive C3's declaration order is no
    # staircase, so the search runs and takes the first permutation
    monkeypatch.setattr(minhom.minmax, "_pair_test",
                        lambda h: lambda rank, v, by_rank: True)
    with pytest.raises(InternalError, match="staircase"):
        find_minmax(make_cycle(3).reflexive_closure())


def test_pair_test_refutes_an_invertible_pair():
    # reflexive C3: 1->2 and 2->3 lack 1->3, which joins (1, 2) to (2, 3);
    # the loops join the rest, and (1, 2) meets (2, 1)
    assert _pair_test(make_cycle(3).reflexive_closure()) is None
    # the loopless directed 3-cycle has two mirrored components, each
    # holding one orientation of the cycle: no invertible pair, but no
    # placement completes, so the search still answers None
    c3 = make_cycle(3)
    assert _pair_test(c3) is not None
    assert find_minmax(c3) is None
    # a Min-Max ordering orients every component one way
    assert _pair_test(make_tt(6).reflexive_closure()) is not None


def test_pair_test_stops_at_the_first_invertible_component():
    # a reflexive directed 3-cycle declared before a disjoint RC(TT_100):
    # the component of (c1, c2) holds (c2, c1), so the test refutes the
    # target before it labels the O(n^2) nodes the RC(TT_100) part adds.
    # Labelling every node first took about 10 s
    tt = make_tt(100).reflexive_closure()
    cycle = make_cycle(3).reflexive_closure()
    h = Digraph(["c" + v for v in cycle.vertices] + list(tt.vertices),
                [("c" + a, "c" + b) for a, b in cycle.arcs] + list(tt.arcs))
    start = time.perf_counter()
    assert _pair_test(h) is None
    assert find_minmax(h, guard=200) is None
    assert time.perf_counter() - start < 1.0


def test_find_minmax_matches_the_staircase_search_exhaustive():
    # every digraph on 3 vertices and every reflexive one on 4; the
    # declaration order settles some, an invertible pair others, and the
    # search the rest
    cases = list(all_digraphs_on(("1", "2", "3")))
    vs = ("1", "2", "3", "4")
    pairs = list(itertools.permutations(vs, 2))
    cases += [Digraph(vs, [p for p, b in zip(pairs, bits) if b]
                      + [(v, v) for v in vs])
              for bits in itertools.product((0, 1), repeat=len(pairs))]
    assert len(cases) == 512 + 4096
    routes = [0, 0, 0]
    for h in cases:
        ordering = find_minmax(h)
        assert ordering == staircase_search(h)
        if ordering is not None and ordering.sequence == h.vertices:
            routes[0] += 1
        else:
            routes[1 + (_pair_test(h) is None)] += 1
    assert min(routes) > 300, routes


def test_find_minmax_refutes_a_12_vertex_target_fast():
    # a sparse loopless 12-vertex target with no ordering: the search
    # without the pair digraph took about 6 s under guard=20
    rng = random.Random(12)
    vs = [f"h{i}" for i in range(12)]
    rng.shuffle(vs)
    h = Digraph(vs, [(t, u) for t in vs for u in vs
                     if t != u and rng.random() < 0.15])
    start = time.perf_counter()
    assert find_minmax(h, guard=20) is None
    assert time.perf_counter() - start < 1.0


def test_find_minmax_matches_the_staircase_search_seeded():
    # 7-8-vertex targets as in the bench's classify workload (arc density
    # 0.15/0.3/0.5, loop density 0/0.3/0.7/1), few of which have an
    # ordering, then random staircases under shuffled names with up to
    # one arc flipped, most of which do, then 3000 4-8-vertex targets
    # with the classify densities
    rng = random.Random(8)
    targets = []
    for k in range(48):
        vs = [f"h{i}" for i in range(7 + k % 2)]
        rng.shuffle(vs)
        arc_p, loop_p = (0.15, 0.3, 0.5)[k % 3], (0.0, 0.3, 0.7, 1.0)[k // 12]
        targets.append(Digraph(vs, [(t, u) for t in vs for u in vs
                                    if rng.random() < (loop_p if t == u
                                                       else arc_p)]))
    for k in range(24):
        n = 7 + k % 2
        bounds = sorted(rng.randrange(n) for _ in range(2 * n))
        lo, hi = sorted(bounds[0::2]), sorted(bounds[1::2])
        arcs = {(i, c) for i in range(n) if rng.random() < 0.8
                for c in range(lo[i], hi[i] + 1)}
        arcs ^= {(rng.randrange(n), rng.randrange(n))} if k % 3 else set()
        vs = [f"s{i}" for i in range(n)]
        named = [(vs[i], vs[c]) for i, c in arcs]
        rng.shuffle(vs)
        targets.append(Digraph(vs, named))
    found = 0
    for h in targets:
        ordering = find_minmax(h)
        assert ordering == staircase_search(h)
        found += ordering is not None
    assert 15 < found < 60
    rng = random.Random(25)
    found = 0
    for k in range(3000):
        vs = [f"h{i}" for i in range(4 + k % 5)]
        rng.shuffle(vs)
        arc_p, loop_p = (0.15, 0.3, 0.5)[k % 3], (0.0, 0.3, 0.7, 1.0)[k // 3 % 4]
        h = Digraph(vs, [(t, u) for t in vs for u in vs
                         if rng.random() < (loop_p if t == u else arc_p)])
        ordering = find_minmax(h)
        assert ordering == staircase_search(h)
        found += ordering is not None
    assert 500 < found < 1500
