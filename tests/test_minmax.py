import itertools

import pytest

from minhom import (Digraph, GraphError, GuardExceeded, Ordering,
                    canonical_ordering, find_minmax, make_cycle,
                    make_oriented_kb, make_tt, make_tt_minus, verify_minmax)


def test_ordering_parse_serialize():
    o = Ordering(("2", "1", "3"))
    assert o.serialize() == "2,1,3"
    assert Ordering.parse("2,1,3") == o
    with pytest.raises(GraphError):
        Ordering(("a", "a"))


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
    assert pair.min_pair == (1, 1)
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
    with pytest.raises(GuardExceeded):
        find_minmax(make_tt(10))


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
        conv = h.converse()
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
    cases = [canonical_ordering("rc_k12"), canonical_ordering("rc_k21")]
    cases += [canonical_ordering("rc_tt", p) for p in range(1, 9)]
    cases += [canonical_ordering("rc_ttminus", p) for p in range(2, 9)]
    for h, ordering in cases:
        assert verify_minmax(h, ordering)[0]


def test_canonical_ordering_values():
    h, o = canonical_ordering("rc_k12")
    assert o == Ordering(("2", "1", "3"))
    _, o = canonical_ordering("rc_ttminus", 5)
    assert o == Ordering(("1", "2", "3", "4", "5"))
    with pytest.raises(GraphError):
        canonical_ordering("nope")
    with pytest.raises(GraphError):
        canonical_ordering("rc_tt")


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
