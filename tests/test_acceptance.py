"""Acceptance gate: ten criteria, each printed as one PASS/FAIL line.

Every criterion is a plain pytest test that also prints a summary line so a
`pytest -v -s` run gives an at-a-glance scoreboard.  All comparisons are
exact; each test asserts its own wall-clock budget.
"""

import itertools
import random
import time

from minhom import (BipartiteGraph, CostMatrix, Digraph, Ordering, bg,
                    build_theorem5_digraph, classify_reflexive_mpt,
                    classify_theorem5, digraph_instance_from_bipartite,
                    collapse_extension, enumerate_rmpt, extend, find_minmax,
                    find_witness, is_homomorphism,
                    is_proper_interval_bigraph, lift_solution, make_cycle,
                    make_oriented_kb, make_tt, make_tt_minus, map_cost,
                    partite_structure, project_solution, solve_bruteforce,
                    solve_cycle, solve_minmax, validate_witness,
                    verify_minmax)
from minhom.birep import PATTERNS, find_forbidden
from minhom.classify import BGForbiddenWitness, ReflexiveCycleWitness
from minhom.cli import run
from test_birep import kernel


def report(num, name, limit, elapsed):
    print(f"PASS criterion {num}: {name} ({elapsed:.2f}s < {limit}s)")
    assert elapsed < limit


def test_criterion_01_canonical_orderings():
    start = time.monotonic()
    for p in range(1, 9):
        ok, _ = verify_minmax(make_tt(p).reflexive_closure(),
                              Ordering(str(i) for i in range(1, p + 1)))
        assert ok
    for p in range(3, 9):
        ok, _ = verify_minmax(make_tt_minus(p).reflexive_closure(),
                              Ordering(str(i) for i in range(1, p + 1)))
        assert ok
    ok, _ = verify_minmax(make_oriented_kb(1, 2).reflexive_closure(),
                          Ordering(("2", "1", "3")))
    assert ok
    ok, _ = verify_minmax(make_oriented_kb(2, 1).reflexive_closure(),
                          Ordering(("1", "3", "2")))
    assert ok
    report(1, "canonical orderings verify", 1, time.monotonic() - start)


def test_criterion_02_mincut_oracle_equivalence():
    start = time.monotonic()
    rng = random.Random(20240625)
    done = 0
    while done < 1000:
        n = rng.randint(1, 4)
        hv = [str(i + 1) for i in range(n)]
        h = Digraph(hv, [(a, b) for a in hv for b in hv
                         if rng.random() < 0.5])
        sigma = find_minmax(h)
        if sigma is None:
            continue
        m = rng.randint(1, 8)
        dv = [f"u{i}" for i in range(m)]
        d = Digraph(dv, [(a, b) for a in dv for b in dv
                         if rng.random() < 0.25])
        costs = CostMatrix({(u, i): rng.randint(-9, 9)
                            for u in d.vertices for i in h.vertices})
        r1 = solve_minmax(d, h, sigma, costs)
        r2 = solve_bruteforce(d, h, costs)
        assert r1.feasible == r2.feasible and r1.cost == r2.cost
        done += 1
    report(2, f"min-cut = brute force on {done} instances", 60,
           time.monotonic() - start)


def test_criterion_03_cycle_solver():
    start = time.monotonic()
    rng = random.Random(7070)
    for _ in range(500):
        k = rng.randint(2, 5)
        m = rng.randint(1, 8)
        dv = [f"u{i}" for i in range(m)]
        d = Digraph(dv, [(a, b) for a in dv for b in dv
                         if rng.random() < 0.25])
        costs = CostMatrix({(u, str(i + 1)): rng.randint(-9, 9)
                            for u in d.vertices for i in range(k)})
        r1 = solve_cycle(d, make_cycle(k), costs)
        r2 = solve_bruteforce(d, make_cycle(k), costs)
        assert r1.feasible == r2.feasible and r1.cost == r2.cost
    report(3, "cycle solver = brute force on 500 instances", 30,
           time.monotonic() - start)


def in_poly_families(h):
    """Ground truth by family membership, independent of the classifier."""
    from minhom import is_isomorphic
    n = len(h.vertices)
    candidates = [make_tt(n).reflexive_closure()]
    if n >= 3:
        candidates.append(make_tt_minus(n).reflexive_closure())
    if n == 3:
        candidates.append(make_oriented_kb(1, 2).reflexive_closure())
        candidates.append(make_oriented_kb(2, 1).reflexive_closure())
    return any(is_isomorphic(h, c) is not None for c in candidates)


def test_criterion_04_rmpt_dichotomy_exhaustive():
    start = time.monotonic()
    total = 0
    for n in range(2, 7):
        for h in enumerate_rmpt(n):
            total += 1
            c = classify_reflexive_mpt(h)
            expect = "poly" if in_poly_families(h) else "np-hard"
            assert c.verdict == expect, h.arcs
            if c.verdict == "poly":
                assert c.ordering is not None
                assert verify_minmax(h, c.ordering)[0]
            else:
                assert c.witness is not None
                assert validate_witness(h, c.witness)
                if isinstance(c.witness, BGForbiddenWitness):
                    assert len(c.witness.subset) <= 4
    report(4, f"dichotomy over {total} reflexive multipartite tournaments",
           300, time.monotonic() - start)


def test_criterion_05_four_vertex_family_table():
    start = time.monotonic()
    poly_sets = {frozenset({"33"}), frozenset({"11", "33"}),
                 frozenset({"22", "33"}), frozenset({"11", "22", "33"})}
    loops = ("11", "22", "33", "44")
    count = 0
    for r in range(5):
        for b in itertools.combinations(loops, r):
            b = frozenset(b)
            c = classify_theorem5(b)
            assert c.verdict == ("poly" if b in poly_sets else "np-hard"), b
            count += 1
    assert count == 16
    full = build_theorem5_digraph({"11", "22", "33", "44"})
    tent = kernel(bg(full), "bipartite-tent")
    assert tent is not None
    report(5, "16-case table exact + tent witness in the fully looped case",
           1, time.monotonic() - start)


def test_criterion_06_claw_family():
    start = time.monotonic()
    loops = ("uu", "vv", "ww", "zz")
    for conv in (False, True):
        for r in range(5):
            for b in itertools.combinations(loops, r):
                arcs = [("z", "u"), ("z", "v"), ("z", "w")]
                arcs += [(x[0], x[1]) for x in b]
                if conv:
                    arcs = [(y, x) for x, y in arcs]
                h = Digraph(("u", "v", "w", "z"), arcs)
                if {"uu", "vv", "ww"} <= set(b):
                    w = find_witness(h)
                    assert isinstance(w, BGForbiddenWitness)
                    assert w.structure.kind == "bipartite-claw"
                    assert validate_witness(h, w)
                else:
                    assert find_minmax(h) is not None
    report(6, "claw family, 32 cases exact", 10, time.monotonic() - start)


def brute_part_respecting(g, target, costs):
    best = None
    for im1 in itertools.product(target.part1, repeat=len(g.part1)):
        for im2 in itertools.product(target.part2, repeat=len(g.part2)):
            f = dict(zip(g.part1, im1)) | dict(zip(g.part2, im2))
            if all(target.has_edge(f[u], f[v]) for u, v in g.edges):
                c = sum(costs.cost(u, f[u]) for u in g.vertices)
                if best is None or c < best:
                    best = c
    return best


def test_criterion_07_bipartite_transformation():
    start = time.monotonic()
    rng = random.Random(424242)
    done = 0
    while done < 50:
        nh = rng.randint(1, 3)
        hv = [str(i + 1) for i in range(nh)]
        h = Digraph(hv, [(a, b) for a in hv for b in hv
                         if rng.random() < 0.5])
        bgh = bg(h)
        p1 = [f"s{i}" for i in range(rng.randint(1, 3))]
        p2 = [f"t{i}" for i in range(rng.randint(1, 3))]
        g = BipartiteGraph(p1, p2, [(a, b) for a in p1 for b in p2
                                    if rng.random() < 0.5])
        costs = CostMatrix({(u, x): rng.randint(-5, 5)
                            for u in g.vertices for x in bgh.vertices})
        d, dcosts = digraph_instance_from_bipartite(g, h, costs)
        res = solve_bruteforce(d, h, dcosts)
        expect = brute_part_respecting(g, bgh, costs)
        assert (res.cost if res.feasible else None) == expect
        if res.feasible:
            f = res.mapping
            lifted = lift_solution(g, h, f)
            assert sum(costs.cost(u, lifted[u]) for u in g.vertices) == res.cost
            assert project_solution(g, h, lifted) == f
        done += 1
    report(7, f"bipartite transformation exact on {done} instances", 30,
           time.monotonic() - start)


def test_criterion_08_extension_collapse():
    start = time.monotonic()
    rng = random.Random(987)
    for _ in range(200):
        n = rng.randint(1, 3)
        vs = [chr(97 + i) for i in range(n)]
        h = Digraph(vs, [(a, b) for a in vs for b in vs
                         if a != b and rng.random() < 0.5])
        hp, decomp = extend(h, {v: rng.randint(1, 2) for v in vs})
        m = rng.randint(1, 4)
        dv = [f"u{i}" for i in range(m)]
        d = Digraph(dv, [(a, b) for a in dv for b in dv
                         if rng.random() < 0.3])
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
    report(8, "extension collapse exact on 200 instances", 30,
           time.monotonic() - start)


def test_criterion_09_structure_goldens():
    start = time.monotonic()
    g = bg(make_cycle(3).reflexive_closure())
    fs = find_forbidden(g)
    assert fs is not None and fs.kind == "long-induced-cycle"
    assert len(fs.embedding) == 6
    assert is_proper_interval_bigraph(g)[0] is False
    for kind, edges in PATTERNS.items():
        xs = sorted({a for a, _ in edges})
        ys = sorted({b for _, b in edges})
        pattern = BipartiteGraph(xs, ys, edges)
        found = find_forbidden(pattern)
        assert found is not None and found.kind == kind
        for drop in pattern.vertices:
            sub = pattern.induced(v for v in pattern.vertices if v != drop)
            assert find_forbidden(sub) is None
    report(9, "structure goldens exact", 1, time.monotonic() - start)


def test_criterion_10_cli_determinism(tmp_path):
    start = time.monotonic()
    import io as iolib

    dpath = tmp_path / "d.dg"
    dpath.write_text("a u v\na v w\na u w\na x x\n")
    cpath = tmp_path / "c.txt"
    cpath.write_text("c u 2 -3\nc w 4 5\nc x 1 1\n")
    bpath = tmp_path / "g.bg"
    bpath.write_text("p1 a\np1 b\np2 c\ne a c\ne b c\n")
    commands = [
        ["solve", "--target", "rc_tt4", "--input", str(dpath),
         "--costs", str(cpath)],
        ["solve", "--target", "rc_tt4", "--input", str(dpath),
         "--costs", str(cpath), "--method", "brute"],
        ["classify-rmpt", "--target", "rc_k12"],
        ["classify-tournament", "--target", "cycle3"],
        ["classify-t5", "--b", "1133"],
        ["classify-general", "--target", "t5_3344"],
        ["bg", "--target", "rc_ttminus3"],
        ["pib-check", "--target", "t5_11223344"],
        ["pib-check", "--input", str(bpath)],
        ["minmax-verify", "--target", "cycle2", "--ordering", "1,2"],
        ["minmax-find", "--target", "rc_tt5"],
        ["witness", "--target", "t5_11223344"],
        ["enumerate-rmpt", "--n", "4"],
    ]
    for argv in commands:
        outs = []
        for _ in range(2):
            buf = iolib.StringIO()
            code = run(list(argv), out=buf)
            outs.append((code, buf.getvalue().encode()))
        assert outs[0] == outs[1], argv
    report(10, f"CLI byte-identical across runs for {len(commands)} commands",
           60, time.monotonic() - start)
