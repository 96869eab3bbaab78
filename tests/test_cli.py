import io as iolib
import os
import random
import subprocess
import sys
import time
from pathlib import Path

import pytest

import minhom
from minhom import (BipartiteGraph, CostMatrix, Digraph, FormatError,
                    GraphError, format_bipartite, format_costs,
                    format_digraph, make_cycle, make_oriented_kb, make_tt,
                    parse_bipartite, parse_costs, parse_digraph)
from minhom.cli import (EXIT_ERROR, EXIT_INFEASIBLE, EXIT_OK, resolve_target,
                        run)
from minhom.digraph import _quoted
from minhom.solver import FlowNetwork, is_homomorphism, map_cost


# -- file formats ---------------------------------------------------------


def test_parse_digraph_basic():
    text = "# comment\nv a\nv b\na a b  # trailing comment\n\na b c\n"
    h = parse_digraph(text)
    assert h.vertices == ("a", "b", "c")
    assert h.arcs == frozenset({("a", "b"), ("b", "c")})


def test_parse_digraph_auto_declares():
    h = parse_digraph("a x y\n")
    assert h.vertices == ("x", "y")


def test_parse_digraph_errors_carry_line_numbers():
    with pytest.raises(FormatError, match="line 2"):
        parse_digraph("v a\nv a\n")
    with pytest.raises(FormatError, match="line 1"):
        parse_digraph("q a b\n")


def test_digraph_round_trip():
    h = Digraph(("b", "a"), [("b", "a"), ("a", "a")])
    assert parse_digraph(format_digraph(h)) == h
    # serialization is stable
    assert format_digraph(h) == "v b\nv a\na a a\na b a\n"


def test_bipartite_round_trip():
    g = BipartiteGraph(("s",), ("t", "u"), [("s", "t")])
    assert parse_bipartite(format_bipartite(g)) == g
    assert format_bipartite(g) == "p1 s\np2 t\np2 u\ne s t\n"


def test_names_with_a_hash_are_rejected():
    # the file formats would read the rest of such a name as a comment
    for name in ("a#b", "#"):
        with pytest.raises(GraphError, match="'#'"):
            Digraph((name,))
        with pytest.raises(GraphError, match="'#'"):
            BipartiteGraph((name,), ("t",))
    h = Digraph(("x!y", "a-b", "c"), [("x!y", "a-b"), ("c", "c")])
    assert parse_digraph(format_digraph(h)) == h


def test_parse_bipartite_requires_declaration():
    with pytest.raises(FormatError, match="line 1"):
        parse_bipartite("e s t\n")


def test_parse_bipartite_refuses_an_edge_inside_one_part():
    with pytest.raises(FormatError) as info:
        parse_bipartite("p1 a\np1 b\np2 c\ne a c\ne a b\n")
    assert str(info.value) == "edge ('a', 'b') does not cross the parts"


def test_costs_round_trip_and_errors():
    c = CostMatrix({("u", "1"): -3, ("u", "2"): 4})
    assert parse_costs(format_costs(c)).entries == c.entries
    assert parse_costs("").entries == {}
    with pytest.raises(FormatError, match="line 2"):
        parse_costs("c u 1 3\nc u 1 4\n")
    with pytest.raises(FormatError, match="not an integer"):
        parse_costs("c u 1 x\n")
    # parse_costs hands its dict over as it is; a library caller's keys and
    # values are still normalised to str pairs and int
    assert CostMatrix({(1, 2): "3"}).entries == {("1", "2"): 3}
    parsed = parse_costs("c 1 2 3\n").entries
    assert parsed == {("1", "2"): 3}
    assert [type(x) for key, value in parsed.items()
            for x in (*key, value)] == [str, str, int]
    # int() alone reads "1_0" as 10 and an Arabic-Indic three as 3
    for token in ("1_0", "\u0663"):
        with pytest.raises(FormatError, match="line 2: cost .* not an integer"):
            parse_costs(f"c u 1 1\nc u 2 {token}\n")


def test_cost_matrix_takes_only_integers():
    # ints and the integer strings parse_costs reads; int() would also take
    # floats, bools, "1_0" and padding, or escape as a bare ValueError,
    # TypeError or OverflowError
    good = {7: 7, -4: -4, "3": 3, "+5": 5, "-12": -12, "007": 7}
    for value, want in good.items():
        assert CostMatrix({("u", "1"): value}).entries == {("u", "1"): want}
    for value in (2.9, 2.0, True, False, "1_0", "2.5", None, float("inf"),
                  float("nan"), " 3", "3\n", "", "+", "+-3", "\u0663", b"3"):
        with pytest.raises(GraphError, match=r"cost entry \('u', '1'\) "
                           "is not an integer"):
            CostMatrix({("u", "1"): value})


def test_cli_names_a_cost_beyond_the_digit_limit(tmp_path, capsys):
    # the error names the limit, not the token, and not as a bad integer
    limit = sys.get_int_max_str_digits()
    d = write(tmp_path, "d.dg", "v a\n")
    c = write(tmp_path, "c.txt", f"c a 1 {'1' * (limit + 700)}\n")
    code, out = cli("solve", "--target", "rc_tt2", "--input", d, "--costs", c)
    assert code == EXIT_ERROR and out == ""
    assert capsys.readouterr().err == (
        f"error: line 1: cost has more than {limit} digits\n")


# -- built-in target names ------------------------------------------------


def test_resolve_builtin_targets():
    assert resolve_target("rc_tt3") == make_tt(3).reflexive_closure()
    assert resolve_target("cycle4") == make_cycle(4)
    # TT_5 minus the arc 1->5: C(5,2) - 1 non-loop arcs
    ttm5 = resolve_target("rc_ttminus5")
    assert len(ttm5.nonloop_arcs()) == 9 and not ttm5.has_arc("1", "5")
    assert resolve_target("rc_k12").vertices == ("1", "2", "3")
    for name, (a, b) in (("rc_k12", (1, 2)), ("rc_k21", (2, 1))):
        star = resolve_target(name)
        want = make_oriented_kb(a, b).reflexive_closure()
        assert (star.vertices, star.arcs) == (want.vertices, want.arcs)
    t5 = resolve_target("t5_3344")
    assert set(t5.loops()) == {"3", "4"}
    assert resolve_target("t5_none").loops() == ()


def test_resolve_target_file(tmp_path):
    p = tmp_path / "h.dg"
    p.write_text("a x y\n")
    assert resolve_target(str(p)).arcs == frozenset({("x", "y")})
    from minhom import GraphError
    with pytest.raises(GraphError):
        resolve_target(str(tmp_path / "missing.dg"))


# -- CLI ------------------------------------------------------------------


def cli(*argv):
    buf = iolib.StringIO()
    code = run(list(argv), out=buf)
    return code, buf.getvalue()


def write(tmp_path, name, text):
    p = tmp_path / name
    p.write_text(text)
    return str(p)


def test_cli_solve_minmax(tmp_path):
    d = write(tmp_path, "d.dg", "a u v\n")
    c = write(tmp_path, "c.txt",
              "c u 1 0\nc u 2 5\nc u 3 9\nc v 1 9\nc v 2 5\nc v 3 0\n")
    code, out = cli("solve", "--target", "rc_ttminus3",
                    "--input", d, "--costs", c)
    assert code == EXIT_OK
    lines = out.splitlines()
    assert lines[0] == "cost 5"
    assert set(lines[1:]) == {"map u 1", "map v 2"} or \
        set(lines[1:]) == {"map u 2", "map v 3"}


def test_cli_solve_infeasible(tmp_path):
    d = write(tmp_path, "d.dg", "a u v\na v w\n")
    code, out = cli("solve", "--target", "cycle1", "--input", d)
    assert code == EXIT_ERROR  # cycle1 is invalid
    d2 = write(tmp_path, "d2.dg", "a u u\n")
    code, out = cli("solve", "--target", "cycle3", "--input", d2)
    assert code == EXIT_INFEASIBLE and out == "infeasible\n"


def test_cli_solve_methods_agree(tmp_path):
    d = write(tmp_path, "d.dg", "v u\nv v\na u v\n")
    c = write(tmp_path, "c.txt", "c u 1 2\nc v 3 -4\n")
    results = {}
    for method in ("auto", "minmax", "brute"):
        code, out = cli("solve", "--target", "rc_tt3", "--input", d,
                        "--costs", c, "--method", method)
        assert code == EXIT_OK
        results[method] = out.splitlines()[0]
    assert len(set(results.values())) == 1
    # a directed 3-cycle whose names are not 1..k, declared out of order
    h = write(tmp_path, "h.dg", "a y z\na z x\na x y\n")
    d = write(tmp_path, "p.dg", "a u v\na v w\n")
    c = write(tmp_path, "c3.txt", "c u x -2\nc v y 5\nc w z 3\nc w x -1\n")
    outs = {method: cli("solve", "--target", h, "--input", d, "--costs", c,
                        "--method", method)
            for method in ("cycle", "auto", "brute")}
    assert outs["cycle"] == outs["auto"]
    assert {out.splitlines()[0] for _, out in outs.values()} == {"cost -1"}


def test_cli_solve_long_augmenting_path(tmp_path, monkeypatch):
    # one augmenting path runs the whole 5000-vertex path: the max-flow
    # search must not recurse once per node.  The arc u0 -> u(n-1) closes
    # the path into a cycle that is not strongly connected, so nothing
    # folds or contracts and the whole input reaches the max-flow
    calls = []
    max_flow = FlowNetwork.max_flow

    def record(net, s, t):
        calls.append(net.n)
        return max_flow(net, s, t)

    monkeypatch.setattr(FlowNetwork, "max_flow", record)
    n = 5000
    d = write(tmp_path, "d.dg", "".join(f"a u{i} u{i + 1}\n" for i in range(n - 1))
              + f"a u0 u{n - 1}\n")
    c = write(tmp_path, "c.txt", "c u0 1 1\n" +
              "".join(f"c u{n - 1} {i} 1\n" for i in "2345"))
    code, out = cli("solve", "--target", "rc_tt5", "--input", d, "--costs", c)
    assert code == EXIT_OK and out.splitlines()[0] == "cost 1"
    assert calls


def test_cli_brute_force_on_a_long_path(tmp_path, capsys):
    # t5_223344 has no Min-Max ordering.  `brute` searches the whole
    # 1200-vertex path, and its depth-first search must not recurse once
    # per input vertex; `auto` folds the path away first
    n = 1200
    d = write(tmp_path, "d.dg", "".join(f"a u{i} u{i + 1}\n" for i in range(n - 1)))
    c = write(tmp_path, "c.txt", "".join(f"c u{k} 2 -1\n" for k in range(n)))
    for method in ("auto", "brute"):
        code, out = cli("solve", "--target", "t5_223344", "--input", d,
                        "--costs", c, "--method", method)
        lines = out.splitlines()
        assert code == EXIT_OK and lines[0] == "cost -1200"
        assert lines[1:] == [f"map u{k} 2" for k in range(n)]
    assert capsys.readouterr().err == ""


def test_cli_brute_and_auto_on_a_tie_into_t5(tmp_path):
    # two optima of cost 0.  `--method brute` prints the lexicographically
    # first; `auto` folds the path away and may print the other, with the
    # same cost line
    d = write(tmp_path, "d.dg", "v u0\nv u1\nv u2\nv u3\nv u4\n"
              "a u2 u0\na u2 u1\na u4 u1\na u4 u3\n")
    c = write(tmp_path, "c.txt", "c u0 3 1\nc u0 4 2\nc u3 2 1\nc u3 4 0\n"
              "c u4 3 1\n")
    argv = ("solve", "--target", "t5_223344", "--input", d, "--costs", c)
    assert cli(*argv, "--method", "brute") == (EXIT_OK, (
        "cost 0\nmap u0 2\nmap u1 2\nmap u2 1\nmap u3 3\nmap u4 2\n"))
    code, out = cli(*argv, "--method", "auto")
    lines = out.splitlines()
    assert code == EXIT_OK and lines[0] == "cost 0"
    mapping = dict(line.split()[1:] for line in lines[1:])
    h = resolve_target("t5_223344")
    graph = parse_digraph(Path(d).read_text())
    costs = parse_costs(Path(c).read_text())
    assert is_homomorphism(graph, h, mapping)
    assert map_cost(graph, costs, mapping) == 0


def test_cli_minmax_find_on_a_large_arcless_target(tmp_path):
    # the ordering search places one rank per vertex and must not recurse
    # once per rank: 1200 vertices, no arcs, so every order is Min-Max
    n = 1200
    f = write(tmp_path, "f.dg", "".join(f"v x{k}\n" for k in range(n)))
    env = dict(os.environ, PYTHONPATH=str(Path(minhom.__file__).parent.parent))
    start = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, "-m", "minhom", "minmax-find", "--target", f,
         "--guard", "5000"], capture_output=True, env=env, timeout=60)
    assert time.perf_counter() - start < 5
    assert proc.returncode == EXIT_OK
    assert proc.stdout.decode() == "ordering " + ",".join(
        f"x{k}" for k in range(n)) + "\n"
    assert b"Traceback" not in proc.stderr


def test_cli_main_reader_closes_early(tmp_path):
    # `minhom solve ... | head -2`: the reader leaves after two lines of an
    # output (about 250 kB) far larger than the pipe and read buffers
    names = [f"u{k:04d}" + "x" * 40 for k in range(5000)]
    d = write(tmp_path, "d.dg",
              "".join(f"a {u} {v}\n" for u, v in zip(names, names[1:])))
    env = dict(os.environ, PYTHONPATH=str(Path(minhom.__file__).parent.parent))
    proc = subprocess.Popen(
        [sys.executable, "-m", "minhom", "solve", "--target", "rc_tt5",
         "--input", d],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env)
    head = [proc.stdout.readline() for _ in range(2)]
    proc.stdout.close()
    _, err = proc.communicate(timeout=120)
    assert head == [b"cost 0\n", f"map {names[0]} 1\n".encode()]
    assert proc.returncode == EXIT_ERROR
    assert b"Traceback" not in err


def test_cli_solve_explicit_ordering(tmp_path):
    d = write(tmp_path, "d.dg", "v u\n")
    code, out = cli("solve", "--target", "rc_k12", "--input", d,
                    "--method", "minmax", "--ordering", "2,1,3")
    assert code == EXIT_OK and out.startswith("cost 0")


def test_cli_refuses_contradictory_options(tmp_path, capsys):
    # an option the command would ignore is an error, not dropped: an
    # ordering is read only by --method minmax, and pib-check reads one
    # input, either a bigraph or a digraph's BG
    d = write(tmp_path, "d.dg", "v u\n")
    bip = write(tmp_path, "g.bg", "p1 a\np2 b\ne a b\n")
    for argv, message in (
            [(("solve", "--target", "rc_k12", "--input", d,
               "--method", method, "--ordering", ordering),
              "error: --ordering applies only to --method minmax\n")
             for method in ("auto", "cycle", "brute")
             for ordering in ("2,1,3", "nonsense")]
            + [(("pib-check", "--input", bip, "--target", "rc_tt2"),
                "error: pib-check takes --input (bipartite) or --target "
                "(digraph), not both\n")]):
        assert cli(*argv) == (EXIT_ERROR, "")
        assert capsys.readouterr().err == message


@pytest.mark.parametrize("argv, message", [
    (["solve", "--target", "rc_tt2", "--input", "d.dg", "--costs", ""],
     "error: cannot read ''"),
    (["solve", "--target", "rc_tt2", "--input", "d.dg",
      "--method", "minmax", "--ordering", ""],
     "error: ordering is not a permutation of the target's vertices\n"),
    (["pib-check", "--input", ""], "error: cannot read ''"),
    (["pib-check", "--target", ""], "error: cannot read ''")],
    ids=["solve-costs", "solve-ordering", "pib-input", "pib-target"])
def test_cli_reads_an_empty_option_value_as_given(tmp_path, capsys, argv,
                                                   message):
    # an option given as "" is present: it names no file and no ordering,
    # so each is an error, not read as absent (all costs 0, an ordering
    # search, or "needs --input")
    argv = [write(tmp_path, a, "v u\n") if a == "d.dg" else a for a in argv]
    assert cli(*argv) == (EXIT_ERROR, "")
    assert capsys.readouterr().err.startswith(message)


def test_cli_classify_rmpt():
    code, out = cli("classify-rmpt", "--target", "rc_tt4")
    assert code == EXIT_OK
    lines = out.splitlines()
    assert lines[0] == "verdict poly"
    assert any(line.startswith("ordering ") for line in lines)


def test_cli_classify_t5():
    code, out = cli("classify-t5", "--b", "33")
    assert code == EXIT_OK
    assert out.splitlines()[0] == "verdict poly"
    assert "ordering 1,2,4,3" in out
    code, out = cli("classify-t5", "--b", "none")
    assert out.splitlines()[0] == "verdict np-hard"
    # the loopless case is hard but carries no small witness; a note says so
    assert "note no-witness-found" in out.splitlines()
    code, out = cli("classify-t5", "--b", "11223344")
    assert out.splitlines()[0] == "verdict np-hard"
    assert any(line.startswith("witness bg-forbidden") for line in out.splitlines())


def test_cli_classify_tournament():
    code, out = cli("classify-tournament", "--target", "cycle3")
    assert code == EXIT_OK and out.splitlines()[0] == "verdict poly"


def test_cli_classify_general(tmp_path):
    p = write(tmp_path, "h.dg",
              "a 1 2\na 2 3\na 2 4\na 3 3\na 4 4\n")
    code, out = cli("classify-general", "--target", p)
    assert code == EXIT_OK and out.splitlines()[0] == "verdict unknown"


def test_cli_answers_a_min_max_declaration_order_above_the_guard():
    # the guard bounds the ordering search only; rc_tt10 and rc_tt200 are
    # Min-Max in their declaration order
    code, out = cli("classify-general", "--target", "rc_tt10")
    assert code == EXIT_OK
    assert out == ("verdict poly\nrule minmax\nordering "
                   + ",".join(map(str, range(1, 11))) + "\n")
    code, out = cli("minmax-find", "--target", "rc_tt200")
    assert code == EXIT_OK
    assert out == "ordering " + ",".join(map(str, range(1, 201))) + "\n"


def test_cli_solve_grid_into_rc_tt10_takes_the_min_cut_route(tmp_path):
    # a 4x4 grid, arcs right and down, declared in shuffled order: with all
    # costs 0 the brute-force route ran out of budget on it
    rng = random.Random(16)
    cells = [f"g{r}{c}" for r in range(4) for c in range(4)]
    arcs = [(f"g{r}{c}", f"g{r}{c + 1}") for r in range(4) for c in range(3)]
    arcs += [(f"g{r}{c}", f"g{r + 1}{c}") for r in range(3) for c in range(4)]
    rng.shuffle(cells)
    d = write(tmp_path, "d.dg", "".join(f"v {v}\n" for v in cells)
              + "".join(f"a {t} {h}\n" for t, h in arcs))
    start = time.perf_counter()
    code, out = cli("solve", "--target", "rc_tt10", "--input", d)
    assert time.perf_counter() - start < 2
    assert code == EXIT_OK
    lines = out.splitlines()
    mapping = dict(line.split()[1:] for line in lines[1:])
    graph = parse_digraph(Path(d).read_text())
    assert lines[0] == "cost 0"
    assert is_homomorphism(graph, resolve_target("rc_tt10"), mapping)


def test_cli_classify_general_directed_cycle(tmp_path):
    code, out = cli("classify-general", "--target", "cycle9")
    assert code == EXIT_OK
    assert out == "verdict poly\nrule directed-cycle\ncycle 1,2,3,4,5,6,7,8,9\n"
    p = write(tmp_path, "h.dg", "v x\na y w\na w z\na z x\na x y\n")
    code, out = cli("classify-general", "--target", p)
    assert out == "verdict poly\nrule directed-cycle\ncycle x,y,w,z\n"


def test_cli_classify_rmpt_beyond_ten_vertices():
    code, out = cli("classify-rmpt", "--target", "rc_ttminus12")
    assert code == EXIT_OK
    assert out == "verdict poly\nrule thm4.1\nordering 1,2,3,4,5,6,7,8,9,10,11,12\n"


def test_cli_classify_rmpt_hundred_vertices_is_fast():
    # the Min-Max re-check of the ordering is O(m log m) in the 5049 arcs
    start = time.perf_counter()
    code, out = cli("classify-rmpt", "--target", "rc_ttminus100")
    assert time.perf_counter() - start < 2
    assert code == EXIT_OK
    assert out == ("verdict poly\nrule thm4.1\nordering "
                   + ",".join(str(i) for i in range(1, 101)) + "\n")


def test_cli_solve_minmax_four_hundred_labels_is_fast(tmp_path):
    # lam and mu are read off the staircase in one pass over the 80 200
    # arcs, not by a scan of the arcs per label
    d = write(tmp_path, "d.dg", "a u v\n")
    ordering = ",".join(str(i) for i in range(1, 401))
    start = time.perf_counter()
    code, out = cli("solve", "--target", "rc_tt400", "--input", d,
                    "--method", "minmax", "--ordering", ordering)
    assert time.perf_counter() - start < 2
    assert code == EXIT_OK
    assert out == "cost 0\nmap u 1\nmap v 1\n"


def test_cli_solve_directed_ring_is_fast(tmp_path):
    # a directed ring is one strong component: into a target acyclic up to
    # loops it maps to one looped vertex, so it contracts to one vertex and
    # builds no flow network.  The optimum is the least-rank label of least
    # total cost
    n = 10_000
    rng = random.Random(10_000)
    d = write(tmp_path, "d.dg", "".join(f"a u{k} u{(k + 1) % n}\n"
                                        for k in range(n)))
    table = {(k, i): rng.randint(-20, 20) for k in range(n) for i in range(1, 7)}
    c = write(tmp_path, "c.txt", "".join(f"c u{k} {i} {x}\n"
                                         for (k, i), x in table.items()))
    sums = [sum(table[k, i] for k in range(n)) for i in range(1, 7)]
    label = 1 + sums.index(min(sums))
    start = time.perf_counter()
    code, out = cli("solve", "--target", "rc_ttminus6", "--input", d,
                    "--costs", c)
    assert time.perf_counter() - start < 2
    assert code == EXIT_OK
    lines = out.splitlines()
    assert lines[0] == f"cost {min(sums)}"
    assert sorted(lines[1:]) == sorted(f"map u{k} {label}" for k in range(n))


def test_cli_parser_is_built_once():
    from minhom.cli import build_parser
    assert build_parser() is build_parser()


def test_cli_builtin_target_limit():
    from minhom.cli import BUILTIN_TARGET_LIMIT
    assert len(resolve_target(f"cycle{BUILTIN_TARGET_LIMIT}").vertices) \
        == BUILTIN_TARGET_LIMIT
    with pytest.raises(GraphError, match="limited to"):
        resolve_target(f"rc_ttminus{BUILTIN_TARGET_LIMIT + 1}")


def test_cli_bg_and_pib(tmp_path):
    code, out = cli("bg", "--target", "rc_tt2")
    assert code == EXIT_OK
    assert out == "p1 1_1\np1 2_1\np2 1_2\np2 2_2\ne 1_1 1_2\ne 1_1 2_2\ne 2_1 2_2\n"
    bip = write(tmp_path, "g.bg", out)
    code, out = cli("pib-check", "--input", bip)
    assert code == EXIT_OK and out == "verdict true\n"
    code, out = cli("pib-check", "--target", "cycle3")
    # BG of the irreflexive 3-cycle is a perfect matching: still clean
    assert out.splitlines()[0] == "verdict true"


def test_cli_pib_check_false():
    code, out = cli("pib-check", "--target", "t5_11223344")
    assert code == EXIT_OK
    lines = out.splitlines()
    assert lines[0] == "verdict false"
    assert lines[1].startswith("witness ")


def test_cli_minmax_verify_and_find():
    code, out = cli("minmax-verify", "--target", "rc_tt3",
                    "--ordering", "1,2,3")
    assert code == EXIT_OK and out == "verdict true\n"
    code, out = cli("minmax-verify", "--target", "cycle2",
                    "--ordering", "1,2")
    assert out.splitlines()[0] == "verdict false"
    assert out.splitlines()[1].startswith("violating-pair ")
    code, out = cli("minmax-find", "--target", "rc_tt4")
    assert out == "ordering 1,2,3,4\n"
    code, out = cli("minmax-find", "--target", "t5_none")
    assert out == "none\n"


@pytest.mark.parametrize("argv", [
    ["solve", "--target", "rc_tt2", "--input", "d.dg"],
    ["classify-general", "--target", "rc_tt2"],
    ["pib-check", "--target", "rc_tt2"],
    ["minmax-find", "--target", "rc_tt2"]],
    ids=["solve", "classify-general", "pib-check", "minmax-find"])
def test_cli_guard_refuses_negative_values(tmp_path, capsys, argv):
    # a negative guard made classify-general print "unknown" with
    # minmax-skipped-guard and solve take the brute route, though 1,2 is a
    # Min-Max ordering of rc_tt2
    argv = [write(tmp_path, a, "a u v\n") if a == "d.dg" else a for a in argv]
    for value in ("-1", "-3", "x"):
        assert cli(*argv, "--guard", value) == (EXIT_ERROR, "")
        assert (f"argument --guard: expected a nonnegative integer, "
                f"got '{value}'") in capsys.readouterr().err


def test_cli_witness():
    code, out = cli("witness", "--target", "rc_tt3")
    assert code == EXIT_OK and out == "none\n"
    code, out = cli("witness", "--target", "t5_11223344")
    lines = out.splitlines()
    assert lines[0].startswith("witness ")


def test_cli_prints_a_reflexive_cycle_witness(tmp_path):
    h = write(tmp_path, "h.dg", "a 1 2\na 2 3\na 3 1\na 2 2\n")
    witness = "witness reflexive-cycle 1 2 3\nloop 2\n"
    assert cli("witness", "--target", h) == (EXIT_OK, witness)
    assert cli("classify-general", "--target", h) == (
        EXIT_OK, "verdict np-hard\nrule lemma4.2\n" + witness)


def test_cli_solve_minmax_needs_an_ordering_to_find(tmp_path, capsys):
    d = write(tmp_path, "d.dg", "v u\n")
    assert cli("solve", "--target", "t5_223344", "--input", d,
               "--method", "minmax") == (EXIT_ERROR, "")
    assert capsys.readouterr().err == "error: target has no Min-Max ordering\n"


def test_cli_pib_check_needs_an_input(capsys):
    assert cli("pib-check") == (EXIT_ERROR, "")
    assert capsys.readouterr().err == (
        "error: pib-check needs --input (bipartite) or --target (digraph)\n")


def test_cli_witness_on_rc_tt30_is_fast():
    # 31 465 subsets of 3 or 4 vertices, all with the same arc pattern per
    # size: the forbidden-structure search runs once per pattern
    start = time.perf_counter()
    code, out = cli("witness", "--target", "rc_tt30")
    assert time.perf_counter() - start < 2
    assert (code, out) == (EXIT_OK, "none\n")


def test_cli_enumerate_rmpt():
    code, out = cli("enumerate-rmpt", "--n", "3")
    assert code == EXIT_OK
    lines = out.splitlines()
    assert len(lines) == 5
    assert all(line.startswith("rmpt ") and " verdict=" in line
               for line in lines)


LONG = "x" * 5000


@pytest.mark.parametrize("files, argv", [
    ({"c.txt": f"c a 1 {LONG}\n"},
     ["solve", "--target", "rc_tt2", "--input", "d.dg", "--costs", "c.txt"]),
    ({"c.txt": f"c {LONG} 1 5\n"},
     ["solve", "--target", "rc_tt2", "--input", "d.dg", "--costs", "c.txt"]),
    ({"d.dg": f"v {LONG}\nv {LONG}\n"},
     ["solve", "--target", "rc_tt2", "--input", "d.dg"]),
    ({"d.dg": f"v a,{LONG}\n"},
     ["solve", "--target", "rc_tt2", "--input", "d.dg"]),
    ({"g.bg": f"p1 a\ne {LONG} a\n"}, ["pib-check", "--input", "g.bg"]),
    ({}, ["classify-general", "--target", LONG])],
    ids=["cost", "cost-key", "duplicate-vertex", "bad-vertex-name",
         "undeclared-vertex", "unreadable-path"])
def test_cli_error_messages_cut_long_tokens(tmp_path, capsys, files, argv):
    # a 5000-character token is quoted by its first characters
    files = {"d.dg": "v a\n", **files}
    argv = [write(tmp_path, a, files[a]) if a in files else a for a in argv]
    assert cli(*argv) == (EXIT_ERROR, "")
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "'... (500" in err
    assert len(err.encode()) < 200


def test_cli_cannot_read_names_the_os_reason(tmp_path, capsys, monkeypatch):
    # the OS reason alone: its full text would repeat the path
    monkeypatch.chdir(tmp_path)
    assert cli("witness", "--target", "nosuch.dg") == (EXIT_ERROR, "")
    assert capsys.readouterr().err == (
        "error: cannot read 'nosuch.dg': No such file or directory\n")


@pytest.mark.parametrize("argv", [
    ["classify-general", "--target", "a\x00b"],
    ["solve", "--target", "rc_tt2", "--input", "a\x00b"],
    ["solve", "--target", "rc_tt2", "--input", "d.dg", "--costs", "a\x00b"],
    ["pib-check", "--input", "a\x00b"]],
    ids=["target", "input", "costs", "bipartite"])
def test_cli_cannot_read_a_path_with_a_nul_byte(tmp_path, capsys, argv):
    # open() raises ValueError, not OSError, for such a path; argv cannot
    # hold a NUL, so only library callers of run pass one
    argv = [write(tmp_path, a, "v a\n") if a == "d.dg" else a for a in argv]
    assert cli(*argv) == (EXIT_ERROR, "")
    assert capsys.readouterr().err == (
        "error: cannot read 'a\\x00b': embedded null byte\n")


@pytest.mark.parametrize("argv", [
    ["minmax-find", "--target", "rc_tt٣"],
    ["classify-general", "--target", "cycle３"],
    ["bg", "--target", "rc_ttminus๓"],
    ["enumerate-rmpt", "--n", "٣"],
    ["enumerate-rmpt", "--n", "0_3"],
    ["enumerate-rmpt", "--n", " 3"]],
    ids=["rc_tt-arabic-indic", "cycle-fullwidth", "rc_ttminus-thai",
         "n-arabic-indic", "n-underscore", "n-space"])
def test_cli_sizes_are_ascii_digits(tmp_path, monkeypatch, argv):
    # int() and the regex \d take any Unicode digit, and int() also takes
    # underscores and surrounding spaces: each of these once listed or
    # built the 3-vertex case.  No file of that name exists here either
    monkeypatch.chdir(tmp_path)
    assert cli(*argv) == (EXIT_ERROR, "")


@pytest.mark.parametrize("argv", [
    ["minmax-find", "--target", "rc_tt3", "--guard"],
    ["enumerate-rmpt", "--n"]], ids=["guard", "n"])
def test_cli_integer_options_past_the_digit_limit(capsys, argv):
    # int() raised ValueError here, which argparse reported as "invalid
    # _guard value" followed by every one of the 5000 characters
    assert cli(*argv, "9" * 5000) == (EXIT_ERROR, "")
    err = capsys.readouterr().err
    assert "has more than 4300 digits" in err and "'... (5000" in err
    assert len(err.encode()) < 300
    assert "_guard" not in err and "_size" not in err


@pytest.mark.parametrize("argv, problem, echo", [
    (["witness", "--target", "rc_tt3", LONG], "unrecognized arguments: ", str),
    ([LONG], "argument command: invalid choice: ", repr),
    (["solve", "--method", LONG], "argument --method: invalid choice: ", repr)],
    ids=["unrecognized", "command", "method"])
def test_cli_usage_errors_cut_long_tokens(capsys, argv, problem, echo):
    # argparse echoed every one of the 5000 characters
    assert cli(*argv) == (EXIT_ERROR, "")
    err = capsys.readouterr().err
    assert problem + _quoted(LONG) in err
    assert len(err.encode()) < 1000
    # a token within the limit is echoed as argparse writes it
    short = "x" * 40
    assert cli(*(short if a == LONG else a for a in argv)) == (EXIT_ERROR, "")
    assert problem + echo(short) in capsys.readouterr().err


def test_cli_bg_of_an_empty_digraph_prints_nothing(tmp_path):
    h = write(tmp_path, "h.dg", "# no vertices\n")
    assert cli("bg", "--target", h) == (EXIT_OK, "")


def test_cli_error_paths(tmp_path, capsys):
    code, _ = cli("solve", "--target", "nosuchfile.dg",
                  "--input", "alsomissing.dg")
    assert code == EXIT_ERROR
    bad = write(tmp_path, "bad.dg", "zzz\n")
    code, _ = cli("minmax-find", "--target", bad)
    assert code == EXIT_ERROR
    code, _ = cli("no-such-command")
    assert code == EXIT_ERROR
    # cost keys outside V(D) x V(H)
    capsys.readouterr()
    d = write(tmp_path, "d.dg", "a u0 u1\n")
    for line in ("c nosuch 1 -5\n", "c u0 zz 7\n"):
        c = write(tmp_path, "c.txt", line)
        for target in ("rc_tt3", "cycle3"):
            code, out = cli("solve", "--target", target, "--input", d,
                            "--costs", c)
            assert code == EXIT_ERROR and out == ""
            assert capsys.readouterr().err.startswith("error: cost entry")
    # sizes out of range: a built-in target beyond its limit, n below 2 or
    # above the enumeration limit (n = 1200 once recursed per unit of n)
    for argv in (("classify-general", "--target", "rc_tt99999999999"),
                 ("bg", "--target", "cycle" + "9" * 5000),
                 ("solve", "--target", "cycle1001", "--input", d),
                 ("enumerate-rmpt", "--n", "1"),
                 ("enumerate-rmpt", "--n", "-1"),
                 ("enumerate-rmpt", "--n", "8"),
                 ("enumerate-rmpt", "--n", "1200")):
        code, out = cli(*argv)
        assert code == EXIT_ERROR and out == ""
        assert capsys.readouterr().err.startswith("error: ")
    # a file that is not UTF-8, wherever a file is read
    bad = str(tmp_path / "bad.dg")
    Path(bad).write_bytes(b"a u v\n\xff\n")
    for argv in (("solve", "--target", "rc_tt3", "--input", bad),
                 ("solve", "--target", bad, "--input", d),
                 ("solve", "--target", "rc_tt3", "--input", d, "--costs", bad),
                 ("pib-check", "--input", bad)):
        code, out = cli(*argv)
        assert code == EXIT_ERROR and out == ""
        assert capsys.readouterr().err.startswith("error: ")
    # an optimum of more than 4300 digits (each cost has 4300, which
    # parse_costs reads): no cost line, no map lines, no traceback
    two = write(tmp_path, "two.dg", "v a\nv b\n")
    c = write(tmp_path, "big.txt", "".join(f"c {u} {i} {'9' * 4300}\n"
                                           for u in "ab" for i in "12"))
    code, out = cli("solve", "--target", "rc_tt2", "--input", two, "--costs", c)
    assert code == EXIT_ERROR and out == ""
    assert capsys.readouterr().err == "error: the optimum has more than 4300 digits\n"
    # malformed tokens: a stray character in the loop set, an empty name
    # in an ordering
    for argv in (("classify-t5", "--b", "113"),
                 ("classify-t5", "--b", "1x33"),
                 ("minmax-verify", "--target", "rc_tt3",
                  "--ordering", "1,,2,3,")):
        code, out = cli(*argv)
        assert code == EXIT_ERROR and out == ""
        assert capsys.readouterr().err.startswith("error: ")


def _mutate(rng, data, kind):
    """One seeded mutation of a valid input file."""
    if kind == 0:  # a flipped byte, every other time to 0xff
        buf = bytearray(data)
        k = rng.randrange(len(buf))
        buf[k] = 0xFF if rng.random() < 0.5 else buf[k] ^ 1 << rng.randrange(8)
        return bytes(buf)
    lines = [line.split() for line in data.splitlines()]
    toks = lines[rng.randrange(len(lines))]
    k = rng.randrange(len(toks))
    if kind == 1:
        del toks[k]
    elif kind == 2:
        toks.insert(k, rng.choice((b"v", b"a", b"c", b"e", b"7", b"x")))
    elif kind == 3:
        toks[k] = b"9" * 5000
    else:  # a '#' inside a token
        toks[k] = toks[k][:1] + b"#" + toks[k][1:]
    return b"\n".join(b" ".join(line) for line in lines) + b"\n"


def test_cli_survives_mutated_files(tmp_path, capsys):
    rng = random.Random(3)
    files = {"d.dg": b"v a\nv b\na a b\na b c\na c c\n",
             "c.txt": b"c a 1 -3\nc b 2 4\nc c 3 12\n",
             "g.bg": b"p1 s\np2 t\np2 u\ne s t\ne s u\n"}
    for name, data in files.items():
        (tmp_path / name).write_bytes(data)
    d, c, g, m = (str(tmp_path / name)
                  for name in ("d.dg", "c.txt", "g.bg", "m"))
    commands = {"d.dg": [("solve", "--target", "rc_tt3", "--input", m),
                         ("solve", "--target", m, "--input", d),
                         ("classify-general", "--target", m),
                         ("minmax-find", "--target", m)],
                "c.txt": [("solve", "--target", "rc_tt3", "--input", d,
                           "--costs", m)],
                "g.bg": [("pib-check", "--input", m)]}
    names = sorted(files)
    start = time.perf_counter()
    for k in range(210):
        name = names[k % 3]
        Path(m).write_bytes(_mutate(rng, files[name], k // 3 % 5))
        for argv in commands[name]:
            code, _ = cli(*argv)
            assert code in (EXIT_OK, EXIT_ERROR, EXIT_INFEASIBLE), argv
        capsys.readouterr()
    assert time.perf_counter() - start < 5


def test_cli_deterministic_output(tmp_path):
    d = write(tmp_path, "d.dg", "a u v\na v w\na u w\n")
    c = write(tmp_path, "c.txt", "c u 2 -1\nc w 4 3\n")
    args = [
        ("solve", "--target", "rc_tt4", "--input", d, "--costs", c),
        ("classify-rmpt", "--target", "rc_k12"),
        ("classify-t5", "--b", "1133"),
        ("witness", "--target", "t5_none"),
        ("enumerate-rmpt", "--n", "4"),
    ]
    for argv in args:
        first = cli(*argv)
        second = cli(*argv)
        assert first == second
