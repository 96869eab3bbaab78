import ast
import importlib.util
import os
import random
import subprocess
import sys
from pathlib import Path

import minhom

PACKAGE = Path(minhom.__file__).parent


def test_no_assert_statements():
    # `python -O` strips asserts, so result and certificate checks must raise
    found = []
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        found += [f"{path.name}:{node.lineno}" for node in ast.walk(tree)
                  if isinstance(node, ast.Assert)]
    assert not found, f"assert statements in minhom: {found}"


def test_no_unbounded_recursion():
    # a function that calls itself goes one stack frame deeper per call,
    # and Python stops near 1000 frames: a search that recursed once per
    # input vertex, part or label printed a RecursionError traceback on a
    # large input
    found = []

    def visit(node, prefix):
        for child in ast.iter_child_nodes(node):
            if not isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef,
                                      ast.ClassDef)):
                visit(child, prefix)
                continue
            name = f"{prefix}.{child.name}"
            if not isinstance(child, ast.ClassDef) and any(
                    isinstance(call, ast.Call) and (
                        isinstance(call.func, ast.Name)
                        and call.func.id == child.name
                        or isinstance(call.func, ast.Attribute)
                        and call.func.attr == child.name
                        and isinstance(call.func.value, ast.Name)
                        and call.func.value.id in ("self", "cls"))
                    for call in ast.walk(child)):
                found.append(name)
            visit(child, name)

    for path in sorted(PACKAGE.glob("*.py")):
        visit(ast.parse(path.read_text(encoding="utf-8"), filename=str(path)),
              path.stem)
    assert found == [], f"functions that call themselves: {found}"


def test_stdlib_only_imports():
    # runtime dependencies stay in the standard library
    found = []
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and not node.level:
                names = [node.module]
            else:
                continue  # not an import, or a relative one (minhom itself)
            found += [f"{path.name}:{node.lineno} {name}" for name in names
                      if name.partition(".")[0] not in sys.stdlib_module_names
                      and name.partition(".")[0] != "minhom"]
    assert not found, f"imports outside the standard library: {found}"


def test_no_function_level_imports():
    # the package has no import cycle, so every import sits at the top of
    # its module, where a reader sees what the module depends on
    found = []
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        found += [f"{path.name}:{node.lineno}" for node in ast.walk(tree)
                  if isinstance(node, (ast.Import, ast.ImportFrom))
                  and node not in tree.body]
    assert not found, f"imports below module level: {found}"


def test_minmax_reads_no_arc_set():
    # the Min-Max layer reads the adjacency index through its rank rows,
    # never the string arc set
    tree = ast.parse((PACKAGE / "minmax.py").read_text(encoding="utf-8"))
    found = [node.lineno for node in ast.walk(tree)
             if isinstance(node, ast.Attribute) and node.attr == "arcs"]
    assert not found, f"minmax.py reads .arcs at lines {found}"


def test_minmax_search_rebuilds_no_rank_rows_per_placement():
    # find_minmax's per-placement test (the closure _pair_test returns)
    # keeps the pair digraph's orientations and checks only what a
    # placement adds; rebuilding the rows and rerunning the staircase at
    # every search node cost nearly all of a classify-general call.  So
    # _rank_rows and _is_staircase are called only from the
    # bodies of verify_minmax and find_minmax (its check of the declaration
    # order, the first permutation, and its one re-check of the ordering
    # found), never from a nested function
    tree = ast.parse((PACKAGE / "minmax.py").read_text(encoding="utf-8"))
    found = []

    def visit(node, where):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.Lambda)):
                visit(child, where + [getattr(child, "name", "<lambda>")])
                continue
            if (isinstance(child, ast.Call) and isinstance(child.func, ast.Name)
                    and child.func.id in ("_rank_rows", "_is_staircase")):
                found.append((".".join(where), child.func.id))
            visit(child, where)

    visit(tree, [])
    assert sorted(found) == [("find_minmax", "_is_staircase"),
                             ("find_minmax", "_is_staircase"),
                             ("find_minmax", "_rank_rows"),
                             ("find_minmax", "_rank_rows"),
                             ("verify_minmax", "_is_staircase"),
                             ("verify_minmax", "_rank_rows")], found


def test_minmax_search_prunes_with_one_test():
    # the pair test already cuts every prefix that is no staircase, so a
    # second pruning test could never change an answer: find_minmax hands
    # first_injection one fits callable, the name bound to _pair_test(h)
    tree = ast.parse((PACKAGE / "minmax.py").read_text(encoding="utf-8"))
    find = next(node for node in tree.body
                if isinstance(node, ast.FunctionDef)
                and node.name == "find_minmax")
    searches = [node for node in ast.walk(find) if isinstance(node, ast.Call)
                and isinstance(node.func, ast.Name)
                and node.func.id == "first_injection"]
    assert len(searches) == 1
    fits = searches[0].args[2:] + [kw.value for kw in searches[0].keywords]
    assert len(fits) == 1 and isinstance(fits[0], ast.Name), \
        ast.dump(searches[0])
    bound = [node.value.func.id for node in ast.walk(find)
             if isinstance(node, ast.Assign) and isinstance(node.value, ast.Call)
             and isinstance(node.value.func, ast.Name)
             and [ast.unparse(t) for t in node.targets] == [fits[0].id]]
    assert bound == ["_pair_test"], bound


def test_minmax_searches_no_graph_of_its_own():
    # the pair digraph's components come from digraph._collect, the
    # package's one reachability search: minmax.py has no worklist loop
    # (`while stack:` or any loop on a container's truth) of its own
    tree = ast.parse((PACKAGE / "minmax.py").read_text(encoding="utf-8"))
    found = [node.lineno for node in ast.walk(tree)
             if isinstance(node, ast.While)
             and isinstance(node.test, (ast.Name, ast.Attribute,
                                        ast.Subscript))]
    assert not found, f"minmax.py has a search loop at lines {found}"
    calls = {node.func.id for node in ast.walk(tree)
             if isinstance(node, ast.Call) and isinstance(node.func, ast.Name)}
    assert "_collect" in calls


def test_no_tuple_scans_of_vertex_lists():
    # vertex lists are tuples, so `in` and `.index` on one scan it: once per
    # vertex, that made the bipartite transforms and the PIB test quadratic.
    # Positions and membership come from an index (Digraph._index, or a
    # BipartiteGraph's digraph)
    names = {"vertices", "part1", "part2"}
    found = []
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        for node in ast.walk(tree):
            if isinstance(node, ast.Compare):
                scanned = [right for op, right in zip(node.ops, node.comparators)
                           if isinstance(op, (ast.In, ast.NotIn))]
            elif isinstance(node, ast.Attribute) and node.attr == "index":
                scanned = [node.value]
            else:
                continue
            found += [f"{path.name}:{node.lineno}" for right in scanned
                      if isinstance(right, ast.Attribute) and right.attr in names]
    assert not found, f"scans of a vertex tuple: {found}"


def test_one_brute_force_search():
    # solve_bruteforce and solve_auto's route for targets without an
    # ordering share one search kernel; a second search loop would need a
    # second budget check
    found = []

    def visit(node, where):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.ClassDef)):
                visit(child, f"{where}.{child.name}")
                continue
            if (isinstance(child, ast.Raise)
                    and isinstance(child.exc, ast.Call)
                    and isinstance(child.exc.func, ast.Name)
                    and child.exc.func.id == "BudgetExceeded"):
                found.append(where)
            visit(child, where)

    for path in sorted(PACKAGE.glob("*.py")):
        visit(ast.parse(path.read_text(encoding="utf-8")), path.stem)
    assert found == ["solver._search"]


def test_one_reachability_search():
    # components and strong_components take their components with one
    # stack search, digraph._collect; a loop on a stack elsewhere in
    # digraph.py would be a second traversal to keep in step
    tree = ast.parse((PACKAGE / "digraph.py").read_text(encoding="utf-8"))
    found = [func.name for func in ast.walk(tree)
             if isinstance(func, ast.FunctionDef)
             and any(isinstance(node, ast.While)
                     and any(isinstance(name, ast.Name) and name.id == "stack"
                             for name in ast.walk(node.test))
                     for node in ast.walk(func))]
    assert found == ["_collect"], f"stack searches in digraph.py: {found}"


def test_min_cut_is_read_off_the_max_flow():
    # FlowNetwork.source_side returns max_flow's final source tree; a loop
    # there would be a second search of the residual network
    tree = ast.parse((PACKAGE / "solver.py").read_text(encoding="utf-8"))
    found = [node for cls in tree.body if isinstance(cls, ast.ClassDef)
             and cls.name == "FlowNetwork" for node in cls.body
             if isinstance(node, ast.FunctionDef)
             and node.name == "source_side"]
    assert len(found) == 1
    loops = [node.lineno for node in ast.walk(found[0])
             if isinstance(node, (ast.For, ast.While))]
    assert loops == [], f"loops in FlowNetwork.source_side: {loops}"


def test_max_flow_is_plain_boykov_kolmogorov():
    # max_flow keeps three per-node arrays: no distance or timestamp labels
    # to re-parent nodes by, growth only claims free nodes, and an orphan
    # takes the first neighbour whose parent chain still ends at a root
    tree = ast.parse((PACKAGE / "solver.py").read_text(encoding="utf-8"))
    [func] = [node for cls in tree.body if isinstance(cls, ast.ClassDef)
              and cls.name == "FlowNetwork" for node in cls.body
              if isinstance(node, ast.FunctionDef) and node.name == "max_flow"]
    arrays = [target.id for node in ast.walk(func)
              if isinstance(node, ast.Assign)
              and isinstance(node.value, ast.BinOp)
              and isinstance(node.value.left, ast.List)
              for target in node.targets if isinstance(target, ast.Name)]
    assert arrays == ["tree", "parent", "queued"], arrays
    [growth] = [node for node in ast.walk(func) if isinstance(node, ast.For)
                and ast.unparse(node.iter) == "adj[u]"]
    claims = [node.lineno for node in ast.walk(growth)
              if isinstance(node, ast.Subscript)
              and isinstance(node.ctx, ast.Store)
              and ast.unparse(node.value) == "parent"]
    assert len(claims) == 1, f"parent set in growth at lines {claims}"
    assert func.end_lineno - func.lineno < 100


def test_poly_orderings_are_rechecked_in_one_place():
    # every polynomial verdict that carries an ordering is built by
    # classify._poly, which re-checks the ordering with verify_minmax
    tree = ast.parse((PACKAGE / "classify.py").read_text(encoding="utf-8"))
    found = []
    for func in tree.body:
        if not isinstance(func, ast.FunctionDef):
            continue
        found += [func.name for node in ast.walk(func)
                  if isinstance(node, ast.Call)
                  and isinstance(node.func, ast.Name)
                  and node.func.id == "Classification"
                  and node.args and isinstance(node.args[0], ast.Name)
                  and node.args[0].id == "POLY"
                  and any(k.arg == "ordering" for k in node.keywords)]
    assert found == ["_poly"], f"poly verdicts with an ordering in {found}"


def test_bench_spans_resolve():
    # bench/worker.py silently skips a spanned name it cannot find, so a
    # rename would zero that layer's metric without notice
    path = PACKAGE.parent.parent / "bench" / "worker.py"
    spec = importlib.util.spec_from_file_location("bench_worker", path)
    worker = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(worker)
    missing = []
    spanned = set()
    for layer, names in worker.SPANS.items():
        for module, attr in names:
            obj = importlib.import_module(f"minhom.{module}")
            for part in attr.split("."):
                obj = getattr(obj, part, None)
            if not callable(obj):
                missing.append(f"minhom.{module}.{attr}")
            spanned.add(f"{layer}.{attr}")
    assert not missing, f"spanned names missing from minhom: {missing}"
    assert worker.COUNTED <= spanned


def test_solve_bytes_survive_python_O(tmp_path):
    # the result checks raise instead of asserting, so `python -O` prints
    # the same answer: a tree folded into a 6-cycle, cut into rc_tt5.  The
    # cycle's arcs alternate in direction, so it is no strong component
    # and does not contract
    rng = random.Random(3)
    arcs = [(f"c{k}", f"c{(k + 1) % 6}")[::(-1) ** k] for k in range(6)]
    arcs += [(f"t{k}", f"t{rng.randrange(k)}" if k else "c0")
             for k in range(30)]
    (tmp_path / "d.dg").write_text("".join(f"a {t} {h}\n" for t, h in arcs))
    (tmp_path / "c.txt").write_text("".join(
        f"c {u} {i} {rng.randint(-20, 20)}\n"
        for u in sorted({v for arc in arcs for v in arc}) for i in "12345"))
    argv = ["-m", "minhom", "solve", "--target", "rc_tt5",
            "--input", str(tmp_path / "d.dg"), "--costs", str(tmp_path / "c.txt")]
    env = dict(os.environ, PYTHONPATH=str(PACKAGE.parent))
    outs = [subprocess.run([sys.executable, *flags, *argv], env=env,
                           capture_output=True, check=True).stdout
            for flags in ([], ["-O"])]
    assert outs[0].startswith(b"cost ") and outs[0] == outs[1]


def test_cli_starts_without_dataclasses_or_typing():
    # every minhom process imports minhom.cli before it reads input; the
    # records need no dataclasses (which pulls in inspect, ast and dis)
    # and annotations need no typing.  -S keeps site's own imports out
    env = dict(os.environ, PYTHONPATH=str(PACKAGE.parent))
    heavy = ["dataclasses", "inspect", "typing", "ast", "dis"]
    code = ("import sys, minhom.cli; "
            f"print(*[m for m in {heavy!r} if m in sys.modules])")
    out = subprocess.run([sys.executable, "-S", "-c", code], env=env,
                         capture_output=True, text=True, check=True).stdout
    assert out.split() == []


def test_find_minmax_answers_its_declaration_order_before_the_guard():
    # the guard bounds the ordering search, not the O(n + m) check of the
    # declaration order: GuardExceeded is raised only after the return of
    # an order that passes _is_staircase
    tree = ast.parse((PACKAGE / "minmax.py").read_text(encoding="utf-8"))
    func = next(node for node in tree.body if isinstance(node, ast.FunctionDef)
                and node.name == "find_minmax")
    checked = next(node for node in func.body if isinstance(node, ast.If)
                   and isinstance(node.body[0], ast.Return))
    assert any(isinstance(call, ast.Call)
               and getattr(call.func, "id", None) == "_is_staircase"
               for call in ast.walk(checked.test))
    raises = [node.lineno for node in ast.walk(func)
              if isinstance(node, ast.Raise) and isinstance(node.exc, ast.Call)
              and getattr(node.exc.func, "id", None) == "GuardExceeded"]
    assert raises and min(raises) > checked.lineno


def test_no_raise_formats_a_value_with_repr():
    # a caller-supplied value goes into an error message through _quoted,
    # which cuts a long one to its first characters; `!r` echoes it whole
    found = []
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        found += [f"{path.name}:{node.lineno}" for raise_ in ast.walk(tree)
                  if isinstance(raise_, ast.Raise)
                  for node in ast.walk(raise_)
                  if isinstance(node, ast.FormattedValue)
                  and node.conversion == ord("r")]
    assert not found, f"raises that format with !r: {found}"


def test_readers_leave_blank_lines_to_lines():
    # io._lines yields only lines that have tokens, so no parse_* function
    # tests its token list for emptiness
    tree = ast.parse((PACKAGE / "io.py").read_text(encoding="utf-8"))
    checked, found = [], []
    for func in tree.body:
        if not (isinstance(func, ast.FunctionDef)
                and func.name.startswith("parse_")):
            continue
        toks = {loop.target.elts[1].id for loop in ast.walk(func)
                if isinstance(loop, ast.For)
                and isinstance(loop.iter, ast.Call)
                and getattr(loop.iter.func, "id", None) == "_lines"}
        if toks:
            checked.append(func.name)
        for node in ast.walk(func):
            if isinstance(node, ast.UnaryOp) and isinstance(node.op, ast.Not):
                subject = node.operand
            elif isinstance(node, (ast.If, ast.While, ast.IfExp)):
                subject = node.test
            elif (isinstance(node, ast.Compare)
                  and isinstance(node.left, ast.Call)
                  and getattr(node.left.func, "id", None) == "len"
                  and any(isinstance(c, ast.Constant) and c.value == 0
                          for c in node.comparators)):
                subject = node.left.args[0]
            else:
                continue
            if isinstance(subject, ast.Name) and subject.id in toks:
                found.append(f"{func.name}:{node.lineno}")
    assert sorted(checked) == ["parse_bipartite", "parse_costs",
                               "parse_digraph"]
    assert not found, f"blank-line tests in the readers: {found}"
