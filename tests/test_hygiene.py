import ast
import importlib.util
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
