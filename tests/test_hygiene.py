import ast
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
