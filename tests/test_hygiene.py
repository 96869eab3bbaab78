import ast
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
