import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "c4lab"


def test_package_has_no_assert_statements():
    # soundness checks are explicit raises: `python -O` strips asserts, and
    # CI runs tier-1 under -O as well
    modules = sorted(PACKAGE.rglob("*.py"))
    assert modules
    found = []
    for path in modules:
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        found += [f"{path.relative_to(PACKAGE)}:{node.lineno}"
                  for node in ast.walk(tree) if isinstance(node, ast.Assert)]
    assert found == []
