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


def test_package_imports_only_what_it_uses():
    # a deletion must not leave a dead import behind; __init__.py re-exports
    # and the __future__ switches bind names that are never read
    modules = sorted(p for p in PACKAGE.rglob("*.py") if p.name != "__init__.py")
    assert modules
    unused = []
    for path in modules:
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                for alias in node.names:
                    bound = alias.asname or alias.name.split(".")[0]
                    if bound not in read:
                        unused.append(f"{path.relative_to(PACKAGE)}:{node.lineno} {bound}")
    assert unused == []
