import ast
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "c4lab"


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


def test_function_local_imports_break_a_cycle():
    # an import inside a function hides a dependency from the module's head
    # and reruns at every call; the one kept breaks the graphs <-> oracles
    # cycle (oracles imports graphs at its head)
    local = set()
    for path, tree in _package_trees().items():
        for fn in ast.walk(tree):
            if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
                local |= {f"{path.relative_to(PACKAGE)} {fn.name}" for node in ast.walk(fn)
                          if isinstance(node, (ast.Import, ast.ImportFrom))}
    assert sorted(local) == ["graphs.py gen_lopsided"]


def test_every_pipeline_param_has_a_flag():
    # a PipelineParams field that no flag and no DEGB_* variable sets is a
    # knob nobody turns, so it belongs in the code as a constant
    from dataclasses import fields

    from c4lab.cli import _ENV_DEFAULTS, _params_from, build_parser
    from c4lab.pipeline import PipelineParams

    names = [f.name for f in fields(PipelineParams)]
    assert [name for name in names if name not in {dest for dest, _, _ in _ENV_DEFAULTS}] == []
    for name in names:
        args = build_parser().parse_args(
            ["extract", "--s", "2", "--k", "1", "--" + name.replace("_", "-"), "7"])
        assert getattr(_params_from(args), name) == 7


def test_every_error_class_is_raised():
    # an error class that nothing raises is dead taxonomy: its handlers and
    # exports promise an outcome the package never produces
    tree = ast.parse((PACKAGE / "errors.py").read_text(encoding="utf-8"))
    classes = {node.name for node in tree.body if isinstance(node, ast.ClassDef)}
    assert classes
    raised = set()
    for path in sorted(PACKAGE.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Raise) and node.exc is not None:
                exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
                if isinstance(exc, ast.Name):
                    raised.add(exc.id)
    assert sorted(classes - raised) == []


def test_benchmark_traced_names_resolve():
    # the benchmark's tracer wraps each (module, func) by getattr, so a
    # rename or deletion in the package must not leave a name behind there
    import importlib

    tree = ast.parse((ROOT / "perfbench" / "tracing.py").read_text(encoding="utf-8"))
    traced = next(ast.literal_eval(node.value) for node in tree.body
                  if isinstance(node, ast.Assign)
                  and any(getattr(tgt, "id", None) == "TRACED" for tgt in node.targets))
    assert traced
    missing = [f"{module}.{func}" for module, func in traced
               if not hasattr(importlib.import_module(f"c4lab.{module}"), func)]
    assert missing == []


def _names_read(node, attributes_only: bool = False) -> Counter:
    # a bare name (x) or an attribute (o.x); a method is reached only as the
    # latter, so a local variable or a parameter of its name does not count
    kinds = ast.Attribute if attributes_only else (ast.Name, ast.Attribute)
    return Counter(n.id if isinstance(n, ast.Name) else n.attr for n in ast.walk(node)
                   if isinstance(n, kinds))


def _package_trees() -> dict:
    trees = {path: ast.parse(path.read_text(encoding="utf-8"))
             for path in sorted(PACKAGE.rglob("*.py"))}
    assert trees
    return trees


def _unread(trees: dict, named) -> list[str]:
    # the functions and classes (methods included) selected by `named` whose
    # name no tree reads outside their own bodies; a definition's reads of
    # its own name (recursion) do not count, and a method counts as read
    # only through an attribute read
    # read[True] counts attribute reads only, read[False] every read
    read = {attrs: sum((_names_read(tree, attrs) for tree in trees.values()), Counter())
            for attrs in (False, True)}
    methods = {id(node) for tree in trees.values() for cls in ast.walk(tree)
               if isinstance(cls, ast.ClassDef) for node in cls.body}
    return [f"{path.relative_to(ROOT)}:{node.lineno} {node.name}"
            for path, tree in trees.items() for node in ast.walk(tree)
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
            and named(node.name)
            and read[id(node) in methods][node.name]
            == _names_read(node, id(node) in methods)[node.name]]


def test_every_private_helper_has_a_caller():
    # a private function or class that nothing else in the package reads is
    # dead code, even when tests still call it: they then test what never runs
    dead = _unread(_package_trees(),
                   lambda name: name.startswith("_") and not name.endswith("__"))
    assert dead == []


def test_every_test_helper_has_a_reader():
    # a reference in tests/helpers.py that no test reads checks nothing
    trees = {path: ast.parse(path.read_text(encoding="utf-8"))
             for path in sorted((ROOT / "tests").rglob("*.py"))}
    helpers = {node.name for node in trees[ROOT / "tests" / "helpers.py"].body
               if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))}
    assert helpers
    assert _unread(trees, lambda name: name in helpers) == []


# public names that no package module reads, each with the reason it stays
_ENTRY_POINTS = {
    "find_c3": "the benchmark's tracer wraps it until ROADMAP item 5",
    "extreme_split": "the benchmark's tracer wraps it until ROADMAP item 5",
    "bipartite_regularize": "the benchmark's tracer wraps it until ROADMAP item 5",
    "find_c4": "the benchmark calls it",
    "model_lopsided": "the benchmark calls it",
    "apply_sidecar": "the library half of the sidecar format the CLI writes",
    "write_hypergraph": "the library half of the hypergraph format the CLI reads",
    "reiman_max_edges": "ROADMAP item 3's branch and bound bounds by it",
}


def test_every_public_name_has_a_reader():
    # a public function, class or method that no package module reads is
    # surface nothing reaches, even when tests still call it.  The
    # re-exports in __init__.py and the test fixtures in named.py are no
    # readers; the fixtures are not checked either
    trees = {path: tree for path, tree in _package_trees().items()
             if path.name not in ("__init__.py", "named.py")}
    unread = _unread(trees,
                     lambda name: not name.startswith("_") and name not in _ENTRY_POINTS)
    assert unread == []
    # an entry that names nothing any more would let its name come back unread
    defined = {node.name for tree in trees.values() for node in ast.walk(tree)
               if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))}
    assert sorted(set(_ENTRY_POINTS) - defined) == []


def test_sources_parse_as_python_3_10():
    # CI runs tier-1 on Python 3.10 too; this checks syntax only, so a
    # stdlib API that 3.10 lacks still goes unnoticed here
    paths = sorted(path for folder in ("src", "tests", "perfbench")
                   for path in (ROOT / folder).rglob("*.py"))
    assert paths
    failed = []
    for path in paths:
        try:
            ast.parse(path.read_text(encoding="utf-8"), filename=str(path),
                      feature_version=(3, 10))
        except SyntaxError as exc:
            failed.append(f"{path.relative_to(ROOT)}:{exc.lineno} {exc.msg}")
    assert failed == []
