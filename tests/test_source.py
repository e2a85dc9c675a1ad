"""Source-level guarantees that the suite keeps from regressing."""

import ast
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "finstack"
# the library's modules, keyed by stem, and the tests' helper module, whose
# asserts pytest does not rewrite either
CHECKED = {p.stem: p for p in [*sorted(SRC.glob("*.py")), ROOT / "tests" / "support.py"]}
# the library's modules and every module of the suite, keyed by stem
IMPORTING = {**CHECKED, **{p.stem: p for p in sorted((ROOT / "tests").glob("*.py"))}}


@pytest.mark.parametrize("module", sorted(CHECKED))
def test_no_assert_statements(module):
    # python -O strips assert statements, so a check anywhere in the library
    # or in the tests' helpers must raise explicitly
    path = CHECKED[module]
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    lines = sorted(node.lineno for node in ast.walk(tree)
                   if isinstance(node, ast.Assert))
    assert lines == [], f"{path.name} has assert statements at lines {lines}"


@pytest.mark.parametrize("module", sorted(p.stem for p in SRC.glob("*.py")))
def test_no_relative_import_inside_a_function(module):
    # the package has no import cycle to break, so each module names what it
    # takes from the others at its top, where a reader looks for it
    path = SRC / f"{module}.py"
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    lines = sorted({node.lineno
                    for fn in ast.walk(tree)
                    if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef))
                    for node in ast.walk(fn)
                    if isinstance(node, ast.ImportFrom) and node.level > 0})
    assert lines == [], f"{path.name} imports inside a function at lines {lines}"


def test_only_finset_imports_set_field():
    # records take their fields through Record.__init__; set_field, which
    # writes past the frozen __setattr__, stays inside finset
    users = []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        if any(alias.name == "set_field" for node in ast.walk(tree)
               if isinstance(node, ast.ImportFrom) for alias in node.names):
            users.append(path.stem)
    assert users == []


def test_caches_are_bounded():
    # long runs keep bounded memory: the one lru_cache in the library holds
    # the constant terminal set, a value derived from one object is kept on
    # that object, and the finset memo keys only functions of two arguments,
    # keeping an entry only as long as the younger one it is stored on
    import importlib
    cached, memoized = [], []
    for path in sorted(SRC.glob("*.py")):
        module = importlib.import_module(f"finstack.{path.stem}")
        for name, obj in vars(module).items():
            info = getattr(obj, "cache_info", None)
            if callable(info) and getattr(obj, "__module__", None) == module.__name__:
                if getattr(obj, "memoized_on_youngest", False):
                    memoized.append(obj.__wrapped__.__code__.co_argcount)
                else:
                    cached.append((f"{path.stem}.{name}", info().maxsize))
    assert cached == [("finset.terminal", 1)]
    assert memoized and set(memoized) == {2}


@pytest.mark.parametrize("module", sorted(p.stem for p in SRC.glob("*.py")))
def test_no_dataclasses_import(module):
    # the certified records are finset.record classes: dataclasses would
    # generate and exec their methods at every start of desc
    path = SRC / f"{module}.py"
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    imported = [alias.name for node in ast.walk(tree) if isinstance(node, ast.Import)
                for alias in node.names]
    imported += [node.module for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)]
    assert "dataclasses" not in imported, f"{path.name} imports dataclasses"


def test_cli_import_loads_neither_dataclasses_nor_inspect():
    code = ("import sys; sys.path.insert(0, sys.argv[1]); import finstack.cli; "
            "print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))")
    out = subprocess.run([sys.executable, "-S", "-c", code, str(SRC.parent)],
                         capture_output=True, text=True, check=True, timeout=60)
    assert out.stdout.strip() == "[]"


def test_only_the_door_reads_the_cross_check_switch():
    # constructions hand their skipped certifiers to finset.cross_check,
    # which alone decides whether to run them, and cli.main sets and
    # restores the switch; check-cover, check-sheaf and classify skip an
    # oracle past --bound by its cost
    readers = set()

    def visit(node, scope):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            scope = f"{scope.split('.')[0]}.{node.name}"
        elif (isinstance(node, ast.Attribute) and node.attr == "on"
              and isinstance(node.value, ast.Name) and node.value.id == "CrossCheck"):
            readers.add(scope)
        for child in ast.iter_child_nodes(node):
            visit(child, scope)

    for path in sorted(SRC.glob("*.py")):
        visit(ast.parse(path.read_text(encoding="utf-8"), filename=str(path)), path.stem)
    assert readers == {"finset.cross_check", "cli.main"}


def test_only_the_datum_raises_missing_overlap_iso():
    # a datum fills its forced isos and refuses a real gap when it is
    # built, so no reader decides again whether an iso is missing
    raisers = set()

    def visit(node, scope):
        if isinstance(node, (ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            scope = f"{scope}.{node.name}"
        elif (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
              and node.func.id == "MissingOverlapIso"):
            raisers.add(scope)
        for child in ast.iter_child_nodes(node):
            visit(child, scope)

    for path in sorted(SRC.glob("*.py")):
        visit(ast.parse(path.read_text(encoding="utf-8"), filename=str(path)), path.stem)
    assert raisers == {"descent.DescentDatum.__init__"}


def _names_read(tree):
    """Every name the module reads. Under `from __future__ import
    annotations` an annotation is still an expression in the tree, so a
    name read only there counts."""
    return {node.id for node in ast.walk(tree)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}


@pytest.mark.parametrize("module", sorted(IMPORTING))
def test_no_unused_imports(module):
    # no linter is installed, so this is the F401 rule: every name a
    # top-level import binds is read in the module, unless its line is a
    # re-export marked `# noqa: F401`
    path = IMPORTING[module]
    text = path.read_text(encoding="utf-8")
    lines = text.splitlines()
    tree = ast.parse(text, filename=str(path))
    read = _names_read(tree)
    unused = []
    for node in tree.body:
        if not isinstance(node, (ast.Import, ast.ImportFrom)):
            continue
        for alias in node.names:
            name = (alias.asname or alias.name).split(".")[0]
            if name == "annotations" or name in read:
                continue
            marked = lines[node.lineno - 1:node.end_lineno]
            if not any("# noqa: F401" in line for line in marked):
                unused.append(f"{name} (line {node.lineno})")
    assert unused == [], f"{path.name} imports and never reads {unused}"


def test_each_record_has_one_certifier_and_one_formula_builder():
    # a bundle, a bundle morphism, an object or a morphism of [X/G] is
    # built either by its certifier, on a caller's tables, or by its
    # formula builder, which re-runs that certifier under cross-check; no
    # other code assembles one
    builders = set()

    def visit(node, scope):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            scope = f"{scope.split('.')[0]}.{node.name}"
        elif (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
              and node.func.id in ("Bundle", "BundleMorphism", "QSObject", "QSMorphism")):
            builders.add((node.func.id, scope))
        for child in ast.iter_child_nodes(node):
            visit(child, scope)

    for path in sorted(SRC.glob("*.py")):
        visit(ast.parse(path.read_text(encoding="utf-8"), filename=str(path)), path.stem)
    assert builders == {
        ("Bundle", "bundle.is_principal_bundle"), ("Bundle", "bundle.formula_bundle"),
        ("BundleMorphism", "bundle.check_bundle_morphism"),
        ("BundleMorphism", "bundle.enumerate_bundle_morphisms"),
        ("QSObject", "stack.check_qs_object"), ("QSObject", "stack.formula_object"),
        ("QSMorphism", "stack.check_qs_morphism"), ("QSMorphism", "stack.formula_morphism"),
    }


def test_cross_check_re_runs_only_named_certifiers():
    # each formula-built value is re-checked, under cross-check, by its
    # record's one certifier or by an oracle, named or in a lambda: no
    # second certifier of a record, no expression that picks one at run
    # time, and no certifier handed to any other call to re-run later
    again, handed = set(), []
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), filename=str(path))):
            if not isinstance(node, ast.Call):
                continue
            if isinstance(node.func, ast.Name) and node.func.id == "cross_check":
                arg = node.args[2]
                if isinstance(arg, ast.Name):
                    again.add(arg.id)
                elif not isinstance(arg, ast.Lambda):
                    again.add(f"{path.name}:{node.lineno}: {ast.unparse(arg)}")
                continue
            handed += [f"{path.name}:{node.lineno}: {arg.id}"
                       for arg in [*node.args, *(k.value for k in node.keywords)]
                       if isinstance(arg, ast.Name) and arg.id.startswith(("check_", "certify"))]
    assert handed == []
    assert again == {
        "FinMap", "FinSet", "check_action", "check_bundle_morphism", "check_qs_object",
        "check_qs_morphism", "check_cocycle", "cocycle_pointwise", "_check_comparisons",
        "_locally_trivial", "sheaf_condition_by_enumeration", "classify_by_enumeration",
    }


def test_no_module_imports_a_private_name():
    # what one module builds for another is public, under its own name
    private = sorted(f"{path.stem}: {alias.name}"
                     for path in SRC.glob("*.py")
                     for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
                     if isinstance(node, ast.ImportFrom) and node.level > 0
                     for alias in node.names if alias.name.startswith("_"))
    assert private == []


# top-level definitions of src that no src code reads, each with its reason
SRC_API = {
    "action.zmod": "stock group of the README-level API",
    "action.klein_four": "stock group of the README-level API",
    "action.sym": "stock group of the README-level API",
    "descent.pullback_datum": "README-level API: base change of a descent datum",
    "sitefile.format_site": "README-level API: the printer of the site files",
    "stack.coherence_iota": "README-level API: the prestack's coherence cells",
    "stack.coherence_assoc": "README-level API: the prestack's coherence cells",
    "stack.coherence_triangles": "README-level API: the prestack's coherence cells",
    "sample.exhaustive_corpus": "the exhaustive verify-stack corpus, due in production",
}


def test_src_defines_nothing_only_the_tests_read():
    # what only the tests read lives in tests/support.py: every top-level
    # function or class of a library module is read by src code outside its
    # own definition, in its module or where another module imports it
    trees = {p.stem: ast.parse(p.read_text(encoding="utf-8"), filename=str(p))
             for p in SRC.glob("*.py") if p.stem != "__init__"}
    imported = {mod: {(node.module, alias.name): alias.asname or alias.name
                      for node in tree.body
                      if isinstance(node, ast.ImportFrom) and node.level == 1
                      for alias in node.names}
                for mod, tree in trees.items()}
    reads = {mod: [(stmt, _names_read(stmt)) for stmt in tree.body]
             for mod, tree in trees.items()}
    unread = []
    for mod, tree in trees.items():
        for defn in tree.body:
            if not isinstance(defn, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                continue
            local = {other: defn.name if other == mod else imported[other].get((mod, defn.name))
                     for other in trees}
            if not any(local[other] in names
                       for other in trees if local[other] is not None
                       for stmt, names in reads[other] if stmt is not defn):
                unread.append(f"{mod}.{defn.name}")
    assert sorted(unread) == sorted(SRC_API)


def test_every_traced_name_resolves_in_finstack():
    # bench/tracing.py looks each name up as a finstack module attribute when
    # it installs, and reads cache_info() of the cached ones; a name moved out
    # of src would fail only there, by AttributeError
    import importlib
    path = ROOT / "bench" / "tracing.py"
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    keys = {target.id: ast.literal_eval(node.value)
            for node in tree.body if isinstance(node, ast.Assign)
            for target in node.targets
            if isinstance(target, ast.Name)
            and target.id in ("SPANNED", "COUNTED", "COUNTED_CLASSES", "CACHED")}
    assert sorted(keys) == ["CACHED", "COUNTED", "COUNTED_CLASSES", "SPANNED"]
    missing, uncached = [], []
    for name, traced in keys.items():
        for key in traced:
            mod, attr = key.split(".")
            value = getattr(importlib.import_module(f"finstack.{mod}"), attr, None)
            if value is None:
                missing.append(key)
            elif name == "CACHED" and not callable(getattr(value, "cache_info", None)):
                uncached.append(key)
    assert (missing, uncached) == ([], [])
