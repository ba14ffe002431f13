"""Every public module-level function and class in lindyn has a caller,
every field of NumericContext and ClosureConfig has a caller that sets it,
no module of the package or the scripts imports a name it never uses, no
function of the package imports anything, no module of the package imports
dataclasses, no function of the package has a parameter that it never reads
or a settings parameter that may be None, and every field of a package
record is read somewhere.

A name counts as used when some module of the package, a script or the
benchmark mentions it other than at its own definition: as a name, an
attribute, an import, or a string constant (the benchmark tracer wraps
functions by name).  Code that only the suite calls belongs in the suite, and
a setting that no program caller sets is a constant, unless it is a listed
test seam.
"""

import ast
from pathlib import Path

from lindyn.dynamics import ClosureConfig
from lindyn.numeric import NumericContext

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "lindyn"
USERS = [PACKAGE, ROOT / "scripts", ROOT / "benchmark"]


def public_definitions() -> dict[str, str]:
    out = {}
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.parse(path.read_text()).body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not node.name.startswith("_"):
                out[node.name] = f"{path.stem}.{node.name}"
    return out


def referenced_names() -> set[str]:
    names = set()
    for directory in USERS:
        for path in sorted(directory.glob("*.py")):
            for node in ast.walk(ast.parse(path.read_text())):
                if isinstance(node, ast.Name):
                    names.add(node.id)
                elif isinstance(node, ast.Attribute):
                    names.add(node.attr)
                elif isinstance(node, ast.alias):
                    names.add(node.name.rsplit(".", 1)[-1])
                elif isinstance(node, ast.Constant) and isinstance(node.value, str):
                    names.add(node.value.rsplit(".", 1)[-1])
    return names


def test_no_public_definition_is_only_for_the_suite():
    used = referenced_names()
    unused = sorted(qual for name, qual in public_definitions().items() if name not in used)
    assert unused == [], f"defined in lindyn but used only by tests (or nowhere): {unused}"


# Fields no program caller sets, each kept settable for the tests that reach
# a code path with it on small inputs.
TEST_SEAMS = {
    "ClosureConfig.max_store": "streams boxes of a few thousand tuples",
    "ClosureConfig.overflow_limit": "clips orbits whose entries stay far below 1e100",
    "ClosureConfig.window": "widens the window of the streamed generic complex digest case",
    "ClosureConfig.discrete_count_limit": "switches the separation check off to compare "
    "the covering verdicts of a streamed and a materialized box",
}
SETTINGS_CALLS = {"NumericContext", "ClosureConfig", "_replace"}


def keywords_set_by_callers() -> set[str]:
    """Keyword names passed to NumericContext(...), ClosureConfig(...) and
    a settings record's ._replace(...) anywhere in the program, scripts or
    benchmark."""
    names = set()
    for directory in USERS:
        for path in sorted(directory.glob("*.py")):
            for node in ast.walk(ast.parse(path.read_text())):
                if not isinstance(node, ast.Call):
                    continue
                func = node.func
                called = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
                if called in SETTINGS_CALLS:
                    names.update(k.arg for k in node.keywords if k.arg)
    return names


def test_no_setting_is_only_for_the_suite():
    set_by_callers = keywords_set_by_callers()
    unset = sorted(
        f"{cls.__name__}.{name}"
        for cls in (NumericContext, ClosureConfig)
        for name in cls._fields
        if name not in set_by_callers and f"{cls.__name__}.{name}" not in TEST_SEAMS
    )
    assert unset == [], f"settings no program caller sets; make them constants: {unset}"
    assert all(reason for reason in TEST_SEAMS.values())


# An import that a module never uses; re-exports marked "noqa: F401" are kept.
IMPORTERS = [PACKAGE, ROOT / "scripts"]


def unused_imports(path: Path) -> list[str]:
    source = path.read_text()
    lines = source.splitlines()
    tree = ast.parse(source)
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    unused = []
    for node in ast.walk(tree):
        if not isinstance(node, (ast.Import, ast.ImportFrom)):
            continue
        if getattr(node, "module", None) == "__future__" or "noqa: F401" in lines[node.lineno - 1]:
            continue
        for alias in node.names:
            bound = alias.asname or alias.name.split(".")[0]
            if bound not in used:
                unused.append(f"{path.relative_to(ROOT)}: {bound}")
    return unused


def test_no_module_imports_a_name_it_never_uses():
    unused = [name for directory in IMPORTERS for path in sorted(directory.glob("*.py"))
              for name in unused_imports(path)]
    assert unused == [], f"imported but never used: {unused}"


def function_local_imports(path: Path) -> list[str]:
    found = set()  # an import in a nested function is walked from each enclosing one
    for func in ast.walk(ast.parse(path.read_text())):
        if isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            found.update(node.lineno for node in ast.walk(func)
                         if isinstance(node, (ast.Import, ast.ImportFrom)))
    return [f"{path.relative_to(ROOT)}:{line}" for line in sorted(found)]


def test_no_function_of_the_package_imports():
    # imports live at the top of each module, where the unused-import check sees them
    local = [where for path in sorted(PACKAGE.glob("*.py")) for where in function_local_imports(path)]
    assert local == [], f"function-local imports: {local}"


def test_no_module_of_the_package_imports_dataclasses():
    # a @dataclass writes and compiles its methods when its module is
    # imported; lindyn's records are plain classes and NamedTuples instead
    found = [
        f"{path.relative_to(ROOT)}:{node.lineno}"
        for path in sorted(PACKAGE.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.Import) and any(a.name.split(".")[0] == "dataclasses" for a in node.names)
        or isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "dataclasses"
    ]
    assert found == [], f"dataclasses imported: {found}"


def test_only_the_lazy_binding_imports_numpy():
    # lindyn._numpy binds numpy lazily; on CPython 3.11 any `import numpy`
    # statement reads the module's __spec__, which executes numpy at once
    found = [
        f"{path.relative_to(ROOT)}:{node.lineno}"
        for path in sorted(PACKAGE.glob("*.py"))
        if path.name != "_numpy.py"
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.Import) and any(a.name.split(".")[0] == "numpy" for a in node.names)
        or isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "numpy"
    ]
    assert found == [], f"numpy imported outside lindyn._numpy: {found}"


def functions(tree: ast.Module, prefix: str):
    """(qualified name, node) of every function in a module, nested ones included."""
    for node in ast.iter_child_nodes(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            name = f"{prefix}.{node.name}"
            if not isinstance(node, ast.ClassDef):
                yield name, node
            yield from functions(node, name)


def parameters(func: ast.FunctionDef) -> list[ast.arg]:
    a = func.args
    return a.posonlyargs + a.args + a.kwonlyargs + [p for p in (a.vararg, a.kwarg) if p]


# Parameters no body reads, each kept for a caller that passes it positionally.
FROZEN_PARAMETERS = {
    "groups.GeneratorSet.commutator_residual(ctx)": "benchmark/work.py passes it",
    "report.analysis_report(seed)": "benchmark/work.py passes it",
}


def test_no_function_has_a_parameter_it_never_reads():
    unread = []
    for path in sorted(PACKAGE.glob("*.py")):
        for name, func in functions(ast.parse(path.read_text()), path.stem):
            read = {n.id for stmt in func.body for n in ast.walk(stmt) if isinstance(n, ast.Name)}
            unread += [f"{name}({p.arg})" for p in parameters(func)
                       if p.arg not in read | {"self", "cls"} and f"{name}({p.arg})" not in FROZEN_PARAMETERS]
    assert unread == [], f"parameters never read: {unread}"
    assert all(reason for reason in FROZEN_PARAMETERS.values())


def test_no_settings_parameter_may_be_none():
    # the library has no default context: a caller passes the CLI's, or its own
    optional = [
        f"{name}({p.arg})"
        for path in sorted(PACKAGE.glob("*.py"))
        for name, func in functions(ast.parse(path.read_text()), path.stem)
        for p in parameters(func)
        if p.annotation is not None
        and "None" in (parts := {t.strip() for t in ast.unparse(p.annotation).split("|")})
        and parts & {"NumericContext", "ClosureConfig"}
    ]
    assert optional == [], f"settings parameters that may be None: {optional}"


def test_every_record_field_is_read():
    read = set()
    for directory in USERS + [ROOT / "tests"]:
        for path in sorted(directory.glob("*.py")):
            read.update(node.attr for node in ast.walk(ast.parse(path.read_text()))
                        if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load))
    unread = []
    for path in sorted(PACKAGE.glob("*.py")):
        for cls in ast.walk(ast.parse(path.read_text())):
            if not isinstance(cls, ast.ClassDef):
                continue
            for stmt in cls.body:
                if isinstance(stmt, ast.Assign) and [ast.unparse(t) for t in stmt.targets] == ["__slots__"]:
                    unread += [f"{path.stem}.{cls.name}.{field}"
                               for field in ast.literal_eval(stmt.value) if field not in read]
    assert unread == [], f"record fields no module reads: {unread}"
