"""Every public module-level function and class in lindyn has a caller.

A name counts as used when some module of the package, a script or the
benchmark mentions it other than at its own definition: as a name, an
attribute, an import, or a string constant (the benchmark tracer wraps
functions by name).  Code that only the suite calls belongs in the suite.
"""

import ast
from pathlib import Path

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
