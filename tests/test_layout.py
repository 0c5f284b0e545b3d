"""The package holds what the CLI runs.  Every module-level function and class
of src/delpezzo must be used by the package's own live code; test oracles
live in tests/ (shared ones in oracles.py, the others beside their test)."""

import ast
import importlib
import subprocess
import sys
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "delpezzo"

# The package's names that only code outside it calls, and why they stay.
ENTRY_POINTS = {
    "main": "the console script and `python -m delpezzo.cli`",
    "_direct_box": "the direct counter's box-scan oracle: perfbench/tracer.py wraps it by name",
}


def _references(node) -> set[str]:
    return {
        n.id if isinstance(n, ast.Name) else n.attr
        for n in ast.walk(node)
        if isinstance(n, (ast.Name, ast.Attribute))
    }


def unused_definitions() -> list[str]:
    """The module-level functions and classes that no live code of the
    package references.  Live code is the modules' other top-level statements,
    ENTRY_POINTS, and the bodies of the definitions that live code
    references, to a fixed point."""
    definitions: dict[str, list[ast.AST]] = {}
    live: set[str] = set(ENTRY_POINTS)
    for path in sorted(PACKAGE.glob("*.py")):
        for stmt in ast.parse(path.read_text()).body:
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                definitions.setdefault(stmt.name, []).append(stmt)
                continue
            live |= _references(stmt)
    seen: set[str] = set()
    while todo := (live & definitions.keys()) - seen:
        for name in todo:
            seen.add(name)
            for node in definitions[name]:
                live |= _references(node)
    return sorted(definitions.keys() - live)


def test_every_package_definition_is_used_by_the_package():
    unused = unused_definitions()
    assert not unused, f"defined in src/delpezzo but used only from outside it: {unused}"


def test_product_imports_load_no_oracle_code():
    # a fresh interpreter: test modules import the oracles into this one
    probe = (
        "import sys, delpezzo.cli, delpezzo.constant, delpezzo.counting; "
        "print(sorted(m for m in sys.modules if m == 'delpezzo.torsor' or 'polytope' in m))"
    )
    r = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True)
    assert r.returncode == 0, r.stderr
    assert r.stdout.splitlines()[-1] == "[]"


def test_submodule_attributes_are_the_modules():
    # no name bound in the package root may hide the submodule of that name
    import delpezzo
    import delpezzo.eta as m

    assert m.__name__ == "delpezzo.eta"
    for path in sorted(PACKAGE.glob("*.py")):
        if path.stem != "__init__":
            module = importlib.import_module(f"delpezzo.{path.stem}")
            assert getattr(delpezzo, path.stem) is module, path.stem
