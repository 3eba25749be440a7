"""Package layout: modules reach each other only through public names."""

import ast
from pathlib import Path

import lacunary

SRC = Path(lacunary.__file__).resolve().parent


def _private_imports(path: Path) -> list[str]:
    found = []
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if not isinstance(node, ast.ImportFrom):
            continue
        internal = node.level > 0 or (node.module or "").split(".")[0] == "lacunary"
        if internal:
            found.extend(
                f"{path.name}:{node.lineno} imports {alias.name}"
                for alias in node.names
                if alias.name.startswith("_")
            )
    return found


def test_no_private_names_imported_across_modules():
    modules = sorted(SRC.glob("*.py"))
    assert len(modules) > 5
    offenders = [hit for path in modules for hit in _private_imports(path)]
    assert offenders == []


def test_no_assert_statements_in_library():
    # python -O strips asserts, so library invariants must raise instead
    modules = sorted(SRC.glob("*.py"))
    assert len(modules) > 5
    offenders = [
        f"{path.name}:{node.lineno}"
        for path in modules
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.Assert)
    ]
    assert offenders == []
