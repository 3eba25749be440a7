"""Package layout: modules reach each other only through public names,
every library definition and defaulted parameter is used, and README's
layout table names only what exists."""

import ast
import importlib
import re
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


def test_no_library_path_calls_the_dense_route():
    # Phi_n | F is decided by the structural test; divides_phi_dense, which
    # lists n residue counts whatever F is, stays only as the tests'
    # independent check
    calls = [
        f"{path.name}:{node.lineno}"
        for path in sorted(SRC.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.Call) and "divides_phi_dense" in _names_used(node.func)
    ]
    assert calls == []


def test_one_refusal_path():
    # errors.refuse_above is the only code that raises ResourceLimitError and
    # cli.main, through LacunaryError, the only code that catches it; a
    # library path never picks its branch by catching a refusal
    offenders = []
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Raise) and node.exc is not None and path.name != "errors.py":
                names = _names_used(node.exc)
            elif isinstance(node, ast.ExceptHandler) and node.type is not None:
                names = _names_used(node.type)
            else:
                continue
            if "ResourceLimitError" in names:
                offenders.append(f"{path.name}:{node.lineno}")
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


def _names_used(node) -> set[str]:
    used = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            used.add(sub.id)
        elif isinstance(sub, ast.Attribute):
            used.add(sub.attr)
        elif isinstance(sub, ast.alias):
            used.add(sub.name)
    return used


# reached only by the tests, each for a reason of its own
TEST_ONLY = {
    "multinomial_weight": "the multinomial law: acceptance 8's oracle, the N = infinity single-modulus law",
    "atom_probability": "the exact count law, the oracle of a single-modulus event",
    "format_poly": "the text-format writer of the parse round trip",
    "_candidate_moduli": "the whole sweep range, the reference the generated candidates are checked against",
}


def test_every_library_function_and_class_is_referenced():
    # a definition is dead unless library code or perfbench names it outside
    # its own body: a use in a test, or a re-export in __init__.py, keeps no
    # code alive, except the TEST_ONLY names, which the tests must still use
    defined, used, tested = [], set(), set()
    for path in sorted(SRC.glob("*.py")):
        for stmt in ast.parse(path.read_text(encoding="utf-8")).body:
            names = _names_used(stmt)
            if isinstance(stmt, (ast.FunctionDef, ast.ClassDef)):
                defined.append(stmt.name)
                names.discard(stmt.name)
            if path.name != "__init__.py":
                used |= names
    tests = Path(__file__).resolve().parent
    for path in sorted((tests.parent / "perfbench").glob("*.py")):
        if not path.name.startswith("test_"):
            used |= _names_used(ast.parse(path.read_text(encoding="utf-8")))
    for path in sorted(tests.glob("*.py")):
        tested |= _names_used(ast.parse(path.read_text(encoding="utf-8")))
    assert len(defined) > 50
    assert sorted(d for d in defined if d not in used) == sorted(TEST_ONLY)
    assert set(TEST_ONLY) <= tested


def _defaulted_params(fn: ast.FunctionDef) -> list[tuple[str, int | None]]:
    """(name, position) of each parameter with a default; None for keyword-only."""
    pos = fn.args.posonlyargs + fn.args.args
    first = len(pos) - len(fn.args.defaults)
    found = [(a.arg, i) for i, a in enumerate(pos) if i >= first]
    kwonly = zip(fn.args.kwonlyargs, fn.args.kw_defaults)
    return found + [(a.arg, None) for a, d in kwonly if d is not None]


def _passes(call: ast.Call, name: str, position: int | None) -> bool:
    if any(kw.arg in (name, None) for kw in call.keywords):  # None is **kwargs
        return True
    if position is None:
        return False
    return len(call.args) > position or any(isinstance(a, ast.Starred) for a in call.args)


def _wrapped(node) -> str | None:
    """f for perfbench's timing wrapper ph.fn(name, f), else None."""
    if isinstance(node, ast.Call) and getattr(node.func, "attr", None) == "fn" and len(node.args) == 2:
        return getattr(node.args[1], "id", None)
    return None


def test_every_defaulted_parameter_is_passed():
    # a default that no library or perfbench call overrides is a knob only a
    # test turns; a call through a perfbench wrapper, has = ph.fn(name, f),
    # counts as a call of f
    params = {}
    for path in sorted(SRC.glob("*.py")):
        for stmt in ast.parse(path.read_text(encoding="utf-8")).body:
            if isinstance(stmt, ast.FunctionDef):
                for name, position in _defaulted_params(stmt):
                    params[stmt.name, name] = position
    perfbench = Path(__file__).resolve().parents[1] / "perfbench"
    callers = [path for path in sorted(SRC.glob("*.py")) if path.name != "__init__.py"]
    callers += [path for path in sorted(perfbench.glob("*.py")) if not path.name.startswith("test_")]
    passed = set()
    for path in callers:
        tree = ast.parse(path.read_text(encoding="utf-8"))
        aliases = {
            node.targets[0].id: _wrapped(node.value)
            for node in ast.walk(tree)
            if isinstance(node, ast.Assign) and isinstance(node.targets[0], ast.Name)
            and _wrapped(node.value)
        }
        for node in ast.walk(tree):
            if isinstance(node, ast.Call):
                func = _wrapped(node.func) or getattr(node.func, "id", getattr(node.func, "attr", None))
                func = aliases.get(func, func)
                passed |= {
                    (fn, name) for (fn, name), position in params.items()
                    if fn == func and _passes(node, name, position)
                }
    assert len(params) > 10
    assert sorted(set(params) - passed) == []


def _cache_decorators(path: Path):
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            for dec in node.decorator_list:
                target = dec.func if isinstance(dec, ast.Call) else dec
                name = target.attr if isinstance(target, ast.Attribute) else getattr(target, "id", "")
                if name in ("lru_cache", "cache"):
                    yield f"{path.name}:{node.name}", dec


def _has_integer_maxsize(dec) -> bool:
    if not isinstance(dec, ast.Call):
        return False  # functools.cache, or lru_cache without its argument
    sizes = dec.args[:1] + [kw.value for kw in dec.keywords if kw.arg == "maxsize"]
    return len(sizes) == 1 and isinstance(sizes[0], ast.Constant) and type(sizes[0].value) is int


def test_every_cache_is_bounded():
    # an unbounded cache keeps every modulus a sweep touches for the life of
    # the process
    caches = [hit for path in sorted(SRC.glob("*.py")) for hit in _cache_decorators(path)]
    assert {"numtheory.py:peel", "lattice.py:build_basis"} <= {name for name, _ in caches}
    assert [name for name, dec in caches if not _has_integer_maxsize(dec)] == []


# each library module's sibling imports; a new coupling shows as an edit here
SIBLINGS = {
    "bounds": {"errors", "numtheory"},
    "cli": {"bounds", "cyclotomic", "errors", "experiment", "lattice", "sparsepoly"},
    "cyclotomic": {"errors", "numtheory", "sparsepoly"},
    "errors": set(),
    "experiment": {"cyclotomic", "errors", "sparsepoly"},
    "lattice": {"bounds", "errors", "numtheory"},
    "numtheory": {"errors"},
    "sparsepoly": {"errors"},
}


def _sibling_imports(path: Path) -> set[str]:
    found = set()
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.ImportFrom) and node.level > 0:
            found |= {node.module} if node.module else {alias.name for alias in node.names}
        elif isinstance(node, ast.ImportFrom) and (node.module or "").startswith("lacunary."):
            found.add(node.module.split(".")[1])
        elif isinstance(node, ast.Import):
            found |= {a.name.split(".")[1] for a in node.names if a.name.startswith("lacunary.")}
    return found


def test_module_dependencies():
    deps = {
        path.stem: _sibling_imports(path)
        for path in sorted(SRC.glob("*.py"))
        if path.name != "__init__.py"
    }
    assert deps == SIBLINGS


def _layout_rows() -> list[tuple[str, list[str]]]:
    """(module, backticked identifiers of its contents) for each row of README's Layout table."""
    text = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    table = text.split("## Layout", 1)[1].split("\n## ", 1)[0]
    rows = []
    for line in table.splitlines():
        cells = [cell.strip() for cell in line.strip().strip("|").split("|")]
        if len(cells) == 2 and cells[0].startswith("`lacunary."):
            names = [name for name in re.findall(r"`([^`]+)`", cells[1]) if name.isidentifier()]
            rows.append((cells[0].strip("`"), names))
    return rows


def test_readme_layout_names_only_what_exists():
    # `lacunary` in the cli row is the command's name, not a module attribute
    rows = _layout_rows()
    assert len(rows) > 5
    missing = [
        f"{module}.{name}" for module, names in rows for name in names
        if name != "lacunary" and not hasattr(importlib.import_module(module), name)
    ]
    assert missing == []
