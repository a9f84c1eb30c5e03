"""Every import and every function parameter in the package
modules is used, and one module reads and writes CSV tables."""

import ast
import pathlib

import pytest

import style_lens

MODULES = sorted(
    p for p in pathlib.Path(style_lens.__file__).parent.glob("*.py")
    if p.name != "__init__.py"
)


def imported_names(tree):
    """(name, line) of each name an import statement binds, at any depth."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.asname or alias.name.split(".")[0], node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                yield alias.asname or alias.name, node.lineno


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_module_imports(path):
    """Each imported name is read somewhere in its module; being assigned to,
    or looked up from outside (as the benchmark's wrap points are), is no use."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    used = {node.id for node in ast.walk(tree)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
    unused = [f"line {line}: {name}" for name, line in imported_names(tree)
              if name not in used]
    assert not unused, f"{path.name} imports unused names: {unused}"


def unused_parameters(tree):
    """(line, function, parameter) for each parameter its function body never
    reads; self, cls and _-prefixed names are exempt."""
    for node in ast.walk(tree):
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        a = node.args
        params = a.posonlyargs + a.args + a.kwonlyargs + [p for p in (a.vararg, a.kwarg) if p]
        read = {n.id for stmt in node.body for n in ast.walk(stmt) if isinstance(n, ast.Name)}
        for p in params:
            if p.arg not in ("self", "cls") and not p.arg.startswith("_") and p.arg not in read:
                yield node.lineno, node.name, p.arg


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_parameters(path):
    tree = ast.parse(path.read_text(encoding="utf-8"))
    unused = [f"line {line}: {fn}({arg})" for line, fn, arg in unused_parameters(tree)]
    assert not unused, f"{path.name} has unused parameters: {unused}"


def importers_of(module):
    """The package modules that import `module`, once per import statement."""
    importers = []
    for path in MODULES:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            names = ([alias.name for alias in node.names] if isinstance(node, ast.Import)
                     else [node.module] if isinstance(node, ast.ImportFrom) else [])
            if module in names:
                importers.append(path.name)
    return importers


def test_only_traj_imports_csv():
    """traj.read_csv and traj.write_csv are the one table reader and writer."""
    importers = importers_of("csv")
    assert importers == ["traj.py"]


def test_only_traj_imports_json():
    """traj.read_json and traj.write_json read and write every JSON file, and
    the JSONL loader and writer are in traj too."""
    assert importers_of("json") == ["traj.py"]


def test_only_cli_main_exits():
    """cli.main is the one place where an error becomes an exit."""
    exits = [(path.name, fn.name) for path in MODULES
             for fn in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
             if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef))
             for node in ast.walk(fn) if isinstance(node, ast.Name) and node.id == "SystemExit"]
    named = [path.name for path in MODULES if "SystemExit" in path.read_text(encoding="utf-8")]
    assert exits == [("cli.py", "main")] and named == ["cli.py"]
