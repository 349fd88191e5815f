"""Every module-level definition in src/latcon is reachable from a caller
outside the tests: the command line, a name the benchmark imports, or a
function the benchmark's tracer lists in TRACED (perfbench's self-test
requires each of them to exist).

The walk reads the source with ast.  A definition reaches every
definition whose name it loads, in its own module or through a relative
import, and every name that a relative import inside its body imports;
a module's other top-level statements run on import, so what they load
is reached from the start.  The re-exports in __init__.py are not
callers, and no other names written as strings are.

A second walk finds every assert statement under src/latcon: there
must be none.
"""

import ast
import shutil
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "latcon"


def _modules(src):
    """(definitions, imports, loads on import): definitions maps
    (module, name) to its statement, imports maps a module's local names
    to the (module, name) they import."""
    defs, imports, on_import = {}, {}, []
    for path in sorted(src.glob("*.py")):
        mod = path.stem
        if mod == "__init__":
            continue
        imports[mod] = {}
        for node in ast.parse(path.read_text()).body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                defs[mod, node.name] = node
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                for name in (n for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)):
                    defs[mod, name.id] = node
            elif isinstance(node, ast.ImportFrom) and node.level == 1:
                for alias in node.names:
                    imports[mod][alias.asname or alias.name] = (node.module, alias.name)
            else:
                on_import.append((mod, node))
    return defs, imports, on_import


def _benchmark_imports(reexports):
    """(module, name) for each latcon name a perfbench module imports or
    reads off an imported latcon module."""
    out = []
    for path in sorted((ROOT / "perfbench").glob("*.py")):
        tree = ast.parse(path.read_text())
        modules = {}
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "latcon":
                for alias in node.names:
                    if node.module != "latcon":
                        out.append((node.module.split(".")[1], alias.name))
                    elif alias.name in reexports:
                        out.append(reexports[alias.name])
                    else:
                        modules[alias.asname or alias.name] = alias.name
        for node in ast.walk(tree):
            if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name) and node.value.id in modules:
                out.append((modules[node.value.id], node.attr))
    return out


def _traced():
    """(module, name) for each entry of TRACED in perfbench/tracer.py."""
    for node in ast.parse((ROOT / "perfbench" / "tracer.py").read_text()).body:
        if isinstance(node, ast.Assign) and [t.id for t in node.targets] == ["TRACED"]:
            return [tuple(ast.literal_eval(e)[:2]) for e in node.value.elts]
    raise AssertionError("perfbench/tracer.py defines no TRACED")


def _unreached(src):
    defs, imports, on_import = _modules(src)
    reexports = {
        alias.asname or alias.name: (node.module, alias.name)
        for node in ast.parse((src / "__init__.py").read_text()).body
        if isinstance(node, ast.ImportFrom)
        for alias in node.names
    }

    def loads(mod, node):
        for n in ast.walk(node):
            if isinstance(n, ast.Name):
                if (mod, n.id) in defs:
                    yield mod, n.id
                elif n.id in imports[mod]:
                    yield imports[mod][n.id]
            elif isinstance(n, ast.ImportFrom) and n.level == 1:
                for alias in n.names:
                    yield n.module, alias.name

    todo = [("cli", "main"), *_benchmark_imports(reexports), *_traced()]
    for mod, node in on_import:
        todo.extend(loads(mod, node))
    seen = set()
    while todo:
        key = todo.pop()
        if key in defs and key not in seen:
            seen.add(key)
            todo.extend(loads(key[0], defs[key]))
    return sorted(f"{mod}.{name}" for mod, name in defs.keys() - seen)


def test_every_definition_has_a_caller():
    assert _unreached(SRC) == []


def test_the_walk_flags_a_definition_without_a_caller(tmp_path):
    """A helper only another dead helper calls is flagged with it; a
    re-export in __init__.py does not count as a caller.  A helper that
    a command imports inside its body is not flagged."""
    src = tmp_path / "latcon"
    shutil.copytree(SRC, src)
    with open(src / "lattice.py", "a") as fh:
        fh.write("\n\ndef _helper():\n    return 1\n\n\ndef unused():\n    return _helper()\n")
        fh.write("\n\ndef _imported_in_a_body():\n    return 2\n")
    with open(src / "__init__.py", "a") as fh:
        fh.write("from .lattice import unused\n")
    cli = src / "cli.py"
    head = "def _cmd_dot(args) -> int:\n"
    assert head in cli.read_text()
    cli.write_text(cli.read_text().replace(head, head + "    from .lattice import _imported_in_a_body\n\n"))
    assert _unreached(src) == ["lattice._helper", "lattice.unused"]


def _asserts(src):
    """The place, "file:line", of each assert statement under src."""
    return [
        f"{path.name}:{node.lineno}"
        for path in sorted(src.rglob("*.py"))
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.Assert)
    ]


def test_no_runtime_check_is_an_assert():
    """python -O strips assert statements, so every check the program
    relies on raises an exception of its own."""
    assert _asserts(SRC) == []


def test_the_walk_flags_an_assert(tmp_path):
    (tmp_path / "checked.py").write_text("def _checked(x):\n    assert x >= 0\n    return x\n")
    assert _asserts(tmp_path) == ["checked.py:2"]
