"""What the package and the command line load.

The per-file commands (analyze, construct, embed, dot) never call the
sweeps, so a fresh process that runs them leaves ``latcon.enumeration``
unloaded, and with it ``dataclasses`` and the ``inspect`` it imports.
The package resolves the enumeration's names on first use.
"""

import ast
import importlib
import importlib.util
import os
import pkgutil
import subprocess
import sys
from pathlib import Path

import pytest

import latcon

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"

N5_TEXT = "5\n0 1\n1 3\n3 4\n0 2\n2 4\n"

# Runs the per-file commands in one process, then prints which of the
# modules named on the command line it loaded.
_LOADED_AFTER_COMMANDS = """
import sys
import latcon.cli
from latcon.cli import main

lat, out = sys.argv[1], sys.argv[2]
for args in (["analyze", lat], ["construct", "chain", "5", "-o", out], ["embed", lat, lat], ["dot", lat]):
    if main(args) != 0:
        sys.exit(f"{args} failed")
print("loaded=" + ",".join(m for m in sys.argv[3:] if m in sys.modules))
"""

NOT_LOADED = ("latcon.enumeration", "dataclasses", "inspect")


def test_per_file_commands_do_not_load_the_sweeps(tmp_path):
    lat = tmp_path / "n5.lat"
    lat.write_text(N5_TEXT)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-c", _LOADED_AFTER_COMMANDS, str(lat), str(tmp_path / "c5.lat"), *NOT_LOADED],
        capture_output=True,
        text=True,
        env=env,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert "Con=5\n" in proc.stdout
    assert proc.stdout.splitlines()[-1] == "loaded="


def _exports():
    """(name, home module) for every name latcon/__init__.py exports."""
    tree = ast.parse((SRC / "latcon" / "__init__.py").read_text())
    eager = [
        (alias.asname or alias.name, node.module)
        for node in tree.body
        if isinstance(node, ast.ImportFrom) and node.level == 1
        for alias in node.names
    ]
    return eager + [(name, "enumeration") for name in sorted(latcon._ENUMERATION_NAMES)]


def test_every_export_is_its_home_module_attribute():
    """Also once every submodule is loaded, whatever the tests ran
    before: a submodule named like an export would replace it."""
    for module in pkgutil.walk_packages(latcon.__path__, "latcon."):
        importlib.import_module(module.name)
    assert importlib.util.find_spec("latcon.kr_catalog") is None
    for name, home in _exports():
        assert getattr(latcon, name) is getattr(importlib.import_module(f"latcon.{home}"), name), name


def test_unknown_attribute_raises():
    with pytest.raises(AttributeError, match="no_such_name"):
        latcon.no_such_name
    assert not hasattr(latcon, "DEFAULT_MAX_N")
