"""A command loads only the modules it runs, and the package's names stay
where their users look them up, whatever was imported first.

Each check runs in a fresh child process, since this one has long since
imported the whole package.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = str(Path(__file__).resolve().parents[1] / "src")


def child(code):
    """The last line of a fresh interpreter's stdout, read as JSON."""
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([SRC, os.environ.get("PYTHONPATH", "")])}
    done = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, env=env, timeout=60
    )
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout.splitlines()[-1])


LOADED = (
    "import json, sys; "
    "print(json.dumps([sorted(m for m in sys.modules if m.split('.')[0] == 'allostery'), "
    "[m for m in ('fractions', 'decimal') if m in sys.modules]]))"
)


def test_help_loads_only_the_cli_and_its_errors():
    code = (
        "from allostery import cli\n"
        "try:\n"
        "    cli.main(['--help'])\n"
        "except SystemExit:\n"
        "    pass\n" + LOADED
    )
    assert child(code) == [["allostery", "allostery.cli", "allostery.errors"], []]


def test_a_bare_import_loads_no_submodule():
    assert child("import allostery; " + LOADED) == [["allostery"], []]


def test_forge_loads_neither_certificates_nor_dynamics():
    code = "from allostery import cli; cli.main(['forge', '{(0):(1)};(0)', '--p', '2']); " + LOADED
    loaded, _ = child(code)
    assert loaded == [
        "allostery", "allostery.base", "allostery.cli", "allostery.config",
        "allostery.errors", "allostery.forge", "allostery.wreath",
    ]


FORGE_IS_THE_FUNCTION = (
    "import importlib, json, types, allostery; "
    "from allostery import forge; "
    "module = importlib.import_module('allostery.forge'); "
    "print(json.dumps([type(forge) is types.FunctionType, allostery.forge is forge, "
    "type(module) is types.ModuleType, module.forge is forge]))"
)


@pytest.mark.parametrize(
    "first",
    [
        "import allostery.dynamics",
        "from allostery import Window",
        "from allostery.cli import main; main(['forge', '{(0):(1)};(0)', '--p', '2'])",
        "import allostery.forge",
        "pass",
    ],
)
def test_forge_is_the_function_in_every_import_order(first):
    """The import system binds a submodule to its package's attribute of the
    same name when the submodule first loads; ``allostery.forge`` must still
    be the function, and ``importlib`` must still find the module."""
    assert child(first + "\n" + FORGE_IS_THE_FUNCTION) == [True, True, True, True]


def test_forge_cannot_be_rebound():
    code = (
        "import json, allostery\n"
        "try:\n"
        "    allostery.forge = None\n"
        "except AttributeError as exc:\n"
        "    print(json.dumps(str(exc)))\n"
    )
    assert child(code) == "allostery.forge is the function forge and is read-only"


def test_every_export_resolves_to_its_module_s_object():
    code = (
        "import importlib, json, allostery\n"
        "names = {}\n"
        "exec('from allostery import *', names)\n"
        "wrong = []\n"
        "for name in allostery.__all__:\n"
        "    obj = names.get(name)\n"
        "    if obj is None or getattr(importlib.import_module(obj.__module__), name) is not obj:\n"
        "        wrong.append(name)\n"
        "print(json.dumps(wrong))\n"
    )
    assert child(code) == []


def test_an_unknown_name_is_an_attribute_error():
    code = (
        "import json, allostery\n"
        "print(json.dumps([hasattr(allostery, 'no_such_name'), hasattr(allostery, 'SCHEMA_VERSION')]))\n"
    )
    assert child(code) == [False, False]
