"""ROADMAP's rule that numpy is the only runtime dependency: every module
of the package imports only the standard library, numpy and the package
itself, wherever the import statement sits (a function body, a ``try``)."""

import ast
import sys
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "mffftnet"
ALLOWED = set(sys.stdlib_module_names) | {"numpy", "mffftnet"}


def foreign_imports(source: str) -> list[str]:
    """Top-level names of the modules ``source`` imports that are neither
    in the standard library, nor numpy, nor the package; relative imports
    are the package."""
    names = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            names += [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names.append(node.module)
    return [n for n in names if n.split(".")[0] not in ALLOWED]


@pytest.mark.parametrize("source, found", [
    ("import numpy as np\nfrom numpy.lib import stride_tricks\nimport os.path", []),
    ("from __future__ import annotations\nfrom . import tensor\nfrom .errors import X", []),
    ("def f():\n    try:\n        import scipy.linalg\n    except ImportError:\n        pass",
     ["scipy.linalg"]),
    ("from torch import nn\nimport json, yaml", ["torch", "yaml"]),
])
def test_foreign_imports_finds_every_non_stdlib_module(source, found):
    assert foreign_imports(source) == found


def test_package_imports_only_stdlib_numpy_and_itself():
    files = sorted(PACKAGE.glob("*.py"))
    assert len(files) >= 10  # the scan found the package
    foreign = {f.name: foreign_imports(f.read_text(encoding="utf-8")) for f in files}
    assert not {name: mods for name, mods in foreign.items() if mods}
