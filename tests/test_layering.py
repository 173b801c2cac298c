"""Module layering: the gradient path never imports the test and tooling layers."""

import ast
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import lora_kernels

# The gradient path and what it builds on, with the package root that loads
# before any of them; the test and tooling layers (oracle, harness, cli) may
# import these, never the other way round.
HOT_PATH = ("__init__", "attention", "exact", "lowrank", "instrument", "errors")
UPPER = {"oracle", "harness", "cli"}


def imported_modules(path):
    """Last dotted component of every module or name an import statement names."""
    names = set()
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Import):
            names.update(alias.name.split(".")[-1] for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            if node.module:
                names.add(node.module.split(".")[-1])
            names.update(alias.name for alias in node.names)
    return names


@pytest.mark.parametrize("module", HOT_PATH)
def test_hot_path_does_not_import_upper_layers(module):
    path = Path(lora_kernels.__file__).with_name(f"{module}.py")
    assert not imported_modules(path) & UPPER


def test_detects_an_upper_layer_import(tmp_path):
    src = tmp_path / "mod.py"
    src.write_text("from . import instrument\nfrom .oracle import fd_grad\n")
    assert imported_modules(src) & UPPER == {"oracle"}


def test_gradient_path_loads_only_the_gradient_path():
    # The static check above reads each file; this one asks a fresh
    # interpreter which package modules the import really loads.
    src = str(Path(lora_kernels.__file__).parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    code = (
        "import json, sys\n"
        "import lora_kernels.lowrank, lora_kernels.exact\n"
        "print(json.dumps(sorted(m for m in sys.modules "
        "if m.split('.')[0] == 'lora_kernels')))\n"
    )
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True,
        check=True,
    )
    gradient_path = ("attention", "errors", "exact", "instrument", "lowrank")
    assert json.loads(out.stdout) == [
        "lora_kernels",
        *(f"lora_kernels.{m}" for m in gradient_path),
    ]
