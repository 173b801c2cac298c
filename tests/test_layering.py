"""Module layering: the gradient path never imports the test and tooling layers."""

import ast
from pathlib import Path

import pytest

import lora_kernels

# The gradient path and what it builds on; the test and tooling layers
# (oracle, harness, cli) may import these, never the other way round.
HOT_PATH = ("attention", "exact", "lowrank", "instrument", "errors")
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
