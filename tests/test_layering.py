"""Module layering: the gradient path never imports the test and tooling layers."""

import ast
import json
from pathlib import Path

import pytest

import lora_kernels
from conftest import fresh_python

# The gradient path and what it builds on, with the package root that loads
# before any of them; the test and tooling layers (oracle, harness, cli) may
# import these, never the other way round.
HOT_PATH = ("__init__", "attention", "exact", "lowrank", "instrument", "errors")
UPPER = {"oracle", "harness", "cli"}
# The gradient-path modules whose buffers must all come from instrument.empty.
BUFFER_MODULES = ("attention", "exact", "lowrank")
RAW_ALLOCATORS = {"empty", "empty_like"}
# errors.as_matrix is the one finiteness check of an input matrix; oracle.fd_grad
# also checks its scalar loss values.
FINITENESS_CHECKERS = {"errors", "oracle"}
# attention.softmax_rows is the package's one softmax, and the one place its
# normalization is deferred to (E, z); the oracle builds its own references.
EXP_CALLERS = {"attention", "oracle"}
# The forward pass's stages; every other module reaches them through
# attention's forward_f, forward_output and loss, so there is one forward.
FORWARD_STAGES = {"score_matrix", "softmax_rows", "normalize"}
# attention.compose_general_constants is the one home of how a GeneralInstance
# becomes a special-case problem, so only attention reads its frozen weights.
FROZEN_WEIGHTS = {"WQstar", "WKstar", "WVstar"}
WEIGHT_READERS = {"attention"}
PACKAGE_MODULES = {p.stem for p in Path(lora_kernels.__file__).parent.glob("*.py")}


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


def numpy_calls(path, names):
    """The np.<name> calls in a module's source, for name in names."""
    return [
        f"{node.func.value.id}.{node.func.attr}"
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.Call)
        and isinstance(node.func, ast.Attribute)
        and isinstance(node.func.value, ast.Name)
        and node.func.value.id in {"np", "numpy"}
        and node.func.attr in names
    ]


@pytest.mark.parametrize("module", BUFFER_MODULES)
def test_buffers_come_from_the_allocation_rule(module):
    # A bare np.empty would bypass the size guard and the recorded peak.
    path = Path(lora_kernels.__file__).with_name(f"{module}.py")
    assert numpy_calls(path, RAW_ALLOCATORS) == []


def test_detects_a_raw_allocation(tmp_path):
    src = tmp_path / "mod.py"
    src.write_text(
        "import numpy as np\n"
        "a = instrument.empty((2, 2))\n"
        "b = np.empty_like(a)\n"
        "c = np.empty((3,))\n"
    )
    assert numpy_calls(src, RAW_ALLOCATORS) == ["np.empty_like", "np.empty"]


@pytest.mark.parametrize("module", sorted(PACKAGE_MODULES - FINITENESS_CHECKERS))
def test_inputs_are_checked_by_the_input_rule(module):
    # A hand-written finiteness check drifts from as_matrix's message and
    # error type; input matrices go through as_matrix instead.
    path = Path(lora_kernels.__file__).with_name(f"{module}.py")
    assert numpy_calls(path, {"isfinite"}) == []


def test_detects_a_finiteness_check(tmp_path):
    src = tmp_path / "mod.py"
    src.write_text(
        "import numpy as np\n"
        "M = as_matrix(M, 'M', (2, 2))\n"
        "if not np.isfinite(M).all():\n"
        "    raise ValueError('M is not finite')\n"
    )
    assert numpy_calls(src, {"isfinite"}) == ["np.isfinite"]


@pytest.mark.parametrize("module", sorted(PACKAGE_MODULES - EXP_CALLERS))
def test_exp_is_called_by_the_one_softmax(module):
    # A second exp would be a second softmax, with its own shift rule and
    # its own idea of whether f is normalized.
    path = Path(lora_kernels.__file__).with_name(f"{module}.py")
    assert numpy_calls(path, {"exp"}) == []


def test_detects_an_exp_call(tmp_path):
    src = tmp_path / "mod.py"
    src.write_text(
        "import numpy as np\n"
        "f = np.exp(S - S.max(axis=1, keepdims=True))\n"
        "f /= f.sum(axis=1, keepdims=True)\n"
    )
    assert numpy_calls(src, {"exp"}) == ["np.exp"]


def attribute_reads(path, names):
    """The .<name> attribute reads in a module's source, for name in names."""
    return [
        node.attr
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.Attribute)
        and isinstance(node.ctx, ast.Load)
        and node.attr in names
    ]


def forward_stage_uses(path):
    """The forward stages a module imports or reads off another module."""
    return imported_modules(path) & FORWARD_STAGES | set(
        attribute_reads(path, FORWARD_STAGES)
    )


@pytest.mark.parametrize("module", sorted(PACKAGE_MODULES - {"attention"}))
def test_forward_stages_are_used_by_no_other_module(module):
    # A module that chains the stages itself is a second forward pass, free
    # to drift from attention's normalization and range checks.
    path = Path(lora_kernels.__file__).with_name(f"{module}.py")
    assert forward_stage_uses(path) == set()


def test_detects_a_forward_stage_use(tmp_path):
    src = tmp_path / "mod.py"
    src.write_text(
        "from . import attention\n"
        "from .attention import forward_output, normalize, score_matrix\n"
        "f = normalize(attention.softmax_rows(*score_matrix(L, R)))\n"
    )
    assert forward_stage_uses(src) == {"normalize", "score_matrix", "softmax_rows"}


@pytest.mark.parametrize("module", sorted(PACKAGE_MODULES - WEIGHT_READERS))
def test_frozen_weights_are_read_by_the_one_composition(module):
    # A second reader would be a second composition of the two-sided
    # problem, free to drift from compose_general_constants' scales.
    path = Path(lora_kernels.__file__).with_name(f"{module}.py")
    assert attribute_reads(path, FROZEN_WEIGHTS) == []


def test_detects_a_frozen_weight_read(tmp_path):
    src = tmp_path / "mod.py"
    src.write_text(
        "g = GeneralInstance(XQ=X, XK=X, XV=X, WQstar=W, WKstar=W, WVstar=W, Y=X)\n"
        "C3 = g.XV @ g.WVstar\n"
        "WK = g.WKstar + adpK.scale * adpK.delta()\n"
    )
    assert attribute_reads(src, FROZEN_WEIGHTS) == ["WVstar", "WKstar"]


def test_gradient_path_loads_only_the_gradient_path():
    # The static check above reads each file; this one asks a fresh
    # interpreter which package modules the import really loads.
    code = (
        "import json, sys\n"
        "import lora_kernels.lowrank, lora_kernels.exact\n"
        "print(json.dumps(sorted(m for m in sys.modules "
        "if m.split('.')[0] == 'lora_kernels')))\n"
    )
    gradient_path = ("attention", "errors", "exact", "instrument", "lowrank")
    assert json.loads(fresh_python(code)) == [
        "lora_kernels",
        *(f"lora_kernels.{m}" for m in gradient_path),
    ]
