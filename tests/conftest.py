import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, settings

from lora_kernels import attention

settings.register_profile(
    "ci",
    derandomize=True,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("ci")


@pytest.fixture
def rng():
    return np.random.default_rng(1234)


def fresh_python(code):
    """stdout of code run by a new interpreter that imports this tree's package."""
    src = str(Path(attention.__file__).parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True,
        check=True,
    )
    return out.stdout


def dense_q(pair):
    """q = C3 @ c.T built whole from its rank-d pair (C3, c)."""
    C3, c = pair
    return C3 @ c.T


# Rows per block in the row-blocking tests.
BLOCK_ROWS = 4


@pytest.fixture(params=(1, BLOCK_ROWS - 1, BLOCK_ROWS + 1, 3 * BLOCK_ROWS + 5))
def blocked_L(request, monkeypatch):
    """An L whose L x L passes run in blocks of BLOCK_ROWS rows, the last ragged."""
    monkeypatch.setattr(attention, "BLOCK_ELEMENTS", BLOCK_ROWS * request.param)
    return request.param
