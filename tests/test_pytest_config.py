"""The test configuration itself: a failing property test reports its counterexample."""

import subprocess
import sys
from pathlib import Path

PYPROJECT = Path(__file__).resolve().parents[1] / "pyproject.toml"

FAILING_PROPERTY = '''
from hypothesis import given
from hypothesis import strategies as st


@given(st.integers())
def test_fails(x):
    assert x < 0


def test_passes():
    pass
'''


def test_failing_property_is_reported_not_an_internal_error(tmp_path):
    # Every warning is an error under the repo's filters; a warning raised
    # inside hypothesis's report hook would end the session with
    # INTERNALERROR, before the counterexample and the later tests.
    src = tmp_path / "test_property.py"
    src.write_text(FAILING_PROPERTY)
    out = subprocess.run(
        [sys.executable, "-m", "pytest", "-c", str(PYPROJECT),
         "-p", "no:cacheprovider", str(src)],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    report = out.stdout + out.stderr
    assert "INTERNALERROR" not in report, report
    assert "Falsifying example" in report, report
    assert "1 failed, 1 passed" in report, report
    assert out.returncode == 1, report
