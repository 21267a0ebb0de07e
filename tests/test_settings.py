"""The pytest settings in ``pyproject.toml``."""

import subprocess
import sys
from pathlib import Path

PYPROJECT = Path(__file__).resolve().parent.parent / "pyproject.toml"

SAMPLE = '''
from hypothesis import given, strategies as st


@given(st.integers())
def test_fails(x):
    assert x < 5


def test_passes():
    pass
'''


def test_hypothesis_failure_leaves_later_tests_running(tmp_path):
    """On a failure hypothesis imports libcst, whose import of the
    deprecated ``mypy_extensions.TypedDict`` warns.  Under the settings'
    error filters that warning must not end the session: the test after the
    failing one still runs."""
    (tmp_path / "test_sample.py").write_text(SAMPLE)
    result = subprocess.run(
        [sys.executable, "-m", "pytest", "-c", str(PYPROJECT), "-q",
         "-p", "no:cacheprovider", "test_sample.py"],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert "INTERNALERROR" not in result.stdout + result.stderr
    assert "1 failed, 1 passed" in result.stdout
