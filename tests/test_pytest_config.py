"""The pytest configuration: every warning fails the run, and a failing
hypothesis test still lets the later tests run."""

import subprocess
import sys
import warnings
from pathlib import Path

import pytest

PYPROJECT = Path(__file__).resolve().parent.parent / "pyproject.toml"

GIVEN_THEN_PLAIN = '''
from hypothesis import given, strategies as st


@given(st.integers())
def test_fails(x):
    assert x < 0


def test_passes():
    pass
'''


def test_a_failing_given_test_does_not_stop_the_run(tmp_path):
    # hypothesis explains a failure by importing libcst, which warns
    (tmp_path / "test_given.py").write_text(GIVEN_THEN_PLAIN)
    argv = ["-c", str(PYPROJECT), "--rootdir", str(tmp_path), "-p", "no:cacheprovider"]
    result = subprocess.run(
        [sys.executable, "-m", "pytest", *argv, "test_given.py"],
        cwd=tmp_path,
        capture_output=True,
        text=True,
    )
    assert result.returncode == 1, result.stdout + result.stderr
    assert "INTERNALERROR" not in result.stdout + result.stderr
    assert "1 failed, 1 passed" in result.stdout.splitlines()[-1]


def test_other_deprecation_warnings_still_fail():
    with pytest.raises(DeprecationWarning):
        warnings.warn("some other API is deprecated", DeprecationWarning)
