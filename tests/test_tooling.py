"""The test configuration itself: pyproject's warning filters must let a
failing test be reported like any other."""

import subprocess
import sys
import textwrap
from pathlib import Path

PYPROJECT = Path(__file__).resolve().parents[1] / "pyproject.toml"

PROPERTY_TESTS = textwrap.dedent('''
    from hypothesis import given, settings, strategies as st


    @settings(database=None, derandomize=True)
    @given(st.integers())
    def test_fails(x):
        assert x > 10 ** 6


    def test_passes():
        pass
''')


def test_a_failing_property_test_does_not_end_the_session(tmp_path):
    """Hypothesis imports libcst to report a failing example.  Under
    error::DeprecationWarning alone, libcst's use of the deprecated
    mypy_extensions.TypedDict ends the session with INTERNALERROR, and the
    tests after the failing one never run."""
    (tmp_path / "test_property.py").write_text(PROPERTY_TESTS)
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
         "-c", str(PYPROJECT), "--rootdir", str(tmp_path),
         "test_property.py"],
        cwd=tmp_path, capture_output=True, text=True, timeout=300)
    out = proc.stdout + proc.stderr
    assert "INTERNALERROR" not in out, out
    assert "1 failed, 1 passed" in out, out
