"""The test settings of pyproject.toml: a failing property test reports its
falsifying example, not an internal error of the session."""

import os
import subprocess
import sys
from pathlib import Path

PYPROJECT = Path(__file__).parents[1] / "pyproject.toml"

FAILING_PROPERTY = """\
from hypothesis import given, settings
from hypothesis import strategies as st


@settings(database=None, derandomize=True)
@given(st.integers())
def test_fails(x):
    assert x < 10
"""


def test_failing_property_reports_its_example(tmp_path):
    (tmp_path / "test_fails.py").write_text(FAILING_PROPERTY)
    # run in tmp_path, where hypothesis puts its .hypothesis/ directory;
    # with no other plugin the session starts in half the time.  The plugin
    # goes by its entry-point name: loaded as -p hypothesis, the session
    # ends without the INTERNALERROR even where the filter line is missing
    result = subprocess.run(
        [sys.executable, "-m", "pytest", "-c", str(PYPROJECT),
         "-p", "no:cacheprovider", "-p", "hypothesispytest", "test_fails.py"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
        env={**os.environ, "PYTEST_DISABLE_PLUGIN_AUTOLOAD": "1"})
    out = result.stdout + result.stderr
    assert result.returncode == 1, out
    assert "Falsifying example" in out
    assert "INTERNALERROR" not in out
