"""The pytest settings in ``pyproject.toml`` report a failing property as a
plain failure.

``filterwarnings = ["error"]`` also turns warnings raised inside plugins
into errors. Hypothesis' plugin touches a deprecated ``mypy_extensions``
name while it reports a failing example, and without the ignore entry for
that warning pytest ends its report in an ``INTERNALERROR`` traceback.
"""

import subprocess
import sys
from pathlib import Path

PYPROJECT = Path(__file__).resolve().parent.parent / "pyproject.toml"

FAILING_PROPERTY = """\
from hypothesis import given, strategies as st


@given(st.integers())
def test_property_fails(x):
    assert x < 0
"""


def test_failing_property_reports_without_internal_error(tmp_path):
    (tmp_path / "test_property.py").write_text(FAILING_PROPERTY)
    run = subprocess.run(
        [sys.executable, "-m", "pytest", "-c", str(PYPROJECT),
         "-p", "no:cacheprovider", "test_property.py"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert run.returncode == 1, run.stdout + run.stderr
    assert "1 failed" in run.stdout
    assert "INTERNALERROR" not in run.stdout + run.stderr
