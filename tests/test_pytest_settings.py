"""The suite's warning filters let a failing hypothesis test be reported.

``pytest.ini`` turns every warning into an error.  Hypothesis's failure
report raises a ``DeprecationWarning`` about ``mypy_extensions.TypedDict``,
which that rule would turn into an INTERNALERROR ending the session, so the
ini file ignores that one warning.
"""

import subprocess
import sys
from pathlib import Path

FAILING = '''
from hypothesis import given, settings
from hypothesis import strategies as st


@settings(database=None, derandomize=True, max_examples=5)
@given(st.integers())
def test_fails(x):
    assert x != x


def test_after_the_failure():
    pass
'''


def test_a_failing_hypothesis_test_is_reported_as_one_failure(tmp_path):
    path = tmp_path / "test_failing_given.py"
    path.write_text(FAILING)
    ini = Path(__file__).resolve().parents[1] / "pytest.ini"
    proc = subprocess.run([sys.executable, "-m", "pytest", "-q", "-c", str(ini),
                           "-p", "no:cacheprovider", str(path)],
                          cwd=tmp_path, capture_output=True, text=True, timeout=300)
    out = proc.stdout + proc.stderr
    assert proc.returncode == 1, out
    assert "1 failed, 1 passed" in out, out
    assert "INTERNALERROR" not in out, out
