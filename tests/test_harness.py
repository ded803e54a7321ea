"""The test session itself: one failing test does not end the run.

A planted file with a failing @given test and a plain test after it runs in
a pytest subprocess under this suite's conftest.py and pytest settings, and
both outcomes must appear in its summary.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
from pathlib import Path

import bilingap

TESTS = Path(__file__).resolve().parent

PLANTED = '''
from hypothesis import given, settings
from hypothesis import strategies as st


@given(st.integers())
@settings(max_examples=5, deadline=None, database=None)
def test_fails(x):
    assert False


def test_after():
    pass
'''


def test_a_failing_given_test_does_not_end_the_session(tmp_path):
    shutil.copy(TESTS / "conftest.py", tmp_path)
    shutil.copy(TESTS.parent / "pyproject.toml", tmp_path)
    (tmp_path / "test_planted.py").write_text(PLANTED)
    src = str(Path(bilingap.__file__).resolve().parent.parent)
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    out = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider", str(tmp_path)],
        cwd=tmp_path, env=env, capture_output=True, text=True,
    )
    assert "INTERNALERROR" not in out.stdout + out.stderr
    assert out.stdout.strip().splitlines()[-1].startswith("1 failed, 1 passed"), out.stdout[-2000:]
