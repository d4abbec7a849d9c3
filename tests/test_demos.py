"""Every demo runs to completion against the package in ``src``.

The demos are the only code that imports from the top-level ``privis``
namespace, so this also checks that every name they use is still exported.
"""

import glob
import os
import subprocess
import sys

import pytest

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
DEMOS = sorted(glob.glob(os.path.join(REPO, "demos", "*.py")))


@pytest.mark.parametrize("path", DEMOS, ids=os.path.basename)
def test_demo_runs(path, tmp_path):
    # the child does not inherit pytest's -W flags; fail it on the same warnings
    env = dict(
        os.environ,
        PYTHONPATH=os.path.join(REPO, "src"),
        PYTHONWARNINGS="error::DeprecationWarning,error::RuntimeWarning",
    )
    proc = subprocess.run(
        [sys.executable, path], cwd=tmp_path, env=env, capture_output=True, text=True, timeout=120
    )
    assert proc.returncode == 0, proc.stderr


def test_demos_found():
    assert DEMOS
