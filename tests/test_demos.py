"""Every script in ``demos/`` runs to completion against the current API,
with RuntimeWarnings raised as errors as in the rest of the suite.

Each demo runs in a fresh interpreter from a temporary working directory, so
whatever it writes lands there and never inside the checkout.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
DEMOS = ROOT / "demos"


@pytest.mark.parametrize("script", sorted(p.name for p in DEMOS.glob("*.py")))
def test_demo_runs_and_writes_only_to_cwd(tmp_path, script):
    before = sorted(os.listdir(DEMOS))
    path = filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(path))
    proc = subprocess.run([sys.executable, "-W", "error::RuntimeWarning", str(DEMOS / script)],
                          cwd=tmp_path, env=env, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    assert sorted(os.listdir(DEMOS)) == before
