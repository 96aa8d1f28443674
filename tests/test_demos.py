import glob
import os
import subprocess
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
DEMOS = sorted(glob.glob(os.path.join(ROOT, "demos", "*.py")))

# numpy is blocked, so a demo that still needs it fails to import it
RUN_WITHOUT_NUMPY = "import runpy, sys; sys.modules['numpy'] = None; runpy.run_path(sys.argv[1], run_name='__main__')"


@pytest.mark.parametrize("demo", DEMOS, ids=os.path.basename)
def test_demo_runs_without_numpy(demo, tmp_path):
    # the demos write .dot and .csv files into the working directory
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [os.path.join(ROOT, "src"), os.environ.get("PYTHONPATH")])))
    proc = subprocess.run(
        [sys.executable, "-c", RUN_WITHOUT_NUMPY, demo],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
