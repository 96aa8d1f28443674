import glob
import hashlib
import os
import subprocess
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
DEMOS = sorted(glob.glob(os.path.join(ROOT, "demos", "*.py")))

# numpy is blocked, so a demo that still needs it fails to import it
RUN_WITHOUT_NUMPY = "import runpy, sys; sys.modules['numpy'] = None; runpy.run_path(sys.argv[1], run_name='__main__')"


def _run(demo, cwd):
    # the demos write .dot and .csv files into the working directory
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [os.path.join(ROOT, "src"), os.environ.get("PYTHONPATH")])))
    return subprocess.run(
        [sys.executable, "-c", RUN_WITHOUT_NUMPY, demo],
        cwd=cwd, env=env, capture_output=True, text=True, timeout=120,
    )


@pytest.mark.parametrize("demo", DEMOS, ids=os.path.basename)
def test_demo_runs_without_numpy(demo, tmp_path):
    proc = _run(demo, tmp_path)
    assert proc.returncode == 0, proc.stderr


def test_benchmark_pipeline_stdout_pinned(tmp_path):
    # the correlations and KS figures it prints over the seed-42 corpus
    proc = _run(os.path.join(ROOT, "demos", "benchmark_pipeline.py"), tmp_path)
    assert proc.returncode == 0, proc.stderr
    digest = hashlib.sha256(proc.stdout.encode()).hexdigest()
    assert digest == "48759849a89484b12644716dca7ffe2661ab2af9312f33101dc887882e3aef45", proc.stdout
