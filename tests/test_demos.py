"""Smoke test: the fast demos run to completion.

``demo_training_cv.py`` is left out; it trains three heads with
cross-validation and takes most of a minute.
"""

import os
import subprocess
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


@pytest.mark.parametrize("script", ["demo_autodiff.py", "demo_pooling_heads.py",
                                    "demo_pca_visualization.py"])
def test_demo_exits_0(script, tmp_path):
    env = dict(os.environ, TMPDIR=str(tmp_path))  # the PCA demo writes its CSVs there
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [os.path.join(ROOT, "src"), env.get("PYTHONPATH")]))
    done = subprocess.run([sys.executable, os.path.join(ROOT, "demos", script)],
                          env=env, capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr
