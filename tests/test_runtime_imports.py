"""The runtime imports numpy and nothing heavier.

A fresh interpreter imports clspool and its CLI and runs every command's
code path once: cross-validated training, evaluation, a [CLS] dump, its
projection and the gradient check. No scipy module may be loaded by the end; scipy.special
alone costs about 24 MB of resident memory.
"""

import os
import subprocess
import sys

import clspool

SRC = os.path.dirname(os.path.dirname(os.path.abspath(clspool.__file__)))

SCRIPT = """
import sys, tempfile
import clspool.cli
from clspool import (EncoderConfig, PooledClassifier, TrainConfig, cross_validated_train,
                     dump_trace, evaluate, project_dump_dir, run_gradcheck, synth_generate)
from clspool import rng

res = cross_validated_train(synth_generate(24, seed=0),
                            EncoderConfig(L=2, H=8, A=2, F=8, V=1, S_max=32), "lstm",
                            TrainConfig(epochs=1, folds=2, batch_size=8))
model = PooledClassifier(res.model_config, "lstm", 3, rng.rng_for(0, 0))
evaluate(model, res.arrays)
with tempfile.TemporaryDirectory() as tmp:
    dump_trace(model, res.arrays, 1, [1, 2], tmp + "/dumps")
    project_dump_dir(tmp + "/dumps", tmp + "/proj")
ok, _ = run_gradcheck(seeds=1)
assert ok
print(sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy.")))
"""


def test_no_scipy_module_on_the_runtime_path():
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [SRC, os.environ.get("PYTHONPATH")])))
    done = subprocess.run([sys.executable, "-c", SCRIPT], env=env, capture_output=True,
                          text=True, timeout=300)
    assert done.returncode == 0, done.stderr
    assert done.stdout.splitlines()[-1] == "[]"
