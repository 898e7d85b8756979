"""Smoke test of the benchmark itself, at a tiny size.

    python3 -m pytest perfbench/test_smoke.py -q

It checks that every metric named in BENCHMARK.json is printed with its
unit, that the traced run's per-step losses equal the untraced run's bit
for bit, that the per-step spans cover the step time apart from the
harness's own bookkeeping, and that the benchmark refuses to run without
the program's sources.
"""

import json
import math
import os
import shutil
import statistics
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path[:0] = [os.path.join(ROOT, "src"), HERE]

import workloads as W  # noqa: E402
from clspool import train  # noqa: E402
from run import run_once  # noqa: E402
from tracing import Tracer, patched, step_coverage  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
    BENCH = json.load(f)
NAMES = [w["name"] for w in BENCH["workloads"]]


def bench(cwd, *args):
    return subprocess.run([sys.executable, "perfbench/run.py", *args],
                          cwd=cwd, capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", NAMES)
def test_every_metric_printed_with_unit(tmp_path, workload, trace):
    proc = bench(ROOT, "--workload", workload, "--seed", "3", "--seconds", "1",
                 "--trace", str(trace), "--tiny", "--out", str(tmp_path))
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert sorted(result) == ["attempted", "correct", "failed", "metrics"]
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    wanted = {m["name"]: m["unit"] for m in BENCH["per_layer" if trace else "end_to_end"]}
    assert sorted(result["metrics"]) == sorted(wanted)
    for name, metric in result["metrics"].items():
        assert metric["unit"] == wanted[name]
        assert math.isfinite(metric["value"])
        assert name in proc.stdout.split("\n", 2)[2]   # in the human-readable report too


@pytest.fixture(scope="module", params=NAMES)
def both_runs(request, tmp_path_factory):
    """One tiny job untraced (recording each step's loss) and once traced."""
    tmp = tmp_path_factory.mktemp(request.param)
    spec = W.tiny(W.WORKLOADS[request.param])
    paths, _ = W.write_inputs(spec, 5, str(tmp))
    ledger = W.Ledger()
    step_losses = []

    def recording_loss(*args, **kwargs):
        loss = regularized_loss(*args, **kwargs)
        step_losses.append(loss)
        return loss

    regularized_loss = train.regularized_loss
    with patched([(train, "regularized_loss", recording_loss)]):
        plain = run_once(spec, 5, paths, str(tmp / "plain"), ledger)[0]
    tracer = Tracer()
    traced = run_once(spec, 5, paths, str(tmp / "traced"), ledger, tracer)[0]
    return [loss.item() for loss in step_losses], plain, traced, tracer, ledger


def test_traced_losses_equal_untraced(both_runs):
    untraced_steps, plain, traced, tracer, ledger = both_runs
    assert tracer.losses == untraced_steps
    assert traced.losses == plain.losses
    assert traced.params_sha == plain.params_sha
    assert ledger.failed == 0, ledger.errors


def test_spans_cover_each_step(both_runs):
    tracer = both_runs[3]
    coverage = step_coverage(tracer.spans)
    assert len(coverage) == len(tracer.losses)
    assert statistics.median(coverage) > 0.97
    assert min(coverage) > 0.9


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    proc = bench(tmp_path, "--workload", NAMES[0], "--seed", "1", "--seconds", "1",
                 "--trace", "0")
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
