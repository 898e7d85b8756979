"""Benchmark of the clspool training job, one workload per invocation.

    python3 perfbench/run.py --workload cv-short --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 30 --trace 0

It builds the workload's inputs from ``--seed``, then repeats the job (set-up,
then the job itself, then checks on its outputs) for about ``--seconds``
seconds, at least twice; ``--workload all`` runs every workload in turn,
each in a process of its own. With ``--trace 0`` it reports the end-to-end metrics;
with ``--trace 1`` each repetition runs the job untraced and then traced, and
it reports the per-layer metrics. A human-readable report comes first; the
last line of standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``. The full record (machine, config,
samples, self-time table) is written to ``--out``, and with ``--trace 1`` the
spans as well. BLAS runs on one thread. The clspool package is imported from
``src/`` next to this directory, never from anywhere else.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SETUP_REPS = 3      # set-ups timed per repetition, so setup_s is a median of many
MIN_REPEATS = 2     # the second repetition is the same-seed rerun that is checked

END_TO_END = {
    "setup_s": "s", "job_s": "s", "train_ex_per_s": "ex/s", "eval_ex_per_s": "ex/s",
    "peak_rss_mb": "MB", "heldout_acc": "fraction", "final_loss": "nats",
}


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--tiny", action="store_true", help="smoke-test size")
    p.add_argument("--out", default=os.path.join(ROOT, ".perfbench_out"),
                   help="directory for the full record and scratch files")
    return p.parse_args(argv)


def import_program():
    """Pin BLAS to one thread, then import clspool from ``src/`` in this checkout."""
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    src = os.path.join(ROOT, "src")
    sys.path.insert(0, src)
    try:
        import clspool
    except ImportError as e:
        sys.exit(f"error: cannot import clspool from {src}: {e}")
    if not os.path.abspath(clspool.__file__).startswith(src + os.sep):
        sys.exit(f"error: clspool imported from {clspool.__file__}, not from {src}")


def blas_threads():
    """Threads the loaded OpenBLAS will use, asked of the library itself (None if unknown)."""
    import ctypes
    try:
        with open("/proc/self/maps", encoding="utf-8") as f:
            libs = sorted({line.split()[-1] for line in f
                           if "openblas" in line.lower() and line.split()[-1].startswith("/")})
    except OSError:
        return None
    for path in libs:
        lib = ctypes.CDLL(path)
        for sym in ("openblas_get_num_threads", "scipy_openblas_get_num_threads64_",
                    "openblas_get_num_threads64_"):
            fn = getattr(lib, sym, None)
            if fn is not None:
                fn.restype, fn.argtypes = ctypes.c_int, []
                return fn()
    return None


def machine_record():
    import numpy as np
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):
        blas = {}
    cpu = None
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as f:
            cpu = next((line.split(":", 1)[1].strip() for line in f
                        if line.startswith("model name")), None)
    except OSError:
        pass
    return {
        "python": platform.python_version(), "numpy": np.__version__,
        "blas": {k: blas.get(k) for k in ("name", "version", "openblas configuration")},
        "blas_threads": blas_threads(), "cpu_count": os.cpu_count(),
        "cpu_affinity": len(os.sched_getaffinity(0)), "cpu_model": cpu,
        "platform": platform.platform(),
    }


def run_once(spec, seed, paths, workdir, ledger, tracer=None):
    """Set up and run the job once; return (outcome, state, meter, setup s, job s)."""
    import workloads as W
    from clspool import train
    from tracing import instrumented, patched, traced_fit

    meter = W.Meter(ledger)
    fit, evaluate = train.train_model, train.evaluate
    replacements = []
    if tracer is not None:
        fit = tracer.wrap(traced_fit(tracer), "train.fit")
        evaluate = tracer.wrap(evaluate, "train.evaluate")
        replacements = instrumented(tracer)
    replacements += [(train, "train_model", meter.fit(fit)),
                     (train, "evaluate", meter.evaluate(evaluate))]
    os.makedirs(workdir, exist_ok=True)
    with patched(replacements):
        t0 = time.perf_counter()
        st = W.setup(spec, seed, paths)
        t1 = time.perf_counter()
        out = W.job(spec, seed, st, workdir, ledger)
        t2 = time.perf_counter()
    out.losses = meter.losses
    W.check(spec, st, out, ledger)
    return out, st, meter, t1 - t0, t2 - t1


def layer_metrics(tracer, repeats, st, ref, overhead):
    import numpy as np
    from tracing import durations_ms

    spans = tracer.spans

    def pct(values, q):
        return float(np.percentile(values, q)) if values else 0.0

    def per_job(name):
        return sum(durations_ms(spans, name)) / repeats

    def in_step(name):
        return durations_ms(spans, name, parent="train.step")

    m = {}
    for key, values in (("encoder.forward_ms", in_step("encoder.forward")),
                        ("tensor.backward_ms", in_step("tensor.backward")),
                        ("model.predict_ms", durations_ms(spans, "model.predict", "train.evaluate")),
                        ("train.step_ms", durations_ms(spans, "train.step"))):
        m[key + ".p50"] = (pct(values, 50), "ms")
        m[key + ".p90"] = (pct(values, 90), "ms")
    m["tensor.tape_nodes"] = (float(np.median([t[0] for t in tracer.tape])), "count")
    m["tensor.tape_bytes"] = (float(max(t[1] for t in tracer.tape)), "bytes")
    for key, name in (("pooling.pool_ms", "pooling.pool"), ("pooling.classify_ms", "pooling.classify"),
                      ("train.loss_ms", "train.loss"), ("train.adam_ms", "train.adam")):
        m[key] = (pct(in_step(name), 50), "ms")
    for name in ("data.load", "data.vocab", "data.pack", "model.init", "train.kfold",
                 "checkpoint.save", "checkpoint.load", "analysis.dump", "analysis.project",
                 "train.evaluate"):
        m[name + "_ms"] = (per_job(name), "ms")
    mask = st.arrays[2]
    m["data.padded_len"] = (float(mask.shape[1]), "tokens")
    m["data.pad_fraction"] = (float(1.0 - mask.mean()), "fraction")
    m["checkpoint.bytes"] = (float(ref.ckpt_bytes), "bytes")
    m["trace.overhead"] = (overhead, "ratio")
    return m


def main(argv=None):
    args = parse_args(argv)
    import_program()
    import workloads as W
    from tracing import Tracer, self_times, step_coverage

    if args.workload == "all":
        # Each workload in a process of its own, so peak_rss_mb is its own.
        status = 0
        for name in W.WORKLOADS:
            argv = [sys.executable, os.path.abspath(__file__), "--workload", name,
                    "--seed", str(args.seed), "--seconds", str(args.seconds),
                    "--trace", str(args.trace), "--out", args.out] + ["--tiny"] * args.tiny
            status = status or subprocess.run(argv, check=False).returncode
        return status
    if args.workload not in W.WORKLOADS:
        sys.exit(f"error: unknown workload {args.workload!r}, "
                 f"expected 'all' or one of {sorted(W.WORKLOADS)}")
    spec = W.WORKLOADS[args.workload]
    if args.tiny:
        spec = W.tiny(spec)
    machine = machine_record()
    if machine["blas_threads"] not in (None, 1):
        sys.exit(f"error: BLAS uses {machine['blas_threads']} threads, expected 1")

    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    workdir = os.path.join(args.out, f"work-{tag}-{os.getpid()}")
    try:
        paths, hist = W.write_inputs(spec, args.seed, workdir)
        ledger = W.Ledger()
        setup_s = []

        tracer = Tracer() if args.trace else None
        job_s, traced_job_s, meters = [], [], []
        ref = None
        start = time.perf_counter()
        while True:
            began = time.perf_counter()
            failed_before = ledger.failed
            try:
                for _ in range(SETUP_REPS - 1):
                    t0 = time.perf_counter()
                    W.setup(spec, args.seed, paths)
                    setup_s.append(time.perf_counter() - t0)
                out, st, meter, s, j = run_once(spec, args.seed, paths,
                                                os.path.join(workdir, "plain"), ledger)
                if tracer is not None:
                    tout, _, tmeter, _, tj = run_once(spec, args.seed, paths,
                                                      os.path.join(workdir, "traced"),
                                                      ledger, tracer)
            except Exception as e:
                # An operation that raised is already counted; anything else is one more.
                if ledger.failed == failed_before:
                    ledger.fail("job", 1, f"{type(e).__name__}: {e}")
                    ledger.attempted += 1
                break
            setup_s.append(s)
            job_s.append(j)
            meters.append(meter)
            if ref is None:
                ref, ref_state = out, st
            else:
                W.check_same(spec, out, ref, meter.steps, ledger, "same-seed rerun")
            if tracer is not None:
                traced_job_s.append(tj)
                W.check_same(spec, tout, out, tmeter.steps, ledger, "traced run")
            # Stop once another repetition would end more than half of one past the budget.
            now = time.perf_counter()
            if len(job_s) >= MIN_REPEATS and now - start + (now - began) / 2 > args.seconds:
                break
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    if ref is None:
        sys.exit("error: no repetition of the job completed: " + "; ".join(ledger.errors))
    record = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
              "tiny": args.tiny, "spec": dataclasses.asdict(spec), "machine": machine,
              "repeats": len(job_s), "measured_s": time.perf_counter() - start,
              "length_histogram": hist, "errors": ledger.errors,
              "samples": {"setup_s": setup_s, "job_s": job_s, "traced_job_s": traced_job_s}}
    if args.trace:
        overhead = statistics.median(traced_job_s) / statistics.median(job_s)
        metrics = layer_metrics(tracer, len(traced_job_s), ref_state, ref, overhead)
        record["self_times"] = self_times(tracer.spans)
        record["step_coverage"] = step_coverage(tracer.spans)
    else:
        values = {
            "setup_s": statistics.median(setup_s),
            "job_s": statistics.median(job_s),
            "train_ex_per_s": statistics.median(r for m in meters for r in m.train_rates),
            "eval_ex_per_s": statistics.median(r for m in meters for r in m.eval_rates),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
            "heldout_acc": ref.heldout_acc,
            "final_loss": ref.losses[-1][-1],
        }
        metrics = {k: (v, END_TO_END[k]) for k, v in values.items()}
    record["metrics"] = {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}
    record["attempted"], record["failed"] = ledger.attempted, ledger.failed

    os.makedirs(args.out, exist_ok=True)
    with open(os.path.join(args.out, f"{tag}.json"), "w", encoding="utf-8") as f:
        json.dump(record, f, indent=1, default=str)
    if tracer is not None:
        with open(os.path.join(args.out, f"{tag}-spans.json"), "w", encoding="utf-8") as f:
            json.dump(tracer.spans, f)

    print(f"machine {json.dumps(machine, sort_keys=True)}")
    print(f"workload {args.workload} seed {args.seed} trace {args.trace}: "
          f"{len(job_s)} repetitions in {record['measured_s']:.1f} s")
    print(f"  packed length histogram {hist}")
    if args.trace:
        layers = record["self_times"]["layers_self_ms"]
        print("  self time per layer, ms: "
              + ", ".join(f"{k} {v:.1f}" for k, v in sorted(layers.items(), key=lambda kv: -kv[1])))
    for name, (value, unit) in metrics.items():
        print(f"  {name:<24} {value:.6g} {unit}")
    print(f"  {'error_rate':<24} {ledger.failed / ledger.attempted:.6g} "
          f"({ledger.failed} of {ledger.attempted} operations failed)")
    for err in ledger.errors:
        print(f"  FAILED {err}")
    print(json.dumps({"correct": ledger.failed == 0, "attempted": ledger.attempted,
                      "failed": ledger.failed, "metrics": record["metrics"]}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
