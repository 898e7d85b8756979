"""The benchmark's workloads: seeded input generators, set-up, the job and its checks.

Each workload is a closed loop with one caller: the job runs from start to
end, its outputs are checked, and only then does the next repetition start.
The program receives only the JSONL files written here; it never sees the
seed.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import time
from collections import Counter
from contextlib import contextmanager
from dataclasses import dataclass, replace

import numpy as np

from clspool import analysis, data, train
from clspool import rng as rng_mod
from clspool.encoder import EncoderConfig
from clspool.model import PooledClassifier

ENCODER = dict(L=4, H=32, A=4, F=64)
S_MAX = 64
EVAL_BATCH = 64
LABELS = ("negative", "neutral", "positive")
ASPECTS = 6     # aspect pool; a fixed-length pair names every aspect once
AGREE = 0.9     # chance that a distractor marker carries the label's sentiment
FLIP = 0.2      # share of training labels replaced by a wrong one


@dataclass(frozen=True)
class Spec:
    pooling: str
    batch_size: int
    epochs: int
    lr: float
    n_train: int
    n_heldout: int
    text_len: tuple            # (shortest, longest) text_a, in tokens
    folds: int = 0   # >0: the paper's protocol, with CV, a checkpoint round trip,
                     # and a [CLS] dump and projection; 0: train and evaluate only


WORKLOADS = {
    "cv-short": Spec("lstm", 32, 4, 3e-3, 240, 240, (6, 6), folds=3),
    "small-batch": Spec("lstm", 8, 4, 2e-3, 240, 240, (6, 6)),
    "long-padded": Spec("attention", 16, 4, 3e-3, 192, 128, (3, 28)),
}


def tiny(spec):
    """The same job at smoke-test size."""
    return replace(spec, epochs=1, n_train=24, n_heldout=12, folds=min(spec.folds, 2))


def encoder_config(vocab_size):
    return EncoderConfig(V=vocab_size, S_max=S_MAX, **ENCODER)


def train_config(spec, seed):
    return train.TrainConfig(lr=spec.lr, epochs=spec.epochs, folds=max(spec.folds, 2),
                             seed=seed, batch_size=spec.batch_size)


# ---------------------------------------------------------------------------
# inputs


def generate(n, seed, stream, text_len, flip):
    """``n`` absa records whose text_a lengths spread evenly over ``text_len``.

    Every text_a token is a ``topic{a}_sent{c}`` marker: the first
    ``min(length, ASPECTS)`` name distinct aspects, the rest repeat aspects
    at random. The aspect field names the first marker's aspect and the label
    is that marker's sentiment; every other marker agrees with the label at
    rate ``AGREE``. Then exactly ``round(flip * n)`` labels are replaced by a
    wrong one, so the training loss settles at a floor.
    """
    rng = np.random.default_rng([seed, stream])
    lengths = rng.permutation(np.rint(np.linspace(*text_len, n)).astype(int))
    labels = rng.permutation(np.arange(n) % len(LABELS))
    records = []
    for length, label in zip(lengths.tolist(), labels.tolist()):
        aspects = rng.permutation(ASPECTS)[:min(length, ASPECTS)].tolist()
        aspects += rng.integers(ASPECTS, size=length - len(aspects)).tolist()
        words = [f"topic{a}_sent{label if i == 0 or rng.random() < AGREE else int(rng.integers(3))}"
                 for i, a in enumerate(aspects)]
        rng.shuffle(words)
        records.append({"text": " ".join(words), "aspect": f"topic{aspects[0]}", "label": label})
    for i in rng.choice(n, size=round(flip * n), replace=False).tolist():
        records[i]["label"] = (records[i]["label"] + int(rng.integers(1, 3))) % len(LABELS)
    for r in records:
        r["label"] = LABELS[r["label"]]
    return records


def write_inputs(spec, seed, workdir):
    """Write the training and held-out JSONL files; return their paths and the
    histogram of packed training lengths ([CLS] a [SEP] b [SEP])."""
    os.makedirs(workdir, exist_ok=True)
    paths = []
    for name, stream, n, flip in (("train", 0, spec.n_train, FLIP),
                                  ("heldout", 1, spec.n_heldout, 0.0)):
        records = generate(n, seed, stream, spec.text_len, flip)
        path = os.path.join(workdir, f"{name}.jsonl")
        with open(path, "w", encoding="utf-8") as f:
            f.writelines(json.dumps(r, sort_keys=True) + "\n" for r in records)
        paths.append(path)
        if name == "train":
            hist = Counter(len(r["text"].split()) + len(r["aspect"].split()) + 3 for r in records)
    return paths, dict(sorted(hist.items()))


# ---------------------------------------------------------------------------
# operation counts


class Ledger:
    """Operations attempted and failed (train steps, eval batches, artifact calls)."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.errors = []

    @contextmanager
    def op(self, name, n=1):
        self.attempted += n
        try:
            yield
        except Exception as e:
            self.fail(name, n, f"{type(e).__name__}: {e}")
            raise

    def fail(self, name, n, why):
        self.failed += n
        if len(self.errors) < 20:
            self.errors.append(f"{name}: {why}")

    def check(self, name, ok, n, why):
        """Fail ``n`` already-attempted operations of ``name`` unless ``ok``."""
        if not ok:
            self.fail(name, n, why)


class Meter:
    """Wraps ``train_model`` and ``evaluate``: counts their operations, checks
    that every loss is finite, and records examples per second for each
    training epoch and each evaluate call."""

    def __init__(self, ledger):
        self.ledger = ledger
        self.losses = []       # epoch losses of every train call, in call order
        self.steps = 0
        self.train_rates = []  # examples/s, one per epoch
        self.eval_rates = []   # examples/s, one per evaluate call

    def fit(self, fn):
        def train_model(model, arrays, config, shuffle_rng, dropout_rng, epoch_hook=None):
            n = len(arrays[3])
            steps = config.epochs * math.ceil(n / config.batch_size)
            last = [time.perf_counter()]

            def timed_hook(epoch, model):
                now = time.perf_counter()
                self.train_rates.append(n / (now - last[0]))
                if epoch_hook is not None:
                    epoch_hook(epoch, model)
                last[0] = time.perf_counter()

            with self.ledger.op("train step", steps):
                losses = fn(model, arrays, config, shuffle_rng, dropout_rng, timed_hook)
            self.ledger.check("train step", all(map(math.isfinite, losses)), steps,
                              f"non-finite epoch loss in {losses}")
            self.losses.append(losses)
            self.steps += steps
            return losses
        return train_model

    def evaluate(self, fn):
        def evaluate(model, arrays, batch_size=EVAL_BATCH):
            n = len(arrays[3])
            batches = math.ceil(n / batch_size)
            with self.ledger.op("eval batch", batches):
                t0 = time.perf_counter()
                result = fn(model, arrays, batch_size)
                self.eval_rates.append(n / (time.perf_counter() - t0))
            self.ledger.check("eval batch", math.isfinite(result.accuracy), batches,
                              "non-finite accuracy")
            return result
        return evaluate


# ---------------------------------------------------------------------------
# set-up, job, checks


@dataclass
class State:
    examples: list
    vocab: data.Vocab
    arrays: tuple
    heldout: tuple
    model: PooledClassifier


def setup(spec, seed, paths):
    """Load, build the vocabulary, pack, and initialise the final model."""
    examples = data.load_jsonl(paths[0], "absa")
    heldout = data.load_jsonl(paths[1], "absa")
    vocab = data.vocab_for_examples(examples)
    arrays = data.pack_dataset(examples, vocab, S_MAX)
    held = data.pack_dataset(heldout, vocab, S_MAX)
    model = PooledClassifier(encoder_config(len(vocab)), spec.pooling, len(LABELS),
                             rng_mod.rng_for(seed, rng_mod.INIT, spec.folds))
    return State(examples, vocab, arrays, held, model)


@dataclass
class Outcome:
    workdir: str
    heldout_acc: float
    trained: PooledClassifier
    loaded: PooledClassifier          # read back from the checkpoint, or ``trained``
    cluster_rows: list = None
    losses: list = None               # epoch losses of every train call, in call order
    params_sha: str = ""              # digest of the trained model's parameters
    results_csv: bytes = b""
    ckpt_bytes: int = 0


def job(spec, seed, st, workdir, ledger):
    """The measured job: final training, then held-out evaluation. The paper's
    protocol (``spec.folds``) adds CV before them, a checkpoint round trip
    between them, and a [CLS] dump and projection after them."""
    cfg = train_config(spec, seed)
    if spec.folds:
        with ledger.op("results.csv"):
            train.cross_validated_train(st.examples, encoder_config(len(st.vocab)), spec.pooling,
                                        cfg, out_csv=os.path.join(workdir, "results.csv"))
    train.train_model(st.model, st.arrays, cfg,
                      shuffle_rng=rng_mod.rng_for(seed, rng_mod.SHUFFLE, spec.folds),
                      dropout_rng=rng_mod.rng_for(seed, rng_mod.DROPOUT, spec.folds))
    loaded = st.model
    if spec.folds:
        ckpt = os.path.join(workdir, "model.ckpt")
        with ledger.op("checkpoint.save"):
            st.model.save(ckpt, extra_meta={"vocab": st.vocab.tokens(), "schema": "absa"})
        with ledger.op("checkpoint.load"):
            loaded, _ = PooledClassifier.load(ckpt)
    acc = train.evaluate(loaded, st.heldout, batch_size=EVAL_BATCH).accuracy
    out = Outcome(workdir, acc, st.model, loaded)
    if spec.folds:
        dumps = os.path.join(workdir, "dumps")
        with ledger.op("analysis.dump"):
            analysis.dump_trace(loaded, st.heldout, cfg.epochs,
                                range(1, ENCODER["L"] + 1), dumps)
        with ledger.op("analysis.project"):
            out.cluster_rows = analysis.project_dump_dir(dumps, os.path.join(workdir, "proj"))
    return out


def predictions(model, arrays):
    tok, seg, mask, _ = arrays
    return np.concatenate([model.predict(tok[lo:lo + EVAL_BATCH], seg[lo:lo + EVAL_BATCH],
                                         mask[lo:lo + EVAL_BATCH])
                           for lo in range(0, len(tok), EVAL_BATCH)])


def check(spec, st, out, ledger):
    """Read back what one job wrote, fill in the rest of ``out``, and check it."""
    digest = hashlib.sha256()
    for name, p in sorted(out.trained.parameters().items()):
        digest.update(name.encode())
        digest.update(p.data.tobytes())
    out.params_sha = digest.hexdigest()
    if spec.folds:
        csv_path = os.path.join(out.workdir, "results.csv")
        with open(csv_path, "rb") as f:
            out.results_csv = f.read()
        _, table = train.read_results_csv(csv_path)
        folds = np.array([table[str(f)] for f in range(spec.folds)])
        ledger.check("results.csv", np.allclose(table["mean"], folds.mean(axis=0),
                                                rtol=1e-12, atol=0.0), 1,
                     "mean row is not the mean of the fold rows")
        out.ckpt_bytes = os.path.getsize(os.path.join(out.workdir, "model.ckpt"))
        same = np.array_equal(predictions(out.trained, st.heldout),
                              predictions(out.loaded, st.heldout))
        ledger.check("checkpoint.load", same, 1,
                     "loaded checkpoint changes the held-out predictions")
        ok = (len(out.cluster_rows) == ENCODER["L"]
              and all(math.isfinite(r[2]) for r in out.cluster_rows))
        ledger.check("analysis.project", ok, 1, f"bad cluster scores {out.cluster_rows}")


def check_same(spec, out, ref, steps, ledger, what):
    """``out`` must reproduce ``ref`` exactly: every epoch loss, the final
    parameters, the held-out accuracy and the results.csv bytes."""
    ledger.check("train step", out.losses == ref.losses and out.params_sha == ref.params_sha,
                 steps, f"{what}: losses or final parameters differ")
    ledger.check("eval batch", out.heldout_acc == ref.heldout_acc,
                 math.ceil(spec.n_heldout / EVAL_BATCH), f"{what}: held-out accuracy differs")
    if spec.folds:
        ledger.check("results.csv", out.results_csv == ref.results_csv, 1,
                     f"{what}: results.csv differs")
