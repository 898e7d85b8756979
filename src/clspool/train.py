"""Training harness: regularized loss, Adam, stratified k-fold CV, metrics.

Defaults: L2 coefficient 1e-5, Adam, 10-fold cross-validation with
per-fold averaging; dropout is the model's ``EncoderConfig.p_drop``. The
conventional fine-tuning learning rate 2e-5 presumes a pre-trained
initialization; training the desk-scale encoder from scratch stalls
there, so the working default is 1e-3. Adam updates every parameter on
every step, and a parameter that gets no gradient is an error.

``cross_validated_train`` builds the vocabulary, packs the data and
splits the folds once, and returns the prepared data on ``CVResult``.
``fit`` alone seeds and trains a model: run r (fold r, or ``folds`` for
the final model) draws from the INIT, SHUFFLE and DROPOUT streams at r.
"""

from __future__ import annotations

import csv
import ctypes
import math
import sys
from dataclasses import dataclass, field, replace

import numpy as np

from . import data
from . import rng as rng_mod
from . import tensor as T
from .checkpoint import atomic_write_bytes
from .encoder import EncoderConfig
from .model import NonFiniteLogitsError, PooledClassifier

DESK_LR = 1e-3
BETA1, BETA2, EPS = 0.9, 0.999, 1e-8  # Adam's moment decays and denominator floor
# Examples per eval-mode forward pass: the batches of ``eval_batches``, which
# serves ``evaluate`` and ``analysis.dump_trace``.
EVAL_BATCH = 64


@dataclass
class TrainConfig:
    lam: float = 1e-5        # L2 coefficient
    lr: float = DESK_LR
    epochs: int = 10         # 10 suits ABSA-shaped tasks; 5 is typical for NLI
    folds: int = 10
    seed: int = 0
    batch_size: int = 32

    def __post_init__(self):
        # Every comparison with NaN is false, so these refuse NaN as well as inf.
        if not 0 <= self.lam < math.inf:
            raise ValueError(f"L2 coefficient must be finite and >= 0, got {self.lam}")
        if not 0 < self.lr < math.inf:
            raise ValueError(f"learning rate must be finite and > 0, got {self.lr}")
        if self.folds < 2:
            raise ValueError(f"fold count must be >= 2, got {self.folds}")
        if self.epochs < 1:
            raise ValueError(f"epochs must be >= 1, got {self.epochs}")
        if self.batch_size < 1:
            raise ValueError(f"batch_size must be >= 1, got {self.batch_size}")
        if self.seed < 0:
            raise ValueError(f"seed must be >= 0, got {self.seed}")


def regularized_loss(logits, labels, params, decay_names, lam):
    """Softmax cross-entropy on the logits plus lam * sum of squares of the decayed weights,
    as one tape node.

    Biases and layer-norm parameters are excluded via ``decay_names``.
    """
    penalized = [params[name] for name in sorted(decay_names)] if lam > 0 else []
    return T.softmax_cross_entropy(logits, labels, penalized, lam)


class Adam:
    """Adam with bias correction over a model's name -> parameter dict.

    The parameters, and their first and second moments, live in three flat
    vectors of the parameters' dtype: ``__init__`` copies each parameter
    into the parameter vector and rebinds its ``data`` to a view of its
    slice, and a step updates the three vectors in place, one pass of
    vector ops, so nothing is concatenated or copied back. The update is
    elementwise, so it equals a per-parameter loop bit for bit. While an
    ``Adam`` holds a parameter, its ``data`` must not be rebound, or the
    step no longer reaches it. A None gradient (a parameter cut off from
    the loss), a shape mismatch or a non-finite gradient raises
    ``ValueError`` naming the parameter before anything moves.
    """

    def __init__(self, params, lr):
        self.params = dict(params)
        self.lr = lr
        self.t = 0
        values = self.params.values()
        self.theta = np.concatenate([p.data.ravel() for p in values])
        offsets = np.cumsum([0] + [p.data.size for p in values])
        for p, lo, hi in zip(values, offsets[:-1], offsets[1:]):
            p.data = self.theta[lo:hi].reshape(p.data.shape)
        self.m = np.zeros_like(self.theta)
        self.v = np.zeros_like(self.theta)

    def step(self):
        for name, p in self.params.items():
            if p.grad is None:
                raise ValueError(f"parameter {name} has no gradient")
            if p.grad.shape != p.data.shape:
                raise ValueError(f"parameter {name}: gradient shape {p.grad.shape} "
                                 f"!= parameter shape {p.data.shape}")
        g = np.concatenate([p.grad.ravel() for p in self.params.values()])
        if not np.isfinite(g).all():
            bad = next(n for n, p in self.params.items() if not np.isfinite(p.grad).all())
            raise ValueError(f"non-finite gradient in parameter {bad}")
        self.t += 1
        term = (1 - BETA1) * g
        self.m *= BETA1
        self.m += term
        np.multiply(g, 1 - BETA2, out=term)
        term *= g
        self.v *= BETA2
        self.v += term
        m_hat = self.m / (1 - BETA1 ** self.t)
        v_hat = self.v / (1 - BETA2 ** self.t)
        np.sqrt(v_hat, out=v_hat)
        v_hat += EPS
        m_hat *= self.lr
        m_hat /= v_hat
        self.theta -= m_hat

    def zero_grad(self):
        for p in self.params.values():
            p.grad = None


# ---------------------------------------------------------------------------
# metrics


@dataclass
class EvalResult:
    accuracy: float
    macro_f1: float
    per_class_f1: list
    confusion: np.ndarray
    empty_classes: list = field(default_factory=list)  # no true and no predicted


def confusion_matrix(y_true, y_pred, classes):
    """Counts of (true, predicted) label pairs: row t, column p."""
    cells = np.asarray(y_true, dtype=np.intp) * classes + np.asarray(y_pred, dtype=np.intp)
    return np.bincount(cells, minlength=classes * classes).reshape(classes, classes)


def metrics_from_confusion(cm):
    """Accuracy, per-class F1, macro-F1 from a count matrix.

    A class with zero true and zero predicted instances gets F1 = 0 and is
    flagged in ``empty_classes``.
    """
    cm = np.asarray(cm)
    accuracy = float(np.trace(cm) / cm.sum())
    tp = np.diag(cm).astype(float)
    actual, predicted = cm.sum(axis=1), cm.sum(axis=0)
    precision = np.divide(tp, predicted, out=np.zeros_like(tp), where=predicted > 0)
    recall = np.divide(tp, actual, out=np.zeros_like(tp), where=actual > 0)
    both = precision + recall
    f1 = np.divide(2 * precision * recall, both, out=np.zeros_like(tp), where=both > 0)
    per_class = f1.tolist()
    empty = np.flatnonzero((actual == 0) & (predicted == 0)).tolist()
    return EvalResult(accuracy=accuracy, macro_f1=float(np.mean(per_class)),
                      per_class_f1=per_class, confusion=cm, empty_classes=empty)


def _keep_freed_memory():
    """Have glibc malloc keep freed memory for reuse instead of returning it.

    Every training step allocates and frees its whole tape, and every eval
    batch its forward's arrays, and a 1024×32 float32 array is exactly
    glibc's default 128 KiB mmap threshold. Depending on heap layout, each
    step then unmaps (or trims) those blocks and page-faults them back in
    on the next step, which costs thousands of minor faults per step.
    Raising the mmap and trim thresholds keeps the freed blocks in the
    heap. ``import clspool`` calls it once, so every entry point, training,
    ``predict``, ``trace_batch``, ``dump_trace`` and ``run_gradcheck``
    alike, runs with them. Idempotent; a no-op off Linux or without
    ``mallopt``.
    """
    if not sys.platform.startswith("linux"):
        return
    mallopt = getattr(ctypes.CDLL(None), "mallopt", None)
    if mallopt is None:
        return
    mallopt.argtypes = (ctypes.c_int, ctypes.c_int)
    mallopt.restype = ctypes.c_int
    mallopt(-3, 32 << 20)  # M_MMAP_THRESHOLD: 32 MiB, glibc's largest
    mallopt(-1, 1 << 30)   # M_TRIM_THRESHOLD: 1 GiB


def eval_batches(arrays, batch_size=EVAL_BATCH):
    """Yield ``(idx, tok, seg, mask)`` batches of a packed dataset, in length order.

    The examples are sorted by packed length (``mask`` row sums), stably,
    so equal lengths keep dataset order, and the order is cut into batches
    of ``batch_size``; ``idx`` holds each batch row's dataset index. Like
    lengths then share a batch and pad little. This is the one eval
    batching loop: callers write each batch's results back at ``idx``.
    """
    tok, seg, mask = arrays[:3]
    order = np.argsort(mask.sum(axis=1), kind="stable")
    for lo in range(0, len(order), batch_size):
        idx = order[lo:lo + batch_size]
        yield idx, tok[idx], seg[idx], mask[idx]


def evaluate(model, arrays, batch_size=EVAL_BATCH):
    """Eval-mode metrics for a packed dataset (tok, seg, mask, labels).

    The examples run through ``model.predict`` in the length-ordered
    batches of ``eval_batches``. Non-finite logits raise a ValueError that
    names the example's dataset index.
    """
    labels = arrays[3]
    n = len(labels)
    if n == 0:
        raise ValueError("cannot evaluate on an empty dataset")
    bad = np.flatnonzero(labels >= model.n_classes)
    if bad.size:
        raise ValueError(f"example {bad[0]} has label {labels[bad[0]]}, but the model "
                         f"has only {model.n_classes} classes")
    preds = np.empty(n, dtype=int)
    for idx, tok, seg, mask in eval_batches(arrays, batch_size):
        try:
            preds[idx] = model.predict(tok, seg, mask)
        except NonFiniteLogitsError as e:
            raise ValueError(f"evaluating example {idx[e.row]}: {e} of its batch") from None
        except ValueError as e:
            raise ValueError(f"evaluating examples {idx.tolist()} (batch row order): "
                             f"{e}") from None
    cm = confusion_matrix(labels, preds, model.n_classes)
    return metrics_from_confusion(cm)


# ---------------------------------------------------------------------------
# folds


def kfold_split(labels, folds, seed):
    """Stratified k-fold: disjoint covering folds, per-class counts within 1.

    Indices of each class are shuffled (seeded) and dealt round-robin;
    the dealing offset advances across classes so fold sizes stay balanced.
    """
    labels = np.asarray(labels)
    n = len(labels)
    if folds > n:
        raise ValueError(f"folds={folds} exceeds dataset size {n}")
    rng = rng_mod.rng_for(seed, rng_mod.FOLDS)
    fold_of = np.empty(n, dtype=int)
    offset = 0
    for c in sorted(set(labels.tolist())):
        idx = np.flatnonzero(labels == c)
        idx = idx[rng.permutation(len(idx))]
        fold_of[idx] = (offset + np.arange(len(idx))) % folds
        offset = (offset + len(idx)) % folds
    return [(np.flatnonzero(fold_of != f), np.flatnonzero(fold_of == f))
            for f in range(folds)]


# ---------------------------------------------------------------------------
# training loops


def train_model(model, arrays, config: TrainConfig, shuffle_rng, dropout_rng,
                epoch_hook=None):
    """Fixed-epoch minibatch training; returns per-epoch mean losses.

    A non-finite loss or gradient raises ``ValueError`` naming the epoch and
    the 1-based step before any weight of that step moves.
    """
    tok, seg, mask, labels = arrays
    n = len(labels)
    params = model.parameters()
    decay = model.decay_names()
    opt = Adam(params, lr=config.lr)
    epoch_losses = []
    for epoch in range(1, config.epochs + 1):
        order = shuffle_rng.permutation(n)
        losses = []
        for step, lo in enumerate(range(0, n, config.batch_size), start=1):
            batch = order[lo:lo + config.batch_size]
            logits = model.forward_batch(tok[batch], seg[batch], mask[batch],
                                         training=True, rng=dropout_rng)
            loss = regularized_loss(logits, labels[batch], params, decay, config.lam)
            losses.append(loss.item())
            if not np.isfinite(losses[-1]):
                raise ValueError(f"epoch {epoch}, step {step}: non-finite loss {losses[-1]}")
            opt.zero_grad()
            loss.backward()
            try:
                opt.step()
            except ValueError as e:
                raise ValueError(f"epoch {epoch}, step {step}: {e}") from None
        epoch_losses.append(float(np.mean(losses)))
        if epoch_hook is not None:
            epoch_hook(epoch, model)
    return epoch_losses


def fit(model_config, pooling, n_classes, arrays, config: TrainConfig, run,
        epoch_hook=None):
    """A fresh PooledClassifier trained on ``arrays`` with the streams of run ``run``."""
    model = PooledClassifier(model_config, pooling, n_classes,
                             rng_mod.rng_for(config.seed, rng_mod.INIT, run))
    train_model(model, arrays, config,
                shuffle_rng=rng_mod.rng_for(config.seed, rng_mod.SHUFFLE, run),
                dropout_rng=rng_mod.rng_for(config.seed, rng_mod.DROPOUT, run),
                epoch_hook=epoch_hook)
    return model


@dataclass
class CVResult:
    fold_results: list
    mean: dict
    std: dict
    model_config: EncoderConfig  # the template with V set from the vocabulary
    vocab: data.Vocab
    arrays: tuple                # the packed dataset (tok, seg, mask, labels)


def cross_validated_train(examples, enc_config, pooling, config: TrainConfig,
                          out_csv=None, epoch_hook=None, n_classes=None):
    """Stratified k-fold CV with a fresh model per fold (``fit`` run f).

    ``enc_config`` is used as a template; vocabulary size is set from the
    data. ``n_classes`` defaults to the largest label plus one; pass the
    schema's class count so that a class absent from the data still gets
    its column. ``epoch_hook(fold, epoch, model, held_out)`` gets the fold's
    packed held-out arrays. Returns per-fold EvalResults, mean/std
    aggregates and the prepared data; given ``out_csv``, it writes the
    results CSV there once every fold is done.
    """
    vocab = data.vocab_for_examples(examples)
    model_config = replace(enc_config, V=len(vocab))
    arrays = data.pack_dataset(examples, vocab, model_config.S_max)
    labels = arrays[3]
    if n_classes is None:
        n_classes = int(labels.max()) + 1
    splits = kfold_split(labels, config.folds, config.seed)
    fold_results = []
    for f, (train_idx, test_idx) in enumerate(splits):
        held_out = tuple(a[test_idx] for a in arrays)
        hook = (lambda e, m: epoch_hook(f, e, m, held_out)) if epoch_hook else None
        model = fit(model_config, pooling, n_classes, tuple(a[train_idx] for a in arrays),
                    config, run=f, epoch_hook=hook)
        fold_results.append(evaluate(model, held_out))

    mean, std = _aggregate(fold_results)
    if out_csv is not None:
        write_results_csv(out_csv, fold_results, mean, std)
    return CVResult(fold_results, mean, std, model_config, vocab, arrays)


def _aggregate(fold_results):
    acc = np.array([r.accuracy for r in fold_results])
    f1 = np.array([r.macro_f1 for r in fold_results])
    per_class = np.array([r.per_class_f1 for r in fold_results])
    mean = {"accuracy": float(acc.mean()), "macro_f1": float(f1.mean()),
            "per_class_f1": per_class.mean(axis=0).tolist()}
    std = {"accuracy": float(acc.std()), "macro_f1": float(f1.std()),
           "per_class_f1": per_class.std(axis=0).tolist()}
    return mean, std


def write_results_csv(path, fold_results, mean, std):
    """One row per fold plus 'mean' and 'std' aggregate rows.

    Columns: fold, accuracy, macro_f1, f1_class0 .. f1_class{C-1}.
    Floats are written with full precision (repr) so outputs are
    byte-reproducible and aggregates re-derivable exactly.
    """
    classes = len(fold_results[0].per_class_f1)
    header = ["fold", "accuracy", "macro_f1"] + [f"f1_class{c}" for c in range(classes)]
    rows = [header]
    for f, r in enumerate(fold_results):
        rows.append([str(f), repr(r.accuracy), repr(r.macro_f1)]
                    + [repr(v) for v in r.per_class_f1])
    for name, agg in (("mean", mean), ("std", std)):
        rows.append([name, repr(agg["accuracy"]), repr(agg["macro_f1"])]
                    + [repr(v) for v in agg["per_class_f1"]])
    payload = "\n".join(",".join(row) for row in rows) + "\n"
    atomic_write_bytes(path, payload.encode("utf-8"))


def read_results_csv(path):
    with open(path, newline="", encoding="utf-8") as f:
        reader = csv.reader(f)
        header = next(reader)
        rows = {row[0]: [float(v) for v in row[1:]] for row in reader}
    return header, rows
