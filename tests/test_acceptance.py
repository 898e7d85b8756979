"""End-to-end acceptance suite.

Each test covers one acceptance criterion and prints a single
``[criterion N] name: PASS/FAIL`` line (visible with ``pytest -s``;
the verbose test name carries the same information otherwise).
Criteria 4 and 5 share one training run of the LSTM-pooled model, so the
whole suite stays within a small CPU budget.
"""

import os
import time

import numpy as np
import numpy.testing as npt
import pytest

from clspool import rng as R
from clspool.analysis import cluster_score, dump_trace, pca_project, read_dump
from clspool.data import (pack_dataset, synth_generate, unigram_baseline_accuracy,
                          vocab_for_examples)
from clspool.encoder import EncoderConfig
from clspool.gradcheck import run_gradcheck
from clspool.model import PooledClassifier
from clspool.pooling import AttentionPoolHead, LSTMPoolHead
from clspool.tensor import Tensor
from clspool.train import (Adam, confusion_matrix, cross_validated_train, evaluate,
                           kfold_split, metrics_from_confusion, read_results_csv,
                           regularized_loss, TrainConfig)

DESK = dict(L=4, H=32, A=4, F=64, S_max=64, p_drop=0.1)
SYNTH_SEED = 42
HELD_OUT = 600  # of 3000


def _line(num, name, ok):
    print(f"\n[criterion {num}] {name}: {'PASS' if ok else 'FAIL'}")


def trace_of(*rows):
    """A trace of B=1: each H-vector becomes one (1, H) layer."""
    return [Tensor(np.asarray(r, dtype=float).reshape(1, -1)) for r in rows]


# ---------------------------------------------------------------------------
# shared training machinery (criteria 4 and 5)


def _split_arrays():
    examples = synth_generate(3000, classes=3, seed=SYNTH_SEED)
    vocab = vocab_for_examples(examples)
    arrays = pack_dataset(examples, vocab, DESK["S_max"])
    n = len(examples)
    train = tuple(a[: n - HELD_OUT] for a in arrays)
    test = tuple(a[n - HELD_OUT:] for a in arrays)
    return vocab, train, test


def _train_head(pooling, vocab, train, test, max_epochs=10, min_epochs=1,
                epoch_hook=None, lr=1e-3, batch_size=32, lam=1e-5, seed=0):
    """Minibatch training with per-epoch held-out eval and early stop."""
    cfg = EncoderConfig(V=len(vocab), **DESK)
    model = PooledClassifier(cfg, pooling, 3, R.rng_for(seed, R.INIT))
    params = model.parameters()
    decay = model.decay_names()
    opt = Adam(params, lr=lr)
    shuffle_rng = R.rng_for(seed, R.SHUFFLE)
    drop_rng = R.rng_for(seed, R.DROPOUT)
    tok, seg, mask, labels = train
    n = len(labels)
    acc = 0.0
    for epoch in range(1, max_epochs + 1):
        order = shuffle_rng.permutation(n)
        for lo in range(0, n, batch_size):
            b = order[lo:lo + batch_size]
            logits = model.forward_batch(tok[b], seg[b], mask[b],
                                         training=True, rng=drop_rng)
            loss = regularized_loss(logits, labels[b], params, decay, lam)
            opt.zero_grad()
            loss.backward()
            opt.step()
        acc = evaluate(model, test).accuracy
        if epoch_hook is not None:
            epoch_hook(epoch, model)
        if acc >= 0.90 and epoch >= min_epochs:
            return acc, epoch
    return acc, max_epochs


class _Shared:
    """Results of the single LSTM-head run, reused by criteria 4 and 5."""
    lstm_acc = None
    lstm_epochs = None
    lstm_seconds = None
    dumps_dir = None


@pytest.fixture(scope="module")
def lstm_run(tmp_path_factory):
    if _Shared.lstm_acc is None:
        vocab, train, test = _split_arrays()
        dumps = str(tmp_path_factory.mktemp("dumps"))

        def hook(epoch, model):
            if epoch in (1, 6):
                dump_trace(model, test, epoch, [1, DESK["L"]], dumps)

        t0 = time.perf_counter()
        acc, epochs = _train_head("lstm", vocab, train, test,
                                  min_epochs=6, epoch_hook=hook)
        _Shared.lstm_seconds = time.perf_counter() - t0
        _Shared.lstm_acc, _Shared.lstm_epochs = acc, epochs
        _Shared.dumps_dir = dumps
    return _Shared


# ---------------------------------------------------------------------------


def test_criterion_1_gradient_suite():
    t0 = time.perf_counter()
    ok, results = run_gradcheck(seeds=20, coords_per_param=2)
    elapsed = time.perf_counter() - t0
    passed = ok and elapsed < 60.0
    _line(1, "finite-difference gradient suite (<1e-4, 20 seeds, <60s)", passed)
    assert ok and max(results.values()) < 1e-4, results
    assert elapsed < 60.0, f"gradient suite took {elapsed:.1f}s"


def test_criterion_2_pooling_oracles():
    rng = np.random.default_rng(0)
    failures = []

    # attention: brute-force softmax/weighted-sum oracle on 100 random cases
    for _ in range(100):
        L = int(rng.integers(1, 9))
        H = int(rng.integers(2, 17))
        head = AttentionPoolHead(H, rng)
        vectors = [rng.normal(size=H) for _ in range(L)]
        q = head.params["attnpool/q"].data
        W = head.params["attnpool/W_h"].data
        s = np.array([q @ v for v in vectors])
        e = np.exp(s - s.max())
        alpha = e / e.sum()
        expect = W.T @ sum(a * v for a, v in zip(alpha, vectors))
        got = head.pool(trace_of(*vectors)).data
        if np.abs(got - expect).max() > 1e-10:
            failures.append(("attention", np.abs(got - expect).max()))

    # worked example: weights (0.25, 0.75) -> [0.75 ln3, 1.0]
    head = AttentionPoolHead(2, np.random.default_rng(0))
    head.params["attnpool/q"].data = np.array([1.0, 0.0])
    head.params["attnpool/W_h"].data = np.eye(2)
    out = head.pool(trace_of([0.0, 4.0], [np.log(3.0), 0.0])).data
    if np.abs(out - [0.75 * np.log(3.0), 1.0]).max() > 1e-10:
        failures.append(("worked example", out))

    # lstm: step-by-step reference cell
    def sigmoid(x):
        return 1.0 / (1.0 + np.exp(-x))

    for _ in range(100):
        L = int(rng.integers(1, 9))
        H = int(rng.integers(2, 17))
        head = LSTMPoolHead(H, rng)
        vectors = [rng.normal(size=H) for _ in range(L)]
        # Gate k (i, f, g, o) is column block k of lstm/W, lstm/U and lstm/b.
        W, U, b = ([head.params[name].data[..., k * H:(k + 1) * H] for k in range(4)]
                   for name in ("lstm/W", "lstm/U", "lstm/b"))
        h = np.zeros(H)
        c = np.zeros(H)
        for x in vectors:
            i = sigmoid(x @ W[0] + h @ U[0] + b[0])
            f = sigmoid(x @ W[1] + h @ U[1] + b[1])
            g = np.tanh(x @ W[2] + h @ U[2] + b[2])
            o = sigmoid(x @ W[3] + h @ U[3] + b[3])
            c = f * c + i * g
            h = o * np.tanh(c)
        got = head.pool(trace_of(*vectors)).data
        if np.abs(got - h).max() > 1e-10:
            failures.append(("lstm", np.abs(got - h).max()))

    _line(2, "pooling heads match independent oracles (1e-10)", not failures)
    assert not failures, failures


def test_criterion_3_invariance_and_sensitivity():
    failures = []
    rng = np.random.default_rng(1)

    # attention permutation invariance
    head = AttentionPoolHead(6, rng)
    vectors = [rng.normal(size=6) for _ in range(7)]
    base = head.pool(trace_of(*vectors)).data
    for _ in range(10):
        perm = rng.permutation(7)
        out = head.pool(trace_of(*[vectors[i] for i in perm])).data
        if np.abs(out - base).max() > 1e-10:
            failures.append("permutation")

    # argmax weight invariance under positive query scaling
    for seed in range(10):
        h = AttentionPoolHead(4, np.random.default_rng(seed))
        vs = [rng.normal(size=4) for _ in range(5)]
        _, w = h.pool(trace_of(*vs), return_weights=True)
        ref = int(np.argmax(w.data))
        for c in (0.5, 3.0, 20.0):
            h.params["attnpool/q"].data *= c
            _, w2 = h.pool(trace_of(*vs), return_weights=True)
            if int(np.argmax(w2.data)) != ref:
                failures.append(f"query scaling c={c}")
            h.params["attnpool/q"].data /= c

    # lstm order sensitivity on >= 19/20 seeds
    hits = 0
    for seed in range(20):
        srng = np.random.default_rng(seed)
        h = LSTMPoolHead(6, srng)
        vs = [srng.normal(size=6) for _ in range(4)]
        fwd = h.pool(trace_of(*vs)).data
        rev = h.pool(trace_of(*vs[::-1])).data
        if np.abs(fwd - rev).max() > 1e-8:
            hits += 1
    if hits < 19:
        failures.append(f"order sensitivity only {hits}/20")

    _line(3, "permutation/scaling invariance and order sensitivity", not failures)
    assert not failures, failures


def test_criterion_4_learning(lstm_run):
    failures = []
    vocab, train, test = _split_arrays()

    results = {"lstm": (lstm_run.lstm_acc, lstm_run.lstm_epochs,
                        lstm_run.lstm_seconds)}
    for pooling in ("last", "attention"):
        t0 = time.perf_counter()
        acc, epochs = _train_head(pooling, vocab, train, test)
        results[pooling] = (acc, epochs, time.perf_counter() - t0)

    for pooling, (acc, epochs, seconds) in results.items():
        if acc < 0.90:
            failures.append(f"{pooling}: {acc:.3f} after {epochs} epochs")
        if seconds >= 300.0:
            failures.append(f"{pooling}: took {seconds:.0f}s")

    # unigram baseline ignoring text_b stays at chance-ish level
    base_ex = synth_generate(10000, classes=3, seed=7)
    baseline = unigram_baseline_accuracy(base_ex[:8000], base_ex[8000:])
    if baseline > 0.55:
        failures.append(f"unigram baseline {baseline:.3f} > 0.55")

    _line(4, "all three heads reach >=90% held-out, baseline <=55%", not failures)
    assert not failures, (failures, results)


def test_criterion_5_layer_geometry(lstm_run):
    def score(epoch, layer):
        path = os.path.join(lstm_run.dumps_dir, f"cls_epoch{epoch}_layer{layer}.csv")
        return cluster_score(pca_project(read_dump(path), k=2))

    final = DESK["L"]
    s_e1_final = score(1, final)
    s_e6_final = score(6, final)
    s_e6_l1 = score(6, 1)
    ok = (s_e6_final < s_e1_final) and (s_e6_final <= s_e6_l1)
    _line(5, "clusters tighten over epochs and concentrate in later layers", ok)
    assert s_e6_final < s_e1_final, (s_e6_final, s_e1_final)
    assert s_e6_final <= s_e6_l1, (s_e6_final, s_e6_l1)


def test_criterion_6_cv_protocol(tmp_path):
    failures = []
    examples = synth_generate(300, classes=3, seed=3)
    labels = np.array([ex.label for ex in examples])

    # partition + stratification laws, exactly
    splits = kfold_split(labels, 10, seed=3)
    covered = np.concatenate([t for _, t in splits])
    if sorted(covered.tolist()) != list(range(300)):
        failures.append("folds do not partition the dataset")
    for _, test_idx in splits:
        if sorted(labels[test_idx].tolist()) != [0] * 10 + [1] * 10 + [2] * 10:
            failures.append("fold not stratified")
            break
    for train_idx, test_idx in splits:
        if set(train_idx.tolist()) & set(test_idx.tolist()):
            failures.append("train/test overlap")
            break

    enc = EncoderConfig(L=2, H=16, A=2, F=24, V=4, S_max=64, p_drop=0.1)
    config = TrainConfig(epochs=2, lr=1e-3, folds=10, seed=3, batch_size=32)
    csv_a = str(tmp_path / "a.csv")
    res = cross_validated_train(examples, enc, "attention", config, out_csv=csv_a)

    # aggregate equals the mean of the per-fold CSV rows to 1e-12
    _, rows = read_results_csv(csv_a)
    fold_rows = np.array([rows[str(f)] for f in range(10)])
    mean_row = np.array(rows["mean"])
    if np.abs(fold_rows.mean(axis=0) - mean_row).max() > 1e-12:
        failures.append("CSV mean row != mean of fold rows")
    if abs(res.mean["accuracy"] - fold_rows[:, 0].mean()) > 1e-12:
        failures.append("aggregate accuracy != mean of folds")
    if abs(res.mean["macro_f1"] - fold_rows[:, 1].mean()) > 1e-12:
        failures.append("aggregate macro-F1 != mean of folds")

    # identical master seed reproduces byte-identical outputs
    csv_b = str(tmp_path / "b.csv")
    cross_validated_train(examples, enc, "attention", config, out_csv=csv_b)
    if open(csv_a, "rb").read() != open(csv_b, "rb").read():
        failures.append("rerun with same seed not byte-identical")

    _line(6, "CV partition/stratification laws, exact aggregates, reproducible",
          not failures)
    assert not failures, failures


def test_criterion_7_metrics_oracle():
    failures = []

    # hand-derived case: per-class F1 [1, 2/3, 0.8], macro ~ 0.8222
    r = metrics_from_confusion(np.array([[2, 0, 0], [0, 1, 1], [0, 0, 2]]))
    if r.per_class_f1 != [1.0, 2 / 3, 0.8]:
        failures.append(f"per-class F1 {r.per_class_f1}")
    if abs(r.macro_f1 - (1.0 + 2 / 3 + 0.8) / 3) > 1e-15:
        failures.append(f"macro {r.macro_f1}")
    if abs(r.macro_f1 - 0.8222) > 5e-5:
        failures.append(f"macro not ~0.8222: {r.macro_f1}")

    rng = np.random.default_rng(4)
    for _ in range(100):
        n = int(rng.integers(2, 80))
        classes = int(rng.integers(2, 6))
        y_true = rng.integers(classes, size=n)
        y_pred = rng.integers(classes, size=n)
        got = metrics_from_confusion(confusion_matrix(y_true, y_pred, classes))
        # independent oracle straight from tp/fp/fn counts
        f1s = []
        for c in range(classes):
            tp = int(((y_true == c) & (y_pred == c)).sum())
            fp = int(((y_true != c) & (y_pred == c)).sum())
            fn = int(((y_true == c) & (y_pred != c)).sum())
            if tp + fp + fn == 0:
                f1s.append(0.0)
                continue
            p = tp / (tp + fp) if tp + fp else 0.0
            rr = tp / (tp + fn) if tp + fn else 0.0
            f1s.append(2 * p * rr / (p + rr) if p + rr else 0.0)
        if got.accuracy != float((y_true == y_pred).mean()):
            failures.append("accuracy mismatch")
        if got.per_class_f1 != f1s:
            failures.append("per-class F1 mismatch")
        if got.macro_f1 != float(np.mean(f1s)):
            failures.append("macro-F1 mismatch")

    _line(7, "metrics match independent confusion-matrix oracle exactly",
          not failures)
    assert not failures, failures


def test_criterion_8_optimizer():
    failures = []

    # scalar quadratic f(t) = t^2, lr 0.1, 200 steps
    p = Tensor([1.0])
    opt = Adam({"p": p}, lr=0.1)
    for _ in range(200):
        p.grad = 2.0 * p.data
        opt.step()
    if abs(p.data[0]) >= 0.05:
        failures.append(f"|theta| = {abs(p.data[0]):.4f} after 200 steps")

    # closed-form first step: delta = -lr * g / (|g| + eps)
    for g0, lr in ((1.0, 0.1), (-3.5, 0.01), (0.2, 0.7)):
        q = Tensor([2.0])
        opt = Adam({"q": q}, lr=lr)
        q.grad = np.array([g0])
        opt.step()
        expected = 2.0 - lr * g0 / (abs(g0) + 1e-8)
        if abs(q.data[0] - expected) > 1e-12:
            failures.append(f"first step off by {abs(q.data[0] - expected):.2e}")

    _line(8, "Adam converges on the quadratic and matches first-step form",
          not failures)
    assert not failures, failures
