import sys
from dataclasses import replace

import numpy as np
import numpy.testing as npt
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from clspool import rng as R
from clspool import tensor as T
from clspool.data import PairExample, pack_dataset, synth_generate, vocab_for_examples
from clspool.encoder import EncoderConfig
from clspool.model import PooledClassifier
from clspool.pooling import HEAD_KINDS
from clspool.tensor import Tensor
from clspool.train import (Adam, TrainConfig, confusion_matrix, cross_validated_train,
                           eval_batches, evaluate, fit, kfold_split, metrics_from_confusion,
                           read_results_csv, regularized_loss, train_model,
                           write_results_csv)

from test_tensor import reachable, tape_add, without_own_gradient


def reference_adam(grads, theta0, lr, beta1=0.9, beta2=0.999, eps=1e-8):
    """Step-by-step scalar Adam oracle."""
    theta = theta0
    m = v = 0.0
    for t, g in enumerate(grads, start=1):
        m = beta1 * m + (1 - beta1) * g
        v = beta2 * v + (1 - beta2) * g * g
        m_hat = m / (1 - beta1 ** t)
        v_hat = v / (1 - beta2 ** t)
        theta = theta - lr * m_hat / (np.sqrt(v_hat) + eps)
    return theta


class LoopAdam:
    """The per-parameter Adam loop, kept as the oracle for the flat update."""

    def __init__(self, params, lr, beta1=0.9, beta2=0.999, eps=1e-8):
        self.params = list(params)
        self.lr, self.beta1, self.beta2, self.eps = lr, beta1, beta2, eps
        self.t = 0
        self.m = [np.zeros_like(p.data) for p in self.params]
        self.v = [np.zeros_like(p.data) for p in self.params]

    def step(self):
        self.t += 1
        b1, b2 = self.beta1, self.beta2
        for i, p in enumerate(self.params):
            g = p.grad
            self.m[i] = b1 * self.m[i] + (1 - b1) * g
            self.v[i] = b2 * self.v[i] + (1 - b2) * g * g
            m_hat = self.m[i] / (1 - b1 ** self.t)
            v_hat = self.v[i] / (1 - b2 ** self.t)
            p.data = p.data - self.lr * m_hat / (np.sqrt(v_hat) + self.eps)


def sklearn_style_oracle(y_true, y_pred, classes):
    """Independent confusion/metrics oracle using set arithmetic."""
    y_true, y_pred = np.asarray(y_true), np.asarray(y_pred)
    acc = float((y_true == y_pred).mean())
    f1s = []
    for c in range(classes):
        tp = int(((y_true == c) & (y_pred == c)).sum())
        fp = int(((y_true != c) & (y_pred == c)).sum())
        fn = int(((y_true == c) & (y_pred != c)).sum())
        if tp + fp + fn == 0:
            f1s.append(0.0)
        else:
            p = tp / (tp + fp) if tp + fp else 0.0
            r = tp / (tp + fn) if tp + fn else 0.0
            f1s.append(2 * p * r / (p + r) if p + r else 0.0)
    return acc, f1s, float(np.mean(f1s))


class TestTrainConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            TrainConfig(lam=-1)
        with pytest.raises(ValueError):
            TrainConfig(lr=0)
        with pytest.raises(ValueError):
            TrainConfig(folds=1)
        with pytest.raises(ValueError):
            TrainConfig(epochs=0)
        for batch_size in (0, -4):
            with pytest.raises(ValueError, match="batch_size"):
                TrainConfig(batch_size=batch_size)

    def test_negative_seed_rejected(self):
        with pytest.raises(ValueError, match="seed must be >= 0, got -1"):
            TrainConfig(seed=-1)
        assert TrainConfig(seed=0).seed == 0

    def test_dropout_is_not_a_train_setting(self):
        # The dropout rate has one home: EncoderConfig.p_drop.
        with pytest.raises(TypeError):
            TrainConfig(p_drop=0.1)


class TestRegularizedLoss:
    def test_zero_lambda_equals_cross_entropy(self):
        logits = Tensor(np.log([[0.2, 0.8]]))
        w = Tensor([[1.0]])
        loss = regularized_loss(logits, [1], {"w": w}, {"w"}, lam=0.0)
        assert loss.item() == pytest.approx(-np.log(0.8), abs=1e-12)

    def test_single_weight_analytic(self):
        logits = Tensor([[-1e3, 0.0]])
        w = Tensor([2.0])
        loss = regularized_loss(logits, [1], {"w": w}, {"w"}, lam=1e-5)
        assert loss.item() == pytest.approx(4e-5, abs=1e-18)

    def test_biases_excluded(self):
        logits = Tensor([[-1e3, 0.0]])
        w = Tensor([2.0])
        b = Tensor([100.0])
        loss = regularized_loss(logits, [1], {"w": w, "b": b}, {"w"}, lam=1.0)
        assert loss.item() == pytest.approx(4.0, abs=1e-12)

    def test_finite_difference_on_full_loss(self):
        from clspool.gradcheck import check_gradients
        rng = np.random.default_rng(0)
        w1 = Tensor(rng.normal(size=(3, 4)))
        w2 = Tensor(rng.normal(size=(4, 2)))
        x = rng.normal(size=(5, 3))
        labels = rng.integers(2, size=5)
        params = {"w1": w1, "w2": w2}
        zero4, zero2 = Tensor(np.zeros(4)), Tensor(np.zeros(2))

        def loss_fn():
            # A fresh generator per call: every evaluation draws the same mask.
            h = T.linear(Tensor(x), w1, zero4)
            logits = T.linear(h, w2, zero2, 0.3, np.random.default_rng(1))
            return regularized_loss(logits, labels, params, {"w1", "w2"}, lam=1e-5)

        assert check_gradients(loss_fn, params, rng, coords_per_param=4) < 1e-4


class TestAdam:
    def test_first_step_closed_form(self):
        lr = 0.1
        p = Tensor([1.0])
        opt = Adam({"p": p}, lr=lr)
        p.grad = np.array([1.0])
        opt.step()
        # t=1: m_hat = g, v_hat = g^2, delta = -lr * g / (|g| + eps)
        expected = 1.0 - lr * 1.0 / (1.0 + 1e-8)
        assert p.data[0] == pytest.approx(expected, abs=1e-12)

    def test_zero_gradient_never_moves(self):
        p = Tensor([3.0])
        opt = Adam({"p": p}, lr=0.5)
        for _ in range(10):
            p.grad = np.array([0.0])
            opt.step()
        assert p.data[0] == 3.0

    def test_quadratic_convergence(self):
        p = Tensor([1.0])
        opt = Adam({"p": p}, lr=0.1)
        for _ in range(200):
            p.grad = 2.0 * p.data
            opt.step()
        assert abs(p.data[0]) < 0.05

    def test_matches_reference_oracle(self):
        rng = np.random.default_rng(0)
        grads = rng.normal(size=50)
        p = Tensor([0.7])
        opt = Adam({"p": p}, lr=0.01)
        for g in grads:
            p.grad = np.array([g])
            opt.step()
        assert p.data[0] == pytest.approx(reference_adam(grads, 0.7, 0.01), abs=1e-12)

    def test_shape_mismatch(self):
        p = Tensor([1.0, 2.0])
        opt = Adam({"p": p}, lr=0.1)
        p.grad = np.array([1.0])
        with pytest.raises(ValueError):
            opt.step()

    def test_shape_mismatch_moves_nothing(self):
        a = Tensor([1.0, 2.0])
        b = Tensor([1.0, 2.0])
        opt = Adam({"a": a, "b": b}, lr=0.1)
        a.grad = np.array([1.0, 1.0])
        b.grad = np.array([1.0])
        with pytest.raises(ValueError, match="gradient shape"):
            opt.step()
        assert opt.t == 0
        npt.assert_array_equal(a.data, [1.0, 2.0])
        assert not opt.m.any() and not opt.v.any()

    def test_non_finite_gradient_moves_nothing(self):
        params = {"a": Tensor(np.ones(3)),
                  "b": Tensor(np.ones((2, 2)))}
        opt = Adam(params, lr=0.1)
        params["a"].grad = np.ones(3)
        params["b"].grad = np.array([[1.0, np.inf], [0.0, 0.0]])
        with pytest.raises(ValueError, match="non-finite gradient in parameter b"):
            opt.step()
        assert opt.t == 0 and not opt.m.any() and not opt.v.any()
        npt.assert_array_equal(params["a"].data, np.ones(3))

    def test_missing_gradient_names_the_parameter_and_moves_nothing(self):
        params = {"a": Tensor(np.ones(3)),
                  "b": Tensor(np.ones((2, 2))),
                  "c": Tensor(np.ones(2))}
        opt = Adam(params, lr=0.1)
        for p in params.values():
            p.grad = np.ones(p.shape)
        opt.step()
        before = {name: p.data.copy() for name, p in params.items()}
        m, v = opt.m.copy(), opt.v.copy()
        params["a"].grad = np.full(3, 2.0)
        params["b"].grad = None
        with pytest.raises(ValueError, match="parameter b has no gradient"):
            opt.step()
        assert opt.t == 1
        npt.assert_array_equal(opt.m, m)
        npt.assert_array_equal(opt.v, v)
        for name, p in params.items():
            npt.assert_array_equal(p.data, before[name])

    def test_flat_update_bit_identical_to_per_parameter_loop(self):
        rng = np.random.default_rng(7)
        shapes = [(3, 4), (5,), (1,), (2, 2), (6, 1), (4,), (1, 7), (3,), (2, 3), (8,)]
        init = [rng.normal(size=s) for s in shapes]
        flat = {f"p{i}": Tensor(d.copy()) for i, d in enumerate(init)}
        loop = [Tensor(d.copy()) for d in init]
        opt, ref = Adam(flat, lr=0.01), LoopAdam(loop, lr=0.01)
        for _ in range(50):
            for p, q in zip(flat.values(), loop):
                p.grad = rng.normal(size=p.shape)
                q.grad = p.grad.copy()
            opt.step()
            ref.step()
            for p, q in zip(flat.values(), loop):
                assert np.array_equal(p.data, q.data)
        assert opt.t == ref.t == 50

    def test_parameters_are_views_of_the_flat_vector(self):
        # Adam rebinds each parameter to its slice of one vector, values and
        # dtype unchanged, and a step moves them through that vector alone.
        model = PooledClassifier(EncoderConfig(L=2, H=8, A=2, F=12, V=16, S_max=8), "lstm", 3,
                                 R.rng_for(0, R.INIT))
        params = model.parameters()
        before = {name: p.data.copy() for name, p in params.items()}
        opt = Adam(params, lr=1e-3)
        for name, p in params.items():
            assert np.shares_memory(p.data, opt.theta), name
            assert p.data.dtype == np.float32 and np.array_equal(p.data, before[name]), name
        for p in params.values():
            p.grad = np.ones(p.shape, np.float32)
        opt.step()
        for name, p in params.items():
            assert np.shares_memory(p.data, opt.theta), name
            assert np.all(p.data < before[name]), name

    def test_trained_model_round_trips_through_load(self, tmp_path):
        ex = toy_separable_examples(16)
        vocab = vocab_for_examples(ex)
        model = PooledClassifier(replace(TOY_ENC, V=len(vocab)), "lstm", 3, R.rng_for(0, 0))
        arrays = pack_dataset(ex, vocab, 8)
        train_model(model, arrays, TrainConfig(epochs=2, lr=1e-2, folds=2, batch_size=8),
                    R.rng_for(0, 1), R.rng_for(0, 2))
        path = str(tmp_path / "m.ckpt")
        model.save(path)
        back, _ = PooledClassifier.load(path)
        for name, p in model.parameters().items():
            assert np.array_equal(back.parameters()[name].data, p.data), name
        npt.assert_array_equal(back.predict(*arrays[:3]), model.predict(*arrays[:3]))


def holey_batch(seed):
    """Token ids, segments and mask of lengths 6, 4 and 5 in 6 columns; the
    first example has a hole."""
    rng = np.random.default_rng(seed)
    tok = rng.integers(4, 16, size=(3, 6))
    tok[:, 0] = 2
    seg = np.zeros((3, 6), dtype=int)
    seg[:, 3:] = 1
    mask = (np.arange(6) < np.array([[6], [4], [5]])).astype(int)
    mask[0, 2] = 0
    return tok, seg, mask


class TestEveryParameterGetsAGradient:
    """Adam has one update path because every parameter reaches the loss."""

    @pytest.mark.parametrize("kind", HEAD_KINDS)
    @pytest.mark.parametrize("L", [1, 2])
    @pytest.mark.parametrize("lam", [0.0, 1e-5])
    def test_one_training_step(self, kind, L, lam):
        cfg = EncoderConfig(L=L, H=8, A=2, F=12, V=16, S_max=8, p_drop=0.1)
        model = PooledClassifier(cfg, kind, 3, R.rng_for(L, R.INIT))
        tok, seg, mask = holey_batch(L)
        params = model.parameters()
        logits = model.forward_batch(tok, seg, mask, training=True, rng=R.rng_for(L, R.DROPOUT))
        loss = regularized_loss(logits, np.array([0, 2, 1]), params, model.decay_names(), lam)
        nodes = reachable(loss)
        loss.backward()
        # Every tensor on the tape, not only each parameter, holds its gradient.
        assert without_own_gradient(nodes) == []
        assert [name for name, p in params.items() if p.grad is None] == []
        Adam(params, lr=1e-3).step()

    def test_a_parameter_cut_off_from_the_loss_stops_training(self):
        ex = toy_separable_examples(16)
        vocab = vocab_for_examples(ex)
        m = PooledClassifier(replace(TOY_ENC, V=len(vocab)), "attention", 3, R.rng_for(0, 0))
        m.pool_head.params["attnpool/unused"] = Tensor(np.zeros(2))
        config = TrainConfig(epochs=1, lr=1e-2, folds=2, seed=0, batch_size=8)
        with pytest.raises(ValueError, match="epoch 1, step 1: parameter attnpool/unused "
                                             "has no gradient"):
            train_model(m, pack_dataset(ex, vocab, 8), config, R.rng_for(0, 1), R.rng_for(0, 2))


class TestSinglePrecision:
    @pytest.mark.parametrize("kind", HEAD_KINDS)
    def test_one_training_step_stays_float32(self, kind):
        cfg = EncoderConfig(L=2, H=8, A=2, F=12, V=16, S_max=8, p_drop=0.1)
        model = PooledClassifier(cfg, kind, 3, R.rng_for(0, R.INIT))
        tok, seg, mask = holey_batch(0)
        params = model.parameters()
        logits = model.forward_batch(tok, seg, mask, training=True, rng=R.rng_for(0, R.DROPOUT))
        loss = regularized_loss(logits, np.array([0, 2, 1]), params, model.decay_names(), 1e-5)
        loss.backward()
        opt = Adam(params, lr=1e-3)
        opt.step()
        arrays = {"logits": logits.data, "loss": loss.data, "Adam m": opt.m, "Adam v": opt.v}
        for name, p in params.items():
            arrays[name] = p.data
            arrays[name + " grad"] = p.grad
        for layer, rows in enumerate(model.trace_batch(tok, seg, mask), start=1):
            arrays[f"trace layer {layer}"] = rows
        assert {name: a.dtype for name, a in arrays.items() if a.dtype != np.float32} == {}


def op_nodes(loss):
    """How many nodes reachable from ``loss`` an op recorded: those with parents."""
    seen, stack, count = {id(loss)}, [loss], 0
    while stack:
        node = stack.pop()
        count += bool(node._parents)
        for p in node._parents:
            if id(p) not in seen:
                seen.add(id(p))
                stack.append(p)
    return count


class TestOneNodePerStage:
    """After the encoder's 9 nodes (the embedding and two per block), each
    stage is one node: the head's (with one trace row gather per lower
    layer), the classifier's and the L2-regularized loss's."""

    @pytest.mark.parametrize("kind, nodes", [("last", 11), ("lstm", 15), ("attention", 15)])
    def test_op_nodes_of_one_training_step(self, kind, nodes):
        cfg = EncoderConfig(L=4, H=32, A=4, F=64, V=20, S_max=10, p_drop=0.1)
        model = PooledClassifier(cfg, kind, 3, R.rng_for(0, R.INIT))
        rng = np.random.default_rng(0)
        tok = rng.integers(4, 20, size=(16, 8))
        tok[:, 0] = 2
        mask = (np.arange(8) < rng.integers(3, 9, size=(16, 1))).astype(int)
        logits = model.forward_batch(tok, np.zeros_like(tok), mask, training=True,
                                     rng=R.rng_for(0, R.DROPOUT))
        loss = regularized_loss(logits, rng.integers(3, size=16), model.parameters(),
                                model.decay_names(), 1e-5)
        assert op_nodes(loss) == nodes


@st.composite
def fold_cases(draw):
    """Unbalanced labels over a few non-contiguous values, n >= folds, folds in 2..10, a seed."""
    folds = draw(st.integers(2, 10))
    values = draw(st.lists(st.integers(-50, 50), min_size=1, max_size=4, unique=True))
    labels = draw(st.lists(st.sampled_from(values), min_size=folds, max_size=60))
    return np.array(labels), folds, draw(st.integers(0, 2**32 - 1))


class TestKFold:
    @settings(max_examples=200, deadline=None)
    @given(fold_cases())
    def test_laws_on_unbalanced_non_contiguous_labels(self, case):
        labels, folds, seed = case
        n = len(labels)
        splits = kfold_split(labels, folds, seed)
        tests = [test for _, test in splits]
        assert len(splits) == folds
        # Every index is in exactly one test fold, and train is the rest.
        assert sorted(np.concatenate(tests).tolist()) == list(range(n))
        for train_idx, test in splits:
            assert np.array_equal(train_idx, np.setdiff1d(np.arange(n), test))
        sizes = [len(test) for test in tests]
        assert max(sizes) - min(sizes) <= 1
        for c in np.unique(labels):
            counts = [int((labels[test] == c).sum()) for test in tests]
            assert max(counts) - min(counts) <= 1, c
        again = kfold_split(labels, folds, seed)
        for (ta, sa), (tb, sb) in zip(splits, again):
            assert np.array_equal(ta, tb) and np.array_equal(sa, sb)

    def test_ten_items_ten_folds(self):
        splits = kfold_split(np.zeros(10, dtype=int), 10, seed=0)
        assert all(len(test) == 1 for _, test in splits)

    def test_partition_laws(self):
        labels = np.random.default_rng(0).integers(3, size=47)
        splits = kfold_split(labels, 10, seed=1)
        all_test = np.concatenate([test for _, test in splits])
        assert sorted(all_test.tolist()) == list(range(47))
        for i, (_, ti) in enumerate(splits):
            for _, tj in splits[i + 1:]:
                assert not set(ti.tolist()) & set(tj.tolist())

    def test_train_test_complement(self):
        labels = np.random.default_rng(0).integers(3, size=30)
        for train, test in kfold_split(labels, 5, seed=2):
            assert sorted(np.concatenate([train, test]).tolist()) == list(range(30))

    def test_stratified_balanced_case(self):
        labels = np.repeat([0, 1, 2], 10)
        splits = kfold_split(labels, 10, seed=3)
        for _, test in splits:
            assert sorted(labels[test].tolist()) == [0, 1, 2]

    def test_per_class_counts_within_one(self):
        rng = np.random.default_rng(4)
        for trial in range(20):
            n = int(rng.integers(10, 80))
            k = int(rng.integers(2, min(n, 10) + 1))
            labels = rng.integers(3, size=n)
            splits = kfold_split(labels, k, seed=trial)
            for c in set(labels.tolist()):
                counts = [int((labels[test] == c).sum()) for _, test in splits]
                assert max(counts) - min(counts) <= 1

    def test_folds_exceed_size(self):
        with pytest.raises(ValueError):
            kfold_split(np.zeros(5, dtype=int), 6, seed=0)

    def test_deterministic(self):
        labels = np.random.default_rng(5).integers(3, size=40)
        a = kfold_split(labels, 10, seed=7)
        b = kfold_split(labels, 10, seed=7)
        for (ta, sa), (tb, sb) in zip(a, b):
            assert np.array_equal(ta, tb) and np.array_equal(sa, sb)


class TestMetrics:
    def test_perfect(self):
        r = metrics_from_confusion(np.diag([3, 4, 5]))
        assert r.accuracy == 1.0
        assert r.macro_f1 == 1.0

    def test_hand_computed_case(self):
        r = metrics_from_confusion(np.array([[2, 0, 0], [0, 1, 1], [0, 0, 2]]))
        assert r.accuracy == pytest.approx(5 / 6)
        npt.assert_allclose(r.per_class_f1, [1.0, 2 / 3, 0.8], atol=1e-12)
        assert r.macro_f1 == pytest.approx((1.0 + 2 / 3 + 0.8) / 3, abs=1e-12)
        assert r.macro_f1 == pytest.approx(0.8222, abs=5e-5)

    def test_all_one_class_predictions(self):
        y_true = np.repeat([0, 1, 2], 10)
        y_pred = np.zeros(30, dtype=int)
        r = metrics_from_confusion(confusion_matrix(y_true, y_pred, 3))
        assert r.accuracy == pytest.approx(1 / 3)
        assert r.macro_f1 == pytest.approx(0.5 / 3, abs=1e-12)

    def test_empty_class_flagged(self):
        cm = np.array([[2, 0, 0], [0, 3, 0], [0, 0, 0]])
        r = metrics_from_confusion(cm)
        assert r.empty_classes == [2]
        assert r.per_class_f1[2] == 0.0

    def test_against_independent_oracle(self):
        rng = np.random.default_rng(6)
        for _ in range(100):
            n = int(rng.integers(2, 60))
            classes = int(rng.integers(2, 6))
            y_true = rng.integers(classes, size=n)
            y_pred = rng.integers(classes, size=n)
            r = metrics_from_confusion(confusion_matrix(y_true, y_pred, classes))
            acc, f1s, macro = sklearn_style_oracle(y_true, y_pred, classes)
            assert r.accuracy == acc
            npt.assert_array_equal(r.per_class_f1, f1s)
            assert r.macro_f1 == macro

    def test_invariant_accuracy_from_confusion(self):
        rng = np.random.default_rng(7)
        for _ in range(20):
            cm = rng.integers(0, 5, size=(3, 3))
            cm[0, 0] += 1
            r = metrics_from_confusion(cm)
            assert r.accuracy == np.trace(cm) / cm.sum()
            assert r.macro_f1 == pytest.approx(np.mean(r.per_class_f1), abs=1e-15)


def toy_separable_examples(n=60):
    words = ["neg", "neu", "pos"]
    return [PairExample(words[i % 3], "x", i % 3) for i in range(n)]


TOY_ENC = EncoderConfig(L=1, H=8, A=2, F=8, V=4, S_max=8, p_drop=0.1)


class TestCrossValidation:
    def test_separable_toy_reaches_perfect_accuracy(self):
        config = TrainConfig(epochs=30, lr=1e-2, folds=2, seed=0, batch_size=8)
        res = cross_validated_train(toy_separable_examples(), TOY_ENC, "attention",
                                    config)
        assert [r.accuracy for r in res.fold_results] == [1.0, 1.0]
        assert res.mean["accuracy"] == 1.0
        assert res.std["accuracy"] == 0.0

    def test_same_seed_bit_identical(self):
        config = TrainConfig(epochs=3, lr=1e-2, folds=2, seed=5, batch_size=8)
        a = cross_validated_train(toy_separable_examples(30), TOY_ENC, "lstm", config)
        b = cross_validated_train(toy_separable_examples(30), TOY_ENC, "lstm", config)
        for ra, rb in zip(a.fold_results, b.fold_results):
            assert ra.accuracy == rb.accuracy
            assert np.array_equal(ra.confusion, rb.confusion)
            assert ra.per_class_f1 == rb.per_class_f1

    def test_degenerate_single_class(self):
        examples = [PairExample("pos", "x", 0) for _ in range(12)]
        config = TrainConfig(epochs=1, lr=1e-2, folds=2, seed=0, batch_size=8)
        res = cross_validated_train(examples, TOY_ENC, "last", config)
        assert all(r.accuracy == 1.0 for r in res.fold_results)

    def test_results_csv_round_trip(self, tmp_path):
        config = TrainConfig(epochs=2, lr=1e-2, folds=3, seed=1, batch_size=8)
        path = tmp_path / "results.csv"
        res = cross_validated_train(toy_separable_examples(30), TOY_ENC, "last",
                                    config, out_csv=str(path))
        header, rows = read_results_csv(str(path))
        assert header[:3] == ["fold", "accuracy", "macro_f1"]
        fold_accs = [rows[str(f)][0] for f in range(3)]
        assert rows["mean"][0] == pytest.approx(np.mean(fold_accs), abs=1e-12)
        assert rows["mean"][1] == pytest.approx(
            np.mean([rows[str(f)][1] for f in range(3)]), abs=1e-12)

    def test_honours_encoder_p_drop(self, monkeypatch):
        # p_drop=0 in the encoder config means every dropout site, in the
        # encoder and in the classifier, in training and in eval, runs at rate 0.
        rates = []
        dropout = T._dropout_fwd

        def spy(x, p, rng):
            rates.append(p)
            return dropout(x, p, rng)

        monkeypatch.setattr(T, "_dropout_fwd", spy)
        config = TrainConfig(epochs=1, lr=1e-2, folds=2, seed=0, batch_size=8)
        cross_validated_train(toy_separable_examples(12), replace(TOY_ENC, p_drop=0.0),
                              "last", config)
        assert rates and set(rates) == {0.0}

    def test_returns_the_prepared_data(self):
        examples = toy_separable_examples(30)
        config = TrainConfig(epochs=1, lr=1e-2, folds=3, seed=2, batch_size=8)
        res = cross_validated_train(examples, TOY_ENC, "lstm", config)
        vocab = vocab_for_examples(examples)
        assert res.vocab.tokens() == vocab.tokens()
        assert res.model_config == replace(TOY_ENC, V=len(vocab))
        for got, want in zip(res.arrays, pack_dataset(examples, vocab, TOY_ENC.S_max)):
            npt.assert_array_equal(got, want)

    def test_epoch_hook_gets_each_folds_held_out_set(self):
        examples = toy_separable_examples(30)
        config = TrainConfig(epochs=2, lr=1e-2, folds=3, seed=4, batch_size=8)
        calls = []
        res = cross_validated_train(
            examples, TOY_ENC, "last", config,
            epoch_hook=lambda fold, epoch, model, held: calls.append((fold, epoch, held)))
        assert [(f, e) for f, e, _ in calls] == [(f, e) for f in range(3) for e in (1, 2)]
        splits = kfold_split(res.arrays[3], 3, 4)
        for fold, _, held in calls:
            test_idx = splits[fold][1]
            for got, arr in zip(held, res.arrays):
                npt.assert_array_equal(got, arr[test_idx])

    def test_class_count_keyword(self):
        # Labels 0 and 1 only: by default 2 classes, with n_classes=3 a third
        # (empty) class in every fold.
        examples = [ex for ex in toy_separable_examples(30) if ex.label < 2]
        config = TrainConfig(epochs=1, lr=1e-2, folds=2, seed=0, batch_size=8)
        for n_classes, want in ((None, 2), (3, 3)):
            res = cross_validated_train(examples, TOY_ENC, "last", config,
                                        n_classes=n_classes)
            assert [len(r.per_class_f1) for r in res.fold_results] == [want, want]
            assert [r.empty_classes for r in res.fold_results] == [[2] if want == 3 else []] * 2

    def test_fold_models_are_fit_runs(self):
        # Fold f's model is fit run f on the fold's training rows.
        examples = toy_separable_examples(30)
        config = TrainConfig(epochs=2, lr=1e-2, folds=3, seed=3, batch_size=8)
        trained = {}
        res = cross_validated_train(
            examples, TOY_ENC, "attention", config,
            epoch_hook=lambda fold, epoch, model, held: trained.setdefault(fold, model))
        train_idx, _ = kfold_split(res.arrays[3], 3, 3)[1]
        model = fit(res.model_config, "attention", 3,
                    tuple(a[train_idx] for a in res.arrays), config, run=1)
        for name, p in model.parameters().items():
            npt.assert_array_equal(p.data, trained[1].parameters()[name].data)


class TestTrainingDynamics:
    def test_loss_non_increasing_first_five_steps(self):
        # Desk-scale model, lr 1e-3, fixed batch; >= 18/20 seeds.
        ex = synth_generate(16, seed=0)
        vocab = vocab_for_examples(ex)
        cfg = EncoderConfig(L=4, H=32, A=4, F=64, V=len(vocab), S_max=64, p_drop=0.0)
        tok, seg, mask, labels = pack_dataset(ex, vocab, 64)
        from clspool.train import Adam, regularized_loss
        hits = 0
        for seed in range(20):
            m = PooledClassifier(cfg, "lstm", 3, R.rng_for(seed, 0))
            params = m.parameters()
            decay = m.decay_names()
            opt = Adam(params, lr=1e-3)
            losses = []
            for _ in range(6):
                logits = m.forward_batch(tok, seg, mask)
                loss = regularized_loss(logits, labels, params, decay, 1e-5)
                losses.append(loss.item())
                opt.zero_grad()
                loss.backward()
                opt.step()
            if all(losses[i + 1] <= losses[i] for i in range(5)):
                hits += 1
        assert hits >= 18

    def test_eval_independent_of_batch_composition(self):
        ex = synth_generate(12, seed=1)
        vocab = vocab_for_examples(ex)
        cfg = EncoderConfig(L=2, H=16, A=2, F=24, V=len(vocab), S_max=64, p_drop=0.1)
        tok, seg, mask, labels = pack_dataset(ex, vocab, 64)
        m = PooledClassifier(cfg, "attention", 3, R.rng_for(0, 0))
        whole = m.forward_batch(tok, seg, mask).data
        singles = np.vstack([m.forward_batch(tok[i:i + 1], seg[i:i + 1],
                                             mask[i:i + 1]).data
                             for i in range(12)])
        npt.assert_allclose(whole, singles, rtol=0, atol=1e-6)

    @pytest.mark.skipif(not sys.platform.startswith("linux"),
                        reason="minor-fault counts and the allocator setting are Linux-specific")
    def test_repeated_evaluate_reuses_freed_memory(self):
        # Each eval batch frees its whole forward pass. The second call must
        # reuse that memory, not page it back in from the kernel.
        import resource
        rng = np.random.default_rng(0)
        B, S = 64, 32
        tok = rng.integers(4, 40, size=(B, S))
        tok[:, 0] = 2
        arrays = (tok, np.zeros((B, S), dtype=int), np.ones((B, S), dtype=int),
                  rng.integers(3, size=B))
        cfg = EncoderConfig(L=4, H=32, A=4, F=64, V=40, S_max=S, p_drop=0.1)
        m = PooledClassifier(cfg, "lstm", 3, R.rng_for(0, 0))
        evaluate(m, arrays)
        before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
        evaluate(m, arrays)
        faults = resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before
        assert faults < 1000

    def test_evaluate_keeps_no_tape(self):
        # The eval forward records no tape, so no block's attention
        # probabilities, activations or layer-norm inputs outlive it. The
        # traced peak is about 33 MB with a tape and 9 MB without.
        import tracemalloc
        rng = np.random.default_rng(0)
        B, S = 64, 32
        tok = rng.integers(4, 40, size=(B, S))
        tok[:, 0] = 2
        arrays = (tok, np.zeros((B, S), dtype=int), np.ones((B, S), dtype=int),
                  rng.integers(3, size=B))
        cfg = EncoderConfig(L=4, H=32, A=4, F=64, V=40, S_max=S, p_drop=0.1)
        m = PooledClassifier(cfg, "lstm", 3, R.rng_for(0, 0))
        tracemalloc.start()
        try:
            evaluate(m, arrays)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 16 * 2**20

    def test_evaluate_names_a_label_beyond_the_class_count(self):
        m = PooledClassifier(TOY_ENC, "last", 2, R.rng_for(0, 0))
        arrays = (np.full((3, 4), 2), np.zeros((3, 4), dtype=int), np.ones((3, 4), dtype=int),
                  np.array([1, 2, 0]))
        with pytest.raises(ValueError, match="example 1 has label 2, but the model has only 2"):
            evaluate(m, arrays)

    def test_nan_weight_stops_the_first_step(self):
        ex = toy_separable_examples(16)
        vocab = vocab_for_examples(ex)
        m = PooledClassifier(replace(TOY_ENC, V=len(vocab)), "last", 3, R.rng_for(0, 0))
        m.parameters()["classifier/W_o"].data[0, 0] = np.nan
        before = {k: p.data.copy() for k, p in m.parameters().items()}
        config = TrainConfig(epochs=2, lr=1e-2, folds=2, seed=0, batch_size=8)
        with pytest.raises(ValueError, match="epoch 1, step 1: non-finite loss"):
            train_model(m, pack_dataset(ex, vocab, 8), config, R.rng_for(0, 1), R.rng_for(0, 2))
        for k, p in m.parameters().items():
            npt.assert_array_equal(p.data, before[k])

    def test_non_finite_gradient_names_the_parameter(self, monkeypatch):
        # A finite loss whose backward puts NaN into one parameter's gradient.
        ex = toy_separable_examples(16)
        vocab = vocab_for_examples(ex)
        m = PooledClassifier(replace(TOY_ENC, V=len(vocab)), "last", 3, R.rng_for(0, 0))
        bias = m.parameters()["classifier/b_o"]
        loss_fn = regularized_loss
        calls = []

        def poisoned(*args):
            loss = loss_fn(*args)
            calls.append(1)
            if len(calls) < 3:
                return loss
            nan = Tensor(0.0, _parents=(bias,),
                         _backward=lambda g: T._accumulate(bias, np.full(3, np.nan)))
            return tape_add(loss, nan)

        monkeypatch.setattr("clspool.train.regularized_loss", poisoned)
        config = TrainConfig(epochs=2, lr=1e-2, folds=2, seed=0, batch_size=8)
        with pytest.raises(ValueError, match="epoch 2, step 1: non-finite gradient in "
                                             "parameter classifier/b_o"):
            train_model(m, pack_dataset(ex, vocab, 8), config, R.rng_for(0, 1), R.rng_for(0, 2))
        assert np.all(np.isfinite(bias.data))

    def test_evaluate_rejects_empty(self):
        m = PooledClassifier(TOY_ENC, "last", 3, R.rng_for(0, 0))
        empty = (np.zeros((0, 4), dtype=int),) * 3 + (np.zeros(0, dtype=int),)
        with pytest.raises(ValueError, match="empty"):
            evaluate(m, empty)


def varied_length_examples(n, seed):
    """Texts of 1 to 15 tokens, so packed lengths vary and batches pad."""
    rng = np.random.default_rng(seed)
    return [PairExample(" ".join(f"w{int(w)}" for w in rng.integers(12, size=1 + i % 15)),
                        f"a{i % 3}", int(rng.integers(3)))
            for i in rng.permutation(n)]


class TestLengthOrderedEval:
    """``eval_batches`` batches examples by packed length; results stay in dataset order."""

    @staticmethod
    def model_and_arrays(ex):
        vocab = vocab_for_examples(ex)
        cfg = EncoderConfig(L=2, H=8, A=2, F=12, V=len(vocab), S_max=32, p_drop=0.1)
        return (PooledClassifier(cfg, "attention", 3, R.rng_for(0, 0)),
                pack_dataset(ex, vocab, 32), vocab)

    def test_batches_cover_the_dataset_in_stable_length_order(self):
        _, arrays, _ = self.model_and_arrays(varied_length_examples(40, seed=1))
        batches = list(eval_batches(arrays, 8))
        assert [len(b[0]) for b in batches] == [8] * 5
        idx = np.concatenate([b[0] for b in batches])
        assert sorted(idx.tolist()) == list(range(40))
        lengths = arrays[2].sum(axis=1)[idx]
        assert np.all((np.diff(lengths) > 0) | ((np.diff(lengths) == 0) & (np.diff(idx) > 0)))
        for b_idx, *parts in batches:
            for part, whole in zip(parts, arrays):
                npt.assert_array_equal(part, whole[b_idx])

    def test_evaluate_equals_one_at_a_time_predict(self):
        model, arrays, _ = self.model_and_arrays(varied_length_examples(40, seed=2))
        tok, seg, mask, labels = arrays
        alone = np.array([model.predict(tok[i:i + 1], seg[i:i + 1], mask[i:i + 1])[0]
                          for i in range(40)])
        for batch_size in (1, 7, 64):
            # Scored against the one-at-a-time predictions, every example is right.
            assert evaluate(model, (tok, seg, mask, alone), batch_size).accuracy == 1.0
        cm = evaluate(model, arrays).confusion
        npt.assert_array_equal(cm, confusion_matrix(labels, alone, 3))
        perm = np.random.default_rng(0).permutation(40)
        npt.assert_array_equal(evaluate(model, tuple(a[perm] for a in arrays)).confusion, cm)

    @pytest.mark.parametrize("batch_size", [4, 64])
    def test_non_finite_logits_name_the_example(self, batch_size):
        # Example 1 is the longest, so length order moves it to the end.
        ex = varied_length_examples(12, seed=3)
        ex[1] = PairExample(" ".join(["poison"] + ["w1"] * 20), "a1", 0)
        model, arrays, vocab = self.model_and_arrays(ex)
        assert next(eval_batches(arrays, 12))[0][-1] == 1
        model.parameters()["embed/token"].data[vocab.id("poison")] = np.nan
        with pytest.raises(ValueError, match=r"^evaluating example 1: non-finite logits "):
            evaluate(model, arrays, batch_size)
