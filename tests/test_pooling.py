import numpy as np
import numpy.testing as npt
import pytest
from scipy.special import softmax

from clspool import rng as R
from clspool.encoder import EncoderConfig, init_normal
from clspool.model import PooledClassifier
from clspool.pooling import (HEAD_KINDS, HEADS, AttentionPoolHead, ClassifierHead, LastPoolHead,
                             LSTMPoolHead, classify)
from clspool.tensor import Tensor


def trace_of(*rows):
    """A trace of B=1: each H-vector becomes one (1, H) layer."""
    return [Tensor(np.asarray(r, dtype=float).reshape(1, -1)) for r in rows]


def random_trace(rng, L, H):
    return trace_of(*[rng.normal(size=H) for _ in range(L)])


# ---------------------------------------------------------------------------
# reference oracles


def sigmoid(x):
    return 1.0 / (1.0 + np.exp(-x))


def reference_lstm(vectors, head):
    """Step-by-step scalar-level LSTM cell oracle; gate k is column block k."""
    H = head.params["lstm/b"].shape[0] // 4
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
    return h


def reference_attention(vectors, head):
    """Brute-force softmax + weighted-sum oracle."""
    q = head.params["attnpool/q"].data
    W = head.params["attnpool/W_h"].data
    s = np.array([q @ v for v in vectors])
    e = np.exp(s - s.max())
    alpha = e / e.sum()
    combined = sum(a * v for a, v in zip(alpha, vectors))
    return W.T @ combined, alpha


# ---------------------------------------------------------------------------


class TestLastPool:
    def test_definition(self):
        t = trace_of([1.0, 2.0], [3.0, 4.0], [5.0, 6.0])
        npt.assert_array_equal(LastPoolHead(2, None).pool(t).data, [[5.0, 6.0]])

    def test_singleton(self):
        t = trace_of([7.0, 8.0])
        npt.assert_array_equal(LastPoolHead(2, None).pool(t).data, [[7.0, 8.0]])

    def test_empty_trace(self):
        with pytest.raises(ValueError, match="nonempty"):
            LastPoolHead(2, None).pool([])

    def test_matches_attention_with_identity_when_single_layer(self):
        rng = np.random.default_rng(0)
        head = AttentionPoolHead(4, rng)
        head.params["attnpool/W_h"].data = np.eye(4)
        t = random_trace(rng, 1, 4)
        npt.assert_allclose(head.pool(t).data, LastPoolHead(4, None).pool(t).data,
                            atol=1e-12)


class TestLSTMPool:
    def test_zero_parameters_give_zero_output(self):
        head = LSTMPoolHead(4, np.random.default_rng(0))
        for p in head.params.values():
            p.data[:] = 0.0
        t = trace_of([1.0, -2.0, 3.0, 0.5], [4.0, 4.0, 4.0, 4.0])
        npt.assert_array_equal(head.pool(t).data, np.zeros((1, 4)))

    def test_single_step_matches_reference_cell(self):
        rng = np.random.default_rng(1)
        head = LSTMPoolHead(5, rng)
        v = rng.normal(size=5)
        npt.assert_allclose(head.pool(trace_of(v)).data,
                            [reference_lstm([v], head)], atol=1e-12)

    def test_matches_reference_over_trace(self):
        rng = np.random.default_rng(2)
        for _ in range(20):
            L = int(rng.integers(1, 8))
            H = int(rng.integers(2, 12))
            head = LSTMPoolHead(H, rng)
            vectors = [rng.normal(size=H) for _ in range(L)]
            npt.assert_allclose(head.pool(trace_of(*vectors)).data,
                                [reference_lstm(vectors, head)], atol=1e-10)

    def test_reversal_changes_output(self):
        rng = np.random.default_rng(3)
        head = LSTMPoolHead(6, rng)
        vectors = [rng.normal(size=6) for _ in range(4)]
        fwd = head.pool(trace_of(*vectors)).data
        rev = head.pool(trace_of(*vectors[::-1])).data
        assert np.abs(fwd - rev).max() > 1e-6

    def test_order_sensitivity_across_seeds(self):
        hits = 0
        for seed in range(20):
            rng = np.random.default_rng(seed)
            head = LSTMPoolHead(6, rng)
            vectors = [rng.normal(size=6) for _ in range(4)]
            fwd = head.pool(trace_of(*vectors)).data
            rev = head.pool(trace_of(*vectors[::-1])).data
            if np.abs(fwd - rev).max() > 1e-8:
                hits += 1
        assert hits >= 19

    def test_init_draws_whole_gate_blocks_and_opens_the_forget_gate(self):
        H = 5
        head = LSTMPoolHead(H, np.random.default_rng(7))
        same = np.random.default_rng(7)
        assert {name: p.shape for name, p in head.params.items()} == {
            "lstm/W": (H, 4 * H), "lstm/U": (H, 4 * H), "lstm/b": (4 * H,)}
        npt.assert_array_equal(head.params["lstm/W"].data, init_normal(same, (H, 4 * H)))
        npt.assert_array_equal(head.params["lstm/U"].data, init_normal(same, (H, 4 * H)))
        npt.assert_array_equal(head.params["lstm/b"].data,
                               np.r_[np.zeros(H), np.ones(H), np.zeros(2 * H)])

    def test_empty_trace(self):
        head = LSTMPoolHead(3, np.random.default_rng(0))
        with pytest.raises(ValueError, match="nonempty"):
            head.pool([])


class TestAttentionPool:
    def test_single_layer(self):
        rng = np.random.default_rng(4)
        head = AttentionPoolHead(3, rng)
        v = rng.normal(size=3)
        o, w = head.pool(trace_of(v), return_weights=True)
        npt.assert_allclose(w.data, [[1.0]], atol=1e-15)
        npt.assert_allclose(o.data, [head.params["attnpool/W_h"].data.T @ v], atol=1e-12)

    def test_zero_query_gives_uniform_mean(self):
        rng = np.random.default_rng(5)
        head = AttentionPoolHead(3, rng)
        head.params["attnpool/q"].data[:] = 0.0
        vectors = [rng.normal(size=3) for _ in range(4)]
        o, w = head.pool(trace_of(*vectors), return_weights=True)
        npt.assert_allclose(w.data, 0.25, atol=1e-15)
        npt.assert_allclose(o.data,
                            [head.params["attnpool/W_h"].data.T @ np.mean(vectors, axis=0)],
                            atol=1e-12)

    def test_worked_example(self):
        head = AttentionPoolHead(2, np.random.default_rng(0))
        head.params["attnpool/q"].data = np.array([1.0, 0.0])
        head.params["attnpool/W_h"].data = np.eye(2)
        t = trace_of([0.0, 4.0], [np.log(3.0), 0.0])
        o, w = head.pool(t, return_weights=True)
        npt.assert_allclose(w.data, [[0.25, 0.75]], atol=1e-12)
        npt.assert_allclose(o.data, [[0.75 * np.log(3.0), 1.0]], atol=1e-12)

    def test_matches_brute_force_oracle(self):
        rng = np.random.default_rng(6)
        for _ in range(100):
            L = int(rng.integers(1, 9))
            H = int(rng.integers(2, 17))
            head = AttentionPoolHead(H, rng)
            vectors = [rng.normal(size=H) for _ in range(L)]
            o = head.pool(trace_of(*vectors)).data
            expect, _ = reference_attention(vectors, head)
            npt.assert_allclose(o, [expect], atol=1e-10)

    def test_permutation_invariance(self):
        rng = np.random.default_rng(7)
        head = AttentionPoolHead(5, rng)
        vectors = [rng.normal(size=5) for _ in range(6)]
        base = head.pool(trace_of(*vectors)).data
        for _ in range(5):
            perm = rng.permutation(6)
            out = head.pool(trace_of(*[vectors[i] for i in perm])).data
            npt.assert_allclose(out, base, atol=1e-10)

    def test_query_scaling_preserves_argmax(self):
        rng = np.random.default_rng(8)
        for seed in range(10):
            head = AttentionPoolHead(4, np.random.default_rng(seed))
            vectors = [rng.normal(size=4) for _ in range(5)]
            _, w = head.pool(trace_of(*vectors), return_weights=True)
            base = int(np.argmax(w.data))
            for c in (0.1, 2.0, 17.0):
                head.params["attnpool/q"].data *= c
                _, w2 = head.pool(trace_of(*vectors), return_weights=True)
                assert int(np.argmax(w2.data)) == base
                head.params["attnpool/q"].data /= c

    def test_convex_hull_with_identity_projection(self):
        rng = np.random.default_rng(9)
        head = AttentionPoolHead(4, rng)
        head.params["attnpool/W_h"].data = np.eye(4)
        vectors = [rng.normal(size=4) for _ in range(5)]
        o = head.pool(trace_of(*vectors)).data
        stacked = np.stack(vectors)
        assert np.all(o >= stacked.min(axis=0) - 1e-12)
        assert np.all(o <= stacked.max(axis=0) + 1e-12)

    def test_empty_trace(self):
        head = AttentionPoolHead(3, np.random.default_rng(0))
        with pytest.raises(ValueError, match="nonempty"):
            head.pool([])


class TestClassifier:
    def test_zero_weights_uniform(self):
        head = ClassifierHead(4, 3, np.random.default_rng(0))
        head.params["classifier/W_o"].data[:] = 0.0
        y = softmax(classify(Tensor(np.ones((1, 4))), head).data, axis=1)
        npt.assert_allclose(y, [[1 / 3] * 3], atol=1e-15)

    def test_log_bias_ratios(self):
        head = ClassifierHead(4, 3, np.random.default_rng(0))
        head.params["classifier/W_o"].data[:] = 0.0
        head.params["classifier/b_o"].data = np.log([1.0, 2.0, 3.0]) - 0.37
        y = softmax(classify(Tensor(np.zeros((1, 4))), head).data, axis=1)
        npt.assert_allclose(y, [[1 / 6, 2 / 6, 3 / 6]], atol=1e-12)

    def test_sums_to_one_random(self):
        rng = np.random.default_rng(10)
        for _ in range(100):
            head = ClassifierHead(6, 4, rng)
            y = softmax(classify(Tensor(rng.normal(size=(1, 6))), head).data, axis=1)
            assert abs(y.sum() - 1.0) < 1e-12
            assert np.all(y >= 0)

    def test_dropout_only_when_training(self):
        rng = np.random.default_rng(11)
        head = ClassifierHead(4, 2, rng)
        o = Tensor(rng.normal(size=(1, 4)))
        eval_y = classify(o, head).data
        train_y = classify(o, head, p_drop=0.5, rng=np.random.default_rng(0),
                           training=True).data
        npt.assert_allclose(classify(o, head).data, eval_y)
        assert not np.allclose(train_y, eval_y)


class TestHeadsTable:
    def test_kinds_are_the_table_keys(self):
        assert HEAD_KINDS == tuple(HEADS) == ("last", "lstm", "attention")

    @pytest.mark.parametrize("kind", HEAD_KINDS)
    def test_head_pools_a_batch_and_decays_only_its_own_params(self, kind):
        rng = np.random.default_rng(12)
        head = HEADS[kind](5, rng)
        assert head.decay <= set(head.params)
        trace = [Tensor(rng.normal(size=(3, 5))) for _ in range(4)]
        assert head.pool(trace).data.shape == (3, 5)

    @pytest.mark.parametrize("kind", HEAD_KINDS)
    def test_model_merges_the_table_head(self, kind):
        cfg = EncoderConfig(L=2, H=4, A=2, F=4, V=8, S_max=6)
        model = PooledClassifier(cfg, kind, 3, R.rng_for(0, 0))
        assert type(model.pool_head) is HEADS[kind]
        params = model.parameters()
        assert list(params) == [*model.encoder.params, *model.pool_head.params,
                                *model.classifier.params]
        assert model.decay_names() == (model.encoder.decay | model.pool_head.decay
                                       | model.classifier.decay)

    @pytest.mark.parametrize("seed", [0, 3])
    def test_heads_share_the_encoder_and_classifier_init(self, seed):
        # Models built from one seed differ in their head alone, so a
        # comparison of heads is paired in everything else.
        cfg = EncoderConfig(L=2, H=4, A=2, F=4, V=8, S_max=6)
        models = [PooledClassifier(cfg, kind, 3, R.rng_for(seed, R.INIT)) for kind in HEAD_KINDS]
        heads = [set(m.pool_head.params) for m in models]
        shared = [{name: p.data for name, p in m.parameters().items()
                   if not any(name in h for h in heads)} for m in models]
        assert "classifier/W_o" in shared[0] and "layer1/attn/Wqkv" in shared[0]
        for other in shared[1:]:
            assert other.keys() == shared[0].keys()
            for name, a in shared[0].items():
                assert np.array_equal(other[name], a), name


class TestGradients:
    def test_head_parameters_pass_finite_difference(self):
        from clspool.gradcheck import run_gradcheck
        ok, results = run_gradcheck(seeds=3, coords_per_param=1)
        assert ok, results

    def test_a_model_scenario_for_every_head(self):
        from clspool.gradcheck import SCENARIOS
        assert [k for k in SCENARIOS if k.startswith("encoder_")] == [
            f"encoder_{kind}_pool" for kind in HEAD_KINDS]
