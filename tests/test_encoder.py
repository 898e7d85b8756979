import math

import numpy as np
import numpy.testing as npt
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from clspool import rng as R
from clspool import tensor as T
from clspool.encoder import EncoderConfig, MiniEncoder
from clspool.pooling import HEAD_KINDS
from clspool.tensor import ShapeError

from test_tensor import (tape_add, tape_dropout, tape_matmul, tape_sum_squares,
                         weighted_sum)


def small_config(**overrides):
    base = dict(L=2, H=8, A=2, F=12, V=16, S_max=10, p_drop=0.1)
    base.update(overrides)
    return EncoderConfig(**base)


@pytest.fixture()
def attention_probs(monkeypatch):
    """The probabilities of every ``T.attention_sublayer`` call, in call order."""
    probs = []
    sublayer = T.attention_sublayer

    def spy(*args, **kwargs):
        out, p = sublayer(*args, **kwargs)
        probs.append(p)
        return out, p

    monkeypatch.setattr(T, "attention_sublayer", spy)
    return probs


def make_packed(ids, segs=None):
    """A batch of one unpadded sequence: (token_ids, segment_ids, mask), each (1, S)."""
    ids = np.asarray(ids)[None, :]
    segs = np.zeros_like(ids) if segs is None else np.asarray(segs)[None, :]
    return ids, segs, np.ones_like(ids)


class TestConfig:
    def test_head_divisibility(self):
        with pytest.raises(ValueError, match="divisible"):
            EncoderConfig(L=2, H=10, A=4, F=8, V=8, S_max=8)

    def test_layer_count(self):
        with pytest.raises(ValueError):
            small_config(L=0)

    def test_dropout_range(self):
        with pytest.raises(ValueError):
            small_config(p_drop=1.0)

    @pytest.mark.parametrize("field, value", [("L", "2"), ("L", True), ("L", 2.5),
                                              ("V", np.float64(16)), ("p_drop", "0.1"),
                                              ("p_drop", False)])
    def test_field_of_the_wrong_type(self, field, value):
        with pytest.raises(ValueError, match=f"^{field} must be an? (integer|number), got "):
            small_config(**{field: value})

    def test_integer_dropout_rate(self):
        assert small_config(p_drop=0).p_drop == 0


def embed_weights(enc):
    """The encoder's five embedding weights, in ``T.embedding_sublayer``'s order."""
    return [enc.params[f"embed/{name}"]
            for name in ("token", "segment", "position", "ln_g", "ln_b")]


def embed_rows(enc, ids, segs, positions, p=0.0, rng=None):
    """``T.embedding_sublayer`` on the encoder's weights, one row per (id, segment, position),
    with dropout at rate ``p``."""
    return T.embedding_sublayer(np.stack([ids, segs, positions], axis=1), embed_weights(enc),
                                p, rng)


def embed_sequence(enc, ids):
    """The embedding of the positions 0, 1, ... of one segment-0 sequence."""
    return embed_rows(enc, np.asarray(ids), np.zeros(len(ids), dtype=int), np.arange(len(ids)))


def tape_layer_norm(x, gamma, beta):
    """Per-row layer norm of a matrix, as one tape node on the private pair the sublayers share."""
    y, xhat, inv = T._layer_norm_fwd(x.data, gamma.data, beta.data)

    def bwd(g):
        dgamma, dbeta, dx = T._layer_norm_bwd(g, xhat, inv, gamma.data)
        T._accumulate(gamma, dgamma)
        T._accumulate(beta, dbeta)
        T._accumulate(x, dx)

    return T.Tensor(y, _parents=(x, gamma, beta), _backward=bwd)


def reference_embedding(enc, ids, segs, positions, p_drop, rng):
    """The unfused embedding, seven tape nodes: three gathers, two adds, a
    layer norm and a dropout; the reference the fused op must equal to the bit."""
    p = enc.params
    x = tape_add(tape_add(T.gather_rows(p["embed/token"], ids),
                          T.gather_rows(p["embed/segment"], segs)),
                 T.gather_rows(p["embed/position"], positions))
    x = tape_layer_norm(x, p["embed/ln_g"], p["embed/ln_b"])
    return tape_dropout(x, p_drop, rng)


@st.composite
def embedding_cases(draw):
    """The valid positions of a mask with holes, each with a token id from a
    small vocabulary (so ids repeat) and a segment; an encoder config and a seed."""
    B = draw(st.integers(1, 4))
    S = draw(st.integers(1, 8))
    mask = np.array(draw(st.lists(st.lists(st.integers(0, 1), min_size=S, max_size=S),
                                  min_size=B, max_size=B)))
    mask[:, 0] = 1
    _, cols = np.nonzero(mask)
    V = draw(st.integers(1, 6))
    ids = np.array(draw(st.lists(st.integers(0, V - 1), min_size=len(cols), max_size=len(cols))))
    segs = np.array(draw(st.lists(st.integers(0, 1), min_size=len(cols), max_size=len(cols))))
    config = small_config(L=1, H=draw(st.integers(1, 8)), A=1, V=V,
                          S_max=draw(st.integers(max(S, 4), 10)),
                          p_drop=draw(st.sampled_from([0.0, 0.3])))
    return ids, segs, cols, config, draw(st.integers(0, 2**32 - 1))


class TestEmbed:
    def test_zero_tables_give_zero_rows(self):
        enc = MiniEncoder(small_config(), R.rng_for(0, 0))
        for name in ("embed/token", "embed/segment", "embed/position"):
            enc.params[name].data[:] = 0.0
        out = embed_sequence(enc, [2, 5, 3])
        npt.assert_array_equal(out.data, np.zeros((3, 8)))

    def test_eval_determinism(self):
        enc = MiniEncoder(small_config(), R.rng_for(0, 0))
        a = embed_sequence(enc, [2, 5, 7, 3]).data
        b = embed_sequence(enc, [2, 5, 7, 3]).data
        assert np.array_equal(a, b)

    def test_length_error(self):
        # The encoder checks the batch's length after cutting the columns no
        # row uses, so trailing padding past S_max is no error.
        enc = MiniEncoder(small_config(S_max=4), R.rng_for(0, 0))
        with pytest.raises(ValueError, match="sequence length 5 exceeds S_max=4"):
            enc.forward_batch(*make_packed([2, 5, 7, 6, 3]))
        ids, segs, _ = make_packed([2, 5, 7, 6, 0, 0])
        enc.forward_batch(ids, segs, np.array([[1, 1, 1, 1, 0, 0]]))

    def test_id_out_of_vocab(self):
        enc = MiniEncoder(small_config(V=8), R.rng_for(0, 0))
        with pytest.raises(IndexError):
            embed_sequence(enc, [2, 8, 3])

    def test_each_row_embeds_its_own_token_segment_and_position(self):
        # The valid positions of a batch with holes, example-major.
        enc = MiniEncoder(small_config(), R.rng_for(0, 1))
        p = {name: enc.params[name].data for name in enc.params}
        p["embed/ln_g"][:] = np.linspace(0.5, 1.5, 8)
        p["embed/ln_b"][:] = np.linspace(-1.0, 1.0, 8)
        ids = np.array([2, 5, 7, 2, 9])
        segs = np.array([0, 1, 1, 0, 1])
        positions = np.array([0, 1, 3, 0, 2])
        out = embed_rows(enc, ids, segs, positions).data
        for row, (t, g, pos) in enumerate(zip(ids, segs, positions)):
            x = p["embed/token"][t] + p["embed/segment"][g] + p["embed/position"][pos]
            ref = (x - x.mean()) / np.sqrt(x.var() + 1e-12) * p["embed/ln_g"] + p["embed/ln_b"]
            npt.assert_allclose(out[row], ref, rtol=0, atol=1e-12)

    @settings(max_examples=150, deadline=None)
    @given(embedding_cases())
    def test_bit_identical_to_the_seven_node_embedding(self, case):
        ids, segs, positions, config, seed = case
        enc = MiniEncoder(config, R.rng_for(seed, 0))
        for name in ("embed/ln_g", "embed/ln_b"):   # away from their init values
            enc.params[name].data += np.random.default_rng(seed).normal(size=config.H)
        w = np.random.default_rng(seed + 1).normal(size=(len(ids), config.H))

        def run(fused):
            embed = embed_rows if fused else reference_embedding
            out = embed(enc, ids, segs, positions, config.p_drop, R.rng_for(seed, 1))
            weighted_sum(out, w).backward()
            grads = [p.grad for p in embed_weights(enc)]
            for p in enc.params.values():
                p.grad = None
            return out.data, grads

        out, grads = run(True)
        ref_out, ref_grads = run(False)
        assert np.array_equal(out, ref_out)
        assert len(grads) == 5
        for g, ref in zip(grads, ref_grads):
            assert g.shape == ref.shape and np.array_equal(g, ref)

    def test_one_tape_node_and_none_under_no_grad(self):
        enc = MiniEncoder(small_config(), R.rng_for(0, 2))
        out = embed_rows(enc, [2, 5, 5], [0, 1, 1], [0, 1, 2], 0.1, R.rng_for(0, 3))
        assert len(out._parents) == 5
        assert all(a is b for a, b in zip(out._parents, embed_weights(enc)))
        with T.no_grad():
            out = embed_rows(enc, [2, 5, 5], [0, 1, 1], [0, 1, 2], 0.1, R.rng_for(0, 3))
        assert out._parents == () and out._backward is None and not out.requires_grad

    @pytest.mark.parametrize("column, name", [(0, "token"), (1, "segment"), (2, "position")])
    def test_out_of_range_ids_are_rejected(self, column, name):
        enc = MiniEncoder(small_config(V=8, S_max=6), R.rng_for(0, 4))
        rows = [w.shape[0] for w in embed_weights(enc)[:3]]
        for bad in (-1, rows[column]):
            ids = np.array([[2, 0, 0], [3, 1, 1], [4, 1, 2]])
            ids[1, column] = bad
            with pytest.raises(IndexError, match=f"{name} ids span .*, matrix has {rows[column]}"):
                T.embedding_sublayer(ids, embed_weights(enc))

    def test_shapes_rejected(self):
        enc = MiniEncoder(small_config(), R.rng_for(0, 5))
        weights = embed_weights(enc)
        with pytest.raises(ShapeError, match="ids must be N×3"):
            T.embedding_sublayer(np.zeros((3, 2), dtype=int), weights)
        with pytest.raises(ShapeError):
            T.embedding_sublayer(np.zeros((3, 3), dtype=int), weights[:4])
        with pytest.raises(ShapeError):
            T.embedding_sublayer(np.zeros((3, 3), dtype=int),
                                 [*weights[:3], T.Tensor(np.ones(4)), weights[4]])


class TestSelfAttention:
    def test_uniform_weights_when_projections_zero(self, attention_probs):
        # Layer 0 is not the last, so every position queries; the second,
        # unpadded example keeps column 3 from being trimmed.
        enc = MiniEncoder(small_config(L=2), R.rng_for(1, 0))
        for i in range(2):
            enc.params[f"layer{i}/attn/Wqkv"].data[:, :2 * 8] = 0.0   # the Q and K columns
        mask = np.array([[1, 1, 1, 0], [1, 1, 1, 1]])
        enc.forward_batch(np.array([[2, 5, 6, 0], [2, 5, 6, 7]]), np.zeros((2, 4), dtype=int),
                          mask)
        attn = attention_probs
        assert attn[0].shape == (2, 2, 4, 4)
        for head in attn[0][0]:
            # Uniform over the 3 unmasked positions, zero on the masked one.
            npt.assert_allclose(head[:3, :3], 1 / 3, atol=1e-12)
            npt.assert_allclose(head[:3, 3], 0.0, atol=1e-30)
        # The last layer queries from the [CLS] row alone.
        assert attn[1].shape == (2, 2, 1, 4)
        for head in attn[1][0]:
            npt.assert_allclose(head[0, :3], 1 / 3, atol=1e-12)
            npt.assert_allclose(head[0, 3], 0.0, atol=1e-30)

    def test_singleton_weight_is_one(self, attention_probs):
        enc = MiniEncoder(small_config(L=1), R.rng_for(2, 0))
        enc.forward_batch(np.array([[2]]), np.zeros((1, 1), dtype=int),
                          np.ones((1, 1), dtype=int))
        for head in attention_probs[0][0]:
            npt.assert_allclose(head, [[1.0]], atol=1e-15)

    def test_rows_sum_to_one(self, attention_probs):
        enc = MiniEncoder(small_config(), R.rng_for(3, 0))
        rng = np.random.default_rng(0)
        ids = rng.integers(4, 16, size=(2, 6))
        mask = np.ones((2, 6), dtype=int)
        mask[0, -1] = 0
        enc.forward_batch(ids, np.zeros((2, 6), dtype=int), mask)
        assert [layer.shape for layer in attention_probs] == [(2, 2, 6, 6), (2, 2, 1, 6)]
        for layer in attention_probs:
            npt.assert_allclose(layer.sum(axis=-1), 1.0, atol=1e-6)


class TestEncode:
    def test_single_layer_trace_is_final_cls(self):
        enc = MiniEncoder(small_config(L=1), R.rng_for(4, 0))
        final, trace = enc.forward_batch(*make_packed([2, 5, 3]))
        assert len(trace) == 1
        npt.assert_array_equal(trace[0].data, final.data[:1])

    def test_shapes(self):
        enc = MiniEncoder(small_config(L=4, H=8, V=32), R.rng_for(5, 0))
        _, trace = enc.forward_batch(*make_packed([2, 9, 11, 3]))
        assert len(trace) == 4
        for v in trace:
            assert v.shape == (1, 8)

    def test_eval_determinism(self):
        enc = MiniEncoder(small_config(), R.rng_for(6, 0))
        packed = make_packed([2, 5, 7, 3], segs=[0, 0, 1, 1])
        f1, t1 = enc.forward_batch(*packed)
        f2, t2 = enc.forward_batch(*packed)
        assert np.array_equal(f1.data, f2.data)
        for a, b in zip(t1, t2):
            assert np.array_equal(a.data, b.data)

    def test_trace_last_equals_final_row0(self):
        enc = MiniEncoder(small_config(L=3), R.rng_for(7, 0))
        final, trace = enc.forward_batch(*make_packed([2, 4, 9, 3]))
        npt.assert_array_equal(trace[len(trace) - 1].data, final.data[:1])

    def test_masked_token_does_not_leak(self):
        # The second, unpadded example keeps the masked column from being trimmed.
        enc = MiniEncoder(small_config(), R.rng_for(8, 0))
        mask = np.array([[1, 1, 1, 0], [1, 1, 1, 1]])
        segs = np.zeros((2, 4), dtype=int)
        fa, ta = enc.forward_batch(np.array([[2, 5, 3, 7], [2, 5, 3, 9]]), segs, mask)
        fb, tb = enc.forward_batch(np.array([[2, 5, 3, 12], [2, 5, 3, 9]]), segs, mask)
        npt.assert_array_equal(fa.data, fb.data)
        for va, vb in zip(ta, tb):
            npt.assert_array_equal(va.data, vb.data)


class TestGradientFlow:
    def test_every_layer_gets_gradient_through_trace(self):
        from clspool.pooling import AttentionPoolHead
        enc = MiniEncoder(small_config(L=3), R.rng_for(9, 0))
        head = AttentionPoolHead(8, R.rng_for(9, 1))
        _, trace = enc.forward_batch(*make_packed([2, 5, 9, 3]))
        o = head.pool(trace)
        tape_sum_squares([o], 1.0).backward()
        for name, p in enc.params.items():
            assert p.grad is not None, name
            assert np.any(p.grad != 0.0), f"all-zero gradient for {name}"


class TestBatching:
    def test_batched_equals_single(self):
        enc = MiniEncoder(small_config(), R.rng_for(10, 0))
        rng = np.random.default_rng(1)
        ids = rng.integers(4, 16, size=(3, 5))
        segs = np.zeros((3, 5), dtype=int)
        mask = np.ones((3, 5), dtype=int)
        mask[1, -2:] = 0
        _, batch_trace = enc.forward_batch(ids, segs, mask)
        for b in range(3):
            _, single = enc.forward_batch(ids[b:b + 1], segs[b:b + 1], mask[b:b + 1])
            for li in range(enc.config.L):
                npt.assert_allclose(batch_trace[li].data[b], single[li].data[0],
                                    rtol=0, atol=1e-6)

    def test_sweep_point_b128_s64_runs_in_eval(self, attention_probs):
        enc = MiniEncoder(EncoderConfig(), R.rng_for(11, 0))
        rng = np.random.default_rng(2)
        ids = rng.integers(4, 100, size=(128, 64))
        mask = np.ones((128, 64), dtype=int)
        mask[::2, 40:] = 0
        final, trace = enc.forward_batch(ids, np.zeros_like(ids), mask)
        attn = attention_probs
        assert final.shape == (128, 32)
        assert len(trace) == len(attn) == 4
        assert [probs.shape for probs in attn] == [(128, 4, 64, 64)] * 3 + [(128, 4, 1, 64)]
        for probs in attn:
            assert not np.any(probs[::2, :, :, 40:])


class TestMaskValidation:
    def test_empty_batch_is_rejected(self):
        enc = MiniEncoder(small_config(), R.rng_for(12, 1))
        empty = np.zeros((0, 5), dtype=int)
        with pytest.raises(ValueError, match="empty batch"):
            enc.forward_batch(empty, empty, empty)

    def test_mask_shape_must_match_token_ids(self):
        enc = MiniEncoder(small_config(), R.rng_for(12, 0))
        ids = np.array([[2, 5, 6, 3]])
        with pytest.raises(ShapeError, match=r"mask shape \(1, 3\)"):
            enc.forward_batch(ids, np.zeros_like(ids), np.array([[1, 1, 1]]))
        with pytest.raises(ShapeError, match=r"mask shape \(1, 4\)"):
            enc.forward_batch(np.vstack([ids, ids]), np.zeros((2, 4), dtype=int),
                              np.ones((1, 4), dtype=int))

    def test_row_without_valid_position_is_rejected(self):
        enc = MiniEncoder(small_config(), R.rng_for(13, 0))
        ids = np.array([[2, 5, 6, 3], [2, 7, 8, 3], [2, 9, 3, 0]])
        mask = np.ones((3, 4), dtype=int)
        mask[1] = 0
        with pytest.raises(ValueError, match=r"mask rows \[1\] have no valid position"):
            enc.forward_batch(ids, np.zeros_like(ids), mask)

    def test_row_with_masked_cls_column_is_rejected(self):
        enc = MiniEncoder(small_config(), R.rng_for(13, 1))
        ids = np.array([[2, 5, 6, 3], [2, 7, 8, 3], [2, 9, 3, 0]])
        mask = np.ones((3, 4), dtype=int)
        mask[0, 0] = mask[2, 0] = 0
        with pytest.raises(ValueError, match=r"mask rows \[0, 2\] do not mark the \[CLS\] column"):
            enc.forward_batch(ids, np.zeros_like(ids), mask)
        # A row with no valid position at all keeps its own message.
        mask[2] = 0
        with pytest.raises(ValueError, match=r"mask rows \[2\] have no valid position"):
            enc.forward_batch(ids, np.zeros_like(ids), mask)


def full_trace(enc, ids, segs, mask):
    """Reference: every block over every valid position of the untrimmed
    batch, then each layer's [CLS] rows."""
    rows, cols = np.nonzero(mask)
    x = embed_rows(enc, ids[rows, cols], segs[rows, cols], cols)
    trace = []
    for i in range(enc.config.L):
        x = enc._block(x, mask, i, 0.0, None)
        trace.append(T.gather_rows(x, np.flatnonzero(cols == 0)))
    return trace


def as_float64(model):
    """``model`` with every parameter cast to float64, so that its whole-model
    comparisons can be held to float64 rounding; returns the model."""
    for p in model.parameters().values():
        p.data = p.data.astype(np.float64)
    return model


def padded_batch(S):
    """Three examples of lengths 5, 3 and 4, padded to S <= 8 columns; the
    first columns of the token ids do not depend on S."""
    ids = np.random.default_rng(14).integers(4, 16, size=(3, 8))[:, :S]
    ids[:, 0] = 2
    segs = np.zeros((3, S), dtype=int)
    segs[:, 2:] = 1
    mask = (np.arange(S) < np.array([[5], [3], [4]])).astype(int)
    return ids, segs, mask


class TestClsRowsAndTrim:
    @pytest.mark.parametrize("kind", HEAD_KINDS)
    def test_logits_and_gradients_equal_the_full_computation(self, kind):
        from clspool.model import PooledClassifier
        from clspool.pooling import classify
        model = as_float64(PooledClassifier(small_config(L=3, p_drop=0.0), kind, 3,
                                            R.rng_for(15, 0)))
        ids, segs, mask = padded_batch(7)
        labels = np.array([0, 2, 1])
        params = model.parameters()

        def run(logits_fn):
            logits = logits_fn()
            T.softmax_cross_entropy(logits, labels).backward()
            grads = {name: p.grad for name, p in params.items()}
            for p in params.values():
                p.grad = None
            return logits.data, grads

        logits, grads = run(lambda: model.forward_batch(ids, segs, mask))
        ref_logits, ref_grads = run(
            lambda: classify(model.pool(full_trace(model.encoder, ids, segs, mask)),
                             model.classifier, p_drop=0.0))
        npt.assert_allclose(logits, ref_logits, rtol=1e-12, atol=0)
        # Relative to the largest gradient entry: some (the key biases) are
        # zero in exact arithmetic, so both sides hold only rounding there.
        scale = max(np.abs(g).max() for g in ref_grads.values())
        for name, g in ref_grads.items():
            npt.assert_allclose(grads[name], g, rtol=0, atol=1e-12 * scale, err_msg=name)

    def test_trailing_padding_columns_change_nothing(self, attention_probs):
        from clspool.model import PooledClassifier
        model = PooledClassifier(small_config(p_drop=0.0), "lstm", 3, R.rng_for(16, 0))
        ids, segs, mask = padded_batch(5)
        padded = padded_batch(8)
        logits = model.forward_batch(ids, segs, mask).data
        npt.assert_allclose(model.forward_batch(*padded).data, logits, rtol=1e-12, atol=0)
        attention_probs.clear()
        model.encoder.forward_batch(*padded)
        assert [probs.shape for probs in attention_probs] == [(3, 2, 5, 5), (3, 2, 1, 5)]


class TestValidRowsOnly:
    @pytest.mark.parametrize("kind", HEAD_KINDS)
    def test_padded_batch_equals_each_example_alone(self, kind):
        # Lengths 5, 3 and 4 in 8 columns, and a hole in the first example.
        from clspool.model import PooledClassifier
        model = as_float64(PooledClassifier(small_config(L=3, p_drop=0.0), kind, 3,
                                            R.rng_for(17, 0)))
        ids, segs, mask = padded_batch(8)
        mask[0, 2] = 0
        labels = np.array([0, 2, 1])
        params = model.parameters()

        def run(b):
            batch = slice(None) if b is None else slice(b, b + 1)
            logits = model.forward_batch(ids[batch], segs[batch], mask[batch])
            T.softmax_cross_entropy(logits, labels[batch]).backward()
            grads = {name: np.zeros_like(p.data) if p.grad is None else p.grad
                     for name, p in params.items()}
            for p in params.values():
                p.grad = None
            return logits.data, grads

        logits, grads = run(None)
        alone = [run(b) for b in range(3)]
        npt.assert_allclose(logits, np.vstack([a[0] for a in alone]), rtol=1e-12, atol=0)
        # The batch loss is the mean of the three examples' losses.
        ref_grads = {name: sum(a[1][name] for a in alone) / 3 for name in params}
        scale = max(np.abs(g).max() for g in ref_grads.values())
        for name, g in ref_grads.items():
            npt.assert_allclose(grads[name], g, rtol=0, atol=1e-12 * scale, err_msg=name)

    def test_a_masked_interior_column_keeps_the_later_positions(self):
        # The token after a hole keeps its own column as its position; the
        # reference embeds every valid position at its column.
        enc = MiniEncoder(small_config(p_drop=0.0), R.rng_for(18, 0))
        ids, segs, mask = padded_batch(6)
        mask[:, 2] = 0
        _, trace = enc.forward_batch(ids, segs, mask)
        for got, ref in zip(trace, full_trace(enc, ids, segs, mask)):
            npt.assert_allclose(got.data, ref.data, rtol=1e-12, atol=0)


class TestFloat32Model:
    """The model runs in float32; the tests above hold its float64 cast to
    float64 rounding, and these bound the float32 model against that cast."""

    @pytest.mark.parametrize("kind", HEAD_KINDS)
    def test_logits_and_gradients_near_the_float64_cast(self, kind):
        from clspool.model import PooledClassifier

        def model():
            return PooledClassifier(small_config(L=3, p_drop=0.0), kind, 3, R.rng_for(17, 0))

        ids, segs, mask = padded_batch(8)
        mask[0, 2] = 0
        labels = np.array([0, 2, 1])
        runs = []
        for m in (model(), as_float64(model())):
            logits = m.forward_batch(ids, segs, mask)
            T.softmax_cross_entropy(logits, labels).backward()
            runs.append((logits.data, {name: p.grad for name, p in m.parameters().items()}))
        (logits, grads), (ref_logits, ref_grads) = runs
        assert logits.dtype == np.float32 and ref_logits.dtype == np.float64
        # float32's epsilon is 1.2e-7; a few dozen roundings in a row stay far below these.
        npt.assert_allclose(logits, ref_logits, rtol=0, atol=1e-5 * np.abs(ref_logits).max())
        scale = max(np.abs(g).max() for g in ref_grads.values())
        for name, g in ref_grads.items():
            assert grads[name].dtype == np.float32, name
            npt.assert_allclose(grads[name], g, rtol=0, atol=1e-4 * scale, err_msg=name)

    @pytest.mark.parametrize("kind", HEAD_KINDS)
    def test_init_is_the_float64_draw_rounded(self, kind):
        from clspool.model import PooledClassifier
        from clspool.pooling import HEADS, ClassifierHead
        cfg = small_config()
        model = PooledClassifier(cfg, kind, 3, R.rng_for(4, R.INIT))
        enc_rng, head_rng, cls_rng = R.rng_for(4, R.INIT).spawn(3)
        drawn = {**MiniEncoder(cfg, enc_rng).params, **HEADS[kind](cfg.H, head_rng).params,
                 **ClassifierHead(cfg.H, 3, cls_rng).params}
        assert sorted(drawn) == sorted(model.parameters())
        for name, p in model.parameters().items():
            assert p.data.dtype == np.float32 and drawn[name].data.dtype == np.float64
            npt.assert_array_equal(p.data, drawn[name].data.astype(np.float32), err_msg=name)

    @pytest.mark.parametrize("kind", HEAD_KINDS)
    def test_dropout_masks_equal_the_float64_casts(self, kind, monkeypatch):
        from clspool.model import PooledClassifier
        dropout = T._dropout_fwd
        masks = []

        def spy(*args):
            out, keep = dropout(*args)
            masks[-1].append(keep)
            return out, keep

        monkeypatch.setattr(T, "_dropout_fwd", spy)
        ids, segs, mask = padded_batch(8)
        for cast in (lambda m: m, as_float64):
            masks.append([])
            m = cast(PooledClassifier(small_config(L=3), kind, 3, R.rng_for(5, R.INIT)))
            m.forward_batch(ids, segs, mask, training=True, rng=R.rng_for(5, R.DROPOUT))
        single, double = masks
        assert len(single) == len(double) == 8   # embedding, two per block, classifier
        for k32, k64 in zip(single, double):
            assert k32.dtype == np.float32 and k64.dtype == np.float64
            npt.assert_array_equal(k32, k64.astype(np.float32))

    @pytest.mark.parametrize("kind", HEAD_KINDS)
    def test_eval_forward_draws_nothing_from_a_given_generator(self, kind):
        # Out of training every dropout runs at rate 0, so the generator keeps its state.
        from clspool.model import PooledClassifier
        model = PooledClassifier(small_config(L=3), kind, 3, R.rng_for(6, R.INIT))
        ids, segs, mask = padded_batch(8)
        g = R.rng_for(6, R.DROPOUT)
        state = g.bit_generator.state
        logits = model.forward_batch(ids, segs, mask, training=False, rng=g).data
        assert g.bit_generator.state == state
        assert np.array_equal(logits, model.forward_batch(ids, segs, mask).data)
        model.forward_batch(ids, segs, mask, training=True, rng=g)
        assert g.bit_generator.state != state


# The unfused encoder block, its products, sums and dropouts public ops and
# its attention, GELU and layer norms test-local nodes: the reference that
# the fused sublayers must equal to the bit. (It was eighteen nodes while the
# query, key and value projections were three products and layer norm was a
# public op, hence the name of the test that uses it.)
# Its GELU is the tanh form, written out in the order T._gelu_fwd and
# T._gelu_bwd compute it, so that the comparison is to the bit;
# test_tensor.TestGelu pins that pair to the formula and to the exact GELU.


def reference_gelu(a):
    x = a.data
    xc = np.clip(x, -10.0, 10.0)
    c, k = math.sqrt(2.0 / math.pi), 0.044715
    t = np.tanh((xc * xc * (k * c) + c) * xc)

    def bwd(g):
        T._accumulate(a, ((xc * xc * (3.0 * k * c) + c) * xc * (1.0 - t * t) + (1.0 + t))
                      * 0.5 * g)

    return T.Tensor((t + 1.0) * 0.5 * x, _parents=(a,), _backward=bwd)


def reference_attention(qkv, mask, heads, cls_only):
    """Multi-head attention of the N×3H rows [Q | K | V] as one tape node,
    with queries at every valid position or, with ``cls_only``, at each
    example's column 0; its core runs on the (B, 3A, S, d_h) view of the rows."""
    B, S = mask.shape
    valid = mask == 1
    N = int(np.count_nonzero(valid))
    H = qkv.shape[-1] // 3
    holes = None if N == B * S else valid
    Sq, q_holes = (1, None) if cls_only else (S, holes)
    c = 1.0 / math.sqrt(H // heads)
    QKV = T._split_heads(qkv.data, B, S, 3 * heads, holes)
    Q, K, V = QKV[:, :heads, :Sq], QKV[:, heads:2 * heads], QKV[:, 2 * heads:]
    bias = np.where(valid, 0.0, -1e9)[:, None, None, :]
    scores = np.matmul(Q, K.transpose(0, 1, 3, 2)) * c + bias
    e = np.exp(scores - scores.max(axis=-1, keepdims=True))
    P = e / e.sum(axis=-1, keepdims=True)

    def bwd(g):
        G = T._split_heads(g, B, Sq, heads, q_holes)
        dP = np.matmul(G, V.transpose(0, 1, 3, 2))
        dS = P * (dP - (dP * P).sum(axis=-1, keepdims=True)) * c
        d = np.zeros(QKV.shape)
        d[:, :heads, :Sq] = np.matmul(dS, K)
        d[:, heads:2 * heads] = np.matmul(dS.transpose(0, 1, 3, 2), Q)
        d[:, 2 * heads:] = np.matmul(P.transpose(0, 1, 3, 2), G)
        T._accumulate(qkv, T._merge_heads(d, holes))

    return T.Tensor(T._merge_heads(np.matmul(P, V), q_holes), _parents=(qkv,),
                    _backward=bwd), P


def reference_block(enc, x, rows, mask, i, p_drop, rng):
    c = enc.config
    p = enc.params
    pre = f"layer{i}"

    qkv = tape_add(tape_matmul(x, p[f"{pre}/attn/Wqkv"]), p[f"{pre}/attn/bqkv"])
    ctx, _ = reference_attention(qkv, mask, c.A, rows is not x)
    out = tape_add(tape_matmul(ctx, p[f"{pre}/attn/Wo"]), p[f"{pre}/attn/bo"])
    out = tape_dropout(out, p_drop, rng)
    x = tape_layer_norm(tape_add(rows, out), p[f"{pre}/ln1_g"], p[f"{pre}/ln1_b"])

    h = reference_gelu(tape_add(tape_matmul(x, p[f"{pre}/ffn/W1"]), p[f"{pre}/ffn/b1"]))
    h = tape_add(tape_matmul(h, p[f"{pre}/ffn/W2"]), p[f"{pre}/ffn/b2"])
    h = tape_dropout(h, p_drop, rng)
    return tape_layer_norm(tape_add(x, h), p[f"{pre}/ln2_g"], p[f"{pre}/ln2_b"])


@st.composite
def block_cases(draw):
    """A mask with holes (column 0 always valid), an encoder config and a seed."""
    B = draw(st.integers(1, 5))
    S = draw(st.integers(1, 10))
    mask = np.array(draw(st.lists(st.lists(st.integers(0, 1), min_size=S, max_size=S),
                                  min_size=B, max_size=B)))
    mask[:, 0] = 1
    A = draw(st.sampled_from([1, 2, 4]))
    config = small_config(L=1, H=A * draw(st.integers(1, 4)), A=A, F=draw(st.integers(1, 12)),
                          p_drop=draw(st.sampled_from([0.0, 0.3])))
    return mask, config, draw(st.integers(0, 2**32 - 1))


class TestFusedBlock:
    @settings(max_examples=150, deadline=None)
    @given(block_cases(), st.booleans())
    def test_bit_identical_to_the_eighteen_node_block(self, case, cls_only):
        mask, config, seed = case
        enc = MiniEncoder(config, R.rng_for(seed, 0))
        data_rng = np.random.default_rng(seed)
        x_data = data_rng.normal(size=(mask.sum(), config.H))
        w = data_rng.normal(size=(len(mask) if cls_only else mask.sum(), config.H))
        cls_rows = np.concatenate(([0], np.cumsum(mask.sum(axis=1))[:-1]))

        def run(fused):
            x = T.Tensor(x_data, requires_grad=True)
            rng = R.rng_for(seed, 1)
            if fused:
                out = enc._block(x, mask, 0, config.p_drop, rng, cls_only)
            else:
                rows = T.gather_rows(x, cls_rows) if cls_only else x
                out = reference_block(enc, x, rows, mask, 0, config.p_drop, rng)
            weighted_sum(out, w).backward()
            grads = {name: p.grad for name, p in enc.params.items() if name.startswith("layer0")}
            for p in enc.params.values():
                p.grad = None
            return out.data, x.grad, grads

        out, dx, grads = run(True)
        ref_out, ref_dx, ref_grads = run(False)
        assert np.array_equal(out, ref_out)
        assert dx.shape == x_data.shape and np.array_equal(dx, ref_dx)
        assert grads.keys() == ref_grads.keys() and len(grads) == 12
        for name, g in ref_grads.items():
            assert np.array_equal(grads[name], g), name

    def test_two_tape_nodes_per_block(self):
        enc = MiniEncoder(small_config(L=1), R.rng_for(19, 0))
        x = T.Tensor(np.ones((3, 8)), requires_grad=True)
        out = enc._block(x, np.ones((1, 3)), 0, 0.1, R.rng_for(19, 1))
        attn, *ffn_weights = out._parents
        assert attn._parents[0] is x
        assert len(attn._parents) == 7 and len(ffn_weights) == 6
        assert all(t._parents == () for t in (*attn._parents[1:], *ffn_weights))
