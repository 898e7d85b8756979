import inspect
import math
import re

import numpy as np
import numpy.testing as npt
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import erf

from clspool import tensor as T
from clspool.data import pack_dataset, synth_generate, vocab_for_examples
from clspool.encoder import EncoderConfig
from clspool.gradcheck import SCENARIOS
from clspool.pooling import HEAD_KINDS
from clspool.tensor import ShapeError, Tensor
from clspool.train import TrainConfig, evaluate, fit


def weighted_sum(t, w):
    """sum(t * w) for a fixed array ``w``, as one tape node; ``t`` gets the
    gradient g·w, bit-identical to an elementwise product and then a sum."""
    w = np.asarray(w, dtype=np.float64)
    return Tensor((t.data * w).sum(), _parents=(t,),
                  _backward=lambda g: T._accumulate(t, np.full(t.shape, float(g)) * w))


# The unfused chains the fused stages after the encoder replace, kept as
# test-local tape nodes: each fused op must equal its chain to the bit.


def tape_add(a, b):
    """Elementwise sum, or a bias vector added to every row of a matrix, as one tape node.

    The bias gradient is summed by the fused ops' own column sum, so the
    chains built from this node equal those ops to the bit."""
    def bwd(g):
        T._accumulate(a, g)
        T._accumulate(b, g if a.shape == b.shape else T._col_sum(g))

    return Tensor(a.data + b.data, _parents=(a, b), _backward=bwd)


def tape_matmul(a, b):
    def bwd(g):
        T._accumulate(a, g @ b.data.T)
        T._accumulate(b, a.data.T @ g)

    return Tensor(a.data @ b.data, _parents=(a, b), _backward=bwd)


def tape_dropout(x, p, rng):
    """Inverted dropout on the private pair the fused ops share; ``x`` itself at rate 0."""
    y, keep = T._dropout_fwd(x.data, p, rng)
    if keep is None:
        return x
    return Tensor(y, _parents=(x,), _backward=lambda g: T._accumulate(x, T._dropout_bwd(g, keep)))


def tape_sum_squares(tensors, c):
    """``c`` times the sum over ``tensors`` of their squared entries, as one scalar node."""
    tensors = tuple(tensors)

    def bwd(g):
        for t in tensors:
            T._accumulate(t, 2.0 * float(g * c) * t.data)

    return Tensor(sum((t.data * t.data).sum() for t in tensors) * c, _parents=tensors,
                  _backward=bwd)


def unprojected_layer_attention(rows, q):
    """The softmax-weighted sum of the rows alone, without W, as one tape node."""
    H = q.data.size
    scores = np.concatenate([r.data @ q.data.reshape(H, 1) for r in rows], axis=1)
    e = np.exp(scores - scores.max(axis=1, keepdims=True))
    P = e / e.sum(axis=1, keepdims=True)
    combined = rows[0].data * P[:, :1]
    for l in range(1, len(rows)):
        combined = combined + rows[l].data * P[:, l:l + 1]

    def bwd(g):
        dP = np.stack([(g * r.data).sum(axis=1) for r in rows], axis=1)
        dS = P * (dP - (dP * P).sum(axis=1, keepdims=True))
        for l, r in enumerate(rows):
            T._accumulate(r, g * P[:, l:l + 1] + dS[:, l:l + 1] * q.data)
        T._accumulate(q, sum(dS[:, l] @ r.data for l, r in enumerate(rows)))

    return Tensor(combined, _parents=(*rows, q), _backward=bwd)


def reference_linear(x, W, b, p=0.0, rng=None):
    """``T.linear`` as three nodes: dropout, product, bias add."""
    return tape_add(tape_matmul(tape_dropout(x, p, rng), W), b)


def reference_layer_attention(rows, q, W):
    """``T.layer_attention`` as two nodes: the unprojected sum, then the product."""
    return tape_matmul(unprojected_layer_attention(rows, q), W)


def reference_loss(logits, labels, penalized, lam):
    """``T.softmax_cross_entropy`` with an L2 term as three nodes: the
    cross-entropy alone, a sum of squares and an add."""
    return tape_add(T.softmax_cross_entropy(logits, labels), tape_sum_squares(penalized, lam))


def zero_bias(n):
    return Tensor(np.zeros(n))


def triple_loop_matmul(a, b):
    """Independent oracle: naive i-j-k product with in-order accumulation."""
    m, k = a.shape
    k2, n = b.shape
    out = np.zeros((m, n))
    for i in range(m):
        for j in range(n):
            acc = 0.0
            for kk in range(k):
                acc += a[i, kk] * b[kk, j]
            out[i, j] = acc
    return out


class TestMatmul:
    """The product inside ``T.linear``, with a zero bias and dropout off."""

    def test_identity(self):
        a = np.array([[1.0, 2.0], [3.0, 4.0]])
        out = T.linear(Tensor(np.eye(2)), Tensor(a), zero_bias(2))
        npt.assert_array_equal(out.data, a)

    def test_against_triple_loop_oracle(self):
        # Integer sums are exact in any order. Otherwise BLAS may add the k
        # products in any order, and any two orders differ by at most
        # k·eps·(|a| @ |b|) in each entry.
        npt.assert_array_equal(
            T.linear(Tensor([[1.0, 2.0], [3.0, 4.0]]), Tensor([[5.0], [6.0]]), zero_bias(1)).data,
            np.array([[17.0], [39.0]]))
        rng = np.random.default_rng(3)
        for _ in range(20):
            m, k, n = rng.integers(1, 9, size=3)
            a = rng.normal(size=(m, k))
            b = rng.normal(size=(k, n))
            got = T.linear(Tensor(a), Tensor(b), zero_bias(n)).data
            bound = k * np.finfo(np.float64).eps * (np.abs(a) @ np.abs(b))
            assert np.all(np.abs(got - triple_loop_matmul(a, b)) <= bound)

    def test_shape_error_names_both_shapes(self):
        with pytest.raises(ShapeError, match=r"\(2, 3\).*\(4, 2\)"):
            T.linear(Tensor(np.zeros((2, 3))), Tensor(np.zeros((4, 2))), zero_bias(2))

    def test_gradient_rule(self):
        a = Tensor(np.array([[1.0, 2.0], [3.0, 4.0]]))
        b = Tensor(np.array([[5.0], [6.0]]))
        c = Tensor(np.zeros(1))
        g = np.array([[1.0], [-2.0]])
        weighted_sum(T.linear(a, b, c), g).backward()
        npt.assert_array_equal(a.grad, g @ b.data.T)
        npt.assert_array_equal(b.grad, a.data.T @ g)
        npt.assert_array_equal(c.grad, g.sum(axis=0))


def layer_weights(scores):
    """The weights of ``T.layer_attention`` for a B×L score matrix: layer l's
    rows are [s_l, 0] and q = e_1, so row b of layer l scores s_l[b]."""
    scores = np.asarray(scores, dtype=float)
    rows = [Tensor(np.stack([s, np.zeros_like(s)], axis=1)) for s in scores.T]
    return T.layer_attention(rows, Tensor([1.0, 0.0]), Tensor(np.eye(2)))[1]


class TestSoftmax:
    """The softmax over layers inside ``T.layer_attention``."""

    def test_symmetry(self):
        out = layer_weights([[0.0, 0.0, 0.0]])
        npt.assert_allclose(out, [[1 / 3] * 3], rtol=0, atol=1e-15)

    def test_shift_invariance(self):
        c = 0.7
        for x in (-3.0, 0.0, 123.4):
            a = layer_weights([[x, x + c, x + 2 * c]])
            b = layer_weights([[0.0, c, 2 * c]])
            npt.assert_allclose(a, b, atol=1e-14)

    def test_direct_evaluation(self):
        out = layer_weights([[0.0, np.log(3.0)]])
        npt.assert_allclose(out, [[0.25, 0.75]], atol=1e-15)

    def test_rows_sum_to_one(self):
        rng = np.random.default_rng(5)
        for _ in range(50):
            x = rng.normal(scale=20, size=(4, 7))
            y = layer_weights(x)
            assert np.all(y >= 0) and np.all(y <= 1)
            npt.assert_allclose(y.sum(axis=1), 1.0, rtol=0, atol=1e-12)

    def test_stable_on_large_inputs(self):
        y = layer_weights([[1e4, 0.0, -1e4]])
        assert np.all(np.isfinite(y))


class TestCrossEntropy:
    """The fused softmax cross-entropy on logits."""

    def test_perfect_prediction(self):
        logits = Tensor([[-1e3, 0.0, -1e3]])
        assert T.softmax_cross_entropy(logits, [1]).item() == pytest.approx(0.0, abs=1e-12)

    def test_uniform(self):
        logits = Tensor([[0.0, 0.0, 0.0]])
        assert T.softmax_cross_entropy(logits, [0]).item() == pytest.approx(np.log(3), abs=1e-12)

    def test_hand_evaluation(self):
        loss = T.softmax_cross_entropy(Tensor(np.log([[0.25, 0.75]])), [1])
        assert loss.item() == pytest.approx(-np.log(0.75), abs=1e-12)

    def test_label_out_of_range(self):
        with pytest.raises(IndexError):
            T.softmax_cross_entropy(Tensor([[0.5, 0.5]]), [2])

    def test_shape_errors(self):
        with pytest.raises(ShapeError, match="softmax_cross_entropy"):
            T.softmax_cross_entropy(Tensor([0.5, 0.5]), [1])
        with pytest.raises(ShapeError, match="softmax_cross_entropy"):
            T.softmax_cross_entropy(Tensor([[0.5, 0.5]]), [1, 0])

    def test_confidently_wrong_keeps_its_gradient(self):
        # A probability clamp would give log(1e12) = 27.63 and a zero gradient here.
        logits = Tensor([[1e4, 0.0, -1e4]])
        loss = T.softmax_cross_entropy(logits, [2])
        assert loss.item() == pytest.approx(2e4, rel=1e-12)
        loss.backward()
        npt.assert_array_equal(logits.grad, [[1.0, 0.0, -1.0]])

    @settings(max_examples=50, deadline=None)
    @given(st.integers(1, 6), st.integers(2, 5), st.integers(0, 2**32 - 1))
    def test_matches_log_of_softmax_and_its_gradient(self, n, c, seed):
        rng = np.random.default_rng(seed)
        x = rng.normal(scale=5, size=(n, c))
        labels = rng.integers(c, size=n)
        logits = Tensor(x)
        loss = T.softmax_cross_entropy(logits, labels)
        assert loss._parents == (logits,)  # one tape node
        loss.backward()
        p = np.exp(x - x.max(axis=1, keepdims=True))
        p /= p.sum(axis=1, keepdims=True)
        assert loss.item() == pytest.approx(-np.log(p[np.arange(n), labels]).mean(), rel=1e-12)
        npt.assert_allclose(logits.grad, (p - np.eye(c)[labels]) / n, rtol=0, atol=1e-15)


def reachable(loss):
    """Every Tensor on the tape rooted at ``loss``, ``loss`` included. Read it
    before the backward walk, which clears the links."""
    seen, stack = {}, [loss]
    while stack:
        node = stack.pop()
        if id(node) not in seen:
            seen[id(node)] = node
            stack.extend(node._parents)
    return list(seen.values())


def without_own_gradient(nodes):
    """The nodes whose gradient is missing or differs from their data in shape or dtype."""
    return [node for node in nodes if node.grad is None or node.grad.shape != node.shape
            or node.grad.dtype != node.data.dtype]


class TestBackward:
    def test_square_at_three(self):
        # A parent used twice gets both gradients: d(2x)²/dx = 8x.
        x = Tensor([3.0])
        tape_sum_squares([tape_add(x, x)], 1.0).backward()
        npt.assert_allclose(x.grad, [24.0], atol=1e-14)

    def test_non_scalar_rejected(self):
        x = Tensor(np.zeros((2, 2)))
        with pytest.raises(ValueError, match="scalar"):
            T.gather_rows(x, [0, 1]).backward()

    def test_one_backward_per_tape(self):
        x = Tensor([[2.0, 1.0]])
        loss = T.softmax_cross_entropy(x, [0])
        loss.backward()
        with pytest.raises(RuntimeError, match="tape"):
            loss.backward()

    def test_tape_freed_as_the_walk_passes(self):
        # When an earlier node's backward runs, the later node whose backward
        # has already run holds no closure and no parents.
        x = Tensor([1.0, 2.0])
        seen = []

        def bwd(g):
            seen.append((last._backward, last._parents))
            T._accumulate(x, g)

        first = Tensor(x.data * 3.0, _parents=(x,), _backward=bwd)
        last = weighted_sum(first, np.ones(2))
        assert last._backward is not None and last._parents == (first,)
        last.backward()
        assert seen == [(None, ())]
        assert first._backward is None and first._parents == ()
        npt.assert_array_equal(x.grad, [1.0, 1.0])

    @pytest.mark.parametrize("name", list(SCENARIOS))
    def test_every_tensor_the_tape_reaches_gets_its_gradient(self, name):
        # Fixed inputs too, such as the scenarios' projection R and zero bias.
        loss = SCENARIOS[name](0)[0]()
        nodes = reachable(loss)
        loss.backward()
        assert without_own_gradient(nodes) == []

    def test_composite_graph_matches_finite_differences(self):
        # Random 5-parameter graph; h=1e-5, rel err < 1e-4 at 64-bit.
        from clspool.gradcheck import check_gradients, _composite_graph_scenario
        for seed in range(5):
            loss_fn, params = _composite_graph_scenario(seed)
            err = check_gradients(loss_fn, params, np.random.default_rng(seed),
                                  coords_per_param=3)
            assert err < 1e-4

    def test_determinism_bit_identical(self):
        def run():
            rng = np.random.default_rng(11)
            w = Tensor(rng.normal(size=(4, 3)))
            x = Tensor(rng.normal(size=(2, 4)))
            T.softmax_cross_entropy(T.linear(x, w, zero_bias(3)), [0, 2]).backward()
            return w.grad
        g1, g2 = run(), run()
        assert np.array_equal(g1, g2)


def public_ops():
    """The public ops of clspool.tensor, name -> function."""
    return {name: f for name, f in vars(T).items()
            if inspect.isfunction(f) and f.__module__ == T.__name__
            and not name.startswith("_")}


def spy_on_public_ops(monkeypatch, made):
    """Wrap every public op of clspool.tensor so that each call returning a
    new node appends (op name, whether the node has parents, whether it has
    a backward) to ``made``, as the op returns it. Returns the set of op names."""
    ops = public_ops()

    def spy(name, op):
        def wrapped(*args, **kwargs):
            out = op(*args, **kwargs)
            node = out[0] if isinstance(out, tuple) else out
            if not any(node is a for a in args):
                made.append((name, bool(node._parents), node._backward is not None))
            return out
        return wrapped

    for name, op in ops.items():
        monkeypatch.setattr(T, name, spy(name, op))
    return set(ops)


class TestNoGrad:
    @staticmethod
    def graph(rng):
        """A scalar through a fused sublayer, a linear layer with dropout and
        the loss with an L2 term, and its parameters."""
        params = [Tensor(rng.normal(size=s))
                  for s in ((3, 4), (4,), (4, 3), (3,), (3,), (3,))]
        x = Tensor(rng.normal(size=(5, 3)))
        h = T.ffn_sublayer(x, params)
        logits = T.linear(h, Tensor(rng.normal(size=(3, 3))), zero_bias(3), 0.5, rng)
        return [h, logits, T.softmax_cross_entropy(logits, [0, 1, 2, 0, 1], [h], 0.5)], params

    def test_records_nothing_and_backward_moves_no_parameter(self):
        with T.no_grad():
            nodes, params = self.graph(np.random.default_rng(0))
        for node in nodes:
            assert node._parents == () and node._backward is None
        nodes[-1].backward()
        assert all(p.grad is None for p in params)

    def test_every_public_op_keeps_no_node_in_the_scope(self, monkeypatch):
        # Every gradcheck loss, built and run in the scope: each public op's
        # new output keeps no parents and no backward, and every op is met.
        from clspool.gradcheck import SCENARIOS
        made = []
        ops = spy_on_public_ops(monkeypatch, made)
        with T.no_grad():
            for build in SCENARIOS.values():
                loss_fn, _ = build(0)
                loss_fn()
        assert {name for name, _, _ in made} == ops
        assert [name for name, parents, bwd in made if parents or bwd] == []

    def test_same_values_as_recorded(self):
        with T.no_grad():
            off, _ = self.graph(np.random.default_rng(1))
        on, params = self.graph(np.random.default_rng(1))
        for a, b in zip(off, on):
            npt.assert_array_equal(a.data, b.data)
        assert all(node._parents and node._backward is not None for node in on)
        on[-1].backward()
        assert all(p.grad is not None for p in params)

    def test_leaf_made_in_scope_gets_its_gradient(self):
        with T.no_grad():
            w = Tensor(np.ones(2))
        assert w._parents == ()
        T.softmax_cross_entropy(Tensor([[0.0, 0.0]]), [0], [w], 1.0).backward()
        npt.assert_array_equal(w.grad, [2.0, 2.0])

    def test_recording_resumes_after_exit_and_after_error(self):
        x = Tensor([[1.0]])
        with T.no_grad():
            with T.no_grad():
                pass
            # The inner exit leaves the outer scope off.
            assert T.gather_rows(x, [0])._parents == ()
        assert T.gather_rows(x, [0])._parents == (x,)
        with pytest.raises(RuntimeError, match="inside"):
            with T.no_grad():
                raise RuntimeError("inside")
        y = T.gather_rows(x, [0])
        assert y._parents == (x,) and y._backward is not None


def naive_attention(q, k, v, mask, heads):
    """Loop oracle: per example and head, a softmax over the valid keys only.

    ``k`` and ``v`` hold one row per valid position of the (B, S) ``mask``,
    example-major; ``q`` holds the same rows (one query per valid position).
    The probabilities are filled on the valid query rows only.
    """
    B, S = mask.shape
    dh = q.shape[1] // heads
    starts = np.concatenate(([0], np.cumsum(mask.sum(axis=1))))
    out = np.zeros_like(q)
    probs = np.zeros((B, heads, S, S))
    for b in range(B):
        rows = slice(starts[b], starts[b + 1])
        valid = np.flatnonzero(mask[b] == 1)
        for a in range(heads):
            cols = slice(a * dh, (a + 1) * dh)
            s = q[rows, cols] @ k[rows, cols].T / math.sqrt(dh)
            e = np.exp(s - s.max(axis=1, keepdims=True))
            p = e / e.sum(axis=1, keepdims=True)
            probs[b, a][np.ix_(valid, valid)] = p
            out[rows, cols] = p @ v[rows, cols]
    return out, probs


def numpy_layer_norm(s, gamma, beta, eps=1e-12):
    return (s - s.mean(axis=1, keepdims=True)) / np.sqrt(s.var(axis=1, keepdims=True) + eps) \
        * gamma + beta


def rounding_scale(s):
    """How much a layer norm over the rows of ``s`` can magnify rounding
    in them: the largest 1/std of a row, at least 1. Outputs can move by
    this times the rounding in ``s``, gradients by its square."""
    return max(1.0, 1.0 / np.sqrt(s.var(axis=1).min() + 1e-12))


def cls_rows_of(mask):
    """Each example's first row among the valid positions of ``mask`` (its [CLS] row)."""
    return np.concatenate(([0], np.cumsum(mask.sum(axis=1))[:-1]))


def padded_sublayer(x, weights, mask, heads, w, fill):
    """The attention sublayer computed densely: the valid rows of ``x``
    scattered to all B*S positions, ``fill`` (B*S rows) at the masked ones,
    then (B, A, S, d_h) attention with a -1e9 score bias on masked keys,
    the output projection, the residual and the layer norm, and the
    gradients of sum(out * w), ``w`` one row per position, written out by
    hand. Returns (out, dx, weight gradients, s), s the layer norm's input;
    out, dx and s have B*S rows."""
    Wq, bq, Wk, bk, Wv, bv, Wo, bo, gamma, beta = weights
    B, S = mask.shape
    valid = (mask == 1).reshape(-1)
    dh = x.shape[1] // heads

    def heads_view(a):
        return a.reshape(B, S, heads, dh).transpose(0, 2, 1, 3)

    def rows_of(a):
        return a.transpose(0, 2, 1, 3).reshape(B * S, heads * dh)

    X = fill.copy()
    X[valid] = x
    Q, K, V = (heads_view(X @ W + b) for W, b in ((Wq, bq), (Wk, bk), (Wv, bv)))
    bias = np.where(mask == 1, 0.0, -1e9)[:, None, None, :]
    scores = Q @ K.transpose(0, 1, 3, 2) / math.sqrt(dh) + bias
    e = np.exp(scores - scores.max(axis=-1, keepdims=True))
    P = e / e.sum(axis=-1, keepdims=True)
    ctx = rows_of(P @ V)
    s = X + ctx @ Wo + bo
    sd = np.sqrt(s.var(axis=1, keepdims=True) + 1e-12)
    xhat = (s - s.mean(axis=1, keepdims=True)) / sd
    gg = w * gamma
    ds = (gg - gg.mean(axis=1, keepdims=True) - xhat * (gg * xhat).mean(axis=1, keepdims=True)) / sd
    G = heads_view(ds @ Wo.T)
    dP = G @ V.transpose(0, 1, 3, 2)
    dS = P * (dP - (dP * P).sum(axis=-1, keepdims=True)) / math.sqrt(dh)
    dq = rows_of(dS @ K)
    dk = rows_of(dS.transpose(0, 1, 3, 2) @ Q)
    dv = rows_of(P.transpose(0, 1, 3, 2) @ G)
    dx = ds + dq @ Wq.T + dk @ Wk.T + dv @ Wv.T
    dweights = [X.T @ dq, dq.sum(axis=0), X.T @ dk, dk.sum(axis=0), X.T @ dv, dv.sum(axis=0),
                ctx.T @ ds, ds.sum(axis=0), (w * xhat).sum(axis=0), w.sum(axis=0)]
    return xhat * gamma + beta, dx, dweights, s


def joined(weights):
    """The sublayer's six weights from the ten per-projection ones
    (Wq, bq, Wk, bk, Wv, bv, Wo, bo, gamma, beta): the query, key and value
    projections joined by column into Wqkv and bqkv."""
    return [np.concatenate(weights[0:6:2], axis=-1), np.concatenate(weights[1:6:2]),
            *weights[6:]]


def split(joined_weights):
    """The ten per-projection arrays of six joined ones, the inverse of ``joined``."""
    Wqkv, bqkv, *rest = joined_weights
    return [part for W, b in zip(np.split(Wqkv, 3, axis=-1), np.split(bqkv, 3))
            for part in (W, b)] + rest


def weighted_sublayer_grads(x, weights, mask, heads, w, cls_only=False):
    """The sublayer's output, probabilities, and x and weight gradients for the
    loss sum(out * w); the weights and their gradients are per projection."""
    xt = Tensor(x)
    wt = [Tensor(a) for a in joined(weights)]
    out, probs = T.attention_sublayer(xt, wt, mask, heads, cls_only)
    weighted_sum(out, w).backward()
    return out.data, probs, xt.grad, split([t.grad for t in wt])


@st.composite
def attention_cases(draw):
    """Random masks with holes (column 0 always valid), x at the valid
    positions, and the sublayer's ten per-projection weights."""
    B = draw(st.integers(1, 6))
    S = draw(st.integers(1, 12))
    heads = draw(st.sampled_from([1, 2, 4]))
    H = heads * draw(st.integers(1, 4))
    mask = np.array(draw(st.lists(st.lists(st.integers(0, 1), min_size=S, max_size=S),
                                  min_size=B, max_size=B)))
    mask[:, 0] = 1
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    weights = [rng.normal(size=(H, H) if i < 8 and i % 2 == 0 else H) for i in range(10)]
    return rng.normal(size=(mask.sum(), H)), weights, mask, heads


class TestAttention:
    """The fused attention sublayer, in both query forms."""

    @settings(max_examples=150, deadline=None)
    @given(attention_cases())
    def test_matches_per_example_per_head_loop(self, case):
        x, weights, mask, heads = case
        Wq, bq, Wk, bk, Wv, bv, Wo, bo, gamma, beta = weights
        ctx, ref_probs = naive_attention(x @ Wq + bq, x @ Wk + bk, x @ Wv + bv, mask, heads)
        B, S = mask.shape
        for cls_only in (False, True):
            out, probs = T.attention_sublayer(Tensor(x), [Tensor(a) for a in joined(weights)],
                                              mask, heads, cls_only)
            rows = cls_rows_of(mask) if cls_only else slice(None)
            ref_s = x[rows] + ctx[rows] @ Wo + bo
            ref_out = numpy_layer_norm(ref_s, gamma, beta)
            valid, ref_p = (mask[:, :1] == 1, ref_probs[:, :, :1]) if cls_only else (mask == 1,
                                                                                     ref_probs)
            assert out.shape == ref_out.shape and probs.shape == (B, heads, len(valid[0]), S)
            npt.assert_allclose(out.data, ref_out, rtol=0, atol=1e-12 * rounding_scale(ref_s))
            query_rows = np.broadcast_to(valid[:, None, :, None], probs.shape)
            npt.assert_allclose(probs[query_rows], ref_p[query_rows], rtol=0, atol=1e-12)
            masked = np.broadcast_to(mask[:, None, None, :] == 0, probs.shape)
            assert np.all(probs[masked] == 0.0)
            npt.assert_allclose(probs.sum(axis=-1), 1.0, rtol=0, atol=1e-12)

    # This class's float64 bound, 1e-12, carried to float32 by the ratio of
    # the two epsilons: about 5.4e-4, or 4,500 float32 epsilons.
    F32_TOL = 1e-12 * np.finfo(np.float32).eps / np.finfo(np.float64).eps

    @settings(max_examples=150, deadline=None)
    @given(attention_cases())
    def test_float32_near_the_float64_loop(self, case):
        # The inputs are rounded to float32 first, so the oracle sees the
        # op's inputs and only the op's own rounding counts.
        x, weights, mask, heads = case
        x, *weights = (a.astype(np.float32).astype(np.float64) for a in (x, *weights))
        Wq, bq, Wk, bk, Wv, bv, Wo, bo, gamma, beta = weights
        ctx, ref_probs = naive_attention(x @ Wq + bq, x @ Wk + bk, x @ Wv + bv, mask, heads)
        for cls_only in (False, True):
            out, probs = T.attention_sublayer(
                Tensor(x.astype(np.float32)),
                [Tensor(a.astype(np.float32)) for a in joined(weights)], mask, heads, cls_only)
            assert out.data.dtype == probs.dtype == np.float32
            rows = cls_rows_of(mask) if cls_only else slice(None)
            ref_s = x[rows] + ctx[rows] @ Wo + bo
            npt.assert_allclose(out.data, numpy_layer_norm(ref_s, gamma, beta), rtol=0,
                                atol=self.F32_TOL * rounding_scale(ref_s))
            valid = mask[:, :1] == 1 if cls_only else mask == 1
            query_rows = np.broadcast_to(valid[:, None, :, None], probs.shape)
            npt.assert_allclose(probs[query_rows], ref_probs[:, :, :probs.shape[2]][query_rows],
                                rtol=0, atol=self.F32_TOL)
            assert np.all(probs[np.broadcast_to(mask[:, None, None, :] == 0, probs.shape)] == 0.0)

    @settings(max_examples=150, deadline=None)
    @given(attention_cases())
    def test_gradients_equal_the_padded_computations_valid_rows(self, case):
        x, weights, mask, heads = case
        valid = (mask == 1).reshape(-1)
        rng = np.random.default_rng(x.size)
        w, fill = rng.normal(size=(2, valid.size, x.shape[1]))
        w[~valid] = 0.0   # the loss reads the valid rows only
        out, _, dx, dweights = weighted_sublayer_grads(x, weights, mask, heads, w[valid])
        ref_out, ref_dx, ref_dweights, ref_s = padded_sublayer(x, weights, mask, heads, w, fill)
        k = rounding_scale(ref_s[valid])
        npt.assert_allclose(out, ref_out[valid], rtol=0, atol=1e-12 * k)
        npt.assert_allclose(dx, ref_dx[valid], rtol=0, atol=1e-10 * k**2)
        for g, ref in zip(dweights, ref_dweights):
            npt.assert_allclose(g, ref, rtol=0, atol=1e-10 * k**2)

    def test_padded_key_value_rows_get_exactly_zero_gradient(self):
        # The op receives only the valid rows. In the padded computation the
        # masked rows, whatever they hold, get exactly zero gradient; every
        # valid row gets some, and the op's gradients equal them.
        from clspool.gradcheck import ATTENTION_MASK
        valid = (ATTENTION_MASK == 1).reshape(-1)
        for seed in range(3):
            rng = np.random.default_rng(seed)
            x = rng.normal(size=(valid.sum(), 6))
            weights = [rng.normal(size=(6, 6) if i < 8 and i % 2 == 0 else 6) for i in range(10)]
            w, fill = rng.normal(size=(2, valid.size, 6))
            w[~valid] = 0.0
            _, _, dx, _ = weighted_sublayer_grads(x, weights, ATTENTION_MASK, 2, w[valid])
            _, ref_dx, _, _ = padded_sublayer(x, weights, ATTENTION_MASK, 2, w, fill)
            assert np.all(ref_dx[~valid] == 0.0)
            assert np.all(dx != 0.0)
            npt.assert_allclose(dx, ref_dx[valid], rtol=0, atol=1e-10)

    @settings(max_examples=150, deadline=None)
    @given(attention_cases())
    def test_one_query_per_example_equals_the_full_ops_cls_rows(self, case):
        x, weights, mask, heads = case
        B, S = mask.shape
        cls_rows = cls_rows_of(mask)
        w = np.random.default_rng(B * S).normal(size=(B, x.shape[1]))
        w_full = np.zeros_like(x)
        w_full[cls_rows] = w
        out, probs, dx, dweights = weighted_sublayer_grads(x, weights, mask, heads, w, True)
        full_out, full_probs, full_dx, full_dweights = weighted_sublayer_grads(
            x, weights, mask, heads, w_full)
        assert out.shape == (B, x.shape[1]) and probs.shape == (B, heads, 1, S)
        ref_s = padded_sublayer(x, weights, mask, heads, np.zeros((B * S, x.shape[1])),
                                np.zeros((B * S, x.shape[1])))[3]
        k = rounding_scale(ref_s[(mask == 1).reshape(-1)][cls_rows])
        npt.assert_allclose(out, full_out[cls_rows], rtol=0, atol=1e-12 * k)
        npt.assert_allclose(probs, full_probs[:, :, :1], rtol=0, atol=1e-12)
        npt.assert_allclose(dx, full_dx, rtol=0, atol=1e-10 * k**2)
        for g, ref in zip(dweights, full_dweights):
            npt.assert_allclose(g, ref, rtol=0, atol=1e-10 * k**2)

    def test_query_rows_must_be_one_per_position_or_per_example(self):
        weights = [Tensor(a) for a in joined([np.eye(4) if i < 8 and i % 2 == 0 else np.ones(4)
                                              for i in range(10)])]
        mask = np.array([[1, 1, 1, 0], [1, 1, 1, 1]])
        x = Tensor(np.random.default_rng(0).normal(size=(7, 4)))
        assert T.attention_sublayer(x, weights, mask, 2)[0].shape == (7, 4)
        assert T.attention_sublayer(x, weights, mask, 2, cls_only=True)[0].shape == (2, 4)
        for rows in (2, 6, 8):
            with pytest.raises(ShapeError, match=rf"\({rows}, 4\)"):
                T.attention_sublayer(Tensor(np.zeros((rows, 4))), weights, mask, 2)

    @pytest.mark.parametrize("mask, rows", [([[0, 1, 1], [1, 1, 0]], "[0]"),
                                            ([[1, 1, 0], [0, 0, 1], [0, 1, 1]], "[1, 2]")],
                             ids=["row0", "rows1_2"])
    def test_cls_queries_need_column_0_valid(self, mask, rows):
        # A row whose column 0 is masked has no [CLS] query: the padded
        # layout's zero row would stand in for it.
        weights = [Tensor(np.zeros(shape)) for shape in ((4, 12), 12, (4, 4), 4, 4, 4)]
        mask = np.array(mask)
        x = Tensor(np.ones((mask.sum(), 4)))
        with pytest.raises(ValueError, match=re.escape(
                f"mask rows {rows} do not mark the [CLS] column 0 valid")):
            T.attention_sublayer(x, weights, mask, 2, cls_only=True)
        assert T.attention_sublayer(x, weights, mask, 2)[0].shape == x.shape

    def test_shapes_rejected(self):
        x = Tensor(np.zeros((8, 4)))
        weights = [Tensor(np.zeros(shape)) for shape in ((4, 12), 12, (4, 4), 4, 4, 4)]
        with pytest.raises(ShapeError):
            T.attention_sublayer(x, weights, np.ones((2, 3)), 2)
        with pytest.raises(ShapeError):
            T.attention_sublayer(x, weights, np.ones((2, 4)), 3)
        with pytest.raises(ShapeError):
            T.attention_sublayer(x, weights, np.ones(8), 2)
        with pytest.raises(ShapeError, match="weight shapes"):
            T.attention_sublayer(x, weights[:5], np.ones((2, 4)), 2)
        with pytest.raises(ShapeError, match="weight shapes"):
            T.attention_sublayer(x, weights[:2] + [Tensor(np.zeros((4, 3)))] + weights[3:],
                                 np.ones((2, 4)), 2)
        # Ten per-projection weights are not the joined six.
        with pytest.raises(ShapeError, match="weight shapes"):
            T.attention_sublayer(x, [Tensor(a) for a in split([w.data for w in weights])],
                                 np.ones((2, 4)), 2)

    def test_one_tape_node(self):
        weights = [Tensor(a)
                   for a in joined([np.eye(4) if i < 8 and i % 2 == 0 else np.ones(4)
                                    for i in range(10)])]
        x = Tensor(np.ones((8, 4)))
        out, _ = T.attention_sublayer(x, weights, np.ones((2, 4)), 2)
        assert len(weights) == 6 and out._parents == (x, *weights)


GELU_C = math.sqrt(2.0 / math.pi)
GELU_K = 0.044715


def scalar_gelu(h):
    """GELU in its tanh form and its slope at one float, with ``math.tanh``."""
    t = math.tanh(GELU_C * (h + GELU_K * h ** 3))
    return (0.5 * h * (1.0 + t),
            0.5 * (1.0 + t) + 0.5 * h * (1.0 - t * t) * GELU_C * (1.0 + 3.0 * GELU_K * h * h))


def exact_gelu(h):
    """The exact GELU h·Φ(h) and its slope Φ(h) + h·φ(h), Φ from scipy's erf."""
    cdf = 0.5 * (1.0 + erf(h / math.sqrt(2.0)))
    return h * cdf, cdf + h * np.exp(-0.5 * h * h) / math.sqrt(2.0 * math.pi)


def checked_gelu(h):
    """``T._gelu_fwd`` and ``T._gelu_bwd`` at ``h`` for the output gradient 1,
    as (value, slope), with overflow, invalid and divide raised as errors."""
    with np.errstate(over="raise", invalid="raise", divide="raise"):
        a, hc, t = T._gelu_fwd(h)
        return a, T._gelu_bwd(np.ones(np.shape(h)), hc, t)


def within_ulps(got, ref, h, ulps=8):
    """Whether ``got`` is within ``ulps`` units in the last place of max(1, |h|) of ``ref``.

    Near saturation the slope's 1 - t² magnifies an ulp of t by about
    h³/10, so two ways of rounding u can differ there by a few ulp of h.
    """
    return np.all(np.abs(got - ref) <= ulps * np.spacing(np.maximum(1.0, np.abs(h))))


class TestGelu:
    def test_dense_grid_within_a_few_ulp(self):
        h = np.linspace(-12.0, 12.0, 240_001)
        value, slope = checked_gelu(h)
        ref = np.array([scalar_gelu(x) for x in h.tolist()])
        assert within_ulps(value, ref[:, 0], h)
        assert within_ulps(slope, ref[:, 1], h)

    def test_near_the_exact_gelu(self):
        h = np.linspace(-12.0, 12.0, 240_001)
        value, slope = checked_gelu(h)
        exact_value, exact_slope = exact_gelu(h)
        assert np.abs(value - exact_value).max() <= 5e-4
        assert np.abs(slope - exact_slope).max() <= 1e-3

    def test_saturates_exactly(self):
        # From |h| = 10 on, tanh u is ±1: the value is h or ±0, the slope 1 or 0.
        h = np.concatenate([np.linspace(10.0, 1e4, 10_001), np.geomspace(1e4, 1e308, 301)])
        for sign, value_of, slope in ((1.0, h, 1.0), (-1.0, 0.0 * h, 0.0)):
            value, got = checked_gelu(sign * h)
            assert np.array_equal(value, value_of) and np.all(got == slope)

    @settings(max_examples=300, deadline=None)
    @given(st.lists(st.one_of(st.floats(allow_nan=False, allow_infinity=False),
                              st.floats(-1e-300, 1e-300),
                              st.floats(1e100, 1e308), st.floats(-1e308, -1e100)),
                    min_size=1, max_size=40))
    def test_floats_raise_nothing(self, values):
        # Subnormals, and |h| > 1e103, where h³ overflows unclipped.
        h = np.array(values)
        value, slope = checked_gelu(h)
        assert np.isfinite(value).all() and np.isfinite(slope).all()
        inner = np.abs(h) < 10.0
        ref = np.array([scalar_gelu(x) for x in h[inner].tolist()]).reshape(-1, 2)
        assert within_ulps(value[inner], ref[:, 0], h[inner])
        assert within_ulps(slope[inner], ref[:, 1], h[inner])

    def test_special_values_exact(self):
        h = np.array([0.0, -0.0, 1e-310, -1e-310, 1e5, -1e5, 1e300, -1e300])
        value, slope = checked_gelu(h)
        assert np.isfinite(value).all() and np.isfinite(slope).all()
        assert np.array_equal(value, [0.0, 0.0, 1e-310 / 2, -1e-310 / 2, 1e5, 0.0, 1e300, 0.0])
        assert np.array_equal(np.signbit(value[:2]), [False, True])
        npt.assert_array_equal(slope, [0.5, 0.5, 0.5, 0.5, 1.0, 0.0, 1.0, 0.0])

    @settings(max_examples=100, deadline=None)
    @given(st.lists(st.floats(-12.0, 12.0), min_size=1, max_size=40))
    def test_symmetric(self, values):
        # Φ(h) + Φ(-h) = 1, so gelu(h) - gelu(-h) = h and the slopes sum to 1.
        h = np.array(values)
        (value, slope), (mirror, mirror_slope) = checked_gelu(h), checked_gelu(-h)
        assert within_ulps(value - mirror, h, h)
        assert within_ulps(slope + mirror_slope, 1.0, h)

    @pytest.mark.parametrize("x", [np.float64(1.7), np.array(-0.3), np.linspace(-3, 3, 13),
                                   np.linspace(-3, 3, 40).reshape(5, 8),
                                   np.linspace(-3, 3, 40).reshape(8, 5).T])
    def test_shapes_and_layouts(self, x):
        value, slope = checked_gelu(x)
        assert np.shape(value) == np.shape(slope) == np.shape(x)
        ref = np.array([scalar_gelu(h) for h in np.ravel(x).tolist()])
        assert within_ulps(np.ravel(value), ref[:, 0], np.ravel(x))
        assert within_ulps(np.ravel(slope), ref[:, 1], np.ravel(x))


def ffn_weights(rng, H, F):
    return [rng.normal(size=shape) for shape in ((H, F), (F,), (F, H), (H,), (H,), (H,))]


def numpy_ffn_sublayer(x, weights, w):
    """LN(x + gelu(x·W1+b1)·W2+b2) and, for the loss sum(out * w), the
    gradients of x and the six weights, written out by hand; last, the
    layer norm's input."""
    W1, b1, W2, b2, gamma, beta = weights
    h = x @ W1 + b1
    t = np.tanh(GELU_C * (h + GELU_K * h ** 3))
    a = 0.5 * h * (1.0 + t)
    s = x + a @ W2 + b2
    sd = np.sqrt(s.var(axis=1, keepdims=True) + 1e-12)
    xhat = (s - s.mean(axis=1, keepdims=True)) / sd
    gg = w * gamma
    ds = (gg - gg.mean(axis=1, keepdims=True) - xhat * (gg * xhat).mean(axis=1, keepdims=True)) / sd
    dh = (ds @ W2.T) * (0.5 * (1.0 + t) + 0.5 * h * (1.0 - t * t) * GELU_C
                        * (1.0 + 3.0 * GELU_K * h * h))
    return xhat * gamma + beta, ds + dh @ W1.T, [x.T @ dh, dh.sum(axis=0), a.T @ ds,
                                                  ds.sum(axis=0), (w * xhat).sum(axis=0),
                                                  w.sum(axis=0)], s


class TestFFNSublayer:
    @settings(max_examples=100, deadline=None)
    @given(st.integers(1, 8), st.integers(1, 6), st.integers(1, 8), st.integers(0, 2**32 - 1))
    def test_matches_numpy_reference(self, n, H, F, seed):
        rng = np.random.default_rng(seed)
        x, w = rng.normal(size=(2, n, H))
        weights = ffn_weights(rng, H, F)
        xt = Tensor(x)
        wt = [Tensor(a) for a in weights]
        out = T.ffn_sublayer(xt, wt)
        assert out._parents == (xt, *wt)
        weighted_sum(out, w).backward()
        ref_out, ref_dx, ref_dweights, ref_s = numpy_ffn_sublayer(x, weights, w)
        k = rounding_scale(ref_s)
        npt.assert_allclose(out.data, ref_out, rtol=0, atol=1e-12 * k)
        npt.assert_allclose(xt.grad, ref_dx, rtol=0, atol=1e-10 * k**2)
        for t, ref in zip(wt, ref_dweights):
            npt.assert_allclose(t.grad, ref, rtol=0, atol=1e-10 * k**2)

    def test_shapes_rejected(self):
        weights = [Tensor(a) for a in ffn_weights(np.random.default_rng(0), 4, 6)]
        with pytest.raises(ShapeError, match="matrix"):
            T.ffn_sublayer(Tensor(np.zeros(4)), weights)
        with pytest.raises(ShapeError, match="weight shapes"):
            T.ffn_sublayer(Tensor(np.zeros((3, 5))), weights)
        with pytest.raises(ShapeError, match="weight shapes"):
            T.ffn_sublayer(Tensor(np.zeros((3, 4))), weights[:5])


def tape_mul(a, b):
    """Elementwise product of same-shape tensors, as one tape node."""
    def bwd(g):
        T._accumulate(a, g * b.data)
        T._accumulate(b, g * a.data)

    return Tensor(a.data * b.data, _parents=(a, b), _backward=bwd)


def tape_tanh(a):
    y = np.tanh(a.data)
    return Tensor(y, _parents=(a,), _backward=lambda g: T._accumulate(a, g * (1.0 - y * y)))


def tape_sigmoid(a):
    y = 1.0 / (1.0 + np.exp(-a.data))
    return Tensor(y, _parents=(a,), _backward=lambda g: T._accumulate(a, g * y * (1.0 - y)))


def per_gate_lstm(xs, W, U, b):
    """Loop oracle: the LSTM as a graph of per-gate tape ops (8 matmuls per
    step), its gates and products on the elementwise nodes above."""
    B, H = xs[0].shape[0], U[0].shape[1]
    h = Tensor(np.zeros((B, H)))
    c = Tensor(np.zeros((B, H)))
    for x in xs:
        z = [tape_add(tape_add(tape_matmul(x, W[k]), tape_matmul(h, U[k])), b[k])
             for k in range(4)]
        gi, gf, gg, go = tape_sigmoid(z[0]), tape_sigmoid(z[1]), tape_tanh(z[2]), tape_sigmoid(z[3])
        c = tape_add(tape_mul(gf, c), tape_mul(gi, gg))
        h = tape_mul(go, tape_tanh(c))
    return h


@st.composite
def lstm_cases(draw):
    B = draw(st.integers(1, 5))
    steps = draw(st.integers(1, 5))
    H = draw(st.integers(1, 8))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    xs = [rng.normal(size=(B, H)) for _ in range(steps)]
    blocks = [rng.normal(size=shape) for shape in ((H, 4 * H), (H, 4 * H), (4 * H,))]
    return xs, blocks, rng.normal(size=(B, H))


def gate_views(block):
    """The four per-gate column slices of a joined W, U or b, as new leaves."""
    H = block.shape[-1] // 4
    return [Tensor(block.data[..., k * H:(k + 1) * H].copy())
            for k in range(4)]


class TestLSTM:
    @settings(max_examples=150, deadline=None)
    @given(lstm_cases())
    def test_matches_per_gate_tape_graph(self, case):
        xs, blocks, weights = case
        rows = [Tensor(x) for x in xs]
        W, U, b = (Tensor(a) for a in blocks)
        h = T.lstm(rows, W, U, b)
        weighted_sum(h, weights).backward()
        ref_rows = [Tensor(x) for x in xs]
        views = [gate_views(t) for t in (W, U, b)]
        ref_h = per_gate_lstm(ref_rows, *views)
        weighted_sum(ref_h, weights).backward()
        npt.assert_allclose(h.data, ref_h.data, rtol=0, atol=1e-12)
        for r, ref in zip(rows, ref_rows):
            npt.assert_allclose(r.grad, ref.grad, rtol=0, atol=1e-10)
        for t, gates in zip((W, U, b), views):
            npt.assert_allclose(t.grad, np.concatenate([g.grad for g in gates], axis=-1),
                                rtol=0, atol=1e-10)

    def test_one_tape_node(self):
        rng = np.random.default_rng(0)
        rows = [Tensor(rng.normal(size=(2, 3))) for _ in range(4)]
        W, U, b = (Tensor(rng.normal(size=s))
                   for s in ((3, 12), (3, 12), (12,)))
        h = T.lstm(rows, W, U, b)
        assert h.shape == (2, 3)
        assert h._parents == (*rows, W, U, b)

    def test_shapes_rejected(self):
        x = Tensor(np.zeros((2, 3)))
        W = Tensor(np.zeros((3, 12)))
        b = Tensor(np.zeros(12))
        with pytest.raises(ShapeError):
            T.lstm([], W, W, b)
        with pytest.raises(ShapeError):
            T.lstm([x], Tensor(np.zeros((3, 9))), W, b)
        with pytest.raises(ShapeError):
            T.lstm([x, Tensor(np.zeros((3, 3)))], W, W, b)
        with pytest.raises(ShapeError):
            T.lstm([x], W, W, Tensor(np.zeros(8)))
        with pytest.raises(ShapeError):
            T.lstm([Tensor(np.zeros(3))], W, W, b)


def per_row_layer_attention(xs, q, W, weights):
    """Row-by-row oracle: the output and, for the loss sum(out * weights),
    the gradients, with the softmax Jacobian diag(a) - a a^T written out."""
    B, H = xs[0].shape
    out, dxs, dq, dW = np.empty((B, H)), np.empty((len(xs), B, H)), np.zeros(H), np.zeros((H, H))
    alphas = np.empty((B, len(xs)))
    for b in range(B):
        R = np.array([x[b] for x in xs])             # L×H
        s = R @ q
        a = np.exp(s - s.max()) / np.exp(s - s.max()).sum()
        out[b] = W.T @ (a @ R)
        dW += np.outer(a @ R, weights[b])
        w = W @ weights[b]                            # the gradient of a @ R
        ds = (np.diag(a) - np.outer(a, a)) @ (R @ w)
        dxs[:, b] = np.outer(a, w) + np.outer(ds, q)
        dq += R.T @ ds
        alphas[b] = a
    return out, alphas, list(dxs), dq, dW


@st.composite
def layer_attention_cases(draw):
    B = draw(st.integers(1, 40))
    L = draw(st.integers(1, 6))
    H = draw(st.integers(1, 8))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    return ([rng.normal(size=(B, H)) for _ in range(L)], rng.normal(size=H),
            rng.normal(size=(H, H)), rng.normal(size=(B, H)))


class TestLayerAttention:
    @settings(max_examples=150, deadline=None)
    @given(layer_attention_cases())
    def test_matches_per_row_oracle(self, case):
        xs, q, W, weights = case
        rows = [Tensor(x) for x in xs]
        query, proj = Tensor(q), Tensor(W)
        out, P = T.layer_attention(rows, query, proj)
        weighted_sum(out, weights).backward()
        ref_out, ref_P, ref_dxs, ref_dq, ref_dW = per_row_layer_attention(xs, q, W, weights)
        npt.assert_allclose(out.data, ref_out, rtol=0, atol=1e-12)
        npt.assert_allclose(P, ref_P, rtol=0, atol=1e-12)
        npt.assert_allclose(P.sum(axis=1), 1.0, rtol=0, atol=1e-12)
        for r, ref in zip(rows, ref_dxs):
            npt.assert_allclose(r.grad, ref, rtol=0, atol=1e-12)
        npt.assert_allclose(query.grad, ref_dq, rtol=0, atol=1e-12)
        npt.assert_allclose(proj.grad, ref_dW, rtol=0, atol=1e-12)

    def test_one_tape_node(self):
        rng = np.random.default_rng(0)
        rows = [Tensor(rng.normal(size=(2, 3))) for _ in range(4)]
        q = Tensor(rng.normal(size=3))
        W = Tensor(rng.normal(size=(3, 3)))
        out, P = T.layer_attention(rows, q, W)
        assert out.shape == (2, 3) and P.shape == (2, 4)
        assert out._parents == (*rows, q, W)

    def test_empty_rows_rejected(self):
        with pytest.raises(ValueError, match="nonempty"):
            T.layer_attention([], Tensor(np.zeros(3)), Tensor(np.eye(3)))

    def test_shapes_rejected(self):
        x, W = Tensor(np.zeros((2, 3))), Tensor(np.eye(3))
        with pytest.raises(ShapeError):
            T.layer_attention([x], Tensor(np.zeros(2)), W)
        with pytest.raises(ShapeError):
            T.layer_attention([x, Tensor(np.zeros((3, 3)))], Tensor(np.zeros(3)), W)
        with pytest.raises(ShapeError):
            T.layer_attention([x], Tensor(np.zeros((3, 1))), W)
        with pytest.raises(ShapeError, match=r"W \(3, 2\)"):
            T.layer_attention([x], Tensor(np.zeros(3)), Tensor(np.zeros((3, 2))))


class TestSumSquares:
    """The L2 term of ``T.softmax_cross_entropy``."""

    def test_bit_identical_to_numpy(self):
        rng = np.random.default_rng(3)
        data = [rng.normal(size=s) for s in ((4, 5), (7,), (3, 3), (2, 6))]
        ps = [Tensor(d) for d in data]
        logits = Tensor(rng.normal(size=(3, 4)))
        loss = T.softmax_cross_entropy(logits, [0, 3, 1], ps, 1e-5)
        assert loss._parents == (logits, *ps)
        loss.backward()
        assert loss.item() == (T.softmax_cross_entropy(logits, [0, 3, 1]).item()
                               + sum(float((d * d).sum()) for d in data) * 1e-5)
        for p, d in zip(ps, data):
            assert np.array_equal(p.grad, 2.0 * 1e-5 * d)


@st.composite
def stage_cases(draw):
    """Rows, a classifier and labels for the fused stages after the encoder:
    L B×H rows, a query, an H×H projection, an H×C weight and bias, C-class
    labels, a dropout rate and a seed."""
    B, L, H, C = (draw(st.integers(1, n)) for n in (8, 5, 6, 4))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    return ([rng.normal(size=(B, H)) for _ in range(L)], rng.normal(size=H),
            rng.normal(size=(H, H)), rng.normal(size=(H, C)), rng.normal(size=C),
            rng.integers(C, size=B), draw(st.sampled_from([0.0, 0.3])))


def leaves(*arrays):
    return [Tensor(a) for a in arrays]


class TestFusedStagesEqualTheirChains:
    """Each fused op after the encoder against its unfused chain: the output
    and every gradient, to the bit."""

    @staticmethod
    def assert_same(fused, chain, fused_inputs, chain_inputs, w):
        weighted_sum(fused, w).backward()
        weighted_sum(chain, w).backward()
        assert np.array_equal(fused.data, chain.data)
        for a, b in zip(fused_inputs, chain_inputs):
            assert a.grad is not None and np.array_equal(a.grad, b.grad)

    @settings(max_examples=100, deadline=None)
    @given(stage_cases())
    def test_linear(self, case):
        xs, _, _, W, b, _, p = case
        w = np.random.default_rng(len(xs)).normal(size=(len(xs[0]), len(b)))
        ins, ref_ins = leaves(xs[0], W, b), leaves(xs[0], W, b)
        self.assert_same(T.linear(*ins, p, np.random.default_rng(1)),
                         reference_linear(*ref_ins, p, np.random.default_rng(1)),
                         ins, ref_ins, w)

    @settings(max_examples=100, deadline=None)
    @given(stage_cases())
    def test_layer_attention(self, case):
        xs, q, Wh, *_ = case
        w = np.random.default_rng(len(xs)).normal(size=xs[0].shape)
        ins, ref_ins = leaves(*xs, q, Wh), leaves(*xs, q, Wh)
        self.assert_same(T.layer_attention(ins[:-2], *ins[-2:])[0],
                         reference_layer_attention(ref_ins[:-2], *ref_ins[-2:]), ins, ref_ins, w)

    @settings(max_examples=100, deadline=None)
    @given(stage_cases())
    def test_loss_with_an_l2_term(self, case):
        xs, q, Wh, W, b, labels, _ = case
        ins, ref_ins = leaves(xs[0] @ W, q, Wh, W, b), leaves(xs[0] @ W, q, Wh, W, b)
        self.assert_same(T.softmax_cross_entropy(ins[0], labels, ins[1:], 0.1),
                         reference_loss(ref_ins[0], labels, ref_ins[1:], 0.1), ins, ref_ins, 1.0)


class TestGatherRows:
    def test_rows_and_scatter_added_gradient(self):
        table = Tensor(np.arange(12.0).reshape(4, 3))
        out = T.gather_rows(table, [2, 0, 2])
        npt.assert_array_equal(out.data, table.data[[2, 0, 2]])
        weighted_sum(out, np.ones((3, 3))).backward()
        npt.assert_array_equal(table.grad, [[1.0] * 3, [0.0] * 3, [2.0] * 3, [0.0] * 3])

    @settings(max_examples=100, deadline=None)
    @given(st.integers(1, 6), st.integers(1, 5), st.lists(st.integers(0, 5), max_size=40),
           st.integers(0, 2**32 - 1))
    def test_scatter_add_equals_add_at_bit_for_bit(self, rows, width, indices, seed):
        # Repeated indices: both sum in index order, so the results are equal to the bit.
        idx = np.array([i % rows for i in indices], dtype=np.intp)
        g = np.random.default_rng(seed).normal(scale=1e3, size=(len(idx), width))
        ref = np.zeros((rows, width))
        np.add.at(ref, idx, g)
        assert np.array_equal(T._scatter_add_rows(g, idx, rows), ref)

    def test_no_indices_give_no_rows(self):
        out = T.gather_rows(Tensor(np.ones((4, 3))), np.array([], dtype=int))
        assert out.shape == (0, 3)

    @pytest.mark.parametrize("indices, span", [([0, -1, 2], r"\[-1, 2\]"),
                                               ([3, 4], r"\[3, 4\]")])
    def test_out_of_range_indices_are_rejected(self, indices, span):
        with pytest.raises(IndexError, match=f"indices span {span}, matrix has 4 rows"):
            T.gather_rows(Tensor(np.ones((4, 3))), indices)


class TestShapeDiscipline:
    def test_bias_broadcast_allowed(self):
        # ``T.linear`` adds its bias vector to every row.
        out = T.linear(Tensor(np.zeros((2, 3))), Tensor(np.eye(3)), Tensor([1.0, 2.0, 3.0]))
        npt.assert_array_equal(out.data, [[1, 2, 3], [1, 2, 3]])

    def test_other_broadcasts_rejected(self):
        x, W = Tensor(np.zeros((2, 3))), Tensor(np.eye(3))
        for bias in (np.zeros((2, 1)), np.zeros((1, 3)), np.zeros(2)):
            with pytest.raises(ShapeError, match="linear"):
                T.linear(x, W, Tensor(bias))

    def test_finite_after_ops(self):
        rng = np.random.default_rng(1)
        x = Tensor(rng.normal(scale=50, size=(3, 5)))
        weights = [Tensor(a) for a in ffn_weights(rng, 5, 4)]
        y = T.softmax_cross_entropy(T.ffn_sublayer(x, weights), [0, 4, 2])
        assert np.all(np.isfinite(y.data))


class TestDropout:
    """The dropout inside ``T.linear``, seen through an identity weight and a zero bias."""

    def test_identity_at_eval(self):
        # Eval runs at rate 0, which needs no generator.
        x = Tensor(np.arange(16.0).reshape(4, 4))
        y = T.linear(x, Tensor(np.eye(4)), zero_bias(4), 0.0, None)
        npt.assert_array_equal(y.data, x.data)
        weighted_sum(y, np.ones((4, 4))).backward()
        npt.assert_array_equal(x.grad, np.ones((4, 4)))

    def test_inverted_scaling(self):
        rng = np.random.default_rng(0)
        x = Tensor(np.ones((200, 200)))
        y = T.linear(x, Tensor(np.eye(200)), zero_bias(200), 0.25, rng).data
        kept = y[y > 0]
        npt.assert_allclose(kept, 1 / 0.75)
        assert abs((y > 0).mean() - 0.75) < 0.01

    def test_requires_rng_when_training(self):
        # Training is a rate above 0.
        with pytest.raises(ValueError, match="dropout at rate 0.5 requires a generator"):
            T.linear(Tensor(np.ones((1, 3))), Tensor(np.eye(3)), zero_bias(3), 0.5, None)

    def test_float32_draws_the_float64_mask(self):
        # The uniforms are float64 whatever the input's dtype; only the mask
        # is cast, so a float32 run drops the same entries, scaled alike.
        def dropped(dtype):
            return T.linear(Tensor(np.ones((50, 40), dtype)), Tensor(np.eye(40, dtype=dtype)),
                            Tensor(np.zeros(40, dtype)), 0.1, np.random.default_rng(3)).data

        y32 = dropped(np.float32)
        assert y32.dtype == np.float32
        npt.assert_array_equal(y32, dropped(np.float64).astype(np.float32))


class TestLayerNormAndActivations:
    def test_layer_norm_rows_standardized(self):
        # The embedding sublayer with gamma = 1, beta = 0 and dropout off.
        rng = np.random.default_rng(2)
        tables = [Tensor(rng.normal(size=(n, 8))) for n in (6, 2, 5)]
        ids = np.array([[0, 0, 0], [5, 1, 1], [3, 0, 2], [3, 1, 3], [1, 0, 4]])
        y = T.embedding_sublayer(ids, [*tables, Tensor(np.ones(8)), Tensor(np.zeros(8))]).data
        npt.assert_allclose(y.mean(axis=1), 0.0, atol=1e-12)
        npt.assert_allclose(y.var(axis=1), 1.0, atol=1e-9)

    def test_gelu_reference_values(self):
        # gelu(0) = 0; gelu is ~x for large x, ~0 for large negative x. With
        # identity projections the feed-forward sublayer is LN(x + gelu(x)).
        x = np.array([[0.0, 10.0, -10.0]])
        eye, zero, one = np.eye(3), np.zeros(3), np.ones(3)
        y = T.ffn_sublayer(Tensor(x), [Tensor(a) for a in (eye, zero, eye, zero, one, zero)]).data
        npt.assert_allclose(y, numpy_layer_norm(x + [[0.0, 10.0, 0.0]], one, zero), atol=1e-9)


@st.composite
def float32_rows(draw):
    """A float32 matrix of 1 to 64 rows, 6 or 32 wide, its rows offset and
    scaled as a drawn mean and spread; a float32 gamma and output gradient."""
    n, H = draw(st.integers(1, 64)), draw(st.sampled_from([6, 32]))
    loc, scale = draw(st.floats(-4.0, 4.0)), 10.0 ** draw(st.floats(-1.0, 1.0))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    s = rng.normal(loc, scale, size=(n, H)).astype(np.float32)
    gamma, beta = rng.normal(size=(2, H)).astype(np.float32)
    return s, gamma, beta, rng.normal(size=(n, H)).astype(np.float32)


class TestFloat32Reductions:
    """The layer norm's row means and the column sums are BLAS products in
    float32: each result against a float64 reference on the same inputs.
    The layer-norm bounds are in float32 epsilons scaled by
    ``rounding_scale`` (its square for the input gradient, and times the
    column's sum of |g| for d gamma), about 5 times the worst of 4,000
    random cases: 13.7 for outputs, 12.5 for the input gradient and 3.0
    for d gamma. d beta and the column sums are held to the error bound of
    any summation order."""

    EPS = float(np.finfo(np.float32).eps)

    @classmethod
    def summation_bound(cls, terms):
        """Any order of summing n float32 terms errs by at most
        (n-1)u/(1-(n-1)u) times the sum of their magnitudes, u = eps/2."""
        nu = (len(terms) - 1) * cls.EPS / 2
        return nu / (1 - nu) * np.abs(terms).sum(axis=0)

    @settings(max_examples=200, deadline=None)
    @given(float32_rows())
    def test_layer_norm_near_the_float64_reference(self, case):
        s, gamma, beta, g = case
        y, xhat, inv = T._layer_norm_fwd(s, gamma, beta)
        dgamma, dbeta, ds = T._layer_norm_bwd(g, xhat, inv, gamma)
        assert all(a.dtype == np.float32 for a in (y, xhat, inv, dgamma, dbeta, ds))
        S, Gm, Bt, G = (a.astype(np.float64) for a in (s, gamma, beta, g))
        k = rounding_scale(S)
        npt.assert_allclose(y, numpy_layer_norm(S, Gm, Bt), rtol=0, atol=64 * self.EPS * k)
        sd = np.sqrt(S.var(axis=1, keepdims=True) + 1e-12)
        xh = (S - S.mean(axis=1, keepdims=True)) / sd
        gg = G * Gm
        ref_ds = (gg - gg.mean(axis=1, keepdims=True)
                  - xh * (gg * xh).mean(axis=1, keepdims=True)) / sd
        npt.assert_allclose(ds, ref_ds, rtol=0, atol=64 * self.EPS * k * k)
        assert np.all(np.abs(dgamma - (G * xh).sum(axis=0))
                      <= 16 * self.EPS * k * np.abs(G).sum(axis=0))
        assert np.all(np.abs(dbeta - G.sum(axis=0)) <= self.summation_bound(G))

    @settings(max_examples=200, deadline=None)
    @given(float32_rows())
    def test_column_sum_within_the_summation_bound(self, case):
        g = case[3]
        got = T._col_sum(g)
        assert got.dtype == np.float32 and got.shape == (g.shape[1],)
        G = g.astype(np.float64)
        assert np.all(np.abs(got - G.sum(axis=0)) <= self.summation_bound(G))


class TestGradcheckCoverage:
    def test_every_public_op_records_a_node(self, monkeypatch):
        # Every public op of clspool.tensor must record at least one new tape
        # node somewhere in the gradcheck suite, or its backward goes unchecked.
        from clspool.gradcheck import run_gradcheck
        made = []
        ops = spy_on_public_ops(monkeypatch, made)
        run_gradcheck(seeds=1, coords_per_param=1)
        recorded = {name for name, parents, _ in made if parents}
        assert sorted(ops - recorded) == []

    def test_every_scenario_runs_in_float64(self):
        # Finite differences at h = 1e-5 need 64 bits; the desk model's
        # scenarios cast its float32 parameters, and the ops follow them.
        from clspool.gradcheck import SCENARIOS
        for name, build in SCENARIOS.items():
            loss_fn, params = build(0)
            assert {p.data.dtype for p in params.values()} == {np.dtype(np.float64)}, name
            assert loss_fn().data.dtype == np.float64, name


class TestRuntimeCoverage:
    def test_every_public_op_is_run_by_training_or_evaluation(self, monkeypatch):
        # The public ops are exactly those that one epoch of training (dropout
        # and the L2 penalty on) and an evaluation record a node in, over the heads.
        made = []
        ops = spy_on_public_ops(monkeypatch, made)
        examples = synth_generate(12, seed=0)
        vocab = vocab_for_examples(examples)
        arrays = pack_dataset(examples, vocab, 16)
        config = EncoderConfig(L=2, H=8, A=2, F=8, V=len(vocab), S_max=16, p_drop=0.1)
        for pooling in HEAD_KINDS:
            model = fit(config, pooling, 3, arrays,
                        TrainConfig(lam=1e-5, epochs=1, batch_size=6), run=0)
            evaluate(model, arrays)
        recorded = {name for name, parents, _ in made if parents}
        assert sorted(ops ^ recorded) == []


# Each public op once: the shapes of its Tensor inputs, and the call on them
# with a dropout rate p and generator rng, which only the ops in DROPOUT_OPS take.
DTYPE_MASK = np.array([[1, 1, 1, 0], [1, 1, 1, 1]])   # 7 valid positions
OP_CALLS = {
    "gather_rows": ([(5, 6)], lambda t, p, rng: T.gather_rows(t[0], [0, 3, 3])),
    "embedding_sublayer": (
        [(5, 6), (2, 6), (4, 6), (6,), (6,)],
        lambda t, p, rng: T.embedding_sublayer([[0, 0, 0], [3, 1, 2], [3, 1, 3]], t, p, rng)),
    "attention_sublayer": (
        [(7, 6), (6, 18), (18,), (6, 6), (6,), (6,), (6,)],
        lambda t, p, rng: T.attention_sublayer(t[0], t[1:], DTYPE_MASK, 2, False, p, rng)[0]),
    "ffn_sublayer": ([(4, 6), (6, 8), (8,), (8, 6), (6,), (6,), (6,)],
                     lambda t, p, rng: T.ffn_sublayer(t[0], t[1:], p, rng)),
    "layer_attention": ([(3, 6), (3, 6), (6,), (6, 6)],
                        lambda t, p, rng: T.layer_attention(t[:2], t[2], t[3])[0]),
    "lstm": ([(3, 6), (3, 6), (6, 24), (6, 24), (24,)],
             lambda t, p, rng: T.lstm(t[:2], t[2], t[3], t[4])),
    "linear": ([(3, 6), (6, 4), (4,)], lambda t, p, rng: T.linear(t[0], t[1], t[2], p, rng)),
    "softmax_cross_entropy": ([(3, 4), (6, 4)], lambda t, p, rng: T.softmax_cross_entropy(
        t[0], [0, 3, 1], [t[1]], 0.1)),
}
DROPOUT_OPS = ["attention_sublayer", "embedding_sublayer", "ffn_sublayer", "linear"]


def call_op(op, p, rng, dtype=np.float64):
    """``OP_CALLS[op]`` on inputs drawn from a fixed seed, as leaves that require a
    gradient; returns (output, inputs)."""
    shapes, call = OP_CALLS[op]
    draw = np.random.default_rng(0)
    inputs = [Tensor(draw.normal(size=shape).astype(dtype))
              for shape in shapes]
    return call(inputs, p, rng), inputs


class TestDropoutRate:
    """An op drops out at its rate alone: rate 0 is no dropout, needing no
    generator, and a rate above 0 needs one."""

    def test_only_the_dropout_ops_take_a_rate_and_none_a_training_flag(self):
        params = {name: inspect.signature(op).parameters for name, op in public_ops().items()}
        assert sorted(name for name, ps in params.items() if "p" in ps) == DROPOUT_OPS
        assert not [name for name, ps in params.items() if "training" in ps]
        assert list(inspect.signature(T._dropout_fwd).parameters) == ["x", "p", "rng"]

    @pytest.mark.parametrize("op", DROPOUT_OPS)
    def test_rate_zero_returns_the_input_and_keeps_the_generator(self, op, monkeypatch):
        dropout = T._dropout_fwd
        seen = []

        def spy(x, p, rng):
            out, keep = dropout(x, p, rng)
            seen.append((out is x, keep))
            return out, keep

        monkeypatch.setattr(T, "_dropout_fwd", spy)
        g = np.random.default_rng(1)
        state = g.bit_generator.state
        without, _ = call_op(op, 0.0, None)
        with_g, _ = call_op(op, 0.0, g)
        assert seen and all(s == (True, None) for s in seen)
        assert g.bit_generator.state == state
        assert np.array_equal(without.data, with_g.data)

    @pytest.mark.parametrize("op", DROPOUT_OPS)
    def test_a_rate_above_zero_needs_a_generator(self, op):
        with pytest.raises(ValueError, match="dropout at rate 0.3 requires a generator"):
            call_op(op, 0.3, None)
        g = np.random.default_rng(1)
        state = g.bit_generator.state
        call_op(op, 0.3, g)
        assert g.bit_generator.state != state


class TestDtype:
    """Every op computes in its inputs' dtype, float32 or float64."""

    def test_every_public_op_has_a_call(self):
        assert sorted(OP_CALLS) == sorted(public_ops())

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("op", sorted(OP_CALLS))
    def test_output_and_gradients_take_the_inputs_dtype(self, op, dtype):
        out, inputs = call_op(op, 0.3, np.random.default_rng(1), dtype)
        assert out.data.dtype == dtype
        if out.data.size > 1:
            R = Tensor(np.random.default_rng(2).normal(size=(out.shape[1], 3)).astype(dtype))
            out = T.softmax_cross_entropy(T.linear(out, R, Tensor(np.zeros(3, dtype))),
                                          np.arange(out.shape[0]) % 3)
        assert out.data.dtype == dtype
        out.backward()
        assert [t.grad.dtype for t in inputs] == [dtype] * len(inputs)

    @pytest.mark.parametrize("data", [[1, 2], np.arange(3), np.float16([0.5]), True])
    def test_other_data_becomes_float64(self, data):
        assert Tensor(data).data.dtype == np.float64
