"""Dense tensors with reverse-mode automatic differentiation.

Every operation records itself on an implicit tape (the graph of Tensor
nodes, each holding its position in the order they were made);
``loss.backward()`` runs the nodes its loss reaches newest first, gives
every tensor it reaches a gradient, and clears each node as soon as its
own backward has run, so a graph can only be differentiated once.

The eight public ops are exactly the ones a model runs: ``gather_rows``
and the seven fused ops below. Each takes Tensors, never raw arrays.

Layout is row-major everywhere and every tensor is at most 2-D. Shapes are
checked explicitly; the only broadcast is a bias vector added over the
rows of a matrix, inside the ops. Every matrix product, forward and
backward, is one numpy ``@``, so BLAS chooses the summation order. Each op
builds its backward closure first and passes it to the ``Tensor``
constructor with the node's parents. A backward is a pure function of the
output gradient: it returns one gradient per parent, in parents order, and
``Tensor.backward`` alone adds them into the parents. Seven fused ops
record one tape node each and carry a hand-derived backward:

- ``embedding_sublayer``, the encoder's input stage: token + segment +
  position rows, layer norm and dropout, over a batch's valid positions;
- ``attention_sublayer``, one transformer block's post-layer-norm
  multi-head self-attention sublayer (projections, attention, output
  projection, dropout, residual and layer norm) over the N valid
  positions of a batch, given as one N×H matrix, with one query per
  valid position or one per example, from one H×3H query, key and value
  block; only inside it are the rows laid out as a padded view, and its
  attention scores are key-major, so that the softmax reduces over the
  outermost, contiguous axis;
- ``ffn_sublayer``, the block's feed-forward sublayer (GELU network,
  dropout, residual and layer norm); its GELU is the tanh form of BERT
  and GPT, within 4.7e-4 of the exact (erf) GELU, so the runtime imports
  numpy and nothing else;
- ``layer_attention``, the attention pooling head: a softmax-weighted
  sum of L B×H rows, projected by an H×H matrix;
- ``lstm``, an LSTM over a list of B×H rows, its four gates (i, f, g, o)
  held in column order in W and U (H×4H) and b (4H), so a step is one
  ``h @ U`` product;
- ``linear``, the classifier: dropout, then an affine map;
- ``softmax_cross_entropy``, the classifier loss on logits, plus a
  constant times the sum of squares of several tensors (the L2 penalty).

Every op computes in the dtype of its inputs, float32 or float64: the
buffers it allocates take that dtype and its constants are Python
scalars, which do not widen an array, so the model runs in float32 and
the finite-difference gradient check in float64 through the same code.
Dropout still draws float64 uniforms and compares them with p, and its
0 or 1/(1-p) mask is the boolean draw times 1/(1-p) in the dtype, so a
float32 run draws the same masks as a float64 run of the same seed.

Layer norm and dropout are each one private forward/backward pair on
arrays, shared by the three sublayers (and ``linear``, for dropout); GELU
is one such pair too, for ``ffn_sublayer``. Dropout is its rate ``p``
alone: at rate 0, as in eval mode, an op drops nothing and needs no ``rng``.
The layer norm's row means and variances, and every column sum (the
layer norm's gamma and beta gradients and each bias gradient, through
``_col_sum``), are products with a constant vector, so they too run in
BLAS, which chooses their summation order; numpy's reductions over a
short axis take several times as long.

Inside a ``with no_grad():`` scope nothing is recorded: a new Tensor
keeps no parents and no backward closure, so none of the arrays a
closure would hold outlive the op. The ops build their closures as
always; ``Tensor.__init__`` keeps none on a node without parents, so the
scope is honoured in that one place. It is the only gradient switch: a
gradient that is not wanted is cut by reading ``Tensor(t.data)``, a leaf
like every Tensor built from data, or by leaving the tensor out of the
optimizer. The eval-mode forwards, ``PooledClassifier.predict`` and
``trace_batch``, run in the scope; training never does.
"""

from __future__ import annotations

import functools
import itertools
import math
from contextvars import ContextVar

import numpy as np


class ShapeError(ValueError):
    """Raised when operand shapes do not satisfy an op's contract."""


_recording = ContextVar("clspool_tape_recording", default=True)
_FLOATS = (np.float32, np.float64)
# A Tensor is made after its parents, so its tape position exceeds theirs.
_positions = itertools.count()


class no_grad:
    """``with no_grad():`` records no tape node; recording resumes on exit, also on error."""

    def __enter__(self):
        self._token = _recording.set(False)

    def __exit__(self, *exc):
        _recording.reset(self._token)


class Tensor:
    """A dense float32 or float64 array that participates in the gradient tape.

    A float32 or float64 array is kept as it is; anything else becomes float64.
    """

    __slots__ = ("data", "grad", "_parents", "_backward", "_consumed", "_position")

    def __init__(self, data, _parents=(), _backward=None):
        data = np.asarray(data)
        self.data = data if data.dtype in _FLOATS else data.astype(np.float64)
        if not _recording.get():
            _parents = ()
        self.grad = None
        self._parents = _parents
        # A node without parents has nothing to pass a gradient to, so it
        # keeps no closure, nor the arrays the closure holds.
        self._backward = _backward if _parents else None
        self._consumed = False
        self._position = next(_positions)

    @property
    def shape(self):
        return self.data.shape

    def item(self):
        return float(self.data.reshape(()))

    def backward(self):
        """Accumulate the gradient of this scalar loss into every tensor its tape
        reaches, running the nodes newest first, so each after all its consumers,
        and clearing the tape as the walk passes: a second backward raises. Each
        node's backward returns one gradient per parent, which this walk alone
        adds; a count that differs from the parents' raises ValueError."""
        if self.data.size != 1:
            raise ValueError(f"backward requires a scalar loss, got shape {self.shape}")
        if self._consumed:
            raise RuntimeError("tape already consumed: one backward pass per forward pass")

        reached, stack = {id(self): self}, [self]
        while stack:
            for p in stack.pop()._parents:
                if id(p) not in reached:
                    reached[id(p)] = p
                    stack.append(p)

        self.grad = np.ones_like(self.data)
        # Every op gives each parent a gradient, so each node holds one here.
        for node in sorted(reached.values(), key=lambda n: n._position, reverse=True):
            if node._backward is not None:
                for p, g in zip(node._parents, node._backward(node.grad), strict=True):
                    p.grad = g if p.grad is None else p.grad + g
            node._consumed = True
            # Every consumer of the node has run, so its closure and parent
            # links can go now: the arrays they hold are freed during the walk,
            # and a second backward cannot silently re-run.
            if node._parents:
                node._backward = None
                node._parents = ()

    def __repr__(self):
        return f"Tensor(shape={self.shape})"


# ---------------------------------------------------------------------------
# indexing


def gather_rows(a, indices):
    """Select rows of a matrix, each index in [0, rows); gradient scatter-adds back."""
    idx = np.asarray(indices, dtype=np.intp)

    def bwd(g):
        return (_scatter_add_rows(g, idx, a.shape[0]),)

    return Tensor(_checked_rows("gather_rows: indices", a.data, idx), _parents=(a,), _backward=bwd)


def _checked_rows(what, a, idx):
    """Rows ``idx`` of the array ``a``; IndexError unless every index is in [0, rows)."""
    if idx.size and (idx.min() < 0 or idx.max() >= len(a)):
        raise IndexError(f"{what} span [{idx.min()}, {idx.max()}], matrix has {len(a)} rows")
    return a[idx]


def _scatter_add_rows(g, idx, rows):
    """A ``rows``-row zero matrix with row i of ``g`` added at row ``idx[i]``.

    Repeated indices accumulate in index order, as ``np.add.at`` does, so
    for a float64 ``g`` the sums are the same to the bit; one ``bincount``
    over the flattened (row, column) bins is several times faster. It sums
    in float64, and the result takes ``g``'s dtype.
    """
    width = g.shape[1]
    bins = (idx[:, None] * width + np.arange(width)).reshape(-1)
    sums = np.bincount(bins, weights=g.reshape(-1), minlength=rows * width)
    return sums.reshape(rows, width).astype(g.dtype, copy=False)


# ---------------------------------------------------------------------------
# layer norm and dropout


@functools.lru_cache(maxsize=64)
def _const(n, value, dtype):
    """A read-only n-vector of ``value`` in ``dtype``.

    A row mean, or with ones a column sum, is then one BLAS
    matrix-vector product, several times faster than numpy's reduction
    over a 32-wide axis.
    """
    a = np.full(n, value, dtype)
    a.flags.writeable = False
    return a


def _col_sum(g):
    """The column sums of the matrix ``g``, as one product with a ones row."""
    return _const(g.shape[0], 1.0, g.dtype) @ g


def _layer_norm_fwd(s, gamma, beta):
    """Per-row layer norm of the matrix ``s``; returns (output, xhat, inv).

    ``xhat`` is the normalized ``s`` and ``inv`` the per-row 1/sqrt(var + 1e-12)
    column, which ``_layer_norm_bwd`` reuses. The mean and the variance are
    products with a constant vector of 1/H, so BLAS chooses their summation
    order, and the output is written into the buffer that held the squares.
    """
    w = _const(s.shape[1], 1.0 / s.shape[1], s.dtype)
    xhat = s - (s @ w)[:, None]
    sq = np.multiply(xhat, xhat)
    inv = 1.0 / np.sqrt((sq @ w)[:, None] + 1e-12)
    xhat *= inv
    y = np.multiply(xhat, gamma, out=sq)
    y += beta
    return y, xhat, inv


def _layer_norm_bwd(g, xhat, inv, gamma):
    """Gradients (d gamma, d beta, d s) of ``_layer_norm_fwd`` for the output gradient ``g``.

    The two row means, of g·gamma and of g·gamma·xhat, are the products of g
    and g·xhat with the vector gamma/H; the column sums are ``_col_sum``.
    """
    w = gamma / g.shape[1]
    gx = g * xhat
    m1, m2 = (g @ w)[:, None], (gx @ w)[:, None]
    dgamma, dbeta = _col_sum(gx), _col_sum(g)
    ds = g * gamma
    ds -= m1
    ds -= np.multiply(xhat, m2, out=gx)
    ds *= inv
    return dgamma, dbeta, ds


def _dropout_fwd(x, p, rng):
    """Inverted dropout of the array ``x`` at rate ``p``; returns (output, keep).

    ``keep`` is the 0 or 1/(1-p) multiplier in ``x``'s dtype: the boolean
    draw, from ``rng`` as float64 uniforms whatever that dtype, times
    1/(1-p) rounded to that dtype. It is None at p = 0, when ``x`` is
    returned and ``rng`` may be None; p > 0 without ``rng`` raises.
    """
    if p == 0.0:
        return x, None
    if rng is None:
        raise ValueError(f"dropout at rate {p} requires a generator")
    keep = (rng.random(x.shape) >= p) * x.dtype.type(1.0 / (1.0 - p))
    return x * keep, keep


def _dropout_bwd(g, keep):
    return g if keep is None else g * keep


# ---------------------------------------------------------------------------
# transformer sublayers


def _split_heads(x, B, S, heads, valid=None):
    """Rows of ``x`` -> (B, A, S, d_h).

    With ``valid`` None, ``x`` has B*S rows and the result is a view of it.
    Otherwise ``x`` has one row per True entry of the (B, S) ``valid``, in
    row-major order, and is scattered into zeros at the other positions.
    """
    if valid is not None:
        padded = np.zeros((B, S, x.shape[1]), x.dtype)
        padded[valid] = x
        x = padded
    return x.reshape(B, S, heads, -1).transpose(0, 2, 1, 3)


def _merge_heads(x, valid=None):
    """(B, A, S, d_h) -> its B*S rows, or only the rows at the True entries of ``valid``."""
    B, A, S, dh = x.shape
    x = x.transpose(0, 2, 1, 3)
    return x.reshape(B * S, A * dh) if valid is None else x[valid].reshape(-1, A * dh)


def _check_weights(op, weights, shapes):
    """Raise ShapeError unless ``weights`` has exactly the shapes ``shapes``, in order."""
    got = [w.shape for w in weights]
    if got != shapes:
        raise ShapeError(f"{op}: weight shapes {got}, expected {shapes}")


# GELU in its tanh form: h·½(1 + tanh u), u = √(2/π)(h + 0.044715h³).
_GELU_C = math.sqrt(2.0 / math.pi)
_GELU_K = 0.044715


def _gelu_fwd(h):
    """GELU of the array ``h`` in its tanh form; returns (a, hc, t).

    ``hc`` is ``h`` clipped to ±10 and ``t`` is tanh u, u computed from
    ``hc``; ``_gelu_bwd`` reuses both. From |h| = 10 on, tanh u is ±1 to
    the last bit, so the clip changes no value, but it keeps h³ finite.
    There ``a`` = h·½(1 + t) is exactly h or ±0, and since ½(1 + t) is
    formed first, no finite h overflows.
    """
    hc = np.clip(h, -10.0, 10.0)
    t = hc * hc
    t *= _GELU_K * _GELU_C
    t += _GELU_C
    t *= hc
    t = np.tanh(t)
    a = t + 1.0
    a *= 0.5
    a *= h
    return a, hc, t


def _gelu_bwd(g, hc, t):
    """The gradient of ``_gelu_fwd`` for the output gradient ``g``:
    g·(½(1 + t) + ½h(1 − t²)·√(2/π)(1 + 3·0.044715h²)), h read as ``hc``,
    so the second term is exactly 0, not 0·∞, where t is ±1."""
    s = hc * hc
    s *= 3.0 * _GELU_K * _GELU_C
    s += _GELU_C
    s *= hc
    s *= 1.0 - t * t
    s += 1.0 + t
    s *= 0.5
    s *= g
    return s


def embedding_sublayer(ids, weights, p=0.0, rng=None):
    """Fused embedding sublayer: dropout(LN(token[t] + segment[s] + position[j])) for each row.

    ``ids`` is N×3, one row of (t, s, j) per position, each id a row of its
    table; ``weights`` is (token, segment, position, gamma, beta), the
    tables H wide and summed (token + segment) + position. Dropout at
    rate ``p`` draws its N×H mask from ``rng``. Returns one N×H tape node
    with the five weights as parents.
    """
    weights = tuple(weights)
    H = weights[0].shape[-1] if weights else 0
    shapes = [(*w.shape[:1], H) for w in weights[:3]] + [(H,), (H,)]
    _check_weights("embedding_sublayer", weights, shapes)
    ids = np.asarray(ids, dtype=np.intp)
    if ids.ndim != 2 or ids.shape[1] != 3:
        raise ShapeError(f"embedding_sublayer: ids must be N×3, got shape {ids.shape}")
    tables, (gamma, beta) = weights[:3], weights[3:]
    tok, seg, pos = (_checked_rows(f"embedding_sublayer: {name} ids", t.data, col)
                     for name, t, col in zip(("token", "segment", "position"), tables, ids.T))
    y, xhat, inv = _layer_norm_fwd(tok + seg + pos, gamma.data, beta.data)
    y, keep = _dropout_fwd(y, p, rng)

    def bwd(g):
        dgamma, dbeta, ds = _layer_norm_bwd(_dropout_bwd(g, keep), xhat, inv, gamma.data)
        return (*(_scatter_add_rows(ds, col, t.shape[0]) for t, col in zip(tables, ids.T)),
                dgamma, dbeta)

    return Tensor(y, _parents=weights, _backward=bwd)


def attention_sublayer(x, weights, mask, heads, cls_only=False, p=0.0, rng=None):
    """Fused post-layer-norm multi-head self-attention sublayer over the valid positions of a batch.

    Computes LN(r + dropout(attend(Q, K, V)·Wo+bo)) as one tape node with
    parents (x, *weights), where ``weights`` is (Wqkv, bqkv, Wo, bo,
    gamma, beta) and [Q | K | V] = x·Wqkv+bqkv is one product, Wqkv H×3H
    and bqkv 3H. r, the query rows, is ``x``, or with ``cls_only`` the
    first row of each example (its [CLS] row), and a mask row whose
    column 0 is not valid raises ValueError. ``mask`` is a (B, S) 0/1
    array; its N ones are the valid positions, and ``x`` is N×H, one row
    per valid position in example-major order. Each example attends only
    to its own valid positions, with A = ``heads`` heads. Only inside the
    attention are the rows scattered into one zero-filled (B, 3A, S, d_h)
    array, its heads Q's, then K's, then V's, and with ``cls_only`` the
    queries are its column 0; when every position is valid, nothing is
    scattered or gathered. Dropout at rate ``p`` draws its mask from
    ``rng``.

    The scores are stored key-major, as one (S, B, A, Sq) array for the
    Sq = S or 1 queries, so that the softmax's max, exp, sum and divide
    run in place over axis 0: S vectorized passes over B·A·Sq contiguous
    values, where a reduction over a short last axis would run one row
    at a time. The backward builds dS in the same layout. Both query
    forms take this one path.

    Returns ``(out, probs)``: the output, with as many rows as r, and the
    attention probabilities, (B, A, S, S) or (B, A, 1, S), a transposed
    view of the key-major array, which the backward reuses. The
    probability rows of masked query positions come from zero queries
    and belong to no output row.
    """
    mask = np.asarray(mask)
    if mask.ndim != 2:
        raise ShapeError(f"attention_sublayer: mask must be (B, S), got shape {mask.shape}")
    B, S = mask.shape
    valid = mask == 1
    N = int(np.count_nonzero(valid))
    H = x.shape[-1]
    if x.shape != (N, H) or heads < 1 or H % heads != 0:
        raise ShapeError(f"attention_sublayer: x {x.shape} does not fit mask {mask.shape} "
                         f"({N} valid positions) with {heads} heads")
    weights = tuple(weights)
    _check_weights("attention_sublayer", weights, [(H, 3 * H), (3 * H,), (H, H), (H,), (H,), (H,)])
    Wqkv, bqkv, Wo, bo, gamma, beta = weights
    holes = None if N == B * S else valid
    A, xd = heads, x.data
    no_cls = np.flatnonzero(~valid[:, :1].any(axis=1)) if cls_only else ()
    if len(no_cls):
        raise ValueError(f"attention_sublayer: mask rows {no_cls.tolist()} do not mark "
                         "the [CLS] column 0 valid")
    # The query rows: each example's first, or all.
    rows = np.concatenate(([0], np.cumsum(valid.sum(axis=1))[:-1])) if cls_only else slice(None)
    Sq, q_holes = (1, None) if cls_only else (S, holes)
    c = 1.0 / math.sqrt(H // A)
    QKV = _split_heads(xd @ Wqkv.data + bqkv.data, B, S, 3 * A, holes)
    Q, K, V = QKV[:, :A, :Sq], QKV[:, A:2 * A], QKV[:, 2 * A:]
    # The key-major scores: the softmax runs in place over axis 0.
    Pt = np.empty((S, B, A, Sq), QKV.dtype)
    np.matmul(K, Q.transpose(0, 1, 3, 2), out=Pt.transpose(1, 2, 0, 3))
    Pt *= c
    if holes is not None:
        Pt += np.where(valid.T, 0.0, -1e9).astype(Pt.dtype)[:, :, None, None]
    Pt -= Pt.max(axis=0)
    np.exp(Pt, out=Pt)
    Pt /= Pt.sum(axis=0)
    P = Pt.transpose(1, 2, 3, 0)
    ctx = _merge_heads(np.matmul(P, V), q_holes)
    o, keep = _dropout_fwd(ctx @ Wo.data + bo.data, p, rng)
    y, xhat, inv = _layer_norm_fwd(xd[rows] + o, gamma.data, beta.data)

    def bwd(g):
        dgamma, dbeta, ds = _layer_norm_bwd(g, xhat, inv, gamma.data)
        do = _dropout_bwd(ds, keep)
        dWo, dbo = ctx.T @ do, _col_sum(do)
        G = _split_heads(do @ Wo.data.T, B, Sq, A, q_holes)
        # dS is key-major like Pt, and its softmax sum runs over axis 0.
        dSt = np.empty_like(Pt)
        np.matmul(V, G.transpose(0, 1, 3, 2), out=dSt.transpose(1, 2, 0, 3))
        dSt -= (dSt * Pt).sum(axis=0)
        dSt *= Pt
        dSt *= c
        # One gradient for [Q | K | V], laid out as QKV; with ``cls_only``
        # only the queries' column 0 is nonzero.
        dQKV = np.zeros(QKV.shape, QKV.dtype)
        np.matmul(dSt.transpose(1, 2, 3, 0), K, out=dQKV[:, :A, :Sq])
        np.matmul(dSt.transpose(1, 2, 0, 3), Q, out=dQKV[:, A:2 * A])
        np.matmul(Pt.transpose(1, 2, 0, 3), G, out=dQKV[:, 2 * A:])
        dqkv = _merge_heads(dQKV, holes)
        dx = dqkv @ Wqkv.data.T
        dx[rows] += ds
        return dx, xd.T @ dqkv, _col_sum(dqkv), dWo, dbo, dgamma, dbeta

    return Tensor(y, _parents=(x, *weights), _backward=bwd), P


def ffn_sublayer(x, weights, p=0.0, rng=None):
    """Fused post-layer-norm feed-forward sublayer: LN(x + dropout(gelu(x·W1+b1)·W2+b2)).

    ``x`` is N×H and ``weights`` is (W1, b1, W2, b2, gamma, beta), W1 H×F
    and W2 F×H; GELU is the tanh form, ``_gelu_fwd``. Dropout at rate
    ``p`` draws its mask from ``rng``. Returns one N×H tape node with
    parents (x, *weights).
    """
    if x.data.ndim != 2:
        raise ShapeError(f"ffn_sublayer expects a matrix, got shape {x.shape}")
    H = x.shape[1]
    weights = tuple(weights)
    F = weights[0].shape[-1] if weights else 0
    _check_weights("ffn_sublayer", weights, [(H, F), (F,), (F, H), (H,), (H,), (H,)])
    W1, b1, W2, b2, gamma, beta = weights
    xd = x.data
    h = xd @ W1.data + b1.data
    a, hc, t = _gelu_fwd(h)
    o, keep = _dropout_fwd(a @ W2.data + b2.data, p, rng)
    y, xhat, inv = _layer_norm_fwd(xd + o, gamma.data, beta.data)

    def bwd(g):
        dgamma, dbeta, ds = _layer_norm_bwd(g, xhat, inv, gamma.data)
        do = _dropout_bwd(ds, keep)
        dh = _gelu_bwd(do @ W2.data.T, hc, t)
        dx = dh @ W1.data.T
        dx += ds
        return dx, xd.T @ dh, _col_sum(dh), a.T @ do, _col_sum(do), dgamma, dbeta

    return Tensor(y, _parents=(x, *weights), _backward=bwd)


# ---------------------------------------------------------------------------
# pooling heads


def layer_attention(rows, q, W):
    """Fused attention pooling: W^T of the softmax-weighted sum of L B×H rows.

    Row b of layer l scores ``rows[l][b] · q``; the weights are the softmax
    of the scores over layers, one per row and layer, and the weighted sum
    is multiplied by the H×H ``W``. Returns ``(out, weights)``: the B×H
    output as one tape node with parents (*rows, q, W), and the B×L
    weights, which the backward reuses.
    """
    rows = list(rows)
    if not rows:
        raise ValueError("layer_attention requires a nonempty list of rows")
    B, H = rows[0].shape[0], q.data.size
    if q.shape != (H,) or W.shape != (H, H) or any(r.shape != (B, H) for r in rows):
        raise ShapeError(f"layer_attention: rows {[r.shape for r in rows]} "
                         f"do not fit query {q.shape} and W {W.shape}")
    q_col = q.data.reshape(H, 1)
    scores = np.concatenate([r.data @ q_col for r in rows], axis=1)
    e = np.exp(scores - scores.max(axis=1, keepdims=True))
    P = e / e.sum(axis=1, keepdims=True)
    combined = rows[0].data * P[:, :1]
    for l in range(1, len(rows)):
        combined = combined + rows[l].data * P[:, l:l + 1]

    def bwd(g):
        dW = combined.T @ g
        g = g @ W.data.T
        dP = np.stack([(g * r.data).sum(axis=1) for r in rows], axis=1)
        dS = P * (dP - (dP * P).sum(axis=1, keepdims=True))
        return (*(g * P[:, l:l + 1] + dS[:, l:l + 1] * q.data for l in range(len(rows))),
                sum(dS[:, l] @ r.data for l, r in enumerate(rows)), dW)

    return Tensor(combined @ W.data, _parents=(*rows, q, W), _backward=bwd), P


def lstm(xs, W, U, b):
    """Fused single-layer LSTM over a sequence of B×D rows; returns the last h.

    ``W`` (D×4H), ``U`` (H×4H) and ``b`` (4H) hold the four gates
    (i, f, g, o) in column order, so each step makes one ``h @ U`` product,
    and every step's ``x @ W`` is one product over the stacked rows. The
    state starts at zero. Returns one B×H tape node whose parents are the
    rows, W, U and b; the backward is hand-derived backpropagation through
    time from the saved gates and cell states.
    """
    xs = list(xs)
    if not xs:
        raise ShapeError("lstm: need a nonempty sequence")
    B, D, H = xs[0].shape[0], W.shape[0], U.shape[0]
    if (any(x.shape != (B, D) for x in xs) or W.shape != (D, 4 * H)
            or U.shape != (H, 4 * H) or b.shape != (4 * H,)):
        raise ShapeError(f"lstm: rows {[x.shape for x in xs]} do not fit W {W.shape}, "
                         f"U {U.shape}, b {b.shape}")
    X = np.stack([x.data for x in xs])                       # (L, B, D)
    XW = (X.reshape(-1, D) @ W.data).reshape(len(xs), B, 4 * H)
    h = np.zeros((B, H), XW.dtype)
    gates, cs, tcs = [], [h], []
    hs = [h]
    for t in range(len(xs)):
        z = XW[t] + h @ U.data + b.data if t else XW[t] + b.data
        # One sigmoid over all four gates, then tanh over the g block.
        a = np.negative(z)
        # Below z ≈ −88, a float32 exp overflows to inf, and the gate is exactly 0.
        with np.errstate(over="ignore"):
            np.exp(a, out=a)
        a += 1.0
        np.divide(1.0, a, out=a)
        np.tanh(z[:, 2 * H:3 * H], out=a[:, 2 * H:3 * H])
        i, f, g, o = a[:, :H], a[:, H:2 * H], a[:, 2 * H:3 * H], a[:, 3 * H:]
        c = f * cs[-1] + i * g
        tc = np.tanh(c)
        h = o * tc
        gates.append(a)
        cs.append(c)
        tcs.append(tc)
        hs.append(h)

    def bwd(dh):
        dZ = np.empty_like(XW)
        dc = np.zeros_like(h)
        for t in reversed(range(len(xs))):
            a = gates[t]
            i, f, g, o = a[:, :H], a[:, H:2 * H], a[:, 2 * H:3 * H], a[:, 3 * H:]
            tc = tcs[t]
            dc = dc + dh * o * (1.0 - tc * tc)
            dz = dZ[t]
            dz[:, :H] = dc * g * i * (1.0 - i)
            dz[:, H:2 * H] = dc * cs[t] * f * (1.0 - f)
            dz[:, 2 * H:3 * H] = dc * i * (1.0 - g * g)
            dz[:, 3 * H:] = dh * tc * o * (1.0 - o)
            dc = dc * f
            if t:
                dh = dz @ U.data.T
        flat = dZ.reshape(-1, 4 * H)
        dX = flat @ W.data.T
        return (*(dX[t * B:(t + 1) * B] for t in range(len(xs))), X.reshape(-1, D).T @ flat,
                np.stack(hs[:-1]).reshape(-1, H).T @ flat, _col_sum(flat))

    return Tensor(h, _parents=(*xs, W, U, b), _backward=bwd)


# ---------------------------------------------------------------------------
# classifier and loss


def linear(x, W, b, p=0.0, rng=None):
    """Fused classifier layer: dropout(x)·W + b, one tape node with parents (x, W, b).

    ``x`` is B×D, ``W`` D×C and ``b`` a C-vector added to every row.
    Dropout at rate ``p`` draws its B×D mask from ``rng``.
    """
    if x.data.ndim != 2 or W.data.ndim != 2 or x.shape[1] != W.shape[0] or b.shape != W.shape[1:]:
        raise ShapeError(f"linear: x {x.shape} does not fit W {W.shape} and b {b.shape}")
    xd, keep = _dropout_fwd(x.data, p, rng)

    def bwd(g):
        return _dropout_bwd(g @ W.data.T, keep), xd.T @ g, _col_sum(g)

    return Tensor(xd @ W.data + b.data, _parents=(x, W, b), _backward=bwd)


def softmax_cross_entropy(logits, labels, penalized=(), lam=0.0):
    """Mean cross-entropy of integer labels under the row-wise softmax of
    logits, plus ``lam`` times the sum of squares of the ``penalized`` tensors.

    One tape node with parents (logits, *penalized): each row's loss is
    logsumexp(row) - row[label], computed after subtracting the row max, so
    no probability is ever clamped. The per-tensor sums of squares are
    added left to right in the order given, scaled by ``lam`` and added to
    the mean. The backward is (softmax - onehot) / n for the logits and
    2·lam·t for each penalized t.
    """
    penalized, lam = tuple(penalized), float(lam)
    lab = np.asarray(labels, dtype=np.intp)
    if logits.data.ndim != 2 or lab.ndim != 1 or lab.shape[0] != logits.shape[0]:
        raise ShapeError(f"softmax_cross_entropy: logits {logits.shape} vs labels {lab.shape}")
    n, c = logits.shape
    if lab.size and (lab.min() < 0 or lab.max() >= c):
        raise IndexError(f"label out of range [0, {c}): saw {lab.min()}..{lab.max()}")
    rows = np.arange(n)
    z = logits.data - logits.data.max(axis=1, keepdims=True)
    e = np.exp(z)
    total = e.sum(axis=1, keepdims=True)
    loss = (np.log(total[:, 0]) - z[rows, lab]).sum() / n
    if penalized:
        loss = loss + sum((t.data * t.data).sum() for t in penalized) * lam

    def bwd(g):
        d = e / total
        d[rows, lab] -= 1.0
        return d * (float(g) / n), *(2.0 * float(g * lam) * t.data for t in penalized)

    return Tensor(loss, _parents=(logits, *penalized), _backward=bwd)
