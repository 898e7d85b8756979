"""Dense tensors with reverse-mode automatic differentiation.

Every operation records itself on an implicit tape (the graph of Tensor
nodes); ``backward(loss)`` walks the tape in reverse topological order,
accumulates gradients into every tensor created with ``requires_grad=True``,
and then clears the tape so a graph can only be differentiated once.

Layout is row-major everywhere and every tensor is at most 2-D. Shapes are
checked explicitly; the only broadcast allowed is a bias vector added over
the rows of a matrix (``add``). Five fused ops record one tape node each
and carry a hand-derived backward: ``attention`` (multi-head attention
over the N valid positions of a batch, given as N×H keys and values, with
one query per valid position or one per example; only inside it are the
rows laid out as padded (B, A, S, d_h) views), ``layer_attention`` (a
softmax-weighted sum of L B×H rows, for the attention pooling head),
``lstm`` (an LSTM over a list of B×H rows, its four gates computed as one
H×4H block), ``sum_squares`` (the sum of squares of several tensors, for
the L2 penalty) and ``softmax_cross_entropy`` (the classifier loss on
logits).
"""

from __future__ import annotations

import math

import numpy as np
from scipy.special import erf


class ShapeError(ValueError):
    """Raised when operand shapes do not satisfy an op's contract."""


class Tensor:
    """A dense float64 array that participates in the gradient tape."""

    __slots__ = ("data", "requires_grad", "grad", "_parents", "_backward", "_consumed")

    def __init__(self, data, requires_grad=False, _parents=(), _backward=None):
        self.data = np.asarray(data, dtype=np.float64)
        self.requires_grad = requires_grad or any(p.requires_grad for p in _parents)
        self.grad = None
        self._parents = _parents
        self._backward = _backward
        self._consumed = False

    @property
    def shape(self):
        return self.data.shape

    def item(self):
        return float(self.data.reshape(()))

    def backward(self):
        backward(self)

    def __repr__(self):
        return f"Tensor(shape={self.shape}, requires_grad={self.requires_grad})"


def _as_tensor(x):
    return x if isinstance(x, Tensor) else Tensor(x)


def _accumulate(t, g):
    if not t.requires_grad:
        return
    t.grad = g if t.grad is None else t.grad + g


def backward(loss):
    """Accumulate gradients of a scalar loss into every requires_grad tensor.

    The tape rooted at ``loss`` is cleared afterwards; a second backward on
    the same graph raises.
    """
    if loss.data.size != 1:
        raise ValueError(f"backward requires a scalar loss, got shape {loss.shape}")
    if loss._consumed:
        raise RuntimeError("tape already consumed: one backward pass per forward pass")

    topo = []
    visited = set()
    stack = [(loss, False)]
    while stack:
        node, expanded = stack.pop()
        if expanded:
            topo.append(node)
            continue
        if id(node) in visited:
            continue
        visited.add(id(node))
        stack.append((node, True))
        for p in node._parents:
            if id(p) not in visited:
                stack.append((p, False))

    loss.grad = np.ones_like(loss.data)
    for node in reversed(topo):
        if node._backward is not None and node.grad is not None:
            node._backward(node.grad)
        node._consumed = True
    # Clear the tape: drop closures and parent links so memory is released
    # and a second backward cannot silently re-run.
    for node in topo:
        if node._parents:
            node._backward = None
            node._parents = ()


# ---------------------------------------------------------------------------
# arithmetic


def add(a, b):
    """Elementwise sum; also allows a 1-D bias broadcast over matrix rows."""
    a, b = _as_tensor(a), _as_tensor(b)
    if a.shape == b.shape:
        out = Tensor(a.data + b.data, _parents=(a, b))

        def bwd(g):
            _accumulate(a, g)
            _accumulate(b, g)

    elif a.data.ndim == 2 and b.data.ndim == 1 and a.shape[1] == b.shape[0]:
        out = Tensor(a.data + b.data, _parents=(a, b))

        def bwd(g):
            _accumulate(a, g)
            _accumulate(b, g.sum(axis=0))

    else:
        raise ShapeError(f"add: incompatible shapes {a.shape} and {b.shape}")
    out._backward = bwd
    return out


def mul(a, b):
    """Elementwise product of same-shape tensors."""
    a, b = _as_tensor(a), _as_tensor(b)
    if a.shape != b.shape:
        raise ShapeError(f"mul: incompatible shapes {a.shape} and {b.shape}")
    out = Tensor(a.data * b.data, _parents=(a, b))

    def bwd(g):
        _accumulate(a, g * b.data)
        _accumulate(b, g * a.data)

    out._backward = bwd
    return out


def scale(a, c):
    """Multiply by a Python scalar constant."""
    c = float(c)
    out = Tensor(a.data * c, _parents=(a,))
    out._backward = lambda g: _accumulate(a, g * c)
    return out


# Below this many multiply-adds, matmul accumulates k-slices in order, which
# is bit-identical to a naive triple loop (BLAS reorders/fuses and is not).
_MATMUL_EXACT_LIMIT = 512


def _matmul_data(a, b):
    m, k = a.shape
    n = b.shape[1]
    if m * k * n > _MATMUL_EXACT_LIMIT:
        return a @ b
    out = np.zeros((m, n))
    for kk in range(k):
        out += a[:, kk:kk + 1] * b[kk, :]
    return out


def matmul(a, b):
    a, b = _as_tensor(a), _as_tensor(b)
    if a.data.ndim != 2 or b.data.ndim != 2 or a.shape[1] != b.shape[0]:
        raise ShapeError(f"matmul: incompatible shapes {a.shape} and {b.shape}")
    out = Tensor(_matmul_data(a.data, b.data), _parents=(a, b))

    def bwd(g):
        _accumulate(a, g @ b.data.T)
        _accumulate(b, a.data.T @ g)

    out._backward = bwd
    return out


def tsum(a):
    """Sum of all entries, as a scalar tensor."""
    out = Tensor(a.data.sum(), _parents=(a,))
    out._backward = lambda g: _accumulate(a, np.full(a.shape, float(g)))
    return out


def sum_squares(tensors):
    """Sum over ``tensors`` of the sum of their squared entries, as one scalar node.

    The per-tensor sums are added left to right in the order given.
    """
    tensors = tuple(tensors)
    out = Tensor(sum((t.data * t.data).sum() for t in tensors), _parents=tensors)

    def bwd(g):
        for t in tensors:
            _accumulate(t, 2.0 * float(g) * t.data)

    out._backward = bwd
    return out


# ---------------------------------------------------------------------------
# indexing


def gather_rows(a, indices):
    """Select rows of a matrix, each index in [0, rows); gradient scatter-adds back."""
    idx = np.asarray(indices, dtype=np.intp)
    if idx.size and (idx.min() < 0 or idx.max() >= a.shape[0]):
        raise IndexError(f"gather_rows: indices span [{idx.min()}, {idx.max()}], "
                         f"matrix has {a.shape[0]} rows")
    out = Tensor(a.data[idx], _parents=(a,))

    def bwd(g):
        if a.requires_grad:
            buf = np.zeros_like(a.data)
            np.add.at(buf, idx, g)
            _accumulate(a, buf)

    out._backward = bwd
    return out


# ---------------------------------------------------------------------------
# nonlinearities


def tanh(a):
    y = np.tanh(a.data)
    out = Tensor(y, _parents=(a,))
    out._backward = lambda g: _accumulate(a, g * (1.0 - y * y))
    return out


def sigmoid(a):
    y = 1.0 / (1.0 + np.exp(-a.data))
    out = Tensor(y, _parents=(a,))
    out._backward = lambda g: _accumulate(a, g * y * (1.0 - y))
    return out


_INV_SQRT2 = 1.0 / math.sqrt(2.0)
_INV_SQRT_2PI = 1.0 / math.sqrt(2.0 * math.pi)


def gelu(a):
    """Exact (erf-based) GELU."""
    x = a.data
    cdf = 0.5 * (1.0 + erf(x * _INV_SQRT2))
    out = Tensor(x * cdf, _parents=(a,))

    def bwd(g):
        pdf = np.exp(-0.5 * x * x) * _INV_SQRT_2PI
        _accumulate(a, g * (cdf + x * pdf))

    out._backward = bwd
    return out


def _split_heads(x, B, S, heads, valid=None):
    """Rows of ``x`` -> (B, A, S, d_h).

    With ``valid`` None, ``x`` has B*S rows and the result is a view of it.
    Otherwise ``x`` has one row per True entry of the (B, S) ``valid``, in
    row-major order, and is scattered into zeros at the other positions.
    """
    if valid is not None:
        padded = np.zeros((B, S, x.shape[1]))
        padded[valid] = x
        x = padded
    return x.reshape(B, S, heads, -1).transpose(0, 2, 1, 3)


def _merge_heads(x, valid=None):
    """(B, A, S, d_h) -> its B*S rows, or only the rows at the True entries of ``valid``."""
    B, A, S, dh = x.shape
    x = x.transpose(0, 2, 1, 3)
    return x.reshape(B * S, A * dh) if valid is None else x[valid].reshape(-1, A * dh)


def attention(q, k, v, mask, heads):
    """Fused scaled dot-product multi-head attention over the valid positions of a batch.

    ``mask`` is a (B, S) 0/1 array; its N ones are the valid positions.
    ``k`` and ``v`` are N×H, one row per valid position in example-major
    order. ``q`` is either N×H, one query per valid position
    (self-attention), or B×H, one query per example; B rows are read the
    second way even when N == B, where each example has one valid
    position and both readings give the same output rows. Each example
    attends only to its own valid positions. Inside, the rows are
    scattered into zero-filled (B, A, S, d_h) arrays, and the rows of the
    valid positions are gathered from the output and the gradients; when
    every position is valid, nothing is scattered or gathered and the
    inputs are only viewed as (B, A, S, d_h).

    Returns ``(out, probs)``: the context, with as many rows as ``q``, as
    one tape node with parents (q, k, v), and the attention probabilities,
    (B, A, S, S) or (B, A, 1, S), which the backward reuses. The
    probability rows of masked query positions come from zero queries and
    belong to no output row.
    """
    mask = np.asarray(mask)
    if mask.ndim != 2:
        raise ShapeError(f"attention: mask must be (B, S), got shape {mask.shape}")
    B, S = mask.shape
    valid = mask == 1
    N = int(np.count_nonzero(valid))
    H = q.shape[-1]
    if (q.shape not in ((N, H), (B, H)) or any(t.shape != (N, H) for t in (k, v))
            or heads < 1 or H % heads != 0):
        raise ShapeError(f"attention: q/k/v {q.shape}/{k.shape}/{v.shape} do not fit "
                         f"mask {mask.shape} ({N} valid positions) with {heads} heads")
    holes = None if N == B * S else valid
    Sq, q_holes = (1, None) if q.shape[0] == B else (S, holes)
    c = 1.0 / math.sqrt(H // heads)
    Q = _split_heads(q.data, B, Sq, heads, q_holes)
    K, V = (_split_heads(t.data, B, S, heads, holes) for t in (k, v))
    bias = np.where(valid, 0.0, -1e9)[:, None, None, :]
    scores = np.matmul(Q, K.transpose(0, 1, 3, 2)) * c + bias
    e = np.exp(scores - scores.max(axis=-1, keepdims=True))
    P = e / e.sum(axis=-1, keepdims=True)
    out = Tensor(_merge_heads(np.matmul(P, V), q_holes), _parents=(q, k, v))

    def bwd(g):
        G = _split_heads(g, B, Sq, heads, q_holes)
        _accumulate(v, _merge_heads(np.matmul(P.transpose(0, 1, 3, 2), G), holes))
        dP = np.matmul(G, V.transpose(0, 1, 3, 2))
        dS = P * (dP - (dP * P).sum(axis=-1, keepdims=True)) * c
        _accumulate(q, _merge_heads(np.matmul(dS, K), q_holes))
        _accumulate(k, _merge_heads(np.matmul(dS.transpose(0, 1, 3, 2), Q), holes))

    out._backward = bwd
    return out, P


def layer_attention(rows, q):
    """Fused softmax-weighted sum of L B×H rows, with one weight per row and layer.

    Row b of layer l scores ``rows[l][b] · q``; the weights are the softmax
    of the scores over layers. Returns ``(out, weights)``: the B×H weighted
    sum as one tape node with parents (*rows, q), and the B×L weights,
    which the backward reuses.
    """
    rows = list(rows)
    if not rows:
        raise ValueError("layer_attention requires a nonempty list of rows")
    B, H = rows[0].shape[0], q.data.size
    if q.shape != (H,) or any(r.shape != (B, H) for r in rows):
        raise ShapeError(f"layer_attention: rows {[r.shape for r in rows]} "
                         f"do not fit query {q.shape}")
    q_col = q.data.reshape(H, 1)
    scores = np.concatenate([_matmul_data(r.data, q_col) for r in rows], axis=1)
    e = np.exp(scores - scores.max(axis=1, keepdims=True))
    P = e / e.sum(axis=1, keepdims=True)
    combined = rows[0].data * P[:, :1]
    for l in range(1, len(rows)):
        combined = combined + rows[l].data * P[:, l:l + 1]
    out = Tensor(combined, _parents=(*rows, q))

    def bwd(g):
        dP = np.stack([(g * r.data).sum(axis=1) for r in rows], axis=1)
        dS = P * (dP - (dP * P).sum(axis=1, keepdims=True))
        for l, r in enumerate(rows):
            _accumulate(r, g * P[:, l:l + 1] + dS[:, l:l + 1] * q.data)
        _accumulate(q, sum(dS[:, l] @ r.data for l, r in enumerate(rows)))

    out._backward = bwd
    return out, P


def _sigmoid(x):
    return 1.0 / (1.0 + np.exp(-x))


def lstm(xs, W, U, b):
    """Fused single-layer LSTM over a sequence of B×D rows; returns the last h.

    ``W`` (D×H), ``U`` (H×H) and ``b`` (H) are lists of four tensors, one
    per gate in (i, f, g, o) order. They are joined into D×4H and H×4H
    blocks so each step makes one ``h @ U`` product, and every step's
    ``x @ W`` is one product over the stacked rows. The state starts at
    zero. Returns one B×H tape node whose parents are the rows and the 12
    gate tensors; the backward is hand-derived backpropagation through time
    from the saved gates and cell states.
    """
    xs, W, U, b = list(xs), list(W), list(U), list(b)
    if not xs or len(W) != 4 or len(U) != 4 or len(b) != 4:
        raise ShapeError(f"lstm: need a nonempty sequence and four gates each, got "
                         f"{len(xs)} rows and {len(W)}/{len(U)}/{len(b)} gate tensors")
    B, D, H = xs[0].shape[0], W[0].shape[0], U[0].shape[-1]
    if (any(x.shape != (B, D) for x in xs)
            or any(w.shape != (D, H) for w in W) or any(u.shape != (H, H) for u in U)
            or any(v.shape != (H,) for v in b)):
        raise ShapeError(f"lstm: rows {[x.shape for x in xs]} do not fit W "
                         f"{[w.shape for w in W]}, U {[u.shape for u in U]}, b {[v.shape for v in b]}")
    Wc = np.concatenate([w.data for w in W], axis=1)
    Uc = np.concatenate([u.data for u in U], axis=1)
    bc = np.concatenate([v.data for v in b])
    X = np.stack([x.data for x in xs])                       # (L, B, D)
    XW = (X.reshape(-1, D) @ Wc).reshape(len(xs), B, 4 * H)
    gates, cs, tcs = [], [np.zeros((B, H))], []
    h = np.zeros((B, H))
    hs = [h]
    for t in range(len(xs)):
        z = XW[t] + h @ Uc + bc if t else XW[t] + bc
        a = np.empty_like(z)
        a[:, :2 * H] = _sigmoid(z[:, :2 * H])
        a[:, 2 * H:3 * H] = np.tanh(z[:, 2 * H:3 * H])
        a[:, 3 * H:] = _sigmoid(z[:, 3 * H:])
        i, f, g, o = a[:, :H], a[:, H:2 * H], a[:, 2 * H:3 * H], a[:, 3 * H:]
        c = f * cs[-1] + i * g
        tc = np.tanh(c)
        h = o * tc
        gates.append(a)
        cs.append(c)
        tcs.append(tc)
        hs.append(h)
    out = Tensor(h, _parents=(*xs, *W, *U, *b))

    def bwd(dh):
        dZ = np.empty((len(xs), B, 4 * H))
        dc = np.zeros((B, H))
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
                dh = dz @ Uc.T
        flat = dZ.reshape(-1, 4 * H)
        dW = X.reshape(-1, D).T @ flat
        dU = np.stack(hs[:-1]).reshape(-1, H).T @ flat
        db = flat.sum(axis=0)
        for k in range(4):
            cols = slice(k * H, (k + 1) * H)
            _accumulate(W[k], dW[:, cols])
            _accumulate(U[k], dU[:, cols])
            _accumulate(b[k], db[cols])
        if any(x.requires_grad for x in xs):
            dX = flat @ Wc.T
            for t, x in enumerate(xs):
                _accumulate(x, dX[t * B:(t + 1) * B])

    out._backward = bwd
    return out


def layer_norm(x, gamma, beta, eps=1e-12):
    """Per-row layer normalization of a matrix."""
    if x.data.ndim != 2:
        raise ShapeError(f"layer_norm expects a matrix, got shape {x.shape}")
    h = x.shape[1]
    if gamma.shape != (h,) or beta.shape != (h,):
        raise ShapeError(f"layer_norm: gamma/beta shape {gamma.shape}/{beta.shape} vs width {h}")
    mu = x.data.mean(axis=1, keepdims=True)
    var = x.data.var(axis=1, keepdims=True)
    inv = 1.0 / np.sqrt(var + eps)
    xhat = (x.data - mu) * inv
    out = Tensor(xhat * gamma.data + beta.data, _parents=(x, gamma, beta))

    def bwd(g):
        _accumulate(gamma, (g * xhat).sum(axis=0))
        _accumulate(beta, g.sum(axis=0))
        if x.requires_grad:
            gg = g * gamma.data
            m1 = gg.mean(axis=1, keepdims=True)
            m2 = (gg * xhat).mean(axis=1, keepdims=True)
            _accumulate(x, (gg - m1 - xhat * m2) * inv)

    out._backward = bwd
    return out


def dropout(x, p, rng, training=True):
    """Inverted dropout: scale by 1/(1-p) at train time, identity at eval."""
    if not training or p == 0.0:
        return x
    if rng is None:
        raise ValueError("dropout in training mode requires a generator")
    keep = (rng.random(x.shape) >= p) / (1.0 - p)
    out = Tensor(x.data * keep, _parents=(x,))
    out._backward = lambda g: _accumulate(x, g * keep)
    return out


# ---------------------------------------------------------------------------
# losses


def softmax_cross_entropy(logits, labels):
    """Mean cross-entropy of integer labels under the row-wise softmax of logits.

    One tape node: each row's loss is logsumexp(row) - row[label], computed
    after subtracting the row max, so no probability is ever clamped. The
    backward is (softmax - onehot) / n.
    """
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
    out = Tensor((np.log(total[:, 0]) - z[rows, lab]).sum() / n, _parents=(logits,))

    def bwd(g):
        d = e / total
        d[rows, lab] -= 1.0
        _accumulate(logits, d * (float(g) / n))

    out._backward = bwd
    return out
