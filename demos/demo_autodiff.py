"""Tour of the tiny reverse-mode autodiff engine behind clspool.

Builds a small computation graph by hand from the ops a model runs (the
fused embedding sublayer, a linear layer, a second linear layer with
dropout, and the cross-entropy loss with a scaled L2 penalty), runs
``loss.backward()``, which gives every tensor the graph reaches its
gradient, and checks a gradient against a central finite difference.
Every weight is a plain ``Tensor(data)``: there is no per-tensor switch.
"""

import numpy as np

from clspool import tensor as T
from clspool.tensor import Tensor

rng = np.random.default_rng(0)

# Four positions of one pair, one (token, segment, position) row each; token
# 5 occurs twice, so its table row gets the sum of both rows' gradients.
ids = np.array([[2, 0, 0], [5, 0, 1], [3, 1, 2], [5, 1, 3]])
embed = [Tensor(rng.normal(size=(6, 5))),   # token table
         Tensor(rng.normal(size=(2, 5))),   # segment table
         Tensor(rng.normal(size=(4, 5))),   # position table
         Tensor(np.ones(5)),                # layer-norm gain
         Tensor(np.zeros(5))]               # layer-norm bias
W1 = Tensor(rng.normal(size=(5, 5)))
b1 = Tensor(np.zeros(5))
W2 = Tensor(rng.normal(size=(5, 2)))
b2 = Tensor(np.zeros(2))
labels = np.array([0, 1, 1, 0])


def loss_with(w2):
    """Embed, two linear layers (the second with dropout 0.2), cross-entropy
    plus 1e-3 times the squared weights."""
    hidden = T.linear(T.embedding_sublayer(ids, embed), W1, b1)
    # A fresh generator per call: every evaluation draws the same dropout mask.
    logits = T.linear(hidden, w2, b2, 0.2, np.random.default_rng(1))
    return T.softmax_cross_entropy(logits, labels, [W1, w2], 1e-3)


loss = loss_with(W2)
print(f"loss = {loss.item():.6f}")

loss.backward()
print(f"dL/dW1 norm = {np.linalg.norm(W1.grad):.6f}")
print(f"dL/db1      = {np.round(b1.grad, 4)}")
print(f"token rows with a gradient: {np.flatnonzero(np.abs(embed[0].grad).sum(axis=1)).tolist()}")

# Spot-check one coordinate of dL/dW2 with a central difference.
i, j = 2, 1
h = 1e-6
wplus = W2.data.copy()
wplus[i, j] += h
wminus = W2.data.copy()
wminus[i, j] -= h
fd = (loss_with(Tensor(wplus)).item() - loss_with(Tensor(wminus)).item()) / (2 * h)
print(f"dL/dW2[{i},{j}]: autodiff {W2.grad[i, j]:.8f}  finite-diff {fd:.8f}")

# The tape is consumed by loss.backward(); reusing it is an error.
try:
    loss.backward()
except RuntimeError as e:
    print(f"second backward correctly refused: {e}")
