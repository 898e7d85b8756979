"""Tour of the tiny reverse-mode autodiff engine behind clspool.

Builds a small computation graph by hand from the ops a model runs (a
linear layer, a layer norm, a second linear layer and the cross-entropy
loss), runs backward(), and checks a gradient against a central finite
difference.
"""

import numpy as np

from clspool import tensor as T
from clspool.tensor import Tensor

rng = np.random.default_rng(0)

# A two-layer net on a fixed input, ending in a softmax cross-entropy loss.
x = Tensor(rng.normal(size=(4, 3)))
W1 = Tensor(rng.normal(size=(3, 5)), requires_grad=True)
b1 = Tensor(np.zeros(5), requires_grad=True)
gamma = Tensor(np.ones(5), requires_grad=True)
beta = Tensor(np.zeros(5), requires_grad=True)
W2 = Tensor(rng.normal(size=(5, 2)), requires_grad=True)
labels = np.array([0, 1, 1, 0])

hidden = T.layer_norm(T.add(T.matmul(x, W1), b1), gamma, beta)
logits = T.matmul(hidden, W2)
loss = T.softmax_cross_entropy(logits, labels)
print(f"loss = {loss.item():.6f}")

loss.backward()
print(f"dL/dW1 norm = {np.linalg.norm(W1.grad):.6f}")
print(f"dL/db1      = {np.round(b1.grad, 4)}")

# Spot-check one coordinate of dL/dW2 with a central difference.
i, j = 2, 1
h = 1e-6


def loss_at(w):
    W2_probe = Tensor(w)
    hid = T.layer_norm(T.add(T.matmul(x, W1), b1), gamma, beta)
    return T.softmax_cross_entropy(T.matmul(hid, W2_probe), labels).item()


wplus = W2.data.copy()
wplus[i, j] += h
wminus = W2.data.copy()
wminus[i, j] -= h
fd = (loss_at(wplus) - loss_at(wminus)) / (2 * h)
print(f"dL/dW2[{i},{j}]: autodiff {W2.grad[i, j]:.8f}  finite-diff {fd:.8f}")

# The tape is consumed by backward(); reusing it is an error.
try:
    loss.backward()
except RuntimeError as e:
    print(f"second backward correctly refused: {e}")
