"""Pooling heads over the per-layer [CLS] trace, plus the classifier.

Three interchangeable heads, listed by name in ``HEADS``, map the ordered
trace {h^1 ... h^L} of classification-token states to one pooled vector o:

  * ``last``      — the canonical choice, o = h^L;
  * ``lstm``      — a unidirectional LSTM run over the trace in layer
                    order (abstract-to-specific), o = last hidden state;
  * ``attention`` — dot-product attention with a learned query q and
                    projection W_h: o = W_h^T softmax(q h^T) h.

Every trace entry is a B×H tensor. Each head holds ``params`` and the
decayed names among them (``decay``); its ``pool(trace)`` returns B×H.
The LSTM head is one fused ``tensor.lstm`` node; the attention head is one
fused ``tensor.layer_attention`` node, W_h included, whose scores are
plain dot products with no 1/sqrt(H) scaling.
A fully-connected layer, one fused ``tensor.linear`` node with its
dropout, then maps o to class logits; the softmax is part of the loss
(``tensor.softmax_cross_entropy``).
"""

from __future__ import annotations

import numpy as np

from . import tensor as T
from .tensor import Tensor
from .encoder import init_normal


class LastPoolHead:
    """Canonical pooling: the final layer's [CLS] state, unchanged; no parameters."""

    def __init__(self, H, rng):
        self.params, self.decay = {}, set()

    def pool(self, trace):
        if not trace:
            raise ValueError("pooling requires a nonempty trace")
        return trace[-1]


class LSTMPoolHead:
    """Single-layer LSTM over the trace; input and hidden size both H.

    Its parameters are the blocks ``tensor.lstm`` reads: ``lstm/W`` and
    ``lstm/U`` (H×4H) and ``lstm/b`` (4H), gates (i, f, g, o) in column order.
    """

    def __init__(self, H, rng):
        b = np.zeros(4 * H)
        b[H:2 * H] = 1.0   # forget gate starts open so early gradients reach the whole trace
        self.params = {
            "lstm/W": Tensor(init_normal(rng, (H, 4 * H))),
            "lstm/U": Tensor(init_normal(rng, (H, 4 * H))),
            "lstm/b": Tensor(b),
        }
        self.decay = {"lstm/W", "lstm/U"}

    def pool(self, trace):
        """Run the LSTM over the trace in layer order; return the last hidden state."""
        p = self.params
        return T.lstm(trace, p["lstm/W"], p["lstm/U"], p["lstm/b"])


class AttentionPoolHead:
    """Learned query q and square projection W_h; no bias terms."""

    def __init__(self, H, rng):
        self.params = {
            "attnpool/W_h": Tensor(init_normal(rng, (H, H))),
            "attnpool/q": Tensor(init_normal(rng, (H,))),
        }
        self.decay = {"attnpool/W_h", "attnpool/q"}

    def pool(self, trace, return_weights=False):
        """Softmax-weighted combination of the trace, projected by W_h."""
        p = self.params
        o, weights = T.layer_attention(trace, p["attnpool/q"], p["attnpool/W_h"])
        if return_weights:
            return o, Tensor(weights)
        return o


HEADS = {"last": LastPoolHead, "lstm": LSTMPoolHead, "attention": AttentionPoolHead}
HEAD_KINDS = tuple(HEADS)


class ClassifierHead:
    """Affine map to C class logits."""

    def __init__(self, H, C, rng):
        self.params = {
            "classifier/W_o": Tensor(init_normal(rng, (H, C))),
            "classifier/b_o": Tensor(np.zeros(C)),
        }
        self.decay = {"classifier/W_o"}


def classify(o, head: ClassifierHead, p_drop=0.0, rng=None, training=False):
    """Class logits W_o^T dropout(o) + b_o, shape B×C; dropout only with ``training``."""
    p = head.params
    return T.linear(o, p["classifier/W_o"], p["classifier/b_o"], p_drop if training else 0.0, rng)
