"""A desk-scale BERT-shaped transformer encoder.

The encoder is a stack of post-layer-norm transformer blocks over
token + segment + learned-position embeddings. Its output is the hidden
state of the leading classification token ([CLS]) from *every* layer,
ordered from the embedding-adjacent layer up to the last one; downstream
pooling heads consume that trace. Nothing reads the other positions of
the last layer, so that block computes the [CLS] rows alone.

The embedding is one fused tape node and each block two (its attention
and its feed-forward sublayer), and the encoder carries only the valid
positions of a batch: the N positions its mask marks valid, as one N×H
matrix in example-major order, from the embedding to the last block.
Embeddings, projections, layer norms, the feed-forward network and
dropout run on those N rows alone. Only the attention inside the
attention sublayer scatters them into a padded (B, A, S', d_h) view,
S' the batch's longest pair (the trailing columns that no example uses
are cut first), so each example attends only to its own valid positions
and per-example results match running examples one at a time. Every
example's [CLS] column 0 must be valid; its row is the first of the
example's rows.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import tensor as T
from .data import MIN_S_MAX
from .rng import check_integer, check_number
from .tensor import ShapeError, Tensor

# Weight init scale. 0.02 (the usual BERT value) assumes pre-trained scale
# and stalls a from-scratch desk model: attention logits start so close to
# uniform that no head ever specializes within the training budget.
INIT_STD = 0.15


@dataclass
class EncoderConfig:
    """Architecture hyperparameters. Defaults train on a CPU in minutes."""

    L: int = 4          # layer count
    H: int = 32         # hidden size
    A: int = 4          # attention heads
    F: int = 64         # feed-forward inner size
    V: int = 100        # vocabulary size
    S_max: int = 64     # maximum packed sequence length
    p_drop: float = 0.1

    def __post_init__(self):
        for name in ("L", "H", "A", "F", "V", "S_max", "p_drop"):
            setattr(self, name, self.check_field(name, getattr(self, name)))
        if self.H % self.A != 0:
            raise ValueError(f"hidden size H={self.H} not divisible by head count A={self.A}")

    @staticmethod
    def check_field(name, value):
        """Return ``value`` as a Python number if it suits the field ``name`` on its own, or
        raise ValueError: ``p_drop`` a number, every other field an integer that numpy's int64
        holds (``rng``'s rules). So JSON-decoded checkpoint metadata needs no other check."""
        if name != "p_drop":
            value = check_integer(name, value, MIN_S_MAX if name == "S_max" else 1)
            if value > (high := np.iinfo(np.int64).max):
                raise ValueError(f"{name} must be <= {high}, got {value}")
        elif not 0.0 <= (value := check_number(name, value)) < 1.0:
            raise ValueError(f"dropout rate must be in [0, 1), got {value}")
        return value


def init_normal(rng, shape):
    """A weight of ``shape`` drawn from N(0, INIT_STD²), or with ``rng`` None
    zeros and no draw, for a model whose weights a checkpoint then sets."""
    return np.zeros(shape) if rng is None else rng.normal(0.0, INIT_STD, size=shape)


class MiniEncoder:
    """Multi-layer bidirectional transformer encoder with a CLS trace."""

    def __init__(self, config: EncoderConfig, rng):
        self.config = config
        self.params = {}
        self.decay = set()
        c = config

        self._weight("embed/token", init_normal(rng, (c.V, c.H)), decay=False)
        self._weight("embed/segment", init_normal(rng, (2, c.H)), decay=False)
        self._weight("embed/position", init_normal(rng, (c.S_max, c.H)), decay=False)
        self._weight("embed/ln_g", np.ones(c.H), decay=False)
        self._weight("embed/ln_b", np.zeros(c.H), decay=False)

        for i in range(c.L):
            p = f"layer{i}"
            # Four H×H draws, Wq, Wk, Wv, Wo; the first three, joined by
            # column, are the one Q | K | V block the attention reads.
            draws = [init_normal(rng, (c.H, c.H)) for _ in range(4)]
            self._weight(f"{p}/attn/Wqkv", np.concatenate(draws[:3], axis=1), decay=True)
            self._weight(f"{p}/attn/bqkv", np.zeros(3 * c.H), decay=False)
            self._weight(f"{p}/attn/Wo", draws[3], decay=True)
            self._weight(f"{p}/attn/bo", np.zeros(c.H), decay=False)
            self._weight(f"{p}/ln1_g", np.ones(c.H), decay=False)
            self._weight(f"{p}/ln1_b", np.zeros(c.H), decay=False)
            self._weight(f"{p}/ffn/W1", init_normal(rng, (c.H, c.F)), decay=True)
            self._weight(f"{p}/ffn/b1", np.zeros(c.F), decay=False)
            self._weight(f"{p}/ffn/W2", init_normal(rng, (c.F, c.H)), decay=True)
            self._weight(f"{p}/ffn/b2", np.zeros(c.H), decay=False)
            self._weight(f"{p}/ln2_g", np.ones(c.H), decay=False)
            self._weight(f"{p}/ln2_b", np.zeros(c.H), decay=False)

    def _weight(self, name, array, decay):
        self.params[name] = Tensor(array)
        if decay:
            self.decay.add(name)

    # -- forward ------------------------------------------------------------

    def forward_batch(self, token_ids, segment_ids, mask, training=False, rng=None):
        """Encode a batch; returns (B×H last-layer [CLS] states, trace).

        The trace is a list of L B×H tensors, the [CLS] row of each layer,
        embedding-adjacent layer first; the first element of the pair is
        ``trace[-1]``. No caller reads the other positions of the last
        layer, so its block computes the [CLS] rows alone: only its keys
        and values cover every position.

        ``token_ids``, ``segment_ids`` and ``mask`` are integer arrays of
        shape (B, S); all sequences in a batch share the padded length S.
        Every row of ``mask`` needs a valid (1) [CLS] column 0; an empty
        batch (B = 0), or a row with no valid position or with column 0
        masked, raises ValueError. The encoder carries only the N valid
        positions, as one N×H matrix in example-major order, each example's
        [CLS] row first; only the attention sublayer lays them out padded.
        The columns after the last one that any row marks valid are cut
        first, so that layout has the batch's own longest length S', and an
        S' above ``S_max`` raises ValueError. The embedding is one fused
        node, ``T.embedding_sublayer``, and each block two,
        ``T.attention_sublayer`` and ``T.ffn_sublayer``, looked up on the module.
        Dropout draws from ``rng`` at rate ``p_drop`` with ``training``, else at 0.
        """
        c = self.config
        B, S = token_ids.shape
        if mask.shape != (B, S):
            raise ShapeError(f"mask shape {mask.shape} does not match token_ids shape {(B, S)}")
        if B == 0:
            raise ValueError("empty batch: no examples to encode")
        valid = mask == 1
        empty = np.flatnonzero(~valid.any(axis=1))
        if empty.size:
            raise ValueError(f"mask rows {empty.tolist()} have no valid position")
        no_cls = np.flatnonzero(~valid[:, 0])
        if no_cls.size:
            raise ValueError(f"mask rows {no_cls.tolist()} do not mark the [CLS] column 0 valid")
        valid = valid[:, :int(np.flatnonzero(valid.any(axis=0))[-1]) + 1]
        if valid.shape[1] > c.S_max:
            raise ValueError(f"sequence length {valid.shape[1]} exceeds S_max={c.S_max}")
        rows, cols = np.nonzero(valid)
        embed = [self.params[f"embed/{name}"]
                 for name in ("token", "segment", "position", "ln_g", "ln_b")]
        ids = np.stack([token_ids[rows, cols], segment_ids[rows, cols], cols], axis=1)
        p = c.p_drop if training else 0.0
        x = T.embedding_sublayer(ids, embed, p, rng)

        trace = []
        cls_rows = np.flatnonzero(cols == 0)
        for i in range(c.L - 1):
            x = self._block(x, valid, i, p, rng)
            trace.append(T.gather_rows(x, cls_rows))
        cls = self._block(x, valid, c.L - 1, p, rng, cls_only=True)
        trace.append(cls)
        return cls, trace

    def _block(self, x, mask, i, p_drop, rng, cls_only=False):
        """Block ``i``: two fused tape nodes, the attention and the feed-forward sublayer.

        ``x`` holds the valid positions of the (B, S) ``mask``, one row
        each; keys and values come from every row of ``x``. The output
        has a row for each row of ``x``, or with ``cls_only`` only for
        each example's [CLS] row, its first. Dropout at rate ``p_drop`` draws
        for the attention output first, then for the feed-forward output.
        """
        c = self.config
        p = self.params
        pre = f"layer{i}"
        attn = [p[f"{pre}/{name}"] for name in ("attn/Wqkv", "attn/bqkv", "attn/Wo", "attn/bo",
                                                "ln1_g", "ln1_b")]
        x, _ = T.attention_sublayer(x, attn, mask, c.A, cls_only, p_drop, rng)
        ffn = [p[f"{pre}/{name}"] for name in ("ffn/W1", "ffn/b1", "ffn/W2", "ffn/b2",
                                               "ln2_g", "ln2_b")]
        return T.ffn_sublayer(x, ffn, p_drop, rng)
