"""Compare the ways of pooling the per-layer [CLS] states.

Runs a randomly initialized encoder on a batch of one packed sentence
pair, prints the layer-by-layer [CLS] trace, and shows what each head in
``clspool.pooling.HEADS`` makes of it — including the attention head's
layer weights.
"""

import numpy as np

from clspool import rng as R
from clspool.encoder import EncoderConfig, MiniEncoder
from clspool.pooling import HEADS

cfg = EncoderConfig(L=4, H=8, A=2, F=12, V=16, S_max=12, p_drop=0.1)
enc = MiniEncoder(cfg, R.rng_for(0, R.INIT))

# [CLS] w5 w9 [SEP] w7 [SEP]  — a two-segment input, as a batch of one
_, trace = enc.forward_batch(np.array([[2, 5, 9, 3, 7, 3]]),
                             np.array([[0, 0, 0, 0, 1, 1]]),
                             np.ones((1, 6), dtype=int))

print(f"trace of {len(trace)} per-layer [CLS] states (each 1×{cfg.H}):")
for i, h in enumerate(trace):
    print(f"  layer {i + 1}: {np.round(h.data[0], 3)}")

# Every head in the HEADS table, each from its own init stream; every head's
# pool(trace) maps the trace to one 1×H vector.
heads = {kind: make(cfg.H, R.rng_for(0, R.INIT, i))
         for i, (kind, make) in enumerate(HEADS.items())}
print("\nwhat each head pools the trace to (`last` is the plain baseline):")
for kind, head in heads.items():
    print(f"  {kind:>9}: {np.round(head.pool(trace).data[0], 3)}")

_, w = heads["attention"].pool(trace, return_weights=True)
print("\nthe attention head's softmax weights over layers:")
print("  ", np.round(w.data.ravel(), 3), " (sum =", w.data.sum(), ")")

# Order matters for the LSTM head (and picks another layer for `last`), but
# not for the attention head.
reversed_trace = trace[::-1]
print()
for kind, head in heads.items():
    moved = np.abs(head.pool(trace).data - head.pool(reversed_trace).data).max()
    print(f"reversing the trace moves the {kind} output by {moved:.2e}")
