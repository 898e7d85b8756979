"""Compare the three ways of pooling the per-layer [CLS] states.

Runs a randomly initialized encoder on a batch of one packed sentence
pair, prints the layer-by-layer [CLS] trace, and shows what each pooling
head makes of it — including the attention head's layer weights.
"""

import numpy as np

from clspool import rng as R
from clspool.encoder import EncoderConfig, MiniEncoder
from clspool.pooling import (AttentionPoolHead, LSTMPoolHead, attention_pool,
                             last_cls_pool, lstm_pool)

cfg = EncoderConfig(L=4, H=8, A=2, F=12, V=16, S_max=12, p_drop=0.1)
enc = MiniEncoder(cfg, R.rng_for(0, R.INIT))

# [CLS] w5 w9 [SEP] w7 [SEP]  — a two-segment input, as a batch of one
_, trace = enc.forward_batch(np.array([[2, 5, 9, 3, 7, 3]]),
                             np.array([[0, 0, 0, 0, 1, 1]]),
                             np.ones((1, 6), dtype=int))

print(f"trace of {len(trace)} per-layer [CLS] states (each 1×{cfg.H}):")
for i, h in enumerate(trace):
    print(f"  layer {i + 1}: {np.round(h.data[0], 3)}")

print("\nlast-layer pooling (the plain baseline):")
print(" ", np.round(last_cls_pool(trace).data[0], 3))

lstm_head = LSTMPoolHead(cfg.H, R.rng_for(0, R.INIT, 1))
print("\nLSTM pooling (reads the trace in layer order):")
print(" ", np.round(lstm_pool(trace, lstm_head).data[0], 3))

attn_head = AttentionPoolHead(cfg.H, R.rng_for(0, R.INIT, 2))
o, w = attention_pool(trace, attn_head, return_weights=True)
print("\nattention pooling (softmax weights over layers):")
print("  weights:", np.round(w.data.ravel(), 3), " (sum =", w.data.sum(), ")")
print("  output: ", np.round(o.data[0], 3))

# Order matters for the LSTM head but not for the attention head.
reversed_trace = trace[::-1]
d_lstm = np.abs(lstm_pool(trace, lstm_head).data
                - lstm_pool(reversed_trace, lstm_head).data).max()
d_attn = np.abs(attention_pool(trace, attn_head).data
                - attention_pool(reversed_trace, attn_head).data).max()
print(f"\nreversing the trace moves lstm output by {d_lstm:.4f}, "
      f"attention output by {d_attn:.2e}")
