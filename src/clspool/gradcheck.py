"""Central finite-difference verification of every parameterized operation.

For each scenario a small random model is built, the analytic gradient of
its scalar loss is computed by ``loss.backward()``, and sampled parameter
coordinates are re-checked against (f(x+h) - f(x-h)) / 2h at 64-bit.
The relative error measure is |a - fd| / max(1, |a|, |fd|).

The check needs 64 bits: with h = 1e-5 the two losses differ by about
1e-5·|f'|, and float32's rounding of a loss near 1, about 6e-8, would
put an error of order 1e-2 into the difference quotient, far above the 1e-4
tolerance. So every scenario's parameters are float64, the desk model's
cast from the float32 it trains in, and the ops follow their data.
"""

from __future__ import annotations

import math
from functools import partial

import numpy as np

from . import rng as rng_mod
from . import tensor as T
from .encoder import EncoderConfig
from .model import PooledClassifier
from .pooling import HEAD_KINDS
from .train import regularized_loss

FD_STEP = 1e-5
REL_TOL = 1e-4
COORD_BLOCK = 12   # entries per ``coords_per_param`` sampled coordinates


def finite_diff(loss_fn, param, index):
    """Central difference, at step ``FD_STEP``, of loss_fn w.r.t. one coordinate of a parameter."""
    flat = param.data.reshape(-1)
    orig = flat[index]
    flat[index] = orig + FD_STEP
    up = loss_fn().item()
    flat[index] = orig - FD_STEP
    down = loss_fn().item()
    flat[index] = orig
    return (up - down) / (2 * FD_STEP)


def rel_error(a, b):
    return abs(a - b) / max(1.0, abs(a), abs(b))


def check_gradients(loss_fn, params, rng, coords_per_param=2):
    """Max relative error between analytic and finite-difference gradients.

    From each tensor it samples ``coords_per_param`` distinct coordinates
    for every ``COORD_BLOCK`` entries or part of them (all of them if that
    is more), so the sample grows with the tensor: several tensors joined
    into one are sampled about as densely as they were apart. ``loss_fn``
    must rebuild the graph from the parameters' current data on every call
    (one tape per forward pass).
    """
    loss = loss_fn()
    loss.backward()
    grads = {name: p.grad.copy() for name, p in params.items()}
    worst = 0.0
    for name, p in params.items():
        size = p.data.size
        k = min(coords_per_param * math.ceil(size / COORD_BLOCK), size)
        for index in rng.choice(size, size=k, replace=False):
            fd = finite_diff(loss_fn, p, int(index))
            analytic = grads[name].reshape(-1)[int(index)]
            worst = max(worst, rel_error(analytic, fd))
        p.grad = None
    return worst


# ---------------------------------------------------------------------------
# scenarios


def _composite_graph_scenario(seed):
    """Random 5-parameter composite graph of the runtime's plain ops: a gather of
    repeated rows, a linear layer, a linear layer with dropout 0.3, and the
    cross-entropy with an L2 term at c=0.1."""
    rng = rng_mod.rng_for(seed, 90)
    params = {
        "E": T.Tensor(rng.normal(size=(3, 3))),
        "W1": T.Tensor(rng.normal(size=(3, 4))),
        "b1": T.Tensor(rng.normal(size=4)),
        "W2": T.Tensor(rng.normal(size=(4, 2))),
        "b2": T.Tensor(rng.normal(size=2)),
    }
    labels = rng.integers(2, size=5)

    def loss_fn():
        h = T.linear(T.gather_rows(params["E"], [2, 0, 2, 1, 2]), params["W1"], params["b1"])
        # A fresh generator per call: every finite-difference pass draws the same mask.
        logits = T.linear(h, params["W2"], params["b2"], 0.3, rng_mod.rng_for(seed, 96))
        return T.softmax_cross_entropy(logits, labels,
                                       [params["W1"], params["E"], params["W2"]], 0.1)

    return loss_fn, params


# Pads two different examples by different amounts (B=3, S=5).
ATTENTION_MASK = np.array([[1, 1, 1, 0, 0],
                           [1, 1, 1, 1, 1],
                           [1, 1, 1, 1, 0]])


def _op_scenario(stream, shapes, op):
    """``op`` (params dict, dropout generator -> N×H tensor) alone: inputs drawn
    from ``stream`` in ``shapes`` order, then a fixed random H×3 matrix R and
    N fixed random labels; the loss is the cross-entropy of linear(output,
    R, 0). Every output entry gets a dense gradient whose rows do not sum to
    zero. Each call gets a fresh dropout generator, so every
    finite-difference pass draws the same dropout mask."""
    def build(seed):
        rng = rng_mod.rng_for(seed, stream)
        params = {name: T.Tensor(rng.normal(size=shape)) for name, shape in shapes.items()}

        def output():
            return op(params, rng_mod.rng_for(seed, 96))

        n, width = output().shape
        R, zero = T.Tensor(rng.normal(size=(width, 3))), T.Tensor(np.zeros(3))
        labels = rng.integers(3, size=n)

        def loss_fn():
            return T.softmax_cross_entropy(T.linear(output(), R, zero), labels)

        return loss_fn, params

    return build


def _attention_sublayer_scenario(stream, cls_only):
    """The attention sublayer at the 12 valid positions of ``ATTENTION_MASK``,
    H=6 in A=2 heads, dropout 0.3 on; x and all six weights."""
    names = ("Wqkv", "bqkv", "Wo", "bo", "gamma", "beta")
    shapes = {"x": (ATTENTION_MASK.sum(), 6), "Wqkv": (6, 18), "bqkv": (18,), "Wo": (6, 6),
              "bo": (6,), "gamma": (6,), "beta": (6,)}
    return _op_scenario(stream, shapes, lambda p, drop: T.attention_sublayer(
        p["x"], [p[name] for name in names], ATTENTION_MASK, 2, cls_only, 0.3, drop)[0])


def _model_scenario(seed, pooling):
    """Full desk model, tiny config: encoder blocks + head + classifier + L2,
    its parameters cast to float64."""
    config = EncoderConfig(L=2, H=8, A=2, F=12, V=12, S_max=8, p_drop=0.0)
    model = PooledClassifier(config, pooling, 3, rng_mod.rng_for(seed, 91))
    for p in model.parameters().values():
        p.data = p.data.astype(np.float64)
    rng = rng_mod.rng_for(seed, 92)
    B, S = 2, 6
    tok = rng.integers(4, 12, size=(B, S))
    tok[:, 0] = 2
    seg = np.zeros((B, S), dtype=int)
    seg[:, S // 2:] = 1
    mask = np.ones((B, S), dtype=int)
    mask[0, -1] = 0
    mask[1, -2:] = 0
    labels = rng.integers(3, size=B)
    params = model.parameters()
    decay = model.decay_names()

    def loss_fn():
        logits = model.forward_batch(tok, seg, mask)
        return regularized_loss(logits, labels, params, decay, lam=1e-5)

    return loss_fn, params


SCENARIOS = {
    "composite_graph": _composite_graph_scenario,
    # The embedding sublayer: 7 rows of (token, segment, position) ids, each
    # id repeated, over tables of 5, 2 and 4 rows, H=6, dropout 0.3 on.
    "fused_embedding_sublayer": _op_scenario(
        89, {"token": (5, 6), "segment": (2, 6), "position": (4, 6), "gamma": (6,), "beta": (6,)},
        lambda p, drop: T.embedding_sublayer(
            [[0, 0, 0], [3, 0, 1], [3, 1, 2], [1, 1, 3], [0, 0, 0], [4, 1, 1], [3, 1, 2]],
            list(p.values()), 0.3, drop)),
    # The attention sublayer with one query per valid position, and with one
    # per example (the last block's [CLS] rows).
    "fused_attention_sublayer": _attention_sublayer_scenario(94, cls_only=False),
    "fused_cls_attention_sublayer": _attention_sublayer_scenario(98, cls_only=True),
    # The feed-forward sublayer: 4 rows, H=6, F=8, dropout 0.3 on; x and all six weights.
    "fused_ffn_sublayer": _op_scenario(
        99, {"x": (4, 6), "W1": (6, 8), "b1": (8,), "W2": (8, 6), "b2": (6,),
             "gamma": (6,), "beta": (6,)},
        lambda p, drop: T.ffn_sublayer(
            p["x"], [p[name] for name in ("W1", "b1", "W2", "b2", "gamma", "beta")], 0.3, drop)),
    # Fused LSTM: 3 steps of B=3 rows, H=4; the rows and the three gate blocks.
    "fused_lstm": _op_scenario(
        95, {**{f"x{t}": (3, 4) for t in range(3)}, "W": (4, 16), "U": (4, 16), "b": (16,)},
        lambda p, _: T.lstm([p[f"x{t}"] for t in range(3)], p["W"], p["U"], p["b"])),
    # Fused layer attention: L=3 layers of B=3 rows, H=4; the rows, the query and W.
    "fused_layer_attention": _op_scenario(
        97, {**{f"x{l}": (3, 4) for l in range(3)}, "q": (4,), "W": (4, 4)},
        lambda p, _: T.layer_attention([p[f"x{l}"] for l in range(3)], p["q"], p["W"])[0]),
    **{f"encoder_{kind}_pool": partial(_model_scenario, pooling=kind) for kind in HEAD_KINDS},
}


def run_gradcheck(seeds=20, coords_per_param=2, report=None):
    """Run every scenario over the given number of seeds.

    Returns (all_passed, results) where results maps scenario name to the
    worst relative error observed; a scenario passes below ``REL_TOL``.
    ``seeds`` that is not an integer, or below 1 (which checks nothing),
    raises ValueError.
    """
    seeds = rng_mod.check_integer("seeds", seeds, 1)
    results = {}
    for name, build in SCENARIOS.items():
        worst = 0.0
        for seed in range(seeds):
            loss_fn, params = build(seed)
            coord_rng = rng_mod.rng_for(seed, 93)
            worst = max(worst, check_gradients(loss_fn, params, coord_rng,
                                               coords_per_param=coords_per_param))
        results[name] = worst
        if report is not None:
            status = "ok" if worst < REL_TOL else "FAIL"
            report(f"{name}: max rel err {worst:.3e} [{status}]")
    return all(v < REL_TOL for v in results.values()), results
