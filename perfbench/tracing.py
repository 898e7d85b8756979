"""Spans around the calls into each clspool module, recorded from outside.

The benchmark traces the program without changing it: ``instrumented``
swaps each public function or method listed in ``TRACED`` for a wrapper
that opens a span, and puts the original back on exit. Training steps are
driven by ``traced_fit``, which makes the same calls as
``clspool.train.train_model`` one layer at a time, so every part of a step
gets its own span and the losses stay bit-identical.

A span is ``[name, start, end, parent index, step id]``; spans are kept in
memory and summarised (or written out) when the run ends.
"""

from __future__ import annotations

import functools
import time
from contextlib import contextmanager

import numpy as np

from clspool import analysis, data, pooling, train
from clspool.encoder import MiniEncoder
from clspool.model import PooledClassifier
from clspool.tensor import Tensor

# (owner, attribute, span name). The span name's prefix is the layer.
TRACED = (
    (data, "load_jsonl", "data.load"),
    (data, "vocab_for_examples", "data.vocab"),
    (data, "pack_dataset", "data.pack"),
    (PooledClassifier, "__init__", "model.init"),
    (PooledClassifier, "predict", "model.predict"),
    (PooledClassifier, "pool", "pooling.pool"),
    (PooledClassifier, "save", "checkpoint.save"),
    (PooledClassifier, "load", "checkpoint.load"),
    (MiniEncoder, "forward_batch", "encoder.forward"),
    (pooling, "classify", "pooling.classify"),
    (train, "regularized_loss", "train.loss"),
    (train, "kfold_split", "train.kfold"),
    (train.Adam, "step", "train.adam"),
    (Tensor, "backward", "tensor.backward"),
    (analysis, "dump_trace", "analysis.dump"),
    (analysis, "project_dump_dir", "analysis.project"),
)

HARNESS = "harness."  # spans of the benchmark's own bookkeeping


class Tracer:
    def __init__(self):
        self.spans = []
        self.tape = []     # (nodes, bytes) per training step
        self.losses = []   # loss per training step
        self._open = []
        self._step = None
        self._steps = 0

    @contextmanager
    def span(self, name):
        rec = [name, time.perf_counter(), None,
               self._open[-1] if self._open else None, self._step]
        self._open.append(len(self.spans))
        self.spans.append(rec)
        try:
            yield
        finally:
            rec[2] = time.perf_counter()
            self._open.pop()

    @contextmanager
    def step(self):
        self._step = self._steps
        self._steps += 1
        try:
            with self.span("train.step"):
                yield
        finally:
            self._step = None

    def wrap(self, fn, name):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            with self.span(name):
                return fn(*args, **kwargs)
        return traced

    def count_tape(self, loss):
        """Nodes reachable from ``loss`` and the bytes of their arrays."""
        with self.span(HARNESS + "tape"):
            seen = {id(loss)}
            stack = [loss]
            nbytes = 0
            while stack:
                node = stack.pop()
                nbytes += node.data.nbytes
                for p in node._parents:
                    if id(p) not in seen:
                        seen.add(id(p))
                        stack.append(p)
            self.tape.append((len(seen), nbytes))


@contextmanager
def patched(replacements):
    """Set ``owner.attr = value`` for each triple; restore the originals on exit."""
    saved = [(owner, attr, owner.__dict__[attr]) for owner, attr, _ in replacements]
    try:
        for owner, attr, value in replacements:
            setattr(owner, attr, value)
        yield
    finally:
        for owner, attr, original in reversed(saved):
            setattr(owner, attr, original)


def instrumented(tracer):
    """Replacements that wrap every ``TRACED`` callable in a span."""
    out = []
    for owner, attr, name in TRACED:
        raw = owner.__dict__[attr]
        if isinstance(raw, classmethod):
            out.append((owner, attr, classmethod(tracer.wrap(raw.__func__, name))))
        else:
            out.append((owner, attr, tracer.wrap(raw, name)))
    return out


def traced_fit(tracer):
    """``train_model`` with each step driven through the layer calls themselves.

    The calls and their order match ``PooledClassifier.forward_batch`` and
    ``clspool.train.train_model``, so losses and parameters are bit-identical.
    """
    def fit(model, arrays, config, shuffle_rng, dropout_rng, epoch_hook=None):
        tok, seg, mask, labels = arrays
        n = len(labels)
        params = model.parameters()
        decay = model.decay_names()
        opt = train.Adam(params, lr=config.lr)
        epoch_losses = []
        for epoch in range(1, config.epochs + 1):
            order = shuffle_rng.permutation(n)
            losses = []
            for lo in range(0, n, config.batch_size):
                batch = order[lo:lo + config.batch_size]
                with tracer.step():
                    _, trace = model.encoder.forward_batch(
                        tok[batch], seg[batch], mask[batch], training=True, rng=dropout_rng)
                    o = model.pool(trace)
                    probs = pooling.classify(o, model.classifier, p_drop=model.config.p_drop,
                                             rng=dropout_rng, training=True)
                    loss = train.regularized_loss(probs, labels[batch], params, decay,
                                                  config.lam)
                    tracer.count_tape(loss)
                    opt.zero_grad()
                    loss.backward()
                    opt.step()
                    losses.append(loss.item())
                tracer.losses.append(losses[-1])
            epoch_losses.append(float(np.mean(losses)))
            if epoch_hook is not None:
                epoch_hook(epoch, model)
        return epoch_losses
    return fit


# ---------------------------------------------------------------------------
# summaries


def durations_ms(spans, name, parent=None):
    """Durations of the spans called ``name`` (under a ``parent`` span, if given)."""
    return [(s[2] - s[1]) * 1e3 for s in spans
            if s[0] == name and (parent is None
                                 or (s[3] is not None and spans[s[3]][0] == parent))]


def self_times(spans):
    """Self ms (duration minus children) per layer, and calls/total/self ms per span name."""
    child_ms = [0.0] * len(spans)
    for s in spans:
        if s[3] is not None:
            child_ms[s[3]] += (s[2] - s[1]) * 1e3
    layers, names = {}, {}
    for s, inner in zip(spans, child_ms):
        total = (s[2] - s[1]) * 1e3
        layer = s[0].split(".")[0]
        layers[layer] = layers.get(layer, 0.0) + total - inner
        row = names.setdefault(s[0], {"calls": 0, "total_ms": 0.0, "self_ms": 0.0})
        row["calls"] += 1
        row["total_ms"] += total
        row["self_ms"] += total - inner
    return {"layers_self_ms": layers, "spans": names}


def step_coverage(spans):
    """Per training step, the share of its time that its layer spans cover.

    The harness's own bookkeeping spans are taken out of both sides.
    """
    covered = {}
    harness = {}
    for s in spans:
        if s[3] is not None and spans[s[3]][0] == "train.step":
            bucket = harness if s[0].startswith(HARNESS) else covered
            bucket[s[3]] = bucket.get(s[3], 0.0) + s[2] - s[1]
    return [covered.get(i, 0.0) / (s[2] - s[1] - harness.get(i, 0.0))
            for i, s in enumerate(spans) if s[0] == "train.step"]
