"""Encoder + pooling head + classifier bundled into one trainable model."""

from __future__ import annotations

from dataclasses import fields

import numpy as np

from . import tensor as T
from .data import RESERVED, SCHEMAS
from .encoder import EncoderConfig, MiniEncoder
from .pooling import HEAD_KINDS, HEADS, ClassifierHead, classify
from .rng import check_integer
from .checkpoint import load_checkpoint, save_checkpoint


class NonFiniteLogitsError(ValueError):
    """``predict`` met non-finite logits; ``row`` is the first such row of the batch."""

    def __init__(self, logits, row):
        super().__init__(f"non-finite logits {logits} in row {row}")
        self.row = row


class PooledClassifier:
    """A classifier over the per-layer [CLS] trace of a MiniEncoder, in float32."""

    def __init__(self, config: EncoderConfig, pooling_kind: str, n_classes: int, rng):
        """A model drawn from ``rng``; with ``rng`` None, one whose weights are
        zeros, drawn from nothing, for ``load`` to set. ``n_classes`` is an integer >= 1."""
        if pooling_kind not in HEAD_KINDS:
            raise ValueError(f"unknown pooling kind {pooling_kind!r}, expected one of {HEAD_KINDS}")
        self.config = config
        self.pooling_kind = pooling_kind
        self.n_classes = check_integer("n_classes", n_classes, 1)
        # One child stream each, so every head starts from the same encoder
        # and classifier: the design is paired in everything but the head.
        enc_rng, head_rng, cls_rng = (None,) * 3 if rng is None else rng.spawn(3)
        self.encoder = MiniEncoder(config, enc_rng)
        self.pool_head = HEADS[pooling_kind](config.H, head_rng)
        self.classifier = ClassifierHead(config.H, self.n_classes, cls_rng)
        # The model runs in single precision: every parameter is drawn in
        # float64, as the parts draw it, and rounded to float32 once, here.
        for p in self.parameters().values():
            p.data = p.data.astype(np.float32)

    # -- parameters -----------------------------------------------------------

    def parameters(self):
        return {**self.encoder.params, **self.pool_head.params, **self.classifier.params}

    def decay_names(self):
        return self.encoder.decay | self.pool_head.decay | self.classifier.decay

    # -- forward ----------------------------------------------------------------

    def pool(self, trace):
        return self.pool_head.pool(trace)

    def forward_batch(self, token_ids, segment_ids, mask, training=False, rng=None):
        """Class logits, shape B×C."""
        _, trace = self.encoder.forward_batch(token_ids, segment_ids, mask, training, rng)
        return classify(self.pool(trace), self.classifier, self.config.p_drop, rng, training)

    def trace_batch(self, token_ids, segment_ids, mask):
        """Eval-mode CLS trace for a batch, as plain arrays (one B×H per layer).

        The forward runs in ``T.no_grad()``, so it keeps no tape.
        """
        with T.no_grad():
            _, trace = self.encoder.forward_batch(token_ids, segment_ids, mask)
        return [v.data for v in trace]

    def predict(self, token_ids, segment_ids, mask):
        """Eval-mode hard labels (argmax ties break low).

        The forward runs in ``T.no_grad()``, so it keeps no tape. Non-finite
        logits raise ``NonFiniteLogitsError`` naming the first such row.
        """
        with T.no_grad():
            logits = self.forward_batch(token_ids, segment_ids, mask).data
        bad = np.flatnonzero(~np.isfinite(logits).all(axis=1))
        if bad.size:
            raise NonFiniteLogitsError(logits[bad[0]], bad[0])
        return np.argmax(logits, axis=1)

    # -- persistence -----------------------------------------------------------

    def save(self, path, extra_meta=None):
        meta = {
            "encoder": {f.name: getattr(self.config, f.name) for f in fields(EncoderConfig)},
            "pooling": self.pooling_kind,
            "n_classes": self.n_classes,
            **(extra_meta or {}),
        }
        save_checkpoint(path, meta, {k: v.data for k, v in self.parameters().items()})

    @classmethod
    def load(cls, path):
        """The model saved at ``path`` and its metadata, with the checked
        ``schema`` filled in. The metadata's sizes are checked against the
        blobs before the model is built, so it allocates nothing the file
        does not hold, and the model is built without a draw."""
        meta, blobs = load_checkpoint(path)
        config, schema = _config_from_meta(meta)
        _check_sizes(meta, blobs)
        model = cls(config, meta["pooling"], meta["n_classes"], None)
        params = model.parameters()
        missing = set(params) - set(blobs)
        extra = set(blobs) - set(params)
        if missing or extra:
            raise ValueError(f"checkpoint parameter mismatch: missing={sorted(missing)}, "
                             f"unexpected={sorted(extra)}")
        for name, arr in blobs.items():
            if params[name].data.shape != arr.shape:
                raise ValueError(f"checkpoint shape mismatch for {name}: "
                                 f"{arr.shape} vs {params[name].data.shape}")
            params[name].data = arr
        return model, {**meta, "schema": schema}


# The metadata keys that size the model, each with the blob and axis that hold it.
_BLOB_SIZES = {"encoder.V": ("embed/token", 0), "encoder.H": ("embed/token", 1),
               "encoder.S_max": ("embed/position", 0), "encoder.F": ("layer0/ffn/W1", 1),
               "n_classes": ("classifier/W_o", 1)}


def _check_sizes(meta, blobs):
    """Raise ValueError naming the first metadata key that sizes the model
    and disagrees with the parameter blobs, so that the model is never
    built at a size the file does not hold."""
    enc = meta["encoder"]
    layers = len({name.split("/")[0] for name in blobs if name.startswith("layer")})
    if enc["L"] != layers:
        raise ValueError(f"checkpoint parameter mismatch: metadata 'encoder.L' is {enc['L']}, "
                         f"but the parameters hold {layers} layers")
    for key, (name, axis) in _BLOB_SIZES.items():
        size = meta["n_classes"] if key == "n_classes" else enc[key.split(".")[1]]
        shape = blobs[name].shape if name in blobs else None
        if shape is None or len(shape) != 2 or shape[axis] != size:
            found = "is missing" if shape is None else f"has shape {shape}"
            raise ValueError(f"checkpoint parameter mismatch: metadata {key!r} is {size}, "
                             f"but parameter {name!r} {found}")


def _config_from_meta(meta):
    """Check the checkpoint metadata that the model and ``eval`` read.

    Returns its EncoderConfig and its schema, ``"absa"`` when the key is
    absent. A ``vocab``, when present, must hold exactly V - 4 distinct
    tokens, none of them reserved, so that every id it gives is a row of
    the embedding. Every fault raises a ValueError that names the key.
    """
    enc = meta.get("encoder")
    if not isinstance(enc, dict):
        raise ValueError(f"checkpoint metadata 'encoder' must be an object, got {enc!r}")
    names = {f.name for f in fields(EncoderConfig)}
    if set(enc) != names:
        raise ValueError(f"checkpoint metadata 'encoder' has missing keys "
                         f"{sorted(names - set(enc))} and unknown keys {sorted(set(enc) - names)}")
    try:
        config = EncoderConfig(**enc)
    except ValueError as e:
        raise ValueError(f"checkpoint metadata 'encoder': {e}") from None
    if meta.get("pooling") not in HEAD_KINDS:
        raise ValueError(f"checkpoint metadata 'pooling' must be one of {HEAD_KINDS}, "
                         f"got {meta.get('pooling')!r}")
    check_integer("checkpoint metadata 'n_classes'", meta.get("n_classes"), 1)
    schema = meta.get("schema", "absa")
    if not isinstance(schema, str) or schema not in SCHEMAS:
        raise ValueError(f"checkpoint metadata 'schema' must be one of {sorted(SCHEMAS)}, "
                         f"got {schema!r}")
    if "vocab" in meta:
        vocab = meta["vocab"]
        if not isinstance(vocab, list) or not all(isinstance(t, str) for t in vocab):
            raise ValueError("checkpoint metadata 'vocab' must be a list of strings")
        words = config.V - len(RESERVED)
        fit = len(set(vocab) - RESERVED.keys())
        if len(vocab) != words or fit != words:
            raise ValueError(f"checkpoint metadata 'vocab' must hold V - {len(RESERVED)} = "
                             f"{words} distinct unreserved tokens, got {len(vocab)} tokens "
                             f"of which {fit} are distinct and unreserved")
    return config, schema
