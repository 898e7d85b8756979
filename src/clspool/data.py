"""Dataset ingestion, tokenization, pair packing, and synthetic task generation.

Tokenization is lowercased whitespace splitting (subword schemes are out of
scope). Sentence pairs are packed in the BERT convention:

    [CLS] a_1 ... a_n [SEP] b_1 ... b_m [SEP] [PAD] ...

with segment 0 over [CLS], a, and the first [SEP]; segment 1 over b and the
second [SEP]; mask 0 on padding.

A dataset is packed in one batched pass: one Python loop tokenizes every
side into a flat id stream, and the token, segment and mask arrays are
built from the side lengths with array ops, about 2–4 µs a pair.
"""

from __future__ import annotations

import json
from collections import Counter
from dataclasses import dataclass

import numpy as np

from . import rng as rng_mod
from .checkpoint import atomic_write_bytes

PAD_ID, UNK_ID, CLS_ID, SEP_ID = 0, 1, 2, 3
RESERVED = {"[PAD]": PAD_ID, "[UNK]": UNK_ID, "[CLS]": CLS_ID, "[SEP]": SEP_ID}
MIN_S_MAX = 4   # the shortest packed pair: [CLS] tok [SEP] [SEP]

ABSA_LABELS = {"negative": 0, "neutral": 1, "positive": 2}
NLI_LABELS = {"contradiction": 0, "neutral": 1, "entailment": 2}
SCHEMAS = {
    "absa": (("text", "aspect"), ABSA_LABELS),
    "nli": (("premise", "hypothesis"), NLI_LABELS),
}


class DataError(ValueError):
    """Malformed input data (bad label, missing field, broken JSON line)."""


@dataclass
class PairExample:
    text_a: str
    text_b: str
    label: int


def tokenize(text):
    return text.lower().split()


class Vocab:
    """Dense token→id map with fixed reserved ids."""

    def __init__(self, tokens):
        self.token_to_id = dict(RESERVED)
        for tok in tokens:
            if tok not in self.token_to_id:
                self.token_to_id[tok] = len(self.token_to_id)

    def __len__(self):
        return len(self.token_to_id)

    def id(self, token):
        return self.token_to_id.get(token, UNK_ID)

    def tokens(self):
        """Non-reserved tokens in id order (ids follow insertion order), for serialization."""
        return list(self.token_to_id)[len(RESERVED):]


def vocab_for_examples(examples):
    """Vocabulary over every lowercased whitespace token of both texts of every example.

    Order is deterministic: count descending, then lexicographic.
    """
    counts = Counter()
    for ex in examples:
        counts.update(tokenize(ex.text_a + " " + ex.text_b))
    if not counts:
        raise DataError("cannot build a vocabulary from an empty corpus")
    return Vocab(sorted(counts, key=lambda t: (-counts[t], t)))


def pack_dataset(examples, vocab, s_max):
    """Pack a list of examples into (token_ids, segment_ids, mask, labels) arrays.

    A pair too long for ``s_max`` loses tokens longest side first, a tie
    taking from ``text_a``. The shared padded length is that of the longest
    packed sequence in the dataset (at most ``s_max``); padding is trailing
    and masked, so outputs at real positions do not depend on it.
    """
    if s_max < MIN_S_MAX:
        raise ValueError(f"s_max={s_max} cannot hold [CLS] tok [SEP] [SEP]")
    if not examples:
        raise DataError("no examples to pack")
    sides = [tokenize(text) for ex in examples for text in (ex.text_a, ex.text_b)]
    ids = np.array([vocab.id(t) for side in sides for t in side], dtype=np.int64)
    lengths = np.array([len(side) for side in sides], dtype=np.int64)
    A, B = lengths[0::2], lengths[1::2]
    kept = np.minimum(A + B, s_max - 3)
    na = np.minimum(A, np.maximum(kept - B, kept // 2))
    cols = np.arange(int(kept.max()) + 3)
    valid = cols < (kept + 3)[:, None]
    mask = valid.astype(np.int64)
    seg = (valid & (cols >= (na + 2)[:, None])).astype(np.int64)
    tok = np.full(mask.shape, PAD_ID, dtype=np.int64)
    rows = np.arange(len(examples))
    tok[:, 0] = CLS_ID
    tok[rows, na + 1] = SEP_ID
    tok[rows, kept + 2] = SEP_ID
    # Sides 2i and 2i+1 are a and b of pair i. Token j of side s is kept if
    # j < taken[s], in column first[s] + j of its pair's row.
    taken = np.column_stack([na, kept - na]).ravel()
    first = np.column_stack([np.ones_like(na), na + 2]).ravel()
    side_of = np.repeat(np.arange(lengths.size), lengths)
    j = np.arange(ids.size) - np.repeat(np.cumsum(lengths) - lengths, lengths)
    keep = j < taken[side_of]
    tok[side_of[keep] // 2, first[side_of[keep]] + j[keep]] = ids[keep]
    return tok, seg, mask, np.array([ex.label for ex in examples])


# ---------------------------------------------------------------------------
# JSONL ingestion


def read_lines(path):
    """Yield ``(line number, line)`` for each line of a UTF-8 text file, from 1.

    Each line is decoded on its own, so a byte that is not UTF-8 raises a
    DataError that names the file and the line.
    """
    with open(path, "rb") as f:
        for lineno, raw in enumerate(f, start=1):
            try:
                yield lineno, raw.decode("utf-8")
            except UnicodeDecodeError as e:
                raise DataError(f"{path}:{lineno}: {e}") from None


# The JSON name of each non-string type that ``json.loads`` produces.
_JSON_TYPES = {type(None): "null", bool: "boolean", int: "number", float: "number",
               list: "array", dict: "object"}


def load_jsonl(path, schema):
    """Load PairExamples from a JSON-lines file; labels are matched case-insensitively."""
    if schema not in SCHEMAS:
        raise DataError(f"unknown schema {schema!r}, expected one of {sorted(SCHEMAS)}")
    (field_a, field_b), label_map = SCHEMAS[schema]
    examples = []
    for lineno, line in read_lines(path):
        line = line.strip()
        if not line:
            continue
        try:
            obj = json.loads(line)
        except (ValueError, RecursionError) as e:
            # Bad JSON, or a decoder limit: nesting too deep, an integer too long.
            raise DataError(f"{path}:{lineno}: invalid JSON ({getattr(e, 'msg', e)})") from None
        if not isinstance(obj, dict):
            raise DataError(f"{path}:{lineno}: expected a JSON object, "
                            f"got {type(obj).__name__}")
        for field in (field_a, field_b, "label"):
            if field not in obj:
                raise DataError(f"{path}:{lineno}: missing field {field!r}")
        for field in (field_a, field_b):
            if not isinstance(obj[field], str):
                raise DataError(f"{path}:{lineno}: field {field!r} must be a string, "
                                f"got {_JSON_TYPES[type(obj[field])]}")
        raw = str(obj["label"]).lower()
        if raw not in label_map:
            raise DataError(f"{path}:{lineno}: unknown label {obj['label']!r}, "
                            f"expected one of {sorted(label_map)}")
        examples.append(PairExample(obj[field_a], obj[field_b], label_map[raw]))
    if not examples:
        raise DataError(f"{path}: no examples")
    return examples


def save_jsonl(examples, path, schema):
    if schema not in SCHEMAS:
        raise DataError(f"unknown schema {schema!r}, expected one of {sorted(SCHEMAS)}")
    (field_a, field_b), label_map = SCHEMAS[schema]
    inverse = {v: k for k, v in label_map.items()}
    lines = [json.dumps({field_a: ex.text_a, field_b: ex.text_b,
                         "label": inverse[ex.label]}, sort_keys=True)
             for ex in examples]
    atomic_write_bytes(path, ("\n".join(lines) + "\n").encode("utf-8"))


# ---------------------------------------------------------------------------
# synthetic sentence-pair task


def _aspect_word(i):
    return f"topic{i}"


def _marker_word(aspect, c):
    return f"{_aspect_word(aspect)}_sent{c}"


def synth_generate(n, classes=3, seed=0, n_aspects=6, aspect_pool=6):
    """Generate a class-balanced synthetic sentence-pair task.

    ``text_a`` is a shuffled bag of aspect-qualified sentiment markers, one
    per aspect present (e.g. ``topic3_sent2``); ``text_b`` names one of
    those aspects, and the label is the sentiment part of that aspect's
    marker. The label is therefore a deterministic function of the marker
    tokens in ``text_a`` conditioned on ``text_b``. The other aspects'
    markers act as distractors: a classifier that ignores ``text_b`` can at
    best guess the most frequent sentiment among the markers, which with 6
    markers stays near chance.
    """
    if classes < 1:
        raise ValueError(f"need classes >= 1, got {classes}")
    if n < classes:
        raise ValueError(f"need n >= classes, got n={n}, classes={classes}")
    if n_aspects > aspect_pool:
        raise ValueError(f"n_aspects={n_aspects} exceeds aspect_pool={aspect_pool}")
    rng = rng_mod.rng_for(seed, rng_mod.SYNTH)
    examples = []
    for i in range(n):
        label = i % classes
        aspects = rng.choice(aspect_pool, size=n_aspects, replace=False)
        chosen = int(aspects[rng.integers(n_aspects)])
        words = [_marker_word(int(a), label if a == chosen else int(rng.integers(classes)))
                 for a in aspects]
        rng.shuffle(words)
        examples.append(PairExample(" ".join(words), _aspect_word(chosen), label))
    return examples


def synth_label_function(ex: PairExample):
    """Recompute the label of a generated example from its text (self-check)."""
    prefix = tokenize(ex.text_b)[0] + "_sent"
    for word in tokenize(ex.text_a):
        if word.startswith(prefix):
            return int(word[len(prefix):])
    raise ValueError(f"no marker for aspect {ex.text_b!r} in {ex.text_a!r}")


def unigram_baseline_accuracy(train, test):
    """Add-one smoothed Naive-Bayes unigram classifier over text_a only (ignores
    text_b), over the three classes of the synthetic task.

    Serves as the oracle showing the synthetic task cannot be solved
    without relating the two segments.
    """
    vocab = {}
    for ex in train:
        for t in tokenize(ex.text_a):
            vocab.setdefault(t, len(vocab))
    counts = np.ones((len(ABSA_LABELS), len(vocab)))
    prior = np.ones(len(ABSA_LABELS))
    for ex in train:
        prior[ex.label] += 1
        for t in tokenize(ex.text_a):
            counts[ex.label, vocab[t]] += 1
    log_cond = np.log(counts / counts.sum(axis=1, keepdims=True))
    log_prior = np.log(prior / prior.sum())
    correct = 0
    for ex in test:
        score = log_prior.copy()
        for t in tokenize(ex.text_a):
            if t in vocab:
                score += log_cond[:, vocab[t]]
        if int(np.argmax(score)) == ex.label:
            correct += 1
    return correct / len(test)
