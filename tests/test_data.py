import json
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from clspool.data import (CLS_ID, DataError, PAD_ID, PairExample, SEP_ID, UNK_ID,
                          Vocab, load_jsonl, pack_dataset, save_jsonl,
                          synth_generate, synth_label_function, tokenize,
                          unigram_baseline_accuracy, vocab_for_examples)


def vocab_of(*texts):
    """The vocabulary of one example per text, each with an empty ``text_b``."""
    return vocab_for_examples([PairExample(text, "", 0) for text in texts])


class TestVocab:
    def test_unknown_maps_to_unk(self):
        v = vocab_of("a a b")
        assert v.id("b") != UNK_ID
        assert v.id("zzz") == UNK_ID
        assert [v.id(t) for t in tokenize("a zzz")] == [v.id("a"), UNK_ID]

    def test_deterministic(self):
        corpus = ["red green blue", "green blue blue"]
        assert vocab_of(*corpus).token_to_id == vocab_of(*corpus).token_to_id

    def test_ordering_count_then_lexicographic(self):
        v = vocab_of("b a b c a b")
        ids = v.token_to_id
        assert ids["b"] < ids["a"] < ids["c"]

    def test_empty_corpus(self):
        with pytest.raises(DataError):
            vocab_for_examples([])

    def test_reserved_ids_stable(self):
        v = vocab_of("x y z")
        assert v.token_to_id["[PAD]"] == 0
        assert v.token_to_id["[UNK]"] == 1
        assert v.token_to_id["[CLS]"] == 2
        assert v.token_to_id["[SEP]"] == 3

    def test_tokens_round_trip(self):
        v = vocab_of("red green blue green")
        assert Vocab(v.tokens()).token_to_id == v.token_to_id


def pack_one(ex, vocab, s_max):
    """(token_ids, segment_ids, mask) of ``pack_dataset([ex], ...)``, each 1-D."""
    return tuple(a[0] for a in pack_dataset([ex], vocab, s_max)[:3])


class TestPackPair:
    def test_worked_example(self):
        # Tokens with known ids: vocab maps u->7 style via direct construction.
        v = Vocab([])
        v.token_to_id.update({"w7": 7, "w8": 8, "w9": 9})
        # build intermediate ids 4..6 so the map stays dense enough for V
        ids, segs, mask = pack_one(PairExample("w7 w8", "w9", 0), v, 8)
        assert ids.tolist() == [2, 7, 8, 3, 9, 3]
        assert segs.tolist() == [0, 0, 0, 0, 1, 1]
        assert mask.tolist() == [1, 1, 1, 1, 1, 1]

    def test_empty_b(self):
        v = vocab_of("x y")
        ids, segs, mask = pack_one(PairExample("x y", "", 0), v, 8)
        assert ids[0] == CLS_ID
        assert ids.tolist().count(SEP_ID) == 2
        # segment-1 block is exactly the trailing [SEP]
        assert segs[mask == 1].tolist() == [0, 0, 0, 0, 1]

    def test_longest_first_truncation(self):
        v = vocab_of("t")
        a = " ".join(["t"] * 100)
        b = "t t"
        ids, _, _ = pack_one(PairExample(a, b, 0), v, 16)
        seps = np.flatnonzero(ids == SEP_ID)
        n_a = seps[0] - 1
        n_b = seps[1] - seps[0] - 1
        assert (n_a, n_b) == (11, 2)

    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.sampled_from(["a", "b", "c", "zz"]), max_size=40),
           st.lists(st.sampled_from(["a", "b", "c", "zz"]), max_size=40),
           st.integers(4, 40))
    def test_packing_properties(self, words_a, words_b, s_max):
        v = vocab_of("a b c")  # "zz" encodes as [UNK]
        enc_a, enc_b = ([v.id(t) for t in words] for words in (words_a, words_b))
        ids, segs, mask = pack_one(PairExample(" ".join(words_a), " ".join(words_b), 0),
                                   v, s_max)
        # One example: the padded length is its own, so no column is padding.
        m = len(ids)
        assert len(segs) == len(mask) == m <= s_max
        assert mask.tolist() == [1] * m
        na = int(np.flatnonzero(ids == SEP_ID)[0]) - 1
        nb = m - na - 3
        assert ids.tolist() == [CLS_ID] + enc_a[:na] + [SEP_ID] + enc_b[:nb] + [SEP_ID]
        assert segs.tolist() == [0] * (na + 2) + [1] * (nb + 1)
        # Longest first, a tie takes from a: a side that lost tokens ends no
        # shorter than the other, except that a may end one token short of b.
        A, B = len(enc_a), len(enc_b)
        kept = min(A + B, s_max - 3)
        assert na == min(A, max(kept - B, kept // 2)) and nb == kept - na
        if na < A:
            assert na >= nb - 1
        if nb < B:
            assert nb >= na

    def test_structure_invariants(self):
        rng = np.random.default_rng(0)
        v = vocab_of("a b c d e f g")
        for _ in range(50):
            na, nb = rng.integers(0, 30, size=2)
            ex = PairExample(" ".join(rng.choice(list("abcdefg"), na)),
                             " ".join(rng.choice(list("abcdefg"), nb)), 0)
            ids, segs, mask = pack_one(ex, v, 12)
            assert ids[0] == CLS_ID
            assert (ids == SEP_ID).sum() == 2
            assert (ids == CLS_ID).sum() == 1
            assert np.all(np.diff(segs[mask == 1]) >= 0)
            assert len(ids) == min(na + nb + 3, 12)


class TestJsonl:
    def test_absa_round_trip(self, tmp_path):
        path = tmp_path / "d.jsonl"
        examples = [PairExample("great food here", "food", 2),
                    PairExample("meh", "service", 1),
                    PairExample("bad bad", "food", 0)]
        save_jsonl(examples, str(path), "absa")
        assert load_jsonl(str(path), "absa") == examples

    def test_label_table(self, tmp_path):
        path = tmp_path / "d.jsonl"
        path.write_text(json.dumps({"text": "x", "aspect": "y", "label": "positive"}) + "\n")
        assert load_jsonl(str(path), "absa")[0].label == 2

    def test_case_insensitive_label(self, tmp_path):
        path = tmp_path / "d.jsonl"
        path.write_text(json.dumps({"text": "x", "aspect": "y", "label": "POSITIVE"}) + "\n")
        assert load_jsonl(str(path), "absa")[0].label == 2

    def test_unknown_label_names_line(self, tmp_path):
        path = tmp_path / "d.jsonl"
        path.write_text(
            json.dumps({"text": "x", "aspect": "y", "label": "positive"}) + "\n"
            + json.dumps({"text": "x", "aspect": "y", "label": "great"}) + "\n")
        with pytest.raises(DataError, match=":2"):
            load_jsonl(str(path), "absa")

    def test_missing_field(self, tmp_path):
        path = tmp_path / "d.jsonl"
        path.write_text(json.dumps({"text": "x", "label": "positive"}) + "\n")
        with pytest.raises(DataError, match="aspect"):
            load_jsonl(str(path), "absa")

    def test_nli_schema(self, tmp_path):
        path = tmp_path / "d.jsonl"
        path.write_text(json.dumps({"premise": "p", "hypothesis": "h",
                                    "label": "entailment"}) + "\n")
        ex = load_jsonl(str(path), "nli")[0]
        assert (ex.text_a, ex.text_b, ex.label) == ("p", "h", 2)

    @pytest.mark.parametrize("content", ["", "\n \n"])
    def test_no_examples_names_file(self, tmp_path, content):
        path = tmp_path / "d.jsonl"
        path.write_text(content)
        with pytest.raises(DataError, match=f"^{path}: no examples$"):
            load_jsonl(str(path), "absa")

    def test_invalid_json_names_line(self, tmp_path):
        path = tmp_path / "d.jsonl"
        path.write_text("{not json\n")
        with pytest.raises(DataError, match=":1"):
            load_jsonl(str(path), "absa")

    @pytest.mark.parametrize("line, kind", [("5", "int"), ("null", "NoneType"),
                                            ('"a b c"', "str"), ("[]", "list"), ("true", "bool")])
    def test_non_object_line_names_line_and_type(self, tmp_path, line, kind):
        path = tmp_path / "d.jsonl"
        path.write_text(json.dumps({"text": "x", "aspect": "y", "label": "positive"})
                        + "\n" + line + "\n")
        with pytest.raises(DataError, match=f"{path}:2: expected a JSON object, got {kind}$"):
            load_jsonl(str(path), "absa")

    @pytest.mark.parametrize("schema, field", [("absa", "text"), ("absa", "aspect"),
                                               ("nli", "premise"), ("nli", "hypothesis")])
    @pytest.mark.parametrize("value, kind", [(None, "null"), (["a", "b"], "array"),
                                             (3, "number"), (2.5, "number"),
                                             (True, "boolean"), ({"a": 1}, "object")])
    def test_non_string_text_field_names_line_field_and_type(self, tmp_path, schema, field,
                                                             value, kind):
        # str() would turn null into the token "none" and a list into "['a',".
        label = "positive" if schema == "absa" else "entailment"
        row = {"text": "x", "aspect": "y", "premise": "x", "hypothesis": "y", "label": label}
        path = tmp_path / "d.jsonl"
        path.write_text(json.dumps(row) + "\n" + json.dumps({**row, field: value}) + "\n")
        with pytest.raises(DataError) as err:
            load_jsonl(str(path), schema)
        assert str(err.value) == f"{path}:2: field {field!r} must be a string, got {kind}"


class TestSynth:
    def test_class_balance(self):
        ex = synth_generate(300, classes=3, seed=7)
        counts = Counter(e.label for e in ex)
        assert counts == {0: 100, 1: 100, 2: 100}

    def test_balance_within_one_for_any_n(self):
        for n, seed in ((10, 0), (11, 1), (301, 2)):
            ex = synth_generate(n, classes=3, seed=seed)
            counts = Counter(e.label for e in ex)
            assert max(counts.values()) - min(counts.values()) <= 1

    def test_self_consistency(self):
        ex = synth_generate(500, seed=3)
        assert all(synth_label_function(e) == e.label for e in ex)

    def test_deterministic_per_seed(self):
        assert synth_generate(50, seed=9) == synth_generate(50, seed=9)
        assert synth_generate(50, seed=9) != synth_generate(50, seed=10)

    def test_unigram_baseline_stays_near_chance(self):
        ex = synth_generate(4000, seed=5)
        acc = unigram_baseline_accuracy(ex[:3200], ex[3200:])
        assert acc <= 0.55

    def test_n_too_small(self):
        with pytest.raises(ValueError):
            synth_generate(2, classes=3)

    @pytest.mark.parametrize("classes", [0, -1])
    def test_classes_below_1_rejected(self, classes):
        with pytest.raises(ValueError, match=f"need classes >= 1, got {classes}"):
            synth_generate(10, classes=classes)


def reference_pack_pair(ex, vocab, s_max):
    """The per-pair packer that ``pack_dataset`` replaced, kept as the oracle."""
    a = [vocab.id(t) for t in tokenize(ex.text_a)]
    b = [vocab.id(t) for t in tokenize(ex.text_b)]
    while len(a) + len(b) + 3 > s_max:
        if len(a) >= len(b) and a:
            a.pop()
        else:
            b.pop()
    ids = [CLS_ID] + a + [SEP_ID] + b + [SEP_ID]
    segments = [0] * (len(a) + 2) + [1] * (len(b) + 1)
    mask = [1] * len(ids)
    pad = s_max - len(ids)
    return (np.array(ids + [PAD_ID] * pad), np.array(segments + [0] * pad),
            np.array(mask + [0] * pad))


def reference_pack_dataset(examples, vocab, s_max):
    tok, seg, mask = (np.stack(a) for a in zip(*(reference_pack_pair(ex, vocab, s_max)
                                                 for ex in examples)))
    longest = int(mask.sum(axis=1).max())
    return (tok[:, :longest], seg[:, :longest], mask[:, :longest],
            np.array([ex.label for ex in examples]))


def assert_same_arrays(got, want):
    assert len(got) == len(want)
    for g, w in zip(got, want):
        assert g.dtype == w.dtype == np.int64
        assert g.shape == w.shape
        assert g.tobytes() == w.tobytes()


side = st.lists(st.sampled_from(["a", "B", "c", "zz", "[UNK]"]), max_size=30)


@st.composite
def pair_examples(draw):
    """Random pairs; each side may be empty, hold unknown tokens ("zz",
    "[UNK]") or upper case, and about a third of the pairs have sides of
    equal length, so that truncation ties."""
    a = draw(side)
    if draw(st.integers(0, 2)) == 0:
        b = draw(st.lists(st.sampled_from(["a", "c", "zz"]), min_size=len(a),
                          max_size=len(a)))
    else:
        b = draw(side)
    return PairExample(" ".join(a), " ".join(b), draw(st.integers(0, 2)))


class TestPackDataset:
    VOCAB = vocab_of("a b c")

    @settings(max_examples=300, deadline=None)
    @given(st.lists(pair_examples(), min_size=1, max_size=8), st.integers(4, 40))
    def test_equals_stacked_per_pair_packer(self, examples, s_max):
        assert_same_arrays(pack_dataset(examples, self.VOCAB, s_max),
                           reference_pack_dataset(examples, self.VOCAB, s_max))

    def test_synth_equals_stacked_per_pair_packer(self):
        ex = synth_generate(3000, seed=0)
        v = vocab_for_examples(ex)
        for s_max in (4, 5, 12, 64):
            assert_same_arrays(pack_dataset(ex, v, s_max), reference_pack_dataset(ex, v, s_max))

    def test_no_examples(self):
        with pytest.raises(DataError, match="no examples"):
            pack_dataset([], self.VOCAB, 8)

    def test_s_max_below_4(self):
        with pytest.raises(ValueError, match="s_max=3 cannot hold"):
            pack_dataset([PairExample("a", "b", 0)], self.VOCAB, 3)

    def test_trims_to_longest_sequence(self):
        ex = synth_generate(20, seed=0)
        v = vocab_for_examples(ex)
        tok, seg, mask, labels = pack_dataset(ex, v, 64)
        assert tok.shape[1] < 64
        assert np.all(mask[:, -1].max() == 1)
        assert len(labels) == 20
