import os
import re
import struct
import tempfile

import numpy as np
import numpy.testing as npt
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from clspool import encoder
from clspool import pooling as pooling_mod
from clspool import rng as R
from clspool.checkpoint import (MAGIC, VERSION, atomic_write_bytes,
                                load_checkpoint, save_checkpoint)
from clspool.encoder import EncoderConfig, init_normal
from clspool.model import PooledClassifier
from clspool.pooling import HEAD_KINDS


class TestAtomicWrite:
    def test_writes_payload(self, tmp_path):
        path = tmp_path / "f.bin"
        atomic_write_bytes(str(path), b"hello")
        assert path.read_bytes() == b"hello"

    def test_no_temp_files_left(self, tmp_path):
        atomic_write_bytes(str(tmp_path / "f.bin"), b"x")
        assert sorted(os.listdir(tmp_path)) == ["f.bin"]

    def test_overwrite(self, tmp_path):
        path = tmp_path / "f.bin"
        atomic_write_bytes(str(path), b"one")
        atomic_write_bytes(str(path), b"two")
        assert path.read_bytes() == b"two"


class TestFormat:
    def test_round_trip(self, tmp_path):
        path = str(tmp_path / "c.ckpt")
        rng = np.random.default_rng(0)
        params = {"a/w": rng.normal(size=(3, 4)).astype(np.float32),
                  "a/b": rng.normal(size=4).astype(np.float32)}
        save_checkpoint(path, {"k": 1}, params)
        meta, back = load_checkpoint(path)
        assert meta == {"k": 1}
        assert set(back) == set(params)
        for name in params:
            npt.assert_array_equal(back[name], params[name])
            assert back[name].dtype == np.float32
            assert back[name].flags.writeable

    def test_float32_quantization(self, tmp_path):
        path = str(tmp_path / "c.ckpt")
        exact = np.array([0.1, 1 / 3, np.pi])
        save_checkpoint(path, {}, {"w": exact})
        _, back = load_checkpoint(path)
        npt.assert_array_equal(back["w"], exact.astype(np.float32))
        assert not np.array_equal(back["w"], exact)

    def test_header_layout(self, tmp_path):
        path = str(tmp_path / "c.ckpt")
        save_checkpoint(path, {"n": 2}, {"w": np.zeros((2, 3))})
        buf = open(path, "rb").read()
        assert buf[:8] == MAGIC
        assert struct.unpack_from("<I", buf, 8)[0] == VERSION
        meta_len = struct.unpack_from("<I", buf, 12)[0]
        assert buf[16:16 + meta_len] == b'{"n": 2}'

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "c.ckpt"
        path.write_bytes(b"NOTMAGIC" + b"\x00" * 32)
        with pytest.raises(ValueError, match="magic"):
            load_checkpoint(str(path))

    def test_bad_version(self, tmp_path):
        path = str(tmp_path / "c.ckpt")
        save_checkpoint(path, {}, {"w": np.zeros(2)})
        buf = bytearray(open(path, "rb").read())
        struct.pack_into("<I", buf, 8, 99)
        (tmp_path / "bad.ckpt").write_bytes(bytes(buf))
        with pytest.raises(ValueError, match="version"):
            load_checkpoint(str(tmp_path / "bad.ckpt"))

    def test_version_1_refused(self, tmp_path):
        # Version 1 has the same layout, but its models used the exact GELU.
        path = tmp_path / "c.ckpt"
        save_checkpoint(str(path), {}, {"w": np.zeros(2)})
        buf = bytearray(path.read_bytes())
        struct.pack_into("<I", buf, 8, 1)
        path.write_bytes(bytes(buf))
        with pytest.raises(ValueError, match="checkpoint version 1 predates the tanh GELU"):
            load_checkpoint(str(path))

    def test_names_sorted_on_disk(self, tmp_path):
        path = str(tmp_path / "c.ckpt")
        save_checkpoint(path, {}, {"zz": np.zeros(1), "aa": np.zeros(1)})
        buf = open(path, "rb").read()
        assert buf.index(b"aa") < buf.index(b"zz")

    @pytest.mark.parametrize("bad", [1e300, np.nan, -np.inf])
    def test_non_finite_parameter_not_saved(self, tmp_path, bad):
        path = tmp_path / "c.ckpt"
        w = np.ones((2, 3))
        w[1, 2] = bad
        with pytest.raises(ValueError, match=re.escape(f"parameter 'w' element 5 is {bad!r}, "
                                                       f"not a finite float32")):
            save_checkpoint(str(path), {}, {"a": np.zeros(2), "w": w})
        assert os.listdir(tmp_path) == []

    def test_float32_max_still_saved(self, tmp_path):
        path = str(tmp_path / "c.ckpt")
        top = float(np.finfo(np.float32).max)
        save_checkpoint(path, {}, {"w": np.array([top, -top])})
        npt.assert_array_equal(load_checkpoint(path)[1]["w"], [top, -top])

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_blob_names_parameter_and_offset(self, tmp_path, bad):
        path = tmp_path / "c.ckpt"
        save_checkpoint(str(path), {}, {"a": np.zeros(2), "w": np.ones(3)})
        payload = path.read_bytes()
        at = len(payload) - 8  # the middle value of 'w', the last blob
        path.write_bytes(payload[:at] + np.float32(bad).tobytes() + payload[at + 4:])
        with pytest.raises(ValueError, match=f"non-finite value {bad} in parameter 'w' "
                                             f"at offset {at}$"):
            load_checkpoint(str(path))

    def test_rewrite_bit_identical(self, tmp_path):
        params = {"w": np.linspace(0, 1, 12).reshape(3, 4)}
        a, b = str(tmp_path / "a.ckpt"), str(tmp_path / "b.ckpt")
        save_checkpoint(a, {"x": [1, 2]}, params)
        save_checkpoint(b, {"x": [1, 2]}, params)
        assert open(a, "rb").read() == open(b, "rb").read()


class TestModelPersistence:
    CFG = EncoderConfig(L=2, H=8, A=2, F=12, V=16, S_max=10, p_drop=0.1)

    def test_save_load_same_predictions(self, tmp_path):
        # The model is float32 and so is the file: a round trip loses nothing,
        # so the loaded model's logits equal the saved one's to the bit.
        rng = np.random.default_rng(1)
        ids = rng.integers(4, 16, size=(4, 6))
        seg = np.zeros((4, 6), dtype=int)
        mask = np.ones((4, 6), dtype=int)
        mask[1, 4:] = 0
        for pooling in ("last", "lstm", "attention"):
            path = str(tmp_path / f"{pooling}.ckpt")
            model = PooledClassifier(self.CFG, pooling, 3, R.rng_for(0, 0))
            model.save(path)
            back, meta = PooledClassifier.load(path)
            assert meta["pooling"] == pooling
            for name, p in back.parameters().items():
                assert p.data.dtype == np.float32
                npt.assert_array_equal(p.data, model.parameters()[name].data)
            logits = model.forward_batch(ids, seg, mask).data
            assert logits.dtype == np.float32
            npt.assert_array_equal(back.forward_batch(ids, seg, mask).data, logits)
            npt.assert_array_equal(back.predict(ids, seg, mask), model.predict(ids, seg, mask))

    def test_load_draws_nothing(self, tmp_path, monkeypatch):
        # ``load`` builds the model from no generator, so no weight is drawn,
        # and still gives back every parameter of every head.
        saved = {}
        for pooling in HEAD_KINDS:
            saved[pooling] = PooledClassifier(self.CFG, pooling, 3, R.rng_for(0, 0))
            saved[pooling].save(str(tmp_path / f"{pooling}.ckpt"))

        def no_draw(rng, shape):
            if rng is not None:
                raise AssertionError(f"a {shape} weight was drawn")
            return init_normal(rng, shape)

        def no_generator(*args):
            raise AssertionError("a generator was made")

        monkeypatch.setattr(encoder, "init_normal", no_draw)
        monkeypatch.setattr(pooling_mod, "init_normal", no_draw)
        monkeypatch.setattr(np.random, "default_rng", no_generator)
        for pooling, model in saved.items():
            back, _ = PooledClassifier.load(str(tmp_path / f"{pooling}.ckpt"))
            assert back.parameters().keys() == model.parameters().keys()
            for name, p in back.parameters().items():
                assert p.data.dtype == np.float32
                npt.assert_array_equal(p.data, model.parameters()[name].data)

    def test_extra_meta_round_trip(self, tmp_path):
        path = str(tmp_path / "m.ckpt")
        model = PooledClassifier(self.CFG, "last", 2, R.rng_for(1, 0))
        vocab = [f"w{i}" for i in range(self.CFG.V - 4)]
        model.save(path, extra_meta={"vocab": vocab, "schema": "absa"})
        _, meta = PooledClassifier.load(path)
        assert meta["vocab"] == vocab
        assert meta["schema"] == "absa"

    def test_parameter_mismatch_detected(self, tmp_path):
        path = str(tmp_path / "m.ckpt")
        model = PooledClassifier(self.CFG, "lstm", 3, R.rng_for(2, 0))
        meta = {"encoder": {k: getattr(self.CFG, k)
                            for k in ("L", "H", "A", "F", "V", "S_max", "p_drop")},
                "pooling": "lstm", "n_classes": 3}
        params = {k: v.data for k, v in model.parameters().items()}
        params.pop(sorted(params)[0])
        save_checkpoint(path, meta, params)
        with pytest.raises(ValueError, match="mismatch"):
            PooledClassifier.load(path)

    @pytest.mark.parametrize("key", ["L", "V", "H", "S_max", "F", "n_classes"])
    def test_oversized_metadata_names_the_key(self, tmp_path, key):
        # Checked against the blobs before the model is built, so a size of
        # 10¹² allocates nothing.
        path = str(tmp_path / "m.ckpt")
        model = PooledClassifier(self.CFG, "lstm", 3, R.rng_for(2, 0))
        model.save(path)
        meta, params = load_checkpoint(path)
        if key == "n_classes":
            meta[key] = 10**12
        else:
            meta["encoder"][key] = 10**12
            key = f"encoder.{key}"
        save_checkpoint(path, meta, params)
        with pytest.raises(ValueError, match=f"mismatch: metadata '{key}' is 1000000000000, "):
            PooledClassifier.load(path)

    def test_all_head_kinds_round_trip(self, tmp_path):
        for kind in ("last", "lstm", "attention"):
            path = str(tmp_path / f"{kind}.ckpt")
            model = PooledClassifier(self.CFG, kind, 3, R.rng_for(3, 0))
            model.save(path)
            back, meta = PooledClassifier.load(path)
            assert meta["pooling"] == kind
            assert set(back.parameters()) == set(model.parameters())


def test_predict_rejects_non_finite_logits():
    cfg = EncoderConfig(L=1, H=4, A=2, F=4, V=6, S_max=6, p_drop=0.1)
    model = PooledClassifier(cfg, "last", 3, R.rng_for(5, 0))
    model.parameters()["embed/token"].data[5] = np.nan  # only the second row uses token 5
    ids = np.array([[2, 4, 3, 4, 3], [2, 5, 3, 4, 3]])
    with pytest.raises(ValueError, match="non-finite logits .* in row 1$"):
        model.predict(ids, np.zeros((2, 5), dtype=int), np.ones((2, 5), dtype=int))


def lstm_checkpoint_bytes():
    """The bytes of a real saved model (lstm head, tiny config)."""
    cfg = EncoderConfig(L=1, H=4, A=2, F=4, V=6, S_max=6, p_drop=0.1)
    model = PooledClassifier(cfg, "lstm", 3, R.rng_for(4, 0))
    with tempfile.TemporaryDirectory() as d:
        path = os.path.join(d, "m.ckpt")
        model.save(path, extra_meta={"schema": "absa"})
        with open(path, "rb") as f:
            return f.read()


REAL = lstm_checkpoint_bytes()


def load_bytes(payload):
    with tempfile.TemporaryDirectory() as d:
        path = os.path.join(d, "c.ckpt")
        with open(path, "wb") as f:
            f.write(payload)
        return load_checkpoint(path)


class TestMalformed:
    def test_real_checkpoint_loads(self):
        meta, params = load_bytes(REAL)
        assert meta["pooling"] == "lstm" and "lstm/W" in params

    @pytest.mark.parametrize("cut", [9, 14, 20, len(REAL) - 1])
    def test_truncation_names_offset(self, cut):
        with pytest.raises(ValueError, match="truncated checkpoint.*offset"):
            load_bytes(REAL[:cut])

    def test_trailing_bytes_rejected(self):
        with pytest.raises(ValueError, match=f"1 trailing bytes at offset {len(REAL)}"):
            load_bytes(REAL + b"\x00")

    def test_bad_metadata_rejected(self):
        meta_len = struct.unpack_from("<I", REAL, 12)[0]
        bad = REAL[:16] + b"\xff" + REAL[17:]
        with pytest.raises(ValueError, match="bad metadata at offset 16"):
            load_bytes(bad)
        not_object = b"[1]".ljust(meta_len)
        with pytest.raises(ValueError, match="not a JSON object"):
            load_bytes(REAL[:16] + not_object + REAL[16 + meta_len:])

    @settings(max_examples=200, deadline=None)
    @given(st.one_of(st.integers(0, len(REAL) - 1).map(lambda n: REAL[:n]),
                     st.integers(0, 8 * len(REAL) - 1).map(
                         lambda bit: REAL[:bit // 8]
                         + bytes([REAL[bit // 8] ^ (1 << bit % 8)]) + REAL[bit // 8 + 1:])))
    def test_truncations_and_bit_flips_load_or_raise_value_error(self, payload):
        try:
            meta, params = load_bytes(payload)
        except ValueError:
            return
        assert isinstance(meta, dict)
        assert all(a.dtype == np.float32 for a in params.values())
