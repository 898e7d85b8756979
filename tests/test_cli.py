import json
import os
import struct
import subprocess
import sys

import numpy as np
import pytest

from clspool import cli, data, train
from clspool import rng as R
from clspool.checkpoint import MAGIC, VERSION, load_checkpoint, save_checkpoint
from clspool.cli import main
from clspool.data import load_jsonl
from clspool.encoder import EncoderConfig
from clspool.model import PooledClassifier

from test_encoder import as_float64

TINY_MODEL = "L=1\nH=8\nA=2\nF=8\ns_max=32\n"


def run(argv):
    return main(argv)


@pytest.fixture()
def dataset(tmp_path):
    path = str(tmp_path / "data.jsonl")
    assert run(["synth", "--n", "30", "--seed", "0", "--out", path]) == 0
    return path


@pytest.fixture()
def tiny_cfg(tmp_path):
    cfg = tmp_path / "tiny.cfg"
    cfg.write_text(TINY_MODEL)
    return str(cfg)


class TestSynth:
    def test_writes_jsonl(self, dataset):
        examples = load_jsonl(dataset, "absa")
        assert len(examples) == 30
        assert {e.label for e in examples} == {0, 1, 2}

    def test_usage_error_exit_2(self):
        assert run(["synth", "--n", "10"]) == 2  # missing --out

    def test_missing_out_directory_is_made(self, tmp_path):
        path = tmp_path / "new" / "dir" / "d.jsonl"
        assert run(["synth", "--n", "10", "--out", str(path)]) == 0
        assert len(load_jsonl(str(path), "absa")) == 10


class TestTrain:
    def test_happy_path(self, dataset, tmp_path, capsys):
        cfg = tmp_path / "tiny.cfg"
        cfg.write_text(TINY_MODEL)
        out = str(tmp_path / "run")
        rc = run(["train", "--data", dataset, "--config", str(cfg),
                  "--folds", "2", "--epochs", "1", "--out", out,
                  "--batch-size", "8"])
        assert rc == 0
        assert os.path.exists(os.path.join(out, "results.csv"))
        assert os.path.exists(os.path.join(out, "model.ckpt"))
        assert "cv mean accuracy" in capsys.readouterr().out

    def test_invalid_pooling_exit_2(self, dataset):
        assert run(["train", "--data", dataset, "--pooling", "cnn"]) == 2

    def test_pooling_from_config_file_validated(self, dataset, tmp_path, capsys):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text(TINY_MODEL + "pooling=cnn\n")
        rc = run(["train", "--data", dataset, "--config", str(cfg)])
        assert rc == 1

    def test_missing_data_exit_1(self, tmp_path):
        assert run(["train", "--data", str(tmp_path / "nope.jsonl"),
                    "--folds", "2", "--epochs", "1"]) == 1

    def test_no_data_anywhere_exit_1(self):
        assert run(["train", "--folds", "2"]) == 1

    def test_flag_overrides_config_file(self, dataset, tmp_path):
        # folds=31 exceeds the 30-example dataset, so it only succeeds if the
        # command-line flag wins over the config file.
        cfg = tmp_path / "cfg"
        cfg.write_text(TINY_MODEL + "folds=31\nepochs=1\n")
        out = str(tmp_path / "run")
        assert run(["train", "--data", dataset, "--config", str(cfg),
                    "--folds", "2", "--out", out]) == 0

    def test_config_overrides_defaults(self, dataset, tmp_path):
        cfg = tmp_path / "cfg"
        cfg.write_text(TINY_MODEL + f"data={dataset}\nfolds=2\nepochs=1\n")
        out = str(tmp_path / "run")
        assert run(["train", "--config", str(cfg), "--out", out]) == 0

    def test_unknown_config_key_exit_1(self, dataset, tmp_path):
        cfg = tmp_path / "cfg"
        cfg.write_text("optimizer=sgd\n")
        assert run(["train", "--data", dataset, "--config", str(cfg)]) == 1

    def test_unparsable_config_value_names_file_line_and_key(self, dataset, tmp_path, capsys):
        cfg = tmp_path / "cfg"
        cfg.write_text(TINY_MODEL + "epochs=ten\n")
        assert run(["train", "--data", dataset, "--config", str(cfg)]) == 1
        err = capsys.readouterr().err
        assert f"{cfg}:6: epochs: expected int, got 'ten'" in err

    def test_config_key_set_twice_exit_1(self, dataset, tmp_path, capsys):
        cfg = tmp_path / "cfg"
        cfg.write_text("epochs=1\nlr=0.01\nepochs=2\n")
        out = tmp_path / "run"
        assert run(["train", "--data", dataset, "--config", str(cfg), "--out", str(out)]) == 1
        assert f"{cfg}:3: epochs: already set on line 1" in capsys.readouterr().err
        assert not out.exists()

    def test_encoder_flags(self, dataset, tmp_path):
        out = str(tmp_path / "run")
        assert run(["train", "--data", dataset, "--L", "1", "--H", "8", "--A", "2",
                    "--F", "8", "--s-max", "32", "--p-drop", "0.25", "--folds", "2",
                    "--epochs", "1", "--out", out]) == 0
        meta, _ = load_checkpoint(os.path.join(out, "model.ckpt"))
        assert {k: meta["encoder"][k] for k in ("L", "H", "A", "F", "S_max", "p_drop")} == \
            {"L": 1, "H": 8, "A": 2, "F": 8, "S_max": 32, "p_drop": 0.25}

    def test_dump_epochs(self, dataset, tmp_path):
        cfg = tmp_path / "cfg"
        cfg.write_text(TINY_MODEL)
        out = str(tmp_path / "run")
        rc = run(["train", "--data", dataset, "--config", str(cfg),
                  "--folds", "2", "--epochs", "2", "--out", out,
                  "--dump-epochs", "1,2"])
        assert rc == 0
        dumps = os.path.join(out, "dumps")
        assert sorted(os.listdir(dumps)) == [
            "cls_epoch1_layer1.csv", "cls_epoch2_layer1.csv"]

    def test_prepares_the_data_once(self, dataset, tiny_cfg, tmp_path, monkeypatch):
        calls = {}

        def counted(name, fn):
            def wrapper(*args, **kwargs):
                calls[name] = calls.get(name, 0) + 1
                return fn(*args, **kwargs)
            return wrapper

        for home, name in ((data, "vocab_for_examples"), (data, "pack_dataset"),
                           (train, "kfold_split")):
            wrapper = counted(name, getattr(home, name))
            for module in (data, train, cli):  # every module that may hold the name
                if hasattr(module, name):
                    monkeypatch.setattr(module, name, wrapper)
        assert run(["train", "--data", dataset, "--config", tiny_cfg,
                    "--folds", "2", "--epochs", "1", "--dump-epochs", "1",
                    "--out", str(tmp_path / "run")]) == 0
        assert calls == {"vocab_for_examples": 1, "pack_dataset": 1, "kfold_split": 1}

    def test_same_seed_rerun_byte_identical_artifacts(self, dataset, tiny_cfg, tmp_path):
        outs = [str(tmp_path / name) for name in ("a", "b")]
        for out in outs:
            assert run(["train", "--data", dataset, "--config", tiny_cfg,
                        "--L", "2", "--pooling", "lstm", "--folds", "3", "--epochs", "2",
                        "--dump-epochs", "1,2", "--seed", "3", "--out", out]) == 0
        dumps = [f"cls_epoch{e}_layer{layer}.csv" for e in (1, 2) for layer in (1, 2)]
        assert sorted(os.listdir(os.path.join(outs[0], "dumps"))) == dumps
        for name in ["results.csv", "model.ckpt"] + [os.path.join("dumps", d) for d in dumps]:
            with open(os.path.join(outs[0], name), "rb") as a, \
                    open(os.path.join(outs[1], name), "rb") as b:
                assert a.read() == b.read(), name

    # A dump list's upper bound is another key's value; an entry that is not
    # an integer >= 1 is refused by the parse (TestOneParsePerSetting.BAD).
    @pytest.mark.parametrize("flags, message", [
        (["--epochs", "2", "--dump-epochs", "7"], "--dump-epochs: 7 is out of range 1..2 (--epochs)"),
        (["--L", "1", "--epochs", "3", "--dump-epochs", "2", "--dump-layers", "5"],
         "--dump-layers: 5 is out of range 1..1 (--L)"),
    ])
    def test_dump_flags_checked_before_training(self, dataset, tiny_cfg, tmp_path, monkeypatch,
                                                capsys, flags, message):
        trained = []
        monkeypatch.setattr(train, "train_model", lambda *a, **k: trained.append(1))
        out = tmp_path / "run"
        assert run(["train", "--data", dataset, "--config", tiny_cfg,
                    "--folds", "2", "--out", str(out)] + flags) == 1
        assert message in capsys.readouterr().err
        assert trained == []
        assert not (out / "results.csv").exists()

    @pytest.mark.parametrize("flags, message", [
        (["--H", "10", "--A", "4"], "hidden size H=10 not divisible by head count A=4"),
        (["--epochs", "2", "--dump-epochs", "7"], "--dump-epochs: 7 is out of range 1..2 (--epochs)"),
    ])
    def test_settings_checked_before_the_data_is_read(self, tmp_path, capsys, flags, message):
        bad = tmp_path / "bad.jsonl"
        bad.write_text("{not json\n")
        out = tmp_path / "run"
        assert run(["train", "--data", str(bad), "--out", str(out)] + flags) == 1
        err = capsys.readouterr().err
        assert message in err and "invalid JSON" not in err
        assert not out.exists()

    def test_class_count_from_schema(self, dataset, tiny_cfg, tmp_path):
        # Trained without any `positive` example, the checkpoint still has
        # every absa class, so eval on data that has them succeeds.
        two = tmp_path / "two.jsonl"
        with open(dataset, encoding="utf-8") as f:
            two.write_text("".join(line for line in f
                                   if json.loads(line)["label"] != "positive"))
        out = str(tmp_path / "run")
        assert run(["train", "--data", str(two), "--config", tiny_cfg,
                    "--folds", "2", "--epochs", "1", "--out", out]) == 0
        ckpt = os.path.join(out, "model.ckpt")
        meta, _ = load_checkpoint(ckpt)
        assert meta["n_classes"] == 3
        assert run(["eval", "--checkpoint", ckpt, "--data", dataset]) == 0

    def test_cv_fold_class_count_from_schema(self, tiny_cfg, tmp_path):
        # The CV folds, like the checkpoint, get one class per schema label,
        # so results.csv keeps the column of a class that the data lacks.
        path = str(tmp_path / "data60.jsonl")
        assert run(["synth", "--n", "60", "--seed", "0", "--out", path]) == 0
        two = tmp_path / "two.jsonl"
        with open(path, encoding="utf-8") as f:
            two.write_text("".join(line for line in f
                                   if json.loads(line)["label"] != "positive"))
        out = str(tmp_path / "run")
        assert run(["train", "--data", str(two), "--config", tiny_cfg,
                    "--folds", "2", "--epochs", "1", "--out", out]) == 0
        header, rows = train.read_results_csv(os.path.join(out, "results.csv"))
        assert header == ["fold", "accuracy", "macro_f1",
                          "f1_class0", "f1_class1", "f1_class2"]
        assert all(len(v) == 5 for v in rows.values())
        meta, _ = load_checkpoint(os.path.join(out, "model.ckpt"))
        assert meta["n_classes"] == 3

    def test_non_finite_loss_exit_1(self, dataset, tiny_cfg, tmp_path, capsys):
        # A huge learning rate overflows the weights after the first step.
        out = str(tmp_path / "run")
        with np.errstate(all="ignore"):
            rc = run(["train", "--data", dataset, "--config", tiny_cfg, "--folds", "2",
                      "--epochs", "1", "--batch-size", "4", "--lr", "1e300", "--out", out])
        err = capsys.readouterr().err
        assert rc == 1
        assert "error: epoch 1, step 2: non-finite loss" in err
        assert "Traceback" not in err
        assert not os.path.exists(os.path.join(out, "results.csv"))


class TestUnusableDataLeavesNoOut:
    """Data that the vocabulary or the folds refuse, a model that cannot be
    allocated and a run that diverges exit 1 with their message, and the run
    creates no ``--out``: nothing is made before the first artifact is written."""

    def test_folds_above_the_dataset_size(self, tmp_path, capsys):
        path = str(tmp_path / "five.jsonl")
        assert run(["synth", "--n", "5", "--seed", "0", "--out", path]) == 0
        capsys.readouterr()
        out = tmp_path / "run"
        assert run(["train", "--data", path, "--folds", "10", "--out", str(out)]) == 1
        assert capsys.readouterr().err == "error: folds=10 exceeds dataset size 5\n"
        assert not out.exists()

    @pytest.mark.parametrize("existed", [False, True])
    def test_model_that_cannot_be_allocated(self, dataset, tiny_cfg, tmp_path, capsys, existed):
        # A 10¹²×64 position table, 512 TB, is beyond a 47-bit address space,
        # so the allocation fails at once; no --out is made, and one that was
        # there stays.
        out = tmp_path / "run"
        if existed:
            out.mkdir()
        assert run(["train", "--data", dataset, "--config", tiny_cfg, "--s-max", str(10**12),
                    "--H", "64", "--out", str(out)]) == 1
        assert "(1000000000000, 64)" in capsys.readouterr().err
        assert out.exists() == existed

    def test_texts_all_empty(self, tmp_path, capsys):
        path = tmp_path / "empty_texts.jsonl"
        path.write_text("".join(json.dumps({"text": text, "aspect": "", "label": label}) + "\n"
                                for text, label in (("", "positive"), ("  ", "negative"))))
        out = tmp_path / "run"
        assert run(["train", "--data", str(path), "--out", str(out)]) == 1
        assert capsys.readouterr().err == "error: cannot build a vocabulary from an empty corpus\n"
        assert not out.exists()

    def test_diverging_run_leaves_no_nested_out(self, dataset, tmp_path, capsys):
        out = tmp_path / "x" / "y" / "z"
        assert run(["train", "--data", dataset, "--out", str(out), "--lr", "1e300", "--L", "1",
                    "--H", "8", "--A", "2", "--F", "8", "--epochs", "1", "--folds", "2"]) == 1
        assert "non-finite" in capsys.readouterr().err
        assert not (tmp_path / "x").exists()


class TestOutCheckedBeforeTheDataIsRead:
    """An ``--out`` that the writers could not make or write in exits 1 with
    the text ``os.makedirs`` gives, before the data is read, creating nothing."""

    def run_unread(self, dataset, tmp_path, monkeypatch, out):
        read = []
        monkeypatch.setattr(cli, "load_jsonl", lambda *a, **k: read.append(1))
        before = sorted(os.listdir(tmp_path))
        assert run(["train", "--data", dataset, "--out", out]) == 1
        assert read == []
        assert sorted(os.listdir(tmp_path)) == before

    @pytest.mark.parametrize("sub, message", [
        ("", "[Errno 17] File exists: '{file}'"),
        ("/sub", "[Errno 20] Not a directory: '{file}/sub'"),
        ("/sub/more", "[Errno 20] Not a directory: '{file}/sub'"),
    ])
    def test_file_at_or_above_out(self, dataset, tmp_path, monkeypatch, capsys, sub, message):
        file = tmp_path / "afile"
        file.write_text("")
        self.run_unread(dataset, tmp_path, monkeypatch, str(file) + sub)
        assert capsys.readouterr().err == f"error: {message.format(file=file)}\n"

    @pytest.mark.parametrize("sub, named", [("", ""), ("/run", "/run"), ("/run/sub", "/run")])
    def test_directory_that_cannot_be_written(self, dataset, tmp_path, monkeypatch, capsys,
                                              sub, named):
        # Tests may run as root, which os.access lets write anywhere, so the
        # probe is told that `locked` cannot be written.
        locked = tmp_path / "locked"
        locked.mkdir()
        access = os.access
        monkeypatch.setattr(os, "access", lambda path, mode, **k:
                            path != str(locked) and access(path, mode, **k))
        self.run_unread(dataset, tmp_path, monkeypatch, str(locked) + sub)
        assert capsys.readouterr().err == (f"error: [Errno 13] Permission denied: "
                                           f"'{locked}{named}'\n")
        assert os.listdir(locked) == []


class TestEvalAndProject:
    @pytest.fixture()
    def trained(self, dataset, tmp_path):
        cfg = tmp_path / "cfg"
        cfg.write_text(TINY_MODEL)
        out = str(tmp_path / "run")
        assert run(["train", "--data", dataset, "--config", str(cfg),
                    "--folds", "2", "--epochs", "1", "--out", out,
                    "--dump-epochs", "1"]) == 0
        return out

    def test_eval(self, trained, dataset, capsys):
        rc = run(["eval", "--checkpoint", os.path.join(trained, "model.ckpt"),
                  "--data", dataset])
        assert rc == 0
        out = capsys.readouterr().out
        assert "accuracy" in out
        assert "macro_f1" in out
        assert "f1_class2" in out

    def test_eval_missing_checkpoint_exit_1(self, dataset, tmp_path):
        assert run(["eval", "--checkpoint", str(tmp_path / "no.ckpt"),
                    "--data", dataset]) == 1

    def test_eval_non_checkpoint_file_exit_1(self, dataset, tmp_path):
        bad = tmp_path / "bad.ckpt"
        bad.write_bytes(b"garbage bytes")
        assert run(["eval", "--checkpoint", str(bad), "--data", dataset]) == 1

    def test_eval_truncated_checkpoint_exit_1(self, trained, dataset, tmp_path, capsys):
        with open(os.path.join(trained, "model.ckpt"), "rb") as f:
            head = f.read(14)
        bad = tmp_path / "short.ckpt"
        bad.write_bytes(head)
        assert run(["eval", "--checkpoint", str(bad), "--data", dataset]) == 1
        assert "truncated checkpoint: metadata length at offset 12" in capsys.readouterr().err

    @pytest.mark.parametrize("key, value", [
        ("encoder", None), ("encoder", {"bogus": 1}), ("encoder", {"A": 0}),
        ("pooling", None), ("pooling", "cnn"), ("n_classes", None), ("n_classes", "3"),
        ("vocab", None), ("vocab", "w1 w2"), ("schema", ["absa"]), ("schema", "xyz"),
        # V=6 fits exactly 2 distinct non-reserved tokens.
        ("vocab", ["w1"]), ("vocab", ["w1", "w2", "w3"]), ("vocab", ["w1", "w1"]),
        ("vocab", ["w1", "[CLS]"]),
        # Values of the wrong JSON type: EncoderConfig refuses them itself.
        ("encoder", {"L": "2"}), ("encoder", {"L": True}), ("encoder", {"L": 2.5}),
        ("encoder", {"p_drop": "0.1"}),
    ])
    def test_eval_bad_checkpoint_metadata_exit_1(self, dataset, tmp_path, capsys, key, value):
        cfg = EncoderConfig(L=1, H=4, A=2, F=4, V=6, S_max=8)
        model = PooledClassifier(cfg, "last", 3, R.rng_for(0, 0))
        meta = {"encoder": {"L": 1, "H": 4, "A": 2, "F": 4, "V": 6, "S_max": 8, "p_drop": 0.1},
                "pooling": "last", "n_classes": 3, "vocab": ["w1", "w2"]}
        if value is None:
            del meta[key]
        elif isinstance(value, dict):
            meta[key] = {**meta[key], **value}
        else:
            meta[key] = value
        path = str(tmp_path / "bad.ckpt")
        save_checkpoint(path, meta, {k: v.data for k, v in model.parameters().items()})
        assert run(["eval", "--checkpoint", path, "--data", dataset]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and f"'{key}" in err
        assert "Traceback" not in err

    def test_eval_checkpoint_without_schema_reads_absa(self, dataset, tmp_path, capsys):
        cfg = EncoderConfig(L=1, H=4, A=2, F=4, V=6, S_max=8)
        path = str(tmp_path / "m.ckpt")
        PooledClassifier(cfg, "last", 3, R.rng_for(0, 0)).save(path, extra_meta={"vocab": ["w1", "w2"]})
        assert run(["eval", "--checkpoint", path, "--data", dataset]) == 0
        assert "accuracy" in capsys.readouterr().out

    def test_eval_per_gate_lstm_checkpoint_exit_1(self, dataset, tmp_path, capsys):
        """An LSTM checkpoint with twelve per-gate blobs in place of the three
        joined blocks is refused by the parameter check."""
        cfg = EncoderConfig(L=1, H=4, A=2, F=4, V=6, S_max=8)
        path = str(tmp_path / "m.ckpt")
        PooledClassifier(cfg, "lstm", 3, R.rng_for(0, 0)).save(
            path, extra_meta={"vocab": ["w1", "w2"], "schema": "absa"})
        meta, blobs = load_checkpoint(path)
        for kind in "WUb":
            block = blobs.pop(f"lstm/{kind}")
            for k, gate in enumerate("ifgo"):
                blobs[f"lstm/{kind}_{gate}"] = block[..., 4 * k:4 * (k + 1)]
        save_checkpoint(path, meta, blobs)
        assert run(["eval", "--checkpoint", path, "--data", dataset]) == 1
        per_gate = sorted(name for name in blobs if name.startswith("lstm/"))
        assert len(per_gate) == 12
        assert capsys.readouterr().err == (
            "error: checkpoint parameter mismatch: missing=['lstm/U', 'lstm/W', 'lstm/b'], "
            f"unexpected={per_gate}\n")

    def test_eval_per_projection_attention_checkpoint_exit_1(self, dataset, tmp_path, capsys):
        """A checkpoint with six per-projection attention blobs (Wq, bq, Wk,
        bk, Wv, bv) in place of the joined Wqkv and bqkv is refused by the
        parameter check."""
        cfg = EncoderConfig(L=1, H=4, A=2, F=4, V=6, S_max=8)
        path = str(tmp_path / "m.ckpt")
        PooledClassifier(cfg, "last", 3, R.rng_for(0, 0)).save(
            path, extra_meta={"vocab": ["w1", "w2"], "schema": "absa"})
        meta, blobs = load_checkpoint(path)
        per_projection = []
        for kind in "Wb":
            block = blobs.pop(f"layer0/attn/{kind}qkv")
            for k, proj in enumerate("qkv"):
                per_projection.append(f"layer0/attn/{kind}{proj}")
                blobs[per_projection[-1]] = block[..., 4 * k:4 * (k + 1)]
        save_checkpoint(path, meta, blobs)
        assert run(["eval", "--checkpoint", path, "--data", dataset]) == 1
        assert len(per_projection) == 6
        assert capsys.readouterr().err == (
            "error: checkpoint parameter mismatch: "
            "missing=['layer0/attn/Wqkv', 'layer0/attn/bqkv'], "
            f"unexpected={sorted(per_projection)}\n")

    def test_project(self, trained, tmp_path, capsys):
        out = str(tmp_path / "proj")
        rc = run(["project", "--dumps", os.path.join(trained, "dumps"),
                  "--out", out])
        assert rc == 0
        assert os.path.exists(os.path.join(out, "cluster_scores.csv"))
        assert "cluster score" in capsys.readouterr().out

    def test_project_empty_dir_exit_1(self, tmp_path):
        empty = tmp_path / "empty"
        empty.mkdir()
        assert run(["project", "--dumps", str(empty),
                    "--out", str(tmp_path / "o")]) == 1


class TestProjectNamesTheBadDump:
    """A dump that cannot be projected or scored exits 1 with a message that
    starts with its path, and nothing is written to --out."""

    def project_error(self, dumps, tmp_path, capsys):
        capsys.readouterr()
        out = tmp_path / "proj"
        assert run(["project", "--dumps", str(dumps), "--out", str(out)]) == 1
        assert not out.exists()
        err = capsys.readouterr().err
        assert "Traceback" not in err
        return err

    def test_one_dimensional_states(self, dataset, tmp_path, capsys):
        run_dir = tmp_path / "run"
        assert run(["train", "--data", dataset, "--L", "1", "--H", "1", "--A", "1", "--F", "2",
                    "--folds", "2", "--epochs", "1", "--dump-epochs", "1",
                    "--out", str(run_dir)]) == 0
        dump = run_dir / "dumps" / "cls_epoch1_layer1.csv"
        err = self.project_error(run_dir / "dumps", tmp_path, capsys)
        assert err == f"error: {dump}: k=2 exceeds dimensionality 1\n"

    def test_held_out_set_with_one_class(self, tiny_cfg, tmp_path, capsys):
        data_path = str(tmp_path / "one_class.jsonl")
        assert run(["synth", "--n", "30", "--classes", "1", "--out", data_path]) == 0
        run_dir = tmp_path / "run"
        assert run(["train", "--data", data_path, "--config", tiny_cfg, "--folds", "2",
                    "--epochs", "1", "--dump-epochs", "1", "--out", str(run_dir)]) == 0
        dump = run_dir / "dumps" / "cls_epoch1_layer1.csv"
        err = self.project_error(run_dir / "dumps", tmp_path, capsys)
        assert err == f"error: {dump}: cluster score needs at least 2 classes present\n"

    def test_identical_vectors(self, tmp_path, capsys):
        dumps = tmp_path / "dumps"
        dumps.mkdir()
        dump = dumps / "cls_epoch1_layer1.csv"
        dump.write_text("example_id,label,v0,v1\n0,0,1.0,2.0\n1,1,1.0,2.0\n2,2,1.0,2.0\n")
        err = self.project_error(dumps, tmp_path, capsys)
        assert err.startswith(f"error: {dump}: all vectors are identical")

    def test_coinciding_class_centroids(self, tmp_path, capsys):
        # Class 0 at (±1, 0) and class 1 at (0, ±1): a cluster score of inf, not a number.
        dumps = tmp_path / "dumps"
        dumps.mkdir()
        dump = dumps / "cls_epoch1_layer1.csv"
        dump.write_text("example_id,label,v0,v1\n0,0,1.0,0.0\n1,0,-1.0,0.0\n"
                        "2,1,0.0,1.0\n3,1,0.0,-1.0\n")
        err = self.project_error(dumps, tmp_path, capsys)
        assert err.startswith(f"error: {dump}: cluster score is undefined: the class centroids "
                              "coincide")


class TestGradcheck:
    def test_single_seed(self, capsys):
        assert run(["gradcheck", "--seeds", "1"]) == 0
        assert "composite_graph" in capsys.readouterr().out

    @pytest.mark.parametrize("seeds", ["0", "-3"])
    def test_fewer_than_one_seed_exit_2(self, capsys, seeds):
        assert run(["gradcheck", "--seeds", seeds]) == 2
        out, err = capsys.readouterr()
        assert f"argument --seeds: must be >= 1, got {seeds}" in err
        assert "[ok]" not in out

    def test_run_gradcheck_rejects_zero_seeds(self):
        from clspool.gradcheck import run_gradcheck
        with pytest.raises(ValueError, match="seeds must be >= 1, got 0"):
            run_gradcheck(seeds=0)

    def test_run_gradcheck_rejects_a_count_that_is_not_an_integer(self):
        from clspool.gradcheck import run_gradcheck
        with pytest.raises(ValueError, match=r"seeds must be an integer, got 1\.5"):
            run_gradcheck(seeds=1.5)


class TestNegativeSeed:
    def test_synth_exit_2(self, tmp_path, capsys):
        out = tmp_path / "x.jsonl"
        assert run(["synth", "--n", "10", "--seed", "-3", "--out", str(out)]) == 2
        assert "argument --seed: must be >= 0, got -3" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("n", ["-4", "0"])
    def test_synth_n_below_one_exit_2(self, tmp_path, capsys, n):
        out = tmp_path / "x.jsonl"
        assert run(["synth", "--n", n, "--out", str(out)]) == 2
        assert f"argument --n: must be >= 1, got {n}" in capsys.readouterr().err
        assert not out.exists()

    # (key, value, message): a negative seed, and a learning rate or an L2
    # coefficient that is not finite.
    BAD_SETTINGS = [("seed", "-1", "seed must be >= 0, got -1"),
                    ("lr", "nan", "learning rate must be finite and > 0, got nan"),
                    ("lr", "inf", "learning rate must be finite and > 0, got inf"),
                    ("lam", "nan", "L2 coefficient must be finite and >= 0, got nan"),
                    ("lam", "inf", "L2 coefficient must be finite and >= 0, got inf")]

    def test_train_flag_exit_2(self, dataset, tmp_path, capsys):
        out = tmp_path / "run"
        for key, value, message in self.BAD_SETTINGS:
            assert run(["train", "--data", dataset, f"--{key}", value, "--out", str(out)]) == 2
            assert f"argument --{key}: {message}" in capsys.readouterr().err
            assert not out.exists()

    def test_config_file_names_file_and_line(self, dataset, tmp_path, capsys):
        cfg = tmp_path / "cfg"
        out = tmp_path / "run"
        for key, value, message in self.BAD_SETTINGS:
            cfg.write_text(TINY_MODEL + f"{key}={value}\n")
            assert run(["train", "--data", dataset, "--config", str(cfg),
                        "--out", str(out)]) == 1
            err = capsys.readouterr().err
            assert f"error: {cfg}:6: {key}: {message}" in err
            assert "Traceback" not in err and not out.exists()


class TestEncoderSettings:
    @pytest.mark.parametrize("flags, message", [
        (["--L", "0"], "argument --L: L must be >= 1, got 0"),
        (["--A", "-2"], "argument --A: A must be >= 1, got -2"),
        (["--s-max", "0"], "argument --s-max: S_max must be >= 4, got 0"),
        (["--p-drop", "1.0"], "argument --p-drop: dropout rate must be in [0, 1), got 1.0"),
        (["--s-max", "3"], "argument --s-max: S_max must be >= 4, got 3"),
    ])
    def test_flag_exit_2_names_the_flag(self, dataset, tmp_path, capsys, flags, message):
        out = tmp_path / "run"
        assert run(["train", "--data", dataset, *flags, "--out", str(out)]) == 2
        assert message in capsys.readouterr().err
        assert not out.exists()

    def test_config_file_names_file_and_line(self, dataset, tmp_path, capsys):
        cfg = tmp_path / "cfg"
        cfg.write_text("H=8\nL=0\n")
        out = tmp_path / "run"
        assert run(["train", "--data", dataset, "--config", str(cfg),
                    "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert f"error: {cfg}:2: L: L must be >= 1, got 0" in err
        assert "Traceback" not in err and not out.exists()

    def test_config_file_s_max_below_4_names_file_and_line(self, dataset, tmp_path, capsys):
        cfg = tmp_path / "cfg"
        cfg.write_text("H=8\ns_max=3\n")
        out = tmp_path / "run"
        assert run(["train", "--data", dataset, "--config", str(cfg),
                    "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert f"error: {cfg}:2: s_max: S_max must be >= 4, got 3" in err
        assert "Traceback" not in err and not out.exists()

    @pytest.mark.parametrize("source", ["flag", "file"])
    def test_s_max_beyond_int64_refused_by_both_routes(self, dataset, tmp_path, capsys, source):
        # numpy's int64 cannot hold 10²³, so the packing could not take it.
        cfg = tmp_path / "cfg"
        cfg.write_text(f"H=8\ns_max={10**23}\n")
        settings = ["--s-max", str(10**23)] if source == "flag" else ["--config", str(cfg)]
        out = tmp_path / "run"
        rc = run(["train", "--data", dataset, *settings, "--out", str(out)])
        err = capsys.readouterr().err
        reason = f"S_max must be <= {2**63 - 1}, got {10**23}"
        if source == "flag":
            assert rc == 2 and f"argument --s-max: {reason}" in err
        else:
            assert rc == 1 and f"error: {cfg}:2: s_max: {reason}" in err
        assert "Traceback" not in err and not out.exists()

    @pytest.mark.parametrize("source", ["flags", "file"])
    def test_head_count_mismatch_names_both_keys(self, dataset, tmp_path, capsys, source):
        cfg = tmp_path / "cfg"
        cfg.write_text("H=10\nA=4\n")
        settings = ["--H", "10", "--A", "4"] if source == "flags" else ["--config", str(cfg)]
        out = tmp_path / "run"
        assert run(["train", "--data", dataset, *settings, "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert "error: hidden size H=10 not divisible by head count A=4" in err
        assert not out.exists()


class TestOneParsePerSetting:
    """A `train` flag and its config line parse a value by one route."""

    # (key, text): an unparsable int and float, values out of range, bad choices,
    # a dump list that does not parse, two with an entry below 1 and two with
    # a repeated entry.
    BAD = [("epochs", "ten"), ("lr", "fast"), ("seed", "-1"), ("L", "0"), ("p_drop", "1.0"),
           ("pooling", "cnn"), ("schema", "xyz"), ("dump_epochs", "1,a"), ("dump_epochs", "1,0"),
           ("dump_layers", "0"), ("dump_epochs", "2,1,2"), ("dump_layers", "1,1")]

    def test_same_reason_from_flag_and_config_line(self, dataset, tmp_path, capsys):
        cfg, out = tmp_path / "cfg", tmp_path / "run"
        for key, text in self.BAD:
            flag = "--" + key.replace("_", "-")
            assert run(["train", "--data", dataset, flag, text, "--out", str(out)]) == 2
            flag_err = capsys.readouterr().err.splitlines()[-1]
            cfg.write_text(f"{key}={text}\n")
            assert run(["train", "--data", dataset, "--config", str(cfg), "--out", str(out)]) == 1
            file_err = capsys.readouterr().err.splitlines()
            flag_prefix = f"clspool train: error: argument {flag}: "
            file_prefix = f"error: {cfg}:1: {key}: "
            assert flag_err.startswith(flag_prefix), flag_err
            assert len(file_err) == 1 and file_err[0].startswith(file_prefix), file_err
            reason = flag_err[len(flag_prefix):]
            assert reason and reason == file_err[0][len(file_prefix):]
            assert not out.exists()

    def test_repeated_dump_entry_refused_by_both_routes(self, dataset, tmp_path, capsys):
        # A repeated entry would dump the same file twice.
        cfg, out = tmp_path / "cfg", tmp_path / "run"
        assert run(["train", "--data", dataset, "--dump-layers", "1,1", "--out", str(out)]) == 2
        assert capsys.readouterr().err.splitlines()[-1] == (
            "clspool train: error: argument --dump-layers: expected distinct integers, got '1,1'")
        cfg.write_text("epochs=2\ndump_epochs=1,1\n")
        assert run(["train", "--data", dataset, "--config", str(cfg), "--out", str(out)]) == 1
        assert capsys.readouterr().err == (
            f"error: {cfg}:2: dump_epochs: expected distinct integers, got '1,1'\n")
        assert not out.exists()

    def test_every_default_parses_back_by_both_routes(self, tmp_path):
        # A default written as text must read back as itself, type and all
        # (a bool setting would not: bool("False") is True); a tuple, a dump
        # list, is written as its comma list.
        defaults = {key: default for key, (_, default) in cli._TRAIN_KEYS.items()
                    if key != "data"}
        assert {type(d) for d in defaults.values()} == {str, int, float, tuple}
        texts = {key: ",".join(map(str, d)) if isinstance(d, tuple) else str(d)
                 for key, d in defaults.items()}
        flags = [arg for key, text in texts.items()
                 for arg in ("--" + key.replace("_", "-"), text)]
        args = cli.build_parser().parse_args(["train", *flags])
        cfg = tmp_path / "cfg"
        cfg.write_text("".join(f"{key}={text}\n" for key, text in texts.items()))
        typed = {key: (type(value), value) for key, value in defaults.items()}
        assert {key: (type(value), value) for key, value in vars(args).items()
                if key in defaults} == typed
        assert {key: (type(value), value)
                for key, value in cli._read_config_file(str(cfg)).items()} == typed

    def test_help_lists_the_choices(self, capsys):
        assert run(["train", "--help"]) == 0
        out = capsys.readouterr().out
        assert "--schema {absa,nli}" in out and "--pooling {last,lstm,attention}" in out


class TestNLI:
    """The paper's second task, premise/hypothesis pairs, through train and eval."""

    @pytest.fixture()
    def nli_dataset(self, tmp_path):
        subjects = ["a man", "a woman", "two kids", "the dog", "an old chef", "the band",
                    "a cyclist", "three friends"]
        hypotheses = {"entailment": "{} is outside", "neutral": "{} is on holiday",
                      "contradiction": "{} is asleep indoors"}
        path = tmp_path / "nli.jsonl"
        with open(path, "w", encoding="utf-8") as f:
            for i, subject in enumerate(subjects):
                for label, hypothesis in hypotheses.items():
                    f.write(json.dumps({"premise": f"{subject} walks in the park at {i} pm",
                                        "hypothesis": hypothesis.format(subject),
                                        "label": label}) + "\n")
        return str(path)

    def test_train_and_eval(self, nli_dataset, dataset, tiny_cfg, tmp_path, capsys):
        assert len(load_jsonl(nli_dataset, "nli")) == 24
        out = tmp_path / "run"
        assert run(["train", "--data", nli_dataset, "--schema", "nli", "--config", tiny_cfg,
                    "--folds", "2", "--epochs", "1", "--out", str(out)]) == 0
        ckpt = str(out / "model.ckpt")
        meta, _ = load_checkpoint(ckpt)
        assert meta["schema"] == "nli"
        assert run(["eval", "--checkpoint", ckpt, "--data", nli_dataset]) == 0
        capsys.readouterr()
        # An absa file has no premise.
        assert run(["eval", "--checkpoint", ckpt, "--data", dataset]) == 1
        assert "missing field 'premise'" in capsys.readouterr().err


class TestPaddedData:
    """Texts of 1 to 15 tokens, so every batch pads and masks (ROADMAP aim 3)."""

    @pytest.fixture()
    def padded_dataset(self, tmp_path):
        rng = np.random.default_rng(5)
        labels = ["negative", "neutral", "positive"]
        path = tmp_path / "padded.jsonl"
        with open(path, "w", encoding="utf-8") as f:
            for i in range(24):
                n = 1 + i % 15
                label = int(rng.integers(3))
                words = [f"w{int(w)}" for w in rng.integers(12, size=n)]
                words[int(rng.integers(n))] = labels[label]
                f.write(json.dumps({"text": " ".join(words), "aspect": f"a{i % 3}",
                                    "label": labels[label]}) + "\n")
        return str(path)

    def test_rerun_and_one_at_a_time_predictions(self, padded_dataset, tiny_cfg, tmp_path):
        outs = [str(tmp_path / name) for name in ("a", "b")]
        for out in outs:
            assert run(["train", "--data", padded_dataset, "--config", tiny_cfg, "--L", "2",
                        "--pooling", "attention", "--folds", "2", "--epochs", "1",
                        "--batch-size", "8", "--seed", "4", "--out", out]) == 0
        for name in ("results.csv", "model.ckpt"):
            with open(os.path.join(outs[0], name), "rb") as a, \
                    open(os.path.join(outs[1], name), "rb") as b:
                assert a.read() == b.read(), name

        model, meta = PooledClassifier.load(os.path.join(outs[0], "model.ckpt"))
        as_float64(model)   # held to float64 rounding; TestFloat32Model bounds float32's
        tok, seg, mask, _ = data.pack_dataset(load_jsonl(padded_dataset, "absa"),
                                              data.Vocab(meta["vocab"]), model.config.S_max)
        lengths = mask.sum(axis=1)
        assert lengths.min() < lengths.max() == tok.shape[1]   # the batch really pads
        logits = model.forward_batch(tok, seg, mask).data
        alone = np.vstack([model.forward_batch(tok[i:i + 1, :n], seg[i:i + 1, :n],
                                               mask[i:i + 1, :n]).data
                           for i, n in enumerate(lengths)])
        np.testing.assert_allclose(logits, alone, rtol=1e-12, atol=0)
        np.testing.assert_array_equal(model.predict(tok, seg, mask), alone.argmax(axis=1))


class TestUsage:
    def test_no_command_exit_2(self):
        assert run([]) == 2

    def test_unknown_command_exit_2(self):
        assert run(["frobnicate"]) == 2

    def test_python_m_clspool_help_exit_0(self):
        # ``python -m clspool`` runs the CLI from a source checkout, no install needed.
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            filter(None, [os.path.dirname(os.path.dirname(cli.__file__)),
                          os.environ.get("PYTHONPATH")])))
        done = subprocess.run([sys.executable, "-m", "clspool", "--help"],
                              env=env, capture_output=True, text=True, timeout=60)
        assert done.returncode == 0, done.stderr
        assert done.stdout.startswith("usage: clspool")
        assert "gradcheck" in done.stdout


class TestDataErrors:
    def test_malformed_jsonl_exit_1(self, tmp_path, capsys):
        path = tmp_path / "bad.jsonl"
        path.write_text(json.dumps({"text": "x", "aspect": "y",
                                    "label": "amazing"}) + "\n")
        rc = run(["train", "--data", str(path), "--folds", "2", "--epochs", "1"])
        assert rc == 1
        assert "error:" in capsys.readouterr().err

    @pytest.mark.parametrize("content", ["", "\n  \n"])
    @pytest.mark.parametrize("command", ["train", "eval"])
    def test_empty_data_file_named_exit_1(self, tmp_path, capsys, command, content):
        path = tmp_path / "empty.jsonl"
        path.write_text(content)
        if command == "train":
            argv = ["train", "--data", str(path), "--out", str(tmp_path / "run")]
        else:
            cfg = EncoderConfig(L=1, H=4, A=2, F=4, V=6, S_max=8)
            model = PooledClassifier(cfg, "last", 3, R.rng_for(0, 0))
            ckpt = str(tmp_path / "m.ckpt")
            model.save(ckpt, extra_meta={"vocab": ["w1", "w2"], "schema": "absa"})
            argv = ["eval", "--checkpoint", ckpt, "--data", str(path)]
        assert run(argv) == 1
        assert capsys.readouterr().err == f"error: {path}: no examples\n"


class TestNoTraceback:
    """Bad paths, flags, input lines and non-finite values end in exit 1 or 2
    with a message that says where the fault is."""

    @pytest.fixture()
    def paths(self, tmp_path):
        (tmp_path / "adir").mkdir()
        (tmp_path / "afile").write_text("")
        return str(tmp_path / "adir"), str(tmp_path / "afile")

    @pytest.mark.parametrize("argv, expect", [
        (["train", "--config", "{dir}"], "Is a directory: '{dir}'"),
        (["train", "--data", "{dir}"], "Is a directory: '{dir}'"),
        (["eval", "--checkpoint", "{dir}", "--data", "{data}"], "Is a directory: '{dir}'"),
        (["train", "--data", "{data}", "--out", "{file}"], "File exists: '{file}'"),
        (["project", "--dumps", "{file}", "--out", "{dir}/p"], "Not a directory: '{file}'"),
        (["train", "--data", "{data}", "--out", "{file}/sub"], "Not a directory: '{file}/sub'"),
    ])
    def test_os_errors_exit_1(self, paths, dataset, capsys, argv, expect):
        names = {"dir": paths[0], "file": paths[1], "data": dataset}
        assert run([a.format(**names) for a in argv]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and expect.format(**names) in err
        assert "Traceback" not in err

    def test_eval_oversized_class_count_names_the_key(self, dataset, tmp_path, capsys):
        # Refused by the size check before the model is built: a 10¹²-column
        # classifier is never allocated.
        cfg = EncoderConfig(L=1, H=4, A=2, F=4, V=6, S_max=8)
        path = str(tmp_path / "m.ckpt")
        PooledClassifier(cfg, "last", 3, R.rng_for(0, 0)).save(
            path, extra_meta={"vocab": ["w1", "w2"], "n_classes": 10**12})
        assert run(["eval", "--checkpoint", path, "--data", dataset]) == 1
        assert capsys.readouterr().err == (
            "error: checkpoint parameter mismatch: metadata 'n_classes' is 1000000000000, "
            "but parameter 'classifier/W_o' has shape (4, 3)\n")

    def test_train_allocation_failure_exit_1(self, dataset, tiny_cfg, tmp_path, capsys):
        # A 10¹²×64 position table, 512 TB, is beyond a 47-bit address space,
        # so the allocation fails at once and is reported.
        assert run(["train", "--data", dataset, "--config", tiny_cfg, "--s-max", str(10**12),
                    "--H", "64", "--out", str(tmp_path / "run")]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "(1000000000000, 64)" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("classes", ["0", "4", "5", "-1"])
    def test_synth_classes_outside_1_to_3_exit_2(self, tmp_path, capsys, classes):
        out = tmp_path / "x.jsonl"
        assert run(["synth", "--n", "10", "--classes", classes, "--out", str(out)]) == 2
        assert "--classes: invalid choice" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("classes", ["1", "2", "3"])
    def test_synth_classes_1_to_3_accepted(self, tmp_path, classes):
        out = str(tmp_path / "x.jsonl")
        assert run(["synth", "--n", "10", "--classes", classes, "--out", out]) == 0
        assert {e.label for e in load_jsonl(out, "absa")} == set(range(int(classes)))

    @pytest.mark.parametrize("line, kind", [("5", "int"), ("null", "NoneType"),
                                            ('"a b c"', "str"), ("[1, 2]", "list")])
    def test_jsonl_line_not_an_object_exit_1(self, tmp_path, capsys, line, kind):
        path = tmp_path / "bad.jsonl"
        good = json.dumps({"text": "a b", "aspect": "a", "label": "positive"})
        path.write_text(good + "\n" + line + "\n")
        assert run(["train", "--data", str(path)]) == 1
        err = capsys.readouterr().err
        assert f"error: {path}:2: expected a JSON object, got {kind}" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("command", ["train", "eval"])
    def test_non_string_text_field_names_line_exit_1(self, tmp_path, capsys, command):
        path = tmp_path / "bad.jsonl"
        good = {"text": "a b", "aspect": "a", "label": "positive"}
        path.write_text(json.dumps(good) + "\n" + json.dumps({**good, "text": None}) + "\n")
        if command == "train":
            argv = ["train", "--data", str(path), "--out", str(tmp_path / "run")]
        else:
            cfg = EncoderConfig(L=1, H=4, A=2, F=4, V=6, S_max=8)
            model = PooledClassifier(cfg, "last", 3, R.rng_for(0, 0))
            ckpt = str(tmp_path / "m.ckpt")
            model.save(ckpt, extra_meta={"vocab": ["a", "b"], "schema": "absa"})
            argv = ["eval", "--checkpoint", ckpt, "--data", str(path)]
        assert run(argv) == 1
        err = capsys.readouterr().err
        assert err == f"error: {path}:2: field 'text' must be a string, got null\n"
        assert not (tmp_path / "run").exists()

    @pytest.mark.parametrize("name, body, where", [
        ("cls_epoch1_layer1.csv", "0,0,1.0,2.0\nx,1,1.0,2.0\n", ":3: "),
        ("cls_epoch1_layer1.csv", "0,0,1.0,2.0\n1,one,1.0,2.0\n", ":3: "),
        ("cls_epoch1_layer1.csv", "0,0.5,1.0,2.0\n1,1,1.0,2.0\n", ":2: "),
        ("cls_epoch1_layer1.csv", "0,0,1.0,2.0\n1,1,1.0\n", ":3: expected 4 fields, got 3"),
        ("cls_epoch1_layer1.csv", "0,0,1.0,2.0,3.0\n", ":2: expected 4 fields, got 5"),
        ("cls_epoch1_layer1.csv", "", ":2: no data rows"),
        ("cls_epoch1_layer1.csv", "0,0,1.0,2.0\n1,1,nan,2.0\n", ":3: non-finite value"),
        ("cls_epoch1_layer1.csv", "0,0,-inf,2.0\n1,1,1.0,2.0\n", ":2: non-finite value"),
        ("cls_epochA_layer1.csv", "0,0,1.0,2.0\n1,1,1.0,2.0\n", ": file name does not match"),
        ("cls_epoch1_layer.csv", "0,0,1.0,2.0\n1,1,1.0,2.0\n", ": file name does not match"),
    ])
    def test_malformed_dump_names_file_and_line(self, tmp_path, capsys, name, body, where):
        dumps = tmp_path / "dumps"
        dumps.mkdir()
        (dumps / name).write_text("example_id,label,v0,v1\n" + body)
        assert run(["project", "--dumps", str(dumps), "--out", str(tmp_path / "p")]) == 1
        err = capsys.readouterr().err
        assert f"error: {dumps / name}{where}" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("argv, name, payload, line", [
        (["train", "--data", "{bad}"], "d.jsonl",
         b'{"text": "a", "aspect": "a", "label": "positive"}\n{"text": "\xff"}\n', 2),
        (["train", "--config", "{bad}"], "c.cfg", b"L=1\nH=\xff8\n", 2),
        (["project", "--dumps", "{dir}", "--out", "{dir}/p"], "cls_epoch1_layer1.csv",
         b"example_id,label,v0,v1\n0,0,1.0,2.0\n1,1,\xff,2.0\n", 3),
    ], ids=["data", "config", "dump"])
    def test_non_utf8_byte_names_file_and_line(self, tmp_path, capsys, argv, name, payload,
                                               line):
        bad = tmp_path / "in" / name
        bad.parent.mkdir()
        bad.write_bytes(payload)
        assert run([a.format(bad=bad, dir=bad.parent) for a in argv]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {bad}:{line}: 'utf-8' codec can't decode byte 0xff")
        assert "Traceback" not in err

    # JSON that the decoder refuses for one of its limits, not for its syntax.
    DECODER_LIMITS = [("[" * 100_000, "maximum recursion depth exceeded"),
                      ("1" * 5000, "Exceeds the limit (4300 digits)")]

    @pytest.mark.parametrize("value, reason", DECODER_LIMITS, ids=["nested", "digits"])
    def test_jsonl_beyond_decoder_limits_names_line(self, tmp_path, capsys, value, reason):
        path = tmp_path / "d.jsonl"
        good = json.dumps({"text": "a b", "aspect": "a", "label": "positive"})
        path.write_text(good + "\n" + '{"text": "a", "aspect": "a", "label": ' + value + "}\n")
        assert run(["train", "--data", str(path), "--folds", "2"]) == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1, err
        assert err[0].startswith(f"error: {path}:2: invalid JSON (") and reason in err[0]

    @pytest.mark.parametrize("value, reason", DECODER_LIMITS, ids=["nested", "digits"])
    def test_checkpoint_metadata_beyond_decoder_limits_names_offset(self, dataset, tmp_path,
                                                                    capsys, value, reason):
        meta = ('{"n_classes": ' + value + "}").encode()
        path = tmp_path / "m.ckpt"
        path.write_bytes(MAGIC + struct.pack("<II", VERSION, len(meta)) + meta
                         + struct.pack("<I", 0))
        assert run(["eval", "--checkpoint", str(path), "--data", dataset]) == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1, err
        assert err[0].startswith(f"error: {path}: bad metadata at offset 16: ")
        assert reason in err[0]

    def test_diverging_run_prints_one_line(self, dataset, tmp_path):
        # The weights overflow in the first step; nothing is scored or saved,
        # and no numpy warning reaches stderr.
        out = tmp_path / "run"
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            filter(None, [os.path.dirname(os.path.dirname(cli.__file__)),
                          os.environ.get("PYTHONPATH")])))
        done = subprocess.run([sys.executable, "-m", "clspool.cli", "train", "--data", dataset,
                               "--epochs", "1", "--folds", "2", "--lr", "1e300",
                               "--out", str(out)],
                              env=env, capture_output=True, text=True, timeout=300)
        assert done.returncode == 1
        lines = done.stderr.splitlines()
        assert len(lines) == 1, done.stderr
        assert lines[0].startswith("error: ") and "non-finite logits" in lines[0]
        assert not (out / "model.ckpt").exists()

    def test_eval_non_finite_checkpoint_exit_1(self, dataset, tmp_path, capsys):
        cfg = EncoderConfig(L=1, H=4, A=2, F=4, V=6, S_max=8)
        path = tmp_path / "inf.ckpt"
        model = PooledClassifier(cfg, "last", 3, R.rng_for(0, 0))
        model.save(str(path), extra_meta={"vocab": ["w1", "w2"]})
        payload = path.read_bytes()
        offset = len(payload) - 4  # the last element of the last blob
        path.write_bytes(payload[:offset] + np.float32(np.inf).tobytes())
        assert run(["eval", "--checkpoint", str(path), "--data", dataset]) == 1
        err = capsys.readouterr().err
        last_name = max(model.parameters())  # blobs are stored in name order
        assert f"non-finite value inf in parameter '{last_name}' at offset {offset}" in err
        assert "Traceback" not in err
