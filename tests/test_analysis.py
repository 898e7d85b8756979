import os

import numpy as np
import numpy.testing as npt
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from clspool import rng as R
from clspool.analysis import (DegenerateDataError, LayerDump, Projection2D,
                              cluster_score, dump_filename, dump_trace,
                              pca_project, project_dump_dir, read_dump,
                              write_dump)
from clspool.data import (DataError, PairExample, pack_dataset, synth_generate,
                          vocab_for_examples)
from clspool.encoder import EncoderConfig
from clspool.model import PooledClassifier
from clspool.train import eval_batches


def make_dump(vectors, labels=None, epoch=1, layer=1):
    vectors = np.asarray(vectors, dtype=float)
    n = len(vectors)
    if labels is None:
        labels = np.zeros(n, dtype=int)
    return LayerDump(epoch=epoch, layer=layer, example_ids=np.arange(n),
                     labels=np.asarray(labels), vectors=vectors)


def eigh_pca_oracle(X, k):
    """Independent PCA oracle via eigendecomposition of the covariance."""
    Xc = X - X.mean(axis=0)
    cov = Xc.T @ Xc / (len(X) - 1)
    w, v = np.linalg.eigh(cov)
    order = np.argsort(w)[::-1][:k]
    comps = v[:, order].T
    for i in range(k):
        nz = np.flatnonzero(np.abs(comps[i]) > 1e-12)
        if nz.size and comps[i, nz[0]] < 0:
            comps[i] = -comps[i]
    return comps, w[order]


class TestPCA:
    def test_points_on_a_line(self):
        t = np.linspace(-2, 2, 9)
        X = np.outer(t, [3.0, 4.0]) + np.array([1.0, -1.0])
        proj = pca_project(make_dump(X), k=2)
        npt.assert_allclose(proj.components[0], [0.6, 0.8], atol=1e-12)
        # all variance on the first component
        assert proj.explained_variance[1] == pytest.approx(0.0, abs=1e-24)
        npt.assert_allclose(proj.points[:, 0], t * 5.0, atol=1e-12)

    def test_axis_aligned_variances(self):
        rng = np.random.default_rng(0)
        X = np.zeros((200, 3))
        X[:, 0] = rng.normal(scale=3.0, size=200)
        X[:, 1] = rng.normal(scale=1.0, size=200)
        X[:, 2] = rng.normal(scale=0.1, size=200)
        proj = pca_project(make_dump(X), k=2)
        assert abs(proj.components[0][0]) > 0.99
        assert abs(proj.components[1][1]) > 0.99
        assert proj.explained_variance[0] > proj.explained_variance[1]

    def test_matches_eigendecomposition_oracle(self):
        rng = np.random.default_rng(1)
        for _ in range(25):
            n = int(rng.integers(5, 50))
            h = int(rng.integers(2, 10))
            X = rng.normal(size=(n, h)) @ rng.normal(size=(h, h))
            proj = pca_project(make_dump(X), k=2)
            comps, var = eigh_pca_oracle(X, 2)
            npt.assert_allclose(proj.components, comps, atol=1e-8)
            npt.assert_allclose(proj.explained_variance, var, atol=1e-8)

    def test_sign_convention(self):
        rng = np.random.default_rng(2)
        X = rng.normal(size=(20, 4))
        proj = pca_project(make_dump(X), k=2)
        for comp in proj.components:
            nz = comp[np.abs(comp) > 1e-12]
            assert nz[0] > 0

    def test_components_orthonormal(self):
        rng = np.random.default_rng(3)
        X = rng.normal(size=(30, 6))
        proj = pca_project(make_dump(X), k=2)
        npt.assert_allclose(proj.components @ proj.components.T, np.eye(2),
                            atol=1e-12)

    def test_projection_recovers_centered_coordinates(self):
        rng = np.random.default_rng(4)
        X = rng.normal(size=(15, 3))
        proj = pca_project(make_dump(X), k=3)
        Xc = X - X.mean(axis=0)
        npt.assert_allclose(proj.points @ proj.components, Xc, atol=1e-10)

    def test_degenerate_identical_points(self):
        X = np.ones((5, 3)) * 0.7
        with pytest.raises(DegenerateDataError):
            pca_project(make_dump(X), k=2)

    def test_tiny_distinct_vectors_are_not_identical(self):
        # The score is invariant under uniform scaling, down to vectors of 1e-9.
        rng = np.random.default_rng(6)
        labels = np.arange(30) % 3
        X = rng.normal(size=(30, 4)) + labels[:, None]
        scores = [cluster_score(pca_project(make_dump(X * scale, labels=labels)))
                  for scale in (1.0, 1e-6, 1e-9)]
        npt.assert_allclose(scores, scores[0], rtol=1e-12)

    def test_one_point_names_the_count(self):
        # One point always centres to zero; the count, not "identical", is the fault.
        with pytest.raises(ValueError, match="at least 2 points, got 1") as err:
            pca_project(make_dump([[0.5, -1.0, 2.0]]), k=2)
        assert not isinstance(err.value, DegenerateDataError)

    def test_k_exceeds_dim(self):
        with pytest.raises(ValueError, match="exceeds"):
            pca_project(make_dump(np.eye(3)[:, :2]), k=3)


class TestClusterScore:
    def proj_of(self, points, labels):
        points = np.asarray(points, dtype=float)
        return Projection2D(components=np.eye(points.shape[1]),
                            explained_variance=np.ones(points.shape[1]),
                            example_ids=np.arange(len(points)),
                            labels=np.asarray(labels), points=points)

    def test_collapsed_clusters_score_zero(self):
        pts = [[0.0, 0.0]] * 4 + [[5.0, 5.0]] * 4
        labels = [0] * 4 + [1] * 4
        assert cluster_score(self.proj_of(pts, labels)) == 0.0

    def test_overlapping_clusters_score_large(self):
        # Same centroid for both classes but wide spread: tiny denominator.
        pts = [[-1, 0], [1, 0], [-1, 0.001], [1, 0.001]]
        labels = [0, 0, 1, 1]
        assert cluster_score(self.proj_of(pts, labels)) > 5.0

    def test_coinciding_centroids_rejected(self):
        # Both class centroids at the origin: the mean inter-centroid distance is 0.
        pts = [[-1, 0], [1, 0], [0, -1], [0, 1]]
        with pytest.raises(ValueError, match="centroids coincide"):
            cluster_score(self.proj_of(pts, [0, 0, 1, 1]))

    def test_hand_computed_value(self):
        # class 0 at (0,0)+/-(1,0); class 1 at (10,0)+/-(1,0)
        pts = [[-1, 0], [1, 0], [9, 0], [11, 0]]
        labels = [0, 0, 1, 1]
        assert cluster_score(self.proj_of(pts, labels)) == pytest.approx(0.1)

    def test_rigid_motion_and_scale_invariance(self):
        rng = np.random.default_rng(5)
        pts = rng.normal(size=(24, 2))
        labels = np.repeat([0, 1, 2], 8)
        base = cluster_score(self.proj_of(pts, labels))
        theta = 1.234
        rot = np.array([[np.cos(theta), -np.sin(theta)],
                        [np.sin(theta), np.cos(theta)]])
        moved = 3.7 * pts @ rot.T + np.array([100.0, -42.0])
        assert cluster_score(self.proj_of(moved, labels)) == pytest.approx(base,
                                                                           abs=1e-10)

    def test_tightening_lowers_score(self):
        rng = np.random.default_rng(6)
        centers = np.array([[0, 0], [10, 0], [0, 10]], dtype=float)
        labels = np.repeat([0, 1, 2], 20)
        noise = rng.normal(size=(60, 2))
        loose = centers[labels] + 2.0 * noise
        tight = centers[labels] + 0.2 * noise
        assert cluster_score(self.proj_of(tight, labels)) < cluster_score(
            self.proj_of(loose, labels))

    def test_single_class_rejected(self):
        with pytest.raises(ValueError, match="classes"):
            cluster_score(self.proj_of(np.eye(2), [0, 0]))


class TestDumpFiles:
    def test_filename(self):
        assert dump_filename(6, 4) == "cls_epoch6_layer4.csv"

    def test_round_trip(self, tmp_path):
        rng = np.random.default_rng(7)
        dump = make_dump(rng.normal(size=(5, 3)), labels=[0, 1, 2, 1, 0],
                         epoch=3, layer=2)
        path = write_dump(dump, str(tmp_path))
        with open(path, "a") as f:
            f.write("\n")  # blank lines are skipped
        back = read_dump(path)
        assert (back.epoch, back.layer) == (3, 2)
        npt.assert_array_equal(back.example_ids, dump.example_ids)
        npt.assert_array_equal(back.labels, dump.labels)
        npt.assert_array_equal(back.vectors, dump.vectors)  # repr round-trips exactly

    @settings(max_examples=100, deadline=None)
    @given(st.lists(st.floats(width=32, allow_nan=False, allow_infinity=False),
                    min_size=1, max_size=12))
    def test_float32_values_read_back_bit_identical(self, tmp_path_factory, values):
        vectors = np.array(values, np.float32).reshape(-1, 1)
        dump = LayerDump(1, 1, np.arange(len(vectors)), np.zeros(len(vectors), int), vectors)
        back = read_dump(write_dump(dump, str(tmp_path_factory.mktemp("dump"))))
        assert np.array_equal(back.vectors.astype(np.float32).view(np.uint32),
                              vectors.view(np.uint32))

    @settings(max_examples=100, deadline=None)
    @given(st.lists(st.floats(allow_nan=False, allow_infinity=False), min_size=1, max_size=12))
    def test_float64_dump_bytes_are_each_values_repr(self, tmp_path_factory, values):
        # The float64 form is Python's shortest repr, the bytes of every
        # float64 dump written before the dtype-aware form.
        vectors = np.array(values).reshape(-1, 1)
        dump = make_dump(vectors)
        path = write_dump(dump, str(tmp_path_factory.mktemp("dump")))
        expected = [f"{i},0," + ",".join(map(repr, row)) for i, row in enumerate(vectors.tolist())]
        with open(path, encoding="utf-8") as f:
            assert f.read().splitlines()[1:] == expected

    def test_header_shape(self, tmp_path):
        dump = make_dump(np.zeros((2, 4)) + [1, 2, 3, 4.0])
        path = write_dump(dump, str(tmp_path))
        with open(path, encoding="utf-8") as f:
            header = f.readline().strip()
        assert header == "example_id,label,v0,v1,v2,v3"

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_state_not_written(self, tmp_path, bad):
        vectors = np.ones((3, 2))
        vectors[1, 0] = bad
        with pytest.raises(ValueError, match="epoch 1, layer 1: non-finite .* example 1"):
            write_dump(make_dump(vectors, labels=[0, 1, 0]), str(tmp_path))
        assert os.listdir(tmp_path) == []

    def test_bad_header_names_line_1(self, tmp_path):
        path = tmp_path / "cls_epoch1_layer1.csv"
        path.write_text("id,label,v0\n0,0,1.0\n")
        with pytest.raises(DataError, match=f"{path}:1: expected header"):
            read_dump(str(path))


def trained_tiny_model(ex=None):
    ex = synth_generate(24, seed=0) if ex is None else ex
    vocab = vocab_for_examples(ex)
    cfg = EncoderConfig(L=3, H=8, A=2, F=12, V=len(vocab), S_max=64, p_drop=0.1)
    arrays = pack_dataset(ex, vocab, 64)
    model = PooledClassifier(cfg, "lstm", 3, R.rng_for(0, 0))
    return model, arrays


class TestDumpTrace:
    def test_file_count_and_rows(self, tmp_path):
        model, arrays = trained_tiny_model()
        paths = dump_trace(model, arrays, epoch=2, layers=[1, 3], out_dir=str(tmp_path))
        assert [os.path.basename(p) for p in paths] == [
            "cls_epoch2_layer1.csv", "cls_epoch2_layer3.csv"]
        for p in paths:
            back = read_dump(p)
            assert back.vectors.shape == (24, 8)

    def test_rerun_bit_identical(self, tmp_path):
        model, arrays = trained_tiny_model()
        a_dir, b_dir = tmp_path / "a", tmp_path / "b"
        dump_trace(model, arrays, epoch=1, layers=[2], out_dir=str(a_dir))
        dump_trace(model, arrays, epoch=1, layers=[2], out_dir=str(b_dir))
        name = "cls_epoch1_layer2.csv"
        assert (a_dir / name).read_bytes() == (b_dir / name).read_bytes()

    def test_missing_nested_out_dir_is_made(self, tmp_path):
        model, arrays = trained_tiny_model()
        out = tmp_path / "a" / "b"
        dump_trace(model, arrays, epoch=1, layers=[2], out_dir=str(out))
        assert os.listdir(out) == ["cls_epoch1_layer2.csv"]

    def test_layer_out_of_range(self, tmp_path):
        model, arrays = trained_tiny_model()
        with pytest.raises(ValueError, match="out of range"):
            dump_trace(model, arrays, epoch=1, layers=[4], out_dir=str(tmp_path))
        with pytest.raises(ValueError, match="out of range"):
            dump_trace(model, arrays, epoch=1, layers=[0], out_dir=str(tmp_path))

    def test_float32_trace_reads_back_bit_identical(self, tmp_path):
        model, arrays = trained_tiny_model()
        dump_trace(model, arrays, epoch=1, layers=[2], out_dir=str(tmp_path))
        trace = np.empty((len(arrays[3]), model.config.H), np.float32)
        for idx, tok, seg, mask in eval_batches(arrays):
            trace[idx] = model.trace_batch(tok, seg, mask)[1]
        path = tmp_path / "cls_epoch1_layer2.csv"
        back = read_dump(str(path))
        assert np.array_equal(back.vectors.astype(np.float32).view(np.uint32),
                              trace.view(np.uint32))
        # float32's shortest round-trip form has at most 9 significant digits.
        values = [v for line in path.read_text().splitlines()[1:] for v in line.split(",")[2:]]
        assert max(len(v.split("e")[0].lstrip("-").replace(".", "").strip("0"))
                   for v in values) <= 9

    def test_batched_dump_matches_batch_size_one(self, tmp_path):
        # Fixed-length synthetic pairs, and 70 texts of 1 to 15 tokens, which
        # the eval batches take in length order; rows stay in dataset order.
        rng = np.random.default_rng(4)
        varied = [PairExample(" ".join(f"w{int(w)}" for w in rng.integers(12, size=1 + i % 15)),
                              f"a{i % 3}", i % 3) for i in rng.permutation(70)]
        for k, ex in enumerate((None, varied)):
            model, arrays = trained_tiny_model(ex)
            out = tmp_path / str(k)
            dump_trace(model, arrays, epoch=1, layers=[3], out_dir=str(out))
            dumped = read_dump(str(out / "cls_epoch1_layer3.csv"))
            tok, seg, mask, labels = arrays
            alone = np.vstack([model.trace_batch(tok[i:i + 1], seg[i:i + 1], mask[i:i + 1])[2]
                               for i in range(len(tok))])
            npt.assert_array_equal(dumped.example_ids, np.arange(len(tok)))
            npt.assert_array_equal(dumped.labels, labels)
            npt.assert_allclose(dumped.vectors, alone, rtol=0, atol=1e-6)


class TestProjectDumpDir:
    def test_outputs(self, tmp_path):
        model, arrays = trained_tiny_model()
        dumps = tmp_path / "dumps"
        out = tmp_path / "proj"
        dump_trace(model, arrays, epoch=1, layers=[1, 3], out_dir=str(dumps))
        rows = project_dump_dir(str(dumps), str(out))
        assert {(e, l) for e, l, *_ in rows} == {(1, 1), (1, 3)}
        assert (out / "proj_epoch1_layer1.csv").exists()
        assert (out / "proj_epoch1_layer3.csv").exists()
        scores = (out / "cluster_scores.csv").read_text().splitlines()
        assert scores[0] == "epoch,layer,cluster_score,explained_var0,explained_var1"
        assert len(scores) == 3

    def test_missing_nested_out_dir_is_made(self, tmp_path):
        model, arrays = trained_tiny_model()
        dumps = tmp_path / "dumps"
        dump_trace(model, arrays, epoch=1, layers=[2], out_dir=str(dumps))
        out = tmp_path / "a" / "b"
        project_dump_dir(str(dumps), str(out))
        assert sorted(os.listdir(out)) == ["cluster_scores.csv", "proj_epoch1_layer2.csv"]

    def test_score_table_matches_direct_computation(self, tmp_path):
        model, arrays = trained_tiny_model()
        dumps = tmp_path / "dumps"
        dump_trace(model, arrays, epoch=1, layers=[2], out_dir=str(dumps))
        rows = project_dump_dir(str(dumps), str(tmp_path / "proj"))
        dump = read_dump(str(dumps / "cls_epoch1_layer2.csv"))
        direct = cluster_score(pca_project(dump, k=2))
        assert rows[0][2] == pytest.approx(direct, abs=1e-12)

    @pytest.mark.parametrize("alias", ["cls_epoch01_layer1.csv", "cls_epoch1_layer001.csv",
                                       "cls_epoch١_layer1.csv"])
    def test_second_name_for_one_epoch_and_layer_writes_nothing(self, tmp_path, alias):
        # Only dump_filename's spelling names a dump: a copy under another
        # spelling of (1, 1) would be projected and scored twice.
        model, arrays = trained_tiny_model()
        dumps = tmp_path / "dumps"
        out = tmp_path / "proj"
        dump_trace(model, arrays, epoch=1, layers=[1], out_dir=str(dumps))
        (dumps / alias).write_bytes((dumps / "cls_epoch1_layer1.csv").read_bytes())
        with pytest.raises(DataError, match=f"{dumps / alias}: file name does not match"):
            project_dump_dir(str(dumps), str(out))
        assert not out.exists()

    def test_empty_dir_rejected(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            project_dump_dir(str(tmp_path), str(tmp_path / "out"))

    def test_bad_dump_writes_nothing(self, tmp_path):
        # The good layer-1 dump sorts first; the short row in layer 2 must
        # stop the run before its projection is written.
        model, arrays = trained_tiny_model()
        dumps = tmp_path / "dumps"
        out = tmp_path / "proj"
        dump_trace(model, arrays, epoch=1, layers=[1, 2], out_dir=str(dumps))
        bad = dumps / "cls_epoch1_layer2.csv"
        bad.write_text(bad.read_text() + "7,1,0.5\n")
        with pytest.raises(DataError, match=f"{bad}:"):
            project_dump_dir(str(dumps), str(out))
        assert not out.exists()
        out.mkdir()
        with pytest.raises(DataError):
            project_dump_dir(str(dumps), str(out))
        assert list(out.iterdir()) == []
