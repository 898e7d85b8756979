"""Per-layer [CLS] geometry analysis: CSV dumps, PCA projection, cluster score.

During (or after) training, the [CLS] state of every example at chosen
layers is dumped to CSV; those dumps are then projected to 2-D with PCA
and scored for class-cluster tightness, making the qualitative
"later epochs / later layers cluster better" claim checkable.
"""

from __future__ import annotations

import math
import os
import re
from dataclasses import dataclass

import numpy as np

from .checkpoint import atomic_write_bytes
from .data import DataError, read_lines
from .train import eval_batches


class DegenerateDataError(ValueError):
    """All points identical: no variance to project."""


@dataclass
class LayerDump:
    epoch: int
    layer: int          # 1-based, 1 = embedding-adjacent
    example_ids: np.ndarray
    labels: np.ndarray
    vectors: np.ndarray  # n × H


@dataclass
class Projection2D:
    components: np.ndarray          # k × H, orthonormal rows
    explained_variance: np.ndarray  # k, descending
    example_ids: np.ndarray
    labels: np.ndarray
    points: np.ndarray              # n × k


def pca_project(dump: LayerDump, k=2):
    """Project mean-centered vectors onto the top-k right singular vectors.

    Component signs are fixed so each component's first nonzero coordinate
    is positive; explained variance is sigma^2 / (n - 1), descending.
    """
    X = np.asarray(dump.vectors, dtype=float)
    n, h = X.shape
    if k > h:
        raise ValueError(f"k={k} exceeds dimensionality {h}")
    if n < 2:
        raise ValueError(f"PCA needs at least 2 points, got {n}")
    Xc = X - X.mean(axis=0)
    # Centring identical rows leaves a few ulps of |X|; n ulps is no spread at any scale.
    if np.abs(Xc).max() <= n * np.finfo(float).eps * np.abs(X).max():
        raise DegenerateDataError("all vectors are identical; PCA is undefined")
    _, s, Vt = np.linalg.svd(Xc, full_matrices=False)
    components = Vt[:k].copy()
    for i in range(k):
        nz = np.flatnonzero(np.abs(components[i]) > 1e-12)
        if nz.size and components[i, nz[0]] < 0:
            components[i] = -components[i]
    explained = (s[:k] ** 2) / (n - 1)
    return Projection2D(components=components, explained_variance=explained,
                        example_ids=np.asarray(dump.example_ids),
                        labels=np.asarray(dump.labels),
                        points=Xc @ components.T)


def cluster_score(proj: Projection2D):
    """Mean within-class distance to centroid over mean inter-centroid distance.

    Lower is tighter and better separated. Invariant under rigid motions
    and uniform scaling of the point set. Raises ValueError when fewer than
    two classes are present or every class centroid coincides.
    """
    labels = np.asarray(proj.labels)
    classes = sorted(set(labels.tolist()))
    if len(classes) < 2:
        raise ValueError("cluster score needs at least 2 classes present")
    pts = proj.points
    centroids = {c: pts[labels == c].mean(axis=0) for c in classes}
    within = np.concatenate([np.linalg.norm(pts[labels == c] - centroids[c], axis=1)
                             for c in classes])
    inter = np.mean([np.linalg.norm(centroids[a] - centroids[b])
                     for i, a in enumerate(classes) for b in classes[i + 1:]])
    if inter == 0.0:
        raise ValueError("cluster score is undefined: the class centroids coincide "
                         "(mean inter-centroid distance 0)")
    return float(within.mean() / inter)


# ---------------------------------------------------------------------------
# dump files


def dump_filename(epoch, layer):
    return f"cls_epoch{epoch}_layer{layer}.csv"


def write_dump(dump: LayerDump, out_dir):
    """Write ``dump`` as CSV, each value in the shortest form that reads back
    to it in the vectors' dtype: a float32 value reads back bit-identical
    through ``astype(np.float32)``, a float64 one as itself."""
    bad = np.flatnonzero(~np.isfinite(dump.vectors).all(axis=1))
    if bad.size:
        raise ValueError(f"epoch {dump.epoch}, layer {dump.layer}: non-finite [CLS] state "
                         f"for example {dump.example_ids[bad[0]]}")
    h = dump.vectors.shape[1]
    header = "example_id,label," + ",".join(f"v{i}" for i in range(h))
    lines = [header]
    for eid, lab, vec in zip(dump.example_ids, dump.labels, dump.vectors):
        lines.append(f"{int(eid)},{int(lab)}," + ",".join(map(str, vec)))
    path = os.path.join(out_dir, dump_filename(dump.epoch, dump.layer))
    atomic_write_bytes(path, ("\n".join(lines) + "\n").encode("utf-8"))
    return path


def read_dump(path):
    """Read a dump CSV; its epoch and layer come from its file name.

    The name must be the one ``dump_filename`` gives its epoch and layer, so
    no two files name one (epoch, layer). A bad file name, header or row
    raises DataError naming the file and line.
    """
    name = os.path.basename(path)
    m = re.fullmatch(r"cls_epoch(\d+)_layer(\d+)\.csv", name)
    if m is None or name != dump_filename(int(m[1]), int(m[2])):
        raise DataError(f"{path}: file name does not match cls_epoch<E>_layer<L>.csv, "
                        "E and L with no leading zero")
    epoch, layer = int(m[1]), int(m[2])
    ids, labels, vectors = [], [], []
    lines = read_lines(path)
    header = next(lines, (1, ""))[1].strip().split(",")
    if header[:2] != ["example_id", "label"] or len(header) < 3:
        raise DataError(f"{path}:1: expected header example_id,label,v0,..., "
                        f"got {','.join(header)!r}")
    for lineno, line in lines:
        row = line.strip().split(",")
        if row == [""]:
            continue
        if len(row) != len(header):
            raise DataError(f"{path}:{lineno}: expected {len(header)} fields, got {len(row)}")
        try:
            ids.append(int(row[0]))
            labels.append(int(row[1]))
            vectors.append(list(map(float, row[2:])))
        except ValueError as e:
            raise DataError(f"{path}:{lineno}: {e}") from None
        if not all(map(math.isfinite, vectors[-1])):
            raise DataError(f"{path}:{lineno}: non-finite value in {line.strip()!r}")
    if not ids:
        raise DataError(f"{path}:2: no data rows after the header")
    return LayerDump(epoch=epoch, layer=layer, example_ids=np.array(ids),
                     labels=np.array(labels), vectors=np.array(vectors))


def dump_trace(model, arrays, epoch, layers, out_dir):
    """Dump the eval-mode [CLS] state of every example at the given layers.

    The examples run through ``model.trace_batch`` in the length-ordered
    batches of ``train.eval_batches``, as in ``evaluate``; the rows are
    written in dataset order, in the trace's dtype. Layers are 1-based;
    requesting a layer above the model's count errors. Returns the
    written paths.
    """
    L = model.config.L
    for layer in layers:
        if not 1 <= layer <= L:
            raise ValueError(f"layer {layer} out of range 1..{L}")
    labels = arrays[3]
    n = len(labels)
    # The trace takes the dtype of the embedding tables it starts from.
    dtype = model.encoder.params["embed/token"].data.dtype
    per_layer = [np.empty((n, model.config.H), dtype) for _ in range(L)]
    for idx, tok, seg, mask in eval_batches(arrays):
        for li, block in enumerate(model.trace_batch(tok, seg, mask)):
            per_layer[li][idx] = block
    os.makedirs(out_dir, exist_ok=True)
    paths = []
    ids = np.arange(n)
    for layer in layers:
        dump = LayerDump(epoch=epoch, layer=layer, example_ids=ids, labels=labels,
                         vectors=per_layer[layer - 1])
        paths.append(write_dump(dump, out_dir))
    return paths


def project_dump_dir(dumps_dir, out_dir):
    """Project every dump CSV in a directory to 2-D; emit point CSVs + a score table.

    Writes ``proj_epoch{e}_layer{l}.csv`` files (example_id, label, p0, p1)
    and ``cluster_scores.csv`` (epoch, layer, cluster_score,
    explained_var0, explained_var1). Every dump is read, projected and
    scored before any file is written, so a bad dump leaves ``out_dir`` as
    it was; the DataError it raises starts with the dump's path.
    """
    names = sorted(n for n in os.listdir(dumps_dir)
                   if n.startswith("cls_epoch") and n.endswith(".csv"))
    if not names:
        raise FileNotFoundError(f"no dump CSVs found in {dumps_dir}")
    projections = []
    for name in names:
        path = os.path.join(dumps_dir, name)
        dump = read_dump(path)
        try:
            proj = pca_project(dump)
            projections.append((dump, proj, cluster_score(proj)))
        except ValueError as e:
            raise DataError(f"{path}: {e}") from None
    os.makedirs(out_dir, exist_ok=True)
    score_rows = []
    for dump, proj, score in projections:
        lines = ["example_id,label,p0,p1"]
        for eid, lab, pt in zip(proj.example_ids, proj.labels, proj.points):
            lines.append(f"{int(eid)},{int(lab)}," + ",".join(map(repr, pt.tolist())))
        out = os.path.join(out_dir, f"proj_epoch{dump.epoch}_layer{dump.layer}.csv")
        atomic_write_bytes(out, ("\n".join(lines) + "\n").encode("utf-8"))
        score_rows.append((dump.epoch, dump.layer, score, *proj.explained_variance))
    lines = ["epoch,layer,cluster_score,explained_var0,explained_var1"]
    for e, l, s, v0, v1 in sorted(score_rows):
        lines.append(f"{e},{l},{repr(s)},{repr(float(v0))},{repr(float(v1))}")
    atomic_write_bytes(os.path.join(out_dir, "cluster_scores.csv"),
                       ("\n".join(lines) + "\n").encode("utf-8"))
    return score_rows
