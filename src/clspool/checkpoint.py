"""Single-file checkpoint format.

Byte layout (all integers little-endian):

    magic     8 bytes   b"CLSPOOL1"
    version   uint32    currently 2
    meta_len  uint32
    meta      meta_len bytes of UTF-8 JSON (model/config metadata)
    count     uint32    number of parameter blobs
    then per blob:
      name_len  uint16
      name      name_len bytes UTF-8
      ndim      uint8
      dims      ndim * uint32
      data      prod(dims) * float32, row-major

Values are stored as 32-bit floats and must be finite: a value that is
not (or overflows the cast) is refused on save and on load. A float32
array, the dtype a model runs in, is stored as it is, so a save and a load
give back the model bit for bit; a float64 array is rounded to float32.
``load_checkpoint`` returns float32 arrays. Writes are atomic (temp file +
rename).

Version 1 had the same layout, but its models computed the exact (erf)
GELU; version 2 models compute its tanh form, so a version 1 file is
refused rather than read into a network it was not trained for.
"""

from __future__ import annotations

import json
import math
import os
import struct
import tempfile

import numpy as np

MAGIC = b"CLSPOOL1"
VERSION = 2


def atomic_write_bytes(path, payload: bytes):
    d = os.path.dirname(os.path.abspath(path))
    fd, tmp = tempfile.mkstemp(dir=d, suffix=".tmp")
    try:
        with os.fdopen(fd, "wb") as f:
            f.write(payload)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def save_checkpoint(path, meta: dict, params: dict):
    chunks = [MAGIC, struct.pack("<I", VERSION)]
    meta_bytes = json.dumps(meta, sort_keys=True).encode("utf-8")
    chunks.append(struct.pack("<I", len(meta_bytes)))
    chunks.append(meta_bytes)
    chunks.append(struct.pack("<I", len(params)))
    for name in sorted(params):
        with np.errstate(over="ignore"):  # an overflow is reported below
            arr = np.ascontiguousarray(params[name], dtype="<f4")
        bad = np.flatnonzero(~np.isfinite(arr))
        if bad.size:
            value = float(np.ravel(params[name])[bad[0]])
            raise ValueError(f"{path}: parameter {name!r} element {bad[0]} is {value!r}, "
                             f"not a finite float32")
        nb = name.encode("utf-8")
        chunks.append(struct.pack("<H", len(nb)))
        chunks.append(nb)
        chunks.append(struct.pack("<B", arr.ndim))
        chunks.append(struct.pack(f"<{arr.ndim}I", *arr.shape))
        chunks.append(arr.tobytes())
    atomic_write_bytes(path, b"".join(chunks))


def load_checkpoint(path):
    """Read a checkpoint; raise ValueError, with the offset, on any malformed byte."""
    with open(path, "rb") as f:
        buf = f.read()
    if buf[:8] != MAGIC:
        raise ValueError(f"{path}: not a checkpoint file (bad magic)")
    off = 8

    def take(n, what):
        nonlocal off
        if off + n > len(buf):
            raise ValueError(f"{path}: truncated checkpoint: {what} at offset {off} needs "
                             f"{n} bytes, {len(buf) - off} left")
        chunk = buf[off:off + n]
        off += n
        return chunk

    def unpack(fmt, what):
        return struct.unpack(fmt, take(struct.calcsize(fmt), what))

    (version,) = unpack("<I", "version")
    if version == 1:
        raise ValueError(f"{path}: checkpoint version 1 predates the tanh GELU; "
                         f"retrain to get a version {VERSION} checkpoint")
    if version != VERSION:
        raise ValueError(f"{path}: unsupported checkpoint version {version}")
    (meta_len,) = unpack("<I", "metadata length")
    at = off
    try:
        meta = json.loads(take(meta_len, "metadata").decode("utf-8"))
    except (ValueError, RecursionError) as e:
        # Bad UTF-8 or JSON, or a decoder limit: nesting too deep, an integer too long.
        raise ValueError(f"{path}: bad metadata at offset {at}: {e}") from None
    if not isinstance(meta, dict):
        raise ValueError(f"{path}: metadata at offset {at} is not a JSON object")
    (count,) = unpack("<I", "parameter count")
    params = {}
    for _ in range(count):
        (name_len,) = unpack("<H", "name length")
        at = off
        try:
            name = take(name_len, "name").decode("utf-8")
        except UnicodeDecodeError as e:
            raise ValueError(f"{path}: bad parameter name at offset {at}: {e}") from None
        if name in params:
            raise ValueError(f"{path}: duplicate parameter {name!r} at offset {at}")
        (ndim,) = unpack("<B", f"{name} ndim")
        dims = unpack(f"<{ndim}I", f"{name} dims")
        at = off
        arr = np.frombuffer(take(4 * math.prod(dims), f"{name} data"), dtype="<f4")
        bad = np.flatnonzero(~np.isfinite(arr))
        if bad.size:
            raise ValueError(f"{path}: non-finite value {arr[bad[0]]} in parameter {name!r} "
                             f"at offset {at + 4 * bad[0]}")
        params[name] = arr.reshape(dims).astype(np.float32)
    if off != len(buf):
        raise ValueError(f"{path}: {len(buf) - off} trailing bytes at offset {off}")
    return meta, params
