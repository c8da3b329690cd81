"""Binary tensor containers: JSON header + raw little-endian float64 buffer.

Shared by checkpoints, dataset files and saved samples. A container stream is
a sequence of records; each record is ``MAGIC | u32 header length | header
JSON (utf-8) | raw buffer``.
"""

from __future__ import annotations

import io
import json
import math
import struct
from pathlib import Path

import numpy as np

MAGIC = b"TEN1"

__all__ = ["ContainerError", "write_tensor", "read_tensor", "save_tensors", "load_tensors"]


class ContainerError(ValueError):
    """Malformed container file."""


def _plain(spec: dict) -> dict:
    """A copy of spec with array values as lists, so it serializes to JSON."""
    out = {}
    for k, v in spec.items():
        out[k] = v.tolist() if isinstance(v, np.ndarray) else v
    return out


def write_tensor(fh, array: np.ndarray, name: str | None = None) -> None:
    arr = np.asarray(array, dtype="<f8", order="C")
    header = {"shape": list(arr.shape), "dtype": "f64", "byte-order": "little-endian"}
    if name is not None:
        header["name"] = name
    blob = json.dumps(header, sort_keys=True).encode("utf-8")
    fh.write(MAGIC)
    fh.write(struct.pack("<I", len(blob)))
    fh.write(blob)
    fh.write(arr.tobytes())


def read_tensor(fh) -> tuple[np.ndarray, dict]:
    magic = fh.read(4)
    if len(magic) == 0:
        raise EOFError("end of container stream")
    if magic != MAGIC:
        raise ContainerError(f"bad magic {magic!r}")
    raw_len = fh.read(4)
    if len(raw_len) != 4:
        raise ContainerError("truncated header length")
    (hlen,) = struct.unpack("<I", raw_len)
    blob = fh.read(hlen)
    if len(blob) != hlen:
        raise ContainerError("truncated header")
    try:
        header = json.loads(blob.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise ContainerError(f"unparseable header: {exc}") from exc
    if header.get("dtype") != "f64" or header.get("byte-order") != "little-endian":
        raise ContainerError(f"unsupported header {header}")
    try:
        shape = tuple(int(s) for s in header["shape"])
    except (KeyError, TypeError, ValueError) as exc:
        raise ContainerError(f"bad shape in header {header}") from exc
    if any(s < 0 for s in shape):
        raise ContainerError(f"negative dimension in shape {shape}")
    count = math.prod(shape)
    # bound the read by what the stream holds, so a corrupt shape cannot
    # request an arbitrarily large buffer
    pos = fh.tell()
    left = fh.seek(0, io.SEEK_END) - pos
    fh.seek(pos)
    if 8 * count > left:
        raise ContainerError(f"truncated buffer: shape {shape} needs {8 * count} bytes, {left} left")
    buf = fh.read(8 * count)
    arr = np.frombuffer(buf, dtype="<f8", count=count).reshape(shape).astype(np.float64)
    return arr, header


def save_tensors(path, tensors: dict[str, np.ndarray], manifest: dict | None = None) -> None:
    """Write named tensors (and an optional JSON manifest) to one file."""
    path = Path(path)
    with open(path, "wb") as fh:
        meta = dict(manifest or {})
        meta["names"] = list(tensors.keys())
        blob = json.dumps(meta, sort_keys=True).encode("utf-8")
        fh.write(b"EQC1")
        fh.write(struct.pack("<I", len(blob)))
        fh.write(blob)
        for name, arr in tensors.items():
            write_tensor(fh, arr, name=name)


def load_tensors(path) -> tuple[dict[str, np.ndarray], dict]:
    path = Path(path)
    with open(path, "rb") as fh:
        magic = fh.read(4)
        if magic != b"EQC1":
            raise ContainerError(f"bad file magic {magic!r}")
        raw_len = fh.read(4)
        if len(raw_len) != 4:
            raise ContainerError("truncated manifest length")
        (mlen,) = struct.unpack("<I", raw_len)
        blob = fh.read(mlen)
        if len(blob) != mlen:
            raise ContainerError("truncated manifest")
        try:
            manifest = json.loads(blob.decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError) as exc:
            raise ContainerError(f"unparseable manifest: {exc}") from exc
        tensors: dict[str, np.ndarray] = {}
        for name in manifest.get("names", []):
            arr, header = read_tensor(fh)
            if header.get("name") not in (None, name):
                raise ContainerError(f"name mismatch: {header.get('name')} != {name}")
            tensors[name] = arr
    return tensors, manifest
