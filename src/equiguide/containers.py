"""Binary tensor containers, shared by checkpoints and dataset files.

A file is ``MAGIC | u32 manifest length | manifest JSON (utf-8) | buffer``.
The manifest's ``"tensors"`` entry lists ``[name, shape]`` pairs in buffer
order, and the buffer holds their values back to back as little-endian
float64.
"""

from __future__ import annotations

import json
import math
import struct
from pathlib import Path

import numpy as np

MAGIC = b"EQC2"

__all__ = ["ContainerError", "save_tensors", "load_tensors"]


class ContainerError(ValueError):
    """Malformed container file."""


def _plain(spec: dict) -> dict:
    """A copy of spec with array values as lists, so it serializes to JSON."""
    out = {}
    for k, v in spec.items():
        out[k] = v.tolist() if isinstance(v, np.ndarray) else v
    return out


def save_tensors(path, tensors: dict[str, np.ndarray], manifest: dict | None = None) -> None:
    """Write named tensors and an optional JSON manifest to one file."""
    arrays = {name: np.asarray(a, dtype="<f8") for name, a in tensors.items()}
    meta = {**(manifest or {}), "tensors": [[name, list(a.shape)] for name, a in arrays.items()]}
    blob = json.dumps(meta, sort_keys=True).encode("utf-8")
    with open(path, "wb") as fh:
        fh.write(MAGIC + struct.pack("<I", len(blob)) + blob)
        for a in arrays.values():
            fh.write(a.tobytes())


def load_tensors(path) -> tuple[dict[str, np.ndarray], dict]:
    """The named tensors and the manifest (without its ``"tensors"`` entry) of a file."""
    path = Path(path)
    raw = path.read_bytes()
    if raw[:4] != MAGIC:
        raise ContainerError(f"{path}: bad magic {raw[:4]!r}, not an {MAGIC.decode()} container")
    if len(raw) < 8:
        raise ContainerError(f"{path}: truncated manifest length")
    start = 8 + struct.unpack_from("<I", raw, 4)[0]
    if len(raw) < start:
        raise ContainerError(f"{path}: truncated manifest")
    try:
        manifest = json.loads(raw[8:start].decode("utf-8"))
        entries = [(name, shape) for name, shape in manifest.pop("tensors")]
    except (AttributeError, KeyError, TypeError, ValueError) as exc:
        raise ContainerError(f"{path}: unparseable manifest: {exc!r}") from exc
    for name, shape in entries:
        if not (isinstance(name, str) and isinstance(shape, list)
                and all(type(s) is int and s >= 0 for s in shape)):
            raise ContainerError(f"{path}: bad tensor entry {[name, shape]!r}: "
                                 "needs a name and a shape of non-negative integers")
    # bound the declared shapes by the bytes the file holds before copying any
    counts = [math.prod(shape) for _, shape in entries]
    need, have = 8 * sum(counts), len(raw) - start
    if have != need:
        what = "truncated buffer" if have < need else "trailing bytes after the buffer"
        raise ContainerError(f"{path}: {what}: the shapes need {need} bytes, the file holds {have}")
    flat = np.frombuffer(raw, dtype="<f8", count=need // 8, offset=start).astype(np.float64)
    tensors, at = {}, 0
    for (name, shape), n in zip(entries, counts):
        tensors[name] = flat[at:at + n].reshape(shape)
        at += n
    return tensors, manifest
