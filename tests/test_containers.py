import io
import json
import struct

import numpy as np
import pytest

from equiguide.containers import (
    ContainerError,
    load_tensors,
    read_tensor,
    save_tensors,
    write_tensor,
)


def test_single_tensor_roundtrip():
    buf = io.BytesIO()
    arr = np.random.default_rng(0).standard_normal((3, 4, 5))
    write_tensor(buf, arr, name="x")
    buf.seek(0)
    back, header = read_tensor(buf)
    np.testing.assert_array_equal(arr, back)
    assert header["shape"] == [3, 4, 5] and header["name"] == "x"


def test_scalar_and_empty_shapes():
    buf = io.BytesIO()
    write_tensor(buf, np.array(3.5))
    buf.seek(0)
    back, _ = read_tensor(buf)
    assert back.shape == () and back == 3.5


def test_corrupted_header_raises():
    buf = io.BytesIO()
    write_tensor(buf, np.ones(4))
    raw = bytearray(buf.getvalue())
    raw[10] = 0xFF  # clobber a header byte
    with pytest.raises(ContainerError):
        read_tensor(io.BytesIO(bytes(raw)))


def test_bad_magic_raises():
    with pytest.raises(ContainerError):
        read_tensor(io.BytesIO(b"NOPE" + b"\x00" * 16))


def test_truncated_buffer_raises():
    buf = io.BytesIO()
    write_tensor(buf, np.ones(100))
    raw = buf.getvalue()[:-8]
    with pytest.raises(ContainerError):
        read_tensor(io.BytesIO(raw))


def _record(shape, payload: bytes) -> io.BytesIO:
    blob = json.dumps({"shape": shape, "dtype": "f64", "byte-order": "little-endian"}).encode("utf-8")
    return io.BytesIO(b"TEN1" + struct.pack("<I", len(blob)) + blob + payload)


def test_huge_declared_shape_raises_before_reading():
    # a tiny stream whose header claims 8e15 bytes must not be allocated
    with pytest.raises(ContainerError, match="truncated buffer"):
        read_tensor(_record([10**9, 10**6], b"\x00" * 16))


@pytest.mark.parametrize("shape", [[-4], "4x", [[4]], [-2, -2]])
def test_bad_declared_shape_raises(shape):
    with pytest.raises(ContainerError, match="shape"):
        read_tensor(_record(shape, b"\x00" * 32))


def test_multi_tensor_file_roundtrip(tmp_path):
    rng = np.random.default_rng(1)
    tensors = {"w1": rng.standard_normal((4, 4)), "b1": rng.standard_normal(4)}
    path = tmp_path / "ckpt.eqc"
    save_tensors(path, tensors, manifest={"kind": "mlp", "note": 7})
    back, manifest = load_tensors(path)
    assert manifest["kind"] == "mlp" and manifest["note"] == 7
    for k in tensors:
        np.testing.assert_array_equal(tensors[k], back[k])


def test_roundtrip_is_bit_exact(tmp_path):
    x = np.array([1.0, -0.0, np.pi, 1e-300, 1e300])
    path = tmp_path / "t.eqc"
    save_tensors(path, {"x": x})
    back, _ = load_tensors(path)
    assert back["x"].tobytes() == x.tobytes()
