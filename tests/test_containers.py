import json
import struct

import numpy as np
import pytest

from equiguide.containers import MAGIC, ContainerError, load_tensors, save_tensors


def _file(tmp_path, manifest, payload: bytes, magic: bytes = MAGIC):
    """A container file framed by hand: magic, manifest and payload as given."""
    blob = json.dumps(manifest).encode("utf-8")
    path = tmp_path / "hand.eqc"
    path.write_bytes(magic + struct.pack("<I", len(blob)) + blob + payload)
    return path


def test_single_tensor_roundtrip(tmp_path):
    arr = np.random.default_rng(0).standard_normal((3, 4, 5))
    save_tensors(tmp_path / "x.eqc", {"x": arr})
    back, manifest = load_tensors(tmp_path / "x.eqc")
    np.testing.assert_array_equal(arr, back["x"])
    assert list(back) == ["x"] and manifest == {}


def test_scalar_and_empty_shapes(tmp_path):
    save_tensors(tmp_path / "s.eqc", {"s": np.array(3.5), "e": np.zeros((0, 3))})
    back, _ = load_tensors(tmp_path / "s.eqc")
    assert back["s"].shape == () and back["s"] == 3.5
    assert back["e"].shape == (0, 3)


def test_corrupted_header_raises(tmp_path):
    path = tmp_path / "c.eqc"
    save_tensors(path, {"x": np.ones(4)})
    raw = bytearray(path.read_bytes())
    raw[10] = 0xFF  # clobber a manifest byte
    path.write_bytes(bytes(raw))
    with pytest.raises(ContainerError, match="unparseable manifest"):
        load_tensors(path)


def test_bad_magic_raises(tmp_path):
    path = tmp_path / "m.eqc"
    path.write_bytes(b"NOPE" + b"\x00" * 16)
    with pytest.raises(ContainerError, match="bad magic"):
        load_tensors(path)


@pytest.mark.parametrize("raw", [b"", MAGIC + b"\x01", MAGIC + struct.pack("<I", 64) + b"{}"],
                         ids=["empty", "length", "manifest"])
def test_truncated_framing_raises(tmp_path, raw):
    path = tmp_path / "t.eqc"
    path.write_bytes(raw)
    with pytest.raises(ContainerError):
        load_tensors(path)


@pytest.mark.parametrize("manifest", [[["x", [1]]], {"names": ["x"]}, {"tensors": [["x"]]},
                                      {"tensors": [[0, [1]]]}],
                         ids=["list", "no-tensors", "short-entry", "numeric-name"])
def test_malformed_manifest_raises(tmp_path, manifest):
    with pytest.raises(ContainerError):
        load_tensors(_file(tmp_path, manifest, b"\x00" * 8))


def test_truncated_buffer_raises(tmp_path):
    path = tmp_path / "b.eqc"
    save_tensors(path, {"x": np.ones(100)})
    path.write_bytes(path.read_bytes()[:-8])
    with pytest.raises(ContainerError, match="truncated buffer"):
        load_tensors(path)


def test_trailing_bytes_raise(tmp_path):
    path = tmp_path / "tail.eqc"
    save_tensors(path, {"x": np.ones(4)})
    path.write_bytes(path.read_bytes() + b"\x00" * 8)
    with pytest.raises(ContainerError, match="trailing bytes"):
        load_tensors(path)


def test_old_two_level_framing_raises(tmp_path):
    # a file whose manifest names its tensors and frames each as its own record
    blob = json.dumps({"shape": [1], "dtype": "f64", "byte-order": "little-endian",
                       "name": "x"}).encode("utf-8")
    record = b"TEN1" + struct.pack("<I", len(blob)) + blob + b"\x00" * 8
    path = _file(tmp_path, {"names": ["x"]}, record, magic=b"EQC1")
    with pytest.raises(ContainerError, match="bad magic b'EQC1', not an EQC2 container"):
        load_tensors(path)


def test_huge_declared_shape_raises_before_reading(tmp_path):
    # a tiny file whose manifest claims 8e15 bytes must not be allocated
    with pytest.raises(ContainerError, match="truncated buffer"):
        load_tensors(_file(tmp_path, {"tensors": [["x", [10**9, 10**6]]]}, b"\x00" * 16))


@pytest.mark.parametrize("shape", [[-4], "4x", [[4]], [-2, -2]])
def test_bad_declared_shape_raises(tmp_path, shape):
    with pytest.raises(ContainerError, match="bad tensor entry"):
        load_tensors(_file(tmp_path, {"tensors": [["x", shape]]}, b"\x00" * 32))


def test_multi_tensor_file_roundtrip(tmp_path):
    rng = np.random.default_rng(1)
    tensors = {"w1": rng.standard_normal((4, 4)), "b1": rng.standard_normal(4)}
    path = tmp_path / "ckpt.eqc"
    save_tensors(path, tensors, manifest={"kind": "mlp", "note": 7})
    back, manifest = load_tensors(path)
    assert manifest == {"kind": "mlp", "note": 7}
    assert list(back) == list(tensors)
    for k in tensors:
        np.testing.assert_array_equal(tensors[k], back[k])


def test_roundtrip_is_bit_exact(tmp_path):
    x = np.array([1.0, -0.0, np.pi, 1e-300, 1e300, np.nan, -np.inf])
    path = tmp_path / "t.eqc"
    save_tensors(path, {"x": x})
    back, _ = load_tensors(path)
    assert back["x"].tobytes() == x.tobytes()
