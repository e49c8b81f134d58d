"""The checkpoint container and the atomic writer that every output goes through."""

import json
import struct

import numpy as np
import pytest

from factrank.checkpoint import load_checkpoint, save_checkpoint
from factrank.errors import LoadError
from factrank.text import write_atomic
from spoil import rewrite_header, rewrite_members

TENSORS = {"w": np.arange(12.0).reshape(3, 4) / 7, "b": np.array([-0.0, np.pi, 1e-300]), "s": np.array(2.5)}


def _save(path):
    save_checkpoint(path, "scorer", {"hidden_dim": 4, "dropout": 0.5}, ["<pad>", "<unk>", "dog"], TENSORS,
                    meta={"seed": 3})
    return path.read_bytes()


def test_write_atomic_failure_leaves_the_previous_file_and_no_temporary(tmp_path):
    path = tmp_path / "out.txt"
    path.write_bytes(b"before\n")

    def fail(fh):
        fh.write(b"half")
        raise RuntimeError("disk on fire")

    with pytest.raises(RuntimeError, match="disk on fire"):
        write_atomic(path, fail)
    assert path.read_bytes() == b"before\n"
    assert list(tmp_path.glob("*.tmp")) == []


def test_checkpoint_round_trip_is_bitwise_and_deterministic(tmp_path):
    first = _save(tmp_path / "a.ckpt")
    assert _save(tmp_path / "b.ckpt") == first  # savez stamps every member 1980-01-01
    data = load_checkpoint(tmp_path / "a.ckpt")
    assert (data.kind, data.dims, data.vocab, data.meta) == (
        "scorer", {"hidden_dim": 4, "dropout": 0.5}, ["<pad>", "<unk>", "dog"], {"seed": 3})
    assert list(data.tensors) == list(TENSORS)
    for name, arr in TENSORS.items():
        assert data.tensors[name].dtype == np.float64 and data.tensors[name].shape == arr.shape
        assert data.tensors[name].tobytes() == arr.tobytes()
    assert sorted(p.name for p in tmp_path.iterdir()) == ["a.ckpt", "b.ckpt"]  # no temporary file left


def _flip(raw, needle):
    at = raw.index(needle) + len(needle) // 2
    return raw[:at] + bytes([raw[at] ^ 0x01]) + raw[at + 1:]


def _old_format(raw):
    blob = json.dumps({"format_version": 1, "kind": "scorer", "dims": {}, "vocab": [], "tensors": []}).encode()
    return b"FRCKPT1\n" + struct.pack("<Q", len(blob)) + blob


@pytest.mark.parametrize("spoil", [
    # each flip leaves the member well-formed (a float, a JSON key), so only its CRC-32 catches it
    pytest.param(lambda raw: _flip(raw, TENSORS["w"].tobytes()), id="flipped tensor byte"),
    pytest.param(lambda raw: _flip(raw, '"vocab"'.encode("utf-32-le")), id="flipped header byte"),
    pytest.param(_old_format, id="old FRCKPT1 file"),
    pytest.param(lambda raw: raw[: len(raw) // 2], id="truncated"),
])
def test_unreadable_checkpoint_is_a_load_error_naming_the_file(tmp_path, spoil):
    path = tmp_path / "scorer.ckpt"
    path.write_bytes(spoil(_save(path)))
    with pytest.raises(LoadError) as err:
        load_checkpoint(path)
    assert str(err.value).startswith(f"{path}: not a readable checkpoint (")


def test_tensor_that_is_not_float64_is_a_load_error(tmp_path):
    path = tmp_path / "scorer.ckpt"
    _save(path)
    rewrite_members(path, w=TENSORS["w"].astype(np.float32))
    with pytest.raises(LoadError, match="tensor 'w' is not a float64 array") as err:
        load_checkpoint(path)
    assert str(path) in str(err.value)


def test_other_checkpoint_format_is_a_load_error(tmp_path):
    path = tmp_path / "scorer.ckpt"
    _save(path)
    rewrite_header(path, format="factrank-checkpoint-1")
    with pytest.raises(LoadError, match="unsupported checkpoint format 'factrank-checkpoint-1'") as err:
        load_checkpoint(path)
    assert str(path) in str(err.value)
