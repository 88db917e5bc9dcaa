import json

import numpy as np
import pytest

from moegather.model import Architecture, build_classifier, state_hash
from moegather.numerics import Rng
from moegather.workbench.checkpoint import (
    _HEADER,
    FORMAT_VERSION,
    MAGIC,
    CheckpointError,
    NonFiniteTensorError,
    SchemaError,
    load_checkpoint,
    save_checkpoint,
)


def tiny_model():
    arch = Architecture(
        d_model=4, d_ff=6, seq_len=3, num_classes=2, stage="moe", num_experts=2, top_k=1
    )
    return build_classifier(arch, Rng(0))


def split(path):
    """(metadata dict, payload bytes) of a checkpoint file."""
    raw = path.read_bytes()
    _, _, meta_len = _HEADER.unpack_from(raw)
    end = _HEADER.size + meta_len
    return json.loads(raw[_HEADER.size : end]), raw[end:]


def rewrite(path, edit_meta=None, payload=None):
    meta, old_payload = split(path)
    if edit_meta is not None:
        edit_meta(meta)
    blob = json.dumps(meta, sort_keys=True).encode()
    path.write_bytes(_HEADER.pack(MAGIC, FORMAT_VERSION, len(blob)) + blob + (payload or old_payload))


@pytest.fixture
def ckpt(tmp_path):
    path = tmp_path / "m.ckpt"
    save_checkpoint(tiny_model(), {"role": "test"}, path)
    return path


def test_round_trip_is_bit_identical(ckpt):
    model, meta = load_checkpoint(ckpt)
    assert state_hash(model) == state_hash(tiny_model())
    assert meta == {"role": "test"}


def test_tensors_not_a_list(ckpt):
    rewrite(ckpt, lambda m: m.update(tensors=5))
    with pytest.raises(SchemaError, match="'tensors' must be a list"):
        load_checkpoint(ckpt)


def test_negative_d_model(ckpt):
    rewrite(ckpt, lambda m: m["architecture"].update(d_model=-32))
    with pytest.raises(SchemaError, match="d_model must be a positive integer"):
        load_checkpoint(ckpt)


def test_oversized_architecture_rejected_before_allocation(ckpt):
    # shapes still match the payload; building this architecture would need terabytes
    rewrite(ckpt, lambda m: m["architecture"].update(d_model=10**6))
    with pytest.raises(SchemaError, match="architecture implies"):
        load_checkpoint(ckpt)


def test_negative_shape(ckpt):
    def negate(meta):
        meta["tensors"][0]["shape"] = [-4, 4]

    rewrite(ckpt, negate)
    with pytest.raises(SchemaError, match="not a list of non-negative integers"):
        load_checkpoint(ckpt)


@pytest.mark.parametrize("shape", [[4.0, 4], ["4", 4], [True, 4], 16])
def test_non_integer_shape(ckpt, shape):
    def set_shape(meta):
        meta["tensors"][0]["shape"] = shape

    rewrite(ckpt, set_shape)
    with pytest.raises(SchemaError, match="non-negative integers"):
        load_checkpoint(ckpt)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_non_finite_payload(ckpt, bad):
    payload = bytearray(split(ckpt)[1])
    payload[8:16] = np.array([bad], dtype="<f8").tobytes()  # second embed entry
    rewrite(ckpt, payload=bytes(payload))
    with pytest.raises(NonFiniteTensorError, match="'embed'"):
        load_checkpoint(ckpt)
    assert issubclass(NonFiniteTensorError, CheckpointError)


@pytest.mark.parametrize("field,value", [("num_blocks", 0), ("top_k", 0), ("d_ff", 2.5), ("seq_len", None)])
def test_architecture_rejects_non_positive_sizes(field, value):
    sizes = dict(d_model=4, d_ff=6, seq_len=3, num_classes=2)
    sizes[field] = value
    with pytest.raises(ValueError, match=f"{field} must be a positive integer"):
        Architecture(**sizes)
