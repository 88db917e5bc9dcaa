import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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


def split_bytes(raw):
    """(metadata dict, payload bytes) of a checkpoint's bytes."""
    _, _, meta_len = _HEADER.unpack_from(raw)
    end = _HEADER.size + meta_len
    return json.loads(raw[_HEADER.size : end]), raw[end:]


def split(path):
    """(metadata dict, payload bytes) of a checkpoint file."""
    return split_bytes(path.read_bytes())


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


def test_retired_architecture_key(ckpt):
    # checkpoints that recorded the router noise scale as a setting
    rewrite(ckpt, lambda m: m["architecture"].update(router_noise_std=None))
    with pytest.raises(SchemaError, match="bad architecture block: .*router_noise_std"):
        load_checkpoint(ckpt)


def test_architecture_recording_parameter_sharing(ckpt):
    # checkpoints written while sharing the feed-forward stage across blocks was a setting
    rewrite(ckpt, lambda m: m["architecture"].update(parameter_sharing=True))
    with pytest.raises(SchemaError, match="bad architecture block: .*parameter_sharing"):
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


# Fuzzing: whatever is done to the header and metadata bytes, a load either
# succeeds or raises a CheckpointError subclass, never another exception type.
# Derandomized so that the suite is repeatable; raise max_examples to search.
FUZZ = settings(max_examples=150, deadline=None, database=None, derandomize=True)

JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers(-(2**70), 2**70) | st.floats() | st.text(max_size=6),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=6), inner, max_size=3),
    max_leaves=6,
)


@pytest.fixture(scope="module")
def fuzz_target(tmp_path_factory):
    """(bytes of a valid checkpoint, path that each example overwrites)."""
    path = tmp_path_factory.mktemp("fuzz") / "m.ckpt"
    save_checkpoint(tiny_model(), {"role": "test"}, path)
    return path.read_bytes(), path


def load_or_checkpoint_error(path, raw):
    path.write_bytes(raw)
    try:
        load_checkpoint(path)
    except CheckpointError:
        pass


def _paths(node, prefix=()):
    """Every key path into a JSON document."""
    items = node.items() if isinstance(node, dict) else enumerate(node) if isinstance(node, list) else ()
    for key, child in items:
        yield prefix + (key,)
        yield from _paths(child, prefix + (key,))


@FUZZ
@given(data=st.data())
def test_fuzz_header_and_metadata_bytes(fuzz_target, data):
    raw, path = fuzz_target
    meta_end = _HEADER.size + _HEADER.unpack_from(raw)[2]
    mutated = bytearray(raw)
    for _ in range(data.draw(st.integers(1, 4), label="edits")):
        i = data.draw(st.integers(0, meta_end - 1), label="offset")
        op = data.draw(st.sampled_from(["overwrite", "insert", "delete"]), label="op")
        if op == "delete":
            del mutated[i]
        else:
            byte = data.draw(st.integers(0, 255), label="byte")
            if op == "insert":
                mutated.insert(i, byte)
            else:
                mutated[i] = byte
    load_or_checkpoint_error(path, bytes(mutated))


@FUZZ
@given(data=st.data())
def test_fuzz_metadata_values(fuzz_target, data):
    raw, path = fuzz_target
    meta, payload = split_bytes(raw)
    where = data.draw(st.sampled_from(list(_paths(meta))), label="path")
    parent = meta
    for key in where[:-1]:
        parent = parent[key]
    if data.draw(st.booleans(), label="delete"):
        del parent[where[-1]]
    else:
        parent[where[-1]] = data.draw(JSON_VALUES, label="value")
    blob = json.dumps(meta, sort_keys=True).encode()
    load_or_checkpoint_error(path, _HEADER.pack(MAGIC, FORMAT_VERSION, len(blob)) + blob + payload)
