import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import moegather
from moegather.model import Architecture, build_classifier, state_hash, tensor_layout
from moegather.numerics import Rng
from moegather.workbench import cli
from moegather.workbench.checkpoint import (
    _HEADER,
    FORMAT_VERSION,
    MAGIC,
    CheckpointError,
    NonFiniteTensorError,
    SchemaError,
    TruncatedPayloadError,
    VersionMismatchError,
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


def test_architecture_recording_relu(ckpt):
    # checkpoints written while ReLU was an activation
    rewrite(ckpt, lambda m: m["architecture"].update(activation="relu"))
    with pytest.raises(SchemaError, match="bad architecture block: unknown activation 'relu'"):
        load_checkpoint(ckpt)


def test_oversized_architecture_rejected_before_allocation(ckpt):
    # shapes still match the payload; building this architecture would need terabytes
    rewrite(ckpt, lambda m: m["architecture"].update(d_model=10**6))
    with pytest.raises(SchemaError, match="architecture implies"):
        load_checkpoint(ckpt)


@pytest.mark.parametrize("field", ["num_blocks", "num_experts"])
def test_an_architecture_of_two_to_the_forty_is_rejected_at_once(ckpt, field):
    # its layout is compared lazily, so the load stops at the first tensor it
    # does not declare instead of walking 2**40 blocks or experts
    rewrite(ckpt, lambda m: m["architecture"].update({field: 2**40}))
    with pytest.raises(SchemaError, match="architecture implies"):
        load_checkpoint(ckpt)


def test_metadata_longer_than_the_file(ckpt):
    meta, payload = split(ckpt)
    blob = json.dumps(meta).encode()
    ckpt.write_bytes(_HEADER.pack(MAGIC, FORMAT_VERSION, 2**62) + blob + payload)
    with pytest.raises(TruncatedPayloadError, match="metadata block extends past end of file"):
        load_checkpoint(ckpt)


@pytest.mark.parametrize("key", ["architecture", "tensors"])
def test_reserved_metadata_keys_are_refused(tmp_path, key):
    path = tmp_path / "m.ckpt"
    with pytest.raises(ValueError, match=f"metadata keys \\['{key}'\\] are reserved"):
        save_checkpoint(tiny_model(), {key: None}, path)
    assert not path.exists()


def test_a_file_shorter_than_the_header(ckpt):
    ckpt.write_bytes(ckpt.read_bytes()[: _HEADER.size - 1])
    with pytest.raises(TruncatedPayloadError, match=f"only {_HEADER.size - 1} bytes, shorter than the header"):
        load_checkpoint(ckpt)


def test_another_format_version(ckpt):
    raw = ckpt.read_bytes()
    _, _, meta_len = _HEADER.unpack_from(raw)
    ckpt.write_bytes(_HEADER.pack(MAGIC, FORMAT_VERSION + 1, meta_len) + raw[_HEADER.size :])
    with pytest.raises(VersionMismatchError, match=f"format version {FORMAT_VERSION + 1} unsupported"):
        load_checkpoint(ckpt)


def test_a_payload_longer_than_declared(ckpt):
    rewrite(ckpt, payload=split(ckpt)[1] + bytes(8))
    with pytest.raises(SchemaError, match="longer than the declared"):
        load_checkpoint(ckpt)


def test_metadata_nested_too_deeply(ckpt, capsys):
    meta, payload = split(ckpt)
    deep = b"[" * 100_000 + b"]" * 100_000
    blob = json.dumps(meta).encode()[:-1] + b', "deep": ' + deep + b"}"
    ckpt.write_bytes(_HEADER.pack(MAGIC, FORMAT_VERSION, len(blob)) + blob + payload)
    with pytest.raises(SchemaError, match="metadata is not valid UTF-8 JSON: maximum recursion depth"):
        load_checkpoint(ckpt)
    for command in ("eval", "flops"):
        assert cli.main([command, "--model", str(ckpt)]) == 1
        assert capsys.readouterr().err.startswith("error: checkpoint: metadata is not valid UTF-8 JSON: ")


def test_loaded_model_shares_no_memory_with_the_file_bytes(ckpt, monkeypatch):
    views, frombuffer = [], np.frombuffer

    def recording(*args, **kwargs):
        views.append(frombuffer(*args, **kwargs))
        return views[-1]

    monkeypatch.setattr(np, "frombuffer", recording)
    model, _ = load_checkpoint(ckpt)
    assert views
    for name, t in model.tensors().items():
        assert t.flags.writeable, name
        assert not any(np.shares_memory(t, v) for v in views), name


# Each load runs in a child process whose address space is capped, so a load
# that reads or allocates what the file cannot hold fails fast there instead
# of exhausting the machine, and one that waits on a FIFO for a writer times out.
_CAPPED_EVAL = """
import resource, sys
from moegather.workbench import cli
resource.setrlimit(resource.RLIMIT_AS, (1536 << 20, 1536 << 20))
sys.exit(cli.main(["eval", "--model", *sys.argv[1:]]))
"""


def _run_capped_eval(*args):
    src = str(Path(moegather.__file__).parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    return subprocess.run([sys.executable, "-c", _CAPPED_EVAL, *map(str, args)], env=env,
                          capture_output=True, text=True, timeout=60)


@pytest.mark.skipif(not os.path.exists("/dev/zero") or sys.platform != "linux", reason="needs Linux and /dev/zero")
def test_unbounded_inputs_end_in_a_checkpoint_error_under_an_address_space_cap(ckpt, tmp_path):
    huge_meta = tmp_path / "huge_meta.ckpt"
    huge_meta.write_bytes(_HEADER.pack(MAGIC, FORMAT_VERSION, 2**62) + b"{}")
    huge_layout = tmp_path / "huge_layout.ckpt"
    arch = {**split(ckpt)[0]["architecture"], "d_model": 10**5}  # a 10**10-value embedding
    huge_shapes = [{"name": n, "shape": list(s)} for n, s in tensor_layout(Architecture.from_dict(arch))]
    huge_layout.write_bytes(ckpt.read_bytes())
    rewrite(huge_layout, lambda m: m.update(architecture=arch, tensors=huge_shapes))
    fifo = tmp_path / "fifo.ckpt"
    os.mkfifo(fifo)
    for path, message in [("/dev/zero", "/dev/zero is not a regular file"),
                          (fifo, "fifo.ckpt is not a regular file"),
                          (huge_meta, "metadata block extends past end of file"),
                          (huge_layout, "but metadata declares")]:
        run = _run_capped_eval(path)
        assert run.returncode == 1 and run.stderr.startswith("error: checkpoint: "), run.stderr
        assert message in run.stderr, run.stderr


@pytest.mark.skipif(sys.platform != "linux", reason="needs Linux")
@pytest.mark.parametrize("split", ["train", "test"])
def test_a_task_too_large_to_generate_is_a_memory_error_under_an_address_space_cap(ckpt, split):
    task = {"kind": "gaussian_mixture", "num_classes": 2, "d_model": 4, "seq_len": 3,
            "train_size": 10**13, "test_size": 10, "seed": 0}
    rewrite(ckpt, lambda m: m.update(task=task))
    run = _run_capped_eval(ckpt, "--split", split)  # only the scored split is generated
    if split == "train":
        assert run.returncode == 1 and run.stderr.startswith("error: memory: "), run.stderr
    else:
        assert run.returncode == 0, run.stderr
        assert json.loads(run.stdout)["n"] == 10


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
