import json
import os
import re
import signal
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


def test_negative_d_model(ckpt):
    rewrite(ckpt, lambda m: m["architecture"].update(d_model=-32))
    with pytest.raises(CheckpointError, match="d_model must be a positive integer"):
        load_checkpoint(ckpt)


def test_retired_architecture_key(ckpt):
    # checkpoints that recorded the router noise scale as a setting
    rewrite(ckpt, lambda m: m["architecture"].update(router_noise_std=None))
    with pytest.raises(CheckpointError, match="bad architecture block: .*router_noise_std"):
        load_checkpoint(ckpt)


def test_architecture_recording_parameter_sharing(ckpt):
    # checkpoints written while sharing the feed-forward stage across blocks was a setting
    rewrite(ckpt, lambda m: m["architecture"].update(parameter_sharing=True))
    with pytest.raises(CheckpointError, match="bad architecture block: .*parameter_sharing"):
        load_checkpoint(ckpt)


@pytest.mark.parametrize("name", ["relu", "gelu"])
def test_architecture_recording_activation(ckpt, name):
    # checkpoints written while the activation was a setting, ReLU or GELU, record it
    rewrite(ckpt, lambda m: m["architecture"].update(activation=name))
    with pytest.raises(CheckpointError, match="bad architecture block: .*activation"):
        load_checkpoint(ckpt)


def test_oversized_architecture_rejected_before_allocation(ckpt):
    # shapes still match the payload; building this architecture would need terabytes
    rewrite(ckpt, lambda m: m["architecture"].update(d_model=10**6))
    with pytest.raises(CheckpointError, match="architecture implies"):
        load_checkpoint(ckpt)


@pytest.mark.parametrize("field", ["num_blocks", "num_experts"])
def test_an_architecture_of_two_to_the_forty_is_rejected_at_once(ckpt, field):
    # its layout is walked lazily, so the load stops once the tensors outgrow
    # the payload instead of walking 2**40 blocks or experts
    rewrite(ckpt, lambda m: m["architecture"].update({field: 2**40}))
    with pytest.raises(CheckpointError, match="architecture implies"):
        load_checkpoint(ckpt)


def test_metadata_longer_than_the_file(ckpt):
    meta, payload = split(ckpt)
    blob = json.dumps(meta).encode()
    ckpt.write_bytes(_HEADER.pack(MAGIC, FORMAT_VERSION, 2**62) + blob + payload)
    with pytest.raises(CheckpointError, match="metadata block extends past end of file"):
        load_checkpoint(ckpt)


@pytest.mark.parametrize("key", ["architecture"])
def test_reserved_metadata_keys_are_refused(tmp_path, key):
    path = tmp_path / "m.ckpt"
    with pytest.raises(ValueError, match=f"metadata keys \\['{key}'\\] are reserved"):
        save_checkpoint(tiny_model(), {key: None}, path)
    assert not path.exists()


def test_a_file_shorter_than_the_header(ckpt):
    ckpt.write_bytes(ckpt.read_bytes()[: _HEADER.size - 1])
    with pytest.raises(CheckpointError, match=f"only {_HEADER.size - 1} bytes, shorter than the header"):
        load_checkpoint(ckpt)


def test_another_format_version(ckpt):
    raw = ckpt.read_bytes()
    _, _, meta_len = _HEADER.unpack_from(raw)
    ckpt.write_bytes(_HEADER.pack(MAGIC, FORMAT_VERSION + 1, meta_len) + raw[_HEADER.size :])
    with pytest.raises(CheckpointError, match=f"format version {FORMAT_VERSION + 1} unsupported"):
        load_checkpoint(ckpt)


def test_a_file_in_the_version_1_format_is_refused(ckpt, capsys):
    # version 1 also listed each tensor's name and shape, which the architecture implies
    meta, payload = split(ckpt)
    layout = tensor_layout(Architecture(**meta["architecture"]))
    blob = json.dumps({**meta, "tensors": [{"name": n, "shape": list(s)} for n, s in layout]}, sort_keys=True).encode()
    ckpt.write_bytes(_HEADER.pack(MAGIC, 1, len(blob)) + blob + payload)
    with pytest.raises(CheckpointError, match=re.escape("format version 1 unsupported (expected 2)")):
        load_checkpoint(ckpt)
    assert cli.main(["eval", "--model", str(ckpt)]) == 1
    assert capsys.readouterr().err == "error: checkpoint: format version 1 unsupported (expected 2)\n"


def test_a_file_with_another_magic(ckpt, capsys):
    ckpt.write_bytes(b"XXXX" + ckpt.read_bytes()[4:])
    with pytest.raises(CheckpointError, match=re.escape("bad magic b'XXXX'; not a checkpoint file")):
        load_checkpoint(ckpt)
    assert cli.main(["eval", "--model", str(ckpt)]) == 1
    assert capsys.readouterr().err == "error: checkpoint: bad magic b'XXXX'; not a checkpoint file\n"


def test_a_payload_longer_than_declared(ckpt):
    implied = len(split(ckpt)[1])
    rewrite(ckpt, payload=bytes(implied + 8))
    with pytest.raises(CheckpointError, match=f"{implied + 8} bytes, longer than the {implied} the architecture implies$"):
        load_checkpoint(ckpt)


def test_metadata_nested_too_deeply(ckpt, capsys):
    meta, payload = split(ckpt)
    deep = b"[" * 100_000 + b"]" * 100_000
    blob = json.dumps(meta).encode()[:-1] + b', "deep": ' + deep + b"}"
    ckpt.write_bytes(_HEADER.pack(MAGIC, FORMAT_VERSION, len(blob)) + blob + payload)
    with pytest.raises(CheckpointError, match="metadata is not valid UTF-8 JSON: maximum recursion depth"):
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
    huge_layout.write_bytes(ckpt.read_bytes())
    rewrite(huge_layout, lambda m: m["architecture"].update(d_model=10**5))  # a 10**10-value embedding
    fifo = tmp_path / "fifo.ckpt"
    os.mkfifo(fifo)
    for path, message in [("/dev/zero", "/dev/zero is not a regular file"),
                          (fifo, "fifo.ckpt is not a regular file"),
                          (huge_meta, "metadata block extends past end of file"),
                          (huge_layout, "but the architecture implies at least")]:
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


@pytest.mark.skipif(not hasattr(os, "mkfifo") or not hasattr(signal, "SIGALRM"), reason="needs FIFOs and SIGALRM")
def test_a_fifo_or_device_is_refused_at_once(tmp_path, capsys):
    fifo = tmp_path / "fifo.ckpt"
    os.mkfifo(fifo)

    def waited(signum, frame):
        raise TimeoutError("the load waited for a writer")

    previous = signal.signal(signal.SIGALRM, waited)
    signal.alarm(10)  # a blocking open of a FIFO with no writer never returns
    try:
        for path in (fifo, Path(os.devnull)):
            with pytest.raises(CheckpointError, match=re.escape(f"{path} is not a regular file")):
                load_checkpoint(path)
        assert cli.main(["eval", "--model", str(fifo)]) == 1
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)
    assert capsys.readouterr().err.startswith(f"error: checkpoint: {fifo} is not a regular file")


def test_a_payload_short_of_the_declared_tensors(ckpt):
    raw = ckpt.read_bytes()
    implied = len(split_bytes(raw)[1])
    ckpt.write_bytes(raw[:-8])
    with pytest.raises(CheckpointError, match=f"payload is {implied - 8} bytes but the architecture implies at least {implied}$"):
        load_checkpoint(ckpt)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_non_finite_payload(ckpt, bad):
    payload = bytearray(split(ckpt)[1])
    payload[8:16] = np.array([bad], dtype="<f8").tobytes()  # second embed entry
    rewrite(ckpt, payload=bytes(payload))
    with pytest.raises(CheckpointError, match="'embed'"):
        load_checkpoint(ckpt)


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
