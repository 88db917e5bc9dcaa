"""Binary model checkpoints.

Layout, all integers little-endian::

    bytes 0..3   magic "ONES"
    bytes 4..7   format version (uint32)
    bytes 8..15  metadata length in bytes (uint64)
    ...          metadata, UTF-8 JSON
    ...          payload: declared tensors as float64, row-major, in order

The metadata block carries the architecture, the declared tensor names and
shapes, and free-form provenance (task spec, training config, gather report).
Loading reads the header first and reads no block larger than the file. It
checks the declared tensors against the architecture's layout up to the
first difference, then assembles the model from copies of the payload's
slices. A save/load round trip is bit-identical.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import stat
import struct

import numpy as np

from ..model import Architecture, ClassifierModel, model_from_tensors, tensor_layout

MAGIC = b"ONES"
FORMAT_VERSION = 1
_HEADER = struct.Struct("<4sIQ")


class CheckpointError(Exception):
    """Base class for malformed checkpoint files."""


class BadMagicError(CheckpointError):
    pass


class VersionMismatchError(CheckpointError):
    pass


class TruncatedPayloadError(CheckpointError):
    pass


class SchemaError(CheckpointError):
    """Metadata is inconsistent with itself or with the payload."""


class NonFiniteTensorError(CheckpointError):
    """The payload holds NaN or infinite values."""


def save_checkpoint(model: ClassifierModel, meta: dict, path) -> None:
    """Serialize the model plus caller metadata. Caller keys must not collide
    with the reserved 'architecture'/'tensors' entries."""
    reserved = {"architecture", "tensors"} & set(meta)
    if reserved:
        raise ValueError(f"metadata keys {sorted(reserved)} are reserved")
    entries = model.tensors()
    header_meta = {
        "architecture": model.arch.to_dict(),
        "tensors": [{"name": name, "shape": list(t.shape)} for name, t in entries.items()],
        **meta,
    }
    blob = json.dumps(header_meta, sort_keys=True).encode("utf-8")
    with open(path, "wb") as fh:
        fh.write(_HEADER.pack(MAGIC, FORMAT_VERSION, len(blob)))
        fh.write(blob)
        for tensor in entries.values():
            fh.write(np.ascontiguousarray(tensor, dtype="<f8").tobytes())


def _declared_elements(declared: list, arch: Architecture) -> int:
    """Compare the declared tensor list with ``tensor_layout(arch)`` entry by
    entry, stopping at the first difference; return the values it declares."""
    layout, total = tensor_layout(arch), 0
    for entry in declared:
        if not isinstance(entry, dict) or "name" not in entry or "shape" not in entry:
            raise SchemaError("each tensor entry needs 'name' and 'shape'")
        name, shape = entry["name"], entry["shape"]
        if not isinstance(shape, list) or not all(type(n) is int and n >= 0 for n in shape):
            raise SchemaError(f"tensor {name!r} shape {shape!r} is not a list of non-negative integers")
        expected = next(layout, "no further tensor")
        if (name, tuple(shape)) != expected:
            raise SchemaError(f"tensor {name!r} of shape {shape} is declared where the architecture implies {expected}")
        total += math.prod(shape)
    missing = next(layout, None)
    if missing is not None:
        raise SchemaError(f"the tensors end where the architecture implies {missing}")
    return total


def load_checkpoint(path) -> tuple[ClassifierModel, dict]:
    """Read a checkpoint back into a model and its metadata dict.

    Raises a :class:`CheckpointError` subclass on any integrity problem; no
    partially filled model is ever returned.
    """
    # non-blocking, so that a FIFO opens at once, to be refused below, instead of waiting for a writer
    with open(path, "rb", opener=lambda p, flags: os.open(p, flags | getattr(os, "O_NONBLOCK", 0))) as fh:
        info = os.fstat(fh.fileno())
        if not stat.S_ISREG(info.st_mode):
            raise CheckpointError(f"{path} is not a regular file")
        header = fh.read(_HEADER.size)
        if len(header) < _HEADER.size:
            raise TruncatedPayloadError(f"file is only {len(header)} bytes, shorter than the header")
        magic, version, meta_len = _HEADER.unpack(header)
        if magic != MAGIC:
            raise BadMagicError(f"bad magic {magic!r}; not a checkpoint file")
        if version != FORMAT_VERSION:
            raise VersionMismatchError(f"format version {version} unsupported (expected {FORMAT_VERSION})")
        if meta_len > info.st_size - _HEADER.size:
            raise TruncatedPayloadError("metadata block extends past end of file")
        try:
            meta = json.loads(fh.read(meta_len).decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError, RecursionError) as exc:
            raise SchemaError(f"metadata is not valid UTF-8 JSON: {exc}") from exc
        if not isinstance(meta, dict) or "architecture" not in meta or "tensors" not in meta:
            raise SchemaError("metadata must declare 'architecture' and 'tensors'")
        try:
            arch = Architecture.from_dict(meta["architecture"])
        except (TypeError, ValueError) as exc:
            raise SchemaError(f"bad architecture block: {exc}") from exc
        if not isinstance(meta["tensors"], list):
            raise SchemaError(f"'tensors' must be a list, got {type(meta['tensors']).__name__}")
        expected_payload = 8 * _declared_elements(meta["tensors"], arch)
        payload_len = info.st_size - _HEADER.size - meta_len
        if payload_len < expected_payload:
            raise TruncatedPayloadError(f"payload is {payload_len} bytes but metadata declares {expected_payload}")
        if payload_len > expected_payload:
            raise SchemaError(f"payload is {payload_len} bytes, longer than the declared {expected_payload}")
        payload = fh.read(expected_payload)

    tensors, offset = {}, 0
    for name, shape in tensor_layout(arch):
        flat = np.frombuffer(payload, dtype="<f8", count=math.prod(shape), offset=offset)
        if not np.isfinite(flat).all():
            raise NonFiniteTensorError(f"tensor {name!r} holds NaN or infinite values")
        tensors[name] = flat.reshape(shape).astype(np.float64)  # a copy: the model owns writable arrays
        offset += flat.nbytes
    user_meta = {k: v for k, v in meta.items() if k not in ("architecture", "tensors")}
    return model_from_tensors(arch, tensors), user_meta


def file_sha256(path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            h.update(chunk)
    return h.hexdigest()
