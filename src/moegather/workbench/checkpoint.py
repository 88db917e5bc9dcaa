"""Binary model checkpoints.

Layout, all integers little-endian::

    bytes 0..3   magic "ONES"
    bytes 4..7   format version (uint32)
    bytes 8..15  metadata length in bytes (uint64)
    ...          metadata, UTF-8 JSON
    ...          payload: declared tensors as float64, row-major, in order

The metadata block carries the architecture, the declared tensor names and
shapes, and free-form provenance (task spec, training config, gather report).
Loading rebuilds the model and overwrites every tensor from the payload, so a
save/load round trip is bit-identical.
"""

from __future__ import annotations

import hashlib
import json
import math
import struct

import numpy as np

from ..model import Architecture, ClassifierModel, build_classifier, tensor_elements
from ..numerics import Rng

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


def _tensor_entries(model: ClassifierModel) -> list[tuple[str, np.ndarray]]:
    entries = list(model.parameters().items())
    entries += list(model.constants().items())
    return entries


def save_checkpoint(model: ClassifierModel, meta: dict, path) -> None:
    """Serialize the model plus caller metadata. Caller keys must not collide
    with the reserved 'architecture'/'tensors' entries."""
    reserved = {"architecture", "tensors"} & set(meta)
    if reserved:
        raise ValueError(f"metadata keys {sorted(reserved)} are reserved")
    entries = _tensor_entries(model)
    header_meta = {
        "architecture": model.arch.to_dict(),
        "tensors": [{"name": name, "shape": list(t.shape)} for name, t in entries],
        **meta,
    }
    blob = json.dumps(header_meta, sort_keys=True).encode("utf-8")
    with open(path, "wb") as fh:
        fh.write(_HEADER.pack(MAGIC, FORMAT_VERSION, len(blob)))
        fh.write(blob)
        for _, tensor in entries:
            fh.write(np.ascontiguousarray(tensor, dtype="<f8").tobytes())


def load_checkpoint(path) -> tuple[ClassifierModel, dict]:
    """Read a checkpoint back into a model and its metadata dict.

    Raises a :class:`CheckpointError` subclass on any integrity problem; no
    partially filled model is ever returned.
    """
    with open(path, "rb") as fh:
        raw = fh.read()
    if len(raw) < _HEADER.size:
        raise TruncatedPayloadError(f"file is only {len(raw)} bytes, shorter than the header")
    magic, version, meta_len = _HEADER.unpack_from(raw)
    if magic != MAGIC:
        raise BadMagicError(f"bad magic {magic!r}; not a checkpoint file")
    if version != FORMAT_VERSION:
        raise VersionMismatchError(f"format version {version} unsupported (expected {FORMAT_VERSION})")
    meta_end = _HEADER.size + meta_len
    if len(raw) < meta_end:
        raise TruncatedPayloadError("metadata block extends past end of file")
    try:
        meta = json.loads(raw[_HEADER.size : meta_end].decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise SchemaError(f"metadata is not valid UTF-8 JSON: {exc}") from exc
    if not isinstance(meta, dict) or "architecture" not in meta or "tensors" not in meta:
        raise SchemaError("metadata must declare 'architecture' and 'tensors'")
    try:
        arch = Architecture.from_dict(meta["architecture"])
    except (TypeError, ValueError) as exc:
        raise SchemaError(f"bad architecture block: {exc}") from exc

    declared = meta["tensors"]
    if not isinstance(declared, list):
        raise SchemaError(f"'tensors' must be a list, got {type(declared).__name__}")
    sizes = []
    for entry in declared:
        if not isinstance(entry, dict) or "name" not in entry or "shape" not in entry:
            raise SchemaError("each tensor entry needs 'name' and 'shape'")
        shape = entry["shape"]
        if not isinstance(shape, list) or not all(type(n) is int and n >= 0 for n in shape):
            raise SchemaError(f"tensor {entry['name']!r} shape {shape!r} is not a list of non-negative integers")
        sizes.append(math.prod(shape))
    expected_payload = 8 * sum(sizes)
    payload = raw[meta_end:]
    if len(payload) < expected_payload:
        raise TruncatedPayloadError(
            f"payload is {len(payload)} bytes but metadata declares {expected_payload}"
        )
    if len(payload) > expected_payload:
        raise SchemaError(
            f"payload is {len(payload)} bytes, longer than the declared {expected_payload}"
        )
    implied = tensor_elements(arch)
    if implied != sum(sizes):
        raise SchemaError(f"architecture implies {implied} tensor values but the tensors declare {sum(sizes)}")

    model = build_classifier(arch, Rng(0))
    targets = dict(_tensor_entries(model))
    if [e["name"] for e in declared] != list(targets.keys()):
        raise SchemaError("declared tensor names do not match the architecture's tensor set")
    offset = 0
    for entry, size in zip(declared, sizes):
        target = targets[entry["name"]]
        if list(target.shape) != list(entry["shape"]):
            raise SchemaError(
                f"tensor {entry['name']!r} declared shape {entry['shape']} "
                f"but architecture implies {list(target.shape)}"
            )
        flat = np.frombuffer(payload, dtype="<f8", count=size, offset=offset)
        if not np.isfinite(flat).all():
            raise NonFiniteTensorError(f"tensor {entry['name']!r} holds NaN or infinite values")
        target[...] = flat.reshape(target.shape)
        offset += 8 * size
    user_meta = {k: v for k, v in meta.items() if k not in ("architecture", "tensors")}
    return model, user_meta


def file_sha256(path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            h.update(chunk)
    return h.hexdigest()
