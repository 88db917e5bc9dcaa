"""Binary model checkpoints.

Layout, all integers little-endian::

    bytes 0..3   magic "ONES"
    bytes 4..7   format version (uint32)
    bytes 8..15  metadata length in bytes (uint64)
    ...          metadata, UTF-8 JSON
    ...          payload: the architecture's tensors as float64, row-major, in order

The metadata block carries the architecture and free-form provenance (task
spec, training config, gather report). The architecture implies every
tensor's name and shape (``model.tensor_layout``), so the file states them
nowhere else. The payload holds, in order: ``embed``; each block's
``ln1.gain``, ``ln1.bias``, ``ln2.gain`` and ``ln2.bias``; the router of an
MoE; each feed-forward network's ``w1``, ``b1``, ``w2`` and ``b2`` (one per
expert, or the dense stage's one); ``head.w`` and ``head.b``; each block's
mixer.

Loading reads the header first and reads no block larger than the file. It
walks the architecture's layout once and stops as soon as the tensors outgrow
the payload; the payload must then end where they do, and it is sliced into
copies, from which the model is assembled. A save/load round trip is
bit-identical.
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
FORMAT_VERSION = 2
_HEADER = struct.Struct("<4sIQ")


class CheckpointError(Exception):
    """A malformed checkpoint file; the message names the fault."""


def save_checkpoint(model: ClassifierModel, meta: dict, path) -> None:
    """Serialize the model plus caller metadata. 'architecture' is the one
    reserved key; a caller's metadata must not use it."""
    if "architecture" in meta:
        raise ValueError("metadata keys ['architecture'] are reserved")
    blob = json.dumps({"architecture": model.arch.to_dict(), **meta}, sort_keys=True).encode("utf-8")
    with open(path, "wb") as fh:
        fh.write(_HEADER.pack(MAGIC, FORMAT_VERSION, len(blob)))
        fh.write(blob)
        for tensor in model.tensors().values():
            fh.write(np.ascontiguousarray(tensor, dtype="<f8").tobytes())


def load_checkpoint(path) -> tuple[ClassifierModel, dict]:
    """Read a checkpoint back into a model and its metadata dict.

    Raises :class:`CheckpointError`, whose message names the fault, on any
    integrity problem; no partially filled model is ever returned.
    """
    # non-blocking, so that a FIFO opens at once, to be refused below, instead of waiting for a writer
    with open(path, "rb", opener=lambda p, flags: os.open(p, flags | getattr(os, "O_NONBLOCK", 0))) as fh:
        info = os.fstat(fh.fileno())
        if not stat.S_ISREG(info.st_mode):
            raise CheckpointError(f"{path} is not a regular file")
        header = fh.read(_HEADER.size)
        if len(header) < _HEADER.size:
            raise CheckpointError(f"file is only {len(header)} bytes, shorter than the header")
        magic, version, meta_len = _HEADER.unpack(header)
        if magic != MAGIC:
            raise CheckpointError(f"bad magic {magic!r}; not a checkpoint file")
        if version != FORMAT_VERSION:
            raise CheckpointError(f"format version {version} unsupported (expected {FORMAT_VERSION})")
        if meta_len > info.st_size - _HEADER.size:
            raise CheckpointError("metadata block extends past end of file")
        try:
            meta = json.loads(fh.read(meta_len).decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError, RecursionError) as exc:
            raise CheckpointError(f"metadata is not valid UTF-8 JSON: {exc}") from exc
        if not isinstance(meta, dict) or "architecture" not in meta:
            raise CheckpointError("metadata must declare 'architecture'")
        try:
            arch = Architecture.from_dict(meta["architecture"])
        except (TypeError, ValueError) as exc:
            raise CheckpointError(f"bad architecture block: {exc}") from exc
        # walk the layout only as far as the payload reaches, so a huge architecture fails without allocating
        payload_len, layout, size = info.st_size - _HEADER.size - meta_len, [], 0
        for name, shape in tensor_layout(arch):
            size += 8 * math.prod(shape)
            if size > payload_len:
                raise CheckpointError(f"payload is {payload_len} bytes but the architecture implies at least {size}")
            layout.append((name, shape))
        if payload_len > size:
            raise CheckpointError(f"payload is {payload_len} bytes, longer than the {size} the architecture implies")
        payload = fh.read(size)

    tensors, offset = {}, 0
    for name, shape in layout:
        flat = np.frombuffer(payload, dtype="<f8", count=math.prod(shape), offset=offset)
        if not np.isfinite(flat).all():
            raise CheckpointError(f"tensor {name!r} holds NaN or infinite values")
        tensors[name] = flat.reshape(shape).astype(np.float64)  # a copy: the model owns writable arrays
        offset += flat.nbytes
    return model_from_tensors(arch, tensors), {k: v for k, v in meta.items() if k != "architecture"}


def file_sha256(path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            h.update(chunk)
    return h.hexdigest()
