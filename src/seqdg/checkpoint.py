"""Versioned binary checkpoints.

Layout: an 8-byte magic, a little-endian uint32 format version, a
little-endian uint64 header length, a UTF-8 JSON header, then the raw
parameter payload as little-endian float64 arrays back to back. The
header lists parameters sorted by name with shapes and payload offsets,
plus a config echo and an optional RNG state, so saving what was loaded
reproduces the file byte for byte.
"""

from __future__ import annotations

import json
import math
import struct
from pathlib import Path

import numpy as np

from seqdg.config import field_defaults, field_problems
from seqdg.model import ModelConfig, ModelParams, SeqDGModel

__all__ = [
    "CheckpointError",
    "save_checkpoint",
    "load_checkpoint",
    "load_model",
    "strip_text_parameters",
]

MAGIC = b"SEQDGCKP"
VERSION = 1


class CheckpointError(Exception):
    """Unreadable or inconsistent checkpoint file."""


def save_checkpoint(path, params: ModelParams, *, rng_state: dict | None = None,
                    extra: dict | None = None) -> Path:
    """Write config, named parameters, and RNG state. Deterministic: the
    same contents always produce the same bytes."""
    named = params.named()
    entries = []
    offset = 0
    payload = []
    for name in sorted(named):
        arr = np.ascontiguousarray(named[name].data, dtype="<f8")
        entries.append({"name": name, "shape": list(arr.shape),
                        "offset": offset, "size": int(arr.size)})
        payload.append(arr.tobytes())
        offset += arr.size * 8
    header = {
        "config": params.config.to_dict(),
        "params": entries,
        "rng_state": rng_state,
        "extra": extra or {},
    }
    header_bytes = json.dumps(header, sort_keys=True).encode("utf-8")
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "wb") as fh:
        fh.write(MAGIC)
        fh.write(struct.pack("<I", VERSION))
        fh.write(struct.pack("<Q", len(header_bytes)))
        fh.write(header_bytes)
        for chunk in payload:
            fh.write(chunk)
    return path


def load_checkpoint(path) -> tuple[ModelParams, dict]:
    """Read a checkpoint back into ModelParams plus its header metadata.
    Any truncated, malformed or inconsistent file raises CheckpointError:
    the header's model config must pass the config-file typing rule and
    validation, its entries must tile the payload in header order, each
    array must have the shape the config gives its parameter, and every
    value must be finite."""
    path = Path(path)
    try:
        raw = path.read_bytes()
    except OSError as exc:
        raise CheckpointError(f"cannot read checkpoint: {exc}") from exc
    if raw[:8] != MAGIC:
        raise CheckpointError(f"{path}: not a checkpoint (bad magic)")
    if len(raw) < 20:
        raise CheckpointError(f"{path}: truncated before the header")
    version = struct.unpack("<I", raw[8:12])[0]
    if version != VERSION:
        raise CheckpointError(f"{path}: unsupported checkpoint version {version}")
    header_len = struct.unpack("<Q", raw[12:20])[0]
    if 20 + header_len > len(raw):
        raise CheckpointError(f"{path}: header of {header_len} bytes runs past the "
                              f"end of the {len(raw)}-byte file")
    size = len(raw) - 20 - header_len
    # the payload's whole values, a view of the file's bytes: each parameter
    # is a view of it, and `from_named` copies them into the model
    payload = np.frombuffer(raw, dtype="<f8", count=size // 8, offset=20 + header_len)
    try:
        header = json.loads(raw[20:20 + header_len].decode("utf-8"))
        config = header["config"]
        problems = field_problems("config", config, field_defaults(ModelConfig))
        if problems:
            raise CheckpointError(f"{path}: " + "; ".join(problems))
        config = ModelConfig(**config).check()
        arrays = {}
        end = 0
        for entry in header["params"]:
            name, shape, start, count = _entry_fields(path, entry)
            if start != end:
                raise CheckpointError(f"{path}: parameter {name!r} starts at payload byte "
                                      f"{start}, not at {end} where the one before ends")
            end = start + 8 * count
            if end > size:
                raise CheckpointError(f"{path}: parameter {name!r} runs past "
                                      f"the end of the payload (truncated file?)")
            arrays[name] = payload[start // 8:end // 8].reshape(shape)
        if end != size:
            raise CheckpointError(f"{path}: {size - end} payload bytes follow the "
                                  "last parameter")
        # the entries tile the payload, so one pass checks every parameter
        finite = np.isfinite(payload)
        if not finite.all():
            first = 8 * int(finite.argmin())
            name = next(entry["name"] for entry in header["params"]
                        if first < entry["offset"] + 8 * entry["size"])
            raise CheckpointError(f"{path}: parameter {name!r} holds NaN or Inf")
        params = ModelParams.from_named(config, arrays)
    except (KeyError, TypeError, ValueError) as exc:
        # ValueError covers undecodable bytes and JSON, configs that
        # ModelConfig rejects and arrays of the wrong shape
        raise CheckpointError(f"{path}: {exc}") from exc
    return params, header


def _entry_fields(path, entry) -> tuple[str, list[int], int, int]:
    """Name, shape, byte offset and element count of one header entry, each
    of its JSON type, the count the product of the shape."""
    name, shape, start, count = entry["name"], entry["shape"], entry["offset"], entry["size"]
    if (type(name) is not str or type(start) is not int or type(count) is not int
            or type(shape) is not list or any(type(n) is not int or n < 0 for n in shape)):
        raise CheckpointError(f"{path}: malformed entry for parameter {name!r}")
    if math.prod(shape) != count:
        raise CheckpointError(f"{path}: parameter {name!r} has shape {shape} but "
                              f"size {count}")
    return name, shape, start, count


def load_model(path) -> SeqDGModel:
    params, _ = load_checkpoint(path)
    return SeqDGModel(params)


def strip_text_parameters(src_path, dst_path) -> Path:
    """Copy a checkpoint without any text-side parameters (the text
    decoder stack and the text output head). Predictions from the
    stripped model are bitwise identical: inference never reads them."""
    params, header = load_checkpoint(src_path)
    params.dec_text = None
    params.text_head = None
    return save_checkpoint(dst_path, params, rng_state=header.get("rng_state"),
                           extra=header.get("extra"))
