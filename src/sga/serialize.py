"""Flat binary format for named parameter sets.

Layout: 4-byte magic ``SGA1``, then one record per parameter in ascending
name order. Each record is

    uint32 name length | name bytes (UTF-8) | uint32 rank |
    uint32 per dimension | float64 payload, row-major

with every integer and float little-endian. Loading validates the magic,
shape bookkeeping, and that every value is finite.
"""

from __future__ import annotations

import math
import struct
from typing import Iterable

import numpy as np

from .autodiff import Parameter
from .errors import ConfigError, NumericError

MAGIC = b"SGA1"
_U32 = struct.Struct("<I")


def save_parameters(path, params: Iterable[Parameter]) -> None:
    records = sorted(params, key=lambda p: p.name)
    names = [p.name for p in records]
    if len(set(names)) != len(names):
        raise ValueError("parameter names must be unique")
    with open(path, "wb") as fh:
        fh.write(MAGIC)
        for p in records:
            name = p.name.encode("utf-8")
            fh.write(_U32.pack(len(name)))
            fh.write(name)
            fh.write(_U32.pack(p.data.ndim))
            for dim in p.data.shape:
                fh.write(_U32.pack(dim))
            fh.write(np.ascontiguousarray(p.data, dtype="<f8").tobytes())


def load_parameters(path) -> dict[str, np.ndarray]:
    with open(path, "rb") as fh:
        blob = fh.read()
    if blob[:4] != MAGIC:
        raise ValueError(f"{path}: not a parameter file (bad magic {blob[:4]!r})")
    out: dict[str, np.ndarray] = {}
    offset = 4

    def read_u32():
        nonlocal offset
        if offset + 4 > len(blob):
            raise ValueError(f"{path}: truncated parameter file")
        (value,) = _U32.unpack_from(blob, offset)
        offset += 4
        return value

    while offset < len(blob):
        name_len = read_u32()
        try:
            name = blob[offset : offset + name_len].decode("utf-8")
        except UnicodeDecodeError:
            raise ValueError(f"{path}: parameter name is not valid UTF-8") from None
        offset += name_len
        rank = read_u32()
        shape = tuple(read_u32() for _ in range(rank))
        count = math.prod(shape)  # exact: np.prod wraps at 2**63
        end = offset + 8 * count
        if end > len(blob):
            raise ValueError(f"{path}: truncated payload for {name!r}")
        data = np.frombuffer(blob[offset:end], dtype="<f8").reshape(shape)
        offset = end
        if not np.all(np.isfinite(data)):
            raise NumericError(f"{path}: non-finite values in {name!r}")
        if name in out:
            raise ValueError(f"{path}: duplicate parameter {name!r}")
        out[name] = np.ascontiguousarray(data, dtype=np.float64)
    return out


def load_into(params: Iterable[Parameter], path) -> None:
    """Assign a saved parameter set onto live parameters by name."""
    loaded = load_parameters(path)
    params = list(params)
    expected = {p.name for p in params}
    missing = expected - set(loaded)
    extra = set(loaded) - expected
    if missing or extra:
        raise ConfigError(
            f"{path}: parameter names do not match the configured model "
            f"(missing {sorted(missing)}, unexpected {sorted(extra)})"
        )
    for p in params:
        if loaded[p.name].shape != p.data.shape:
            raise ConfigError(
                f"{path}: shape mismatch for {p.name!r}: file has "
                f"{loaded[p.name].shape}, model expects {p.data.shape}"
            )
        p.assign(loaded[p.name])
