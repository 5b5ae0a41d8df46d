"""Pipeline configuration: model dimensions, seed, toggles.

Configs load from flat ``key=value`` text files and can be overridden by
CLI flags. The seed comes from the ``--seed`` flag, else the ``SGA_SEED``
environment variable, else the file, else 0.
"""

from __future__ import annotations

import dataclasses
import os
from dataclasses import dataclass

from .errors import read_utf8

SEED_ENV_VAR = "SGA_SEED"

_TOY_DIMS = dict(d_model=16, d_e=8, d_h=8, n_blocks=2, heads=2, d_ff=32)
_POSITIVE = ("d_model", "d_e", "d_h", "heads", "d_ff", "max_chars")


def _check_field(name: str, value) -> None:
    if name in _POSITIVE and value <= 0:
        raise ValueError(f"{name} must be positive")
    if name in ("n_blocks", "seed") and value < 0:
        raise ValueError(f"{name} must be non-negative")


@dataclass
class PipelineConfig:
    d_model: int = 256
    d_e: int = 200
    d_h: int = 200
    n_blocks: int = 6
    heads: int = 4
    d_ff: int = 1024
    seed: int = 0
    use_positions: bool = True
    max_chars: int = 400

    def __post_init__(self):
        for field in dataclasses.fields(self):
            _check_field(field.name, getattr(self, field.name))
        if self.d_model % self.heads != 0:
            raise ValueError(
                f"d_model ({self.d_model}) must be divisible by heads ({self.heads})"
            )

    @property
    def d_head(self) -> int:
        return self.d_model // self.heads

    @classmethod
    def toy(cls, **overrides) -> "PipelineConfig":
        """Desk-scale dimensions for fast experiments and gradient checks."""
        merged = {**_TOY_DIMS, **overrides}
        return cls(**merged)


def _coerce(field: dataclasses.Field, raw: str):
    if field.type in ("bool", bool):
        low = raw.strip().lower()
        if low in ("1", "true", "yes", "on"):
            return True
        if low in ("0", "false", "no", "off"):
            return False
        raise ValueError(f"{field.name}: cannot parse boolean from {raw!r}")
    try:
        return int(raw)
    except ValueError:
        raise ValueError(f"{field.name}: cannot parse integer from {raw!r}") from None


def load_config(path, **overrides) -> PipelineConfig:
    """Parse a flat key=value config file; '#' starts a comment line, and a
    UTF-8 byte-order mark is skipped (see `errors.read_utf8`).
    `overrides` (CLI flags) replace the file's values before the config is
    validated, so a flag can repair a file. Errors name the file, and the
    line of a key whose value is bad on its own."""
    for key, value in overrides.items():
        _check_field(key, value)
    fields = {f.name: f for f in dataclasses.fields(PipelineConfig)}
    values = {}
    for lineno, raw in enumerate(read_utf8(path).split("\n"), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ValueError(f"{path}:{lineno}: expected key=value, got {line!r}")
        key, _, value = line.partition("=")
        key = key.strip()
        if key not in fields:
            raise ValueError(f"{path}:{lineno}: unknown config key {key!r}")
        if key in values:
            raise ValueError(f"{path}:{lineno}: duplicate config key {key!r}")
        try:
            values[key] = _coerce(fields[key], value.strip())
            _check_field(key, values[key])
        except ValueError as exc:
            raise ValueError(f"{path}:{lineno}: {exc}") from None
    try:
        return PipelineConfig(**{**values, **overrides})
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from None


def resolve_seed(flag_value, fallback=0):
    """CLI flag wins; otherwise SGA_SEED from the environment; otherwise
    `fallback`. A seed that is not a non-negative integer is a ValueError
    naming its source."""
    source, raw = "--seed", flag_value
    if raw is None:
        source, raw = SEED_ENV_VAR, os.environ.get(SEED_ENV_VAR)
    if raw is None:
        return fallback
    text = str(raw).strip()
    if not text.isdecimal():
        raise ValueError(f"{source} must be a non-negative integer, got {raw!r}")
    return int(text)
