"""Pipeline configuration: model dimensions, seed, toggles.

Configs load from flat ``key=value`` text files and can be overridden by
CLI flags. The seed falls back to the ``SGA_SEED`` environment variable.
"""

from __future__ import annotations

import dataclasses
import os
from dataclasses import dataclass

SEED_ENV_VAR = "SGA_SEED"

_TOY_DIMS = dict(d_model=16, d_e=8, d_h=8, n_blocks=2, heads=2, d_ff=32)


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
        for field in ("d_model", "d_e", "d_h", "heads", "d_ff", "max_chars"):
            if getattr(self, field) <= 0:
                raise ValueError(f"{field} must be positive")
        if self.n_blocks < 0:
            raise ValueError("n_blocks must be non-negative")
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

    def replace(self, **overrides) -> "PipelineConfig":
        return dataclasses.replace(self, **overrides)


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


def load_config(path) -> PipelineConfig:
    """Parse a flat key=value config file; '#' starts a comment line."""
    fields = {f.name: f for f in dataclasses.fields(PipelineConfig)}
    values = {}
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            if "=" not in line:
                raise ValueError(f"{path}:{lineno}: expected key=value, got {line!r}")
            key, _, value = line.partition("=")
            key = key.strip()
            if key not in fields:
                raise ValueError(f"{path}:{lineno}: unknown config key {key!r}")
            try:
                values[key] = _coerce(fields[key], value.strip())
            except ValueError as exc:
                raise ValueError(f"{path}:{lineno}: {exc}") from None
    return PipelineConfig(**values)


def resolve_seed(flag_value) -> int:
    """CLI flag wins; otherwise SGA_SEED from the environment; otherwise 0."""
    if flag_value is not None:
        return int(flag_value)
    env = os.environ.get(SEED_ENV_VAR)
    if env is not None:
        return int(env)
    return 0
