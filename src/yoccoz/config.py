"""Run configuration: a flat dataclass, a key=value file loader, and flag
overrides.  Unknown keys are rejected so typos cannot silently change runs."""

from __future__ import annotations

import math
import os
from dataclasses import asdict, dataclass, fields


@dataclass
class Config:
    # ray tracing
    start_radius: float = 100.0
    steps_per_halving: int = 4
    newton_cap: int = 60
    pot_lo: float = 1e-4
    # grids
    grid_ny: int = 65
    strip_window: float = 8.0
    # budgets
    search_budget: int = 24
    renorm_budget: int = 30
    max_tile_level: int = 24
    lamination_depth: int = 8
    # misc
    seed: int = 0
    cache_dir: str = ""

    def __post_init__(self):
        for f in fields(self):
            value = getattr(self, f.name)
            if isinstance(value, float) and not math.isfinite(value):
                raise ValueError(f"config key {f.name} must be finite, got {value}")
        for name in ("start_radius", "steps_per_halving", "newton_cap", "pot_lo", "grid_ny",
                     "strip_window", "search_budget", "renorm_budget", "max_tile_level",
                     "lamination_depth"):
            if getattr(self, name) <= 0:
                raise ValueError(f"config key {name} must be positive")

    def resolved_cache_dir(self) -> str:
        return os.environ.get("YOCCOZ_CACHE_DIR", self.cache_dir or ".yoccoz-cache")


def load_config(path: str | None, overrides: dict | None = None) -> Config:
    """Plain-text key=value file; later flags override file values."""
    values: dict = {}
    valid = {f.name: f.type for f in fields(Config)}
    if path:
        with open(path) as fh:
            for line_no, raw in enumerate(fh, 1):
                line = raw.split("#", 1)[0].strip()
                if not line:
                    continue
                if "=" not in line:
                    raise ValueError(f"{path}:{line_no}: expected key=value")
                key, val = (s.strip() for s in line.split("=", 1))
                if key not in valid:
                    raise ValueError(f"{path}:{line_no}: unknown config key {key!r}")
                values[key] = val
    if overrides:
        for key, val in overrides.items():
            if val is None:
                continue
            if key not in valid:
                raise ValueError(f"unknown config key {key!r}")
            values[key] = val
    cfg = Config()
    for key, val in values.items():
        current = getattr(cfg, key)
        cast = type(current)
        setattr(cfg, key, cast(val))
    cfg.__post_init__()
    return cfg


def config_dict(cfg: Config) -> dict:
    return asdict(cfg)
