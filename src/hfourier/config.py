"""Run configuration: grids and truncation caps.

All discretization choices live here rather than being hard-coded; the
JSON layout mirrors the dataclasses field-for-field, and a key that no
field names is an error.
"""

import json
import math
from dataclasses import dataclass, field

from .freq_space import LambdaGrid

__all__ = ["Config", "PhysGridSpec", "default_config", "load_config"]

# largest accepted n_max; hermite sizes its rotation-block cache from it
N_MAX_CAP = 64


@dataclass
class PhysGridSpec:
    """Uniform symmetric grid on [-L, L] per coordinate block (y, eta, s)."""

    extents: tuple = (6.0, 6.0, 6.0)
    points: tuple = (33, 33, 33)


@dataclass
class Config:
    d: int = 1
    n_max: int = 24
    lambda_grid: LambdaGrid = field(default_factory=LambdaGrid)
    phys_grid: PhysGridSpec = field(default_factory=PhysGridSpec)
    # taller s-box used by checks that integrate slowly decaying vertical
    # tails (the heat kernel's sech-type marginal keeps ~5e-4 of its mass
    # beyond |s| = 18)
    heat_phys_grid: PhysGridSpec = field(
        default_factory=lambda: PhysGridSpec(extents=(6.0, 6.0, 20.0), points=(33, 33, 107))
    )
    seed: int = 20240901

    def __post_init__(self):
        if self.d not in (1, 2):
            raise ValueError("d must be 1 or 2")
        if not (1 <= self.n_max <= N_MAX_CAP):
            raise ValueError(f"n_max must lie in [1, {N_MAX_CAP}]")
        for name in ("phys_grid", "heat_phys_grid"):
            spec = getattr(self, name)
            if not all(math.isfinite(h) and h > 0 for h in spec.extents):
                raise ValueError(f"{name} extents must be finite and positive")
            if any(n < 5 or n % 2 == 0 for n in spec.points):
                raise ValueError(f"{name} point counts must be odd and >= 5")


def default_config():
    return Config()


def _check_keys(raw, cls, where):
    """Refuse any key of ``raw`` that is not a field of ``cls``."""
    unknown = sorted(set(raw) - set(cls.__dataclass_fields__))
    if unknown:
        raise ValueError(f"unknown config key {where + unknown[0]!r}")


def _spec_from(raw, cls, where):
    _check_keys(raw, cls, where)
    known = dict(raw)
    if "extents" in known:
        known["extents"] = tuple(known["extents"])
    if "points" in known:
        known["points"] = tuple(known["points"])
    return cls(**known)


def _refuse_constant(token):
    raise ValueError(f"non-standard JSON constant {token}")


def load_config(path):
    """Read a Config from a JSON file; missing fields fall back to defaults.

    Raises ValueError naming the first key that no field of the
    configuration (or of the grid it sits in) accepts, and one naming
    ``path`` for a file that is not standard JSON (NaN and Infinity
    included).
    """
    try:
        with open(path) as fh:
            raw = json.load(fh, parse_constant=_refuse_constant)
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from None
    _check_keys(raw, Config, "")
    kwargs = dict(raw)
    for key, cls in (("lambda_grid", LambdaGrid), ("phys_grid", PhysGridSpec),
                     ("heat_phys_grid", PhysGridSpec)):
        if key in raw:
            kwargs[key] = _spec_from(raw[key], cls, key + ".")
    return Config(**kwargs)
