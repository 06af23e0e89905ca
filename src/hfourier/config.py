"""Run configuration: grids and truncation caps.

All discretization choices live here rather than being hard-coded; the
JSON layout mirrors the dataclasses field-for-field, and a key that no
field names is an error.
"""

import json
import math
from dataclasses import dataclass, field

from .freq_space import LambdaGrid, _check_types

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
        _check_types(vars(self))
        if self.d not in (1, 2):
            raise ValueError("d must be 1 or 2")
        if not (1 <= self.n_max <= N_MAX_CAP):
            raise ValueError(f"n_max must lie in [1, {N_MAX_CAP}]")
        for name in ("phys_grid", "heat_phys_grid"):
            spec = getattr(self, name)
            _check_types(vars(spec), name + ".")
            if not all(math.isfinite(h) and h > 0 for h in spec.extents):
                raise ValueError(f"{name} extents must be finite and positive")
            if any(n < 5 or n % 2 == 0 for n in spec.points):
                raise ValueError(f"{name} point counts must be odd and >= 5")


def default_config():
    return Config()


def _fields(raw, cls, where):
    """The keyword arguments for ``cls`` that the JSON value ``raw`` holds.

    Refuses a value that is not an object, a key that names no field of
    ``cls`` and a value of the wrong type, naming the whole key."""
    if not isinstance(raw, dict):
        what = f"config key {where[:-1]!r}" if where else "the top level"
        raise ValueError(f"{what} must be a JSON object")
    unknown = sorted(set(raw) - set(cls.__dataclass_fields__))
    if unknown:
        raise ValueError(f"unknown config key {where + unknown[0]!r}")
    _check_types(raw, where)
    return {key: tuple(value) if isinstance(value, list) else value for key, value in raw.items()}


def _refuse_constant(token):
    raise ValueError(f"non-standard JSON constant {token}")


def load_config(path):
    """Read a Config from a JSON file; missing fields fall back to defaults.

    Raises ValueError naming ``path`` for a file that is not standard JSON
    (NaN and Infinity included), and naming ``path`` and the key for the
    first value that is not an object where one is due, that no field of
    the configuration (or of the grid it sits in) accepts, or that has the
    wrong type or lies out of range.
    """
    try:
        with open(path) as fh:
            raw = json.load(fh, parse_constant=_refuse_constant)
        kwargs = _fields(raw, Config, "")
        for key, cls in (("lambda_grid", LambdaGrid), ("phys_grid", PhysGridSpec),
                         ("heat_phys_grid", PhysGridSpec)):
            if key in raw:
                kwargs[key] = cls(**_fields(raw[key], cls, key + "."))
        return Config(**kwargs)
    except ValueError as exc:
        raise ValueError(f"{exc} (in {path})") from None
