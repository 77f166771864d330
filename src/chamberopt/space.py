"""Design space definition, unit-cube scaling, the Latin hypercube that
draws both the DOE and the raw screen of the acquisition maximizer, and the
rules for the numbers that a config or a state file holds.

All optimization-facing code works on the closed unit cube [0, 1]^d; physical
coordinates appear only at the evaluator boundary and in reports.

Each settings type checks its own fields with two rules when it is built, so
a file reader only builds the types, and ``evaluators.Dataset.append``
holds each row's coordinates, k and v to ``real``. An integer (``count``)
is a Python ``int``: JSON true/false load as ``bool``, which Python counts
as an int, and JSON cannot write back a numpy integer; it is at most
``sys.maxsize``, numpy's index range, so a larger count fails at load and
not in numpy after a full fit. A finite number (``real``) is an ``int`` or
``float``, not a ``bool``, NaN, +-inf or an int beyond the float range. A
dimension's span ``upper - lower`` must be finite too, or every scaling by
it overflows. A coordinate is tested as ``lower <= x <= upper``: NaN fails.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass

import numpy as np

from .errors import BoundsViolationError


def count(value, name: str, least: int = 0) -> int:
    """``value`` if it is an integer in [``least``, sys.maxsize], else a
    ValueError naming it."""
    if (isinstance(value, bool) or not isinstance(value, int)
            or not least <= value <= sys.maxsize):
        raise ValueError(f"{name!r} must be an integer in [{least}, "
                         f"{sys.maxsize}], got {value!r}")
    return value


def real(value, name: str):
    """``value`` if it is a finite number, else a ValueError naming it."""
    if (isinstance(value, bool) or not isinstance(value, (int, float))
            or not abs(value) <= sys.float_info.max):
        raise ValueError(f"{name!r} must be a finite number, got {value!r}")
    return value


@dataclass(frozen=True)
class Dimension:
    name: str
    lower: float
    upper: float


@dataclass(frozen=True)
class ParameterSpace:
    """Ordered set of named, bounded real design variables."""

    dims: tuple[Dimension, ...]

    def __post_init__(self):
        if len(self.dims) < 1:
            raise ValueError("parameter space needs at least one dimension")
        dims = []
        for i, d in enumerate(self.dims):
            if not isinstance(d.name, str) or not d.name:
                raise ValueError(f"'space[{i}].name' must be a non-empty string, "
                                 f"got {d.name!r}")
            lo, hi = (float(real(getattr(d, b), f"space[{i}].{b}"))
                      for b in ("lower", "upper"))
            if hi <= lo:
                raise ValueError(
                    f"dimension {d.name!r}: upper ({hi}) must exceed lower ({lo})")
            if not hi - lo <= sys.float_info.max:
                raise ValueError(f"'space[{i}]': the span upper - lower of "
                                 f"{d.name!r} overflows to inf")
            dims.append(Dimension(d.name, lo, hi))
        if len({d.name for d in dims}) != len(dims):
            raise ValueError("dimension names must be unique")
        object.__setattr__(self, "dims", tuple(dims))

    @classmethod
    def from_bounds(cls, names, lowers, uppers) -> "ParameterSpace":
        return cls(tuple(map(Dimension, names, lowers, uppers)))

    @property
    def ndim(self) -> int:
        return len(self.dims)

    @property
    def names(self) -> list[str]:
        return [d.name for d in self.dims]

    @property
    def lowers(self) -> np.ndarray:
        return np.array([d.lower for d in self.dims])

    @property
    def uppers(self) -> np.ndarray:
        return np.array([d.upper for d in self.dims])

    def to_unit(self, x: np.ndarray) -> np.ndarray:
        """Map physical coordinates to the unit cube. Bounds are closed."""
        x = np.asarray(x, dtype=float)
        if x.shape[-1] != self.ndim:
            raise ValueError(f"expected {self.ndim} coordinates, got {x.shape[-1]}")
        lo, hi = self.lowers, self.uppers
        for i, d in enumerate(self.dims):
            xi = x[..., i]
            if not np.all((d.lower <= xi) & (xi <= d.upper)):
                raise BoundsViolationError(
                    f"dimension {d.name!r}: value outside [{d.lower}, {d.upper}]"
                )
        return (x - lo) / (hi - lo)

    def from_unit(self, u: np.ndarray) -> np.ndarray:
        """Map unit-cube coordinates back to physical units, within the
        bounds: ``lower + 1 * (upper - lower)`` can round one ulp past
        ``upper`` (-29.55 + 134.681 is 105.13100000000001), which
        ``to_unit`` would refuse."""
        u = np.asarray(u, dtype=float)
        if u.shape[-1] != self.ndim:
            raise ValueError(f"expected {self.ndim} coordinates, got {u.shape[-1]}")
        if not np.all((0.0 <= u) & (u <= 1.0)):
            raise ValueError("unit coordinates must lie in [0, 1]")
        lo, hi = self.lowers, self.uppers
        return np.clip(lo + u * (hi - lo), lo, hi)

    def to_config(self) -> list[dict]:
        return [{"name": d.name, "lower": d.lower, "upper": d.upper} for d in self.dims]

    @classmethod
    def from_config(cls, records) -> "ParameterSpace":
        if not isinstance(records, list):
            raise ValueError(f"'space' must be a list of dimension records, "
                             f"got {records!r}")
        for i, r in enumerate(records):
            if not isinstance(r, dict) or not {"name", "lower", "upper"} <= r.keys():
                raise ValueError(f"space[{i}]: a dimension record needs 'name', "
                                 f"'lower' and 'upper', got {r!r}")
        return cls(tuple(Dimension(r["name"], r["lower"], r["upper"]) for r in records))


def latin_hypercube(space: ParameterSpace, n: int, seed: int) -> np.ndarray:
    """The DOE: n unit-cube points of the space, deterministic given the seed."""
    return unit_latin_hypercube(n, space.ndim, np.random.default_rng(seed))


def unit_latin_hypercube(n: int, dim: int, rng: np.random.Generator) -> np.ndarray:
    """Plain permutation LHS of n points in [0, 1)^dim (McKay et al. 1979): each
    dimension's n coordinates occupy the n equal strata of [0, 1) once, with a
    uniform random offset within the stratum. No maximin refinement."""
    u = np.empty((count(n, "n", 1), dim))
    for j in range(dim):
        perm = rng.permutation(n)
        u[:, j] = (perm + rng.uniform(size=n)) / n
    return u


# design ranges of the built-in prechamber use case
PRECHAMBER_SPACE = ParameterSpace.from_bounds(
    ["d_bottle", "d_bore", "h_neck"], [8.0, 0.75, 15.0], [12.0, 1.15, 20.0]
)
