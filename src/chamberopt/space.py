"""Design space definition, unit-cube scaling, and the Latin hypercube that
draws both the DOE and the raw screen of the acquisition maximizer.

All optimization-facing code works on the closed unit cube [0, 1]^d; physical
coordinates appear only at the evaluator boundary and in reports.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import BoundsViolationError


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
        names = [d.name for d in self.dims]
        if len(set(names)) != len(names) or any(not n for n in names):
            raise ValueError("dimension names must be unique and non-empty")
        for d in self.dims:
            if not np.isfinite(d.lower) or not np.isfinite(d.upper):
                raise ValueError(f"non-finite bounds for dimension {d.name!r}")
            if d.upper <= d.lower:
                raise ValueError(
                    f"dimension {d.name!r}: upper ({d.upper}) must exceed lower ({d.lower})"
                )

    @classmethod
    def from_bounds(cls, names, lowers, uppers) -> "ParameterSpace":
        return cls(tuple(Dimension(n, float(lo), float(hi))
                         for n, lo, hi in zip(names, lowers, uppers)))

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
            if np.any(xi < d.lower) or np.any(xi > d.upper):
                raise BoundsViolationError(
                    f"dimension {d.name!r}: value outside [{d.lower}, {d.upper}]"
                )
        return (x - lo) / (hi - lo)

    def from_unit(self, u: np.ndarray) -> np.ndarray:
        """Map unit-cube coordinates back to physical units."""
        u = np.asarray(u, dtype=float)
        if u.shape[-1] != self.ndim:
            raise ValueError(f"expected {self.ndim} coordinates, got {u.shape[-1]}")
        if np.any(u < 0.0) or np.any(u > 1.0):
            raise ValueError("unit coordinates must lie in [0, 1]")
        return self.lowers + u * (self.uppers - self.lowers)

    def to_config(self) -> list[dict]:
        return [{"name": d.name, "lower": d.lower, "upper": d.upper} for d in self.dims]

    @classmethod
    def from_config(cls, records) -> "ParameterSpace":
        dims = []
        for i, r in enumerate(records):
            if not isinstance(r, dict) or not {"name", "lower", "upper"} <= r.keys():
                raise ValueError(f"space[{i}]: a dimension record needs 'name', "
                                 f"'lower' and 'upper', got {r!r}")
            try:
                dims.append(Dimension(r["name"], float(r["lower"]), float(r["upper"])))
            except (TypeError, ValueError) as e:
                raise ValueError(f"space[{i}]: bounds must be numbers, got {r!r}") from e
        return cls(tuple(dims))


def latin_hypercube(space: ParameterSpace, n: int, seed: int) -> np.ndarray:
    """The DOE: n unit-cube points of the space, deterministic given the seed."""
    return unit_latin_hypercube(n, space.ndim, np.random.default_rng(seed))


def unit_latin_hypercube(n: int, dim: int, rng: np.random.Generator) -> np.ndarray:
    """Plain permutation LHS of n points in [0, 1)^dim (McKay et al. 1979): each
    dimension's n coordinates occupy the n equal strata of [0, 1) once, with a
    uniform random offset within the stratum. No maximin refinement."""
    if n < 1:
        raise ValueError("latin hypercube sample count must be >= 1")
    u = np.empty((n, dim))
    for j in range(dim):
        perm = rng.permutation(n)
        u[:, j] = (perm + rng.uniform(size=n)) / n
    return u


# design ranges of the built-in prechamber use case
PRECHAMBER_SPACE = ParameterSpace.from_bounds(
    ["d_bottle", "d_bore", "h_neck"], [8.0, 0.75, 15.0], [12.0, 1.15, 20.0]
)
