"""Design space definition, unit-cube scaling, and the two space-filling
designs: Latin hypercube and scrambled Sobol.

All optimization-facing code works on the closed unit cube [0, 1]^d; physical
coordinates appear only at the evaluator boundary and in reports.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

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
    """Stratified space-filling sample of n unit-cube points.

    Each dimension's n coordinates occupy the n equal strata of [0, 1) exactly
    once, with a uniform random offset within the stratum. Plain permutation
    LHS, no maximin refinement. Deterministic given the seed.
    """
    if n < 1:
        raise ValueError("latin hypercube sample count must be >= 1")
    rng = np.random.default_rng(seed)
    d = space.ndim
    u = np.empty((n, d))
    for j in range(d):
        perm = rng.permutation(n)
        u[:, j] = (perm + rng.uniform(size=n)) / n
    return u


_SOBOL_BITS = 30
_SOBOL_MAXDIM = 21201   # rows of the Joe-Kuo direction-number table
# row i: primitive polynomial, then the 18 initial direction numbers
_SOBOL_TABLE = Path(__file__).with_name("sobol_direction_numbers.npy")


def _sobol_direction_numbers(dim: int) -> np.ndarray:
    """(dim, bits) Sobol direction numbers, column j scaled by 2**(bits-1-j).

    Joe & Kuo (2008) primitive polynomials and initial numbers, memory-mapped
    from the table shipped with the package (a proposal reads only its q*d
    rows), extended by the Bratley & Fox (1988) recurrence.
    """
    table = np.load(_SOBOL_TABLE, mmap_mode="r")[:dim].tolist()
    rows = [[1] * _SOBOL_BITS]
    for p, *init in table[1:]:
        m = p.bit_length() - 1
        v = init[:m]
        for j in range(m, _SOBOL_BITS):
            new = v[j - m]
            for k in range(m):
                if (p >> (m - 1 - k)) & 1:
                    new ^= v[j - k - 1] << (k + 1)
            v.append(new)
        rows.append(v)
    return np.array(rows, dtype=np.int64) << np.arange(_SOBOL_BITS - 1, -1, -1)


def scrambled_sobol(n: int, dim: int, rng: np.random.Generator) -> np.ndarray:
    """First n points of a scrambled Sobol sequence in [0, 1)^dim.

    Reproduces ``scipy.stats.qmc.Sobol(d=dim, scramble=True, seed=rng)
    .random(n)`` bit for bit: 30-bit Joe-Kuo direction numbers, a left linear
    matrix scramble (lower triangular, unit diagonal) plus a digital shift,
    both drawn from ``rng.spawn(1)[0]`` in scipy's order, and Gray-code
    order. The caller's generator ends in the same state as with scipy. The
    algorithm and its table ship with this package, so the design neither
    needs scipy nor follows whichever scipy version is installed.
    """
    if n < 1:
        raise ValueError("Sobol sample count must be >= 1")
    if not 1 <= dim <= _SOBOL_MAXDIM:
        raise ValueError(f"Sobol dimension must be in [1, {_SOBOL_MAXDIM}], got {dim}")
    child = rng.spawn(1)[0]
    shift = np.dot(child.integers(2, size=(dim, _SOBOL_BITS), dtype=np.uint32),
                   2 ** np.arange(_SOBOL_BITS, dtype=np.uint32))
    lower = child.integers(2, size=(dim, _SOBOL_BITS, _SOBOL_BITS), dtype=np.uint32)
    diag = np.arange(_SOBOL_BITS)
    msb_first = diag[::-1]
    # one dimension at a time, so no (dim, bits, bits) int64 array is built
    sv = np.empty((dim, _SOBOL_BITS), dtype=np.int64)
    for j, v in enumerate(_sobol_direction_numbers(dim)):
        ltm = np.tril(lower[j]).astype(np.int64)
        ltm[diag, diag] = 1
        # scrambled column c, bit p (most significant first) is the parity
        # of row p of the matrix against the bits of direction number c
        v_bits = (v[:, None] >> msb_first) & 1
        sv[j] = (((v_bits @ ltm.T) & 1) << msb_first).sum(axis=1)
    del lower
    # point i+1 = point i XOR the direction column of the lowest zero bit of
    # i, accumulated in place: one (n, dim) integer array, then its floats
    i = np.arange(n - 1)
    col = np.log2(~i & (i + 1)).astype(np.intp)
    points = np.empty((n, dim), dtype=np.int64)
    points[0] = shift
    np.take(sv.T, col, axis=0, out=points[1:])
    np.bitwise_xor.accumulate(points, axis=0, out=points)
    unit = points.astype(np.float64)
    unit *= 1.0 / 2 ** _SOBOL_BITS
    return unit


# design ranges of the built-in prechamber use case
PRECHAMBER_SPACE = ParameterSpace.from_bounds(
    ["d_bottle", "d_bore", "h_neck"], [8.0, 0.75, 15.0], [12.0, 1.15, 20.0]
)
