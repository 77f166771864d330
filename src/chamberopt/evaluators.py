"""Black-box evaluation backends and the ask-tell file protocol.

Built-in evaluators (analytic prechamber proxy, quadratic benchmark) run
in-process; the CSV proposal/result protocol replaces them with an external
simulation pipeline that may complete jobs out of order.
"""

from __future__ import annotations

import csv
import itertools
import os
import re
from dataclasses import dataclass, field

import numpy as np

from .errors import DataError, ProtocolError
from .space import PRECHAMBER_SPACE, ParameterSpace, real

QUADRATIC_SPACE = ParameterSpace.from_bounds(["x1", "x2"], [0.0, 0.0], [1.0, 1.0])


@dataclass(frozen=True)
class Observation:
    x: tuple[float, ...]        # physical units
    k: float                    # objective (maximize)
    v: float                    # constraint magnitude
    tag: str = "manual"         # doe | bo_iter_<n> | manual, or a hand tag


@dataclass
class Dataset:
    """Ordered observations, no two closer than ``MIN_GAP`` in unit space.
    Every row enters through ``append``, the one owner of that rule."""

    MIN_GAP = 1e-10             # unannotated, so a class constant, not a field

    space: ParameterSpace
    rows: list[Observation] = field(default_factory=list, init=False)

    def __len__(self):
        return len(self.rows)

    def __iter__(self):
        return iter(self.rows)

    def __getitem__(self, i):
        return self.rows[i]

    @property
    def iterations(self) -> int:
        """The stages (runs of consecutive rows with one tag) tagged
        ``bo_iter_<n>``: the campaign's completed BO iterations."""
        return sum(tag.startswith("bo_iter_") for tag, _ in
                   itertools.groupby(obs.tag for obs in self.rows))

    def unit_inputs(self) -> np.ndarray:
        return self.space.to_unit(np.array([r.x for r in self.rows]))

    def repeats(self, xs):
        """For each of the points ``xs``, taken in order after the rows, yield
        the index in rows + xs of the nearest earlier point if it lies closer
        than ``MIN_GAP`` in unit space, else None. Coordinates outside the
        bounds raise BoundsViolationError."""
        points = [r.x for r in self.rows] + list(xs)
        u = self.space.to_unit(np.array(points)) if points else ()
        for i in range(len(self.rows), len(u)):
            d = np.linalg.norm(u[:i] - u[i], axis=1)   # one point's gaps: O(n d) memory
            yield int(np.argmin(d)) if i and np.min(d) < self.MIN_GAP else None

    def append(self, *observations: Observation):
        """Add a batch of observations, all or nothing. Each row needs a
        ``ParameterSpace.check_point`` design point x, a ``real`` k and v, a
        ``str`` tag with a ``stage_label`` and no ``repeats`` match. A row that
        starts a ``bo_iter_`` stage is tagged ``bo_iter_<m>``, m one past the
        ``iterations`` before it. DataError names the first refused row, an
        out-of-bounds one too, as ``dataset[i]``."""
        start, refused, typed = len(self.rows), None, observations
        for i, obs in enumerate(observations, start=start):
            try:
                self.space.check_point(obs.x)
                if not isinstance(obs.tag, str) or stage_label(obs.tag) is None:
                    raise ValueError(f"tag {obs.tag!r} must be a string that does "
                                     f"not print as a program iteration's stage")
                real(obs.k, "k")
                real(obs.v, "v")
            except (TypeError, ValueError) as e:
                refused, typed = DataError(f"dataset[{i}]: {e}"), typed[:i - start]
                break
        # the rows before one refused here go on, so the first refused row is named
        matches = self.repeats(obs.x for obs in typed)
        m, tag = self.iterations, self.rows[-1].tag if self.rows else None
        for i, (obs, j) in enumerate(zip(typed, matches), start=start):
            if obs.tag != tag and obs.tag.startswith("bo_iter_"):
                m += 1
                if obs.tag != f"bo_iter_{m}":
                    raise DataError(f"dataset[{i}]: tag {obs.tag!r} starts BO "
                                    f"iteration {m}, so it must be 'bo_iter_{m}'")
            tag = obs.tag
            if j is not None:
                raise DataError(f"dataset[{i}]: duplicate design point {obs.x} "
                                f"(matches dataset[{j}])")
        if refused is not None:
            raise refused
        self.rows = self.rows + list(observations)


def stage_label(tag: str) -> str | None:
    """A tag's stage label in the tables: ``bo_iter_<n>``, a program
    iteration, prints as ``iter<n>`` and any other tag as it is. A tag that
    already starts with ``iter`` would share a program iteration's label, so
    it has none and ``Dataset.append`` refuses it."""
    label = "iter"
    if tag.startswith(label):
        return None
    return re.sub(f"^bo_{label}_", label, tag)


def proxy_prechamber(x) -> tuple[float, float]:
    """Analytic stand-in for the prechamber CFD response.

    Turbulent kinetic energy peaks at small-but-not-minimal bore diameter and
    grows with bottle diameter and neck height; overflow velocity rises with
    small bore and large bottle, so the velocity constraint is active in the
    high-k region.
    """
    u = PRECHAMBER_SPACE.to_unit(np.asarray(x, dtype=float))
    u1, u2, u3 = u
    k = 60.0 + 220.0 * np.exp(-((u2 - 0.33) ** 2) / 0.08) * (0.4 + 0.6 * u1 * u3)
    v = 12.0 + 18.0 * np.exp(-((u2 - 0.25) ** 2) / 0.10) * (0.5 + 0.5 * u1)
    return float(k), float(v)


def benchmark_quadratic(x) -> tuple[float, float]:
    """2-D sanity benchmark: k = -(x1-0.7)^2 - (x2-0.7)^2, v = x1 + x2.

    With threshold 1.0 the constrained optimum is at (0.5, 0.5), k = -0.08.
    """
    x = QUADRATIC_SPACE.to_unit(x)         # the unit square: x unchanged
    k = -((x[0] - 0.7) ** 2) - (x[1] - 0.7) ** 2
    v = x[0] + x[1]
    return float(k), float(v)


# registry: name -> (callable, space, default constraint threshold)
EVALUATORS = {
    "proxy": (proxy_prechamber, PRECHAMBER_SPACE, 25.0),
    "quadratic": (benchmark_quadratic, QUADRATIC_SPACE, 1.0),
}


def proposals_path(directory, iteration: int) -> str:
    """The proposals CSV of one iteration's batch in a campaign directory."""
    return os.path.join(directory, f"proposals_iter{iteration}.csv")


def proposal_ids(iteration: int, count: int) -> list[str]:
    return [f"iter{iteration}_{j}" for j in range(count)]


def write_proposals(path, space: ParameterSpace, batch) -> None:
    """Write the (id, x) proposals ``batch``, a campaign's pending batch, as
    they are to a proposals CSV (header id,<dim names>), synced to disk."""
    if not batch:
        raise ValueError("empty proposal batch")
    space.to_unit([x for _, x in batch])        # bounds check
    try:
        with open(path, "w", newline="", encoding="utf-8") as f:
            w = csv.writer(f)
            w.writerow(["id"] + space.names)
            for pid, x in batch:
                w.writerow([pid] + [f"{v:.17g}" for v in x])
            f.flush()
            os.fsync(f.fileno())
    except OSError as e:
        raise OSError(f"cannot write proposals file {path}: {e}") from e


def read_proposals(path, space: ParameterSpace) -> list[tuple[str, np.ndarray]]:
    with open(path, newline="", encoding="utf-8-sig") as f:
        reader = csv.reader(f)
        header = next(reader, None)
        if header != ["id"] + space.names:
            raise ProtocolError(f"unexpected proposals header in {path}: {header}")
        return [(row[0], np.array([float(v) for v in row[1:]])) for row in reader]


def read_results(path, expected_ids) -> list[tuple[str, float, float]]:
    """Parse a results CSV (header id,k,v_mag) whose ids are exactly
    ``expected_ids``, each once, in any line order, and return its
    (id, k, v) rows in the order of ``expected_ids``."""
    try:
        f = open(path, newline="", encoding="utf-8-sig")
    except OSError as e:
        raise ProtocolError(f"cannot read results file {path}: {e}") from e
    try:
        with f:
            reader = csv.reader(f)
            header = next(reader, None)
            if header != ["id", "k", "v_mag"]:
                raise ProtocolError(
                    f"expected header id,k,v_mag in {path}, got {header}")
            got = {}
            for lineno, row in enumerate(reader, start=2):
                if len(row) != 3:
                    raise DataError(
                        f"{path}:{lineno}: expected 3 fields, got {len(row)}")
                if row[0] in got:
                    raise ProtocolError(f"duplicate result id {row[0]!r}")
                try:
                    got[row[0]] = (real(float(row[1]), "k"),
                                   real(float(row[2]), "v_mag"))
                except ValueError as e:
                    raise DataError(f"{path}:{lineno}: {e}") from e
    except (csv.Error, UnicodeDecodeError) as e:
        raise DataError(f"cannot parse results file {path}: {e}") from e

    expected = set(expected_ids)
    missing, extra = sorted(expected - got.keys()), sorted(got.keys() - expected)
    if missing or extra:
        raise ProtocolError(
            f"result ids do not match outstanding proposals; "
            f"missing={missing} extra={extra}"
        )
    return [(pid, *got[pid]) for pid in expected_ids]
