"""Result tables and surrogate slice grids for a campaign."""

from __future__ import annotations

import itertools
import os

import numpy as np

from .campaign import CampaignState, best_so_far, fit_models
from .errors import InvalidStateError
from .evaluators import write_csv
from .gp import posterior
from .space import count

DEFAULT_SLICE_RESOLUTION = 101


def _cells(obs, spec: str, blank: str, n: int) -> list[str]:
    """A trace entry's k, v and coordinates in ``spec``, or ``n`` blanks."""
    if obs is None:
        return [blank] * n
    return [format(v, spec) for v in (obs.k, obs.v, *obs.x)]


def emit_table(state: CampaignState, out_dir: str) -> str:
    """Write table.csv (cumulative feasible best, full precision) and
    table_batch.csv (per-batch view); returns an aligned text rendering."""
    header = ["stage", "k", "v_mag"] + state.space.names
    _, trace = best_so_far(state)
    for name, view in (("table.csv", "cumulative"), ("table_batch.csv", "batch")):
        write_csv(os.path.join(out_dir, name), [header] + [
            [entry["stage"]] + _cells(entry[view], ".17g", "", len(header) - 1)
            for entry in trace])

    rows = [[entry["stage"]] + _cells(entry["cumulative"], ".2f", "-",
                                      len(header) - 1) for entry in trace]
    # at least 8 wide and 2 past the header, and 1 past every cell, so a
    # space separates each pair of columns
    widths = [max(8, len(h) + 2, *(len(c) + 1 for c in col))
              for h, *col in zip(header, *rows)]
    return "\n".join("".join(c.ljust(w) for c, w in zip(cells, widths))
                     for cells in [header] + rows)


def emit_slices(state: CampaignState, out_dir: str,
                resolution: int = DEFAULT_SLICE_RESOLUTION) -> list[str]:
    """1-D posterior sweeps of the objective surrogate through the incumbent.

    For each dimension, two grid CSVs (posterior mean, posterior std, both in
    raw output units against the physical coordinate) plus one markers file
    with the training-point projections and the incumbent.
    """
    count(resolution, "resolution", 2)
    best, _ = best_so_far(state)
    if best is None:
        raise InvalidStateError(
            "no feasible incumbent; run more iterations or inspect "
            "table_batch.csv for infeasible-best diagnostics")
    mk, _ = fit_models(state, constraint=False)

    paths = []
    for i, dim in enumerate(state.space.dims):
        grid = np.tile(np.array(best.x, float), (resolution, 1))  # a huge grid fails here
        coords = np.linspace(dim.lower, dim.upper, resolution)
        grid[:, i] = coords
        mean, std = posterior(mk, state.space.to_unit(grid))
        for col, values in (("mean", mean), ("std", std)):
            paths.append(os.path.join(out_dir, f"slice_{dim.name}_{col}.csv"))
            write_csv(paths[-1], itertools.chain([[dim.name, f"k_{col}"]], (
                [f"{c:.17g}", f"{v:.17g}"] for c, v in zip(coords, values))))

    paths.append(os.path.join(out_dir, "slice_markers.csv"))
    write_csv(paths[-1], itertools.chain([["kind"] + state.space.names + ["k"]], (
        ["incumbent" if obs is best else "train"]
        + [f"{v:.17g}" for v in obs.x] + [f"{obs.k:.17g}"] for obs in state.dataset)))
    return paths
