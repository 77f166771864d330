import csv

import numpy as np
import pytest

from chamberopt.acquisition import AcquisitionConfig, incumbent
from chamberopt.campaign import (CampaignState, best_so_far, fit_models,
                                 init_campaign, run_campaign)
from chamberopt.errors import InvalidStateError
from chamberopt.evaluators import Dataset, Observation
from chamberopt.gp import destandardize_arrays, posterior
from chamberopt.optim import OptimizerBudget
from chamberopt.report import emit_slices, emit_table
from chamberopt.space import PRECHAMBER_SPACE

SMALL_BUDGET = OptimizerBudget(raw_samples=16, restarts=2,
                               max_iters_per_restart=10)


def _campaign(iters=1, q=2, doe=6, seed=0):
    acq = AcquisitionConfig(constraint_threshold=25.0, mc_samples=128,
                            batch_size=q)
    st = init_campaign(PRECHAMBER_SPACE, acq, SMALL_BUDGET, doe_n=doe,
                       seed=seed, evaluator="proxy")
    return run_campaign(st, iters)


def _read_csv(path):
    with open(path) as f:
        return list(csv.reader(f))


def test_table_matches_trace(tmp_path):
    st = _campaign(iters=2)
    emit_table(st, str(tmp_path))
    rows = _read_csv(tmp_path / "table.csv")
    _, trace = best_so_far(st)
    assert len(rows) == 1 + len(trace)
    for row, entry in zip(rows[1:], trace):
        assert row[0] == entry["stage"]
        obs = entry["cumulative"]
        assert float(row[1]) == obs.k
        assert float(row[2]) == obs.v
        np.testing.assert_array_equal([float(c) for c in row[3:]], obs.x)


def test_table_text_two_decimals():
    st = _campaign(iters=1)
    import tempfile
    with tempfile.TemporaryDirectory() as d:
        text = emit_table(st, d)
    lines = text.splitlines()
    assert lines[0].split() == ["stage", "k", "v_mag", "d_bottle", "d_bore",
                                "h_neck"]
    cell = lines[1].split()[1]
    assert len(cell.split(".")[1]) == 2


def test_table_batch_view_written(tmp_path):
    st = _campaign(iters=2)
    emit_table(st, str(tmp_path))
    rows = _read_csv(tmp_path / "table_batch.csv")
    assert [r[0] for r in rows[1:]] == ["doe", "iter1", "iter2"]


def test_slice_grid_consistent_with_posterior(tmp_path):
    st = _campaign(iters=1)
    emit_slices(st, str(tmp_path), resolution=7)
    mk, _ = fit_models(st)
    inc = incumbent(st.dataset, 25.0)
    u_star = st.space.to_unit(np.asarray(st.dataset[inc.index].x))
    for i, dim in enumerate(st.space.dims):
        mrows = _read_csv(tmp_path / f"slice_{dim.name}_mean.csv")[1:]
        srows = _read_csv(tmp_path / f"slice_{dim.name}_std.csv")[1:]
        for mrow, srow in zip(mrows, srows):
            coord = float(mrow[0])
            u = u_star.copy()
            u[i] = (coord - dim.lower) / (dim.upper - dim.lower)
            mean, std = destandardize_arrays(mk, *posterior(mk, u[None, :]))
            assert abs(float(mrow[1]) - mean[0]) < 1e-10
            assert abs(float(srow[1]) - std[0]) < 1e-10


def test_slice_resolution_two(tmp_path):
    st = _campaign(iters=1)
    emit_slices(st, str(tmp_path), resolution=2)
    for dim in st.space.names:
        assert len(_read_csv(tmp_path / f"slice_{dim}_mean.csv")) == 3


def test_slice_markers_include_incumbent(tmp_path):
    st = _campaign(iters=1)
    emit_slices(st, str(tmp_path), resolution=3)
    rows = _read_csv(tmp_path / "slice_markers.csv")
    kinds = [r[0] for r in rows[1:]]
    assert kinds.count("incumbent") == 1
    assert kinds.count("train") == len(st.dataset) - 1


def test_slices_without_incumbent_errors(tmp_path):
    acq = AcquisitionConfig(constraint_threshold=5.0, mc_samples=128,
                            batch_size=2)
    st = init_campaign(PRECHAMBER_SPACE, acq, SMALL_BUDGET, doe_n=5, seed=0,
                       evaluator="proxy")
    with pytest.raises(InvalidStateError, match="incumbent"):
        emit_slices(st, str(tmp_path))


def test_slice_ends_revert_toward_prior():
    # clustered data: slice ends are many lengthscales from every observation
    ds = Dataset(space=PRECHAMBER_SPACE)
    rng = np.random.default_rng(0)
    u = 0.48 + 0.04 * rng.uniform(size=(8, 3))
    for x, k in zip(PRECHAMBER_SPACE.from_unit(u), rng.normal(100, 30, 8)):
        ds.append(Observation(tuple(x), float(k), 20.0))
    st = CampaignState(space=PRECHAMBER_SPACE,
                       acq=AcquisitionConfig(constraint_threshold=25.0),
                       budget=SMALL_BUDGET, dataset=ds, rng_seed=0,
                       evaluator="proxy")
    mk, _ = fit_models(st)
    inc = incumbent(ds, 25.0)
    u_star = PRECHAMBER_SPACE.to_unit(np.asarray(ds[inc.index].x))
    _, std_at_star = posterior(mk, u_star[None, :])
    for i in range(3):
        for end in (0.0, 1.0):
            u_end = u_star.copy()
            u_end[i] = end
            _, std_end = posterior(mk, u_end[None, :])
            assert std_end[0] > std_at_star[0]
