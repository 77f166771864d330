import csv

import numpy as np
import pytest

from chamberopt.acquisition import AcquisitionConfig
from chamberopt.campaign import (CampaignState, best_so_far, fit_models,
                                 init_campaign, run_campaign)
from chamberopt.errors import InvalidStateError
from chamberopt.evaluators import Dataset, Observation
from chamberopt.gp import posterior
from chamberopt.optim import OptimizerBudget
from chamberopt.report import emit_slices, emit_table
from chamberopt.space import PRECHAMBER_SPACE

SMALL_BUDGET = OptimizerBudget(raw_samples=16, restarts=2)


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


def test_table_text_separates_long_cells(tmp_path):
    # a 10-character k and a 15-character stage outgrow their headers
    ds = Dataset(space=PRECHAMBER_SPACE)
    ds.append(Observation((9.0, 0.8, 16.0), 1234567.5, 20.0, "doe"),
              Observation((10.0, 0.9, 17.0), 100.0, 20.0, "calibration_run"))
    st = CampaignState(space=PRECHAMBER_SPACE,
                       acq=AcquisitionConfig(constraint_threshold=25.0),
                       budget=SMALL_BUDGET, dataset=ds, rng_seed=0,
                       evaluator="external")
    lines = emit_table(st, str(tmp_path)).splitlines()
    assert lines[1].split() == ["doe", "1234567.50", "20.00", "9.00", "0.80",
                                "16.00"]
    assert [len(line.split()) for line in lines] == [6, 6, 6]


def test_table_batch_view_written(tmp_path):
    st = _campaign(iters=2)
    emit_table(st, str(tmp_path))
    rows = _read_csv(tmp_path / "table_batch.csv")
    assert [r[0] for r in rows[1:]] == ["doe", "iter1", "iter2"]


def test_slices_fit_the_objective_only(tmp_path, monkeypatch):
    import chamberopt.campaign as campaign
    st = _campaign(iters=1)
    channels, fit = [], campaign.fit

    def counted(inputs, raw_targets, channel, *args, **kwargs):
        channels.append(channel)
        return fit(inputs, raw_targets, channel, *args, **kwargs)

    monkeypatch.setattr(campaign, "fit", counted)
    emit_slices(st, str(tmp_path), resolution=3)
    assert channels == ["objective"]


def test_slice_grid_consistent_with_posterior(tmp_path):
    # the CSVs pair each grid coordinate with the model's raw-unit posterior
    # there, bit for bit
    st = _campaign(iters=1)
    res = 7
    emit_slices(st, str(tmp_path), resolution=res)
    mk, _ = fit_models(st)
    inc, _ = best_so_far(st)
    u_star = st.space.to_unit(np.asarray(inc.x))
    for i, dim in enumerate(st.space.dims):
        U = np.tile(u_star, (res, 1))
        coords = np.linspace(dim.lower, dim.upper, res)
        U[:, i] = (coords - dim.lower) / (dim.upper - dim.lower)
        for col, values in zip(("mean", "std"), posterior(mk, U)):
            rows = _read_csv(tmp_path / f"slice_{dim.name}_{col}.csv")[1:]
            assert [float(r[0]) for r in rows] == coords.tolist()
            assert [float(r[1]) for r in rows] == values.tolist()


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


def test_default_tagged_rows_have_a_feasible_best(tmp_path):
    # rows appended by hand keep the default "manual" tag: one stage of the
    # trace, and each counts for the feasible best
    ds = Dataset(space=PRECHAMBER_SPACE)
    rng = np.random.default_rng(3)
    u = rng.uniform(size=(8, 3))
    ks = [150.0, 170.0, 210.0, 120.0, 260.0, 210.0, 90.0, 180.0]
    vs = [20.0, 22.0, 24.0, 19.0, 28.0, 21.0, 23.0, 26.0]   # row 4 infeasible
    for x, k, v in zip(PRECHAMBER_SPACE.from_unit(u), ks, vs):
        ds.append(Observation(tuple(x), k, v))
    st = CampaignState(space=PRECHAMBER_SPACE,
                       acq=AcquisitionConfig(constraint_threshold=25.0),
                       budget=SMALL_BUDGET, dataset=ds, rng_seed=0,
                       evaluator="proxy")
    best, trace = best_so_far(st)
    assert best is ds[2]                  # rows 2 and 5 tie: the first wins
    assert trace == [{"stage": "manual", "cumulative": ds[2], "batch": ds[2]}]

    emit_slices(st, str(tmp_path), resolution=3)
    rows = _read_csv(tmp_path / "slice_markers.csv")[1:]
    assert [r[0] for r in rows] == ["train"] * 2 + ["incumbent"] + ["train"] * 5
    assert [float(c) for c in rows[2][1:4]] == list(ds[2].x)


def test_interleaved_tag_runs_are_stages_in_dataset_order(tmp_path):
    # hand-added rows between and after the program's stages: each run of
    # one tag is a stage, and the last cumulative is the campaign's best
    tags = ["doe"] * 3 + ["manual"] + ["bo_iter_1"] * 2 + ["manual"] * 2
    ks = [150.0, 170.0, 140.0, 120.0, 200.0, 260.0, 230.0, 90.0]
    vs = [20.0, 22.0, 24.0, 19.0, 21.0, 28.0, 23.0, 26.0]   # rows 5, 7 infeasible
    ds = Dataset(space=PRECHAMBER_SPACE)
    u = np.random.default_rng(5).uniform(size=(8, 3))
    for x, k, v, tag in zip(PRECHAMBER_SPACE.from_unit(u), ks, vs, tags):
        ds.append(Observation(tuple(x), k, v, tag))
    st = CampaignState(space=PRECHAMBER_SPACE,
                       acq=AcquisitionConfig(constraint_threshold=25.0),
                       budget=SMALL_BUDGET, dataset=ds, rng_seed=0,
                       evaluator="external", iteration=1)
    best, trace = best_so_far(st)
    assert best is ds[6]
    assert [t["stage"] for t in trace] == ["doe", "manual", "iter1", "manual"]
    assert [t["batch"] for t in trace] == [ds[1], ds[3], ds[4], ds[6]]
    assert [t["cumulative"] for t in trace] == [ds[1], ds[1], ds[4], ds[6]]

    emit_table(st, str(tmp_path))
    last = _read_csv(tmp_path / "table.csv")[-1]
    assert last[0] == "manual"
    assert [float(c) for c in last[1:]] == [best.k, best.v, *best.x]


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
    inc, _ = best_so_far(st)
    u_star = PRECHAMBER_SPACE.to_unit(np.asarray(inc.x))
    _, std_at_star = posterior(mk, u_star[None, :])
    for i in range(3):
        for end in (0.0, 1.0):
            u_end = u_star.copy()
            u_end[i] = end
            _, std_end = posterior(mk, u_end[None, :])
            assert std_end[0] > std_at_star[0]
