import json
import os
from types import SimpleNamespace

import numpy as np
import pytest

from chamberopt import campaign
from chamberopt.acquisition import AcquisitionConfig
from chamberopt.campaign import (CampaignState, best_so_far, derive_seed,
                                 ingest, init_campaign, load_state,
                                 run_campaign, save_state, step)
from chamberopt.errors import DataError, InvalidStateError, StateFileError
from chamberopt.evaluators import EVALUATORS, proxy_prechamber, read_proposals
from chamberopt.optim import OptimizerBudget
from chamberopt.space import PRECHAMBER_SPACE

SMALL_BUDGET = OptimizerBudget(raw_samples=32, restarts=3)


def _acq(q=3, mc=256, thr=25.0):
    return AcquisitionConfig(constraint_threshold=thr, mc_samples=mc,
                             batch_size=q)


def _embedded(seed=0, doe=6, q=3):
    return init_campaign(PRECHAMBER_SPACE, _acq(q=q), SMALL_BUDGET,
                         doe_n=doe, seed=seed, evaluator="proxy")


def test_init_embedded_evaluates_doe():
    st = _embedded(doe=10)
    assert len(st.dataset) == 10
    assert st.iteration == 0
    assert not st.awaiting_results
    assert all(r.tag == "doe" for r in st.dataset)


def test_init_minimal_doe():
    st = _embedded(doe=2)
    assert len(st.dataset) == 2


def test_init_rejects_tiny_doe():
    with pytest.raises(ValueError):
        _embedded(doe=0)
    with pytest.raises(ValueError):
        _embedded(doe=1)


@pytest.mark.parametrize("name, value", [
    ("seed", 1.5), ("seed", True), ("doe_n", 2.5), ("doe_n", True)])
def test_init_rejects_non_integer_seed_and_doe_size(name, value):
    # save_state would write a state.json that load_state refuses
    kwargs = {"doe_n": 4, "seed": 0, name: value}
    with pytest.raises(ValueError, match=name):
        init_campaign(PRECHAMBER_SPACE, _acq(), SMALL_BUDGET, **kwargs)


@pytest.mark.parametrize("iters", [True, -1, 1.0])
def test_run_campaign_refuses_a_non_count(iters):
    # True == 1 would otherwise run one iteration
    st = _embedded()
    with pytest.raises(ValueError, match="iters"):
        run_campaign(st, iters)
    assert st.iteration == 0


def test_failed_embedded_evaluation_leaves_state(monkeypatch):
    st = _embedded()
    rows = list(st.dataset.rows)
    calls = []

    def nan_second(x):
        calls.append(x)
        k, v = proxy_prechamber(x)
        return (float("nan") if len(calls) == 2 else k), v

    monkeypatch.setitem(EVALUATORS, "proxy", (nan_second, *EVALUATORS["proxy"][1:]))
    with pytest.raises(DataError):
        step(st)
    assert len(calls) == 3          # the whole batch is scored first
    assert st.dataset.rows == rows
    assert st.iteration == 0 and st.pending == []


def test_step_embedded_grows_dataset():
    st = _embedded()
    st = step(st)
    assert len(st.dataset) == 6 + 3
    assert st.iteration == 1
    assert sum(r.tag == "bo_iter_1" for r in st.dataset) == 3


def test_paper_shaped_schedule_row_count():
    st = init_campaign(PRECHAMBER_SPACE, _acq(q=5), SMALL_BUDGET,
                       doe_n=10, seed=3, evaluator="proxy")
    st = run_campaign(st, 3)
    assert len(st.dataset) == 25
    _, trace = best_so_far(st)
    assert [t["stage"] for t in trace] == ["doe", "iter1", "iter2", "iter3"]


def test_step_all_infeasible_uses_fallback():
    # threshold below the proxy's minimum velocity: nothing is ever feasible
    st = init_campaign(PRECHAMBER_SPACE, _acq(thr=5.0), SMALL_BUDGET,
                       doe_n=5, seed=1, evaluator="proxy")
    st = step(st)
    assert st.iteration == 1
    best, trace = best_so_far(st)
    assert best is None
    assert all(t["cumulative"] is None for t in trace)


def test_replay_determinism():
    a = run_campaign(_embedded(seed=11), 2)
    b = run_campaign(_embedded(seed=11), 2)
    for ra, rb in zip(a.dataset, b.dataset):
        assert ra.x == rb.x and ra.k == rb.k and ra.v == rb.v


def test_cumulative_best_monotone():
    st = run_campaign(_embedded(seed=4), 3)
    _, trace = best_so_far(st)
    ks = [t["cumulative"].k for t in trace if t["cumulative"] is not None]
    assert all(b >= a for a, b in zip(ks, ks[1:]))


def test_best_respects_constraint():
    st = run_campaign(_embedded(seed=5), 2)
    best, _ = best_so_far(st)
    assert best.v <= 25.0


def test_proxy_campaign_passes_the_grid_optimum():
    # the screen seeded around the feasible best reaches the proxy's
    # continuous optimum (k = 253.9575 on the faces u1 = u3 = 1), above the
    # 201^3 grid optimum of acceptance criterion 6; a Latin-hypercube-only
    # screen ended this campaign at 0.99766 of the grid optimum
    st = init_campaign(PRECHAMBER_SPACE, AcquisitionConfig(), OptimizerBudget(),
                       doe_n=10, seed=0, evaluator="proxy")
    best, _ = best_so_far(run_campaign(st, 10))
    assert best.v <= 25.0
    assert best.k > 253.566870612905


def test_derive_seed_stable():
    assert derive_seed(7, 1, 3) == derive_seed(7, 1, 3)
    assert derive_seed(7, 1, 3) != derive_seed(7, 2, 3)


# ------------------------------------------------------------ external mode


def _external(tmp_path, doe=4, q=2, seed=0):
    return init_campaign(PRECHAMBER_SPACE, _acq(q=q), SMALL_BUDGET,
                         doe_n=doe, seed=seed, evaluator="external")


def _answer(proposals_path, results_path, drop=None, corrupt=None):
    rows = read_proposals(proposals_path, PRECHAMBER_SPACE)
    with open(results_path, "w") as f:
        f.write("id,k,v_mag\n")
        for pid, x in rows:
            if drop and pid == drop:
                continue
            k, v = proxy_prechamber(x)
            if corrupt and pid == corrupt:
                k = float("nan")
            f.write(f"{pid},{k:.17g},{v:.17g}\n")


def test_external_doe_round_trip(tmp_path):
    st = _external(tmp_path)
    assert st.awaiting_results
    assert len(st.dataset) == 0
    from chamberopt.evaluators import write_proposals
    ppath = tmp_path / "proposals_iter0.csv"
    write_proposals(ppath, st.space, st.pending)
    rpath = tmp_path / "results0.csv"
    _answer(ppath, rpath)
    st = ingest(st, rpath)
    assert len(st.dataset) == 4
    assert st.iteration == 0
    assert not st.awaiting_results
    assert all(r.tag == "doe" for r in st.dataset)


def test_external_step_then_ingest(tmp_path):
    st = _external(tmp_path)
    from chamberopt.evaluators import write_proposals
    write_proposals(tmp_path / "proposals_iter0.csv", st.space, st.pending)
    _answer(tmp_path / "proposals_iter0.csv", tmp_path / "r0.csv")
    st = ingest(st, tmp_path / "r0.csv")

    st = step(st, campaign_dir=str(tmp_path))
    assert st.awaiting_results
    ppath = tmp_path / "proposals_iter1.csv"
    assert ppath.exists()
    _answer(ppath, tmp_path / "r1.csv")
    st = ingest(st, tmp_path / "r1.csv")
    assert st.iteration == 1
    assert len(st.dataset) == 4 + 2
    assert sum(r.tag == "bo_iter_1" for r in st.dataset) == 2


def test_external_step_without_directory_refuses_before_fitting(monkeypatch, tmp_path):
    st = _external(tmp_path)
    from chamberopt.evaluators import write_proposals
    write_proposals(tmp_path / "proposals_iter0.csv", st.space, st.pending)
    _answer(tmp_path / "proposals_iter0.csv", tmp_path / "r0.csv")
    st = ingest(st, tmp_path / "r0.csv")

    def fit_models(state):
        raise AssertionError("fitted before the campaign directory was checked")

    monkeypatch.setattr(campaign, "fit_models", fit_models)
    with pytest.raises(ValueError, match="external mode needs a campaign directory"):
        step(st)
    assert not st.awaiting_results


def _collided_step(monkeypatch, tmp_path, evaluator):
    """One step whose maximizer returns dataset row 0 and two copies of
    (0.3, 0.3, 0.3); the stepped batch in unit space, and that target."""
    tmp_path.mkdir()
    st = init_campaign(PRECHAMBER_SPACE, _acq(q=3), SMALL_BUDGET, doe_n=6,
                       seed=1, evaluator=evaluator)
    if evaluator == "external":
        from chamberopt.evaluators import write_proposals
        write_proposals(tmp_path / "proposals_iter0.csv", st.space, st.pending)
        _answer(tmp_path / "proposals_iter0.csv", tmp_path / "r0.csv")
        st = ingest(st, tmp_path / "r0.csv")
    target = np.vstack([st.dataset.unit_inputs()[0], [0.3] * 3, [0.3] * 3])
    monkeypatch.setattr("chamberopt.campaign.propose_batch",
                        lambda *args, **kwargs: target.copy())
    st = step(st, campaign_dir=str(tmp_path))
    if evaluator == "external":
        save_state(st, tmp_path / "state.json")
        xs = [x for _, x in load_state(tmp_path / "state.json").pending]
    else:
        assert len(st.dataset) == 6 + 3
        xs = [obs.x for obs in st.dataset.rows[-3:]]
    return st.space.to_unit(np.array(xs)), target


@pytest.mark.parametrize("evaluator", ["proxy", "external"])
def test_step_separates_a_batch_that_repeats_points(monkeypatch, tmp_path,
                                                    evaluator):
    batch, target = _collided_step(monkeypatch, tmp_path / "a", evaluator)
    again, _ = _collided_step(monkeypatch, tmp_path / "b", evaluator)
    np.testing.assert_array_equal(batch, again)
    # point 1 repeats nothing; point 0 repeats row 0 and point 2 repeats point 1
    assert batch[1].tolist() == PRECHAMBER_SPACE.to_unit(
        PRECHAMBER_SPACE.from_unit(target[1])).tolist()
    assert not np.array_equal(batch[[0, 2]], target[[0, 2]])
    assert np.max(np.abs(batch - target)) < 1e-4


def test_step_blocked_while_pending(tmp_path):
    st = _external(tmp_path)
    with pytest.raises(InvalidStateError):
        step(st, campaign_dir=str(tmp_path))


def test_ingest_without_pending(tmp_path):
    st = _embedded()
    with pytest.raises(InvalidStateError):
        ingest(st, tmp_path / "nope.csv")


def test_ingest_atomic_on_bad_row(tmp_path):
    st = _external(tmp_path)
    from chamberopt.evaluators import write_proposals
    ppath = tmp_path / "proposals_iter0.csv"
    write_proposals(ppath, st.space, st.pending)
    _answer(ppath, tmp_path / "bad.csv", corrupt="iter0_1")
    n_before, pending_before = len(st.dataset), list(st.pending)
    with pytest.raises(Exception):
        ingest(st, tmp_path / "bad.csv")
    assert len(st.dataset) == n_before
    assert st.pending == pending_before


def test_ingest_rejects_mismatched_ids(tmp_path):
    st = _external(tmp_path)
    from chamberopt.evaluators import write_proposals
    ppath = tmp_path / "proposals_iter0.csv"
    write_proposals(ppath, st.space, st.pending)
    _answer(ppath, tmp_path / "short.csv", drop="iter0_0")
    with pytest.raises(Exception, match="iter0_0"):
        ingest(st, tmp_path / "short.csv")


# ------------------------------------------------------------ persistence


def _states_equal(a: CampaignState, b: CampaignState):
    assert a.space == b.space
    assert a.acq == b.acq
    assert a.budget == b.budget
    assert a.iteration == b.iteration
    assert a.rng_seed == b.rng_seed
    assert a.evaluator == b.evaluator
    assert a.pending == b.pending
    assert len(a.dataset) == len(b.dataset)
    for ra, rb in zip(a.dataset, b.dataset):
        assert ra == rb


def test_save_load_round_trip(tmp_path):
    st = run_campaign(_embedded(seed=2), 1)
    path = tmp_path / "state.json"
    save_state(st, path)
    _states_equal(load_state(path), st)


def test_save_load_round_trip_with_pending(tmp_path):
    st = _external(tmp_path)
    path = tmp_path / "state.json"
    save_state(st, path)
    _states_equal(load_state(path), st)


class _KeysRead(dict):
    """A dict that records the keys read from it."""

    def __init__(self, doc):
        super().__init__(doc)
        self.read = set()

    def __getitem__(self, key):
        self.read.add(key)
        return super().__getitem__(key)


@pytest.mark.parametrize("make", [lambda: run_campaign(_embedded(seed=2), 1),
                                  lambda: _external(None)],
                         ids=["embedded", "pending"])
def test_state_file_holds_only_what_load_state_reads(tmp_path, monkeypatch,
                                                     make):
    path = tmp_path / "state.json"
    save_state(make(), path)
    doc = _KeysRead(json.loads(path.read_text()))
    monkeypatch.setattr(campaign, "json", SimpleNamespace(load=lambda f: doc))
    load_state(path)
    assert doc.read == set(doc)


def test_load_truncated_file(tmp_path):
    st = _embedded()
    path = tmp_path / "state.json"
    save_state(st, path)
    text = path.read_text()
    path.write_text(text[: len(text) // 2])
    with pytest.raises(StateFileError):
        load_state(path)


def test_load_version_mismatch(tmp_path):
    st = _embedded()
    path = tmp_path / "state.json"
    save_state(st, path)
    doc = json.loads(path.read_text())
    doc["version"] = 99
    path.write_text(json.dumps(doc))
    with pytest.raises(StateFileError, match="version"):
        load_state(path)


def test_save_is_atomic(tmp_path, monkeypatch):
    st = _embedded()
    path = tmp_path / "state.json"
    save_state(st, path)
    save_state(run_campaign(st, 1), path)
    load_state(path)            # still parseable, no partial writes
    assert not [p for p in os.listdir(tmp_path) if p.startswith(".state-")]
    # a save that fails before the rename leaves the file and no temp file
    before = path.read_bytes()

    def failing_fsync(fd):
        raise OSError("disk full")

    monkeypatch.setattr(os, "fsync", failing_fsync)
    with pytest.raises(OSError, match="disk full"):
        save_state(run_campaign(st, 1), path)
    assert path.read_bytes() == before
    assert not [p for p in os.listdir(tmp_path) if p.startswith(".state-")]


def test_save_fsyncs_the_temp_file_before_the_rename(tmp_path, monkeypatch):
    events = []
    real_fsync, real_replace = os.fsync, os.replace

    def fsync(fd):
        events.append(("fsync", os.fstat(fd).st_ino))
        real_fsync(fd)

    def replace(src, dst):
        events.append(("replace", os.stat(src).st_ino))
        real_replace(src, dst)

    monkeypatch.setattr(os, "fsync", fsync)
    monkeypatch.setattr(os, "replace", replace)
    save_state(_embedded(), tmp_path / "state.json")
    assert events[-1][0] == "replace"
    assert ("fsync", events[-1][1]) in events[:-1]


def test_resume_matches_straight_through(tmp_path):
    straight = run_campaign(_embedded(seed=8), 2)
    resumed = run_campaign(_embedded(seed=8), 1)
    path = tmp_path / "state.json"
    save_state(resumed, path)
    resumed = run_campaign(load_state(path), 1)
    for ra, rb in zip(straight.dataset, resumed.dataset):
        assert ra.x == rb.x and ra.k == rb.k and ra.v == rb.v
