import json
import os
import random
from types import SimpleNamespace

import numpy as np
import pytest

from chamberopt import campaign
from chamberopt.acquisition import AcquisitionConfig
from chamberopt.campaign import (CampaignState, best_so_far, derive_seed,
                                 ingest, init_campaign, load_state,
                                 run_campaign, save_state, step)
from chamberopt.errors import DataError, InvalidStateError, StateFileError
from chamberopt.evaluators import (EVALUATORS, Observation, proxy_prechamber,
                                   read_proposals, write_proposals)
from chamberopt.optim import OptimizerBudget
from chamberopt.space import PRECHAMBER_SPACE, ParameterSpace

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
    assert st.pending == []
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


@pytest.mark.parametrize("space, evaluator", [
    (PRECHAMBER_SPACE, "quadratic"),
    (ParameterSpace.from_bounds(["a", "b"], [0.0, 0.0], [1.0, 1.0]), "quadratic"),
    (ParameterSpace.from_bounds(["x1", "x2"], [0.0, 0.0], [1.0, 1.0]), "proxy")])
def test_init_refuses_a_builtin_evaluator_on_another_space(space, evaluator):
    with pytest.raises(ValueError, match=f"^'space' must be the space of "
                                         f"evaluator '{evaluator}'"):
        init_campaign(space, _acq(), SMALL_BUDGET, doe_n=4, seed=0,
                      evaluator=evaluator)


_LOW, _HIGH = (8.0, 0.75, 15.0), (12.0, 1.15, 20.0)     # no DOE point is a corner


@pytest.mark.parametrize("pending, start, end", [
    (lambda rows: [(5, _LOW)], "pending[0]: 'id' must be a unique string", ""),
    (lambda rows: [("a", _LOW), ("a", _HIGH)], "pending[1]: 'id' must be", ""),
    (lambda rows: [("a", _LOW[:2])], "pending[0]: 'x' must be a tuple of 3", ""),
    (lambda rows: [("a", ("8.0", *_LOW[1:]))], "pending[0]: 'x' must be a finite", ""),
    (lambda rows: [("a", (1e6, *_LOW[1:]))], "pending[0]: dimension 'd_bottle'", ""),
    (lambda rows: [("a", _LOW), ("b", rows[2].x)],
     "pending[1]: duplicate design point", "(matches dataset[2])"),
    (lambda rows: [("a", _LOW), ("b", _HIGH), ("c", _HIGH)],
     "pending[2]: duplicate design point", "(matches pending[1])"),
], ids=["int_id", "duplicate_id", "short_x", "string_coordinate",
        "out_of_bounds_x", "repeats_a_row", "repeats_a_pending_point"])
def test_built_state_refuses_a_pending_entry_as_load_state_does(pending, start, end):
    st = _embedded()
    with pytest.raises(ValueError) as e:
        CampaignState(space=st.space, acq=st.acq, budget=st.budget,
                      dataset=st.dataset, rng_seed=0, pending=pending(st.dataset))
    assert str(e.value).startswith(start) and str(e.value).endswith(end)


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
    assert st.pending
    assert len(st.dataset) == 0
    from chamberopt.evaluators import write_proposals
    ppath = tmp_path / "proposals_iter0.csv"
    write_proposals(ppath, st.space, st.pending)
    rpath = tmp_path / "results0.csv"
    _answer(ppath, rpath)
    st = ingest(st, rpath)
    assert len(st.dataset) == 4
    assert st.iteration == 0
    assert st.pending == []
    assert all(r.tag == "doe" for r in st.dataset)


def test_external_step_then_ingest(tmp_path):
    st = _external(tmp_path)
    from chamberopt.evaluators import write_proposals
    write_proposals(tmp_path / "proposals_iter0.csv", st.space, st.pending)
    _answer(tmp_path / "proposals_iter0.csv", tmp_path / "r0.csv")
    st = ingest(st, tmp_path / "r0.csv")

    st = step(st)
    assert st.pending
    ppath = tmp_path / "proposals_iter1.csv"
    write_proposals(ppath, st.space, st.pending)
    _answer(ppath, tmp_path / "r1.csv")
    st = ingest(st, tmp_path / "r1.csv")
    assert st.iteration == 1
    assert len(st.dataset) == 4 + 2
    assert sum(r.tag == "bo_iter_1" for r in st.dataset) == 2


def _answer_pending(st, path, f, seed):
    """Write ``f``'s results for the pending batch, shuffled by ``seed``."""
    rows = list(st.pending)
    random.Random(seed).shuffle(rows)
    with open(path, "w") as out:
        out.write("id,k,v_mag\n")
        for pid, x in rows:
            k, v = f(x)
            out.write(f"{pid},{k!r},{v!r}\n")


def test_embedded_and_asktell_campaigns_hold_the_same_rows(tmp_path):
    # the same campaign driven ask-tell by the proxy, with every results
    # file shuffled, holds the embedded campaign's rows in the same order
    embedded = run_campaign(_embedded(seed=4, doe=6), 3)
    st = init_campaign(PRECHAMBER_SPACE, _acq(), SMALL_BUDGET, doe_n=6,
                       seed=4, evaluator="external")
    for i in range(4):
        if i:
            st = step(st)
        _answer_pending(st, tmp_path / f"r{i}.csv", proxy_prechamber, seed=i)
        st = ingest(st, tmp_path / f"r{i}.csv")
    assert len(st.dataset) == 6 + 3 * 3
    assert st.dataset.rows == embedded.dataset.rows


def test_units_of_x_and_v_change_no_proposal(tmp_path):
    # an external 2-D campaign with its bounds scaled by 2^m, its v and
    # threshold by 2^a, or both, proposes the same points divided by 2^m.
    # k keeps its units: optim._GAIN_TOL is an absolute tolerance on qCEI
    # gains, in objective units, so scaling k changes the proposals.
    def proposals(m, a):
        space = ParameterSpace.from_bounds(
            ["x1", "x2"], np.ldexp([-1.0, 0.5], m), np.ldexp([3.0, 2.0], m))

        def f(x):
            u1, u2 = (np.ldexp(x, -m) - [-1.0, 0.5]) / [4.0, 1.5]
            k = -(u1 - 0.6) ** 2 - (u2 - 0.3) ** 2 + 0.3 * u1 * u2
            return float(k), float(np.ldexp(u1 + u2 ** 2, a))

        st = init_campaign(space, _acq(q=2, mc=64, thr=np.ldexp(0.9, a)),
                           OptimizerBudget(raw_samples=16, restarts=2),
                           doe_n=6, seed=2, evaluator="external")
        out = []
        for i in range(4):
            if i:
                st = step(st)
            out += [np.ldexp(x, -m).tolist() for _, x in st.pending]
            _answer_pending(st, tmp_path / "r.csv", f, seed=i)
            st = ingest(st, tmp_path / "r.csv")
        return out

    base = proposals(0, 0)
    for m, a in [(-7, 0), (5, 0), (0, -9), (0, 12), (-7, 12), (5, -9)]:
        assert proposals(m, a) == base, (m, a)


def test_iteration_counts_the_bo_iter_stages(tmp_path):
    # a hand row with its own tag is no iteration; one tagged bo_iter_<n> is
    # one, as the tables print it, and the program's next batch follows it
    st = _external(tmp_path)
    write_proposals(tmp_path / "proposals_iter0.csv", st.space, st.pending)
    for i in range(3):
        if i:
            st = step(st)
            write_proposals(tmp_path / f"proposals_iter{i}.csv", st.space,
                            st.pending)
        _answer(tmp_path / f"proposals_iter{i}.csv", tmp_path / f"r{i}.csv")
        st = ingest(st, tmp_path / f"r{i}.csv")
    assert st.iteration == 2
    u = [[0.11, 0.22, 0.33], [0.44, 0.55, 0.66]]
    for x, tag, iteration in zip(PRECHAMBER_SPACE.from_unit(u),
                                 ["manual", "bo_iter_3"], [2, 3]):
        st.dataset.append(Observation(tuple(x.tolist()), *proxy_prechamber(x), tag))
        assert st.iteration == iteration
    st = step(st)
    assert [pid for pid, _ in st.pending] == ["iter4_0", "iter4_1"]
    write_proposals(tmp_path / "proposals_iter4.csv", st.space, st.pending)
    _answer(tmp_path / "proposals_iter4.csv", tmp_path / "r4.csv")
    st = ingest(st, tmp_path / "r4.csv")
    assert [obs.tag for obs in st.dataset.rows[-4:]] == [
        "manual", "bo_iter_3", "bo_iter_4", "bo_iter_4"]
    assert st.iteration == 4


@pytest.mark.parametrize("tag", ["bo_iter_2", "bo_iter_x", "bo_iter_01"])
def test_a_hand_row_that_starts_an_iteration_numbers_it(tag):
    # a hand row that starts a bo_iter_ stage numbers the next iteration:
    # a DOE and a row tagged bo_iter_2 would leave iteration at 1, and every
    # later step would join that stage with iteration 1's seeds and ids
    st = init_campaign(PRECHAMBER_SPACE, _acq(q=2), SMALL_BUDGET, doe_n=4,
                       seed=0, evaluator="proxy")
    x1, x2 = (tuple(x.tolist()) for x in PRECHAMBER_SPACE.from_unit(
        [[0.11, 0.22, 0.33], [0.44, 0.55, 0.66]]))
    with pytest.raises(DataError, match=rf"^dataset\[4\]: tag '{tag}' starts "
                                        rf"BO iteration 1, so it must be 'bo_iter_1'$"):
        st.dataset.append(Observation(x1, *proxy_prechamber(x1), tag))
    assert len(st.dataset) == 4 and st.iteration == 0
    # bo_iter_1 starts iteration 1, and a second row continues its stage
    st.dataset.append(*(Observation(x, *proxy_prechamber(x), "bo_iter_1")
                        for x in (x1, x2)))
    assert st.iteration == 1
    for n in (2, 3):
        st = step(st)
        assert st.iteration == n and st.dataset.rows[-1].tag == f"bo_iter_{n}"


def test_external_init_and_step_write_no_file(tmp_path, monkeypatch):
    cwd, files = tmp_path / "cwd", tmp_path / "files"
    cwd.mkdir()
    files.mkdir()
    monkeypatch.chdir(cwd)
    st = _external(None)
    write_proposals(files / "proposals_iter0.csv", st.space, st.pending)
    _answer(files / "proposals_iter0.csv", files / "r0.csv")
    st = ingest(st, files / "r0.csv")
    before = {p: p.read_bytes() for p in files.iterdir()}
    st = step(st)
    assert [pid for pid, _ in st.pending] == ["iter1_0", "iter1_1"]
    assert list(cwd.iterdir()) == []
    assert {p: p.read_bytes() for p in files.iterdir()} == before


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
    st = step(st)
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
        step(st)


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
