import copy
import os
import tempfile

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from chamberopt.acquisition import AcquisitionConfig
from chamberopt.campaign import CampaignState, load_state, save_state
from chamberopt.errors import (BoundsViolationError, DataError, ProtocolError)
from chamberopt.evaluators import (QUADRATIC_SPACE, Dataset, Observation,
                                   benchmark_quadratic, proposal_ids,
                                   proxy_prechamber, read_proposals,
                                   read_results, stage_label, write_proposals)
from chamberopt.optim import OptimizerBudget
from chamberopt.space import PRECHAMBER_SPACE

# frozen 201^3 grid scan of the proxy with v <= 25 (see grid scan in
# test_acceptance.py, which recomputes it)
PROXY_GRID_OPT_U = (0.995, 0.43, 1.0)
PROXY_GRID_OPT_K = 253.566870612905
PROXY_GRID_OPT_V = 24.985958101930


def _proxy_at_unit(u):
    return proxy_prechamber(PRECHAMBER_SPACE.from_unit(np.asarray(u)))


def test_proxy_closed_form_spot_values():
    k, _ = _proxy_at_unit([0.0, 0.33, 0.0])
    assert k == pytest.approx(148.0, abs=1e-12)
    k, _ = _proxy_at_unit([1.0, 0.33, 1.0])
    assert k == pytest.approx(280.0, abs=1e-12)


def test_proxy_frozen_grid_optimum():
    k, v = _proxy_at_unit(PROXY_GRID_OPT_U)
    assert k == pytest.approx(PROXY_GRID_OPT_K, abs=1e-9)
    assert v == pytest.approx(PROXY_GRID_OPT_V, abs=1e-9)
    assert 24.0 < v <= 25.0


def test_proxy_out_of_range():
    with pytest.raises(BoundsViolationError):
        proxy_prechamber([7.0, 0.9, 16.0])


def test_proxy_monotone_trends():
    g = np.linspace(0, 1, 21)
    h = 1e-6
    for u2 in g:
        for a in g:
            # k nondecreasing in bottle diameter and neck height
            k0, _ = _proxy_at_unit([a, u2, a])
            k1, _ = _proxy_at_unit([min(a + h, 1.0), u2, a])
            k2, _ = _proxy_at_unit([a, u2, min(a + h, 1.0)])
            assert k1 >= k0 - 1e-12
            assert k2 >= k0 - 1e-12
            # v nondecreasing in bottle diameter
            _, v0 = _proxy_at_unit([a, u2, 0.5])
            _, v1 = _proxy_at_unit([min(a + h, 1.0), u2, 0.5])
            assert v1 >= v0 - 1e-12


def test_proxy_interior_bore_maximum():
    u2 = np.linspace(0, 1, 201)
    ks = [_proxy_at_unit([1.0, t, 1.0])[0] for t in u2]
    arg = int(np.argmax(ks))
    assert 0 < arg < 200


def test_quadratic_benchmark_values():
    k, v = benchmark_quadratic([0.5, 0.5])
    assert k == pytest.approx(-0.08)
    assert v == pytest.approx(1.0)
    k, v = benchmark_quadratic([0.7, 0.7])
    assert k == pytest.approx(0.0)
    assert v == pytest.approx(1.4)
    for x in ([1.2, 0.5], [float("nan"), 0.5]):
        with pytest.raises(BoundsViolationError):
            benchmark_quadratic(x)


# ------------------------------------------------------------ file protocol


def test_write_proposals_format(tmp_path):
    batch = list(zip(proposal_ids(1, 2), [(9.0, 0.8, 16.0), (11.0, 1.0, 19.0)]))
    path = tmp_path / "proposals_iter1.csv"
    write_proposals(path, PRECHAMBER_SPACE, batch)
    lines = path.read_text().strip().splitlines()
    assert lines[0] == "id,d_bottle,d_bore,h_neck"
    assert len(lines) == 3
    assert lines[1].startswith("iter1_0,")


def test_write_proposals_q5_ids(tmp_path):
    xs = np.tile(np.array([9.0, 0.8, 16.0]), (5, 1)) \
        + np.arange(5)[:, None] * 0.01
    path = tmp_path / "p.csv"
    write_proposals(path, PRECHAMBER_SPACE, list(zip(proposal_ids(1, 5), xs)))
    ids = [pid for pid, _ in read_proposals(path, PRECHAMBER_SPACE)]
    assert ids == proposal_ids(1, 5) == [f"iter1_{j}" for j in range(5)]


def test_write_proposals_writes_the_given_ids(tmp_path):
    x0, x1 = (9.0, 0.8, 16.0), (11.0, 1.0, 19.0)
    path = tmp_path / "p.csv"
    write_proposals(path, PRECHAMBER_SPACE, [("a", x0), ("b", x1)])
    back = read_proposals(path, PRECHAMBER_SPACE)
    assert [(pid, tuple(x)) for pid, x in back] == [("a", x0), ("b", x1)]


def test_write_proposals_refuses_an_empty_or_out_of_bounds_batch(tmp_path):
    path = tmp_path / "p.csv"
    with pytest.raises(ValueError, match="empty proposal batch"):
        write_proposals(path, PRECHAMBER_SPACE, [])
    with pytest.raises(BoundsViolationError):
        write_proposals(path, PRECHAMBER_SPACE, [("a", (13.0, 0.8, 16.0))])
    assert not path.exists()


def test_proposals_round_trip_lossless(tmp_path):
    rng = np.random.default_rng(0)
    lo, hi = PRECHAMBER_SPACE.lowers, PRECHAMBER_SPACE.uppers
    xs = rng.uniform(lo, hi, size=(5, 3))
    path = tmp_path / "p.csv"
    write_proposals(path, PRECHAMBER_SPACE, list(zip(proposal_ids(2, 5), xs)))
    back = read_proposals(path, PRECHAMBER_SPACE)
    assert [pid for pid, _ in back] == proposal_ids(2, 5)
    # .17g round-trips float64 exactly
    np.testing.assert_array_equal(np.array([x for _, x in back]), xs)


def _write_results(path, rows):
    with open(path, "w") as f:
        f.write("id,k,v_mag\n")
        for r in rows:
            f.write(",".join(str(c) for c in r) + "\n")


def test_read_results_matches_ids(tmp_path):
    path = tmp_path / "r.csv"
    _write_results(path, [(f"iter1_{j}", 100.0 + j, 20.0) for j in range(5)])
    out = read_results(path, proposal_ids(1, 5))
    assert len(out) == 5
    assert out[0] == ("iter1_0", 100.0, 20.0)


def test_read_results_missing_id(tmp_path):
    path = tmp_path / "r.csv"
    _write_results(path, [("iter1_0", 1.0, 2.0)])
    with pytest.raises(ProtocolError, match="iter1_1"):
        read_results(path, ["iter1_0", "iter1_1"])


def test_read_results_extra_id(tmp_path):
    path = tmp_path / "r.csv"
    _write_results(path, [("iter1_0", 1.0, 2.0), ("stray", 1.0, 2.0)])
    with pytest.raises(ProtocolError, match="stray"):
        read_results(path, ["iter1_0"])


def test_read_results_duplicate_id(tmp_path):
    path = tmp_path / "r.csv"
    _write_results(path, [("a", 1.0, 2.0), ("a", 3.0, 4.0)])
    with pytest.raises(ProtocolError, match="duplicate"):
        read_results(path, ["a"])


def test_read_results_nan_reports_row(tmp_path):
    path = tmp_path / "r.csv"
    _write_results(path, [("a", 1.0, 2.0), ("b", "nan", 2.0)])
    with pytest.raises(DataError, match=":3"):
        read_results(path, ["a", "b"])


def test_read_results_bad_header(tmp_path):
    path = tmp_path / "r.csv"
    path.write_text("id,k,v\n")
    with pytest.raises(ProtocolError, match="header"):
        read_results(path, [])


def test_read_results_out_of_order_ok(tmp_path):
    path = tmp_path / "r.csv"
    _write_results(path, [("iter1_1", 2.0, 2.0), ("iter1_0", 1.0, 2.0)])
    out = read_results(path, ["iter1_0", "iter1_1"])
    assert {pid for pid, _, _ in out} == {"iter1_0", "iter1_1"}


# ------------------------------------------------------------ dataset


def test_dataset_rejects_duplicate_points():
    ds = Dataset(space=PRECHAMBER_SPACE)
    ds.append(Observation((9.0, 0.8, 16.0), 100.0, 20.0))
    with pytest.raises(DataError, match="duplicate"):
        ds.append(Observation((9.0, 0.8, 16.0), 101.0, 21.0))


def test_dataset_rejects_non_finite():
    ds = Dataset(space=PRECHAMBER_SPACE)
    with pytest.raises(DataError):
        ds.append(Observation((9.0, 0.8, 16.0), float("nan"), 20.0))


def test_dataset_refuses_a_tag_with_a_program_stage_label():
    # by hand, "iter1" would print as the stage of the program's bo_iter_1
    rows = [Observation(x, 100.0, 20.0, tag) for x, tag in zip(
        [(9.0, 0.8, 16.0), (10.0, 0.9, 17.0), (11.0, 1.0, 18.0)],
        ["bo_iter_1", "iter1", "doe"])]
    ds = Dataset(space=PRECHAMBER_SPACE)
    with pytest.raises(DataError, match=r"^dataset\[1\]: tag 'iter1'"):
        ds.append(*rows)
    assert len(ds) == 0
    ds.append(rows[0], rows[2])
    assert [stage_label(r.tag) for r in ds] == ["iter1", "doe"]


def test_dataset_rows_are_not_an_init_argument():
    # a dataset built around its rows would skip append's rule
    with pytest.raises(TypeError):
        Dataset(space=PRECHAMBER_SPACE,
                rows=[Observation((9.0, 0.8, 16.0), 100.0, 20.0)])


# unit-square coordinates: grid values and values within and just beyond
# MIN_GAP of 0.5; then values outside the bounds and values that are not
# real numbers (a bool, a numpy integer, an int beyond the float range, a
# string), which a hostile row may also hold
_NOT_REAL = [True, np.int64(2), 10**400, "0.5"]
_IN_BOUNDS = st.sampled_from([0.0, 0.5, 1.0, 1, 0.5 + 5e-11, 0.5 + 1e-9])
_COORD = _IN_BOUNDS | st.sampled_from([-0.5, 1.5, float("nan"), *_NOT_REAL])
_REAL = st.sampled_from([1.0, -2.5, 0.0, 3])
_VALUE = _REAL | st.sampled_from([float("nan"), float("inf"), *_NOT_REAL])
_TAG = st.sampled_from(["manual", "doe", "bo_iter_2"])
_ANY_TAG = _TAG | st.sampled_from([7, None])


@settings(derandomize=True, max_examples=300, deadline=None)
@given(existing=st.lists(st.tuples(st.sampled_from([0.0, 0.25, 0.5, 0.75, 1.0]),
                                   st.sampled_from([0.0, 0.5, 1.0])),
                         unique=True, max_size=6),
       data=st.data())
def test_dataset_append_is_all_or_nothing(existing, data):
    ds = Dataset(space=QUADRATIC_SPACE)
    ds.append(*(Observation(x, 1.0, 1.0) for x in existing))
    earlier = existing + [(0.5, 0.5)]
    # a list or an array of coordinates would load back as a tuple
    listed = st.lists(_IN_BOUNDS, min_size=2, max_size=2)
    point = st.one_of(st.sampled_from(earlier), st.tuples(_COORD, _COORD), listed,
                      listed.map(np.array))
    valid = st.builds(Observation, st.tuples(_IN_BOUNDS, _IN_BOUNDS), _REAL,
                      _REAL, _TAG)
    hostile = st.builds(Observation, point, _VALUE, _VALUE, _ANY_TAG)
    batch = data.draw(st.lists(valid | hostile, min_size=1, max_size=5))
    # a batch may also repeat one of its own rows
    batch += data.draw(st.lists(st.sampled_from(batch), max_size=2))
    before = list(ds.rows)

    one_by_one, refused = copy.deepcopy(ds), None
    for obs in batch:
        try:
            one_by_one.append(obs)
        except (DataError, BoundsViolationError) as e:
            refused = e
            break

    try:
        ds.append(*batch)
    except (DataError, BoundsViolationError) as e:
        assert refused is not None and ds.rows == before
        if isinstance(e, DataError):    # the same row, named as dataset[i]
            assert isinstance(refused, DataError) and str(e) == str(refused)
            assert str(e).startswith(f"dataset[{len(one_by_one)}]: ")
    else:
        assert refused is None and ds.rows == before + batch
        # every row append accepts is one that a state file keeps
        state = CampaignState(space=QUADRATIC_SPACE, acq=AcquisitionConfig(),
                              budget=OptimizerBudget(), dataset=ds, rng_seed=0)
        with tempfile.TemporaryDirectory() as d:
            save_state(state, os.path.join(d, "state.json"))
            assert load_state(os.path.join(d, "state.json")).dataset.rows == ds.rows
