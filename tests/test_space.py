import sys

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from chamberopt.errors import BoundsViolationError
from chamberopt.space import (PRECHAMBER_SPACE, Dimension, ParameterSpace,
                              latin_hypercube, unit_latin_hypercube)


def test_lower_corner_maps_to_zero():
    np.testing.assert_allclose(PRECHAMBER_SPACE.to_unit([8.0, 0.75, 15.0]),
                               [0.0, 0.0, 0.0])


def test_upper_corner_maps_to_one():
    np.testing.assert_allclose(PRECHAMBER_SPACE.to_unit([12.0, 1.15, 20.0]),
                               [1.0, 1.0, 1.0])


def test_reference_design_point_transform():
    # (10.20, 0.89, 18.75): (10.20-8)/4, (0.89-0.75)/0.4, (18.75-15)/5
    np.testing.assert_allclose(PRECHAMBER_SPACE.to_unit([10.20, 0.89, 18.75]),
                               [0.55, 0.35, 0.75], atol=1e-12)


def test_from_unit_midpoint():
    np.testing.assert_allclose(PRECHAMBER_SPACE.from_unit([0.5, 0.5, 0.5]),
                               [10.0, 0.95, 17.5])


def test_from_unit_corners():
    np.testing.assert_allclose(PRECHAMBER_SPACE.from_unit([0, 0, 0]), [8, 0.75, 15])
    np.testing.assert_allclose(PRECHAMBER_SPACE.from_unit([1, 1, 1]), [12, 1.15, 20])


# any finite bound, and decimal bounds such as -29.55, whose spans round
_BOUND = st.one_of(st.floats(allow_nan=False, allow_infinity=False),
                   st.integers(-10**6, 10**6).map(lambda i: i / 1000))


@given(dims=st.lists(st.tuples(_BOUND, _BOUND, st.one_of(
    st.sampled_from([0.0, 1.0]), st.floats(0.0, 1.0))), min_size=1, max_size=4))
@example(dims=[(-29.55, 105.131, 1.0)])  # -29.55 + 134.681 rounds past 105.131
@settings(max_examples=300, derandomize=True, deadline=None)
def test_from_unit_lands_within_the_bounds(dims):
    bounds = [sorted(d[:2]) for d in dims]
    assume(all(lo < hi and hi - lo <= sys.float_info.max for lo, hi in bounds))
    space = ParameterSpace.from_bounds([f"x{i}" for i in range(len(dims))],
                                       *zip(*bounds))
    x = space.from_unit([d[2] for d in dims])
    assert np.all((space.lowers <= x) & (x <= space.uppers))
    u = space.to_unit(x)
    assert np.all((0.0 <= u) & (u <= 1.0))


def test_out_of_bounds_names_dimension():
    with pytest.raises(BoundsViolationError, match="d_bore"):
        PRECHAMBER_SPACE.to_unit([9.0, 1.2, 16.0])
    with pytest.raises(BoundsViolationError, match="d_bore"):
        PRECHAMBER_SPACE.to_unit([9.0, np.nan, 16.0])
    with pytest.raises(ValueError):
        PRECHAMBER_SPACE.from_unit([0.5, np.nan, 0.5])
    with pytest.raises(ValueError, match="^expected 3 coordinates, got 2$"):
        PRECHAMBER_SPACE.from_unit([0.5, 0.5])


def test_space_validation():
    with pytest.raises(ValueError):
        ParameterSpace.from_bounds(["a"], [1.0], [1.0])
    with pytest.raises(ValueError):
        ParameterSpace.from_bounds(["a", "a"], [0, 0], [1, 1])
    with pytest.raises(ValueError):
        ParameterSpace.from_bounds([""], [0], [1])


def test_round_trip_identity():
    rng = np.random.default_rng(3)
    lo, hi = PRECHAMBER_SPACE.lowers, PRECHAMBER_SPACE.uppers
    x = rng.uniform(lo, hi, size=(1000, 3))
    back = PRECHAMBER_SPACE.from_unit(PRECHAMBER_SPACE.to_unit(x))
    np.testing.assert_allclose(back, x, rtol=1e-12)


def test_to_unit_strictly_increasing_per_coordinate():
    x = np.array([9.0, 0.9, 17.0])
    u0 = PRECHAMBER_SPACE.to_unit(x)
    for i in range(3):
        x2 = x.copy()
        x2[i] += 1e-6
        assert PRECHAMBER_SPACE.to_unit(x2)[i] > u0[i]


@given(n=st.integers(2, 50), d=st.integers(1, 6), seed=st.integers(0, 2**31))
@example(n=1024, d=15, seed=7)   # the raw screen: 1024 batches of q*d = 5*3
@settings(max_examples=40, derandomize=True, deadline=None)
def test_lhs_stratification(n, d, seed):
    space = ParameterSpace.from_bounds([f"x{i}" for i in range(d)],
                                       [0.0] * d, [1.0] * d)
    u = unit_latin_hypercube(n, d, np.random.default_rng(seed))
    # the DOE is the same design, drawn from a generator seeded with its seed
    np.testing.assert_array_equal(latin_hypercube(space, n, seed), u)
    assert u.shape == (n, d)
    strata = np.floor(u * n).astype(int)
    for j in range(d):
        assert sorted(strata[:, j]) == list(range(n))


def test_lhs_single_point():
    u = latin_hypercube(PRECHAMBER_SPACE, 1, 0)
    assert u.shape == (1, 3)
    assert np.all(u >= 0) and np.all(u < 1)


def test_lhs_deterministic():
    a = latin_hypercube(PRECHAMBER_SPACE, 10, 123)
    b = latin_hypercube(PRECHAMBER_SPACE, 10, 123)
    np.testing.assert_array_equal(a, b)
    c = latin_hypercube(PRECHAMBER_SPACE, 10, 124)
    assert not np.array_equal(a, c)


def test_lhs_rejects_zero_count():
    with pytest.raises(ValueError):
        latin_hypercube(PRECHAMBER_SPACE, 0, 0)


def test_space_config_round_trip():
    cfg = PRECHAMBER_SPACE.to_config()
    assert ParameterSpace.from_config(cfg) == PRECHAMBER_SPACE
