import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from chamberopt.errors import BoundsViolationError
from chamberopt.space import (PRECHAMBER_SPACE, Dimension, ParameterSpace,
                              latin_hypercube, scrambled_sobol)


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


def test_out_of_bounds_names_dimension():
    with pytest.raises(BoundsViolationError, match="d_bore"):
        PRECHAMBER_SPACE.to_unit([9.0, 1.2, 16.0])


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
@settings(max_examples=40, deadline=None)
def test_lhs_stratification(n, d, seed):
    space = ParameterSpace.from_bounds([f"x{i}" for i in range(d)],
                                       [0.0] * d, [1.0] * d)
    u = latin_hypercube(space, n, seed)
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


@pytest.mark.filterwarnings("ignore:The balance properties")
@pytest.mark.parametrize("dim", [1, 15, 47])
@pytest.mark.parametrize("n", [1, 7, 256])
def test_scrambled_sobol_matches_scipy_bit_for_bit(dim, n):
    from scipy.stats import qmc
    for seed in (0, 3, 2**40 + 11):
        ours, theirs = np.random.default_rng(seed), np.random.default_rng(seed)
        u = scrambled_sobol(n, dim, ours)
        ref = qmc.Sobol(d=dim, scramble=True, seed=theirs).random(n)
        assert u.dtype == ref.dtype and u.shape == (n, dim)
        np.testing.assert_array_equal(u, ref)
        assert ours.bit_generator.state == theirs.bit_generator.state
        assert ours.integers(2**62) == theirs.integers(2**62)


def test_shipped_direction_numbers_equal_scipys_table():
    # scipy's copy of the Joe-Kuo table is the reference for the packaged one
    import os
    import scipy
    from chamberopt.space import _SOBOL_MAXDIM, _SOBOL_TABLE
    with np.load(os.path.join(os.path.dirname(scipy.__file__), "stats",
                              "_sobol_direction_numbers.npz")) as ref:
        poly, vinit = ref["poly"], ref["vinit"]
    table = np.load(_SOBOL_TABLE)
    assert table.dtype == np.uint32 and table.flags.c_contiguous
    assert table.shape == (_SOBOL_MAXDIM, 19) == (len(poly), 1 + vinit.shape[1])
    np.testing.assert_array_equal(table[:, 0], poly)
    np.testing.assert_array_equal(table[:, 1:], vinit)


def test_scrambled_sobol_rejects_dim_beyond_table():
    rng = np.random.default_rng(0)
    before = rng.bit_generator.state
    with pytest.raises(ValueError, match="21201"):
        scrambled_sobol(4, 21202, rng)
    assert rng.bit_generator.state == before
    assert rng.bit_generator.seed_seq.n_children_spawned == 0
    with pytest.raises(ValueError):
        scrambled_sobol(0, 3, rng)


def test_space_config_round_trip():
    cfg = PRECHAMBER_SPACE.to_config()
    assert ParameterSpace.from_config(cfg) == PRECHAMBER_SPACE
