import numpy as np
import pytest

from chamberopt.kernels import (matern52_cross, matern52_cross_grad,
                                mc_batch_feasibility, mc_batch_improvement)
from oracles import (kernel_matrix, matern52_grad_loop,
                     mc_batch_feasibility_loop, mc_batch_improvement_loop)

_EPS = np.finfo(float).eps


def test_matern_matches_loop_oracle():
    rng = np.random.default_rng(0)
    A, B = rng.uniform(size=(30, 4)), rng.uniform(size=(7, 4))
    ls = rng.uniform(0.1, 2.0, 4)
    # the expanded |a|^2 + |b|^2 - 2ab form rounds r^2 by a few eps times
    # max |a/l|^2 <= 400, i.e. < 1e-12, and |dk/d r^2| <= 5/6 * s2
    np.testing.assert_allclose(matern52_cross(A, B, ls, 1.7),
                               kernel_matrix(A, B, ls, 1.7),
                               rtol=1e-12, atol=1.7 * 1e-12)


def test_mc_reductions_match_loop_oracles():
    rng = np.random.default_rng(1)
    ks = rng.normal(1.0, 1.0, (500, 5))
    vs = rng.normal(25.0, 2.0, (500, 5))
    # maxima and masks are exact; only the order of the 500-term sum differs
    assert mc_batch_improvement(ks.copy(), vs <= 25.0, 0.5) == pytest.approx(
        mc_batch_improvement_loop(ks, vs, 0.5, 25.0), rel=500 * _EPS, abs=0.0)
    # a sum of 1.0s is exact in any order
    assert mc_batch_feasibility(vs <= 25.0) == mc_batch_feasibility_loop(vs, 25.0)


def test_grad_matches_loop_oracle():
    rng = np.random.default_rng(3)
    A, B = rng.uniform(size=(12, 3)), rng.uniform(size=(7, 3))
    ls = rng.uniform(0.1, 1.5, 3)
    s2 = 1.3
    for A_, B_ in ((A, B), (A, A)):
        W = rng.standard_normal((len(A_), len(B_)))    # not symmetric
        # |dk / d log l_i| <= s2, so each term rounds within a few eps of s2 |W_jk|;
        # the r^2 rounding of the expanded distance form is below 1e-12
        np.testing.assert_allclose(matern52_cross_grad(A_, B_, ls, s2, W),
                                   matern52_grad_loop(A_, B_, ls, s2, W),
                                   rtol=1e-12, atol=1e-12 * s2 * np.abs(W).sum())


def test_grad_matches_finite_differences():
    rng = np.random.default_rng(2)
    A, B = rng.uniform(size=(10, 3)), rng.uniform(size=(8, 3))
    ls = rng.uniform(0.2, 1.5, 3)
    s2 = 0.8
    h = 1e-6
    for A_, B_ in ((A, A), (A, B)):
        W = rng.standard_normal((len(A_), len(B_)))
        g = matern52_cross_grad(A_, B_, ls, s2, W)
        for i in range(3):
            ls_p, ls_m = ls.copy(), ls.copy()
            ls_p[i] *= np.exp(h)
            ls_m[i] *= np.exp(-h)
            fd = np.sum(W * (matern52_cross(A_, B_, ls_p, s2)
                             - matern52_cross(A_, B_, ls_m, s2))) / (2 * h)
            assert g[i] == pytest.approx(fd, abs=1e-6)


def test_grad_smooth_at_zero_distance():
    A = np.array([[0.3, 0.3], [0.6, 0.1]])
    W = np.zeros((2, 2))
    W[0, 0] = 1.0
    g = matern52_cross_grad(A, A, np.array([0.5, 0.5]), 1.0, W)
    assert np.all(g == 0.0)


def test_mc_improvement_zero_when_infeasible():
    ks = np.full((100, 3), 10.0)
    vs = np.full((100, 3), 30.0)
    assert mc_batch_improvement(ks, vs <= 25.0, 0.0) == 0.0
