import tracemalloc

import numpy as np
import pytest

from chamberopt import boxmin, gp
from chamberopt.errors import DegenerateDataError, NumericError
from chamberopt.evaluators import (QUADRATIC_SPACE, benchmark_quadratic,
                                  proxy_prechamber)
from chamberopt.gp import (GpHyperparameters, fit, joint_posterior_mvn,
                           joint_posterior_samples, lml_and_grad,
                           model_from_hyper, posterior, posterior_at,
                           standardization_for)
from chamberopt.kernels import matern52_cross
from chamberopt.space import PRECHAMBER_SPACE, latin_hypercube

from oracles import (dense_joint_covariance, dense_lml, dense_lml_grad,
                     dense_posterior, kernel_matrix)


def _random_dataset(rng, n, d):
    X = rng.uniform(size=(n, d))
    y = rng.normal(size=n)
    return X, y


def _standardized(m, y):
    """The targets a model was fitted on, in its standardized units."""
    return (y - m.standardize.center) / m.standardize.scale


# ------------------------------------------------------------ kernel


def test_matern_at_zero_distance_is_signal_variance():
    a = np.array([[0.2, 0.9]])
    k = matern52_cross(a, a, np.array([0.3, 0.7]), 2.4)
    assert k[0, 0] == pytest.approx(2.4)


def test_matern_value_at_unit_scaled_distance():
    # (1 + sqrt5 + 5/3) * exp(-sqrt5), evaluated with mpmath to 12 digits
    v = matern52_cross(np.array([[0.0]]), np.array([[1.0]]), np.array([1.0]), 1.0)
    assert v[0, 0] == pytest.approx(0.523994108832, abs=1e-10)


def test_matern_symmetry():
    rng = np.random.default_rng(0)
    ls = rng.uniform(0.1, 1, 3)
    a, b = rng.uniform(size=(1, 3)), rng.uniform(size=(1, 3))
    assert matern52_cross(a, b, ls, 1.3)[0, 0] == matern52_cross(b, a, ls, 1.3)[0, 0]


# ------------------------------------------------------------ standardization


def test_objective_standardization_centers_and_scales():
    y = np.array([1.0, 3.0, 5.0])
    s = standardization_for(y, "objective")
    assert s.center == pytest.approx(3.0)
    assert s.scale == pytest.approx(np.std(y))


def test_constraint_standardization_keeps_zero_center():
    y = np.array([10.0, 20.0, 30.0])
    s = standardization_for(y, "constraint")
    assert s.center == 0.0
    assert s.scale == pytest.approx(np.std(y))


def test_standardization_round_trip():
    rng = np.random.default_rng(5)
    y = rng.normal(100, 50, 20)
    s = standardization_for(y, "objective")
    back = ((y - s.center) / s.scale) * s.scale + s.center
    np.testing.assert_allclose(back, y, rtol=1e-12)


# ------------------------------------------------------------ fitting


def test_fit_constant_targets_recovers_constant_mean():
    rng = np.random.default_rng(1)
    X = rng.uniform(size=(8, 2))
    y = np.full(8, 42.0)
    m = fit(X, y, "objective", seed=0)
    np.testing.assert_allclose(_standardized(m, y), 0.0)
    g = posterior_at(m, np.array([0.5, 0.5]))
    assert g.mean == pytest.approx(42.0)


def test_failed_fit_names_the_channel_and_the_last_error():
    # a constant constraint channel keeps its raw scale, and every restart's
    # likelihood overflows
    X = np.random.default_rng(1).uniform(size=(6, 2))
    with pytest.raises(NumericError) as e:
        fit(X, np.full(6, 7.7e116), "constraint", seed=0)
    assert str(e.value).startswith(f"all {gp._N_RESTARTS} hyperparameter "
                                   "restarts of the constraint channel failed: ")
    assert "overflow" in str(e.value)


def test_fit_noise_std_never_changes():
    rng = np.random.default_rng(2)
    X, y = _random_dataset(rng, 15, 3)
    m = fit(X, y, "objective", seed=0)
    assert m.hyper.noise_std == 0.005


def test_fit_beats_generating_hyperparameters():
    rng = np.random.default_rng(3)
    X = rng.uniform(size=(20, 2))
    gen_ls, gen_s2 = np.array([0.4, 0.6]), 1.0
    K = kernel_matrix(X, X, gen_ls, gen_s2) + 1e-10 * np.eye(20)
    y = np.linalg.cholesky(K) @ rng.standard_normal(20)
    y = (y - y.mean()) / y.std()        # already standardized scale
    m = fit(X, y, "objective", seed=0)
    ys = _standardized(m, y)
    fitted_lml = lml_and_grad(X, ys, np.log(np.append(m.hyper.lengthscales,
                                                      m.hyper.signal_variance)))[0]
    gen_lml = dense_lml(X, ys, gen_ls, gen_s2, 0.005)
    assert fitted_lml >= gen_lml - 1e-6


def test_two_point_fit_interpolates():
    X = np.array([[0.2, 0.2], [0.8, 0.7]])
    y = np.array([1.0, 3.0])
    m = fit(X, y, "objective", seed=0)
    for xi, yi in zip(X, y):
        g = posterior_at(m, xi)
        band = 3 * 0.005 * m.standardize.scale
        assert abs(g.mean - yi) <= band + 1e-9


def test_fit_rejects_too_few_points():
    with pytest.raises(DegenerateDataError):
        fit(np.array([[0.5]]), np.array([1.0]), "objective", seed=0)


def test_fit_accepts_coincident_inputs():
    # repeated noisy observations of one latent value: the posterior mean
    # there falls between them
    X = np.array([[0.5, 0.5], [0.5, 0.5], [0.1, 0.9]])
    m = fit(X, np.array([1.0, 2.0, 3.0]), "objective", seed=0)
    assert np.isfinite(m.hyper.lengthscales).all()
    assert np.isfinite(m.hyper.signal_variance)
    g = posterior_at(m, np.array([0.5, 0.5]))
    assert 1.0 < g.mean < 2.0


def test_fit_deterministic_given_seed():
    rng = np.random.default_rng(4)
    X, y = _random_dataset(rng, 12, 2)
    m1 = fit(X, y, "objective", seed=9)
    m2 = fit(X, y, "objective", seed=9)
    np.testing.assert_array_equal(m1.hyper.lengthscales, m2.hyper.lengthscales)
    assert m1.hyper.signal_variance == m2.hyper.signal_variance


def test_fit_factorization_residual():
    rng = np.random.default_rng(6)
    X, y = _random_dataset(rng, 25, 3)
    m = fit(X, y, "objective", seed=0)
    Kn = (kernel_matrix(X, X, m.hyper.lengthscales, m.hyper.signal_variance)
          + 0.005**2 * np.eye(25))
    resid = np.linalg.norm(Kn @ m.alpha - _standardized(m, y))
    assert resid < 1e-8


# ------------------------------------------------------------ LML gradient


def test_lml_gradient_matches_finite_differences():
    rng = np.random.default_rng(8)
    X, y = _random_dataset(rng, 12, 3)
    for _ in range(20):
        p = np.append(rng.uniform(np.log(0.1), np.log(2.0), 3),
                      rng.uniform(np.log(0.3), np.log(3.0)))
        _, grad = lml_and_grad(X, y, p)
        h = 1e-6
        for i in range(4):
            pp, pm = p.copy(), p.copy()
            pp[i] += h
            pm[i] -= h
            fd = (lml_and_grad(X, y, pp)[0] - lml_and_grad(X, y, pm)[0]) / (2 * h)
            denom = max(abs(fd), 1e-8)
            assert abs(grad[i] - fd) / denom < 1e-4


@pytest.mark.parametrize("n", [12, 60, 180])
def test_lml_gradient_matches_dense_oracle(n):
    rng = np.random.default_rng(n)
    X, y = _random_dataset(rng, n, 3)
    for _ in range(3):
        p = np.append(rng.uniform(np.log(0.05), np.log(2.0), 3),
                      rng.uniform(np.log(0.3), np.log(3.0)))
        _, grad = lml_and_grad(X, y, p)
        ref = dense_lml_grad(X, y, np.exp(p[:-1]), np.exp(p[-1]), gp.NOISE_STD)
        np.testing.assert_allclose(grad, ref, rtol=1e-9)


def test_lml_and_grad_allocation_peak():
    # numpy reports its data buffers to tracemalloc, so the peak is exact;
    # a (d, n, n) derivative tensor alone would take 3 n^2 doubles more
    n = 180
    X, y = _random_dataset(np.random.default_rng(11), n, 3)
    p = np.log([0.3, 0.5, 0.8, 1.2])
    lml_and_grad(X, y, p)
    tracemalloc.start()
    try:
        lml_and_grad(X, y, p)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 7 * n * n * 8


# ------------------------------------------------------------ posterior


def test_posterior_matches_dense_oracle():
    rng = np.random.default_rng(9)
    X, y = _random_dataset(rng, 10, 3)
    h = GpHyperparameters(lengthscales=np.array([0.3, 0.5, 0.8]),
                          signal_variance=1.5)
    m = model_from_hyper(X, y, "objective", h)
    Xq = rng.uniform(size=(100, 3))
    mean, std = posterior(m, Xq)
    # the oracle works in standardized units
    s = m.standardize
    om, os = dense_posterior(X, _standardized(m, y), h.lengthscales,
                             h.signal_variance, h.noise_std, Xq)
    np.testing.assert_allclose((mean - s.center) / s.scale, om, atol=1e-8)
    np.testing.assert_allclose(std / s.scale, os, atol=1e-8)


def test_posterior_interpolates_training_data():
    rng = np.random.default_rng(10)
    X, y = _random_dataset(rng, 8, 2)
    h = GpHyperparameters(lengthscales=np.array([0.5, 0.5]),
                          signal_variance=1.0, noise_std=1e-8)
    m = model_from_hyper(X, y, "objective", h)
    mean, std = posterior(m, X)
    # raw output units: the targets as given, not their standardized values
    np.testing.assert_allclose(mean, y, atol=1e-5 * m.standardize.scale)
    assert np.all(std < 1e-3 * m.standardize.scale)


def test_posterior_prior_reversion_far_from_data():
    X = np.array([[0.0, 0.0], [0.01, 0.01]])
    h = GpHyperparameters(lengthscales=np.array([0.02, 0.02]),
                          signal_variance=2.0)
    m = model_from_hyper(X, np.array([5.0, 6.0]), "objective", h)
    s = m.standardize
    assert (s.center, s.scale) == (5.5, 0.5)
    # the prior in raw units: (center, scale * sqrt(signal_variance))
    g = posterior_at(m, np.array([1.0, 1.0]))     # 70 lengthscales away
    assert abs(g.mean - 5.5) < 1e-6 * 0.5
    assert g.std == pytest.approx(0.5 * np.sqrt(2.0), abs=1e-6 * 0.5)


@pytest.mark.parametrize("lengthscales, signal_variance", [
    ([0.5, float("nan")], 1.0), ([0.5, 0.5], float("inf")),
    ([0.5, 0.0], 1.0), ([0.5, 0.5], -1.0)],
    ids=["nan_lengthscale", "inf_signal_variance", "zero_lengthscale",
         "negative_signal_variance"])
def test_hyperparameters_must_be_finite_and_positive(lengthscales,
                                                     signal_variance):
    with pytest.raises(ValueError, match="finite and strictly positive"):
        GpHyperparameters(lengthscales=lengthscales,
                          signal_variance=signal_variance)


# ------------------------------------------------------------ joint sampling


def _toy_model(rng, n=8, d=2):
    """A model and its raw targets."""
    X, y = _random_dataset(rng, n, d)
    h = GpHyperparameters(lengthscales=np.full(d, 0.4), signal_variance=1.0)
    return model_from_hyper(X, y, "objective", h), y


def _normals(seed, n, q):
    return np.random.default_rng(seed).standard_normal((n, q))


def test_joint_samples_univariate_mean():
    rng = np.random.default_rng(11)
    m, _ = _toy_model(rng)
    x = np.array([[0.5, 0.5]])
    n = 20000
    s = joint_posterior_samples(m, x, _normals(0, n, 1))
    g = posterior_at(m, x[0])
    assert abs(s.mean() - g.mean) < 4 * g.std / np.sqrt(n)


def test_joint_samples_identical_points_fully_correlated():
    rng = np.random.default_rng(12)
    m, _ = _toy_model(rng)
    xs = np.array([[0.4, 0.6], [0.4, 0.6]])
    s = joint_posterior_samples(m, xs, _normals(1, 500, 2))
    assert np.max(np.abs(s[:, 0] - s[:, 1])) < 1e-4 * m.standardize.scale


def test_joint_samples_covariance_converges():
    rng = np.random.default_rng(13)
    m, y = _toy_model(rng)
    xs = np.array([[0.1, 0.1], [0.5, 0.5], [0.9, 0.2]])
    s = joint_posterior_samples(m, xs, _normals(2, 10**6, 3))
    _, cov = dense_joint_covariance(m.train_inputs, _standardized(m, y),
                                    m.hyper.lengthscales,
                                    m.hyper.signal_variance,
                                    m.hyper.noise_std, xs)
    cov *= m.standardize.scale**2       # the oracle's units to raw units
    emp = np.cov(s.T)
    scale = np.sqrt(np.outer(np.diag(cov), np.diag(cov)))
    np.testing.assert_allclose(emp / scale, cov / scale, atol=0.01)


# a lone (q, d) batch and an (R, q, d) stack of batches
_BATCH_SHAPES = pytest.mark.parametrize("shape", [(4, 2), (3, 4, 2)],
                                        ids=["batch", "stack"])


@_BATCH_SHAPES
def test_joint_samples_deterministic(shape):
    rng = np.random.default_rng(14)
    m, _ = _toy_model(rng)
    xs = rng.uniform(size=shape)
    a = joint_posterior_samples(m, xs, _normals(5, 64, 4))
    b = joint_posterior_samples(m, xs, _normals(5, 64, 4))
    assert a.shape == shape[:-2] + (64, 4)
    np.testing.assert_array_equal(a, b)


@_BATCH_SHAPES
def test_joint_mvn_matches_dense_oracle(shape):
    rng = np.random.default_rng(15)
    m, y = _toy_model(rng)
    xs = rng.uniform(size=shape)
    mean, cov = joint_posterior_mvn(m, xs)
    assert mean.shape == shape[:-1] and cov.shape == shape[:-1] + (4,)
    # each block is the posterior of its batch alone
    for x, mean_i, cov_i in zip(xs.reshape(-1, 4, 2), mean.reshape(-1, 4),
                                cov.reshape(-1, 4, 4)):
        om, oc = dense_joint_covariance(m.train_inputs, _standardized(m, y),
                                        m.hyper.lengthscales,
                                        m.hyper.signal_variance,
                                        m.hyper.noise_std, x)
        np.testing.assert_allclose(mean_i, om, atol=1e-8)
        np.testing.assert_allclose(cov_i, oc, atol=1e-8)


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_cholesky_rejects_non_finite_matrix(bad):
    K = np.eye(3)
    K[1, 2] = K[2, 1] = bad
    for M in (K, np.stack([np.eye(3), K])):
        with pytest.raises(NumericError):
            gp._chol_with_jitter(M)


def test_cholesky_of_a_stack():
    rng = np.random.default_rng(21)
    B = rng.normal(size=(4, 3, 3))
    stack = B @ B.transpose(0, 2, 1) + 0.1 * np.eye(3)
    L, jitter = gp._chol_with_jitter(stack)
    assert jitter == 0.0
    for L_i, K_i in zip(L, stack):
        np.testing.assert_array_equal(L_i, gp._chol_with_jitter(K_i)[0])
    # rank one less 1e-7 I: factored only with jitter above 1e-7
    indefinite = np.ones((3, 3)) - 1e-7 * np.eye(3)
    L_alone, jitter_alone = gp._chol_with_jitter(indefinite)
    assert jitter_alone > 1e-7
    # in a stack of one or of several, the indefinite matrix takes the jitter
    # it takes alone and the others keep their plain factors
    for others in (stack[:0], stack):
        L_mixed, jitter_mixed = gp._chol_with_jitter(
            np.concatenate([others, indefinite[None]]))
        assert jitter_mixed == jitter_alone
        assert L_mixed.shape == (len(others) + 1, 3, 3)
        np.testing.assert_array_equal(L_mixed[:-1], L[:len(others)])
        np.testing.assert_array_equal(L_mixed[-1], L_alone)
    # eigenvalues 3 and -1: no jitter up to the cap makes it definite, alone
    # or in a stack
    negative = np.array([[1.0, 2.0], [2.0, 1.0]])
    for M in (negative, np.stack([np.eye(2), negative])):
        with pytest.raises(NumericError, match="failed with jitter up to 0.0001"):
            gp._chol_with_jitter(M)


# ------------------------------------------------------------ fit optimizer


def test_minimize_box_quadratic_with_two_active_bounds():
    # convex quadratic whose minimizer over the box has x0 on its upper and
    # x1 on its lower bound: the gradient there is c, pointing out of the box
    # in those two coordinates and zero in the others (KKT)
    rng = np.random.default_rng(16)
    Q = rng.normal(size=(4, 4))
    A = Q @ Q.T + 0.5 * np.eye(4)
    lb, ub = np.full(4, -1.0), np.full(4, 1.0)
    x_star = np.array([1.0, -1.0, 0.3, -0.6])
    c = np.array([-2.0, 1.5, 0.0, 0.0])
    evals = []

    def fun(x):
        evals.append(x)
        r = x - x_star
        return 0.5 * r @ A @ r + c @ r, A @ r + c

    x, f = boxmin.minimize_box(fun, np.zeros(4), lb, ub)
    np.testing.assert_allclose(x, x_star, atol=1e-6)
    assert f == pytest.approx(0.0, abs=1e-10)
    assert len(evals) <= 20


def test_minimize_box_non_finite_start_returns_at_once():
    evals = []

    def fun(x):
        evals.append(x)
        return np.inf, np.zeros_like(x)

    x, f = boxmin.minimize_box(fun, np.array([0.5, 2.0]), np.zeros(2), np.ones(2))
    assert not np.isfinite(f) and len(evals) == 1
    np.testing.assert_array_equal(x, [0.5, 1.0])


def test_minimize_box_backtracks_from_non_finite_trial():
    # the first trial, a unit step along steepest descent from the origin,
    # lands where fun is not finite (x1 > 0.9); the minimizer lies outside
    # that region
    A = np.diag([1.0, 4.0])
    x_star = np.array([0.3, 0.4])
    values = []

    def fun(x):
        r = x - x_star
        f = np.inf if x[1] > 0.9 else 0.5 * r @ A @ r
        values.append(f)
        return f, (np.zeros(2) if x[1] > 0.9 else A @ r)

    x, f = boxmin.minimize_box(fun, np.zeros(2), np.zeros(2), np.ones(2))
    assert not np.isfinite(values[1])
    np.testing.assert_allclose(x, x_star, atol=1e-6)
    assert f == pytest.approx(0.0, abs=1e-10)


def _lbfgsb_best_lml(X, y_raw, channel, seed):
    """Best LML that scipy's L-BFGS-B reaches from the restarts ``fit``
    draws: the optimizer that ``fit`` used before its in-house one."""
    from scipy.optimize import minimize
    spec = standardization_for(y_raw, channel)
    y = (y_raw - spec.center) / spec.scale
    d = X.shape[1]
    bounds = ([np.log(gp._LS_BOUNDS)] * d) + [np.log(gp._SV_BOUNDS)]

    def objective(p):
        try:
            lml, grad = lml_and_grad(X, y, p)
        except NumericError:
            return np.inf, np.zeros_like(p)
        return -lml, -grad

    rng = np.random.default_rng(seed)
    best = -np.inf
    for r in range(gp._N_RESTARTS):
        if r == 0:
            p0 = np.append(np.full(d, np.log(0.5)), 0.0)
        else:
            p0 = np.append(rng.uniform(np.log(1e-2), np.log(1e1), size=d), 0.0)
        res = minimize(objective, p0, jac=True, method="L-BFGS-B", bounds=bounds)
        best = max(best, -res.fun)
    return best


def _oracle_datasets():
    """20 fits: random and smooth targets in 1-3 D with 6-40 points, the
    proxy objective on a 160-point design (the ask-tell scale), and a 2-D
    quadratic whose fitted signal variance sits on its upper bound."""
    out = []
    for seed in range(18):
        rng = np.random.default_rng(100 + seed)
        n, d = 6 + 2 * seed, 1 + seed % 3
        X = rng.uniform(size=(n, d))
        if seed % 2:
            y = np.sin(6.0 * X @ rng.uniform(0.5, 1.5, d)) + 0.1 * rng.normal(size=n)
        else:
            y = rng.normal(size=n)
        out.append((X, y, ("objective", "constraint")[seed % 4 // 2], seed))
    X = latin_hypercube(PRECHAMBER_SPACE, 160, seed=5)
    y = np.array([proxy_prechamber(x)[0] for x in PRECHAMBER_SPACE.from_unit(X)])
    out.append((X, y, "objective", 5))
    X = latin_hypercube(QUADRATIC_SPACE, 20, seed=1)
    y = np.array([benchmark_quadratic(x)[0] for x in QUADRATIC_SPACE.from_unit(X)])
    out.append((X, y, "objective", 1))
    return out


def test_fit_reaches_lbfgsb_likelihood():
    data = _oracle_datasets()
    assert len(data) >= 20
    on_sv_bound = 0
    for X, y, channel, seed in data:
        m = fit(X, y, channel, seed)
        lml = lml_and_grad(X, _standardized(m, y),
                           np.log(np.append(m.hyper.lengthscales,
                                            m.hyper.signal_variance)))[0]
        assert lml >= _lbfgsb_best_lml(X, y, channel, seed) - 1e-3
        on_sv_bound += np.isclose(m.hyper.signal_variance, gp._SV_BOUNDS[1],
                                  rtol=1e-9, atol=0.0)
    assert on_sv_bound >= 1
