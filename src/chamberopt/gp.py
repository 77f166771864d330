"""Exact Gaussian process regression on the unit cube.

One GP per output channel (objective k, constraint |v|), Matern-5/2 ARD
kernel, fixed observation noise in standardized output space, hyperparameters
fitted by multi-start L-BFGS on the log marginal likelihood.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.linalg import cho_solve, cholesky, solve_triangular
from scipy.optimize import minimize

from .errors import DegenerateDataError, NumericError
from .kernels import matern52_cross, matern52_cross_grad

NOISE_STD = 0.005          # fixed, standardized output units; never fitted

_LS_BOUNDS = (1e-3, 1e3)
_SV_BOUNDS = (1e-4, 1e4)
_N_RESTARTS = 8

_JITTER_START = 1e-10
_JITTER_MAX = 1e-4


@dataclass(frozen=True)
class StandardizationSpec:
    center: float
    scale: float

    def __post_init__(self):
        if self.scale <= 0:
            raise ValueError("standardization scale must be positive")


@dataclass(frozen=True)
class GpHyperparameters:
    lengthscales: np.ndarray        # unit-cube units, one per dimension
    signal_variance: float
    noise_std: float = NOISE_STD

    def __post_init__(self):
        object.__setattr__(self, "lengthscales",
                           np.atleast_1d(np.asarray(self.lengthscales, dtype=float)))
        if np.any(self.lengthscales <= 0) or self.signal_variance <= 0 or self.noise_std <= 0:
            raise ValueError("hyperparameters must be strictly positive")


@dataclass(frozen=True)
class GpModel:
    hyper: GpHyperparameters
    standardize: StandardizationSpec
    train_inputs: np.ndarray        # (n, d) unit-cube points
    train_targets: np.ndarray       # (n,) standardized
    chol: np.ndarray                # lower factor of K + noise^2 I (+ jitter)
    alpha: np.ndarray               # (K + noise^2 I)^-1 y
    channel: str = "objective"

    @property
    def n_train(self) -> int:
        return self.train_inputs.shape[0]


@dataclass(frozen=True)
class PosteriorGaussian:
    mean: float
    std: float

    def __post_init__(self):
        if self.std < 0:
            raise ValueError("posterior std must be nonnegative")


def matern_kernel(a: np.ndarray, b: np.ndarray, hyper: GpHyperparameters) -> float:
    """Matern-5/2 covariance between two unit-cube points."""
    a = np.atleast_1d(np.asarray(a, dtype=float))
    b = np.atleast_1d(np.asarray(b, dtype=float))
    if a.shape != b.shape or a.shape[0] != hyper.lengthscales.shape[0]:
        raise ValueError("dimension mismatch between points and lengthscales")
    return float(matern52_cross(a[None, :], b[None, :],
                                hyper.lengthscales, hyper.signal_variance)[0, 0])


def _chol_with_jitter(K: np.ndarray) -> tuple[np.ndarray, float]:
    """Lower Cholesky factor of K, escalating diagonal jitter on failure."""
    jitter = 0.0
    while True:
        try:
            L = cholesky(K + jitter * np.eye(K.shape[0]), lower=True)
            return L, jitter
        except np.linalg.LinAlgError:
            pass
        except ValueError:
            pass
        jitter = _JITTER_START if jitter == 0.0 else jitter * 10.0
        if jitter > _JITTER_MAX:
            raise NumericError(
                f"Cholesky factorization failed with jitter up to {_JITTER_MAX}"
            )


def standardization_for(raw_targets: np.ndarray, channel: str) -> StandardizationSpec:
    y = np.asarray(raw_targets, dtype=float)
    scale = float(np.std(y))
    if scale <= 0.0:
        scale = 1.0
    if channel == "objective":
        return StandardizationSpec(center=float(np.mean(y)), scale=scale)
    if channel == "constraint":
        return StandardizationSpec(center=0.0, scale=scale)
    raise ValueError(f"unknown channel {channel!r}")


def _factor(K: np.ndarray, y: np.ndarray,
            noise_std: float) -> tuple[np.ndarray, np.ndarray, float]:
    """Lower Cholesky factor L of K + noise^2 I, alpha = (K + noise^2 I)^-1 y
    and the log marginal likelihood, all from the one factor (GPML Alg. 2.1)."""
    n = K.shape[0]
    L, _ = _chol_with_jitter(K + noise_std**2 * np.eye(n))
    alpha = cho_solve((L, True), y)
    lml = float(-0.5 * y @ alpha - np.sum(np.log(np.diag(L)))
                - 0.5 * n * np.log(2.0 * np.pi))
    return L, alpha, lml


def log_marginal_likelihood(X: np.ndarray, y: np.ndarray,
                            lengthscales: np.ndarray, signal_variance: float,
                            noise_std: float = NOISE_STD) -> float:
    K = matern52_cross(X, X, np.asarray(lengthscales, dtype=float),
                       float(signal_variance))
    return _factor(K, y, noise_std)[2]


def lml_and_grad(X: np.ndarray, y: np.ndarray, log_params: np.ndarray,
                 noise_std: float = NOISE_STD) -> tuple[float, np.ndarray]:
    """LML and its gradient w.r.t. log-lengthscales and log-signal-variance.

    log_params = (log l_1..log l_d, log s2).
    """
    n = X.shape[0]
    ls = np.exp(log_params[:-1])
    s2 = np.exp(log_params[-1])

    K, dK = matern52_cross_grad(X, X, ls, s2)
    L, alpha, lml = _factor(K, y, noise_std)

    Kn_inv = cho_solve((L, True), np.eye(n))
    M = np.outer(alpha, alpha) - Kn_inv
    grad_ls = 0.5 * np.einsum("ij,kij->k", M, dK)
    grad_s2 = 0.5 * np.sum(M * K)           # dK/d log s2 = K
    return lml, np.append(grad_ls, grad_s2)


def fit(inputs: np.ndarray, raw_targets: np.ndarray, channel: str,
        seed: int) -> GpModel:
    """Fit a GP to unit-cube inputs and raw-unit targets.

    Standardizes targets per channel rule, then maximizes the log marginal
    likelihood by multi-start L-BFGS on log-parameters. Deterministic given
    the seed; restart ties are broken by lowest restart index.
    """
    X = np.atleast_2d(np.asarray(inputs, dtype=float))
    y_raw = np.asarray(raw_targets, dtype=float)
    n, d = X.shape
    if n < 2:
        raise DegenerateDataError("need at least 2 training points")
    if y_raw.shape != (n,):
        raise ValueError("targets must match input count")
    diff = X[:, None, :] - X[None, :, :]
    dist = np.sqrt(np.sum(diff * diff, axis=-1))
    np.fill_diagonal(dist, np.inf)
    if np.min(dist) < 1e-10:
        i, j = np.unravel_index(np.argmin(dist), dist.shape)
        raise DegenerateDataError(f"duplicate training inputs at rows {i} and {j}")

    spec = standardization_for(y_raw, channel)
    y = (y_raw - spec.center) / spec.scale

    lb = np.append(np.full(d, np.log(_LS_BOUNDS[0])), np.log(_SV_BOUNDS[0]))
    ub = np.append(np.full(d, np.log(_LS_BOUNDS[1])), np.log(_SV_BOUNDS[1]))
    rng = np.random.default_rng(seed)

    def objective(p):
        try:
            lml, grad = lml_and_grad(X, y, p)
        except NumericError:
            return np.inf, np.zeros_like(p)
        return -lml, -grad

    best_lml, best_p = -np.inf, None
    for r in range(_N_RESTARTS):
        if r == 0:
            p0 = np.append(np.full(d, np.log(0.5)), 0.0)
        else:
            p0 = np.append(rng.uniform(np.log(1e-2), np.log(1e1), size=d), 0.0)
        res = minimize(objective, p0, jac=True, method="L-BFGS-B",
                       bounds=list(zip(lb, ub)))
        lml = -res.fun
        if np.isfinite(lml) and lml > best_lml:
            best_lml, best_p = lml, res.x
    if best_p is None:
        raise NumericError("all hyperparameter restarts failed")

    hyper = GpHyperparameters(lengthscales=np.exp(best_p[:-1]),
                              signal_variance=float(np.exp(best_p[-1])))
    return model_from_hyper(X, y_raw, channel, hyper)


def model_from_hyper(inputs, raw_targets, channel, hyper: GpHyperparameters) -> GpModel:
    """Build a model with given hyperparameters (no fitting)."""
    X = np.atleast_2d(np.asarray(inputs, dtype=float))
    y_raw = np.asarray(raw_targets, dtype=float)
    spec = standardization_for(y_raw, channel)
    y = (y_raw - spec.center) / spec.scale
    K = matern52_cross(X, X, hyper.lengthscales, hyper.signal_variance)
    L, alpha, _ = _factor(K, y, hyper.noise_std)
    return GpModel(hyper=hyper, standardize=spec, train_inputs=X,
                   train_targets=y, chol=L, alpha=alpha, channel=channel)


def _cross_solve(model: GpModel, Xq: np.ndarray):
    """Query points as a 2-D array, the posterior mean there (standardized
    units) and V = L^-1 k_x, the triangular solve against the train factor."""
    Xq = np.atleast_2d(np.asarray(Xq, dtype=float))
    Kx = matern52_cross(Xq, model.train_inputs,
                        model.hyper.lengthscales, model.hyper.signal_variance)
    return Xq, Kx @ model.alpha, solve_triangular(model.chol, Kx.T, lower=True)


def posterior(model: GpModel, X_query: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Posterior mean and std (standardized units) at query points.

    Variance is the latent-function variance k(x,x) - k_x^T Kn^-1 k_x,
    clamped at zero before the square root.
    """
    _, mean, V = _cross_solve(model, X_query)
    var = model.hyper.signal_variance - np.sum(V * V, axis=0)
    std = np.sqrt(np.maximum(var, 0.0))
    return mean, std


def posterior_at(model: GpModel, x: np.ndarray) -> PosteriorGaussian:
    mean, std = posterior(model, np.atleast_2d(x))
    return PosteriorGaussian(mean=float(mean[0]), std=float(std[0]))


def joint_posterior_mvn(model: GpModel, XS: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Joint posterior mean vector and covariance matrix at a set of points."""
    XS, mean, V = _cross_solve(model, XS)
    Kss = matern52_cross(XS, XS, model.hyper.lengthscales,
                         model.hyper.signal_variance)
    return mean, Kss - V.T @ V


def joint_posterior_samples(model: GpModel, XS: np.ndarray, n_samples: int,
                            seed: int | None = None,
                            base_normals: np.ndarray | None = None) -> np.ndarray:
    """Draws from the joint posterior at XS, shape (n_samples, |XS|).

    Standardized units. Either a seed or a fixed (n_samples, |XS|) matrix of
    standard-normal base draws must be supplied; fixed base draws keep the
    sample path deterministic while XS varies.
    """
    mean, cov = joint_posterior_mvn(model, XS)
    q = mean.shape[0]
    L, _ = _chol_with_jitter(cov)
    if base_normals is None:
        if seed is None:
            raise ValueError("need a seed or base_normals")
        base_normals = np.random.default_rng(seed).standard_normal((n_samples, q))
    elif base_normals.shape != (n_samples, q):
        raise ValueError("base_normals shape mismatch")
    return mean[None, :] + base_normals @ L.T


def destandardize(model: GpModel, g: PosteriorGaussian) -> PosteriorGaussian:
    """Map a standardized posterior back to raw output units."""
    s = model.standardize
    return PosteriorGaussian(mean=s.scale * g.mean + s.center, std=s.scale * g.std)


def destandardize_arrays(model: GpModel, mean: np.ndarray, std: np.ndarray):
    s = model.standardize
    return s.scale * mean + s.center, s.scale * std
