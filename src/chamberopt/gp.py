"""Exact Gaussian process regression on the unit cube.

One GP per output channel (objective k, constraint |v|), Matern-5/2 ARD
kernel, fixed observation noise in standardized output space, hyperparameters
fitted by a multi-start, box-constrained quasi-Newton search on the log
marginal likelihood. A model answers in the raw output units it was fitted
on: standardization is this module's business alone.

numpy is the only numeric dependency here: each ``scipy`` subpackage import
costs a command-line process (every ask-tell step is one) a few tenths of a
second and tens of MB. A model keeps the inverse of its Cholesky factor, so
posterior queries are matrix products, and ``boxmin.minimize_box`` takes the
place of scipy's L-BFGS-B with the same stopping rules.

The likelihood gradient is the contraction 1/2 <alpha alpha^T - Kn^-1, dK/dtheta>
(Rasmussen & Williams 2006, GPML eq. 5.9), which ``kernels.matern52_cross_grad``
evaluates without building the (d, n, n) derivative tensor. The noise goes
onto the diagonal of a copy of K, with no identity matrix formed, so one
``lml_and_grad`` call at n = 180 holds about four n x n arrays at its peak.

``_chol_with_jitter`` is the one Cholesky routine, with one rule for the
n x n training covariance, a batch's (q, q) posterior covariance and a stack
of them, a leading axis from the kernel to the sampler: only a matrix that
will not factor, such as a batch holding a point twice, takes jitter.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .boxmin import minimize_box
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
        ls = np.atleast_1d(np.array(self.lengthscales, dtype=float))
        values = np.append(ls, [self.signal_variance, self.noise_std])
        if not np.all(np.isfinite(values) & (values > 0)):
            raise ValueError("hyperparameters must be finite and strictly "
                             f"positive, got {values.tolist()}")
        object.__setattr__(self, "lengthscales", ls)


@dataclass(frozen=True)
class GpModel:
    hyper: GpHyperparameters
    standardize: StandardizationSpec
    train_inputs: np.ndarray        # (n, d) unit-cube points
    chol_inv: np.ndarray            # inverse lower factor of K + noise^2 I (+ jitter)
    alpha: np.ndarray               # (K + noise^2 I)^-1 y


@dataclass(frozen=True)
class PosteriorGaussian:
    mean: float
    std: float

    def __post_init__(self):
        if self.std < 0:
            raise ValueError("posterior std must be nonnegative")


def _plus_diagonal(K: np.ndarray, value: float) -> np.ndarray:
    """K + value * I for a matrix or each matrix of a stack, built without an
    identity matrix."""
    out = K.copy()
    n = K.shape[-1]
    out.reshape(-1, n * n)[:, ::n + 1] += value
    return out


def _chol_with_jitter(K: np.ndarray) -> tuple[np.ndarray, float]:
    """Lower Cholesky factor of a matrix, or of each matrix of a stack, and
    the largest diagonal jitter it took.

    K itself is factored first. If a stack fails, each of its matrices is
    factored alone by this same rule, so the others keep their plain
    factors. A single matrix that fails is factored again as
    K + jitter * I with escalating jitter, built only then.
    """
    # numpy factors a NaN matrix into an all-NaN factor instead of raising
    if not np.isfinite(K).all():
        raise NumericError("non-finite covariance matrix")
    try:
        return np.linalg.cholesky(K), 0.0
    except np.linalg.LinAlgError:
        if K.ndim == 3:
            factors = [_chol_with_jitter(K_i) for K_i in K]
            return (np.stack([L for L, _ in factors]),
                    max(jitter for _, jitter in factors))
    jitter = _JITTER_START
    while jitter <= _JITTER_MAX:
        try:
            return np.linalg.cholesky(_plus_diagonal(K, jitter)), jitter
        except np.linalg.LinAlgError:
            jitter *= 10.0
    raise NumericError(f"Cholesky factorization failed with jitter up to {_JITTER_MAX}")


def standardization_for(raw_targets: np.ndarray, channel: str) -> StandardizationSpec:
    """The objective's targets are centered on their mean, the constraint's
    keep 0 at 0, and each channel is scaled by its std. A constant channel
    is scaled by its magnitude max|y| instead, and an all-zero one by 1, so a
    constant fits alike in any units: its std is 0, or only the rounding
    error of its mean, which scaling by the std would blow up to 1."""
    if channel not in ("objective", "constraint"):
        raise ValueError(f"unknown channel {channel!r}")
    y = np.asarray(raw_targets, dtype=float)
    with np.errstate(over="ignore", invalid="ignore"):
        center, scale = float(np.mean(y)), float(np.std(y))
    if not np.isfinite([center, scale]).all():
        raise NumericError(f"the {channel} values overflow when standardized")
    if scale == 0.0 or np.ptp(y) == 0.0:
        scale = float(np.max(np.abs(y))) or 1.0
    return StandardizationSpec(center=center if channel == "objective" else 0.0,
                               scale=scale)


def _lower_inverse(L: np.ndarray) -> np.ndarray:
    """Inverse of a lower-triangular matrix by 2x2 block recursion.

    inv([[A, 0], [C, D]]) = [[A^-1, 0], [-D^-1 C A^-1, D^-1]]. At n = 150-180
    this is about 3x faster than ``np.linalg.inv``, whose LU ignores the
    triangle, and as fast as a LAPACK triangular solve against I.
    """
    n = L.shape[0]
    if n <= 32:
        return np.linalg.inv(L)
    h = n // 2
    A_inv, D_inv = _lower_inverse(L[:h, :h]), _lower_inverse(L[h:, h:])
    out = np.zeros_like(L)
    out[:h, :h] = A_inv
    out[h:, h:] = D_inv
    out[h:, :h] = -(D_inv @ L[h:, :h]) @ A_inv
    return out


def _factor(K: np.ndarray, y: np.ndarray,
            noise_std: float) -> tuple[np.ndarray, np.ndarray, float]:
    """Inverse L^-1 of the lower Cholesky factor of K + noise^2 I,
    alpha = (K + noise^2 I)^-1 y and the log marginal likelihood, all from
    the one factor (GPML Alg. 2.1)."""
    n = K.shape[0]
    L, _ = _chol_with_jitter(_plus_diagonal(K, noise_std**2))
    L_inv = _lower_inverse(L)
    alpha = L_inv.T @ (L_inv @ y)
    lml = float(-0.5 * y @ alpha - np.sum(np.log(np.diag(L)))
                - 0.5 * n * np.log(2.0 * np.pi))
    return L_inv, alpha, lml


def lml_and_grad(X: np.ndarray, y: np.ndarray,
                 log_params: np.ndarray) -> tuple[float, np.ndarray]:
    """LML and its gradient w.r.t. log-lengthscales and log-signal-variance,
    at the fixed noise ``NOISE_STD``.

    log_params = (log l_1..log l_d, log s2). With Kn = K + noise^2 I and
    alpha = Kn^-1 y, dLML/dtheta = 1/2 tr(M dK/dtheta) with
    M = alpha alpha^T - Kn^-1 (GPML eq. 5.9). M and dK/dtheta are symmetric,
    so the trace is the elementwise sum <M, dK/dtheta>: ``matern52_cross_grad``
    contracts it one lengthscale at a time, and no derivative matrix is
    stored. Each n x n array is dropped as soon as the next step no longer
    needs it.
    """
    ls = np.exp(log_params[:-1])
    s2 = np.exp(log_params[-1])

    K = matern52_cross(X, X, ls, s2)
    L_inv, alpha, lml = _factor(K, y, NOISE_STD)
    M = L_inv.T @ L_inv
    del L_inv
    np.negative(M, out=M)
    M += np.outer(alpha, alpha)
    grad_s2 = 0.5 * np.vdot(M, K)           # dK/d log s2 = K
    del K
    grad_ls = 0.5 * matern52_cross_grad(X, X, ls, s2, M)
    return lml, np.append(grad_ls, grad_s2)


def fit(inputs: np.ndarray, raw_targets: np.ndarray, channel: str,
        seed: int) -> GpModel:
    """Fit a GP to unit-cube inputs and raw-unit targets.

    Standardizes targets per channel rule, then maximizes the log marginal
    likelihood by multi-start ``minimize_box`` on log-parameters.
    Deterministic given the seed; restart ties are broken by lowest restart
    index.

    Coincident inputs are repeated noisy observations of one latent value:
    the fixed noise keeps the covariance positive definite (GPML Sec. 2.2).
    Keeping campaign points distinct is ``evaluators.Dataset``'s rule.
    """
    X = np.atleast_2d(np.asarray(inputs, dtype=float))
    y_raw = np.asarray(raw_targets, dtype=float)
    n, d = X.shape
    if n < 2:
        raise DegenerateDataError("need at least 2 training points")
    if y_raw.shape != (n,):
        raise ValueError("targets must match input count")

    spec = standardization_for(y_raw, channel)
    y = (y_raw - spec.center) / spec.scale

    lb = np.append(np.full(d, np.log(_LS_BOUNDS[0])), np.log(_SV_BOUNDS[0]))
    ub = np.append(np.full(d, np.log(_LS_BOUNDS[1])), np.log(_SV_BOUNDS[1]))
    rng = np.random.default_rng(seed)

    def objective(p):
        lml, grad = lml_and_grad(X, y, p)
        return -lml, -grad

    best_lml, best_p, error = -np.inf, None, "no finite likelihood"
    for r in range(_N_RESTARTS):
        if r == 0:
            p0 = np.append(np.full(d, np.log(0.5)), 0.0)
        else:
            p0 = np.append(rng.uniform(np.log(1e-2), np.log(1e1), size=d), 0.0)
        try:
            with np.errstate(over="raise", invalid="raise"):
                p, f = minimize_box(objective, p0, lb, ub)
        except (NumericError, FloatingPointError) as e:    # fails the restart
            error = e
            continue
        lml = -f
        if np.isfinite(lml) and lml > best_lml:
            best_lml, best_p = lml, p
    if best_p is None:
        raise NumericError(f"all {_N_RESTARTS} hyperparameter restarts of the "
                           f"{channel} channel failed: {error}")

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
    L_inv, alpha, _ = _factor(K, y, hyper.noise_std)
    return GpModel(hyper=hyper, standardize=spec, train_inputs=X,
                   chol_inv=L_inv, alpha=alpha)


def posterior(model: GpModel, X_query: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Posterior mean and std at query points, in raw output units.

    Variance is the latent-function variance k(x,x) - k_x^T Kn^-1 k_x,
    clamped at zero before the square root.
    """
    Kx = matern52_cross(np.atleast_2d(np.asarray(X_query, dtype=float)),
                        model.train_inputs, model.hyper.lengthscales,
                        model.hyper.signal_variance)
    V = model.chol_inv @ Kx.T               # L^-1 k_x, L the train covariance factor
    var = model.hyper.signal_variance - np.sum(V * V, axis=0)
    std = np.sqrt(np.maximum(var, 0.0))
    s = model.standardize
    return s.scale * (Kx @ model.alpha) + s.center, s.scale * std


def posterior_at(model: GpModel, x: np.ndarray) -> PosteriorGaussian:
    mean, std = posterior(model, np.atleast_2d(x))
    return PosteriorGaussian(mean=float(mean[0]), std=float(std[0]))


def joint_posterior_mvn(model: GpModel, XS: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Joint posterior mean vector and covariance matrix at a set of points,
    standardized: the sampler's standardized step, since factoring a raw-unit
    covariance would round differently.

    A (q, d) XS gives a (q,) mean and a (q, q) covariance. Leading axes are
    a stack: (R, q, d) gives (R, q) means and R (q, q) covariances. One
    kernel call covers each batch against the training set and itself.
    """
    XS = np.asarray(XS, dtype=float)
    n = model.train_inputs.shape[0]
    train = np.broadcast_to(model.train_inputs, XS.shape[:-2] + (n, XS.shape[-1]))
    K = matern52_cross(XS, np.concatenate([train, XS], axis=-2),
                       model.hyper.lengthscales, model.hyper.signal_variance)
    Kx, Kss = K[..., :n], K[..., n:]
    V = model.chol_inv @ Kx.swapaxes(-1, -2)
    # one flat product keeps the means' rounding; a stacked Kx @ alpha
    # changes their last bits
    mean = (Kx.reshape(-1, n) @ model.alpha).reshape(XS.shape[:-1])
    return mean, Kss - V.swapaxes(-1, -2) @ V


def joint_posterior_samples(model: GpModel, XS: np.ndarray,
                            base_normals: np.ndarray) -> np.ndarray:
    """Draws from the joint posterior at the q points of XS, raw output units.

    ``base_normals`` is an (n_samples, q) matrix of standard-normal base
    draws, one row per sample; holding it fixed keeps the sample path
    deterministic while XS varies. A (q, d) XS gives (n_samples, q) draws
    and a stack of R batches, (R, q, d), gives (R, n_samples, q), every
    batch drawn from the same base normals as L @ base_normals^T, with L
    the Cholesky factor of its covariance.
    """
    XS = np.asarray(XS, dtype=float)
    if XS.ndim not in (2, 3):
        raise ValueError("XS must be a (q, d) batch or an (R, q, d) stack")
    mean, cov = joint_posterior_mvn(model, XS)
    if base_normals.ndim != 2 or base_normals.shape[1] != cov.shape[-1]:
        raise ValueError("base_normals shape mismatch")
    samples = (_chol_with_jitter(cov)[0] @ base_normals.T).swapaxes(-1, -2)
    samples += mean[..., None, :]
    samples *= model.standardize.scale
    samples += model.standardize.center
    return samples
