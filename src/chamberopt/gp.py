"""Exact Gaussian process regression on the unit cube.

One GP per output channel (objective k, constraint |v|), Matern-5/2 ARD
kernel, fixed observation noise in standardized output space, hyperparameters
fitted by a multi-start, box-constrained quasi-Newton search on the log
marginal likelihood.

numpy is the only numeric dependency here: each ``scipy`` subpackage import
costs a command-line process (every ask-tell step is one) a few tenths of a
second and tens of MB. A model keeps the inverse of its Cholesky factor, so
posterior queries are matrix products, and ``_minimize_box`` takes the place
of scipy's L-BFGS-B with the same stopping rules.

The likelihood gradient is the contraction 1/2 <alpha alpha^T - Kn^-1, dK/dtheta>
(Rasmussen & Williams 2006, GPML eq. 5.9), which ``kernels.matern52_cross_grad``
evaluates without building the (d, n, n) derivative tensor. The noise goes
onto the diagonal of a copy of K, with no identity matrix formed, so one
``lml_and_grad`` call at n = 180 holds about four n x n arrays at its peak.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DegenerateDataError, NumericError
from .kernels import matern52_cross, matern52_cross_grad

NOISE_STD = 0.005          # fixed, standardized output units; never fitted

_LS_BOUNDS = (1e-3, 1e3)
_SV_BOUNDS = (1e-4, 1e4)
_N_RESTARTS = 8

_JITTER_START = 1e-10
_JITTER_MAX = 1e-4

# stopping rules and budget of scipy's L-BFGS-B defaults (pgtol, factr,
# maxfun), and the sufficient-decrease and curvature constants of its
# line search
_PGTOL = 1e-5
_FTOL = 1e7 * np.finfo(float).eps
_MAX_EVALS = 15000
_WOLFE_C1 = 1e-3
_WOLFE_C2 = 0.9
_MAX_TRIALS = 20            # function values per line search


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
    chol_inv: np.ndarray            # inverse lower factor of K + noise^2 I (+ jitter)
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


def _plus_diagonal(K: np.ndarray, value: float) -> np.ndarray:
    """K + value * I, built without an identity matrix."""
    out = K.copy()
    out.flat[::K.shape[0] + 1] += value
    return out


def _chol_with_jitter(K: np.ndarray) -> tuple[np.ndarray, float]:
    """Lower Cholesky factor of K, escalating diagonal jitter on failure.

    K itself is factored first; K + jitter * I is built only on escalation.
    """
    # numpy factors a NaN matrix into an all-NaN factor instead of raising
    if not np.isfinite(K).all():
        raise NumericError("non-finite covariance matrix")
    jitter = 0.0
    while True:
        try:
            L = np.linalg.cholesky(K if jitter == 0.0 else _plus_diagonal(K, jitter))
            return L, jitter
        except np.linalg.LinAlgError:
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


def log_marginal_likelihood(X: np.ndarray, y: np.ndarray,
                            lengthscales: np.ndarray, signal_variance: float,
                            noise_std: float = NOISE_STD) -> float:
    K = matern52_cross(X, X, np.asarray(lengthscales, dtype=float),
                       float(signal_variance))
    return _factor(K, y, noise_std)[2]


def lml_and_grad(X: np.ndarray, y: np.ndarray, log_params: np.ndarray,
                 noise_std: float = NOISE_STD) -> tuple[float, np.ndarray]:
    """LML and its gradient w.r.t. log-lengthscales and log-signal-variance.

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
    L_inv, alpha, lml = _factor(K, y, noise_std)
    M = L_inv.T @ L_inv
    del L_inv
    np.negative(M, out=M)
    M += np.outer(alpha, alpha)
    grad_s2 = 0.5 * np.vdot(M, K)           # dK/d log s2 = K
    del K
    grad_ls = 0.5 * matern52_cross_grad(X, X, ls, s2, M)
    return lml, np.append(grad_ls, grad_s2)


def _cubic_step(lo, hi) -> float:
    """Minimizer of the cubic through two trial points (a, f, slope), kept
    a tenth of the bracket away from either end; bisection when the cubic
    has no minimizer or a value is not finite."""
    (a0, f0, s0), (a1, f1, s1) = lo[:3], hi[:3]
    left, right = min(a0, a1), max(a0, a1)
    margin = 0.1 * (right - left)
    if np.isfinite(f1) and np.isfinite(s1):
        d1 = s0 + s1 - 3.0 * (f0 - f1) / (a0 - a1)
        rad = d1 * d1 - s0 * s1
        if rad >= 0.0:
            d2 = np.copysign(np.sqrt(rad), a1 - a0)
            denom = s1 - s0 + 2.0 * d2
            if denom != 0.0:
                a = a1 - (a1 - a0) * (s1 + d2 - d1) / denom
                return min(max(a, left + margin), right - margin)
    return 0.5 * (a0 + a1)


def _wolfe_step(phi, f0: float, slope0: float, a: float, a_max: float):
    """A step length a in (0, a_max] meeting the strong Wolfe conditions.

    ``phi(a)`` returns (f, slope, point) on the search ray. Bracketing with
    fourfold extrapolation up to a_max, then safeguarded cubic interpolation
    inside the bracket (Nocedal & Wright, Alg. 3.5-3.6; the conditions of
    More & Thuente 1994). A non-finite f counts as a failed trial point. At
    a_max, sufficient decrease alone is accepted: the bound stops the step.
    Returns the accepted point, the best point with sufficient decrease
    when the trials run out, or None when no trial decreased f enough.
    """
    lo = (0.0, f0, slope0, None)    # best trial with sufficient decrease
    hi = None                       # other end of the bracket, once found
    for _ in range(_MAX_TRIALS):
        if hi is not None:
            if abs(hi[0] - lo[0]) <= 1e-10 * max(hi[0], lo[0]):
                break
            a = _cubic_step(lo, hi)
        f, slope, point = phi(a)
        trial = (a, f, slope, point)
        if np.isfinite(f) and abs(f - f0) <= _FTOL * max(abs(f0), abs(f), 1.0):
            return point            # a change below the stopping tolerance
        if not (np.isfinite(f) and f <= f0 + _WOLFE_C1 * a * slope0 and f < lo[1]):
            hi = trial
        elif abs(slope) <= -_WOLFE_C2 * slope0:
            return point
        elif hi is None:
            if slope >= 0.0:
                lo, hi = trial, lo
            elif a >= a_max:
                return point
            else:
                lo = trial
                a = min(4.0 * a, a_max)
        else:
            if slope * (hi[0] - lo[0]) >= 0.0:
                hi = lo
            lo = trial
    return lo[3]


def _minimize_box(fun, x0: np.ndarray, lb: np.ndarray,
                  ub: np.ndarray) -> tuple[np.ndarray, float]:
    """Minimize ``fun(x) -> (f, grad)`` over the box lb <= x <= ub.

    Projected quasi-Newton: a variable on a bound whose gradient points out
    of the box is held there; the free ones take a BFGS step (dense inverse
    Hessian over the free variables), searched by ``_wolfe_step`` up to
    where the first free variable meets its bound. Whenever the free set
    changes, the inverse Hessian restarts from the identity times the
    latest curvature scale s'y / y'y. If the step would push a free
    variable on a bound out of the box, a scaled steepest-descent step
    replaces it. Stops by L-BFGS-B's default rules: projected-gradient
    inf-norm <= 1e-5, relative reduction of f <= 1e7 * eps, or no decrease
    along steepest descent. Returns (x, f); a non-finite f at the start
    returns at once.
    """
    x = np.clip(np.asarray(x0, dtype=float), lb, ub)
    f, g = fun(x)
    evals = 1
    free = H = scale = None         # scale: s'y / y'y of the last update
    while np.isfinite(f) and evals < _MAX_EVALS:
        if np.max(np.abs(np.clip(x - g, lb, ub) - x)) <= _PGTOL:
            break
        now_free = ~(((x <= lb) & (g > 0)) | ((x >= ub) & (g < 0)))
        if free is None or np.any(now_free != free):
            free = now_free
            H = np.eye(np.count_nonzero(free)) * (scale or 1.0)
        d = np.zeros_like(x)
        d[free] = -H @ g[free]
        if np.any((x <= lb) & (d < 0)) or np.any((x >= ub) & (d > 0)) or g @ d >= 0.0:
            H = np.eye(np.count_nonzero(free)) * (scale or 1.0)
            d[free] = -H @ g[free]
        slope0 = g @ d
        if slope0 >= 0.0:
            break
        with np.errstate(divide="ignore", invalid="ignore"):
            room = np.where(d > 0, (ub - x) / d, np.where(d < 0, (lb - x) / d, np.inf))
        hit = int(np.argmin(room))
        a_max = room[hit]
        edge = ub[hit] if d[hit] > 0 else lb[hit]

        def phi(a):
            nonlocal evals
            xa = np.clip(x + a * d, lb, ub)
            if a >= a_max:
                xa[hit] = edge      # land exactly on the bound
            fa, ga = fun(xa)
            evals += 1
            return fa, ga @ d, (xa, fa, ga)

        # without curvature yet, a first trial of unit length, as L-BFGS-B
        a_init = 1.0 if scale else 1.0 / np.linalg.norm(d)
        step = _wolfe_step(phi, f, slope0, min(a_init, a_max), a_max)
        if step is None:
            if scale is None:
                break
            free = scale = None     # retry once from the identity
            continue
        x_new, f_new, g_new = step
        reduction = (f - f_new) / max(abs(f), abs(f_new), 1.0)
        if reduction <= _FTOL:
            return (x_new, f_new) if f_new < f else (x, f)
        s, y = (x_new - x)[free], (g_new - g)[free]
        sy = s @ y
        if sy > np.finfo(float).eps * (y @ y):
            if scale is None:
                H = np.eye(s.size) * (sy / (y @ y))
            scale = sy / (y @ y)
            V = np.eye(s.size) - np.outer(s, y) / sy
            H = V @ H @ V.T + np.outer(s, s) / sy
        x, f, g = x_new, f_new, g_new
    return x, f


def fit(inputs: np.ndarray, raw_targets: np.ndarray, channel: str,
        seed: int) -> GpModel:
    """Fit a GP to unit-cube inputs and raw-unit targets.

    Standardizes targets per channel rule, then maximizes the log marginal
    likelihood by multi-start ``_minimize_box`` on log-parameters.
    Deterministic given the seed; restart ties are broken by lowest restart
    index.
    """
    X = np.atleast_2d(np.asarray(inputs, dtype=float))
    y_raw = np.asarray(raw_targets, dtype=float)
    n, d = X.shape
    if n < 2:
        raise DegenerateDataError("need at least 2 training points")
    if y_raw.shape != (n,):
        raise ValueError("targets must match input count")
    # one dimension at a time: no (n, n, d) difference tensor
    dist2, delta = np.zeros((n, n)), np.empty((n, n))
    for col in X.T:
        np.subtract.outer(col, col, out=delta)
        delta *= delta
        dist2 += delta
    del delta
    np.fill_diagonal(dist2, np.inf)
    i, j = np.unravel_index(np.argmin(dist2), dist2.shape)
    if np.sqrt(dist2[i, j]) < 1e-10:
        raise DegenerateDataError(f"duplicate training inputs at rows {i} and {j}")
    del dist2

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
        p, f = _minimize_box(objective, p0, lb, ub)
        lml = -f
        if np.isfinite(lml) and lml > best_lml:
            best_lml, best_p = lml, p
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
    L_inv, alpha, _ = _factor(K, y, hyper.noise_std)
    return GpModel(hyper=hyper, standardize=spec, train_inputs=X,
                   train_targets=y, chol_inv=L_inv, alpha=alpha, channel=channel)


def _cross_solve(model: GpModel, Xq: np.ndarray):
    """Query points as a 2-D array, the posterior mean there (standardized
    units) and V = L^-1 k_x, with L the lower factor of the train covariance."""
    Xq = np.atleast_2d(np.asarray(Xq, dtype=float))
    Kx = matern52_cross(Xq, model.train_inputs,
                        model.hyper.lengthscales, model.hyper.signal_variance)
    return Xq, Kx @ model.alpha, model.chol_inv @ Kx.T


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
