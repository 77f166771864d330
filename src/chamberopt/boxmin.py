"""Box-constrained quasi-Newton minimization in numpy.

``minimize_box`` takes the place of scipy's L-BFGS-B, with the same
stopping rules, for the GP hyperparameter fit (``gp.fit``). It lives in a
module of its own so that an optimizer other than the GP fit can share it.
"""

from __future__ import annotations

import numpy as np

# stopping rules and budget of scipy's L-BFGS-B defaults (pgtol, factr,
# maxfun), and the sufficient-decrease and curvature constants of its
# line search
_PGTOL = 1e-5
_FTOL = 1e7 * np.finfo(float).eps
_MAX_EVALS = 15000
_WOLFE_C1 = 1e-3
_WOLFE_C2 = 0.9
_MAX_TRIALS = 20            # function values per line search


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


def minimize_box(fun, x0: np.ndarray, lb: np.ndarray,
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
