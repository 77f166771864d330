"""Box-constrained quasi-Newton minimization in numpy.

``minimize_box`` takes the place of scipy's L-BFGS-B, with the same
stopping rules, for the GP hyperparameter fit (``gp.fit``). Its step length
comes from backtracking along the projected path (Nocedal & Wright 2006,
Alg. 3.1, with the step clipped to the box). It is a module of its own
because, imported from source without a bytecode cache, compiling a larger
``gp.py`` raised the process's peak memory.
"""

from __future__ import annotations

import numpy as np

# stopping rules and budget of scipy's L-BFGS-B defaults (pgtol, factr,
# maxfun); the sufficient-decrease fraction of the backtracking, which
# halves the step at most _MAX_TRIALS times
_PGTOL = 1e-5
_FTOL = 1e7 * np.finfo(float).eps
_MAX_EVALS = 15000
_C1 = 1e-3
_MAX_TRIALS = 20


def minimize_box(fun, x0: np.ndarray, lb: np.ndarray,
                 ub: np.ndarray) -> tuple[np.ndarray, float]:
    """Minimize ``fun(x) -> (f, grad)`` over the box lb <= x <= ub.

    Projected quasi-Newton: a variable on a bound whose gradient points out
    of the box is held there; the free ones take a BFGS step d (dense
    inverse Hessian over the free variables). Whenever the free set
    changes, the inverse Hessian restarts from the identity times the
    latest curvature scale s'y / y'y. If the step would push a free
    variable on a bound out of the box, a scaled steepest-descent step
    replaces it. Trial points x_new = clip(x + a d, lb, ub) halve a from 1
    (from 1 / |d| before any curvature is known); the first that is finite
    and has f_new <= f + c1 g'(x_new - x), c1 = 1e-3, or that changes f by
    less than the stopping tolerance, is taken, and if none is, the search
    retries once from the identity. Stops by L-BFGS-B's default rules:
    projected-gradient inf-norm <= 1e-5, relative reduction of f <= 1e7 *
    eps, or no decrease along steepest descent. Returns (x, f); a
    non-finite f at the start returns at once.
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
        if g @ d >= 0.0:
            break
        # without curvature yet, a first trial of unit length, as L-BFGS-B
        a = 1.0 if scale else 1.0 / np.linalg.norm(d)
        for _ in range(_MAX_TRIALS):
            x_new = np.clip(x + a * d, lb, ub)
            f_new, g_new = fun(x_new)
            evals += 1
            if np.isfinite(f_new) and (
                    f_new <= f + _C1 * (g @ (x_new - x))
                    or abs(f - f_new) <= _FTOL * max(abs(f), abs(f_new), 1.0)):
                break
            a *= 0.5
        else:
            if scale is None:
                break
            free = scale = None     # retry once from the identity
            continue
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
