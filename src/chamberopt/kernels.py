"""Hot numeric kernels in numpy: the Matern-5/2 covariance, the contraction
of its log-lengthscale derivatives with a weight matrix, and the Monte Carlo
batch reductions of sampled improvement and feasibility.

``matern52_cross`` treats leading axes as a stack of batches. The n x m
kernels work in place on as few full-size arrays as they can: each GP fit
at n = 150-180 calls them hundreds of times, and their temporaries are
what the process's peak memory grows by.
"""

from __future__ import annotations

import numpy as np

# read by campaign_bench/run.py's environment() record
USING_NUMBA = False

_SQRT5 = np.sqrt(5.0)


def _scaled_distances(A, B, lengthscales):
    """Lengthscale-scaled inputs SA, SB, their squared distances r2, the
    distances r (r2 clamped at 0) and exp(-sqrt5 r)."""
    SA = A / lengthscales
    SB = B / lengthscales
    r2 = np.sum(SA * SA, axis=-1)[..., None] + np.sum(SB * SB, axis=-1)[..., None, :]
    r2 -= 2.0 * SA @ SB.swapaxes(-1, -2)
    r = np.maximum(r2, 0.0)
    np.sqrt(r, out=r)
    e = np.multiply(-_SQRT5, r)
    np.exp(e, out=e)
    return SA, SB, r2, r, e


def matern52_cross(A, B, lengthscales, signal_variance):
    """s2 (1 + sqrt5 r + 5/3 r^2) exp(-sqrt5 r) for every row pair of A, B:
    (m, d) and (k, d) give (m, k); leading stack axes broadcast."""
    _, _, r2, r, e = _scaled_distances(A, B, lengthscales)
    K = np.multiply(_SQRT5, r, out=r)
    K += 1.0
    r2 *= 5.0 / 3.0
    K += r2
    K *= signal_variance
    K *= e
    return K


def matern52_cross_grad(A, B, lengthscales, signal_variance, weights):
    """Contraction of the log-lengthscale derivatives of the kernel matrix
    with an n x m weight matrix W: g_i = sum_jk W_jk dK_jk / d log l_i.

    d k / d log l_i = s2 * (5/3) * (1 + sqrt5 r) exp(-sqrt5 r) * delta_i^2 / l_i^2,
    with delta_i / l_i the scaled coordinate difference; smooth through r = 0.
    The GP's likelihood gradient needs only this contraction, with
    W = alpha alpha^T - Kn^-1 (GPML eq. 5.9), never the derivative matrices
    themselves. The factor common to all dimensions is weighted by W once,
    and each dimension's squared differences fill one reused n x m scratch
    array, so the (d, n, m) derivative tensor is never built.
    """
    SA, SB, r2, r, e = _scaled_distances(A, B, lengthscales)
    del r2
    core = np.multiply(_SQRT5, r, out=r)
    core += 1.0
    core *= e
    del e
    core *= weights
    scratch = np.empty_like(core)
    g = np.empty(A.shape[1])
    for i in range(A.shape[1]):
        np.subtract.outer(SA[:, i], SB[:, i], out=scratch)
        scratch *= scratch
        g[i] = np.vdot(core, scratch)
    return signal_variance * (5.0 / 3.0) * g


def mc_batch_improvement(k_samples, feasible, best):
    """Mean over samples of max_q [ feasible * max(0, k - best) ].

    k_samples: (n_samples, q) joint posterior draws of the objective in raw
    units, which give one ``np.float64`` (a float), or (R, n_samples, q) for
    a stack of R batches, which give R values from the same reduction;
    ``feasible``: the boolean draws 1(v <= threshold) of the same shape.
    Rounding k - best is monotone in k, so the sample's value is exactly
    max(0, (largest feasible k) - best): the reduction runs one point at a
    time on (R, n_samples) arrays, with no full-size temporary.
    """
    top = np.full(k_samples.shape[:-1], -np.inf)
    for j in range(k_samples.shape[-1]):
        np.maximum(top, k_samples[..., j], out=top, where=feasible[..., j])
    top -= best
    np.maximum(top, 0.0, out=top)
    return np.mean(top, axis=-1)


def mc_batch_feasibility(feasible):
    """Mean over samples of 1(any of the q points is feasible), from boolean
    draws 1(v <= threshold): one ``np.float64`` for an (n_samples, q) batch,
    one value per batch for an (R, n_samples, q) stack."""
    any_feasible = feasible[..., 0].copy()
    for j in range(1, feasible.shape[-1]):
        any_feasible |= feasible[..., j]
    return np.mean(any_feasible, axis=-1)
