"""Hot numeric kernels in numpy: the Matern-5/2 covariance with its
log-lengthscale derivatives, and the Monte Carlo batch reductions of sampled
improvement and feasibility.
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
    r2 = (
        np.sum(SA * SA, axis=1)[:, None]
        + np.sum(SB * SB, axis=1)[None, :]
        - 2.0 * SA @ SB.T
    )
    r = np.sqrt(np.maximum(r2, 0.0))
    return SA, SB, r2, r, np.exp(-_SQRT5 * r)


def matern52_cross(A, B, lengthscales, signal_variance):
    _, _, r2, r, e = _scaled_distances(A, B, lengthscales)
    return signal_variance * (1.0 + _SQRT5 * r + (5.0 / 3.0) * r2) * e


def matern52_cross_grad(A, B, lengthscales, signal_variance):
    """Kernel matrix plus derivatives w.r.t. log-lengthscales.

    Returns (K, dK) with dK of shape (d, n, m); dK[i] = dK/d log(l_i).
    d k / d log l_i = s2 * (5/3) * (1 + sqrt5 r) exp(-sqrt5 r) * delta_i^2 / l_i^2,
    which is smooth through r = 0.
    """
    d = A.shape[1]
    SA, SB, r2, r, e = _scaled_distances(A, B, lengthscales)
    K = signal_variance * (1.0 + _SQRT5 * r + (5.0 / 3.0) * r2) * e
    core = signal_variance * (5.0 / 3.0) * (1.0 + _SQRT5 * r) * e
    dK = np.empty((d, A.shape[0], B.shape[0]))
    for i in range(d):
        di2 = (SA[:, i][:, None] - SB[None, :, i]) ** 2
        dK[i] = core * di2
    return K, dK


def mc_batch_improvement(k_samples, v_samples, best, threshold):
    """Mean over samples of max_q [ 1(v <= threshold) * max(0, k - best) ].

    k_samples, v_samples: (n_samples, q) joint posterior draws in raw units.
    """
    imp = np.maximum(k_samples - best, 0.0)
    imp[v_samples > threshold] = 0.0
    return float(np.mean(np.max(imp, axis=1)))


def mc_batch_feasibility(v_samples, threshold):
    """Mean over samples of 1(any of the q points is feasible)."""
    return float(np.mean(np.any(v_samples <= threshold, axis=1)))
