"""Independent brute-force references used by the tests.

Deliberately naive: explicit loops, dense matrix inversion, no reuse of the
package's kernel or solver code paths.
"""

import math

import numpy as np


def matern52_scalar(a, b, lengthscales, signal_variance):
    r2 = 0.0
    for ai, bi, li in zip(a, b, lengthscales):
        r2 += ((ai - bi) / li) ** 2
    r = math.sqrt(r2)
    return signal_variance * (1 + math.sqrt(5) * r + 5 * r2 / 3) * math.exp(-math.sqrt(5) * r)


def kernel_matrix(A, B, lengthscales, signal_variance):
    K = np.empty((len(A), len(B)))
    for i, a in enumerate(A):
        for j, b in enumerate(B):
            K[i, j] = matern52_scalar(a, b, lengthscales, signal_variance)
    return K


def matern52_dlogl_scalar(a, b, lengthscales, signal_variance):
    """d k(a, b) / d log l_i for every i, as a list."""
    r2 = 0.0
    for ai, bi, li in zip(a, b, lengthscales):
        r2 += ((ai - bi) / li) ** 2
    r = math.sqrt(r2)
    core = signal_variance * 5 / 3 * (1 + math.sqrt(5) * r) * math.exp(-math.sqrt(5) * r)
    return [core * ((ai - bi) / li) ** 2 for ai, bi, li in zip(a, b, lengthscales)]


def matern52_grad_loop(A, B, lengthscales, signal_variance, W):
    """sum_jk W_jk dK_jk / d log l_i, one matrix entry at a time."""
    g = [0.0] * len(lengthscales)
    for j, a in enumerate(A):
        for k, b in enumerate(B):
            for i, dk in enumerate(matern52_dlogl_scalar(a, b, lengthscales,
                                                          signal_variance)):
                g[i] += W[j][k] * dk
    return np.array(g)


def dense_lml_grad(X, y, lengthscales, signal_variance, noise_std):
    """LML gradient w.r.t. (log l_1..log l_d, log s2) from GPML eq. 5.9 as
    written: a loop-built derivative tensor dK, the dense inverse of
    Kn = K + noise^2 I and 1/2 tr((alpha alpha^T - Kn^-1) dK_i)."""
    n, d = len(X), len(lengthscales)
    K = kernel_matrix(X, X, lengthscales, signal_variance)
    dK = np.empty((d + 1, n, n))
    for j in range(n):
        for k in range(n):
            dK[:d, j, k] = matern52_dlogl_scalar(X[j], X[k], lengthscales,
                                                 signal_variance)
    dK[d] = K                                   # dK / d log s2
    Kn_inv = np.linalg.inv(K + noise_std**2 * np.eye(n))
    alpha = Kn_inv @ y
    M = np.outer(alpha, alpha) - Kn_inv
    return np.array([0.5 * np.trace(M @ dK[i]) for i in range(d + 1)])


def dense_posterior(X, y, lengthscales, signal_variance, noise_std, Xq):
    """Posterior mean/std by direct dense LU solves (standardized units)."""
    Kn = kernel_matrix(X, X, lengthscales, signal_variance) \
        + noise_std**2 * np.eye(len(X))
    Kx = kernel_matrix(Xq, X, lengthscales, signal_variance)
    mean = Kx @ np.linalg.solve(Kn, y)
    S = np.linalg.solve(Kn, Kx.T)
    var = np.array([
        signal_variance - Kx[i] @ S[:, i]
        for i in range(len(Xq))
    ])
    return mean, np.sqrt(np.maximum(var, 0.0))


def dense_joint_covariance(X, y, lengthscales, signal_variance, noise_std, Xq):
    K = kernel_matrix(X, X, lengthscales, signal_variance)
    Kn_inv = np.linalg.inv(K + noise_std**2 * np.eye(len(X)))
    Kx = kernel_matrix(Xq, X, lengthscales, signal_variance)
    Kss = kernel_matrix(Xq, Xq, lengthscales, signal_variance)
    mean = Kx @ Kn_inv @ y
    return mean, Kss - Kx @ Kn_inv @ Kx.T


def dense_lml(X, y, lengthscales, signal_variance, noise_std):
    """Log marginal likelihood via slogdet and dense inversion."""
    Kn = kernel_matrix(X, X, lengthscales, signal_variance) \
        + noise_std**2 * np.eye(len(X))
    sign, logdet = np.linalg.slogdet(Kn)
    assert sign > 0
    return float(-0.5 * y @ np.linalg.inv(Kn) @ y - 0.5 * logdet
                 - 0.5 * len(X) * math.log(2 * math.pi))


def normal_cdf(z):
    return 0.5 * math.erfc(-z / math.sqrt(2))


def normal_pdf(z):
    return math.exp(-0.5 * z * z) / math.sqrt(2 * math.pi)


def mc_batch_improvement_loop(k_samples, v_samples, best, threshold):
    """Sample mean of the best feasible improvement, one scalar at a time."""
    n, q = k_samples.shape
    acc = 0.0
    for s in range(n):
        m = 0.0
        for j in range(q):
            if v_samples[s, j] <= threshold:
                imp = k_samples[s, j] - best
                if imp > m:
                    m = imp
        acc += m
    return acc / n


def mc_batch_feasibility_loop(v_samples, threshold):
    """Share of samples with at least one feasible batch point."""
    n, q = v_samples.shape
    acc = 0.0
    for s in range(n):
        for j in range(q):
            if v_samples[s, j] <= threshold:
                acc += 1.0
                break
    return acc / n
