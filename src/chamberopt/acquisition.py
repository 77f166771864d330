"""Acquisition functions: EI, probability of feasibility, their product
(constrained EI) and Monte Carlo batch constrained EI.

Every form works in the raw output units ``gp`` models answer in, so the
constraint threshold needs no transformation; the channel GPs are independent.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .gp import GpModel, PosteriorGaussian, joint_posterior_samples
from .kernels import mc_batch_feasibility, mc_batch_improvement
from .space import count, real


@dataclass(frozen=True)
class AcquisitionConfig:
    constraint_threshold: float = 25.0
    mc_samples: int = 1024
    batch_size: int = 5

    def __post_init__(self):
        real(self.constraint_threshold, "constraint_threshold")
        count(self.mc_samples, "mc_samples", 1)
        count(self.batch_size, "batch_size", 1)


def _norm_pdf(z: float) -> float:
    # z * z, not z**2: the power of a scalar rounds differently from the
    # array square, and this form matches scipy.stats.norm.pdf bit for bit
    return np.exp(-z * z / 2.0) / np.sqrt(2 * np.pi)


# The closed forms import scipy.special where they are called: no campaign,
# optimizer or command-line path calls them, and a scipy subpackage import
# costs each command-line process ~0.3 s.

def expected_improvement(g: PosteriorGaussian, best: float) -> float:
    """Closed-form EI for maximization; zero-std degenerates to max(0, mu-best)."""
    from scipy.special import ndtr
    if g.std == 0.0:
        return max(0.0, g.mean - best)
    z = (g.mean - best) / g.std
    return float((g.mean - best) * ndtr(z) + g.std * _norm_pdf(z))


def probability_feasible(g: PosteriorGaussian, threshold: float) -> float:
    """P(constraint <= threshold) under the raw-unit constraint posterior."""
    from scipy.special import ndtr
    if g.std == 0.0:
        return 1.0 if g.mean <= threshold else 0.0
    return float(ndtr((threshold - g.mean) / g.std))


def constrained_ei(gk: PosteriorGaussian, gv: PosteriorGaussian,
                   best: float, threshold: float) -> float:
    return probability_feasible(gv, threshold) * expected_improvement(gk, best)


def qcei_mc(model_k: GpModel, model_v: GpModel, XS: np.ndarray, best: float,
            threshold: float, base_k: np.ndarray,
            base_v: np.ndarray) -> float | np.ndarray:
    """MC estimate of E[max_i 1(v_i <= threshold) * max(0, k_i - best)].

    Joint posterior draws per channel (channels independent), raw units.
    ``base_k`` and ``base_v`` are (n_samples, q) standard-normal base draws
    for the objective and the constraint; the estimate is a deterministic
    function of the batch for fixed base draws. A (q, d) batch XS gives a
    float; an (R, q, d) stack gives R values, each batch scored with the
    same base draws (see ``gp.joint_posterior_samples``).
    """
    # the constraint draws shrink to their feasibility mask before the
    # objective draws are made, so one channel's draws are held at a time
    feasible = joint_posterior_samples(model_v, XS, base_v) <= threshold
    ks = joint_posterior_samples(model_k, XS, base_k)
    return mc_batch_improvement(ks, feasible, best)


def q_feasibility_mc(model_v: GpModel, XS: np.ndarray, threshold: float,
                     base_v: np.ndarray) -> float | np.ndarray:
    """MC estimate of P(any batch point feasible); fallback acquisition when
    no feasible incumbent exists yet. ``base_v`` is an (n_samples, q) matrix
    of standard-normal base draws for the constraint. Takes a (q, d) batch
    or an (R, q, d) stack, as ``qcei_mc`` does."""
    return mc_batch_feasibility(joint_posterior_samples(model_v, XS, base_v) <= threshold)
