"""Acquisition functions: EI, probability of feasibility, their product
(constrained EI) and Monte Carlo batch constrained EI.

All closed forms operate on raw-unit posteriors so the constraint threshold
needs no transformation; the objective and constraint GPs are independent.
"""

from __future__ import annotations

import numbers
import sys
from dataclasses import dataclass

import numpy as np

from .errors import InvalidStateError
from .gp import GpModel, PosteriorGaussian, joint_posterior_samples
from .kernels import mc_batch_feasibility, mc_batch_improvement


@dataclass(frozen=True)
class AcquisitionConfig:
    constraint_threshold: float = 25.0
    mc_samples: int = 1024
    batch_size: int = 5

    def __post_init__(self):
        for name in ("mc_samples", "batch_size"):
            value = getattr(self, name)
            # JSON true/false load as bool, which Python counts as an int
            if not isinstance(value, (int, np.integer)) or isinstance(value, bool):
                raise ValueError(f"{name} must be an integer, got {value!r}")
        if self.mc_samples < 1 or self.batch_size < 1:
            raise ValueError("mc_samples and batch_size must be >= 1")
        value = self.constraint_threshold
        # NaN fails the comparison, and an int beyond the float range fails it too
        if (isinstance(value, bool) or not isinstance(value, numbers.Real)
                or not abs(value) <= sys.float_info.max):
            raise ValueError(f"constraint_threshold must be a finite number, got {value!r}")


def _norm_pdf(z: float) -> float:
    # z * z, not z**2: the power of a scalar rounds differently from the
    # array square, and this form matches scipy.stats.norm.pdf bit for bit
    return np.exp(-z * z / 2.0) / np.sqrt(2 * np.pi)


@dataclass(frozen=True)
class Incumbent:
    index: int
    k_best: float


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


def incumbent(dataset, threshold: float) -> Incumbent | None:
    """Feasible observation with maximal objective, or None if none feasible."""
    if len(dataset) == 0:
        raise InvalidStateError("cannot pick an incumbent from an empty dataset")
    best_i, best_k = -1, -np.inf
    for i, obs in enumerate(dataset):
        if obs.v <= threshold and obs.k > best_k:
            best_i, best_k = i, obs.k
    if best_i < 0:
        return None
    return Incumbent(index=best_i, k_best=best_k)


def _raw_joint_samples(model: GpModel, XS, base):
    s = joint_posterior_samples(model, XS, base)
    return model.standardize.scale * s + model.standardize.center


def qcei_mc(model_k: GpModel, model_v: GpModel, XS: np.ndarray, best: float,
            threshold: float, base_k: np.ndarray, base_v: np.ndarray) -> float:
    """MC estimate of E[max_i 1(v_i <= threshold) * max(0, k_i - best)].

    Joint posterior draws per channel (channels independent), raw units.
    ``base_k`` and ``base_v`` are (n_samples, |XS|) standard-normal base
    draws for the objective and the constraint; the estimate is a
    deterministic function of XS for fixed base draws.
    """
    ks = _raw_joint_samples(model_k, XS, base_k)
    vs = _raw_joint_samples(model_v, XS, base_v)
    return float(mc_batch_improvement(ks, vs, best, threshold))


def q_feasibility_mc(model_v: GpModel, XS: np.ndarray, threshold: float,
                     base_v: np.ndarray) -> float:
    """MC estimate of P(any batch point feasible); fallback acquisition when
    no feasible incumbent exists yet. ``base_v`` is an (n_samples, |XS|)
    matrix of standard-normal base draws for the constraint."""
    vs = _raw_joint_samples(model_v, XS, base_v)
    return float(mc_batch_feasibility(vs, threshold))
