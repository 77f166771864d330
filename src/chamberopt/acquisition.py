"""Acquisition functions: EI, probability of feasibility, their product
(constrained EI) and Monte Carlo batch constrained EI.

Every form works in the raw output units ``gp`` models answer in, so the
constraint threshold needs no transformation; the channel GPs are independent.
"""

from __future__ import annotations

import math
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


# Cephes (Moshier) ndtr, the code scipy.special.ndtr evaluates, ported so
# that it returns the same double bit for bit. The erf table T/U serves
# |x| < 1, the erfc tables P/Q serve 1 <= x < 8 and R/S serve x >= 8. Each
# denominator table starts with the leading 1 that Cephes' p1evl leaves
# implicit (1.0 * x is exact), and erfc uses math.exp, not np.exp, whose
# SIMD path can round differently.
_ERF_T = (9.60497373987051638749e0, 9.00260197203842689217e1,
          2.23200534594684319226e3, 7.00332514112805075473e3,
          5.55923013010394962768e4)
_ERF_U = (1.0, 3.35617141647503099647e1, 5.21357949780152679795e2,
          4.59432382970980127987e3, 2.26290000613890934246e4,
          4.92673942608635921086e4)
_ERFC_P = (2.46196981473530512524e-10, 5.64189564831068821977e-1,
           7.46321056442269912687e0, 4.86371970985681366614e1,
           1.96520832956077098242e2, 5.26445194995477358631e2,
           9.34528527171957607540e2, 1.02755188689515710272e3,
           5.57535335369399327526e2)
_ERFC_Q = (1.0, 1.32281951154744992508e1, 8.67072140885989742329e1,
           3.54937778887819891062e2, 9.75708501743205489753e2,
           1.82390916687909736289e3, 2.24633760818710981792e3,
           1.65666309194161350182e3, 5.57535340817727675546e2)
_ERFC_R = (5.64189583547755073984e-1, 1.27536670759978104416e0,
           5.01905042251180477414e0, 6.16021097993053585195e0,
           7.40974269950448939160e0, 2.97886665372100240670e0)
_ERFC_S = (1.0, 2.26052863220117276590e0, 9.39603524938001434673e0,
           1.20489539808096656605e1, 1.70814450747565897222e1,
           9.60896809063285878198e0, 3.36907645100081516050e0)
# log(2**1024): erfc(x) is taken as 0 once x*x exceeds it
_MAXLOG = 7.09782712893383996843e2
_SQRT1_2 = 7.07106781186547524401e-1


def _polevl(x: float, coef: tuple) -> float:
    """Horner evaluation of the polynomial with coefficients ``coef``,
    highest degree first."""
    y = coef[0]
    for c in coef[1:]:
        y = y * x + c
    return y


def _erf(x: float) -> float:
    """erf(x) for |x| < 1."""
    z = x * x
    return x * _polevl(z, _ERF_T) / _polevl(z, _ERF_U)


def _erfc(x: float) -> float:
    """erfc(x) for x >= 1/sqrt(2), the only arguments ``_ndtr`` passes, so
    Cephes' branches for a negative argument are left out."""
    if x < 1.0:
        return 1.0 - _erf(x)
    if x * x > _MAXLOG:
        return 0.0
    p, q = (_ERFC_P, _ERFC_Q) if x < 8.0 else (_ERFC_R, _ERFC_S)
    return math.exp(-x * x) * _polevl(x, p) / _polevl(x, q)


def _ndtr(a: float) -> float:
    """Standard normal CDF at the scalar ``a``, equal to
    ``scipy.special.ndtr(a)`` bit for bit; nan gives nan."""
    x = float(a) * _SQRT1_2
    z = abs(x)
    if z < _SQRT1_2:
        return 0.5 + 0.5 * _erf(x)
    y = 0.5 * _erfc(z)
    return 1.0 - y if x > 0 else y


def expected_improvement(g: PosteriorGaussian, best: float) -> float:
    """Closed-form EI for maximization; zero-std degenerates to max(0, mu-best)."""
    if g.std == 0.0:
        return max(0.0, g.mean - best)
    z = (g.mean - best) / g.std
    return float((g.mean - best) * _ndtr(z) + g.std * _norm_pdf(z))


def probability_feasible(g: PosteriorGaussian, threshold: float) -> float:
    """P(constraint <= threshold) under the raw-unit constraint posterior."""
    if g.std == 0.0:
        return 1.0 if g.mean <= threshold else 0.0
    return _ndtr((threshold - g.mean) / g.std)


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
