"""Inner-loop maximization of the acquisition surface over the unit cube.

Derivative-free: raw scoring of a scrambled Sobol design (from ``space``,
next to the Latin hypercube) followed by pattern-search refinement of the
best starts, jointly over all q*d batch coordinates. Fixed Monte Carlo base
draws make the surface deterministic within one run.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .acquisition import AcquisitionConfig, q_feasibility_mc, qcei_mc
from .errors import NumericError
# campaign_bench/tracer.py wraps optim.posterior, so the name stays importable
from .gp import GpModel, posterior  # noqa: F401
from .space import scrambled_sobol

_STEP_INIT = 0.25
_STEP_MIN = 1e-4
# a pattern-search sweep that gains less than this ends the restart
_GAIN_TOL = 1e-6


@dataclass(frozen=True)
class OptimizerBudget:
    raw_samples: int = 256
    restarts: int = 10
    max_iters_per_restart: int = 200

    def __post_init__(self):
        for name in ("raw_samples", "restarts", "max_iters_per_restart"):
            value = getattr(self, name)
            # JSON true/false load as bool, which Python counts as an int
            if not isinstance(value, (int, np.integer)) or isinstance(value, bool):
                raise ValueError(f"{name} must be an integer, got {value!r}")
        if min(self.raw_samples, self.restarts, self.max_iters_per_restart) < 1:
            raise ValueError("budget counts must be >= 1")


def _pattern_search(objective, x0, f0, max_iters):
    """Coordinate pattern search with shrinking step, projected to [0, 1]."""
    x, fx = x0.copy(), f0
    step = _STEP_INIT
    for _ in range(max_iters):
        improved = False
        gain = 0.0
        for i in range(x.size):
            for sign in (1.0, -1.0):
                cand = x.copy()
                cand[i] = min(1.0, max(0.0, cand[i] + sign * step))
                if cand[i] == x[i]:
                    continue
                fc = objective(cand)
                if fc > fx:
                    gain += fc - fx
                    x, fx = cand, fc
                    improved = True
                    break
        if not improved:
            step *= 0.5
            if step < _STEP_MIN:
                break
        elif gain < _GAIN_TOL:
            break
    return x, fx


def propose_batch(model_k: GpModel, model_v: GpModel, config: AcquisitionConfig,
                  budget: OptimizerBudget, seed: int,
                  incumbent_value: float | None = None) -> np.ndarray:
    """Maximize the batch acquisition; returns a (q, d) unit-cube array.

    With a feasible incumbent, maximizes the MC batch constrained EI;
    without one, maximizes the probability that any batch point is feasible.
    """
    q, d = config.batch_size, model_k.train_inputs.shape[1]
    rng = np.random.default_rng(seed)
    base_k = rng.standard_normal((config.mc_samples, q))
    base_v = rng.standard_normal((config.mc_samples, q))

    if incumbent_value is None:
        def acquisition(XS):
            return q_feasibility_mc(model_v, XS, config.constraint_threshold, base_v)
    else:
        def acquisition(XS):
            return qcei_mc(model_k, model_v, XS, incumbent_value,
                           config.constraint_threshold, base_k, base_v)

    def objective(flat):
        # a numeric failure scores this one candidate batch, not the proposal
        try:
            return acquisition(flat.reshape(q, d))
        except NumericError:
            return -np.inf

    raw = scrambled_sobol(budget.raw_samples, q * d, rng)
    scores = np.array([objective(x) for x in raw])
    order = np.argsort(-scores, kind="stable")[:budget.restarts]

    best_x, best_f = raw[order[0]], scores[order[0]]
    for idx in order:
        x, f = _pattern_search(objective, raw[idx], scores[idx],
                               budget.max_iters_per_restart)
        if f > best_f:
            best_x, best_f = x, f
    return best_x.reshape(q, d)
