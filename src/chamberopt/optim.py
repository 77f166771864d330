"""Inner-loop maximization of the acquisition surface over the unit cube.

Derivative-free: a raw screen of a Latin hypercube design over all q*d batch
coordinates (``space.unit_latin_hypercube``, the DOE's sampler) followed by
pattern-search refinement of the best starts, all in lockstep. Fixed Monte
Carlo base draws make the surface deterministic within one run.

Each sweep polls completely, scoring every coordinate move of every live
restart before any restart moves: a first-improvement poll picks its next
move from the last score, so it scores lone batches, while a complete poll
is still a generalized pattern search (Audet & Dennis 2003) and makes a
sweep of all restarts one stack.

``_screen`` scores the raw screen and every sweep in stacked chunks of
``_SCREEN_CHUNK``: one acquisition call per chunk shares the kernel call,
the Cholesky factorization and the sampling product among the chunk's
batches, which makes a candidate at least twice as cheap as scoring it
alone. ``gp._chol_with_jitter`` factors a chunk in one call and escalates
jitter only for a lone batch or a stack of one, so a chunk that fails is
rescored one batch at a time: jitter escalation and the -inf score of a
failed batch work per batch. Four batches per chunk keep the chunk's draws
(4 x mc_samples x q doubles of one channel at a time) small next to the
process's fixed memory.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .acquisition import AcquisitionConfig, q_feasibility_mc, qcei_mc
from .errors import NumericError
# campaign_bench/tracer.py wraps optim.posterior, so the name stays importable
from .gp import GpModel, posterior  # noqa: F401
from .space import count, unit_latin_hypercube

_STEP_INIT = 0.25
_STEP_MIN = 1e-4
# a pattern-search sweep that gains less than this ends the restart, and a
# restart ends after at most _MAX_SWEEPS sweeps
_GAIN_TOL = 1e-6
_MAX_SWEEPS = 200
# candidate batches per stacked acquisition call
_SCREEN_CHUNK = 4


@dataclass(frozen=True)
class OptimizerBudget:
    raw_samples: int = 1024
    restarts: int = 10

    def __post_init__(self):
        count(self.raw_samples, "raw_samples", 1)
        count(self.restarts, "restarts", 1)


def _pattern_search(acquisition, x0, f0):
    """Coordinate pattern search, projected to [0, 1], of an (R, q, d) stack
    of starts scoring ``f0``: each restart takes its best move if it gains,
    else halves its step."""
    x, fx = x0.copy(), f0.copy()
    n = x[0].size
    moves = np.vstack([np.eye(n), -np.eye(n)]).reshape(2 * n, *x.shape[1:])
    step = np.full(len(x), _STEP_INIT)
    live = np.ones(len(x), dtype=bool)
    for _ in range(_MAX_SWEEPS):
        rows = np.flatnonzero(live)
        if rows.size == 0:
            break
        cand = np.clip(x[rows, None] + step[rows, None, None, None] * moves, 0.0, 1.0)
        fc = _screen(acquisition, cand.reshape(-1, *x.shape[1:])).reshape(rows.size, -1)
        best = np.argmax(fc, axis=1)
        f_best = fc[np.arange(rows.size), best]
        up = f_best > fx[rows]
        live[rows[up]] = f_best[up] - fx[rows[up]] >= _GAIN_TOL
        x[rows[up]], fx[rows[up]] = cand[up, best[up]], f_best[up]
        step[rows[~up]] *= 0.5
        live[rows[~up]] = step[rows[~up]] >= _STEP_MIN
    return x, fx


def _score(acquisition, XS):
    """``acquisition`` of a (q, d) batch or an (R, q, d) stack. A numeric
    failure scores the batch it hit -inf, not the proposal: a stack that
    fails is rescored one batch at a time, each with its own jitter."""
    try:
        return acquisition(XS)
    except NumericError:
        if XS.ndim == 2:
            return -np.inf
        return np.array([_score(acquisition, X) for X in XS])


def _screen(acquisition, stack):
    """Scores of an (S, q, d) stack of candidate batches, in stacked chunks."""
    return np.concatenate([_score(acquisition, stack[i:i + _SCREEN_CHUNK])
                           for i in range(0, len(stack), _SCREEN_CHUNK)])


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

    raw = unit_latin_hypercube(budget.raw_samples, q * d, rng).reshape(-1, q, d)
    scores = _screen(acquisition, raw)
    order = np.argsort(-scores, kind="stable")[:budget.restarts]
    x, fx = _pattern_search(acquisition, raw[order], scores[order])
    return x[np.argmax(fx)]
