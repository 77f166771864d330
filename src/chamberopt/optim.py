"""Inner-loop maximization of the acquisition surface over the unit cube.

Derivative-free: a raw screen over all q*d batch coordinates followed by
pattern-search refinement of the best starts, all in lockstep. Fixed Monte
Carlo base draws make the surface deterministic within one run.

The raw screen is a Latin hypercube design (``space.unit_latin_hypercube``,
the DOE's sampler). With a feasible incumbent, its last ``_SEED_SHARE`` of
batches are replaced by the incumbent's unit point plus N(0, _SEED_SIGMA^2)
per coordinate, clipped to the box, as BoTorch seeds its starts around the
best point (Balandat et al. 2020). Constrained EI is positive only in a thin
sliver next to the incumbent at the constraint boundary, which a space-filling
screen in q*d dimensions misses, and a pattern search started on a flat score
never moves. The perturbations are drawn from the proposal's own generator
after the Latin hypercube, so a proposal stays a function of its seed, and
without an incumbent the screen is the Latin hypercube alone.

Each sweep polls the minimal positive basis
{e_1, ..., e_n, -(1, ..., 1)/sqrt(n)} of the n = q*d coordinates completely,
scoring all n + 1 moves of every live restart before any restart moves: a
positive spanning set keeps a generalized pattern search convergent (Kolda,
Lewis & Torczon 2003; Audet & Dennis 2003) at about half the moves of the 2n
coordinate poll, and a complete poll makes a sweep of all restarts one stack.
A move that the box clips back onto its restart's point is not scored.

``_screen`` scores the raw screen and every sweep in stacked chunks of
``_SCREEN_CHUNK``: one acquisition call per chunk shares the kernel call,
the Cholesky factorization and the sampling product among the chunk's
batches, which makes a candidate at least twice as cheap as scoring it
alone. A batch whose posterior covariance is singular, such as one holding
a point twice, is scored in its chunk: ``gp._chol_with_jitter`` gives that
batch alone its own jitter. A chunk that still fails numerically scores
-inf, so a proposal never aborts on one. Four batches per chunk keep the
chunk's draws (4 x mc_samples x q doubles of one channel at a time) small
next to the process's fixed memory.
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
# with a feasible incumbent, the share of the raw screen drawn around it and
# the standard deviation of those draws per unit coordinate
_SEED_SHARE = 0.5
_SEED_SIGMA = 0.05


@dataclass(frozen=True)
class OptimizerBudget:
    raw_samples: int = 1024
    restarts: int = 10

    def __post_init__(self):
        count(self.raw_samples, "raw_samples", 1)
        count(self.restarts, "restarts", 1)


def _pattern_search(acquisition, x0, f0):
    """Pattern search, projected to [0, 1], of an (R, q, d) stack of starts
    scoring ``f0``: each sweep polls the n + 1 moves of the minimal positive
    basis of the n = q*d coordinates (Kolda, Lewis & Torczon 2003), and each
    restart takes its best move if it gains, else halves its step. A move
    that clipping leaves on its restart's point could only score that point
    again, so it is not sent to the acquisition and scores -inf."""
    x, fx = x0.copy(), f0.copy()
    n = x[0].size
    moves = np.vstack([np.eye(n), np.full((1, n), -1.0 / np.sqrt(n))]
                      ).reshape(n + 1, *x.shape[1:])
    step = np.full(len(x), _STEP_INIT)
    live = np.ones(len(x), dtype=bool)
    for _ in range(_MAX_SWEEPS):
        rows = np.flatnonzero(live)
        if rows.size == 0:
            break
        cand = np.clip(x[rows, None] + step[rows, None, None, None] * moves, 0.0, 1.0)
        moved = np.any(cand != x[rows, None], axis=(-2, -1))
        fc = np.full(moved.shape, -np.inf)
        fc[moved] = _screen(acquisition, cand[moved])
        best = np.argmax(fc, axis=1)
        f_best = fc[np.arange(rows.size), best]
        up = f_best > fx[rows]
        live[rows[up]] = f_best[up] - fx[rows[up]] >= _GAIN_TOL
        x[rows[up]], fx[rows[up]] = cand[up, best[up]], f_best[up]
        step[rows[~up]] *= 0.5
        live[rows[~up]] = step[rows[~up]] >= _STEP_MIN
    return x, fx


def _screen(acquisition, stack):
    """Scores of an (S, q, d) stack of candidate batches, one acquisition
    call per chunk of ``_SCREEN_CHUNK``. A numeric failure scores the chunk
    it hit -inf, not the proposal."""
    scores = np.full(len(stack), -np.inf)
    for i in range(0, len(stack), _SCREEN_CHUNK):
        try:
            scores[i:i + _SCREEN_CHUNK] = acquisition(stack[i:i + _SCREEN_CHUNK])
        except NumericError:
            pass
    return scores


def propose_batch(model_k: GpModel, model_v: GpModel, config: AcquisitionConfig,
                  budget: OptimizerBudget, seed: int,
                  incumbent: tuple[float, np.ndarray] | None = None) -> np.ndarray:
    """Maximize the batch acquisition; returns a (q, d) unit-cube array.

    ``incumbent`` is the feasible best as (k, its (d,) unit point). With it,
    maximizes the MC batch constrained EI over k from a screen seeded around
    the point; without one, maximizes the probability that any batch point
    is feasible.
    """
    q, d = config.batch_size, model_k.train_inputs.shape[1]
    rng = np.random.default_rng(seed)
    base_k = rng.standard_normal((config.mc_samples, q))
    base_v = rng.standard_normal((config.mc_samples, q))

    raw = unit_latin_hypercube(budget.raw_samples, q * d, rng).reshape(-1, q, d)
    if incumbent is None:
        def acquisition(XS):
            return q_feasibility_mc(model_v, XS, config.constraint_threshold, base_v)
    else:
        best_k, best_u = incumbent
        seeded = int(_SEED_SHARE * budget.raw_samples)
        raw[len(raw) - seeded:] = np.clip(
            best_u + rng.normal(0.0, _SEED_SIGMA, (seeded, q, d)), 0.0, 1.0)

        def acquisition(XS):
            return qcei_mc(model_k, model_v, XS, best_k,
                           config.constraint_threshold, base_k, base_v)

    scores = _screen(acquisition, raw)
    order = np.argsort(-scores, kind="stable")[:budget.restarts]
    x, fx = _pattern_search(acquisition, raw[order], scores[order])
    return x[np.argmax(fx)]
