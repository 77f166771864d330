"""Outer optimization loop and crash-safe campaign persistence.

A campaign alternates fit -> propose -> evaluate/ingest -> update. Embedded
mode evaluates proposals with a built-in function; external mode writes
proposal CSVs and waits for result CSVs (ask-tell). State is stored as
versioned JSON, written atomically.
"""

from __future__ import annotations

import json
import os
import tempfile
from dataclasses import asdict, dataclass, field, fields

import numpy as np

from .acquisition import AcquisitionConfig, incumbent
from .errors import (BoundsViolationError, DataError, InvalidStateError,
                     StateFileError)
from .evaluators import (EVALUATORS, Dataset, Observation, read_results,
                         write_proposals)
from .gp import GpHyperparameters, GpModel, fit
from .optim import OptimizerBudget, propose_batch
from .space import ParameterSpace, latin_hypercube

# version 1 also stored the constants "kernel_nu" and "sampler", versions
# 1 and 2 an acquisition "kind" with the weight of its removed second mode,
# versions 1-3 "lhs_midpoint" and "fitted_standardize_k/v", and versions 1-4
# "doe_n" and "budget.convergence_tol", which nothing read or which only
# ever held 1e-6; load_state still reads such files, ignores those keys and
# refuses a campaign whose kind was not "cei" or whose tolerance was not 1e-6
STATE_VERSION = 5
_READABLE_VERSIONS = tuple(range(1, STATE_VERSION + 1))

# role tags for deriving per-stage substream seeds
_ROLE_FIT_K = 1
_ROLE_FIT_V = 2
_ROLE_PROPOSE = 3
_ROLE_DOE = 4
_ROLE_DEDUP = 5


def derive_seed(rng_seed: int, iteration: int, role: int) -> int:
    """Stable per-(iteration, role) seed so resume and straight-through runs agree."""
    ss = np.random.SeedSequence([int(rng_seed), int(iteration), int(role)])
    return int(ss.generate_state(1)[0])


@dataclass
class CampaignState:
    space: ParameterSpace
    acq: AcquisitionConfig
    budget: OptimizerBudget
    dataset: Dataset
    rng_seed: int
    evaluator: str = "external"        # external | proxy | quadratic
    iteration: int = 0                 # completed BO iterations
    pending: list[tuple[str, tuple[float, ...]]] = field(default_factory=list)
    fitted_hyper_k: GpHyperparameters | None = None
    fitted_hyper_v: GpHyperparameters | None = None

    @property
    def awaiting_results(self) -> bool:
        return len(self.pending) > 0


def _evaluator_fn(state: CampaignState):
    if state.evaluator not in EVALUATORS:
        raise InvalidStateError(f"campaign has no built-in evaluator "
                                f"({state.evaluator!r}); use propose/ingest")
    return EVALUATORS[state.evaluator][0]


def init_campaign(space: ParameterSpace, acq: AcquisitionConfig,
                  budget: OptimizerBudget, doe_n: int, seed: int,
                  evaluator: str = "external") -> CampaignState:
    """Start a campaign with a Latin hypercube initial design.

    Embedded mode evaluates the design immediately; external mode leaves the
    design pending until results are ingested.
    """
    if doe_n < 2:
        raise ValueError("DOE size must be >= 2")
    if evaluator != "external" and evaluator not in EVALUATORS:
        raise ValueError(f"unknown evaluator {evaluator!r}; expected "
                         f"'external' or one of {sorted(EVALUATORS)}")
    state = CampaignState(space=space, acq=acq, budget=budget,
                          dataset=Dataset(space=space), rng_seed=seed,
                          evaluator=evaluator)
    u = latin_hypercube(space, doe_n, derive_seed(seed, 0, _ROLE_DOE))
    x_phys = space.from_unit(u)
    if evaluator == "external":
        state.pending = [(f"iter0_{j}", tuple(map(float, x_phys[j])))
                         for j in range(doe_n)]
    else:
        f = _evaluator_fn(state)
        for j in range(doe_n):
            k, v = f(x_phys[j])
            state.dataset.append(Observation(tuple(map(float, x_phys[j])), k, v, "doe"))
    return state


def fit_models(state: CampaignState) -> tuple[GpModel, GpModel]:
    X = state.dataset.unit_inputs()
    it = state.iteration
    mk = fit(X, state.dataset.k_values(), "objective",
             derive_seed(state.rng_seed, it, _ROLE_FIT_K))
    mv = fit(X, state.dataset.v_values(), "constraint",
             derive_seed(state.rng_seed, it, _ROLE_FIT_V))
    return mk, mv


def _separate_batch(batch_u: np.ndarray, existing_u: np.ndarray,
                    rng: np.random.Generator, min_dist: float = 1e-9) -> np.ndarray:
    """Nudge batch points that coincide with existing data or each other.

    The dataset rejects duplicates below 1e-10 unit distance; a degenerate
    acquisition surface can collapse batch points onto one optimum.
    """
    out = batch_u.copy()
    for j in range(out.shape[0]):
        others = np.vstack([existing_u, out[:j]]) if j else existing_u
        for _ in range(100):
            if others.size == 0 or np.min(
                    np.linalg.norm(others - out[j], axis=1)) >= min_dist:
                break
            out[j] = np.clip(out[j] + rng.uniform(-1e-6, 1e-6, out.shape[1]), 0.0, 1.0)
    return out


def step(state: CampaignState, campaign_dir: str | None = None) -> CampaignState:
    """One BO iteration: fit, propose q candidates, evaluate or park them.

    Embedded mode appends evaluated observations and bumps the iteration
    counter; external mode writes proposals_iter<N>.csv into campaign_dir and
    marks the batch pending.
    """
    if state.awaiting_results:
        raise InvalidStateError("cannot step while proposals are pending")
    if len(state.dataset) < 2:
        raise InvalidStateError("need at least 2 observations before stepping")

    it = state.iteration
    mk, mv = fit_models(state)
    state.fitted_hyper_k, state.fitted_hyper_v = mk.hyper, mv.hyper
    inc = incumbent(state.dataset, state.acq.constraint_threshold)
    batch_u = propose_batch(mk, mv, state.acq, state.budget,
                            derive_seed(state.rng_seed, it, _ROLE_PROPOSE),
                            incumbent_value=None if inc is None else inc.k_best)
    rng = np.random.default_rng(derive_seed(state.rng_seed, it, _ROLE_DEDUP))
    batch_u = _separate_batch(batch_u, state.dataset.unit_inputs(), rng)
    batch_x = state.space.from_unit(batch_u)

    if state.evaluator == "external":
        if campaign_dir is None:
            raise ValueError("external mode needs a campaign directory")
        path = os.path.join(campaign_dir, f"proposals_iter{it + 1}.csv")
        ids = write_proposals(path, state.space, batch_x, it + 1)
        state.pending = [(pid, tuple(map(float, x)))
                         for pid, x in zip(ids, batch_x)]
    else:
        f = _evaluator_fn(state)
        tag = f"bo_iter_{it + 1}"
        for x in batch_x:
            k, v = f(x)
            state.dataset.append(Observation(tuple(map(float, x)), k, v, tag))
        state.iteration = it + 1
    return state


def ingest(state: CampaignState, results_path: str) -> CampaignState:
    """Append externally evaluated results matching the pending proposals.

    Atomic: any protocol or data error leaves the state untouched.
    """
    if not state.awaiting_results:
        raise InvalidStateError("no pending proposals to ingest results for")
    pending = dict(state.pending)
    rows = read_results(results_path, pending.keys())

    is_doe = state.iteration == 0 and len(state.dataset) == 0
    tag = "doe" if is_doe else f"bo_iter_{state.iteration + 1}"
    staged = [Observation(pending[pid], k, v, tag) for pid, k, v in rows]
    trial = Dataset(space=state.space, rows=list(state.dataset.rows))
    for obs in staged:
        trial.append(obs)

    state.dataset = trial
    state.pending = []
    if not is_doe:
        state.iteration += 1
    return state


def best_so_far(state: CampaignState):
    """Feasible-best observation plus a per-stage trace.

    Trace rows cover the DOE stage and each completed BO iteration, each with
    the cumulative feasible best and the per-batch feasible best (the latter
    can dip between iterations; the cumulative view is monotone).
    """
    if len(state.dataset) == 0:
        raise InvalidStateError("empty dataset")
    thr = state.acq.constraint_threshold
    stages = [("doe", "doe")] + [(f"iter{n}", f"bo_iter_{n}")
                                 for n in range(1, state.iteration + 1)]
    trace = []
    cum_best = None
    for label, tag in stages:
        batch_best = None
        for obs in state.dataset:
            if obs.tag != tag or obs.v > thr:
                continue
            if batch_best is None or obs.k > batch_best.k:
                batch_best = obs
            if cum_best is None or obs.k > cum_best.k:
                cum_best = obs
        trace.append({"stage": label, "cumulative": cum_best, "batch": batch_best})
    return cum_best, trace


def run_campaign(state: CampaignState, n_iterations: int) -> CampaignState:
    """Run n embedded-mode BO iterations."""
    if n_iterations < 0:
        raise ValueError(f"iters must be >= 0, got {n_iterations}")
    for _ in range(n_iterations):
        state = step(state)
    return state


# ---------------------------------------------------------------- persistence

def _hyper_to_json(h: GpHyperparameters | None):
    if h is None:
        return None
    return {"lengthscales": [float(v) for v in h.lengthscales],
            "signal_variance": float(h.signal_variance),
            "noise_std": float(h.noise_std)}


def _hyper_from_json(d):
    if d is None:
        return None
    return GpHyperparameters(lengthscales=np.array(d["lengthscales"]),
                             signal_variance=d["signal_variance"],
                             noise_std=d["noise_std"])


def _count_from_json(doc, key: str) -> int:
    # JSON true/false load as bool, which Python counts as an int
    v = doc[key]
    if isinstance(v, bool) or not isinstance(v, int) or v < 0:
        raise ValueError(f"{key!r} must be a non-negative integer, got {v!r}")
    return v


def _pending_from_json(records, space: ParameterSpace):
    pending = {}
    for i, p in enumerate(records):
        x = p.get("x") if isinstance(p, dict) else None
        # NaN and +-inf fail the closed bounds comparison
        if (not isinstance(x, list) or not isinstance(p.get("id"), str)
                or p["id"] in pending or len(x) != space.ndim
                or not all(isinstance(c, (int, float)) and not isinstance(c, bool)
                           and d.lower <= c <= d.upper
                           for c, d in zip(x, space.dims))):
            raise ValueError(
                f"pending[{i}] must be an object with a unique string 'id' and "
                f"an 'x' of {space.ndim} numbers inside the bounds, got {p!r}")
        pending[p["id"]] = tuple(x)
    return list(pending.items())


def save_state(state: CampaignState, path: str) -> None:
    """Serialize to versioned JSON via temp-file + rename (atomic)."""
    doc = {
        "version": STATE_VERSION,
        "evaluator": state.evaluator,
        "rng_seed": state.rng_seed,
        "iteration": state.iteration,
        "space": state.space.to_config(),
        "acq": asdict(state.acq),
        "budget": asdict(state.budget),
        "dataset": [{"x": list(r.x), "k": r.k, "v": r.v, "tag": r.tag}
                    for r in state.dataset],
        "pending": [{"id": pid, "x": list(x)} for pid, x in state.pending],
        "fitted_hyper_k": _hyper_to_json(state.fitted_hyper_k),
        "fitted_hyper_v": _hyper_to_json(state.fitted_hyper_v),
    }
    d = os.path.dirname(os.path.abspath(path))
    fd, tmp = tempfile.mkstemp(dir=d, prefix=".state-", suffix=".json")
    try:
        with os.fdopen(fd, "w") as f:
            json.dump(doc, f, indent=1)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def load_state(path: str) -> CampaignState:
    try:
        with open(path) as f:
            doc = json.load(f)
    except (json.JSONDecodeError, UnicodeDecodeError) as e:
        raise StateFileError(f"corrupt state file {path}: {e}") from e
    except OSError as e:
        raise StateFileError(f"cannot read state file {path}: {e}") from e
    if not isinstance(doc, dict) or "version" not in doc:
        raise StateFileError(f"{path}: not a campaign state file")
    if doc["version"] not in _READABLE_VERSIONS:
        raise StateFileError(
            f"{path}: unsupported state version {doc['version']} "
            f"(expected one of {_READABLE_VERSIONS})")
    try:
        space = ParameterSpace.from_config(doc["space"])
        acq = doc["acq"]
        if doc["version"] < 3:
            if acq["kind"] != "cei":
                raise StateFileError(
                    f"{path}: acquisition kind {acq['kind']!r} has been removed; "
                    "only constrained EI ('cei') campaigns can be resumed")
            acq = {f.name: acq[f.name] for f in fields(AcquisitionConfig)}
        acq = AcquisitionConfig(**acq)
        budget = dict(doc["budget"])
        if doc["version"] < 5:
            tol = budget.pop("convergence_tol", 1e-6)
            if tol != 1e-6:
                raise StateFileError(
                    f"{path}: budget.convergence_tol {tol!r} has been removed; "
                    "only campaigns with the fixed 1e-6 can be resumed")
        budget = OptimizerBudget(**budget)
        if not isinstance(doc["evaluator"], str):
            raise ValueError(f"'evaluator' must be a string, got {doc['evaluator']!r}")
        dataset = Dataset(space=space)
        for r in doc["dataset"]:
            dataset.append(Observation(tuple(r["x"]), r["k"], r["v"], r["tag"]))
        state = CampaignState(
            space=space, acq=acq, budget=budget, dataset=dataset,
            rng_seed=_count_from_json(doc, "rng_seed"),
            evaluator=doc["evaluator"],
            iteration=_count_from_json(doc, "iteration"),
            pending=_pending_from_json(doc["pending"], space),
            fitted_hyper_k=_hyper_from_json(doc["fitted_hyper_k"]),
            fitted_hyper_v=_hyper_from_json(doc["fitted_hyper_v"]))
    except (KeyError, TypeError, ValueError, BoundsViolationError,
            DataError) as e:
        raise StateFileError(f"{path}: malformed state file: {e}") from e
    return state
