"""Outer optimization loop and crash-safe campaign persistence.

A campaign alternates fit -> propose -> evaluate/ingest -> update. Embedded
mode evaluates proposals with a built-in function; external mode writes
proposal CSVs and waits for result CSVs (ask-tell). State is stored as
versioned JSON, written atomically.
"""

from __future__ import annotations

import itertools
import json
import os
import tempfile
from dataclasses import asdict, dataclass, field, fields

import numpy as np

from .acquisition import AcquisitionConfig
from .errors import DataError, InvalidStateError, StateFileError
from .evaluators import (EVALUATORS, Dataset, Observation, proposal_ids,
                         proposals_path, read_results, stage_label,
                         write_proposals)
from .gp import GpModel, fit
from .optim import OptimizerBudget, propose_batch
from .space import ParameterSpace, count, latin_hypercube, real

# older versions also stored top-level keys that nothing reads, which
# load_state ignores: "kernel_nu" and "sampler" (1), "lhs_midpoint" and
# "fitted_standardize_k/v" (1-3), "doe_n" (1-4), "fitted_hyper_k/v" (1-6)
STATE_VERSION = 7

# (section, field, the one value a resume accepts or any, first version
# without the field): every save_state before that version wrote the field
_REMOVED_FIELDS = (("acq", "kind", "cei", 3), ("acq", "ucb_beta", any, 3),
                   ("budget", "convergence_tol", 1e-6, 5),
                   ("budget", "max_iters_per_restart", 200, 6))

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

    def __post_init__(self):
        count(self.rng_seed, "rng_seed")
        count(self.iteration, "iteration")
        # each completed iteration appended at least one row
        if self.iteration > len(self.dataset):
            raise ValueError(f"'iteration' {self.iteration} exceeds the "
                             f"{len(self.dataset)} rows of the dataset")
        if self.evaluator not in ("external", *EVALUATORS):
            raise ValueError(f"'evaluator' must be 'external' or one of "
                             f"{sorted(EVALUATORS)}, got {self.evaluator!r}")

    @property
    def awaiting_results(self) -> bool:
        return len(self.pending) > 0


def _append_batch(state: CampaignState, batch, rows) -> CampaignState:
    """Append the (id, k, v) ``rows`` of the (id, x) proposals ``batch`` as
    one stage, all or nothing: a refused row leaves the state untouched."""
    x_of = dict(batch)
    is_doe = state.iteration == 0 and len(state.dataset) == 0
    tag = "doe" if is_doe else f"bo_iter_{state.iteration + 1}"
    state.dataset.append(*(Observation(x_of[pid], k, v, tag) for pid, k, v in rows))
    state.pending = []
    if not is_doe:
        state.iteration += 1
    return state


def _evaluate(state: CampaignState, batch) -> CampaignState:
    """Score the whole batch with the built-in evaluator, then append it."""
    f = EVALUATORS[state.evaluator][0]
    return _append_batch(state, batch, [(pid, *f(x)) for pid, x in batch])


def _batch(iteration: int, x_phys: np.ndarray):
    ids = proposal_ids(iteration, len(x_phys))
    return list(zip(ids, map(tuple, x_phys.tolist())))


def init_campaign(space: ParameterSpace, acq: AcquisitionConfig,
                  budget: OptimizerBudget, doe_n: int, seed: int,
                  evaluator: str = "external") -> CampaignState:
    """Start a campaign with a Latin hypercube initial design, batch 0:
    pending in external mode, evaluated and appended in embedded mode."""
    count(doe_n, "doe_n", 2)
    state = CampaignState(space=space, acq=acq, budget=budget,
                          dataset=Dataset(space=space), rng_seed=seed,
                          evaluator=evaluator)
    u = latin_hypercube(space, doe_n, derive_seed(seed, 0, _ROLE_DOE))
    batch = _batch(0, space.from_unit(u))
    if evaluator != "external":
        return _evaluate(state, batch)
    state.pending = batch
    return state


def fit_models(state: CampaignState,
               constraint: bool = True) -> tuple[GpModel, GpModel | None]:
    """The objective GP and the constraint GP, or None without ``constraint``."""
    X = state.dataset.unit_inputs()
    it = state.iteration
    mk = fit(X, [r.k for r in state.dataset], "objective",
             derive_seed(state.rng_seed, it, _ROLE_FIT_K))
    mv = fit(X, [r.v for r in state.dataset], "constraint",
             derive_seed(state.rng_seed, it, _ROLE_FIT_V)) if constraint else None
    return mk, mv


def _separate_batch(state: CampaignState, batch_u: np.ndarray,
                    rng: np.random.Generator) -> None:
    """Nudge, in place, the batch points that ``Dataset.repeats`` flags by up
    to 1e-6 per unit coordinate until none repeats a row or an earlier point
    (at most 100 rounds): a degenerate acquisition surface can collapse points.
    """
    for _ in range(100):
        matches = state.dataset.repeats(state.space.from_unit(batch_u))
        flagged = [i for i, j in enumerate(matches) if j is not None]
        if not flagged:
            break
        batch_u[flagged] = np.clip(batch_u[flagged] + rng.uniform(
            -1e-6, 1e-6, (len(flagged), batch_u.shape[1])), 0.0, 1.0)


def step(state: CampaignState, campaign_dir: str | None = None) -> CampaignState:
    """One BO iteration: fit, propose q candidates, move any that
    ``Dataset.repeats`` flags, and evaluate or park them.

    Embedded mode evaluates the batch and appends it as ``ingest`` would;
    external mode writes proposals_iter<N>.csv into campaign_dir and marks
    the batch pending.
    """
    if state.awaiting_results:
        raise InvalidStateError("cannot step while proposals are pending")
    if len(state.dataset) < 2:
        raise InvalidStateError("need at least 2 observations before stepping")
    if state.evaluator == "external" and campaign_dir is None:
        raise ValueError("external mode needs a campaign directory")

    it = state.iteration
    mk, mv = fit_models(state)
    best, _ = best_so_far(state)
    batch_u = propose_batch(mk, mv, state.acq, state.budget,
                            derive_seed(state.rng_seed, it, _ROLE_PROPOSE),
                            incumbent=None if best is None
                            else (best.k, state.space.to_unit(best.x)))
    rng = np.random.default_rng(derive_seed(state.rng_seed, it, _ROLE_DEDUP))
    _separate_batch(state, batch_u, rng)
    batch = _batch(it + 1, state.space.from_unit(batch_u))
    if state.evaluator != "external":
        return _evaluate(state, batch)
    write_proposals(proposals_path(campaign_dir, it + 1), state.space, batch)
    state.pending = batch
    return state


def ingest(state: CampaignState, results_path: str) -> CampaignState:
    """``read_results`` for the pending proposals, then ``_append_batch``:
    any protocol or data error leaves the state untouched."""
    if not state.awaiting_results:
        raise InvalidStateError("no pending proposals to ingest results for")
    rows = read_results(results_path, [pid for pid, _ in state.pending])
    return _append_batch(state, state.pending, rows)


def _best(rows):
    """The row with the largest k, the first of them on a tie; None if none."""
    return max(rows, key=lambda obs: obs.k, default=None)


def best_so_far(state: CampaignState):
    """The campaign's feasible best, which ``step`` improves on and
    ``report.emit_slices`` slices through, and a per-stage trace.

    A stage is a run of consecutive rows with one tag, in dataset order: the
    DOE, each BO iteration and rows added by hand, labelled by
    ``evaluators.stage_label``. Each trace entry holds the
    stage's feasible best (v at or below the threshold, the largest k; it
    can dip between stages) and the cumulative feasible best, which folds
    the stages in order, so the first row wins a tie. The best is the last
    cumulative: None while no row is feasible.
    """
    if len(state.dataset) == 0:
        raise InvalidStateError("empty dataset")
    thr = state.acq.constraint_threshold
    trace, cum_best = [], None
    for tag, rows in itertools.groupby(state.dataset, key=lambda obs: obs.tag):
        batch_best = _best(obs for obs in rows if obs.v <= thr)
        cum_best = _best(obs for obs in (cum_best, batch_best) if obs is not None)
        trace.append({"stage": stage_label(tag),
                      "cumulative": cum_best, "batch": batch_best})
    return cum_best, trace


def run_campaign(state: CampaignState, n_iterations: int) -> CampaignState:
    """Run n embedded-mode BO iterations."""
    for _ in range(count(n_iterations, "iters")):
        state = step(state)
    return state


# ---------------------------------------------------------------- persistence

def _records_from_json(doc, space: ParameterSpace):
    """The dataset and the pending (id, x) proposals of a state document;
    an error names the record, as ``dataset[i]`` or ``pending[i]``."""
    rows, pending = [], {}
    for key in ("dataset", "pending"):
        if not isinstance(doc[key], list):
            raise ValueError(f"{key!r} must be a JSON list, got {doc[key]!r}")
        for i, r in enumerate(doc[key]):
            try:
                x = tuple(real(c, "x") for c in r["x"])
                space.to_unit(x)                    # its length and bounds
                if key == "dataset":
                    rows.append(Observation(x, r["k"], r["v"], r["tag"]))
                elif not isinstance(r["id"], str) or r["id"] in pending:
                    raise ValueError(f"'id' must be a unique string, got {r['id']!r}")
                else:
                    pending[r["id"]] = x
            except KeyError as e:
                raise ValueError(f"{key}[{i}] has no field {e}: {r!r}") from e
            except (TypeError, ValueError) as e:
                raise ValueError(f"{key}[{i}]: {e}") from e
    dataset = Dataset(space=space)
    dataset.append(*rows)           # values and duplicates: DataError names dataset[i]
    xs, n = list(pending.values()), len(rows)
    for i, j in enumerate(dataset.repeats(xs)):
        if j is not None:
            match = f"dataset[{j}]" if j < n else f"pending[{j - n}]"
            raise ValueError(f"pending[{i}]: duplicate design point {xs[i]} "
                             f"(matches {match})")
    return dataset, list(pending.items())


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
    }
    d = os.path.dirname(os.path.abspath(path))
    fd, tmp = tempfile.mkstemp(dir=d, prefix=".state-", suffix=".json")
    try:
        with os.fdopen(fd, "w") as f:
            json.dump(doc, f, indent=1)
            f.flush()
            os.fsync(f.fileno())
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _section(doc, key: str, cls):
    """The settings ``cls`` in the object ``doc[key]``, which holds exactly
    the fields its version wrote: those of ``cls`` and the ``_REMOVED_FIELDS``
    removed after that version, each at its accepted value. A resume fills in
    no default."""
    section = doc[key]
    if not isinstance(section, dict):
        raise ValueError(f"{key!r} must be a JSON object, got {section!r}")
    removed = {name: value for where, name, value, since in _REMOVED_FIELDS
               if where == key and doc["version"] < since}
    names = [f.name for f in fields(cls)] + list(removed)
    missing = [name for name in names if name not in section]
    unknown = [name for name in section if name not in names]
    if missing or unknown:
        raise ValueError(f"{key!r} has no field(s) {missing}" if missing
                         else f"{key!r} has unknown field(s) {unknown}")
    for name, value in removed.items():
        if value is not any and section[name] != value:
            raise ValueError(f"{key}.{name} {section[name]!r} has been removed; "
                             f"only campaigns with {value!r} can be resumed")
    return cls(**{name: v for name, v in section.items() if name not in removed})


def load_state(path: str) -> CampaignState:
    # ValueError: bad JSON, bad UTF-8 or an integer past Python's digit limit
    try:
        with open(path) as f:
            doc = json.load(f)
    except (ValueError, RecursionError) as e:
        raise StateFileError(f"corrupt state file {path}: {e}") from e
    except OSError as e:
        raise StateFileError(f"cannot read state file {path}: {e}") from e
    if not isinstance(doc, dict) or "version" not in doc:
        raise StateFileError(f"{path}: not a campaign state file")
    try:
        if count(doc["version"], "version", 1) > STATE_VERSION:
            raise StateFileError(f"{path}: unsupported state version "
                                 f"{doc['version']} (expected at most {STATE_VERSION})")
        space = ParameterSpace.from_config(doc["space"])
        acq = _section(doc, "acq", AcquisitionConfig)
        budget = _section(doc, "budget", OptimizerBudget)
        dataset, pending = _records_from_json(doc, space)
        state = CampaignState(
            space=space, acq=acq, budget=budget, dataset=dataset,
            rng_seed=doc["rng_seed"], evaluator=doc["evaluator"],
            iteration=doc["iteration"], pending=pending)
    except (KeyError, TypeError, ValueError, DataError) as e:
        raise StateFileError(f"{path}: malformed state file: {e}") from e
    return state
