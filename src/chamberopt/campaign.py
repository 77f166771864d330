"""Outer optimization loop and crash-safe campaign persistence.

A campaign alternates fit -> propose -> evaluate/ingest -> update. Every
batch, the DOE's and each iteration's, is issued one way: embedded mode
evaluates it with a built-in function; external mode leaves it pending for
the caller, who writes its proposals CSV and returns a results CSV
(ask-tell). The library writes no proposals file. The dataset is the one
record of progress. State is stored as versioned JSON, written atomically.
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
                         read_results, stage_label)
# campaign_bench/tracer.py wraps campaign.write_proposals, so the name stays
from .evaluators import write_proposals  # noqa: F401
from .gp import GpModel, fit
from .optim import OptimizerBudget, propose_batch
from .space import ParameterSpace, count, latin_hypercube

# older versions also stored top-level keys that load_state ignores:
# "kernel_nu", "sampler" (1), "lhs_midpoint", "fitted_standardize_k/v" (1-3),
# "doe_n" (1-4), "fitted_hyper_k/v" (1-6) and "iteration" (1-7)
STATE_VERSION = 8

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
    """Settings, dataset and pending (id, x) proposals. ``iteration`` is read
    from the dataset, so a dataset prefix is the state before an iteration.
    A built-in evaluator needs its own space, and each pending entry a unique
    string id and a ``ParameterSpace.check_point`` design point that repeats
    no row or earlier entry, else a ValueError names ``space`` or ``pending[i]``."""
    space: ParameterSpace
    acq: AcquisitionConfig
    budget: OptimizerBudget
    dataset: Dataset
    rng_seed: int
    evaluator: str = "external"        # external | proxy | quadratic
    pending: list[tuple[str, tuple[float, ...]]] = field(default_factory=list)

    def __post_init__(self):
        count(self.rng_seed, "rng_seed")
        if self.evaluator not in ("external", *EVALUATORS):
            raise ValueError(f"'evaluator' must be 'external' or one of "
                             f"{sorted(EVALUATORS)}, got {self.evaluator!r}")
        if self.evaluator != "external" and self.space != EVALUATORS[self.evaluator][1]:
            own = EVALUATORS[self.evaluator][1].to_config()
            raise ValueError(f"'space' must be the space of evaluator "
                             f"{self.evaluator!r}, {json.dumps(own)}")
        for i, (pid, x) in enumerate(self.pending):
            try:
                if not isinstance(pid, str) or pid in dict(self.pending[:i]):
                    raise ValueError(f"'id' must be a unique string, got {pid!r}")
                self.space.check_point(x)
            except ValueError as e:
                raise ValueError(f"pending[{i}]: {e}") from e
        xs, n = [x for _, x in self.pending], len(self.dataset)
        for i, j in enumerate(self.dataset.repeats(xs) if xs else ()):
            if j is not None:
                match = f"dataset[{j}]" if j < n else f"pending[{j - n}]"
                raise ValueError(f"pending[{i}]: duplicate design point {xs[i]} "
                                 f"(matches {match})")

    @property
    def iteration(self) -> int:
        """Completed BO iterations: ``Dataset.iterations``, the stages tagged
        ``bo_iter_<n>`` as ``best_so_far`` groups them. Each version 1-7
        state file the program wrote stored it as "iteration"."""
        return self.dataset.iterations

    @property
    def batch(self) -> int:
        """The number of the batch pending or issued next: 0, the DOE, on an
        empty dataset, else iteration + 1. It numbers the batch's stage tag,
        its proposal ids and its ``proposals_iter<n>.csv``."""
        return self.iteration + 1 if len(self.dataset) else 0


def _append_batch(state: CampaignState, xs, values) -> CampaignState:
    """Append the points ``xs`` with their (k, v) ``values``, in that order,
    as one stage, all or nothing: a refused row leaves the state untouched."""
    tag = f"bo_iter_{state.batch}" if state.batch else "doe"
    state.dataset.append(*(Observation(x, k, v, tag) for x, (k, v) in zip(xs, values)))
    state.pending = []
    return state


def _issue(state: CampaignState, batch_u: np.ndarray) -> CampaignState:
    """Issue the unit points ``batch_u`` as the next batch: a built-in
    evaluator scores them for ``_append_batch``, in order; external mode leaves
    them pending under ids numbered by ``state.batch``."""
    xs = list(map(tuple, state.space.from_unit(batch_u).tolist()))
    if state.evaluator != "external":
        return _append_batch(state, xs, map(EVALUATORS[state.evaluator][0], xs))
    state.pending = list(zip(proposal_ids(state.batch, len(xs)), xs))
    return state


def init_campaign(space: ParameterSpace, acq: AcquisitionConfig,
                  budget: OptimizerBudget, doe_n: int, seed: int,
                  evaluator: str = "external") -> CampaignState:
    """Start a campaign with a Latin hypercube initial design, batch 0:
    pending in external mode, evaluated and appended in embedded mode."""
    count(doe_n, "doe_n", 2)
    state = CampaignState(space=space, acq=acq, budget=budget,
                          dataset=Dataset(space=space), rng_seed=seed,
                          evaluator=evaluator)
    return _issue(state, latin_hypercube(space, doe_n,
                                         derive_seed(seed, 0, _ROLE_DOE)))


def fit_models(state: CampaignState,
               constraint: bool = True) -> tuple[GpModel, GpModel | None]:
    """The objective GP and the constraint GP, or None without ``constraint``."""
    if len(state.dataset) < 2:
        raise InvalidStateError(f"need at least 2 observations, "
                                f"got {len(state.dataset)}")
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


def step(state: CampaignState) -> CampaignState:
    """One BO iteration: fit, propose q candidates, move any that
    ``Dataset.repeats`` flags, and ``_issue`` them: embedded mode evaluates
    the batch and appends it as ``ingest`` would; external mode marks it
    pending and writes no file.
    """
    if state.pending:
        raise InvalidStateError("cannot step while proposals are pending")
    it = state.iteration
    mk, mv = fit_models(state)
    best, _ = best_so_far(state)
    batch_u = propose_batch(mk, mv, state.acq, state.budget,
                            derive_seed(state.rng_seed, it, _ROLE_PROPOSE),
                            incumbent=None if best is None
                            else (best.k, state.space.to_unit(best.x)))
    rng = np.random.default_rng(derive_seed(state.rng_seed, it, _ROLE_DEDUP))
    _separate_batch(state, batch_u, rng)
    return _issue(state, batch_u)


def ingest(state: CampaignState, results_path: str) -> CampaignState:
    """``read_results`` for the pending ids, then ``_append_batch`` of the
    pending points with their values, in proposal order whatever the results
    file's line order: any protocol or data error leaves the state untouched."""
    if not state.pending:
        raise InvalidStateError("no pending proposals to ingest results for")
    ids, xs = zip(*state.pending)
    rows = read_results(results_path, ids)
    return _append_batch(state, xs, [(k, v) for _, k, v in rows])


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

def _records_from_json(doc, key: str) -> list:
    """The records of the JSON list ``doc[key]`` as dataset Observations or
    pending (id, x), parsed: this names a record with a field missing or of the
    wrong shape as ``key[i]``, ``Dataset.append`` and ``CampaignState`` the rest."""
    if not isinstance(doc[key], list):
        raise ValueError(f"{key!r} must be a JSON list, got {doc[key]!r}")
    records = []
    for i, r in enumerate(doc[key]):
        try:
            x = tuple(r["x"])
            records.append(Observation(x, r["k"], r["v"], r["tag"])
                           if key == "dataset" else (r["id"], x))
        except KeyError as e:
            raise ValueError(f"{key}[{i}] has no field {e}: {r!r}") from e
        except TypeError as e:
            raise ValueError(f"{key}[{i}]: {e}") from e
    return records


def save_state(state: CampaignState, path: str) -> None:
    """Serialize to versioned JSON via an fsynced temp file + rename (atomic).
    The rename survives a crash once the directory is synced, as the CLI
    does after each save."""
    doc = {
        "version": STATE_VERSION,
        "evaluator": state.evaluator,
        "rng_seed": state.rng_seed,
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
        with os.fdopen(fd, "w", encoding="utf-8") as f:
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
        with open(path, encoding="utf-8-sig") as f:
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
        dataset = Dataset(space=space)
        dataset.append(*_records_from_json(doc, "dataset"))
        return CampaignState(
            space=space, acq=acq, budget=budget, dataset=dataset,
            rng_seed=doc["rng_seed"], evaluator=doc["evaluator"],
            pending=_records_from_json(doc, "pending"))
    except (KeyError, TypeError, ValueError, DataError) as e:
        raise StateFileError(f"{path}: malformed state file: {e}") from e
