"""Span tracing installed from outside the program.

Every chamberopt module binds its collaborators with ``from .x import y``, so
a wrapper has to replace the name at each import site, not only in the
defining module. ``install`` does that for the names listed in ``_SITES`` and
returns a function that restores the originals.

Spans live in flat typed arrays (about 40 bytes each) because a proxy
campaign records several hundred thousand of them; ``save`` writes them out
once the workload has finished.
"""

from __future__ import annotations

import contextlib
import functools
import time
from array import array
from collections import Counter

import numpy as np

_now = time.perf_counter


class Tracer:
    """In-memory span recorder: name, start, end, parent span and request."""

    def __init__(self):
        self.names: list[str] = []
        self._index: dict[str, int] = {}
        self.name = array("i")
        self.parent = array("i")
        self.request = array("i")
        self.start = array("d")
        self.end = array("d")
        self.failed: Counter = Counter()
        self.computed_bytes: Counter = Counter()
        self.distinct = [0, 0]           # [points >= 1e-3 apart, points proposed]
        self._stack: list[int] = []
        self._request = -1
        self._suspended = False

    def begin_request(self) -> None:
        """Start a new request id: one campaign step or one CLI command."""
        self._request += 1

    @contextlib.contextmanager
    def suspended(self):
        """Calls made inside record nothing: the harness's own output checks."""
        self._suspended = True
        try:
            yield
        finally:
            self._suspended = False

    def _name_id(self, name: str) -> int:
        if name not in self._index:
            self._index[name] = len(self.names)
            self.names.append(name)
        return self._index[name]

    def wrap(self, name: str, fn, failed_if=None, on_call=None):
        """Return ``fn`` recording one span per call.

        ``failed_if(result)`` marks a returned value as a failure (an exit
        code); a raised exception always counts as one. ``on_call(args,
        result)`` records a derived count after a successful call.
        """
        nid = self._name_id(name)
        stack = self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if self._suspended:
                return fn(*args, **kwargs)
            i = len(self.start)
            self.name.append(nid)
            self.parent.append(stack[-1] if stack else -1)
            self.request.append(self._request)
            self.end.append(0.0)
            stack.append(i)
            self.start.append(_now())
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                self.failed[name] += 1
                raise
            finally:
                self.end[i] = _now()
                stack.pop()
            if failed_if is not None and failed_if(result):
                self.failed[name] += 1
            if on_call is not None:
                on_call(args, result)
            return result

        return traced

    # ------------------------------------------------------------ analysis

    def arrays(self):
        return (np.frombuffer(self.name, dtype=np.int32),
                np.frombuffer(self.parent, dtype=np.int32),
                np.frombuffer(self.start), np.frombuffer(self.end))

    def summary(self) -> dict[str, dict[str, float]]:
        """Per span name: calls, busy seconds and self seconds.

        Self time is a span's duration minus the durations of its direct
        children; the program is single-threaded, so children never overlap.
        """
        name, parent, start, end = self.arrays()
        dur = end - start
        child = np.zeros(len(dur))
        has_parent = parent >= 0
        np.add.at(child, parent[has_parent], dur[has_parent])
        out = {}
        for nid, n in enumerate(self.names):
            sel = name == nid
            out[n] = {"calls": int(sel.sum()), "busy_s": float(dur[sel].sum()),
                      "self_s": float((dur[sel] - child[sel]).sum())}
        return out

    def raw_refine_split(self, raw_samples: int) -> tuple[float, float]:
        """Split proposal wall time at the end of the raw-scoring phase.

        The first ``raw_samples`` acquisition calls inside a proposal score
        the Sobol starts; everything after them is pattern-search refinement.
        """
        name, parent, start, end = self.arrays()
        acq_ids = [self._index[n] for n in ("acquisition.qcei_mc",
                                            "acquisition.q_feasibility_mc")
                   if n in self._index]
        if "optim.propose_batch" not in self._index:
            return 0.0, 0.0
        pid = self._index["optim.propose_batch"]
        is_acq = np.isin(name, acq_ids)
        raw = refine = 0.0
        for p in np.flatnonzero(name == pid):
            kids = np.flatnonzero(is_acq & (parent == p))
            split = end[kids[min(raw_samples, len(kids)) - 1]] if len(kids) else end[p]
            raw += split - start[p]
            refine += end[p] - split
        return raw, refine

    def save(self, path: str) -> None:
        name, parent, start, end = self.arrays()
        np.savez_compressed(path, names=np.array(self.names), name=name,
                            parent=parent,
                            request=np.frombuffer(self.request, dtype=np.int32),
                            start=start, end=end)


# (module attribute to replace, span name). Most are import sites; the rest
# are module globals that their own module looks up at call time.
# ``campaign.fit`` is wrapped separately, split by output channel.
_SITES = [
    ("campaign.propose_batch", "optim.propose_batch"),
    ("campaign.read_results", "evaluators.read_results"),
    ("campaign.write_proposals", "evaluators.write_proposals"),
    ("cli.write_proposals", "evaluators.write_proposals"),
    ("campaign.latin_hypercube", "space.latin_hypercube"),
    ("optim.qcei_mc", "acquisition.qcei_mc"),
    ("optim.q_feasibility_mc", "acquisition.q_feasibility_mc"),
    ("optim.posterior", "gp.posterior"),
    ("report.posterior", "gp.posterior"),
    ("acquisition.joint_posterior_samples", "gp.joint_posterior_samples"),
    ("acquisition.mc_batch_improvement", "kernels.mc_batch_improvement"),
    ("acquisition.mc_batch_feasibility", "kernels.mc_batch_feasibility"),
    ("gp.matern52_cross", "kernels.matern52_cross"),
    ("gp.matern52_cross_grad", "kernels.matern52_cross_grad"),
    ("gp.lml_and_grad", "gp.lml_and_grad"),
    ("report.fit_models", "campaign.fit_models"),
    ("campaign.fit_models", "campaign.fit_models"),
    ("campaign.step", "campaign.step"),
    ("campaign.ingest", "campaign.ingest"),
    ("campaign.init_campaign", "campaign.init_campaign"),
    ("campaign.load_state", "campaign.load_state"),
    ("campaign.save_state", "campaign.save_state"),
    ("cli.emit_table", "report.emit_table"),
    ("cli.emit_slices", "report.emit_slices"),
    ("cli.main", "cli.main"),
]


def install(tracer: Tracer):
    """Wrap the program's layer boundaries; returns an ``uninstall`` function."""
    import chamberopt.acquisition as acquisition
    import chamberopt.campaign as campaign
    import chamberopt.cli as cli
    import chamberopt.evaluators as evaluators
    import chamberopt.gp as gp
    import chamberopt.optim as optim
    import chamberopt.report as report
    import chamberopt.space as space

    modules = {"acquisition": acquisition, "campaign": campaign, "cli": cli,
               "gp": gp, "optim": optim, "report": report}
    saved = []

    def patch(owner, key, new):
        if isinstance(owner, dict):
            saved.append((owner.__setitem__, key, owner[key]))
            owner[key] = new
        else:
            saved.append((functools.partial(setattr, owner), key, getattr(owner, key)))
            setattr(owner, key, new)

    def record_distinct(args, batch_u):
        existing = args[0].train_inputs
        for j in range(batch_u.shape[0]):
            others = np.vstack([existing, np.delete(batch_u, j, axis=0)])
            gap = np.min(np.linalg.norm(others - batch_u[j], axis=1))
            tracer.distinct[0] += int(gap >= 1e-3)
            tracer.distinct[1] += 1

    def record_bytes(args, result):
        tracer.computed_bytes["kernels.matern52_cross"] += 8 * (
            np.size(args[0]) + np.size(args[1]) + np.size(result))

    hooks = {"cli.main": {"failed_if": lambda code: code != 0},
             "optim.propose_batch": {"on_call": record_distinct},
             "kernels.matern52_cross": {"on_call": record_bytes}}
    wrapped = {}
    for site, name in _SITES:
        mod_name, attr = site.split(".")
        owner = modules[mod_name]
        if name not in wrapped:
            wrapped[name] = tracer.wrap(name, getattr(owner, attr), **hooks.get(name, {}))
        patch(owner, attr, wrapped[name])

    fit_objective = tracer.wrap("gp.fit_objective", campaign.fit)
    fit_constraint = tracer.wrap("gp.fit_constraint", campaign.fit)

    def fit(inputs, raw_targets, channel, *args, **kwargs):
        by_channel = fit_objective if channel == "objective" else fit_constraint
        return by_channel(inputs, raw_targets, channel, *args, **kwargs)

    patch(campaign, "fit", fit)
    patch(evaluators.Dataset, "append",
          tracer.wrap("evaluators.Dataset.append", evaluators.Dataset.append))
    patch(space.ParameterSpace, "to_unit",
          tracer.wrap("space.to_unit", space.ParameterSpace.to_unit))
    for name, (fn, *rest) in list(evaluators.EVALUATORS.items()):
        patch(evaluators.EVALUATORS, name,
              (tracer.wrap("evaluators.evaluate", fn), *rest))
    for command, fn in list(cli._COMMANDS.items()):
        patch(cli._COMMANDS, command, tracer.wrap(f"cli.{command}", fn))

    def uninstall():
        for put, key, original in reversed(saved):
            put(key, original)

    return uninstall
