"""The three closed-loop workloads, each driven through chamberopt's public API.

One client: the harness waits for every proposal, evaluates it with the
built-in analytic evaluator (instant, so every timing is the optimizer's own
overhead) and feeds it back. A workload run is a list of campaigns; each
campaign takes its seed from the benchmark's ``--seed``.

Program calls go through module attributes (``campaign.step``,
``cli.main``) at call time, so the tracer's wrappers see them.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import random
import shutil
import time
from dataclasses import dataclass, field

import numpy as np

import chamberopt.campaign as campaign
import chamberopt.cli as cli
import chamberopt.evaluators as evaluators
from chamberopt.acquisition import AcquisitionConfig
from chamberopt.optim import OptimizerBudget

# grid optimum of the proxy (acceptance criterion 6) and the analytic
# constrained optimum of the quadratic at threshold 0.3: k = -2 * 0.55^2
PROXY_K_STAR = 253.566870612905
QUADRATIC_K_STAR = -0.605

_now = time.perf_counter


def _untraced(tracer):
    """The output checks call the program too; keep them out of the trace."""
    return tracer.suspended() if tracer is not None else contextlib.nullcontext()


@dataclass
class Samples:
    """Everything one workload run measured, in the order it happened."""

    campaign_s: list[float] = field(default_factory=list)
    propose_s: list[float] = field(default_factory=list)
    ingest_s: list[float] = field(default_factory=list)
    report_s: list[float] = field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    checks: dict[str, bool] = field(default_factory=dict)
    problems: list[str] = field(default_factory=list)
    state_bytes: int = 0
    raw_samples: int = 0

    def check(self, name: str, ok: bool, detail: str = "") -> None:
        self.checks[name] = self.checks.get(name, True) and bool(ok)
        if not ok:
            self.problems.append(f"{name}: {detail}" if detail else name)

    def timed(self, samples: list[float], fn, *args):
        """Run one timed operation; an exception or non-zero exit fails it."""
        self.attempted += 1
        t0 = _now()
        try:
            result = fn(*args)
        except Exception as e:          # counted, reported, and the run goes on
            samples.append(_now() - t0)
            self.failed += 1
            self.problems.append(f"{getattr(fn, '__name__', fn)}: "
                                 f"{type(e).__name__}: {e}")
            return None
        samples.append(_now() - t0)
        if isinstance(result, int) and not isinstance(result, bool) and result != 0:
            self.failed += 1
            self.problems.append(f"{args}: exit code {result}")
        return result


def campaign_seed(seed: int, j: int) -> int:
    """Campaign j of a run: the first uses the benchmark seed itself."""
    if j == 0:
        return seed
    return int(np.random.SeedSequence([seed, j]).generate_state(1)[0])


def _quality(state, k_star: float) -> dict:
    thr = state.acq.constraint_threshold
    best, _ = campaign.best_so_far(state)
    target = k_star - 0.01 * abs(k_star)
    evals = len(state.dataset) + 1
    for i, obs in enumerate(state.dataset, start=1):
        if obs.v <= thr and obs.k >= target:
            evals = i
            break
    proposed = [obs for obs in state.dataset if obs.tag != "doe"]
    best_k = best.k if best is not None else float("-inf")
    return {"best_k": best_k,
            "regret_rel": (k_star - best_k) / abs(k_star),
            "evals_to_1pct": evals,
            "feasible_frac": sum(o.v <= thr for o in proposed) / max(1, len(proposed))}


def _check_state(rec: Samples, state) -> None:
    """Proposals inside the bounds and a feasible reported best."""
    lo, hi = state.space.lowers, state.space.uppers
    xs = np.array([obs.x for obs in state.dataset])
    rec.check("proposals_in_bounds", np.all((xs >= lo) & (xs <= hi)),
              "a dataset point lies outside the space")
    best, _ = campaign.best_so_far(state)
    rec.check("best_feasible",
              best is not None and best.v <= state.acq.constraint_threshold,
              f"best {best}")


def _check_reload(rec: Samples, state, path: str) -> None:
    back = campaign.load_state(path)
    rec.check("state_reloads",
              back.dataset.rows == state.dataset.rows
              and back.iteration == state.iteration and back.pending == state.pending,
              f"{path} does not reload to the saved campaign")
    rec.state_bytes = os.path.getsize(path)


# ------------------------------------------------------------- embedded mode

@dataclass(frozen=True)
class Embedded:
    """``init_campaign`` + ``step`` with a built-in evaluator."""

    name: str
    evaluator: str
    threshold: float
    doe_n: int
    iterations: int
    k_star: float
    min_campaigns: int
    traced_campaigns: int

    def setup(self, seed: int, workdir: str):
        _, space, _ = evaluators.EVALUATORS[self.evaluator]
        acq = AcquisitionConfig(constraint_threshold=self.threshold,
                                batch_size=5, mc_samples=1024)
        return campaign.init_campaign(space, acq, OptimizerBudget(),
                                      doe_n=self.doe_n, seed=seed,
                                      evaluator=self.evaluator)

    def run(self, seed: int, workdir: str, rec: Samples, tracer=None) -> dict:
        state = self.setup(seed, workdir)
        rec.raw_samples = state.budget.raw_samples
        t0 = _now()
        for _ in range(self.iterations):
            if tracer is not None:
                tracer.begin_request()
            nxt = rec.timed(rec.propose_s, campaign.step, state)
            if nxt is None:
                break
            state = nxt
        rec.campaign_s.append(_now() - t0)
        with _untraced(tracer):
            _check_state(rec, state)
            os.makedirs(workdir, exist_ok=True)
            path = os.path.join(workdir, "state.json")
            campaign.save_state(state, path)
            _check_reload(rec, state, path)
            return _quality(state, self.k_star)


# ----------------------------------------------------------- ask-tell mode

def _cli(*argv: str) -> int:
    """``chamberopt <argv>`` in process, its console output discarded."""
    with contextlib.redirect_stdout(io.StringIO()), \
            contextlib.redirect_stderr(io.StringIO()):
        return cli.main(list(argv))


@dataclass(frozen=True)
class AskTell:
    """``chamberopt init/propose/ingest/report/slices`` in process."""

    name: str
    doe_n: int
    cycles: int
    k_star: float
    min_campaigns: int = 1
    traced_campaigns: int = 1

    def _evaluate(self, seed: int, workdir: str, iteration: int) -> str:
        """Evaluate a proposals file; results come back in shuffled order."""
        _, space, _ = evaluators.EVALUATORS["proxy"]
        rows = evaluators.read_proposals(
            os.path.join(workdir, f"proposals_iter{iteration}.csv"), space)
        random.Random(f"{seed}/{iteration}").shuffle(rows)
        path = os.path.join(workdir, f"results{iteration}.csv")
        with open(path, "w") as f:
            f.write("id,k,v_mag\n")
            for pid, x in rows:
                k, v = evaluators.EVALUATORS["proxy"][0](x)
                f.write(f"{pid},{k:.17g},{v:.17g}\n")
        return path

    def _check_proposals(self, rec: Samples, workdir: str, iteration: int) -> None:
        _, space, _ = evaluators.EVALUATORS["proxy"]
        rows = evaluators.read_proposals(
            os.path.join(workdir, f"proposals_iter{iteration}.csv"), space)
        xs = np.array([x for _, x in rows])
        rec.check("proposals_in_bounds",
                  np.all((xs >= space.lowers) & (xs <= space.uppers)),
                  f"proposals_iter{iteration}.csv leaves the space")

    def setup(self, seed: int, workdir: str, rec: Samples | None = None,
              tracer=None) -> None:
        shutil.rmtree(workdir, ignore_errors=True)
        os.makedirs(workdir)
        _, space, thr = evaluators.EVALUATORS["proxy"]
        config = os.path.join(workdir, "config.json")
        with open(config, "w") as f:
            json.dump({"space": space.to_config(),
                       "acq": {"constraint_threshold": thr, "batch_size": 5,
                               "mc_samples": 1024},
                       "doe_n": self.doe_n, "seed": seed,
                       "evaluator": "external"}, f)
        codes = [_cli("init", "--config", config, "--dir", workdir)]
        results = self._evaluate(seed, workdir, 0)
        if rec is not None:
            with _untraced(tracer):
                self._check_atomic_ingest(rec, workdir)
        codes.append(_cli("ingest", results, "--dir", workdir))
        if any(codes):
            raise RuntimeError(f"ask-tell set-up exited {codes}")

    def _check_atomic_ingest(self, rec: Samples, workdir: str) -> None:
        """Results with ids that match no proposal: exit 3, state untouched."""
        state_path = os.path.join(workdir, "state.json")
        bad = os.path.join(workdir, "results_bad.csv")
        with open(bad, "w") as f:
            f.write("id,k,v_mag\nnot_a_proposal,1.0,2.0\n")
        with open(state_path, "rb") as f:
            before = f.read()
        code = _cli("ingest", bad, "--dir", workdir)
        with open(state_path, "rb") as f:
            after = f.read()
        rec.check("atomic_ingest", code == 3 and before == after,
                  f"mismatched ids exited {code}, state "
                  f"{'unchanged' if before == after else 'changed'}")

    def run(self, seed: int, workdir: str, rec: Samples, tracer=None) -> dict:
        self.setup(seed, workdir, rec, tracer)
        rec.raw_samples = OptimizerBudget().raw_samples

        def command(samples, *argv):
            if tracer is not None:
                tracer.begin_request()
            return rec.timed(samples, _cli, *argv)

        t0 = _now()
        for it in range(1, self.cycles + 1):
            if command(rec.propose_s, "propose", "--dir", workdir) != 0:
                break
            with _untraced(tracer):
                self._check_proposals(rec, workdir, it)
            results = self._evaluate(seed, workdir, it)
            if command(rec.ingest_s, "ingest", results, "--dir", workdir) != 0:
                break
        report = []
        codes = [command(report, "report", "--dir", workdir),
                 command(report, "slices", "--dir", workdir)]
        rec.report_s.append(sum(report))
        rec.campaign_s.append(_now() - t0)

        with _untraced(tracer):
            return self._verify(rec, workdir, codes)

    def _verify(self, rec: Samples, workdir: str, codes: list) -> dict:
        state_path = os.path.join(workdir, "state.json")
        state = campaign.load_state(state_path)
        rec.check("state_reloads",
                  codes == [0, 0] and state.iteration == self.cycles
                  and not state.pending
                  and len(state.dataset) == self.doe_n + 5 * self.cycles,
                  f"state after {self.cycles} cycles: iteration "
                  f"{state.iteration}, {len(state.dataset)} rows")
        rec.state_bytes = os.path.getsize(state_path)
        _check_state(rec, state)
        best, _ = campaign.best_so_far(state)
        with open(os.path.join(workdir, "table.csv")) as f:
            last = f.read().strip().splitlines()[-1].split(",")
        rec.check("report_matches_best",
                  best is not None and float(last[1]) == best.k,
                  f"table.csv reports {last[1]}, campaign best {best}")
        return _quality(state, self.k_star)


# Campaign counts keep one run of each workload at about 25-40 s on a 2-core
# machine, so that ten seeds of all three fit in a quarter of an hour.
WORKLOADS = {w.name: w for w in (
    Embedded("proxy_embedded", "proxy", 25.0, doe_n=10, iterations=10,
             k_star=PROXY_K_STAR, min_campaigns=1, traced_campaigns=1),
    AskTell("asktell_warm", doe_n=150, cycles=6, k_star=PROXY_K_STAR),
    Embedded("quadratic_tight", "quadratic", 0.3, doe_n=6, iterations=6,
             k_star=QUADRATIC_K_STAR, min_campaigns=3, traced_campaigns=2),
)}
