"""Campaign benchmark for chamberopt: one closed-loop workload per run.

    python3 campaign_bench/run.py --workload proxy_embedded --seed 0 \\
        --seconds 10 --trace 0

Run from the root of a checkout; the program is imported from ``src/``.
``--trace 0`` measures the end-to-end metrics with nothing wrapped.
``--trace 1`` runs the same campaigns untraced and then again with spans
recorded at every layer boundary, and reports per-layer counts and times
plus the tracing overhead. Each metric is printed by name and unit, and the
last line of standard output is one JSON object with the gated metrics.

Outputs go to ``campaign_bench/out/``: the full result with the environment
it was measured on, the spans of a traced run, and a replay record that
makes a later run of the same code and seed check that its quality values
are bit-identical.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT = os.path.join(HERE, "out")
SRC = os.path.join(ROOT, "src")

SETUP_REPEATS = 3

END_TO_END_UNITS = {
    "setup_s": "s", "campaign_s": "s", "propose_p50_s": "s",
    "propose_tail_s": "s", "ingest_p50_s": "s", "report_s": "s",
    "regret_rel": "ratio", "optimum_frac": "ratio", "evals_to_1pct": "count",
    "feasible_frac": "ratio", "fail_frac": "ratio", "peak_rss_mb": "MB",
}
# The metrics in the final JSON line: defined on every workload, never zero,
# and steady from seed to seed. The other timings are printed and saved but
# not gated: on a shared 2-core host their run-to-run spread is 20-30%
# whatever the run length, because slow periods outlast a run (README).
GATED = ("setup_s", "optimum_frac", "peak_rss_mb")


def _import_program():
    """Import chamberopt from this checkout's ``src``, never from elsewhere."""
    sys.path.insert(0, SRC)
    try:
        import chamberopt
    except ImportError as e:
        print(f"cannot import chamberopt from {SRC}: {e}", file=sys.stderr)
        sys.exit(2)
    if not os.path.abspath(chamberopt.__file__).startswith(SRC + os.sep):
        print(f"chamberopt was imported from {chamberopt.__file__}, "
              f"not from {SRC}", file=sys.stderr)
        sys.exit(2)


def _median(xs):
    return statistics.median(xs) if xs else None


def _tail(xs):
    """Highest percentile with at least ten samples beyond it, or None."""
    n = len(xs)
    if n < 11:
        return None
    return sorted(xs)[n - 11], 100.0 * (n - 10) / n, n


# ------------------------------------------------------------- environment

def _blas():
    """BLAS library numpy was built with, and its current thread count."""
    import numpy as np
    try:
        info = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        name = f"{info.get('name')} {info.get('version')}"
    except (AttributeError, KeyError, TypeError):
        name = "unknown"
    threads = "unknown"
    libdir = os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs")
    libs = [f for f in os.listdir(libdir) if "blas" in f] if os.path.isdir(libdir) else []
    if libs:
        import ctypes
        lib = ctypes.CDLL(os.path.join(libdir, libs[0]))
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                    "openblas_get_num_threads"):
            fn = getattr(lib, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                threads = fn()
                break
    return name, threads


def environment() -> dict:
    import numpy
    import scipy

    from chamberopt import kernels
    try:
        import numba  # noqa: F401
        numba_imports = True
    except ImportError:
        numba_imports = False
    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo") as f:
            cpu = next((line.split(":", 1)[1].strip() for line in f
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    try:
        commit = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                                capture_output=True, text=True, timeout=30)
        commit = commit.stdout.strip() if commit.returncode == 0 else "unknown"
    except (OSError, subprocess.TimeoutExpired):
        commit = "unknown"
    blas, threads = _blas()
    return {"nproc": len(os.sched_getaffinity(0)), "cpu": cpu,
            "python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__, "blas": blas, "blas_threads": threads,
            "numba_imports": numba_imports, "USING_NUMBA": kernels.USING_NUMBA,
            "git_commit": commit, "source_sha256": source_fingerprint()}


def source_fingerprint() -> str:
    h = hashlib.sha256()
    pkg = os.path.join(SRC, "chamberopt")
    for name in sorted(os.listdir(pkg)):
        if name.endswith(".py"):
            h.update(name.encode())
            with open(os.path.join(pkg, name), "rb") as f:
                h.update(f.read())
    return h.hexdigest()


# ------------------------------------------------------------------ set-up

def _setup_probe(workload, seed: int) -> None:
    """Child process: set the workload up, print the time it became ready."""
    workload.setup(seed, os.path.join(OUT, f"{workload.name}-s{seed}-probe"))
    print(time.perf_counter())


def measure_setup(name: str, seed: int) -> list[float]:
    """Process start to first timed step, in fresh interpreters.

    ``perf_counter`` reads the system-wide monotonic clock on Linux, so the
    child's ready time and the parent's spawn time are comparable.
    """
    times = []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        child = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--workload", name,
             "--seed", str(seed), "--setup-probe"],
            capture_output=True, text=True, timeout=150, cwd=ROOT)
        if child.returncode != 0:
            raise RuntimeError(f"set-up probe failed:\n{child.stderr}")
        times.append(float(child.stdout.split()[-1]) - t0)
    shutil.rmtree(os.path.join(OUT, f"{name}-s{seed}-probe"), ignore_errors=True)
    return times


# --------------------------------------------------------------- workloads

def run_campaigns(workload, seed: int, seconds: float, count: int | None,
                  rec, tracer=None, tag: str = "") -> list[dict]:
    """Run campaigns until ``count`` are done, or, with ``count`` None, at
    least ``workload.min_campaigns`` and until ``seconds`` have passed."""
    from workloads import campaign_seed
    t0 = time.perf_counter()
    quality, j = [], 0
    while True:
        if count is not None and j >= count:
            break
        if (count is None and j >= workload.min_campaigns
                and time.perf_counter() - t0 >= seconds):
            break
        cseed = campaign_seed(seed, j)
        workdir = os.path.join(OUT, f"{workload.name}-s{seed}{tag}-c{j}")
        q = workload.run(cseed, workdir, rec, tracer)
        shutil.rmtree(workdir)
        quality.append({"campaign_seed": cseed, **q})
        j += 1
    return quality


def quality_metrics(quality: list[dict]) -> dict:
    return {k: _median([q[k] for q in quality])
            for k in ("regret_rel", "evals_to_1pct", "feasible_frac")}


def check_replay(workload, quality: list[dict], rec) -> None:
    """Quality values of a campaign must repeat bit for bit for the same code.

    The record lives in ``out/replay.json`` keyed by a hash of the program
    source and by the workload's definition, so a second run of a seed checks
    against the first.
    """
    path = os.path.join(OUT, "replay.json")
    try:
        with open(path) as f:
            record = json.load(f)
    except (OSError, ValueError):
        record = {}
    runs = record.setdefault(source_fingerprint(), {})
    for q in quality:
        key = f"{workload!r}/{q['campaign_seed']}"
        value = {"regret_rel": q["regret_rel"], "evals_to_1pct": q["evals_to_1pct"]}
        if key in runs:
            rec.check("replay_identical", runs[key] == value,
                      f"{key}: {value} differs from an earlier run's {runs[key]}")
        runs[key] = value
    tmp = path + ".tmp"
    with open(tmp, "w") as f:
        json.dump(record, f, indent=1)
    os.replace(tmp, path)


def end_to_end(workload, rec, quality, setup) -> dict:
    q = quality_metrics(quality[:workload.min_campaigns])
    return {"setup_s": _median(setup), "campaign_s": _median(rec.campaign_s),
            "propose_p50_s": _median(rec.propose_s),
            "propose_tail_s": _tail(rec.propose_s),
            "ingest_p50_s": _median(rec.ingest_s),
            "report_s": _median(rec.report_s),
            "regret_rel": q["regret_rel"], "optimum_frac": 1.0 - q["regret_rel"],
            "evals_to_1pct": q["evals_to_1pct"],
            "feasible_frac": q["feasible_frac"],
            "fail_frac": rec.failed / max(1, rec.attempted),
            "peak_rss_mb":
                resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024}


def per_layer(tr, rec, untraced_s: float, traced_s: float) -> dict:
    """The per-layer metrics, all taken from the traced campaigns."""
    s = tr.summary()
    zero = {"calls": 0, "busy_s": 0.0, "self_s": 0.0}

    def get(name, field):
        return s.get(name, zero)[field]

    m = {}
    for name in ("kernels.matern52_cross", "kernels.matern52_cross_grad",
                 "kernels.mc_batch_improvement", "kernels.mc_batch_feasibility",
                 "gp.lml_and_grad", "gp.joint_posterior_samples", "gp.posterior",
                 "acquisition.qcei_mc", "acquisition.q_feasibility_mc",
                 "optim.propose_batch", "evaluators.Dataset.append",
                 "campaign.load_state"):
        m[f"{name}.calls"] = get(name, "calls")
        m[f"{name}.busy_s"] = get(name, "busy_s")
    m["kernels.matern52_cross.bytes"] = tr.computed_bytes["kernels.matern52_cross"]
    m["gp.fit.calls"] = get("gp.fit_objective", "calls") + get("gp.fit_constraint", "calls")
    m["gp.fit_objective.busy_s"] = get("gp.fit_objective", "busy_s")
    m["gp.fit_constraint.busy_s"] = get("gp.fit_constraint", "busy_s")
    m["gp.lml_and_grad.failed"] = tr.failed["gp.lml_and_grad"]
    proposals = m["optim.propose_batch.calls"]
    m["acquisition.evals_per_proposal"] = (
        (m["acquisition.qcei_mc.calls"] + m["acquisition.q_feasibility_mc.calls"])
        / max(1, proposals))
    m["optim.propose_batch.self_s"] = get("optim.propose_batch", "self_s")
    m["optim.raw_score_s"], m["optim.refine_s"] = tr.raw_refine_split(rec.raw_samples)
    m["optim.distinct_frac"] = tr.distinct[0] / max(1, tr.distinct[1])
    m["evaluators.evaluate.calls"] = get("evaluators.evaluate", "calls")
    for name in ("evaluators.read_results", "evaluators.write_proposals",
                 "space.latin_hypercube", "campaign.step", "campaign.fit_models",
                 "campaign.ingest", "campaign.save_state", "report.emit_table",
                 "report.emit_slices"):
        m[f"{name}.busy_s"] = get(name, "busy_s")
    m["space.to_unit.calls"] = get("space.to_unit", "calls")
    m["campaign.state_bytes"] = rec.state_bytes
    m["cli.main.calls"] = get("cli.main", "calls")
    m["cli.main.failed"] = tr.failed["cli.main"]
    for command in ("init", "propose", "ingest", "report", "slices"):
        m[f"cli.{command}.busy_s"] = get(f"cli.{command}", "busy_s")
    for layer in ("space", "kernels", "gp", "acquisition", "evaluators",
                  "campaign", "report", "cli"):
        m[f"{layer}.self_s"] = sum(v["self_s"] for k, v in s.items()
                                   if k.split(".")[0] == layer)
    m["trace.spans"] = len(tr.start)
    m["trace.overhead_frac"] = traced_s / untraced_s - 1.0
    return m


_PER_LAYER_UNITS = (("calls", "count"), ("failed", "count"), ("spans", "count"),
                    ("state_bytes", "B"), ("bytes", "B-computed"), ("_s", "s"),
                    ("_frac", "ratio"), ("per_proposal", "count"))


def layer_unit(name: str) -> str:
    return next(u for suffix, u in _PER_LAYER_UNITS if name.endswith(suffix))


# ------------------------------------------------------------------ output

def _fmt(name, value):
    if value is None:
        return f"{name:<34} n/a"
    if name == "propose_tail_s":
        v, pct, n = value
        return (f"{name:<34} {v:.6g} s   (p{pct:.1f} of {n} proposals, "
                f"10 beyond it)")
    unit = END_TO_END_UNITS.get(name) or layer_unit(name)
    return f"{name:<34} {value:.6g} {unit}"


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=10.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = p.parse_args(argv)

    _import_program()
    from workloads import WORKLOADS, Samples
    if args.workload not in WORKLOADS:
        p.error(f"unknown workload {args.workload!r}; "
                f"choose from {', '.join(WORKLOADS)}")
    workload = WORKLOADS[args.workload]
    os.makedirs(OUT, exist_ok=True)
    if args.setup_probe:
        _setup_probe(workload, args.seed)
        return 0

    print(f"workload {workload.name}  seed {args.seed}  trace {args.trace}  "
          f"closed loop, 1 client")
    rec = Samples()
    result = {"workload": workload.name, "seed": args.seed, "trace": args.trace}
    if args.trace == 0:
        setup = measure_setup(workload.name, args.seed)
        quality = run_campaigns(workload, args.seed, args.seconds, None, rec)
        metrics = end_to_end(workload, rec, quality, setup)
        for name in END_TO_END_UNITS:
            print(_fmt(name, metrics[name]))
        reported = {k: {"value": metrics[k], "unit": END_TO_END_UNITS[k]}
                    for k in GATED}
        result["samples"] = {"setup_s": setup, "campaign_s": rec.campaign_s,
                             "propose_s": rec.propose_s, "ingest_s": rec.ingest_s,
                             "report_s": rec.report_s}
    else:
        from tracer import Tracer, install
        count = workload.traced_campaigns
        plain = Samples()
        untraced = run_campaigns(workload, args.seed, 0, count, plain, tag="-u")
        tr = Tracer()
        uninstall = install(tr)
        try:
            quality = run_campaigns(workload, args.seed, 0, count, rec, tr)
        finally:
            uninstall()
        rec.check("replay_identical",
                  [(q["regret_rel"], q["evals_to_1pct"]) for q in quality]
                  == [(q["regret_rel"], q["evals_to_1pct"]) for q in untraced],
                  "traced and untraced campaigns reached different designs")
        metrics = per_layer(tr, rec, sum(plain.campaign_s), sum(rec.campaign_s))
        for name, value in metrics.items():
            print(_fmt(name, value))
        reported = {k: {"value": v, "unit": layer_unit(k)} for k, v in metrics.items()}
        tr.save(os.path.join(OUT, f"{workload.name}-s{args.seed}.trace.npz"))
    check_replay(workload, quality, rec)

    result.update(metrics=metrics, quality=quality, checks=rec.checks,
                  problems=rec.problems, attempted=rec.attempted,
                  failed=rec.failed, environment=environment())
    env = result["environment"]
    print("environment " + "  ".join(f"{k}={v}" for k, v in env.items()))
    for name, ok in rec.checks.items():
        print(f"check {name:<24} {'ok' if ok else 'FAILED'}")
    for problem in rec.problems:
        print(f"problem {problem}")
    with open(os.path.join(OUT, f"{workload.name}-s{args.seed}-t{args.trace}.json"),
              "w") as f:
        json.dump(result, f, indent=1, default=str)

    correct = all(rec.checks.values())
    print(json.dumps({"correct": correct, "attempted": rec.attempted,
                      "failed": rec.failed, "metrics": reported}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
