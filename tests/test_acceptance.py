"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -v`. The end-to-end criteria
run full campaigns and take a few minutes.
"""

import csv
import os
import subprocess
import sys
import time

import numpy as np
import pytest

import chamberopt
from chamberopt.acquisition import (AcquisitionConfig, constrained_ei,
                                    expected_improvement, probability_feasible,
                                    qcei_mc)
from chamberopt.campaign import (best_so_far, fit_models, init_campaign,
                                 load_state, run_campaign, save_state, step,
                                 ingest)
from chamberopt.errors import ProtocolError
from chamberopt.evaluators import (proxy_prechamber, read_proposals,
                                   write_proposals)
from chamberopt.gp import (GpHyperparameters, PosteriorGaussian, lml_and_grad,
                           model_from_hyper, posterior, posterior_at)
from chamberopt.optim import OptimizerBudget
from chamberopt.space import PRECHAMBER_SPACE, latin_hypercube

from oracles import dense_posterior

THRESHOLD = 25.0

_CAPSYS = None


@pytest.fixture(autouse=True)
def _passline_capture(capsys):
    # lets _ok bypass output capture so PASS lines show without -s
    global _CAPSYS
    _CAPSYS = capsys
    yield
    _CAPSYS = None


def _ok(n, msg):
    if _CAPSYS is not None:
        with _CAPSYS.disabled():
            print(f"\nACCEPTANCE {n} PASS: {msg}")
    else:
        print(f"\nACCEPTANCE {n} PASS: {msg}")


# ---------------------------------------------------------------- criterion 1

def test_criterion_1_gp_oracle_equivalence():
    rng = np.random.default_rng(101)
    t0 = time.perf_counter()
    worst = 0.0
    for _ in range(50):
        n = rng.integers(3, 51)
        d = rng.integers(1, 7)
        X = rng.uniform(size=(n, d))
        y = rng.normal(size=n)
        h = GpHyperparameters(lengthscales=rng.uniform(0.1, 1.5, d),
                              signal_variance=rng.uniform(0.3, 3.0))
        m = model_from_hyper(X, y, "objective", h)
        Xq = rng.uniform(size=(100, d))
        # the oracle works in standardized units
        s = m.standardize
        mean, std = posterior(m, Xq)
        mean, std = (mean - s.center) / s.scale, std / s.scale
        om, os_ = dense_posterior(X, (y - s.center) / s.scale, h.lengthscales,
                                  h.signal_variance, h.noise_std, Xq)
        worst = max(worst, np.max(np.abs(mean - om)), np.max(np.abs(std - os_)))
    elapsed = time.perf_counter() - t0
    assert worst < 1e-8
    assert elapsed < 30.0
    _ok(1, f"max |Δ| = {worst:.2e} over 50 datasets in {elapsed:.1f}s")


# ---------------------------------------------------------------- criterion 2

def test_criterion_2_lml_gradient():
    rng = np.random.default_rng(102)
    X = rng.uniform(size=(15, 3))
    y = rng.normal(size=15)
    h = 1e-6
    worst = 0.0
    for _ in range(20):
        p = np.append(rng.uniform(np.log(0.1), np.log(2.0), 3),
                      rng.uniform(np.log(0.3), np.log(3.0)))
        _, grad = lml_and_grad(X, y, p)
        for i in range(4):
            pp, pm = p.copy(), p.copy()
            pp[i] += h
            pm[i] -= h
            fd = (lml_and_grad(X, y, pp)[0] - lml_and_grad(X, y, pm)[0]) / (2 * h)
            rel = abs(grad[i] - fd) / max(abs(fd), 1e-8)
            worst = max(worst, rel)
    assert worst < 1e-4
    _ok(2, f"max relative gradient error {worst:.2e} at 20 settings")


# ---------------------------------------------------------------- criterion 3

def _mc_payoff_samples(mk, mv, x, best, n, seed):
    """Per-sample constrained improvements at a single point, with the
    base normals drawn as propose_batch draws them (one rng -> base_k then
    base_v)."""
    rng = np.random.default_rng(seed)
    base_k = rng.standard_normal((n, 1))
    base_v = rng.standard_normal((n, 1))
    gk = posterior_at(mk, x)
    gv = posterior_at(mv, x)
    ks = gk.mean + gk.std * base_k[:, 0]
    vs = gv.mean + gv.std * base_v[:, 0]
    payoff = np.maximum(ks - best, 0.0)
    payoff[vs > THRESHOLD] = 0.0
    return payoff, base_k, base_v


def test_criterion_3_mc_vs_closed_form():
    rng = np.random.default_rng(103)
    X = rng.uniform(size=(12, 3))
    k = 100 + 40 * np.sin(4 * X[:, 0]) + 25 * X[:, 1] - 10 * X[:, 2]
    v = 18 + 8 * X[:, 0]
    mk = model_from_hyper(X, k, "objective",
                          GpHyperparameters(np.full(3, 0.4), 1.0))
    mv = model_from_hyper(X, v, "constraint",
                          GpHyperparameters(np.full(3, 0.5), 1.0))
    inc = 110.0

    checked_small = 0
    for t in range(50):
        x = rng.uniform(size=3)
        gk = posterior_at(mk, x)
        gv = posterior_at(mv, x)
        cf = constrained_ei(gk, gv, inc, THRESHOLD)

        n = 10**6
        payoff, bk, bv = _mc_payoff_samples(mk, mv, x, inc, n, seed=500 + t)
        est = qcei_mc(mk, mv, x[None, :], inc, THRESHOLD, base_k=bk, base_v=bv)
        assert est == pytest.approx(payoff.mean(), rel=1e-9)
        se = payoff.std() / np.sqrt(n)
        assert abs(est - cf) <= 3 * se + 1e-12

        small = np.random.default_rng(900 + t)
        est_small = qcei_mc(mk, mv, x[None, :], inc, THRESHOLD,
                            base_k=small.standard_normal((1024, 1)),
                            base_v=small.standard_normal((1024, 1)))
        if cf > 0.01:
            checked_small += 1
            assert abs(est_small - cf) / cf < 0.10
    assert checked_small > 0
    _ok(3, f"50 points vs closed form; {checked_small} above 0.01 "
           f"within 10% at 1024 samples")


# ---------------------------------------------------------------- criterion 4

def test_criterion_4_closed_form_spot_values():
    ei = expected_improvement(PosteriorGaussian(0.0, 1.0), 0.0)
    assert ei == pytest.approx(0.39894, abs=1e-5)
    pf = probability_feasible(PosteriorGaussian(THRESHOLD, 2.0), THRESHOLD)
    assert pf == pytest.approx(0.5, abs=1e-12)
    _ok(4, f"EI(mu=best,std=1)={ei:.6f}, PF(mu=threshold)={pf}")


# ---------------------------------------------------------------- criterion 5

def test_criterion_5_lhs_stratification():
    for seed in range(100):
        u = latin_hypercube(PRECHAMBER_SPACE, 10, seed)
        deciles = np.floor(u * 10).astype(int)
        for j in range(3):
            assert sorted(deciles[:, j]) == list(range(10))
    _ok(5, "10-sample 3-D LHS hits each decile exactly once for 100 seeds")


# ---------------------------------------------------------------- criterion 6

def _proxy_grid_optimum(res=201):
    g = np.linspace(0, 1, res)
    U1, U2, U3 = np.meshgrid(g, g, g, indexing="ij")
    k = 60 + 220 * np.exp(-((U2 - 0.33) ** 2) / 0.08) * (0.4 + 0.6 * U1 * U3)
    v = 12 + 18 * np.exp(-((U2 - 0.25) ** 2) / 0.10) * (0.5 + 0.5 * U1)
    k[v > THRESHOLD] = -np.inf
    i = np.unravel_index(np.argmax(k), k.shape)
    return float(k[i]), float(v[i])


def test_criterion_6_proxy_end_to_end():
    k_star, v_star = _proxy_grid_optimum()
    assert k_star == pytest.approx(253.566870612905, abs=1e-9)
    assert 24.0 < v_star <= 25.0

    acq = AcquisitionConfig(constraint_threshold=THRESHOLD, mc_samples=1024,
                            batch_size=5)
    improved = 0
    near_opt = 0
    worst_time = 0.0
    for seed in range(10):
        t0 = time.perf_counter()
        st = init_campaign(PRECHAMBER_SPACE, acq, OptimizerBudget(),
                           doe_n=10, seed=seed, evaluator="proxy")
        st = run_campaign(st, 10)
        worst_time = max(worst_time, time.perf_counter() - t0)
        best, trace = best_so_far(st)
        assert best is not None and best.v <= THRESHOLD
        for entry in trace:
            if entry["cumulative"] is not None:
                assert entry["cumulative"].v <= THRESHOLD
        doe_best = trace[0]["cumulative"]
        it3_best = trace[3]["cumulative"]
        if doe_best is None or (it3_best is not None
                                and it3_best.k > doe_best.k):
            improved += 1
        if best.k >= 0.98 * k_star:
            near_opt += 1
    assert improved >= 9
    assert near_opt >= 8
    assert worst_time < 300.0
    _ok(6, f"improved over DOE in {improved}/10, within 2% of grid optimum "
           f"in {near_opt}/10, slowest seed {worst_time:.0f}s")


# ---------------------------------------------------------------- criterion 7

def test_criterion_7_quadratic_end_to_end():
    from chamberopt.evaluators import QUADRATIC_SPACE
    acq = AcquisitionConfig(constraint_threshold=1.0, mc_samples=1024,
                            batch_size=5)
    hits = 0
    for seed in range(10):
        st = init_campaign(QUADRATIC_SPACE, acq, OptimizerBudget(),
                           doe_n=10, seed=seed, evaluator="quadratic")
        st = run_campaign(st, 15)
        best, _ = best_so_far(st)
        assert best is not None and best.v <= 1.0
        if abs(best.k - (-0.08)) <= 0.01:
            hits += 1
    assert hits >= 9
    _ok(7, f"within 0.01 of the analytic constrained optimum in {hits}/10 seeds")


# ---------------------------------------------------------------- criterion 8

def test_criterion_8_workflow_shape(tmp_path):
    from chamberopt.cli import main
    d = str(tmp_path)
    assert main(["run", "--dir", d, "--evaluator", "proxy", "--doe", "10",
                 "--iters", "3", "--q", "5", "--seed", "7"]) == 0
    with open(tmp_path / "table.csv") as f:
        rows = list(csv.reader(f))
    assert len(rows) == 5                      # header + DoE + 3 iterations
    assert [r[0] for r in rows[1:]] == ["doe", "iter1", "iter2", "iter3"]

    assert main(["slices", "--dir", d]) == 0
    grids = [tmp_path / f"slice_{dim}_{col}.csv"
             for dim in ("d_bottle", "d_bore", "h_neck")
             for col in ("mean", "std")]
    assert all(p.exists() for p in grids)

    st = load_state(tmp_path / "state.json")
    mk, _ = fit_models(st)
    inc, _ = best_so_far(st)
    u_star = st.space.to_unit(np.asarray(inc.x))
    _, std_star = posterior(mk, u_star[None, :])
    prior_std = np.sqrt(mk.hyper.signal_variance) * mk.standardize.scale
    assert std_star[0] < 0.1 * prior_std
    _ok(8, f"4-row table + 6 slice grids; std at incumbent "
           f"{std_star[0]:.3g} < 0.1 x prior {prior_std:.3g}")


# ---------------------------------------------------------------- criterion 9

def test_criterion_9_protocol_robustness(tmp_path):
    acq = AcquisitionConfig(constraint_threshold=THRESHOLD, mc_samples=128,
                            batch_size=3)
    budget = OptimizerBudget(raw_samples=32, restarts=3)

    # external round trip is lossless
    st = init_campaign(PRECHAMBER_SPACE, acq, budget, doe_n=4, seed=1,
                       evaluator="external")
    ppath = tmp_path / "proposals_iter0.csv"
    write_proposals(ppath, st.space, st.pending)
    back = read_proposals(ppath, st.space)
    np.testing.assert_allclose(np.array([x for _, x in back]),
                               np.array([list(x) for _, x in st.pending]),
                               atol=1e-12, rtol=0)
    rpath = tmp_path / "r0.csv"
    with open(rpath, "w") as f:
        f.write("id,k,v_mag\n")
        for pid, x in back:
            k, v = proxy_prechamber(x)
            f.write(f"{pid},{k:.17g},{v:.17g}\n")
    st = ingest(st, rpath)
    assert len(st.dataset) == 4

    # mismatched ids fail atomically
    st2 = step(st, campaign_dir=str(tmp_path))
    bad = tmp_path / "bad.csv"
    bad.write_text("id,k,v_mag\nnot_a_proposal,1.0,2.0\n")
    n_before, pending_before = len(st2.dataset), list(st2.pending)
    with pytest.raises(ProtocolError):
        ingest(st2, bad)
    assert len(st2.dataset) == n_before and st2.pending == pending_before

    # save/load structural round trip
    spath = tmp_path / "state.json"
    save_state(st2, spath)
    st3 = load_state(spath)
    assert st3.pending == st2.pending
    assert len(st3.dataset) == len(st2.dataset)
    for a, b in zip(st3.dataset, st2.dataset):
        assert a == b
    assert st3.acq == st2.acq and st3.budget == st2.budget

    # fixed-seed embedded runs are bit-identical across two executions; the
    # subprocess imports chamberopt from where this test imported it
    src = os.path.dirname(os.path.dirname(chamberopt.__file__))
    env = {**os.environ, "PYTHONPATH": src}
    cmd = [sys.executable, "-m", "chamberopt.cli", "run", "--evaluator",
           "proxy", "--doe", "5", "--iters", "1", "--q", "2", "--seed", "3",
           "--raw-samples", "32", "--restarts", "2",
           "--mc-samples", "256"]
    blobs = []
    for sub in ("a", "b"):
        d = tmp_path / sub
        d.mkdir()
        r = subprocess.run(cmd + ["--dir", str(d)], capture_output=True,
                           env=env)
        assert r.returncode == 0, r.stderr.decode()
        blobs.append((d / "state.json").read_bytes())
    assert blobs[0] == blobs[1]
    _ok(9, "protocol round trip, atomic failure, save/load equality, "
           "bit-identical replay")
