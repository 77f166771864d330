import numpy as np
import pytest

from chamberopt import optim
from chamberopt.acquisition import AcquisitionConfig
from chamberopt.errors import NumericError
from chamberopt.gp import GpHyperparameters, model_from_hyper, posterior
from chamberopt.optim import OptimizerBudget, propose_batch


def _planted_models(peak, d=2, n_extra=6, seed=0):
    """Models whose CEI surface has one dominant peak near `peak`: a single
    high objective observation there, flat feasible constraint everywhere."""
    rng = np.random.default_rng(seed)
    X = np.vstack([np.atleast_2d(peak), rng.uniform(size=(n_extra, d))])
    k = np.concatenate([[10.0], np.zeros(n_extra)])
    v = np.full(n_extra + 1, 5.0) + rng.normal(0, 0.1, n_extra + 1)
    hk = GpHyperparameters(lengthscales=np.full(d, 0.15), signal_variance=1.0)
    hv = GpHyperparameters(lengthscales=np.full(d, 1.0), signal_variance=0.5)
    mk = model_from_hyper(X, k, "objective", hk)
    mv = model_from_hyper(X, v, "constraint", hv)
    return mk, mv


def _closed_form_cei_grid(mk, mv, best, thr, res=201):
    g = np.linspace(0, 1, res)
    G = np.stack(np.meshgrid(g, g, indexing="ij"), axis=-1).reshape(-1, 2)
    mean_k, std_k = posterior(mk, G)
    mean_v, std_v = posterior(mv, G)
    from scipy.stats import norm
    z = np.where(std_k > 0, (mean_k - best) / np.where(std_k > 0, std_k, 1), 0)
    ei = np.where(std_k > 0,
                  (mean_k - best) * norm.cdf(z) + std_k * norm.pdf(z),
                  np.maximum(mean_k - best, 0))
    pf = np.where(std_v > 0,
                  norm.cdf((thr - mean_v) / np.where(std_v > 0, std_v, 1)),
                  (mean_v <= thr).astype(float))
    return G, pf * ei


def test_degenerate_flat_surface_completes():
    mk, mv = _planted_models([0.5, 0.5])
    config = AcquisitionConfig(constraint_threshold=-100.0, batch_size=2,
                               mc_samples=256)
    budget = OptimizerBudget(raw_samples=32, restarts=2)
    batch = propose_batch(mk, mv, config, budget, seed=0, incumbent_value=5.0)
    assert batch.shape == (2, 2)
    assert np.all(batch >= 0) and np.all(batch <= 1)


def test_single_peak_found_near_grid_argmax():
    peak = [0.62, 0.38]
    mk, mv = _planted_models(peak)
    best, thr = 1.0, 25.0
    config = AcquisitionConfig(constraint_threshold=thr, batch_size=1,
                               mc_samples=2048)
    batch = propose_batch(mk, mv, config, OptimizerBudget(), seed=1,
                          incumbent_value=best)
    G, vals = _closed_form_cei_grid(mk, mv, best, thr)
    g_star = G[np.argmax(vals)]
    assert np.linalg.norm(batch[0] - g_star) < 0.05


def test_q5_batch_points_distinct():
    mk, mv = _planted_models([0.3, 0.7], seed=3)
    config = AcquisitionConfig(constraint_threshold=25.0, batch_size=5,
                               mc_samples=512)
    budget = OptimizerBudget(raw_samples=64, restarts=4)
    batch = propose_batch(mk, mv, config, budget, seed=2, incumbent_value=1.0)
    assert batch.shape == (5, 2)
    for i in range(5):
        for j in range(i + 1, 5):
            assert np.linalg.norm(batch[i] - batch[j]) >= 1e-6


def test_determinism():
    mk, mv = _planted_models([0.4, 0.4], seed=5)
    config = AcquisitionConfig(constraint_threshold=25.0, batch_size=3,
                               mc_samples=512)
    budget = OptimizerBudget(raw_samples=64, restarts=3)
    a = propose_batch(mk, mv, config, budget, seed=11, incumbent_value=1.0)
    b = propose_batch(mk, mv, config, budget, seed=11, incumbent_value=1.0)
    np.testing.assert_array_equal(a, b)


def test_numeric_failure_scores_one_candidate(monkeypatch):
    mk, mv = _planted_models([0.8, 0.3], seed=4)
    real = optim.qcei_mc

    def flaky(model_k, model_v, XS, *args, **kwargs):
        # a (q, d) batch or an (R, q, d) stack fails if any batch in it does
        if np.any(XS[..., 0, 0] > 0.5):
            raise NumericError("Cholesky factorization failed")
        return real(model_k, model_v, XS, *args, **kwargs)

    monkeypatch.setattr(optim, "qcei_mc", flaky)
    config = AcquisitionConfig(constraint_threshold=25.0, batch_size=3,
                               mc_samples=256)
    budget = OptimizerBudget(raw_samples=32, restarts=3)
    batch = propose_batch(mk, mv, config, budget, seed=6, incumbent_value=1.0)
    assert batch.shape == (3, 2)
    assert np.all(batch >= 0.0) and np.all(batch <= 1.0)
    assert batch[0, 0] <= 0.5      # a failed candidate never wins


def test_containment():
    mk, mv = _planted_models([0.99, 0.01], seed=7)
    config = AcquisitionConfig(constraint_threshold=25.0, batch_size=4,
                               mc_samples=512)
    budget = OptimizerBudget(raw_samples=64, restarts=4)
    batch = propose_batch(mk, mv, config, budget, seed=3, incumbent_value=1.0)
    assert np.all(batch >= 0.0) and np.all(batch <= 1.0)


def _mc_surface_on_grid(mk, mv, best, thr, zk, zv, res=201):
    """q=1 MC acquisition on a res x res grid, same base draws as the
    optimizer run being checked."""
    g = np.linspace(0, 1, res)
    G = np.stack(np.meshgrid(g, g, indexing="ij"), axis=-1).reshape(-1, 2)
    mean_k, std_k = posterior(mk, G)
    mean_v, std_v = posterior(mv, G)
    vals = np.empty(G.shape[0])
    chunk = 1000
    for lo in range(0, G.shape[0], chunk):
        hi = min(lo + chunk, G.shape[0])
        ks = mean_k[lo:hi, None] + std_k[lo:hi, None] * zk[None, :]
        vs = mean_v[lo:hi, None] + std_v[lo:hi, None] * zv[None, :]
        imp = np.maximum(ks - best, 0.0)
        imp[vs > thr] = 0.0
        vals[lo:hi] = imp.mean(axis=1)
    return G, vals


def test_grid_oracle_dominance_2d():
    # the optimizer's value on its own MC surface should essentially match a
    # dense grid scan of that surface
    rng = np.random.default_rng(21)
    trials = 8
    for t in range(trials):
        X = rng.uniform(size=(12, 2))
        k = rng.normal(0, 2, 12)
        v = rng.normal(20, 3, 12)
        hk = GpHyperparameters(lengthscales=rng.uniform(0.2, 0.8, 2),
                               signal_variance=1.0)
        hv = GpHyperparameters(lengthscales=rng.uniform(0.3, 1.0, 2),
                               signal_variance=1.0)
        mk = model_from_hyper(X, k, "objective", hk)
        mv = model_from_hyper(X, v, "constraint", hv)
        best, thr = float(np.max(k)), 22.0
        mc = 2048
        config = AcquisitionConfig(constraint_threshold=thr, batch_size=1,
                                   mc_samples=mc)
        seed = 100 + t
        batch = propose_batch(mk, mv, config, OptimizerBudget(), seed,
                              incumbent_value=best)
        # reproduce the base draws propose_batch derives from its seed
        r = np.random.default_rng(seed)
        zk = r.standard_normal((mc, 1))[:, 0]
        zv = r.standard_normal((mc, 1))[:, 0]
        G, vals = _mc_surface_on_grid(mk, mv, best, thr, zk, zv)
        from chamberopt.acquisition import qcei_mc
        found = qcei_mc(mk, mv, batch, best, thr,
                        base_k=zk[:, None], base_v=zv[:, None])
        grid_max = float(np.max(vals))
        assert found >= 0.999 * grid_max or grid_max < 1e-12


def test_budget_validation():
    with pytest.raises(ValueError):
        OptimizerBudget(raw_samples=0)
    with pytest.raises(ValueError, match="restarts"):
        OptimizerBudget(restarts=np.int64(2))


def test_singular_batch_in_screen_scores_alone():
    # a batch holding one point twice has a singular posterior covariance,
    # so the stacked Cholesky of its chunk may fail and the chunk is then
    # rescored one batch at a time
    mk, mv = _planted_models([0.6, 0.4], seed=8)
    rng = np.random.default_rng(9)
    base_k, base_v = rng.standard_normal((512, 5)), rng.standard_normal((512, 5))

    def acquisition(XS):
        return optim.qcei_mc(mk, mv, XS, 1.0, 25.0, base_k, base_v)

    stack = rng.uniform(size=(2 * optim._SCREEN_CHUNK + 3, 5, 2))
    plain = optim._screen(acquisition, stack)
    singular = stack.copy()
    singular[3, 1] = singular[3, 0]
    scores = optim._screen(acquisition, singular)
    assert scores[3] == optim._score(acquisition, singular[3])
    others = np.arange(len(stack)) != 3
    np.testing.assert_allclose(scores[others], plain[others], rtol=1e-10, atol=0.0)


def test_refinement_scores_stacks_only(monkeypatch):
    # the screen and every pattern-search sweep score (R, q, d) stacks
    mk, mv = _planted_models([0.7, 0.2], seed=10)
    shapes = []

    def recorded(fn, xs_arg):
        def wrapper(*args, **kwargs):
            shapes.append(args[xs_arg].ndim)
            return fn(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(optim, "qcei_mc", recorded(optim.qcei_mc, 2))
    monkeypatch.setattr(optim, "q_feasibility_mc",
                        recorded(optim.q_feasibility_mc, 1))
    config = AcquisitionConfig(constraint_threshold=25.0, batch_size=2,
                               mc_samples=128)
    budget = OptimizerBudget(raw_samples=16, restarts=3)
    for incumbent_value in (1.0, None):
        shapes.clear()
        propose_batch(mk, mv, config, budget, seed=4,
                      incumbent_value=incumbent_value)
        assert len(shapes) > 16 // optim._SCREEN_CHUNK
        assert set(shapes) == {3}


def test_lockstep_restarts_end_independently():
    # a bowl steep enough that every restart ends on _STEP_MIN: on a unit
    # bowl a move near c gains less than _GAIN_TOL about 1e-3 away from it
    c = np.array([[0.3, 0.6], [0.55, 0.2]])
    calls = []

    def acquisition(XS):
        calls.append(XS.shape)
        return -1e6 * np.sum((XS - c) ** 2, axis=(-2, -1))

    x0 = np.stack([np.full((2, 2), 0.9), c, np.zeros((2, 2))])
    x, fx = optim._pattern_search(acquisition, x0, acquisition(x0))
    assert np.all(np.abs(x - c) <= 2 * optim._STEP_MIN)
    np.testing.assert_array_equal(x[1], c)
    np.testing.assert_array_equal(fx, acquisition(x))
    assert all(len(shape) == 3 for shape in calls)
