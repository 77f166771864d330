import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from chamberopt import optim
from chamberopt.acquisition import AcquisitionConfig, qcei_mc
from chamberopt.errors import DegenerateDataError, NumericError
from chamberopt.evaluators import Dataset
from chamberopt.gp import GpHyperparameters, fit, model_from_hyper, posterior
from chamberopt.optim import OptimizerBudget, propose_batch
from chamberopt.space import unit_latin_hypercube


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


def _at_peak(mk, value):
    """An incumbent with the given value at the planted peak, the argmax row
    of ``_planted_models``' data."""
    return value, mk.train_inputs[0]


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
    batch = propose_batch(mk, mv, config, budget, seed=0,
                          incumbent=_at_peak(mk, 5.0))
    assert batch.shape == (2, 2)
    assert np.all(batch >= 0) and np.all(batch <= 1)


def test_single_peak_found_near_grid_argmax():
    peak = [0.62, 0.38]
    mk, mv = _planted_models(peak)
    best, thr = 1.0, 25.0
    config = AcquisitionConfig(constraint_threshold=thr, batch_size=1,
                               mc_samples=2048)
    batch = propose_batch(mk, mv, config, OptimizerBudget(), seed=1,
                          incumbent=_at_peak(mk, best))
    G, vals = _closed_form_cei_grid(mk, mv, best, thr)
    g_star = G[np.argmax(vals)]
    assert np.linalg.norm(batch[0] - g_star) < 0.05


def test_q5_batch_points_distinct():
    mk, mv = _planted_models([0.3, 0.7], seed=3)
    config = AcquisitionConfig(constraint_threshold=25.0, batch_size=5,
                               mc_samples=512)
    budget = OptimizerBudget(raw_samples=64, restarts=4)
    batch = propose_batch(mk, mv, config, budget, seed=2,
                          incumbent=_at_peak(mk, 1.0))
    assert batch.shape == (5, 2)
    for i in range(5):
        for j in range(i + 1, 5):
            assert np.linalg.norm(batch[i] - batch[j]) >= 1e-6


def test_determinism():
    mk, mv = _planted_models([0.4, 0.4], seed=5)
    config = AcquisitionConfig(constraint_threshold=25.0, batch_size=3,
                               mc_samples=512)
    budget = OptimizerBudget(raw_samples=64, restarts=3)
    a = propose_batch(mk, mv, config, budget, seed=11,
                      incumbent=_at_peak(mk, 1.0))
    b = propose_batch(mk, mv, config, budget, seed=11,
                      incumbent=_at_peak(mk, 1.0))
    np.testing.assert_array_equal(a, b)


def test_numeric_failure_scores_its_chunk_minus_inf(monkeypatch):
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
    batch = propose_batch(mk, mv, config, budget, seed=6,
                          incumbent=_at_peak(mk, 1.0))
    assert batch.shape == (3, 2)
    assert np.all(batch >= 0.0) and np.all(batch <= 1.0)
    assert batch[0, 0] <= 0.5      # a failed candidate never wins


def test_containment():
    mk, mv = _planted_models([0.99, 0.01], seed=7)
    config = AcquisitionConfig(constraint_threshold=25.0, batch_size=4,
                               mc_samples=512)
    budget = OptimizerBudget(raw_samples=64, restarts=4)
    batch = propose_batch(mk, mv, config, budget, seed=3,
                          incumbent=_at_peak(mk, 1.0))
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
                              incumbent=(best, X[np.argmax(k)]))
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
    # a batch holding one point twice has a singular posterior covariance:
    # its chunk is still scored in one stacked call, and the batch scores as
    # it does alone
    mk, mv = _planted_models([0.6, 0.4], seed=8)
    rng = np.random.default_rng(9)
    base_k, base_v = rng.standard_normal((512, 5)), rng.standard_normal((512, 5))
    calls = []

    def acquisition(XS):
        calls.append(XS.shape)
        return optim.qcei_mc(mk, mv, XS, 1.0, 25.0, base_k, base_v)

    stack = rng.uniform(size=(2 * optim._SCREEN_CHUNK + 3, 5, 2))
    plain = optim._screen(acquisition, stack)
    singular = stack.copy()
    singular[3, 1] = singular[3, 0]
    calls.clear()
    scores = optim._screen(acquisition, singular)
    assert calls == [(optim._SCREEN_CHUNK, 5, 2)] * 2 + [(3, 5, 2)]
    np.testing.assert_allclose(scores[3], acquisition(singular[3]),
                               rtol=1e-10, atol=0.0)
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
    for incumbent in (_at_peak(mk, 1.0), None):
        shapes.clear()
        propose_batch(mk, mv, config, budget, seed=4, incumbent=incumbent)
        assert len(shapes) > 16 // optim._SCREEN_CHUNK
        assert set(shapes) == {3}


def test_lockstep_restarts_end_independently(monkeypatch):
    # a bowl steep enough that every restart ends on _STEP_MIN: on a unit
    # bowl a move near c gains less than _GAIN_TOL about 1e-3 away from it
    c = np.array([[0.3, 0.6], [0.55, 0.2]])
    n = c.size
    calls, sweeps = [], []

    def acquisition(XS):
        calls.append(XS.shape)
        return -1e6 * np.sum((XS - c) ** 2, axis=(-2, -1))

    real_screen = optim._screen

    def screen(acq, stack):
        sweeps.append(stack.copy())
        return real_screen(acq, stack)

    monkeypatch.setattr(optim, "_screen", screen)
    # the restart at the corner 0 has its -(1, ..., 1) move clipped away
    x0 = np.stack([np.full((2, 2), 0.9), c, np.zeros((2, 2))])
    x, fx = optim._pattern_search(acquisition, x0, acquisition(x0))
    assert np.all(np.abs(x - c) <= 2 * optim._STEP_MIN)
    np.testing.assert_array_equal(x[1], c)
    np.testing.assert_array_equal(fx, acquisition(x))
    assert all(len(shape) == 3 for shape in calls)
    lockstep = sum(len(stack) for stack in sweeps)

    # alone, a restart's point is the first candidate that improved on it,
    # so each sweep shows what the restart was polled from
    solo = 0
    for start, end in zip(x0, x):
        sweeps.clear()
        x1, _ = optim._pattern_search(acquisition, start[None],
                                      acquisition(start[None]))
        np.testing.assert_array_equal(x1[0], end)
        point, value = start, acquisition(start)
        for stack in sweeps:
            # the minimal positive basis, and no move clipped onto the point
            assert len(stack) <= n + 1
            assert not any(np.array_equal(cand, point) for cand in stack)
            scores = acquisition(stack)
            if scores.max() > value:
                point, value = stack[np.argmax(scores)], scores.max()
        solo += sum(len(stack) for stack in sweeps)
    assert len(sweeps[0]) == n      # the corner start's first poll
    assert lockstep == solo


def _thin_positive_surface():
    """Models whose qCEI over the planted incumbent p is positive only within
    about 0.02 of p: an objective bowl k = -50 |x - p|^2 known exactly at a
    grid and at p, so precisely that no draw improves on k(p) = 0 further
    out, and a constraint that is feasible everywhere. Returns the models,
    the incumbent (the data's argmax row) and the threshold."""
    p = np.array([0.53, 0.37, 0.61])
    d = p.size
    g = np.linspace(0, 1, 6)
    X = np.vstack([np.stack(np.meshgrid(*[g] * d, indexing="ij"),
                            axis=-1).reshape(-1, d), p])
    k = -50.0 * np.sum((X - p) ** 2, axis=1)
    h = GpHyperparameters(lengthscales=np.full(d, 2.0), signal_variance=1.0,
                          noise_std=1e-3)
    mk = model_from_hyper(X, k, "objective", h)
    mv = model_from_hyper(X, X[:, 0], "constraint", h)
    return mk, mv, (float(np.max(k)), X[np.argmax(k)]), 2.0


def test_seeded_screen_reaches_a_thin_positive_region():
    # a Latin-hypercube screen of 256 batches of two 3-D points misses a ball
    # of radius 0.02 and refinement of flat starts never moves, so a screen
    # without the seeded half proposes a batch of qCEI 0 here (seeds 0-6)
    mk, mv, incumbent, thr = _thin_positive_surface()
    rng = np.random.default_rng(3)
    zk, zv = rng.standard_normal((1024, 1)), rng.standard_normal((1024, 1))
    u = rng.normal(size=(20, 1, 3))
    u /= np.linalg.norm(u, axis=-1, keepdims=True)
    for r in (0.03, 0.1):
        far = incumbent[1] + r * u
        assert np.all(qcei_mc(mk, mv, far, incumbent[0], thr, zk, zv) == 0.0)
    config = AcquisitionConfig(constraint_threshold=thr, batch_size=2,
                               mc_samples=1024)
    budget = OptimizerBudget(raw_samples=256, restarts=4)
    for seed in (0, 1):
        batch = propose_batch(mk, mv, config, budget, seed, incumbent=incumbent)
        draws = np.random.default_rng(seed)
        base_k = draws.standard_normal((1024, 2))
        base_v = draws.standard_normal((1024, 2))
        assert qcei_mc(mk, mv, batch, incumbent[0], thr, base_k, base_v) > 0.0
        assert np.min(np.linalg.norm(batch - incumbent[1], axis=1)) < 0.03


def _first_screen(monkeypatch, incumbent, raw_samples, seed=5):
    """The stack of the first ``_screen`` call of one proposal, and the
    proposal."""
    mk, mv = _planted_models([0.35, 0.65], seed=12)
    stacks = []
    real_screen = optim._screen

    def screen(acquisition, stack):
        stacks.append(stack.copy())
        return real_screen(acquisition, stack)

    monkeypatch.setattr(optim, "_screen", screen)
    config = AcquisitionConfig(constraint_threshold=25.0, batch_size=3,
                               mc_samples=128)
    budget = OptimizerBudget(raw_samples=raw_samples, restarts=2)
    batch = propose_batch(mk, mv, config, budget, seed,
                          incumbent=None if incumbent is None
                          else _at_peak(mk, incumbent))
    return stacks[0], batch


def _latin_screen(raw_samples, q, d, seed, mc_samples=128):
    rng = np.random.default_rng(seed)
    rng.standard_normal((mc_samples, q))
    rng.standard_normal((mc_samples, q))
    return unit_latin_hypercube(raw_samples, q * d, rng).reshape(-1, q, d)


def test_fallback_screen_is_the_latin_hypercube(monkeypatch):
    # without an incumbent the screen is exactly the Latin hypercube drawn
    # after the base draws, so fallback proposals replay as before
    stack, _ = _first_screen(monkeypatch, None, 32)
    np.testing.assert_array_equal(stack, _latin_screen(32, 3, 2, seed=5))


def test_seeded_screen_keeps_its_first_half(monkeypatch):
    # with an incumbent the last half of the screen is drawn around it, after
    # the Latin hypercube, whose first half stays in place
    stack, _ = _first_screen(monkeypatch, 1.0, 32)
    latin = _latin_screen(32, 3, 2, seed=5)
    np.testing.assert_array_equal(stack[:16], latin[:16])
    seeded = stack[16:]
    assert np.all((seeded >= 0.0) & (seeded <= 1.0))
    assert np.all(np.abs(seeded - [0.35, 0.65]) < 8 * optim._SEED_SIGMA)


def test_one_raw_sample_with_an_incumbent(monkeypatch):
    # a one-batch screen seeds no batch and still proposes a valid batch
    stack, batch = _first_screen(monkeypatch, 1.0, 1)
    np.testing.assert_array_equal(stack, _latin_screen(1, 3, 2, seed=5))
    assert batch.shape == (3, 2)
    assert np.all((batch >= 0.0) & (batch <= 1.0))


# finite targets across the float64 range, subnormals included
_TARGET = st.floats(allow_nan=False, allow_infinity=False)


@st.composite
def _channel(draw, n):
    """n finite targets: free, constant, or spread over the ulps next to one."""
    kind = draw(st.sampled_from(["free", "constant", "tiny"]))
    if kind == "free":
        return np.array(draw(st.lists(_TARGET, min_size=n, max_size=n)))
    base = draw(_TARGET)
    if kind == "constant":
        return np.full(n, base)
    steps = draw(st.lists(st.integers(-1, 1), min_size=n, max_size=n))
    return np.nextafter(base, np.array(steps) * np.finfo(float).max)


@st.composite
def _training_set(draw):
    """2-6 distinct unit-square points, some pairs just over MIN_GAP apart,
    and the two channels' targets."""
    grid = st.sampled_from([0.0, 0.3, 0.5, 1.0])
    points = draw(st.lists(st.tuples(grid, grid), min_size=1, max_size=4,
                           unique=True))
    for x in draw(st.lists(st.sampled_from(points), max_size=2, unique=True)):
        points.append((x[0], x[1] + 1.5 * Dataset.MIN_GAP * (1 if x[1] < 1 else -1)))
    if len(points) < 2:
        points.append((0.75, 0.75))
    n = len(points)
    return np.array(points), draw(_channel(n)), draw(_channel(n))


@settings(derandomize=True, max_examples=150, deadline=None)
@given(data=_training_set(), threshold=_TARGET)
def test_fit_and_propose_end_in_a_batch_or_a_documented_error(data, threshold):
    # the feasible best is the incumbent, as in campaign.step; a numpy
    # warning fails the example, as filterwarnings = ["error"] makes it raise
    X, k, v = data
    config = AcquisitionConfig(constraint_threshold=threshold, mc_samples=16,
                               batch_size=2)
    budget = OptimizerBudget(raw_samples=8, restarts=2)
    feasible = np.flatnonzero(v <= threshold)
    incumbent = None
    if feasible.size:
        i = feasible[np.argmax(k[feasible])]
        incumbent = (k[i], X[i])
    try:
        mk = fit(X, k, "objective", 0)
        mv = fit(X, v, "constraint", 1)
        batch = propose_batch(mk, mv, config, budget, 2, incumbent=incumbent)
    except (NumericError, DegenerateDataError):
        return
    assert batch.shape == (2, 2)
    assert np.all((0.0 <= batch) & (batch <= 1.0))
