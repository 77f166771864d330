import numpy as np
import pytest

from chamberopt.acquisition import (_MAXLOG, AcquisitionConfig, _ndtr,
                                    constrained_ei, expected_improvement,
                                    probability_feasible, q_feasibility_mc,
                                    qcei_mc)
from chamberopt.campaign import CampaignState, best_so_far
from chamberopt.errors import InvalidStateError
from chamberopt.evaluators import Dataset, Observation
from chamberopt.gp import (GpHyperparameters, PosteriorGaussian,
                           model_from_hyper, posterior_at)
from chamberopt.optim import OptimizerBudget
from chamberopt.space import PRECHAMBER_SPACE

from oracles import normal_cdf


def _g(mean, std):
    return PosteriorGaussian(mean=mean, std=std)


# ------------------------------------------------------------ closed forms


def test_ei_deterministic_improvement():
    assert expected_improvement(_g(6.0, 0.0), 5.0) == 1.0


def test_ei_at_incumbent_mean():
    # (mu-best)*Phi(0) + 1*phi(0) = 1/sqrt(2 pi)
    assert expected_improvement(_g(0.0, 1.0), 0.0) == pytest.approx(
        0.3989422804014327, abs=1e-12)


def test_ei_hopeless_candidate():
    assert expected_improvement(_g(-10.0, 1.0), 0.0) < 1e-20


def test_ei_never_negative():
    rng = np.random.default_rng(0)
    for _ in range(200):
        g = _g(rng.normal(), rng.uniform(0, 2))
        assert expected_improvement(g, rng.normal()) >= 0.0


def test_pf_at_threshold_mean():
    assert probability_feasible(_g(25.0, 3.0), 25.0) == pytest.approx(0.5, abs=1e-12)


def test_pf_five_sigma_margin():
    assert probability_feasible(_g(25.0 - 5 * 2.0, 2.0), 25.0) == pytest.approx(
        normal_cdf(5.0), abs=1e-12)


def test_pf_deterministic_infeasible():
    assert probability_feasible(_g(25.01, 0.0), 25.0) == 0.0
    assert probability_feasible(_g(24.99, 0.0), 25.0) == 1.0


def test_cei_unconstrained_limit():
    ei = expected_improvement(_g(1.0, 2.0), 0.5)
    assert constrained_ei(_g(1.0, 2.0), _g(-100.0, 1.0), 0.5, 25.0) == pytest.approx(ei)


def test_cei_annihilation():
    assert constrained_ei(_g(10.0, 1.0), _g(26.0, 0.0), 0.0, 25.0) == 0.0


def test_cei_product_spot_value():
    val = constrained_ei(_g(0.0, 1.0), _g(25.0, 1.0), 0.0, 25.0)
    assert val == pytest.approx(0.5 * 0.3989422804014327, abs=1e-6)


def test_cei_is_exactly_the_product():
    rng = np.random.default_rng(1)
    for _ in range(50):
        gk = _g(rng.normal(), rng.uniform(0, 2))
        gv = _g(rng.normal(20, 5), rng.uniform(0, 3))
        best, thr = rng.normal(), 25.0
        assert constrained_ei(gk, gv, best, thr) == (
            probability_feasible(gv, thr) * expected_improvement(gk, best))


def test_closed_forms_match_scipy_norm_exactly():
    from scipy.stats import norm
    for mean in (-40.0, -3.7, -1e-9, 0.0, 0.3, 2.5, 24.9, 25.0, 31.0):
        for std in (1e-12, 1e-3, 0.07, 1.0, 2.9, 1e3):
            for ref in (-2.0, 0.0, 0.45, 25.0):
                z = (mean - ref) / std
                assert expected_improvement(_g(mean, std), ref) == float(
                    (mean - ref) * norm.cdf(z) + std * norm.pdf(z))
                assert probability_feasible(_g(mean, std), ref) == float(
                    norm.cdf((ref - mean) / std))


def test_ndtr_port_matches_scipy_bit_for_bit():
    from scipy.special import ndtr
    # the branch edges: ndtr's switch at |z| = 1, erfc's at sqrt(2) and
    # 8 sqrt(2), and the underflow of exp(-z*z/2) at sqrt(2 MAXLOG)
    edges = [1.0, np.sqrt(2.0), 8 * np.sqrt(2.0), np.sqrt(2 * _MAXLOG)]
    edges = [e for edge in edges for sign in (1.0, -1.0) for e in
             (np.nextafter(sign * edge, -np.inf), sign * edge,
              np.nextafter(sign * edge, np.inf))]
    tiny = np.finfo(float).tiny
    special = [0.0, -0.0, 5e-324, -5e-324, tiny / 2, -tiny / 2, tiny, -tiny,
               np.inf, -np.inf, np.nan, 1e308, -1e308]
    zs = np.concatenate([np.linspace(-40.0, 40.0, 160_001), edges, special])
    ours = np.array([_ndtr(z) for z in zs])
    ref = ndtr(zs)
    nan = np.isnan(ref)
    assert np.array_equal(np.isnan(ours), nan)
    mismatches = np.count_nonzero(ours[~nan].view(np.int64)
                                  != ref[~nan].view(np.int64))
    assert mismatches == 0


def test_ei_monotonic_in_mean_and_std():
    mus = np.linspace(-3, 3, 100)
    stds = np.linspace(1e-6, 3, 100)
    for s in stds:
        vals = [expected_improvement(_g(m, s), 0.0) for m in mus]
        assert np.all(np.diff(vals) >= -1e-12)
    for m in mus[mus <= 0]:
        vals = [expected_improvement(_g(m, s), 0.0) for s in stds]
        assert np.all(np.diff(vals) >= -1e-12)


# ------------------------------------------------------------ incumbent
# the feasible best that constrained EI improves on: campaign.best_so_far


def _campaign_history_dataset():
    ds = Dataset(space=PRECHAMBER_SPACE)
    rows = [
        ((10.20, 0.89, 18.75), 160.38, 17.93, "doe"),
        ((10.02, 0.88, 18.26), 246.46, 22.70, "bo_iter_1"),
        ((9.90, 0.88, 18.18), 244.56, 22.11, "bo_iter_2"),
        ((11.81, 0.88, 19.74), 263.16, 22.53, "bo_iter_3"),
    ]
    for x, k, v, tag in rows:
        ds.append(Observation(x, k, v, tag))
    return ds


def _incumbent(ds, threshold):
    st = CampaignState(space=PRECHAMBER_SPACE,
                       acq=AcquisitionConfig(constraint_threshold=threshold),
                       budget=OptimizerBudget(), dataset=ds, rng_seed=0)
    return best_so_far(st)[0]


def test_incumbent_picks_feasible_max():
    ds = _campaign_history_dataset()
    inc = _incumbent(ds, 25.0)
    assert inc is ds[3]
    assert inc.k == pytest.approx(263.16)


def test_incumbent_all_infeasible_is_none():
    ds = _campaign_history_dataset()
    assert _incumbent(ds, 10.0) is None


def test_incumbent_single_feasible():
    ds = _campaign_history_dataset()
    inc = _incumbent(ds, 18.0)          # only the DOE row is feasible
    assert inc is ds[0]
    assert inc.k == pytest.approx(160.38)


def test_incumbent_empty_dataset_raises():
    with pytest.raises(InvalidStateError):
        _incumbent(Dataset(space=PRECHAMBER_SPACE), 25.0)


# ------------------------------------------------------------ MC batch CEI


def _models(rng, n=10, d=2):
    X = rng.uniform(size=(n, d))
    k = 100 + 50 * np.sin(3 * X[:, 0]) + 30 * X[:, 1]
    v = 20 + 6 * X[:, 0]
    hk = GpHyperparameters(lengthscales=np.full(d, 0.4), signal_variance=1.0)
    hv = GpHyperparameters(lengthscales=np.full(d, 0.6), signal_variance=0.8)
    mk = model_from_hyper(X, k, "objective", hk)
    mv = model_from_hyper(X, v, "constraint", hv)
    return mk, mv


def _closed_form_at(mk, mv, x, best, thr):
    gk = posterior_at(mk, x)
    gv = posterior_at(mv, x)
    return constrained_ei(gk, gv, best, thr)


def _base(seed, n, q):
    """Objective then constraint base normals from one generator, in the
    order propose_batch draws them."""
    rng = np.random.default_rng(seed)
    return rng.standard_normal((n, q)), rng.standard_normal((n, q))


def test_qcei_q1_converges_to_closed_form():
    rng = np.random.default_rng(2)
    mk, mv = _models(rng)
    x = np.array([0.45, 0.8])
    best, thr = 120.0, 25.0
    cf = _closed_form_at(mk, mv, x, best, thr)
    n = 10**6
    est = qcei_mc(mk, mv, x[None, :], best, thr, *_base(3, n, 1))
    gk = posterior_at(mk, x)
    se = 3 * gk.std / np.sqrt(n)        # conservative bound on the MC error
    assert abs(est - cf) < max(3 * se, 1e-3)


def test_qcei_duplicate_points_add_nothing():
    rng = np.random.default_rng(4)
    mk, mv = _models(rng)
    x = np.array([0.45, 0.8])
    best, thr = 120.0, 25.0
    single = qcei_mc(mk, mv, x[None, :], best, thr, *_base(5, 10**5, 1))
    triple = qcei_mc(mk, mv, np.tile(x, (3, 1)), best, thr, *_base(5, 10**5, 3))
    assert triple == pytest.approx(single, abs=3e-3)


def test_qcei_deeply_infeasible_is_zero():
    rng = np.random.default_rng(6)
    mk, mv = _models(rng)
    xs = rng.uniform(size=(3, 2))
    # threshold far below any plausible constraint draw
    est = qcei_mc(mk, mv, xs, 0.0, -100.0, *_base(7, 10**4, 3))
    assert est < 1e-6


def test_qcei_deterministic_given_seed():
    rng = np.random.default_rng(8)
    mk, mv = _models(rng)
    xs = rng.uniform(size=(4, 2))
    a = qcei_mc(mk, mv, xs, 120.0, 25.0, *_base(9, 1024, 4))
    b = qcei_mc(mk, mv, xs, 120.0, 25.0, *_base(9, 1024, 4))
    assert a == b


def test_qcei_monotone_in_batch_with_shared_base():
    rng = np.random.default_rng(10)
    mk, mv = _models(rng)
    n = 4096
    qmax = 5
    base_k = rng.standard_normal((n, qmax))
    base_v = rng.standard_normal((n, qmax))
    pts = rng.uniform(size=(qmax, 2))
    prev = -np.inf
    for q in range(1, qmax + 1):
        est = qcei_mc(mk, mv, pts[:q], 120.0, 25.0,
                      base_k=base_k[:, :q], base_v=base_v[:, :q])
        # nested Cholesky keeps shared points' draws identical, so the
        # per-sample max cannot shrink
        assert est >= prev - 1e-12
        prev = est


def test_mc_rate_of_convergence():
    rng = np.random.default_rng(11)
    mk, mv = _models(rng)
    x = np.array([0.45, 0.8])
    best, thr = 120.0, 25.0
    cf = _closed_form_at(mk, mv, x, best, thr)
    errs = []
    for n in (10**3, 10**4, 10**5, 10**6):
        reps = [abs(qcei_mc(mk, mv, x[None, :], best, thr, *_base(s, n, 1)) - cf)
                for s in range(5)]
        errs.append(np.mean(reps))
    # mean error at 10^6 samples should be ~sqrt(1000)x below 10^3 samples
    assert errs[-1] < errs[0] / 10


def test_argmax_scale_equivariance():
    rng = np.random.default_rng(12)
    X = rng.uniform(size=(10, 2))
    k = 100 + 50 * np.sin(3 * X[:, 0]) + 30 * X[:, 1]
    v = 20 + 6 * X[:, 0]
    hk = GpHyperparameters(lengthscales=np.full(2, 0.4), signal_variance=1.0)
    hv = GpHyperparameters(lengthscales=np.full(2, 0.6), signal_variance=0.8)
    mv = model_from_hyper(X, v, "constraint", hv)
    grid = rng.uniform(size=(200, 2))
    thr = 25.0

    def argmax_for(c):
        mk = model_from_hyper(X, c * k, "objective", hk)
        best = c * 120.0
        vals = [_closed_form_at(mk, mv, g, best, thr) for g in grid]
        return int(np.argmax(vals))

    assert argmax_for(1.0) == argmax_for(7.5) == argmax_for(0.2)


def test_q_feasibility_mc_bounds():
    rng = np.random.default_rng(13)
    mk, mv = _models(rng)
    xs = rng.uniform(size=(3, 2))
    p = q_feasibility_mc(mv, xs, 25.0,
                         np.random.default_rng(14).standard_normal((4096, 3)))
    assert 0.0 <= p <= 1.0
    base_v = np.random.default_rng(15).standard_normal((1024, 3))
    assert q_feasibility_mc(mv, xs, 1000.0, base_v) == 1.0


def test_acquisition_config_validation():
    with pytest.raises(ValueError):
        AcquisitionConfig(mc_samples=0)
    with pytest.raises(ValueError):
        AcquisitionConfig(constraint_threshold=np.inf)
    with pytest.raises(ValueError, match="batch_size"):
        AcquisitionConfig(batch_size=np.int64(2))


# ------------------------------------------------------------ stacked batches


def _acquisitions(mk, mv, q, seed):
    base_k, base_v = _base(seed, 1024, q)
    return {"qcei": lambda XS: qcei_mc(mk, mv, XS, 100.0, 25.0, base_k, base_v),
            "feasibility": lambda XS: q_feasibility_mc(mv, XS, 23.0, base_v)}


@pytest.mark.parametrize("q", [1, 5])
def test_stack_scores_each_batch_as_alone(q):
    rng = np.random.default_rng(16)
    mk, mv = _models(rng)
    stack = rng.uniform(size=(11, q, 2))
    for name, acq in _acquisitions(mk, mv, q, 17).items():
        stacked = acq(stack)
        alone = np.array([acq(X) for X in stack])
        assert stacked.shape == (11,)
        assert isinstance(acq(stack[0]), float)
        assert np.count_nonzero(alone) > len(alone) // 2, name
        np.testing.assert_allclose(stacked, alone, rtol=1e-10, atol=0.0,
                                   err_msg=name)


def test_batch_scores_the_same_in_different_stacks():
    rng = np.random.default_rng(18)
    mk, mv = _models(rng)
    batch = rng.uniform(size=(1, 5, 2))
    first = np.concatenate([rng.uniform(size=(4, 5, 2)), batch])
    second = np.concatenate([batch, rng.uniform(size=(8, 5, 2))])
    for name, acq in _acquisitions(mk, mv, 5, 19).items():
        assert acq(first)[-1] == pytest.approx(acq(second)[0], rel=1e-10, abs=0.0)
