"""Constrained batch Bayesian optimization around an expensive black box.

GP surrogates for an objective and a constraint channel, constrained expected
improvement with Monte Carlo batch proposals, Latin hypercube initialization,
and a resumable ask-tell campaign loop.
"""

from .acquisition import (AcquisitionConfig, constrained_ei,
                          expected_improvement, probability_feasible, qcei_mc)
from .campaign import (CampaignState, best_so_far, step, ingest, init_campaign,
                       load_state, run_campaign, save_state)
from .evaluators import (Dataset, Observation, benchmark_quadratic,
                         proxy_prechamber, read_results, write_proposals)
from .gp import (GpHyperparameters, GpModel, PosteriorGaussian, destandardize,
                 fit, joint_posterior_samples, posterior, posterior_at)
from .optim import OptimizerBudget, propose_batch
from .space import (PRECHAMBER_SPACE, Dimension, ParameterSpace,
                    latin_hypercube)

__version__ = "0.1.0"
