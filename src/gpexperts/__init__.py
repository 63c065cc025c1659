"""Distributed Gaussian process regression with local experts.

Train one GP per partition of the data (shared hyperparameters), then fuse
the experts' predictions: either through precision-weighted products and
committees, or through the dependent-expert rule that models the joint
covariance of the expert means.  A graphical-lasso estimate of the expert
dependency graph ranks experts by connectivity so aggregation can run on an
important subset only.

The benchmark driver (``ExperimentConfig``, ``ExperimentReport``,
``run_experiment``) lives in :mod:`gpexperts.bench`, which this package
does not import, so ``python -m gpexperts.bench`` runs a single copy of it.
"""

from .committee import bcm_aggregate, grbcm_aggregate, poe_aggregate
from .data import Dataset, load_delimited, synth_dataset, synth_f
from .experts import ExpertEnsemble, train_ensemble
from .gp import GpModel, PredictiveDist, fit, gp_predict, log_marginal_likelihood
from .kernels import Hyperparams, kernel_matrix
from .linalg import SingularMatrixError
from .metrics import mae, msll, smse
from .npae import npae_aggregate
from .partition import Partitioning, partition_kmeans, partition_random
from .selection import (
    ExpertGraph,
    expert_graph,
    graphical_lasso,
    prediction_covariance,
    rank_importance,
    select_experts,
)

__version__ = "0.1.0"

__all__ = [
    "Dataset",
    "ExpertEnsemble",
    "ExpertGraph",
    "GpModel",
    "Hyperparams",
    "Partitioning",
    "PredictiveDist",
    "SingularMatrixError",
    "bcm_aggregate",
    "expert_graph",
    "fit",
    "gp_predict",
    "graphical_lasso",
    "grbcm_aggregate",
    "kernel_matrix",
    "load_delimited",
    "log_marginal_likelihood",
    "mae",
    "msll",
    "npae_aggregate",
    "partition_kmeans",
    "partition_random",
    "poe_aggregate",
    "prediction_covariance",
    "rank_importance",
    "select_experts",
    "smse",
    "synth_dataset",
    "synth_f",
    "train_ensemble",
]
