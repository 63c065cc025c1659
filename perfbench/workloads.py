"""Workload definitions: one ExperimentConfig template per workload.

Every workload runs with one fixed ``ExperimentConfig.seed``
(``EXPERIMENT_SEED``).  On the synthetic workloads it draws the
training data; on the table workload it drives the train/test split, the
k-means start and the optimizer start (the table itself is fixed, seed 11).
The benchmark's ``--seed`` is recorded but does not change the inputs: the
pipeline's work depends strongly on the data (across ten data seeds the
graphical lasso at 40 experts took 0.9 s to 3.5 s), so figures from
seed-drawn data spread far wider than any useful regression bound.
"""

from pathlib import Path

import numpy as np

TABLE_SEED = 11

ALL_METHODS = (
    "fullgp", "poe", "gpoe", "bcm", "rbcm", "grbcm", "npae",
    "poe*", "gpoe*", "bcm*", "rbcm*", "grbcm*", "npae*",
)

# name -> ExperimentConfig keyword arguments (``data`` is filled in for the
# table workload once its CSV has been written).
WORKLOADS = {
    # The paper's reference comparison: every rule against the full GP.
    # fullgp's fit on the whole training set dominates; the twelve ensemble
    # rules re-predict the same ten experts again and again.
    "synth-1k-m10-all": dict(
        n=1000, n_test=200, noise_sd=0.2, n_experts=10,
        methods=ALL_METHODS, alpha=0.5, penalty=0.1,
    ),
    # Many small experts: the graphical lasso and NPAE's pairwise assembly
    # dominate while training is cheap.  Selection must pay for itself here.
    "synth-3k-m40-select": dict(
        n=3000, n_test=300, noise_sd=0.2, n_experts=40,
        methods=("npae", "npae*", "gpoe*"), alpha=0.5, penalty=0.1,
    ),
    # The 8-D table of acceptance criterion 09, parsed from CSV.  With D=8
    # the per-dimension kernel gradient dominates training.
    "table-8d-m10": dict(
        n_experts=10, train_fraction=0.3,
        methods=("gpoe", "gpoe*", "npae", "npae*", "rbcm*"),
        alpha=0.8, penalty=0.1,
    ),
}

SYNTHETIC = {"synth-1k-m10-all", "synth-3k-m40-select"}

# ExperimentConfig.seed of every experiment.
EXPERIMENT_SEED = 0


def _surface(x):
    return (
        10.0 * np.sin(np.pi * x[:, 0] * x[:, 1])
        + 20.0 * (x[:, 2] - 0.5) ** 2
        + 10.0 * x[:, 3]
        + 5.0 * x[:, 4]
    )


def write_table(path: Path) -> Path:
    """Write the 6600-row 8-D table with two pockets of noise targets.

    The draws follow acceptance criterion 09 exactly (seed 11): 5400 points
    of a smooth 8-input surface with unit noise, plus two interior clusters
    of 600 points each whose targets are the cluster-centre value plus noise
    of standard deviation 8.
    """
    rng = np.random.default_rng(TABLE_SEED)
    x = rng.uniform(0.0, 1.0, size=(5400, 8))
    y = _surface(x) + rng.normal(0.0, 1.0, size=5400)
    centers = [
        np.array([0.7, 0.7, 0.3, 0.7, 0.3, 0.5, 0.5, 0.5]),
        np.array([0.3, 0.3, 0.7, 0.3, 0.7, 0.5, 0.5, 0.5]),
    ]
    blob_x = [
        np.clip(c + rng.normal(0.0, 0.04, size=(600, 8)), 0.0, 1.0) for c in centers
    ]
    blob_y = [
        _surface(c[None, :])[0] + rng.normal(0.0, 8.0, size=600) for c in centers
    ]
    path.parent.mkdir(parents=True, exist_ok=True)
    np.savetxt(
        path,
        np.column_stack([np.vstack([x] + blob_x), np.concatenate([y] + blob_y)]),
        delimiter=",",
        header="x0,x1,x2,x3,x4,x5,x6,x7,y",
        comments="",
    )
    return path


def config_kwargs(name: str, out_dir: Path, overrides=None) -> dict:
    """ExperimentConfig keyword arguments for a workload, minus the seed.

    Writes the table CSV under ``out_dir`` for the table workload.
    ``overrides`` replaces entries (the self-test uses it to shrink sizes).
    """
    if name not in WORKLOADS:
        raise ValueError(f"unknown workload {name!r}; choose from {sorted(WORKLOADS)}")
    kwargs = dict(WORKLOADS[name])
    if name not in SYNTHETIC:
        kwargs["data"] = str(write_table(out_dir / "surface8d.csv"))
    kwargs.update(overrides or {})
    return kwargs
