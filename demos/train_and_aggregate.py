"""
Train local GP experts and compare the fusion rules
===================================================

Splits a synthetic regression problem across a handful of experts that share
one set of hyperparameters, then scores every aggregation rule against the
full GP trained on all of the data.
"""

import time

import numpy as np

from gpexperts import (
    bcm_aggregate,
    fit,
    gp_predict,
    grbcm_aggregate,
    mae,
    msll,
    npae_aggregate,
    partition_kmeans,
    poe_aggregate,
    smse,
    synth_dataset,
)
from gpexperts.experts import train_ensemble

# A 1-D multi-scale function observed with noise; the test grid extends a
# little beyond the training interval so the ends are extrapolation.
data = synth_dataset(n=1200, n_test=150, noise_sd=0.2, seed=0)
train_mean = float(data.y_train.mean())
train_var = float(data.y_train.var())

# Partition the inputs into local regions and fit shared hyperparameters by
# maximizing the sum of the experts' log marginal likelihoods.
parts = partition_kmeans(data.x_train, 6, seed=1)
t0 = time.perf_counter()
ensemble = train_ensemble(data.x_train, data.y_train, parts, restarts=1, seed=2)
print(f"trained 6 experts in {time.perf_counter() - t0:.2f}s")
print(f"  signal variance {ensemble.hp.signal_variance:.3f}")
print(f"  lengthscale     {ensemble.hp.lengthscales[0]:.4f}")
print(f"  noise variance  {ensemble.hp.noise_variance:.4f}")

# The full GP is the reference everyone tries to approximate.
t0 = time.perf_counter()
full = fit(data.x_train, data.y_train, restarts=1, seed=2)
print(f"full GP trained in {time.perf_counter() - t0:.2f}s\n")


def score(name, pred):
    line = (
        f"{name:<10} smse {smse(data.y_test, pred.means):.4f}   "
        f"msll {msll(data.y_test, pred.means, pred.variances + ensemble.hp.noise_variance, train_mean, train_var):>7.3f}   "
        f"mae {mae(data.y_test, pred.means):.4f}"
    )
    print(line)


score("full gp", gp_predict(full, data.x_test))
score("expert 0", gp_predict(ensemble.experts[0], data.x_test))
score("poe", poe_aggregate(ensemble, data.x_test, scheme="ones"))
score("gpoe", poe_aggregate(ensemble, data.x_test, scheme="uniform"))
score("bcm", bcm_aggregate(ensemble, data.x_test, scheme="ones"))
score("rbcm", bcm_aggregate(ensemble, data.x_test, scheme="diff_entropy"))
# grbcm fuses through one communication expert of the caller's choosing;
# this demo draws it at random.
base = int(np.random.default_rng(3).integers(ensemble.n_experts))
score("grbcm", grbcm_aggregate(ensemble, data.x_test, base))
score("npae", npae_aggregate(ensemble, data.x_test))

# The dependent-expert rule (npae) weighs experts through the covariance of
# their means, so inside the training interval it reproduces the full GP to a
# few hundredths while a lone expert falls apart outside its own region.
full_pred = gp_predict(full, data.x_test)
npae_pred = npae_aggregate(ensemble, data.x_test)
inside = (data.x_test[:, 0] >= 0.0) & (data.x_test[:, 0] <= 1.0)
gap = np.abs(npae_pred.means - full_pred.means)
print(f"\nnpae-vs-full mean gap: {gap[inside].max():.4f} interpolating, "
      f"{gap.max():.4f} with extrapolation")
