"""
Expert dependency graphs and pruning
====================================

Estimates a sparse Gaussian graphical model over the experts' predictions,
ranks the experts by how strongly they interact, and shows that keeping the
top-ranked half of the committee barely costs any accuracy while halving the
aggregation cost.
"""

import time

import numpy as np

from gpexperts import (
    expert_graph,
    npae_aggregate,
    partition_kmeans,
    select_experts,
    smse,
    synth_dataset,
)
from gpexperts.experts import train_ensemble

data = synth_dataset(n=2000, n_test=200, noise_sd=0.2, seed=0)
parts = partition_kmeans(data.x_train, 10, seed=1)
ensemble = train_ensemble(data.x_train, data.y_train, parts, restarts=1, seed=2)

# Each expert predicts the shared test grid; the sample second-moment matrix
# of those predictions feeds a graphical lasso whose precision matrix encodes
# conditional dependencies between experts.
graph = expert_graph(ensemble, data.x_test, lam=0.1, alpha=0.8)

edges = np.count_nonzero(np.triu(graph.precision, k=1))
print(f"graph over {len(ensemble.experts)} experts: {edges} edges at penalty 0.1")
print("importance by expert:")
for i in graph.order:
    marker = "kept" if i in graph.selected else "dropped"
    print(f"  expert {i}: {graph.importance[i]:8.3f}  ({marker})")

# Sparser graphs fall out of larger penalties; the diagonal never shrinks.
for lam in (0.0, 0.05, 0.2, 0.5):
    g = expert_graph(ensemble, data.x_test, lam=lam, alpha=1.0)
    e = np.count_nonzero(np.triu(g.precision, k=1))
    print(f"penalty {lam:4.2f} -> {e:2d} edges")

# Pruning: aggregate with everyone, with the top-ranked half, and with the
# bottom-ranked half. Importance ordering should separate the two halves.
half = select_experts(graph.order, 0.5)
bottom = np.sort(graph.order[-half.size :])

t0 = time.perf_counter()
full = npae_aggregate(ensemble, data.x_test)
t_full = time.perf_counter() - t0

t0 = time.perf_counter()
top_pred = npae_aggregate(ensemble, data.x_test, subset=half)
t_half = time.perf_counter() - t0

bottom_pred = npae_aggregate(ensemble, data.x_test, subset=bottom)

print(f"\nall {len(ensemble.experts)} experts: smse {smse(data.y_test, full.means):.4f} in {t_full:.2f}s")
print(f"top half {half.tolist()}: smse {smse(data.y_test, top_pred.means):.4f} in {t_half:.2f}s")
print(f"bottom half {bottom.tolist()}: smse {smse(data.y_test, bottom_pred.means):.4f}")
