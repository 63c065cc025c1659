"""Dataset construction: a 1-D synthetic benchmark and delimited-file loading.

Both paths produce a :class:`Dataset` normalized to zero mean and unit
variance per input column and for the targets, using training statistics
only; a constant column is only centred.  Metrics downstream are computed
on this normalized scale.  A ``Dataset`` holds only the normalized arrays:
it keeps no statistics (it has no ``norm``), so nothing maps predictions
back to the raw scale.
"""

from dataclasses import dataclass

import numpy as np


@dataclass
class Dataset:
    x_train: np.ndarray
    y_train: np.ndarray
    x_test: np.ndarray
    y_test: np.ndarray

    @property
    def n_train(self) -> int:
        return self.x_train.shape[0]

    @property
    def n_test(self) -> int:
        return self.x_test.shape[0]


def synth_f(x):
    """Smooth multi-scale test function on [0, 1] (extrapolates fine nearby)."""
    x = np.asarray(x, dtype=float)
    return (
        5.0 * x**2 * np.sin(12.0 * x)
        + (x**3 - 0.5) * np.sin(3.0 * x - 0.5)
        + 4.0 * np.cos(2.0 * x)
    )


def _center_scale(a):
    """Per-column mean and std, but a constant column (whose std need not round
    to 0: it is 5.55e-17 for 0.3) is centred on its value and not scaled."""
    const = np.ptp(a, axis=0) == 0
    return np.where(const, a[0], a.mean(axis=0)), np.where(const, 1.0, a.std(axis=0))


def _normalize(x_train, y_train, x_test, y_test) -> Dataset:
    """Inputs and targets centred and scaled by their training rows' statistics;
    a constant column becomes exact zeros, so constant targets fail training."""
    (x_mean, x_std), (y_mean, y_std) = _center_scale(x_train), _center_scale(y_train)
    return Dataset(
        (x_train - x_mean) / x_std,
        (y_train - y_mean) / y_std,
        (x_test - x_mean) / x_std,
        (y_test - y_mean) / y_std,
    )


def synth_dataset(
    n: int = 5000, n_test: int | None = None, noise_sd: float = 0.2, seed=0
) -> Dataset:
    """Noisy draws of the synthetic function, normalized and split.

    Training inputs are uniform on [0, 1] with Gaussian noise on the targets;
    test inputs are equispaced on [-0.2, 1.2] (so both ends extrapolate) with
    noise-free targets.
    """
    if n < 2:
        raise ValueError("need at least two training points")
    if n_test is None:
        n_test = max(n // 10, 2)
    rng = np.random.default_rng(seed)
    x_train = rng.uniform(0.0, 1.0, size=n)
    y_train = synth_f(x_train) + rng.normal(0.0, noise_sd, size=n)
    x_test = np.linspace(-0.2, 1.2, n_test)
    y_test = synth_f(x_test)
    return _normalize(x_train[:, None], y_train, x_test[:, None], y_test)


def _parse_table(path):
    """The numeric rows of the table at ``path``, as (n, columns) floats.

    A leading UTF-8 byte-order mark is dropped, so it cannot turn a numeric
    first row into a header.  Errors name the file line.
    """
    rows, linenos = [], []
    delimiter, first_line = None, True
    with open(path, "r", encoding="utf-8-sig") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            if first_line and "," in line:  # the header or first row decides
                delimiter = ","
            cells = line.split(delimiter)
            values = []
            for col, cell in enumerate(cells):
                try:
                    values.append(float(cell))
                except ValueError:
                    if first_line:
                        values = None  # header row
                        break
                    raise ValueError(
                        f"{path}: non-numeric value {cell!r} at line {lineno}, "
                        f"column {col}"
                    ) from None
            first_line = False
            if values is None:
                continue
            if rows and len(values) != len(rows[0]):
                raise ValueError(
                    f"{path}: line {lineno} has {len(values)} columns, "
                    f"expected {len(rows[0])}"
                )
            rows.append(values)
            linenos.append(lineno)
    if not rows:
        raise ValueError(f"{path}: no data rows")
    table = np.asarray(rows, dtype=float)
    bad = np.argwhere(~np.isfinite(table))  # float() accepts nan and inf
    if bad.size:
        row, col = bad[0]
        raise ValueError(
            f"{path}: non-finite value {float(table[row, col])!r} at line "
            f"{linenos[row]}, column {col}"
        )
    return table


def load_delimited(
    path,
    target_column: int = -1,
    train_fraction: float = 0.9,
    seed=0,
) -> Dataset:
    """Load a numeric CSV or whitespace table and split it for benchmarking.

    A comma on the first non-blank line makes every line comma-separated;
    that line, if not numeric, is a header.  The split is a seeded shuffle
    that puts floor(train_fraction * n) rows, at least two, in training.
    """
    if not 0.0 < train_fraction < 1.0:  # NaN fails this too
        raise ValueError("train_fraction must be in (0, 1)")
    table = _parse_table(path)
    n, n_cols = table.shape
    if n_cols < 2:
        raise ValueError(f"{path}: need at least one feature column plus the target")
    if not -n_cols <= target_column < n_cols:
        raise ValueError(f"{path}: target column {target_column} out of range")
    y = table[:, target_column]
    x = np.delete(table, target_column % n_cols, axis=1)
    n_train = int(train_fraction * n)  # floor: the product is positive
    if n_train < 2:
        raise ValueError(f"split leaves under two training rows (n_train={n_train})")
    perm = np.random.default_rng(seed).permutation(n)
    tr, te = perm[:n_train], perm[n_train:]
    return _normalize(x[tr], y[tr], x[te], y[te])
