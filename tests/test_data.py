"""Synthetic data generation and delimited-file ingestion."""

import numpy as np
import pytest

from conftest import split_rows, synth_raw, to_raw_scale
from gpexperts import fit, load_delimited, synth_dataset, synth_f
from gpexperts.data import _normalize, _parse_table


def test_synth_f_closed_form_at_zero():
    # 5*0*sin(0) + (0 - 0.5) * sin(-0.5) + 4*cos(0) = 0.5*sin(0.5) + 4
    expected = 0.5 * np.sin(0.5) + 4.0
    assert synth_f(0.0) == pytest.approx(expected, abs=1e-12)
    assert expected == pytest.approx(4.23971, abs=1e-5)


def test_synth_f_vectorizes():
    x = np.linspace(0, 1, 7)
    out = synth_f(x)
    assert out.shape == (7,)
    assert out[0] == synth_f(x[0])


def test_synth_dataset_default_sizes():
    ds = synth_dataset()
    assert ds.n_train == 5000
    assert ds.n_test == 500
    assert ds.x_train.shape == (5000, 1)


def test_synth_dataset_noiseless_targets_are_exact():
    ds = synth_dataset(n=50, n_test=10, noise_sd=0.0, seed=1)
    x, y, _, _ = synth_raw(50, 10, 0.0, seed=1)
    x_raw = to_raw_scale(ds.x_train, x).ravel()
    np.testing.assert_allclose(x_raw, x, rtol=1e-12)
    np.testing.assert_allclose(to_raw_scale(ds.y_train, y), synth_f(x_raw), rtol=1e-12)


def test_synth_dataset_test_targets_never_carry_noise():
    ds = synth_dataset(n=50, n_test=10, noise_sd=5.0, seed=2)
    x, y, _, _ = synth_raw(50, 10, 5.0, seed=2)
    x_raw = to_raw_scale(ds.x_test, x)
    np.testing.assert_allclose(
        to_raw_scale(ds.y_test, y), synth_f(x_raw.ravel()), rtol=1e-12
    )


def test_synth_dataset_test_grid_spans_beyond_training():
    ds = synth_dataset(n=100, n_test=25, seed=3)
    x, _, _, _ = synth_raw(100, 25, 0.2, seed=3)
    grid = to_raw_scale(ds.x_test, x).ravel()
    np.testing.assert_allclose(grid, np.linspace(-0.2, 1.2, 25), atol=1e-12)


def test_synth_dataset_is_normalized():
    ds = synth_dataset(n=500, n_test=50, seed=4)
    assert ds.x_train.mean() == pytest.approx(0.0, abs=1e-12)
    assert ds.x_train.std() == pytest.approx(1.0, rel=1e-12)
    assert ds.y_train.mean() == pytest.approx(0.0, abs=1e-12)
    assert ds.y_train.std() == pytest.approx(1.0, rel=1e-12)


def test_synth_dataset_deterministic_and_seed_sensitive():
    a = synth_dataset(n=40, n_test=5, seed=5)
    b = synth_dataset(n=40, n_test=5, seed=5)
    c = synth_dataset(n=40, n_test=5, seed=6)
    np.testing.assert_array_equal(a.x_train, b.x_train)
    np.testing.assert_array_equal(a.y_train, b.y_train)
    assert not np.array_equal(a.y_train, c.y_train)


def test_synth_dataset_needs_two_points():
    with pytest.raises(ValueError):
        synth_dataset(n=1)


@pytest.mark.parametrize("noise_sd", [-1.0, np.nan, np.inf])
def test_synth_dataset_rejects_a_bad_noise_level_by_name(noise_sd):
    with pytest.raises(ValueError, match="noise_sd must be finite and >= 0"):
        synth_dataset(n=10, n_test=2, noise_sd=noise_sd)


def write_csv(path, rows, header=None):
    lines = [header] if header else []
    lines += [",".join(f"{v!r}" for v in row) for row in rows]
    path.write_text("\n".join(lines) + "\n")


def ten_rows():
    rng = np.random.default_rng(7)
    return [
        [float(a), float(b), float(a + 2 * b)]
        for a, b in rng.normal(size=(10, 2))
    ]


def test_load_default_fraction_splits_nine_to_one(tmp_path):
    path = tmp_path / "small.csv"
    write_csv(path, ten_rows())
    ds = load_delimited(path)
    assert ds.n_train == 9
    assert ds.n_test == 1
    assert ds.x_train.shape[1] == 2


def test_load_skips_a_header_line(tmp_path):
    rows = ten_rows()
    bare, named = tmp_path / "bare.csv", tmp_path / "named.csv"
    write_csv(bare, rows)
    write_csv(named, rows, header="a,b,target")
    plain = load_delimited(bare, seed=3)
    with_header = load_delimited(named, seed=3)
    np.testing.assert_array_equal(plain.x_train, with_header.x_train)
    np.testing.assert_array_equal(plain.y_test, with_header.y_test)


@pytest.mark.parametrize("header", [None, "a,b,target"], ids=["bare", "header"])
def test_a_byte_order_mark_costs_no_row(tmp_path, header):
    # Read as plain UTF-8, the mark glues onto the first cell, which then
    # fails to parse, so a bare table would lose its first row as a header.
    path = tmp_path / "bom.csv"
    write_csv(path, ten_rows(), header=header)
    path.write_bytes(b"\xef\xbb\xbf" + path.read_bytes())
    np.testing.assert_array_equal(_parse_table(path), np.array(ten_rows()))


def test_load_whitespace_table(tmp_path):
    path = tmp_path / "table.txt"
    path.write_text("1.0 2.0 3.0\n4.0 5.0 6.0\n7.0 8.0 9.0\n2.0 1.0 0.5\n")
    ds = load_delimited(path, train_fraction=0.75)
    assert ds.n_train == 3
    assert ds.n_test == 1


@pytest.mark.parametrize(
    "text", ["1 2\n3 4\n5,6\n", "1 2 3\n4 5 6\n7,8,9\n1 0 2\n"], ids=["last", "middle"]
)
def test_load_keeps_the_first_lines_delimiter(tmp_path, text):
    # The first non-blank line sets the delimiter for the whole file, so a
    # comma on a later line of a whitespace table is a bad cell on that line.
    path = tmp_path / "mixed.txt"
    path.write_text(text)
    with pytest.raises(ValueError, match="'.*,.*' at line 3, column 0"):
        load_delimited(path)


def test_load_reports_bad_cell_location(tmp_path):
    path = tmp_path / "broken.csv"
    path.write_text("1.0,2.0\n3.0,oops\n")
    with pytest.raises(ValueError, match="line 2"):
        load_delimited(path)


def test_load_rejects_non_finite_cells(tmp_path):
    rows = ten_rows()
    rows[3][2] = float("nan")
    path = tmp_path / "nan_target.csv"
    write_csv(path, rows, header="a,b,target")
    with pytest.raises(ValueError, match="non-finite value nan at line 5, column 2"):
        load_delimited(path)
    path.write_text("1.0,2.0\n3.0,inf\n4.0,5.0\n")
    with pytest.raises(ValueError, match="line 2, column 1"):
        load_delimited(path)


def test_load_rejects_ragged_rows(tmp_path):
    path = tmp_path / "ragged.csv"
    path.write_text("1.0,2.0,3.0\n1.0,2.0\n")
    with pytest.raises(ValueError, match="columns"):
        load_delimited(path)


def test_load_rejects_empty_file(tmp_path):
    path = tmp_path / "empty.csv"
    path.write_text("\n")
    with pytest.raises(ValueError, match="no data"):
        load_delimited(path)


def test_load_rejects_a_table_without_features(tmp_path):
    path = tmp_path / "target_only.csv"
    path.write_text("1.0\n2.0\n3.0\n")
    with pytest.raises(ValueError, match="need at least one feature column"):
        load_delimited(path)


def test_load_target_column_selection(tmp_path):
    path = tmp_path / "cols.csv"
    write_csv(path, ten_rows())
    last = load_delimited(path, target_column=-1, seed=0)
    first = load_delimited(path, target_column=0, seed=0)
    # same rows end up in the split, but the target column differs
    assert last.x_train.shape == first.x_train.shape
    raw = np.asarray(ten_rows())[split_rows(10, 0.9, seed=0)[0]]
    for ds, col in ((last, 2), (first, 0)):
        recovered = to_raw_scale(ds.y_train, raw[:, col])
        np.testing.assert_allclose(recovered, raw[:, col], rtol=1e-12, atol=1e-14)
    assert not np.allclose(raw[:, 2], raw[:, 0])
    with pytest.raises(ValueError):
        load_delimited(path, target_column=5)


def test_load_split_is_deterministic_and_loses_nothing(tmp_path):
    path = tmp_path / "det.csv"
    rows = ten_rows()
    write_csv(path, rows)
    a = load_delimited(path, seed=1)
    b = load_delimited(path, seed=1)
    np.testing.assert_array_equal(a.x_train, b.x_train)
    train = np.asarray(rows)[split_rows(10, 0.9, seed=1)[0], 2]
    recovered = to_raw_scale(np.concatenate([a.y_train, a.y_test]), train)
    np.testing.assert_allclose(
        np.sort(recovered), np.sort([r[2] for r in rows]), rtol=1e-12
    )


def test_load_train_count_is_floor_of_fraction(tmp_path):
    path = tmp_path / "count.csv"
    write_csv(path, ten_rows())
    ds = load_delimited(path, train_fraction=0.49)
    assert ds.n_train == 4
    assert ds.n_test == 6
    with pytest.raises(ValueError, match="n_train=1"):
        load_delimited(path, train_fraction=0.19)  # one training row
    for fraction in (0.0, 1.0, 1.5):
        with pytest.raises(ValueError, match="train_fraction"):
            load_delimited(path, train_fraction=fraction)


@pytest.mark.parametrize("fraction", [0.0, 1.0, -0.5, float("nan")])
def test_load_checks_the_fraction_before_reading_the_file(tmp_path, fraction):
    # the path does not exist: reading it first would raise FileNotFoundError
    with pytest.raises(ValueError, match="train_fraction"):
        load_delimited(tmp_path / "missing.csv", train_fraction=fraction)


def test_load_normalizes_with_train_stats(tmp_path):
    path = tmp_path / "norm.csv"
    rng = np.random.default_rng(9)
    rows = [[float(a), float(3 * a + b)] for a, b in rng.normal(size=(40, 2))]
    write_csv(path, rows)
    ds = load_delimited(path, train_fraction=0.8)
    assert ds.y_train.mean() == pytest.approx(0.0, abs=1e-12)
    assert ds.y_train.std() == pytest.approx(1.0, rel=1e-12)
    # test rows reuse the training statistics, so they need not be centered
    assert abs(ds.y_test.mean()) > 0.0


# The std of equal values rounds to 0 only when their mean is exact: for 20
# of them it is 0 at 0.5, but 5.55e-17 at 0.3 and 1.4e-17 at 0.1.
CONSTANTS = [0.5, 0.3, 0.1]


@pytest.mark.parametrize("value", CONSTANTS)
def test_a_constant_column_is_centred_on_its_value_and_not_scaled(value):
    rng = np.random.default_rng(3)
    x_train = np.column_stack([np.full(20, value), rng.normal(size=20)])
    x_test = np.array([[value + 0.01, 0.0]])
    ds = _normalize(x_train, rng.normal(size=20), x_test, np.zeros(1))
    assert np.all(ds.x_train[:, 0] == 0.0)
    assert ds.x_test[0, 0] == pytest.approx(0.01, rel=1e-12)


@pytest.mark.parametrize("value", CONSTANTS)
def test_constant_targets_fail_training_at_any_value(tmp_path, value):
    path = tmp_path / "flat.csv"
    write_csv(path, [[float(a), value] for a in np.random.default_rng(5).normal(size=25)])
    ds = load_delimited(path, train_fraction=0.8)  # 20 training rows
    assert np.all(ds.y_train == 0.0)
    with pytest.raises(ValueError, match="training targets are all zero"):
        fit(ds.x_train, ds.y_train)
