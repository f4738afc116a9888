"""Ingestion and encoding tests."""

import numpy as np
import pytest

from first.dataset import (
    CATEGORICAL,
    CONTINUOUS,
    DataError,
    Dataset,
    encode,
    load_csv,
    save_csv,
)
from first.estimators import EstimatorConfig
from tests.conftest import continuous_dataset


def write(tmp_path, text, name="data.csv"):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return path


BASIC = "x1,x2,y\n1.0,5.0,0.5\n2.0,6.0,1.5\n3.0,7.0,2.5\n4.0,8.0,3.5\n"


class TestLoadCsv:
    def test_basic_parse(self, tmp_path):
        ds = load_csv(write(tmp_path, BASIC), response="y")
        assert ds.n_rows == 4
        assert ds.n_factors == 2
        assert ds.factor_names == ("x1", "x2")
        assert ds.factor_kinds == (CONTINUOUS, CONTINUOUS)
        np.testing.assert_array_equal(ds.response, [0.5, 1.5, 2.5, 3.5])

    def test_drop_rows_removes_missing(self, tmp_path):
        text = "x1,x2,y\n1.0,5.0,0.5\n2.0,,1.5\n3.0,7.0,2.5\n4.0,8.0,3.5\n"
        ds = load_csv(write(tmp_path, text), response="y", on_missing="drop_rows")
        assert ds.n_rows == 3
        np.testing.assert_array_equal(ds.factors[0], [1.0, 3.0, 4.0])

    def test_reject_raises_on_missing(self, tmp_path):
        text = "x1,y\n1.0,0.5\n,1.5\n"
        with pytest.raises(DataError, match="missing value"):
            load_csv(write(tmp_path, text), response="y")

    @pytest.mark.parametrize("bad, message", [("3.0\n", "expected 3 fields, got 1"),
                                              ("3.0,,2.5\n", "missing value")])
    def test_errors_cite_physical_line_after_multiline_cell(self, tmp_path, bad, message):
        # the quoted cell of the first record spans lines 2 and 3
        text = 'x1,c,y\n1.0,"two\nlines",0.5\n' + bad
        path = write(tmp_path, text)
        with pytest.raises(DataError, match=f"data.csv:4: {message}"):
            load_csv(path, response="y", categoricals={"c"})

    def test_missing_response_column(self, tmp_path):
        with pytest.raises(DataError, match="response column not found"):
            load_csv(write(tmp_path, BASIC), response="target")

    def test_non_numeric_continuous_cell(self, tmp_path):
        text = "x1,y\n1.0,0.5\nfoo,1.5\n"
        with pytest.raises(DataError, match="non-numeric value 'foo'"):
            load_csv(write(tmp_path, text), response="y")

    def test_empty_after_dropping(self, tmp_path):
        text = "x1,y\n,0.5\n,1.5\n"
        with pytest.raises(DataError, match="no complete rows"):
            load_csv(write(tmp_path, text), response="y", on_missing="drop_rows")

    def test_categorical_column_kept_as_strings(self, tmp_path):
        text = "sex,len,y\nm,1.0,0.5\nf,2.0,1.5\nm,3.0,2.5\n"
        ds = load_csv(write(tmp_path, text), response="y", categoricals={"sex"})
        assert ds.factor_kinds == (CATEGORICAL, CONTINUOUS)
        assert list(ds.factors[0]) == ["m", "f", "m"]

    def test_unknown_categorical_name(self, tmp_path):
        with pytest.raises(DataError, match="categorical columns not in header"):
            load_csv(write(tmp_path, BASIC), response="y", categoricals={"nope"})

    def test_missing_file(self, tmp_path):
        with pytest.raises(DataError, match="cannot open"):
            load_csv(tmp_path / "absent.csv", response="y")

    def test_binary_response_detection(self, tmp_path):
        text = "x1,y\n1.0,0\n2.0,1\n3.0,1\n"
        ds = load_csv(write(tmp_path, text), response="y")
        assert EstimatorConfig().resolve_n_inner(ds.response) == 3
        ds2 = load_csv(write(tmp_path, BASIC, "b.csv"), response="y")
        assert EstimatorConfig().resolve_n_inner(ds2.response) == 2


class TestRoundTrip:
    def test_save_load_identity(self, tmp_path, rng):
        x = rng.uniform(size=(20, 2))
        cat = rng.choice(["a", "b", "c"], size=20)
        ds = Dataset(
            factor_names=("u", "flag", "v"),
            factor_kinds=(CONTINUOUS, CATEGORICAL, CONTINUOUS),
            factors=(x[:, 0], np.asarray(cat, dtype=object), x[:, 1]),
            response=rng.standard_normal(20),
            response_name="out",
        )
        path = tmp_path / "round.csv"
        save_csv(ds, path)
        back = load_csv(path, response="out", categoricals={"flag"})
        assert back.factor_names == ds.factor_names
        assert back.factor_kinds == ds.factor_kinds
        np.testing.assert_array_equal(back.response, ds.response)
        for a, b in zip(back.factors, ds.factors):
            np.testing.assert_array_equal(a, b)


class TestEncode:
    def test_zscore_example(self):
        ds = continuous_dataset(np.array([[1.0], [2.0], [3.0]]), np.zeros(3))
        m = encode(ds)
        col = m.values[:, 0]
        assert col.mean() == pytest.approx(0.0, abs=1e-12)
        assert col.std(ddof=1) == pytest.approx(1.0, rel=1e-12)

    def test_one_hot_example(self):
        ds = Dataset(
            factor_names=("c",),
            factor_kinds=(CATEGORICAL,),
            factors=(np.asarray(["a", "b", "a"], dtype=object),),
            response=np.zeros(3),
        )
        m = encode(ds)
        np.testing.assert_array_equal(m.values, [[1.0, 0.0], [0.0, 1.0], [1.0, 0.0]])
        assert m.group_map == ((0, 1),)

    def test_constant_column_zeroed_and_flagged(self):
        ds = continuous_dataset(np.array([[5.0, 1.0], [5.0, 2.0], [5.0, 3.0]]), np.zeros(3))
        m = encode(ds)
        np.testing.assert_array_equal(m.values[:, 0], 0.0)
        assert m.constant_columns == (0,)

    def test_no_standardize_keeps_raw_values(self):
        x = np.array([[1.0], [4.0], [10.0]])
        m, _ = _encode_raw(x)
        np.testing.assert_array_equal(m.values[:, 0], x[:, 0])

    def test_positive_scaling_absorbed(self, rng):
        x = rng.uniform(size=(30, 3))
        base = encode(continuous_dataset(x, np.zeros(30)))
        for c in (0.5, 3.0, 1000.0):
            scaled = x.copy()
            scaled[:, 1] *= c
            m = encode(continuous_dataset(scaled, np.zeros(30)))
            np.testing.assert_allclose(m.values, base.values, rtol=0, atol=1e-12)

    def test_row_permutation_permutes_rows_only(self, rng):
        x = rng.uniform(size=(25, 2))
        perm = rng.permutation(25)
        base = encode(continuous_dataset(x, np.zeros(25)))
        permuted = encode(continuous_dataset(x[perm], np.zeros(25)))
        np.testing.assert_allclose(permuted.values, base.values[perm], rtol=0, atol=1e-12)
        assert permuted.group_map == base.group_map

    def test_group_map_partitions_columns(self, rng):
        ds = Dataset(
            factor_names=("a", "b", "c"),
            factor_kinds=(CONTINUOUS, CATEGORICAL, CONTINUOUS),
            factors=(
                rng.uniform(size=10),
                np.asarray(rng.choice(["x", "y", "z"], size=10), dtype=object),
                rng.uniform(size=10),
            ),
            response=np.zeros(10),
        )
        m = encode(ds)
        cols = sorted(c for g in m.group_map for c in g)
        assert cols == list(range(m.values.shape[1]))
        assert m.values.shape[1] == 1 + 3 + 1
        np.testing.assert_array_equal(m.columns_for([1]), [1, 2, 3])

    def test_matrix_is_immutable(self):
        m, _ = _encode_raw(np.array([[1.0], [2.0]]))
        with pytest.raises(ValueError):
            m.values[0, 0] = 9.0


def _encode_raw(x):
    ds = continuous_dataset(x, np.zeros(len(x)))
    return encode(ds, standardize=False), ds.response


class TestDatasetValidation:
    def test_too_few_rows(self):
        with pytest.raises(DataError, match="two rows"):
            continuous_dataset(np.array([[1.0]]), np.array([1.0]))

    def test_non_finite_continuous(self):
        with pytest.raises(DataError, match="non-finite"):
            continuous_dataset(np.array([[1.0], [np.inf]]), np.zeros(2))

    def test_non_finite_response(self):
        with pytest.raises(DataError, match="response"):
            continuous_dataset(np.array([[1.0], [2.0]]), np.array([1.0, np.nan]))
