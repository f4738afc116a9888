"""Ingestion and encoding tests."""

import csv
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from first import dataset as dataset_module
from first.dataset import (
    CATEGORICAL,
    CONTINUOUS,
    DataError,
    Dataset,
    EncodedMatrix,
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


def reference_load(path, response, on_missing="reject", categoricals=()):
    """``load_csv`` as a per-cell scan: ``csv.reader``, then ``float()`` per cell."""
    with open(path, newline="", encoding="utf-8-sig") as fh:
        reader = csv.reader(fh)
        header = [h.strip() for h in next(reader)]
        rows = []
        for row in reader:
            if not row:
                continue
            if len(row) != len(header):
                raise DataError(f"{path}:{reader.line_num}: expected {len(header)} fields, got {len(row)}")
            if any(cell.strip().lower() in ("", "na", "nan", "null") for cell in row):
                if on_missing == "reject":
                    raise DataError(f"{path}:{reader.line_num}: missing value (use drop_rows to skip such rows)")
                continue
            rows.append(row)
    if not rows:
        raise DataError(f"{path}: no complete rows after handling missing values")
    pos = header.index(response)
    names, kinds, columns = [], [], []
    for j, name in enumerate(header):
        if j == pos:
            continue
        names.append(name)
        if name in categoricals:
            kinds.append(CATEGORICAL)
            columns.append(np.array([row[j].strip() for row in rows], dtype=object))
            continue
        kinds.append(CONTINUOUS)
        values = []
        for row in rows:
            try:
                values.append(float(row[j]))
            except ValueError:
                raise DataError(f"non-numeric value {row[j]!r} in continuous column {name!r}") from None
        columns.append(np.array(values))
    try:
        y = np.array([float(row[pos]) for row in rows])
    except ValueError:
        raise DataError(f"response column {response!r} contains non-numeric values") from None
    return Dataset(factor_names=tuple(names), factor_kinds=tuple(kinds), factors=tuple(columns),
                   response=y, response_name=response)


def outcome(load, path, response, on_missing, categoricals=()):
    """What a loader gives: the dataset's names, kinds and bytes, or the exception.

    Warnings are raised as errors, so a warning that escapes the loader
    shows up as a different outcome.
    """
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        try:
            ds = load(path, response, categoricals=categoricals, on_missing=on_missing)
        except Exception as exc:
            return "error", type(exc).__name__, str(exc)
    cells = tuple(col.tolist() if kind == CATEGORICAL else col.tobytes()
                  for kind, col in zip(ds.factor_kinds, ds.factors))
    return "ok", ds.factor_names, ds.factor_kinds, cells, ds.response.tobytes()


NUMBERS = ("0", "1", "-2.5", "+3", "1e3", "-0.0", ".5", "5.", "1e-310", "1e999", "0.1", "12345678901234567890",
           " 4 ", "\t5\t", "inf", "-Infinity")
OTHERS = ("nan", "NaN", " nan ", "+nan", "-nan", "na", "NULL", "", " ", "1_000", "\u0661\u0662", "2\x1f",
          "x", "0x10", "1e", "--1")


@st.composite
def csv_cells(draw):
    cell = draw(st.sampled_from(NUMBERS) if draw(st.integers(0, 9)) else st.sampled_from(OTHERS))
    how = draw(st.sampled_from(["bare"] * 5 + ["quoted", "quoted", "multiline", "odd"]))
    if how == "quoted":
        return '"' + cell.replace('"', '""') + '"'
    if how == "multiline":
        return '"' + draw(st.sampled_from(["\n", "\r\n"])) + cell + '"'
    if how == "odd":
        return draw(st.sampled_from(['"{}"x', '{}"', ' "{}"', '"{}" ', '"{}""'])).format(cell)
    return cell


@st.composite
def csv_texts(draw):
    """Header ``a,y``, ``y,a,b`` or ``y`` and rows of mostly that width."""
    header = draw(st.sampled_from([["a", "y"], ["y", "a", "b"], ["y"]]))
    end = draw(st.sampled_from(["\n", "\r\n", "\r"]))
    lines = [",".join(header)]
    for _ in range(draw(st.integers(min_value=0, max_value=6))):
        kind = draw(st.sampled_from(["row"] * 12 + ["blank", "space", "short", "long"]))
        if kind == "blank":
            lines.append("")
        elif kind == "space":
            lines.append(draw(st.sampled_from([" ", "\t"])))
        else:
            width = len(header) + {"row": 0, "short": -1, "long": 1}[kind]
            lines.append(",".join(draw(csv_cells()) for _ in range(width)))
    text = end.join(lines) + draw(st.sampled_from([end, ""]))
    return draw(st.sampled_from(["", "\ufeff"])) + text


@pytest.fixture(scope="module")
def csv_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("csv")


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

    @pytest.mark.parametrize("text, kwargs, message", [
        (BASIC, dict(on_missing="skip"), "on_missing must be 'reject' or 'drop_rows', got 'skip'"),
        ("", {}, "data.csv: empty file"),
        ("x1,x1,y\n1.0,2.0,0.5\n", {}, "data.csv: duplicate column names in header"),
        (BASIC, dict(categoricals={"y"}), "response column cannot be categorical"),
    ])
    def test_bad_file_or_arguments_rejected(self, tmp_path, text, kwargs, message):
        with pytest.raises(DataError, match=message):
            load_csv(write(tmp_path, text), response="y", **kwargs)

    def test_binary_response_detection(self, tmp_path):
        text = "x1,y\n1.0,0\n2.0,1\n3.0,1\n"
        ds = load_csv(write(tmp_path, text), response="y")
        assert EstimatorConfig().resolve_n_inner(ds.response) == 3
        ds2 = load_csv(write(tmp_path, BASIC, "b.csv"), response="y")
        assert EstimatorConfig().resolve_n_inner(ds2.response) == 2


class TestNumericParse:
    """All-numeric files go through one ``np.loadtxt`` call; the rest fall back to the row scan."""

    def test_numeric_file_skips_the_scan(self, tmp_path, monkeypatch):
        def no_scan(*args):
            raise AssertionError("row scan called")

        monkeypatch.setattr(dataset_module, "_scan", no_scan)
        ds = load_csv(write(tmp_path, 'x1,x2,y\r\n1.0,"5.0",0.5\r\n\r\n2.0, 6.0 ,1.5\r\n'), response="y")
        np.testing.assert_array_equal(ds.factors[1], [5.0, 6.0])
        for col in ds.factors + (ds.response,):
            assert col.flags.c_contiguous and col.dtype == np.float64

    @pytest.mark.parametrize("text, categoricals", [
        ("x1,y\n1.0,0.5\nnan,1.5\n2.0,2.5\n", set()),
        ("x1,y\n1.0,0.5\n2.0,1_5\n", set()),
        ("x1,y\n1.0,0.5\n2.0,1.5\x1c\n", set()),
        ("x1,y\n1.0\n2.0\n", set()),
        ("x1,y\n", set()),
        ("c,y\n1.0,0.5\n2.0,1.5\n", {"c"}),
    ])
    def test_fallback_files_take_the_scan(self, tmp_path, monkeypatch, text, categoricals):
        calls = []
        scan = dataset_module._scan
        monkeypatch.setattr(dataset_module, "_scan", lambda *args: calls.append(1) or scan(*args))
        path = write(tmp_path, text)
        assert outcome(load_csv, path, "y", "drop_rows", categoricals) == \
            outcome(reference_load, path, "y", "drop_rows", categoricals)
        assert calls == [1]

    @pytest.mark.parametrize("text, message", [
        ("x1,y\n1.0,0.5\n2.0,1.5\x1c\n", "response column 'y' contains non-numeric values"),
        ("x1,y\n1.0,0.5\n\u0661\u0662,1.5\n", None),
        ("x1,y\n1.0,0.5\n1_000,1.5\n", None),
        ("x1,y\n1.0,0.5\n+nan,1.5\n", "continuous column 'x1' contains non-finite values"),
        ("x1,y\n1.0,0.5\n2.0,inf\n", "response contains non-finite values"),
        ('x1,y\n"1.0\n",0.5\n3.0\n', "data.csv:4: expected 2 fields, got 1"),
        ('"x\n1",y\n1.0,0.5\n2.0,1.5,3\n', "data.csv:4: expected 2 fields, got 3"),
        ("x1,y\n1.0,0.5\n", "need at least two rows"),
        ("y\n1.0\n2.0\n", "need at least one factor"),
    ])
    def test_cases_where_the_parsers_differ(self, tmp_path, text, message):
        # float() reads 1_000 and Arabic-Indic digits, np.loadtxt does not;
        # np.loadtxt strips U+001C-U+001F around a number, float() does not
        path = write(tmp_path, text)
        got = outcome(load_csv, path, "y", "reject")
        assert got == outcome(reference_load, path, "y", "reject")
        if message is None:
            assert got[0] == "ok"
        else:
            assert got[1:] == ("DataError", message.replace("data.csv", str(path)))

    @pytest.mark.parametrize("token", ["nan", " NaN ", "NA", "null", "", " "])
    def test_drop_rows_on_numeric_file(self, tmp_path, token):
        path = write(tmp_path, f"x1,x2,y\n1.0,5.0,0.5\n2.0,{token},1.5\n3.0,7.0,2.5\n")
        ds = load_csv(path, response="y", on_missing="drop_rows")
        np.testing.assert_array_equal(ds.factors[0], [1.0, 3.0])
        np.testing.assert_array_equal(ds.factors[1], [5.0, 7.0])
        np.testing.assert_array_equal(ds.response, [0.5, 2.5])
        with pytest.raises(DataError, match="data.csv:3: missing value"):
            load_csv(path, response="y")

    def test_drop_rows_on_numeric_file_leaving_too_few(self, tmp_path):
        text = "x1,y\n1.0,nan\n2.0,1.5\nNA,2.5\n"
        with pytest.raises(DataError, match="need at least two rows"):
            load_csv(write(tmp_path, text), response="y", on_missing="drop_rows")

    def test_utf8_byte_order_mark(self, tmp_path):
        path = tmp_path / "bom.csv"
        path.write_bytes(b"\xef\xbb\xbfy,x\n0.5,1.0\n1.5,2.0\n")
        ds = load_csv(path, response="y")
        assert ds.factor_names == ("x",)
        np.testing.assert_array_equal(ds.response, [0.5, 1.5])
        path.write_bytes(b"\xef\xbb\xbfy,x\n0.5,1.0\n1.5,nan\n2.5,3.0\n")
        assert load_csv(path, response="y", on_missing="drop_rows").factor_names == ("x",)
        with pytest.raises(DataError, match="bom.csv:3: missing value"):
            load_csv(path, response="y")

    @settings(max_examples=300, deadline=None)
    @given(text=csv_texts(), on_missing=st.sampled_from(["reject", "drop_rows"]))
    def test_matches_per_cell_reference(self, csv_dir, text, on_missing):
        path = csv_dir / "data.csv"
        path.write_bytes(text.encode("utf-8"))
        assert outcome(load_csv, path, "y", on_missing) == outcome(reference_load, path, "y", on_missing)


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

    def test_save_matches_per_cell_writer(self, tmp_path):
        special = np.array([-0.0, 5e-324, 1e308, -1e308, 0.1, 1 / 3, 2.0 ** 60, 7.0])
        ds = Dataset(
            factor_names=("u", "level", "v"),
            factor_kinds=(CONTINUOUS, CATEGORICAL, CONTINUOUS),
            factors=(special, np.array(['a,"b', "c", 'say "hi"', "d e", "", "f", "g,", '"'], dtype=object),
                     special[::-1].copy()),
            response=np.arange(8) - 3.5,
            response_name="out",
        )
        path, ref = tmp_path / "new.csv", tmp_path / "ref.csv"
        save_csv(ds, path)
        with open(ref, "w", newline="", encoding="utf-8") as fh:
            writer = csv.writer(fh)
            writer.writerow(list(ds.factor_names) + [ds.response_name])
            for i in range(ds.n_rows):
                row = [col[i] if kind == CATEGORICAL else repr(float(col[i]))
                       for kind, col in zip(ds.factor_kinds, ds.factors)]
                writer.writerow(row + [repr(float(ds.response[i]))])
        assert path.read_bytes() == ref.read_bytes()
        back = load_csv(path, response="out", on_missing="drop_rows", categoricals={"level"})
        np.testing.assert_array_equal(back.factors[0], special[[0, 1, 2, 3, 5, 6, 7]])
        assert np.signbit(back.factors[0][0])


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

    def test_factor_subset_is_sorted_distinct_ints(self):
        m, _ = _encode_raw(np.arange(9.0).reshape(3, 3))
        got = m.factor_subset((np.int64(2), 0, 2))
        assert got == [0, 2] and all(type(f) is int for f in got)

    def test_single_level_categorical_flagged_constant(self):
        ds = Dataset(
            factor_names=("x", "c"),
            factor_kinds=(CONTINUOUS, CATEGORICAL),
            factors=(np.array([1.0, 2.0, 3.0]), np.array(["a", "a", "a"], dtype=object)),
            response=np.zeros(3),
        )
        m = encode(ds)
        assert m.group_map == ((0,), (1,))
        assert m.constant_columns == (1,)
        np.testing.assert_array_equal(m.values[:, 1], 1.0)

    @pytest.mark.parametrize("group_map, message", [
        (((0,), (0, 1)), "group_map must partition the encoded columns"),
        (((0,), (2,)), "group_map must partition the encoded columns"),
        (((0, 1), ()), "every factor must own at least one encoded column"),
    ])
    def test_malformed_group_map_rejected(self, group_map, message):
        with pytest.raises(DataError, match=message):
            EncodedMatrix(values=np.zeros((3, 2)), group_map=group_map)


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

    @pytest.mark.parametrize("change, message", [
        (dict(factor_names=("a",)), "factor names, kinds and columns must align"),
        (dict(factor_kinds=(CONTINUOUS,)), "factor names, kinds and columns must align"),
        (dict(response=np.zeros(3)), "response length does not match factor columns"),
        (dict(factor_kinds=(CONTINUOUS, "ordinal")), "unknown factor kind 'ordinal' for column 'b'"),
        (dict(factors=(np.zeros(4), np.zeros(3))), "column 'b' has inconsistent length"),
    ])
    def test_malformed_fields_rejected(self, change, message):
        fields = dict(factor_names=("a", "b"), factor_kinds=(CONTINUOUS, CONTINUOUS),
                      factors=(np.zeros(4), np.ones(4)), response=np.zeros(4))
        with pytest.raises(DataError, match=message):
            Dataset(**{**fields, **change})
