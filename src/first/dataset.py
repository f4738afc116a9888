"""Tabular data ingestion and encoding into the numeric matrix used for
nearest-neighbor distance computations.

Continuous columns are z-scored (sample mean 0, sample sd 1) so that
distances are scale-free; categorical columns are expanded into unit 0/1
one-hot columns. A group map records which encoded columns belong to each
original factor, so downstream estimators can project onto factor subsets.
"""

import csv
import warnings
from dataclasses import dataclass

import numpy as np

CONTINUOUS = "continuous"
CATEGORICAL = "categorical"

# Cell contents treated as missing values. No imputation is ever performed:
# rows containing these are either rejected or dropped.
MISSING_TOKENS = frozenset({"", "na", "nan", "null"})


class DataError(ValueError):
    """Raised for malformed or unusable input data."""


def _is_missing(cell: str) -> bool:
    return cell.strip().lower() in MISSING_TOKENS


def check_integer(name: str, value, least: int | None = None) -> int:
    """``value`` as an ``int``; a non-integer, a bool or a value below ``least`` raises ``ValueError``."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise ValueError(f"{name} must be an integer, got {value!r}")
    if least is not None and value < least:
        raise ValueError(f"{name} must be at least {least}, got {value}")
    return int(value)


@dataclass(frozen=True, eq=False)
class Dataset:
    """An N x p feature table with a scalar response.

    Each factor is tagged continuous or categorical. Continuous factors are
    float arrays; categorical factors are string arrays of level labels.
    Instances are immutable and safe to share across workers.
    """

    factor_names: tuple[str, ...]
    factor_kinds: tuple[str, ...]
    factors: tuple[np.ndarray, ...]
    response: np.ndarray
    response_name: str = "y"

    def __post_init__(self):
        if len(self.factor_names) != len(self.factors) or len(self.factor_kinds) != len(self.factors):
            raise DataError("factor names, kinds and columns must align")
        if self.n_factors < 1:
            raise DataError("need at least one factor")
        if self.n_rows < 2:
            raise DataError("need at least two rows")
        if len(self.response) != self.n_rows:
            raise DataError("response length does not match factor columns")
        if not np.all(np.isfinite(self.response)):
            raise DataError("response contains non-finite values")
        for name, kind, col in zip(self.factor_names, self.factor_kinds, self.factors):
            if kind not in (CONTINUOUS, CATEGORICAL):
                raise DataError(f"unknown factor kind {kind!r} for column {name!r}")
            if len(col) != self.n_rows:
                raise DataError(f"column {name!r} has inconsistent length")
            if kind == CONTINUOUS and not np.all(np.isfinite(col)):
                raise DataError(f"continuous column {name!r} contains non-finite values")
        self.response.flags.writeable = False
        for col in self.factors:
            col.flags.writeable = False

    @property
    def n_rows(self) -> int:
        return len(self.factors[0]) if self.factors else 0

    @property
    def n_factors(self) -> int:
        return len(self.factors)


@dataclass(frozen=True, eq=False)
class EncodedMatrix:
    """Numeric N x q matrix on which all neighbor distances are computed.

    ``group_map[j]`` holds the encoded column indices owned by factor j; the
    groups partition ``range(q)``. Encoded columns with zero variance are
    listed in ``constant_columns`` as a diagnostic; when standardizing,
    constant continuous columns are mapped to all-zero so they cannot
    perturb distances.
    """

    values: np.ndarray
    group_map: tuple[tuple[int, ...], ...]
    constant_columns: tuple[int, ...] = ()

    def __post_init__(self):
        q = self.values.shape[1]
        seen = sorted(c for group in self.group_map for c in group)
        if seen != list(range(q)):
            raise DataError("group_map must partition the encoded columns")
        if any(len(g) == 0 for g in self.group_map):
            raise DataError("every factor must own at least one encoded column")
        self.values.flags.writeable = False

    @property
    def n_rows(self) -> int:
        return self.values.shape[0]

    @property
    def n_factors(self) -> int:
        return len(self.group_map)

    def factor_subset(self, factors) -> list[int]:
        """Sorted distinct ``int`` indices of ``factors``; a non-integer or bool index,
        one outside ``range(n_factors)`` or an empty subset raises ``ValueError``."""
        subset = sorted({check_integer("factor index", f) for f in factors})
        if not subset:
            raise ValueError("factor subset must be non-empty")
        if subset[0] < 0 or subset[-1] >= self.n_factors:
            raise ValueError(f"factor indices out of range 0..{self.n_factors - 1}")
        return subset

    def columns_for(self, factors) -> np.ndarray:
        """Sorted encoded column indices owned by the given factor subset."""
        cols: list[int] = []
        for f in factors:
            cols.extend(self.group_map[f])
        return np.array(sorted(cols), dtype=np.intp)


def load_csv(path, response, categoricals=(), on_missing="reject") -> Dataset:
    """Load a delimited text file (header row required) into a Dataset.

    The header is read with ``csv.reader``. A file without categorical
    columns then has its body parsed in one ``np.loadtxt`` call, which
    handles RFC-4180 quoting through ``quotechar`` and makes no per-cell
    Python objects. That result is used only when it equals what the row
    scan would give: the file falls back to the scan when the call raises
    (a non-numeric or empty cell, a ragged row, undecodable text), when its
    width differs from the header's, when the body has no rows, when a
    value is NaN (the "nan" missing token parses to one) and when a line
    holds one of the ASCII separators U+001C-U+001F, which ``np.loadtxt``
    strips from a number as whitespace and ``float()`` rejects. Files with
    categorical columns always take the scan.

    The scan reads the body row by row with ``csv.reader``, rejects or
    drops rows with a missing cell, converts each cell with ``float()`` and
    cites the physical line in a row's error, so a file gets the same
    result and the same message on either path.

    Parameters
    ----------
    path : str or Path
        CSV file, RFC-4180 style, UTF-8 with or without a byte order mark.
    response : str
        Name of the response column. Must parse as numeric.
    categoricals : iterable of str
        Column names to treat as categorical levels (kept as strings).
    on_missing : {"reject", "drop_rows"}
        Whether a row with a missing cell is an error or silently dropped.
    """
    if on_missing not in ("reject", "drop_rows"):
        raise DataError(f"on_missing must be 'reject' or 'drop_rows', got {on_missing!r}")
    categoricals = set(categoricals)
    try:
        fh = open(path, newline="", encoding="utf-8-sig")
    except OSError as exc:
        raise DataError(f"cannot open {path}: {exc}") from exc
    with fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise DataError(f"{path}: empty file") from None
        header = [h.strip() for h in header]
        if len(set(header)) != len(header):
            raise DataError(f"{path}: duplicate column names in header")
        if response not in header:
            raise DataError(f"response column not found: {response!r}")
        unknown = categoricals - set(header)
        if unknown:
            raise DataError(f"categorical columns not in header: {sorted(unknown)}")
        if response in categoricals:
            raise DataError("response column cannot be categorical")

        table = None if categoricals else _parse_numeric(fh, len(header))
        if table is None:
            fh.seek(0)
            reader = csv.reader(fh)
            next(reader)
            columns = _scan(reader, path, header, response, categoricals, on_missing)
        else:
            columns = list(np.ascontiguousarray(table.T))

    resp_pos = header.index(response)
    y = columns.pop(resp_pos)
    names = header[:resp_pos] + header[resp_pos + 1:]
    return Dataset(
        factor_names=tuple(names),
        factor_kinds=tuple(CATEGORICAL if name in categoricals else CONTINUOUS for name in names),
        factors=tuple(columns),
        response=y,
        response_name=response,
    )


def _numeric_lines(fh):
    """The lines of ``fh``, up to one holding U+001C-U+001F, where it raises ValueError."""
    for line in fh:
        if "\x1c" in line or "\x1d" in line or "\x1e" in line or "\x1f" in line:
            raise ValueError("ASCII separator in a numeric line")
        yield line


def _parse_numeric(fh, width):
    """The rest of ``fh`` as a float table, or None when the row scan must decide."""
    try:
        with warnings.catch_warnings():
            warnings.filterwarnings("ignore", ".*input contained no data", UserWarning)
            table = np.loadtxt(_numeric_lines(fh), delimiter=",", quotechar='"', comments=None,
                               ndmin=2, dtype=np.float64)
    except ValueError:
        return None
    if table.shape[0] == 0 or table.shape[1] != width or np.isnan(table).any():
        return None
    return table


def _scan(reader, path, header, response, categoricals, on_missing):
    """Columns of the rows ``reader`` yields, in header order, checked row by row."""
    rows = []
    for row in reader:
        if not row:
            continue
        if len(row) != len(header):
            raise DataError(f"{path}:{reader.line_num}: expected {len(header)} fields, got {len(row)}")
        if any(_is_missing(cell) for cell in row):
            if on_missing == "reject":
                raise DataError(f"{path}:{reader.line_num}: missing value (use drop_rows to skip such rows)")
            continue
        rows.append(row)
    if not rows:
        raise DataError(f"{path}: no complete rows after handling missing values")

    resp_pos = header.index(response)
    columns = [None] * len(header)
    for pos, name in enumerate(header):
        if pos == resp_pos:
            continue
        raw = [row[pos] for row in rows]
        if name in categoricals:
            columns[pos] = np.array([cell.strip() for cell in raw], dtype=object)
            continue
        try:
            columns[pos] = np.array([float(cell) for cell in raw])
        except ValueError:
            bad = next(c for c in raw if not _parses_float(c))
            raise DataError(f"non-numeric value {bad!r} in continuous column {name!r}") from None
    try:
        columns[resp_pos] = np.array([float(row[resp_pos]) for row in rows])
    except ValueError:
        raise DataError(f"response column {response!r} contains non-numeric values") from None
    return columns


def _parses_float(cell: str) -> bool:
    try:
        float(cell)
        return True
    except ValueError:
        return False


def save_csv(dataset: Dataset, path) -> None:
    """Write a Dataset back to CSV in the same format ``load_csv`` ingests.

    Floats are written with full precision (``repr``) so that a save/load
    round trip reproduces the data exactly. Each column is turned into
    strings at once and the rows are written in one call.
    """
    cols = [col.tolist() if kind == CATEGORICAL else _reprs(col)
            for kind, col in zip(dataset.factor_kinds, dataset.factors)]
    cols.append(_reprs(dataset.response))
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(list(dataset.factor_names) + [dataset.response_name])
        writer.writerows(zip(*cols))


def _reprs(col) -> list[str]:
    return [repr(v) for v in np.asarray(col, dtype=np.float64).tolist()]


def encode(dataset: Dataset, standardize: bool = True) -> EncodedMatrix:
    """Build the encoded distance matrix for a Dataset.

    Continuous columns are z-scored with the sample standard deviation when
    ``standardize`` is true (constant columns become all-zero and are
    flagged); with ``standardize`` false the raw values are kept. A
    categorical factor with L observed levels expands to L unit one-hot
    columns, never rescaled.
    """
    blocks: list[np.ndarray] = []
    groups: list[tuple[int, ...]] = []
    constant: list[int] = []
    q = 0
    for kind, col in zip(dataset.factor_kinds, dataset.factors):
        if kind == CONTINUOUS:
            x = np.asarray(col, dtype=np.float64)
            sd = float(x.std(ddof=1))
            if sd == 0.0:
                constant.append(q)
            if standardize:
                x = (x - x.mean()) / sd if sd > 0.0 else np.zeros_like(x)
            blocks.append(x)
            groups.append((q,))
            q += 1
        else:
            levels = sorted(set(col.tolist()))
            group = []
            for level in levels:
                onehot = (col == level).astype(np.float64)
                blocks.append(onehot)
                if onehot.min() == onehot.max():
                    constant.append(q)
                group.append(q)
                q += 1
            groups.append(tuple(group))

    values = np.ascontiguousarray(np.column_stack(blocks), dtype=np.float64)
    return EncodedMatrix(values=values, group_map=tuple(groups), constant_columns=tuple(constant))
