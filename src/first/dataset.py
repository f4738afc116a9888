"""Tabular data ingestion and encoding into the numeric matrix used for
nearest-neighbor distance computations.

Continuous columns are z-scored (sample mean 0, sample sd 1) so that
distances are scale-free; categorical columns are expanded into unit 0/1
one-hot columns. A group map records which encoded columns belong to each
original factor, so downstream estimators can project onto factor subsets.
"""

import csv
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

    def columns_for(self, factors) -> np.ndarray:
        """Sorted encoded column indices owned by the given factor subset."""
        cols: list[int] = []
        for f in factors:
            cols.extend(self.group_map[f])
        return np.array(sorted(cols), dtype=np.intp)


def load_csv(path, response, categoricals=(), on_missing="reject") -> Dataset:
    """Load a delimited text file (header row required) into a Dataset.

    Parameters
    ----------
    path : str or Path
        CSV file, RFC-4180 style, UTF-8.
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
        fh = open(path, newline="", encoding="utf-8")
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
    names, kinds, columns = [], [], []
    for pos, name in enumerate(header):
        if pos == resp_pos:
            continue
        raw = [row[pos] for row in rows]
        if name in categoricals:
            names.append(name)
            kinds.append(CATEGORICAL)
            columns.append(np.array([cell.strip() for cell in raw], dtype=object))
        else:
            try:
                col = np.array([float(cell) for cell in raw])
            except ValueError:
                bad = next(c for c in raw if not _parses_float(c))
                raise DataError(f"non-numeric value {bad!r} in continuous column {name!r}") from None
            names.append(name)
            kinds.append(CONTINUOUS)
            columns.append(col)
    try:
        y = np.array([float(row[resp_pos]) for row in rows])
    except ValueError:
        raise DataError(f"response column {response!r} contains non-numeric values") from None

    return Dataset(
        factor_names=tuple(names),
        factor_kinds=tuple(kinds),
        factors=tuple(columns),
        response=y,
        response_name=response,
    )


def _parses_float(cell: str) -> bool:
    try:
        float(cell)
        return True
    except ValueError:
        return False


def save_csv(dataset: Dataset, path) -> None:
    """Write a Dataset back to CSV in the same format ``load_csv`` ingests.

    Floats are written with full precision so that a save/load round trip
    reproduces the data exactly.
    """
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(list(dataset.factor_names) + [dataset.response_name])
        for i in range(dataset.n_rows):
            row = []
            for kind, col in zip(dataset.factor_kinds, dataset.factors):
                row.append(col[i] if kind == CATEGORICAL else repr(float(col[i])))
            row.append(repr(float(dataset.response[i])))
            writer.writerow(row)


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
