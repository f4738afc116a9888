"""Shared helpers: independent brute-force oracles and small data builders.

The oracles here deliberately avoid the library's spatial index and
estimator plumbing so that library results are checked against a second,
independent computation path.
"""

import sys

import numpy as np
import pytest

from first import neighbors
from first.dataset import CATEGORICAL, CONTINUOUS, Dataset, encode


def brute_within_kth(points: np.ndarray, row: int, k: int) -> list[int]:
    """All rows within the distance of the k-th nearest row, by linear scan."""
    d2 = ((points - points[row]) ** 2).sum(axis=1)
    kth = np.sort(d2)[k - 1]
    ids = np.nonzero(d2 <= kth)[0]
    order = np.lexsort((ids, d2[ids]))
    return [int(i) for i in ids[order]]


def brute_effect(points: np.ndarray, y: np.ndarray, k: int) -> float:
    """Mean within-kth neighbor variance of y, by linear scan over all rows."""
    variances = []
    for row in range(len(y)):
        members = brute_within_kth(points, row, k)
        variances.append(np.var(y[members], ddof=1))
    return float(np.mean(variances))


def continuous_dataset(x: np.ndarray, y: np.ndarray, names=None) -> Dataset:
    """Wrap a raw feature matrix and response into a Dataset."""
    p = x.shape[1]
    names = names or tuple(f"x{j + 1}" for j in range(p))
    return Dataset(
        factor_names=tuple(names),
        factor_kinds=(CONTINUOUS,) * p,
        factors=tuple(np.ascontiguousarray(x[:, j], dtype=np.float64) for j in range(p)),
        response=np.asarray(y, dtype=np.float64),
    )


def categorical_grid_dataset(n: int, seed: int) -> Dataset:
    """Three 3-level categoricals plus a factor on a 0.1 grid, the tie-heavy shape.

    y = c1 + (2*c2 + 1) * x + N(0, 1); c3 is inert. Most within-kth queries
    tie: rows sharing a cell tie at distance zero, and rows alone in their
    cell tie at a positive distance.
    """
    rng = np.random.default_rng(seed)
    codes = rng.integers(0, 3, size=(n, 3))
    x = rng.integers(0, 11, size=n) / 10
    y = codes[:, 0] + (2 * codes[:, 1] + 1) * x + rng.standard_normal(n)
    levels = np.array(["a", "b", "c"], dtype=object)
    return Dataset(
        factor_names=("c1", "c2", "c3", "x"),
        factor_kinds=(CATEGORICAL,) * 3 + (CONTINUOUS,),
        factors=tuple(levels[codes[:, j]] for j in range(3)) + (x,),
        response=y,
    )


def encoded(x: np.ndarray, y: np.ndarray, standardize: bool = True):
    """Dataset plus EncodedMatrix in one call; returns (matrix, response)."""
    ds = continuous_dataset(x, y)
    return encode(ds, standardize=standardize), ds.response


def force_backend(monkeypatch, name):
    """Send every subspace to one backend, overriding both of ``build_index``'s rules.

    ``"tree"``: k-d trees at any width and row count. ``"dense"``: the dense
    scan at any width. ``"few_rows"``: the dense scan for every index built
    with a row count, by the few-rows rule alone; an index built without
    one (a forward step's lists in A) stays a tree.
    """
    if name not in ("tree", "dense", "few_rows"):
        raise ValueError(f"unknown backend {name!r}")
    monkeypatch.setattr(neighbors, "DENSE_MIN_COLUMNS", 1 if name == "dense" else sys.maxsize)
    monkeypatch.setattr(neighbors, "DENSE_QUERY_FACTOR", np.inf if name == "few_rows" else 0.0)


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)
