"""Exact nearest-neighbor machinery over factor subspaces.

Queries follow the within-kth-distance rule: a query returns *every* row
whose Euclidean distance to the query row is at most the distance of the
k-th nearest row, with the query row itself counting as its own nearest
neighbor at distance zero. Ties are therefore resolved by inclusion, never
by random choice, which keeps all estimates deterministic.
"""

import os
from dataclasses import dataclass

import numpy as np
from scipy.spatial import cKDTree

# Relative slack applied to the k-th distance when collecting tie candidates.
# It only needs to cover round-off differences between the tree's distance
# arithmetic and the plain sum-of-squares used for the exact refilter; the
# final membership decision is always made on the exact squared distances.
TIE_REL_EPS = 1e-9


def worker_count() -> int:
    """Number of worker threads/processes to use.

    Controlled by the FIRST_THREADS environment variable; defaults to the
    machine's CPU count. Results are invariant to this value.
    """
    raw = os.environ.get("FIRST_THREADS", "").strip()
    if raw:
        n = int(raw)
        if n < 1:
            raise ValueError("FIRST_THREADS must be a positive integer")
        return n
    return os.cpu_count() or 1


@dataclass(frozen=True, eq=False)
class NeighborIndex:
    """Immutable spatial index over a projection of the encoded matrix."""

    factors: tuple[int, ...]
    columns: tuple[int, ...]
    points: np.ndarray
    tree: cKDTree

    @property
    def n_rows(self) -> int:
        return self.points.shape[0]


def build_index(matrix, factors) -> NeighborIndex:
    """Index the rows of ``matrix`` projected onto a factor subset.

    ``factors`` must be a non-empty subset of ``range(matrix.n_factors)``;
    the encoded columns of those factors define the distance subspace.
    """
    factors = tuple(sorted(set(int(f) for f in factors)))
    if not factors:
        raise ValueError("factor subset must be non-empty")
    if factors[0] < 0 or factors[-1] >= matrix.n_factors:
        raise ValueError(f"factor indices out of range 0..{matrix.n_factors - 1}")
    cols = matrix.columns_for(factors)
    points = np.ascontiguousarray(matrix.values[:, cols])
    points.flags.writeable = False
    tree = cKDTree(points, copy_data=False)
    return NeighborIndex(factors=factors, columns=tuple(int(c) for c in cols), points=points, tree=tree)


def _exact_within_ids(index: NeighborIndex, row: int, k: int) -> np.ndarray:
    """Row ids of the within-kth set, unordered; requires ``k`` < n.

    Membership is decided on squared distances computed directly from the
    projected rows, so results match a brute-force scan bit for bit.
    """
    q = index.points[row]
    dists = index.tree.query(q, k=k + 1)[0]
    radius = dists[k - 1] * (1.0 + TIE_REL_EPS)
    cand = np.asarray(index.tree.query_ball_point(q, radius), dtype=np.intp)
    d2 = ((index.points[cand] - q) ** 2).sum(axis=1)
    kth = np.partition(d2, k - 1)[k - 1]
    return cand[d2 <= kth]


def within_kth(index: NeighborIndex, query_row: int, k: int) -> list[int]:
    """All rows within the distance of the k-th nearest row of ``query_row``.

    The query row itself is included (distance zero), so the result always
    has at least ``k`` entries and may have more when distances tie at the
    k-th value. Rows are ordered by exact squared distance, then by row id.
    This is a one-row call of :func:`query_within_batch`, the path the
    estimators run.
    """
    n = index.n_rows
    if not 0 <= query_row < n:
        raise ValueError(f"query_row {query_row} out of range 0..{n - 1}")
    if not 1 <= k <= n:
        raise ValueError(f"k must be in 1..{n}, got {k}")
    ids, _, exact = query_within_batch(index, [query_row], k, workers=1)
    ids = exact.get(0, ids[0])
    d2 = ((index.points[ids] - index.points[query_row]) ** 2).sum(axis=1)
    order = np.lexsort((ids, d2))
    return [int(i) for i in ids[order]]


def query_within_batch(index: NeighborIndex, rows: np.ndarray, k: int, workers: int | None = None):
    """Within-kth sets for many query rows at once.

    Returns ``(ids, tied, exact)`` where ``ids`` is a ``(len(rows), k)``
    array of neighbor row ids valid wherever ``tied`` is False, and
    ``exact`` maps positions with a distance tie at the k-th value to their
    full within-kth id arrays. Rows without a boundary tie are resolved
    entirely inside the vectorized k-nearest query.
    """
    n = index.n_rows
    if k > n:
        raise ValueError(f"k must be at most the number of rows ({n}), got {k}")
    workers = workers or worker_count()
    rows = np.asarray(rows, dtype=np.intp)
    if k == n:
        ids = np.broadcast_to(np.arange(n, dtype=np.intp), (len(rows), n))
        return ids, np.zeros(len(rows), dtype=bool), {}
    queries = index.points[rows]
    dists, ids = index.tree.query(queries, k=k + 1, workers=workers)
    dk = dists[:, k - 1]
    tied = dists[:, k] <= dk * (1.0 + TIE_REL_EPS)
    exact = {}
    for pos in np.nonzero(tied)[0]:
        exact[int(pos)] = _exact_within_ids(index, int(rows[pos]), k)
    return ids[:, :k], tied, exact
