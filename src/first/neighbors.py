"""Exact nearest-neighbor machinery over factor subspaces.

Queries follow the within-kth-distance rule: a query returns *every* row
whose Euclidean distance to the query row is at most the distance of the
k-th nearest row, with the query row itself counting as its own nearest
neighbor at distance zero. Ties are therefore resolved by inclusion, never
by random choice, which keeps all estimates deterministic.

:func:`query_within_batch` resolves every row without a tie at the k-th
distance in one vectorized k-nearest query and flags the rest. Tied rows
take one of two vectorized paths: a row whose duplicate group (the rows at
its exact point) has at least k members has that group as its set, and
the remaining rows, tied at a positive distance, are resolved by an exact
refilter of batched ball queries in blocks of bounded size.
"""

import itertools
import os
from dataclasses import dataclass

import numpy as np
from scipy.spatial import cKDTree

# Relative slack applied to the k-th distance when collecting tie candidates.
# It only needs to cover round-off differences between the tree's distance
# arithmetic and the plain sum-of-squares used for the exact refilter; the
# final membership decision is always made on the exact squared distances.
TIE_REL_EPS = 1e-9

# Cap on the candidate coordinates gathered at once while resolving rows
# tied at a positive k-th distance (8 bytes each).
TIE_BLOCK_FLOATS = 1 << 20


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
    points = np.ascontiguousarray(matrix.values[:, matrix.columns_for(factors)])
    points.flags.writeable = False
    return NeighborIndex(points=points, tree=cKDTree(points, copy_data=False))


def within_kth(index: NeighborIndex, query_row: int, k: int) -> list[int]:
    """All rows within the distance of the k-th nearest row of ``query_row``.

    The query row itself is included (distance zero), so the result always
    has at least ``k`` entries and may have more when distances tie at the
    k-th value. Rows are ordered by exact squared distance, then by row id.
    This is a one-row call of :func:`query_within_batch` and of the tie
    paths behind :func:`tied_variances`, the code the estimators run.
    """
    n = index.n_rows
    if not 0 <= query_row < n:
        raise ValueError(f"query_row {query_row} out of range 0..{n - 1}")
    if not 1 <= k <= n:
        raise ValueError(f"k must be in 1..{n}, got {k}")
    rows = np.array([query_row], dtype=np.intp)
    ids, tied, kth = query_within_batch(index, rows, k, workers=1)
    if not tied[0]:
        ids = ids[0]
    else:
        labels, grouped = _duplicate_groups(index, rows, kth, k, workers=1)
        if grouped[0]:
            ids = np.flatnonzero(labels == labels[query_row])
        else:
            [(_, _, ids)] = _tie_blocks(index, rows, kth, k, workers=1)
    d2 = ((index.points[ids] - index.points[query_row]) ** 2).sum(axis=1)
    order = np.lexsort((ids, d2))
    return [int(i) for i in ids[order]]


def query_within_batch(index: NeighborIndex, rows: np.ndarray, k: int, workers: int | None = None):
    """Within-kth sets for many query rows at once.

    Returns ``(ids, tied, kth)``. ``ids`` is a ``(len(rows), k)`` array of
    neighbor row ids, valid wherever the boolean mask ``tied`` is False:
    those rows have no distance tie at the k-th value and are resolved
    entirely inside the vectorized k-nearest query. ``kth`` holds the k-th
    neighbor distance of each tied row, in the order of ``rows[tied]``;
    :func:`tied_variances` resolves the tied rows from it.
    """
    n = index.n_rows
    if k > n:
        raise ValueError(f"k must be at most the number of rows ({n}), got {k}")
    workers = workers or worker_count()
    rows = np.asarray(rows, dtype=np.intp)
    if k == n:
        ids = np.broadcast_to(np.arange(n, dtype=np.intp), (len(rows), n))
        return ids, np.zeros(len(rows), dtype=bool), np.empty(0)
    queries = index.points[rows]
    dists, ids = index.tree.query(queries, k=k + 1, workers=workers)
    dk = dists[:, k - 1]
    tied = dists[:, k] <= dk * (1.0 + TIE_REL_EPS)
    return ids[:, :k], tied, dk[tied]


def _duplicate_groups(index: NeighborIndex, rows: np.ndarray, kth: np.ndarray, k: int, workers: int):
    """Label the rows by duplicate group; flag the tied rows a group resolves.

    A duplicate group is a set of rows with identical projected points.
    Returns ``(labels, grouped)``: ``labels`` gives each of the n rows its
    group id (``None`` when no row of ``rows`` has a zero k-th distance),
    and ``grouped`` flags the entries of ``rows`` whose within-kth set is
    exactly their group. That holds when the group has at least ``k`` rows
    and no other row lies at distance zero from it (distinct points can
    still have a zero squared distance once their differences underflow).
    Time O(n log n), memory O(n·q).
    """
    grouped = np.zeros(len(rows), dtype=bool)
    if not (kth == 0.0).any():
        return None, grouped
    uniq, labels, counts = np.unique(index.points, axis=0, return_inverse=True, return_counts=True)
    labels = labels.reshape(-1)
    closed = index.tree.query_ball_point(uniq, 0.0, workers=workers, return_length=True) == counts
    own = labels[rows]
    grouped[:] = closed[own] & (counts[own] >= k)
    return labels, grouped


def _tie_blocks(index: NeighborIndex, rows: np.ndarray, kth: np.ndarray, k: int, workers: int):
    """Exact within-kth sets of tied ``rows``, yielded in bounded blocks.

    Each block is ``(pos, seg, ids)``: ``pos`` are the block's positions in
    ``rows`` and each member row id in ``ids`` belongs to query ``pos[seg]``.
    A ball query with ``TIE_REL_EPS`` slack on ``kth`` collects candidates;
    exact squared distances and the exact k-th smallest of them per row
    decide membership, so sets match a brute-force scan bit for bit. A block
    takes ``max(1, TIE_BLOCK_FLOATS // (n * q))`` rows, so it gathers at most
    ``max(TIE_BLOCK_FLOATS, n * q)`` candidate coordinates, held twice while
    the distances are computed: extra memory is O(n·q + TIE_BLOCK_FLOATS).
    """
    points, tree = index.points, index.tree
    step = max(1, TIE_BLOCK_FLOATS // points.size)
    for start in range(0, len(rows), step):
        queries = points[rows[start:start + step]]
        radii = kth[start:start + step] * (1.0 + TIE_REL_EPS)
        balls = tree.query_ball_point(queries, radii, workers=workers)
        lengths = np.fromiter(map(len, balls), dtype=np.intp, count=len(balls))
        cand = np.fromiter(itertools.chain.from_iterable(balls), dtype=np.intp, count=lengths.sum())
        del balls
        seg = np.repeat(np.arange(len(queries)), lengths)
        diff = points[cand]
        diff -= queries[seg]
        d2 = np.square(diff, out=diff).sum(axis=1)
        first = np.cumsum(lengths) - lengths
        kth_d2 = d2[np.lexsort((d2, seg))[first + k - 1]]
        member = d2 <= kth_d2[seg]
        yield np.arange(start, start + len(queries)), seg[member], cand[member]


def tied_variances(index: NeighborIndex, rows: np.ndarray, kth: np.ndarray, k: int,
                   values: np.ndarray, workers: int) -> np.ndarray:
    """Sample variances (ddof=1) of ``values`` over the within-kth sets of tied rows.

    ``rows`` are the tied query rows and ``kth`` their k-th distances, as
    :func:`query_within_batch` reports them; ``k`` is at least 2. Rows that
    :func:`_duplicate_groups` resolves take their group's variance, computed
    for every group at once in O(n) with ``bincount``. The rest, tied at a
    positive distance, are resolved by the blocked exact refilter of
    :func:`_tie_blocks`. No structure grows with the summed within-kth set
    sizes: extra memory is O(n·q + TIE_BLOCK_FLOATS). With
    B = max(TIE_BLOCK_FLOATS, n·q), a block holds at most B gathered
    coordinates (two copies, 16·B bytes) and at most B/q candidate ids
    (under 64 bytes each), next to the index's O(n·q): one effect
    evaluation, index build included, stays below 16·B + 64·B/q + 64·n·q
    bytes.
    """
    rows = np.asarray(rows, dtype=np.intp)
    out = np.empty(len(rows))
    labels, grouped = _duplicate_groups(index, rows, kth, k, workers)
    if grouped.any():
        counts = np.bincount(labels)
        means = np.bincount(labels, values) / counts
        squares = np.bincount(labels, (values - means[labels]) ** 2)
        own = labels[rows[grouped]]
        out[grouped] = squares[own] / (counts[own] - 1)
    rest = np.flatnonzero(~grouped)
    for pos, seg, ids in _tie_blocks(index, rows[rest], kth[rest], k, workers):
        counts = np.bincount(seg, minlength=len(pos))
        members = values[ids]
        means = np.bincount(seg, members, len(pos)) / counts
        out[rest[pos]] = np.bincount(seg, (members - means[seg]) ** 2, len(pos)) / (counts - 1)
    return out
