"""Exact nearest-neighbor machinery over factor subspaces.

Queries follow the within-kth-distance rule: a query returns *every* row
whose Euclidean distance to the query row is at most the distance of the
k-th nearest row, with the query row itself counting as its own nearest
neighbor at distance zero. Ties are therefore resolved by inclusion, never
by random choice, which keeps all estimates deterministic.

:func:`query_within_batch` resolves every row without a tie at the k-th
distance in one vectorized k-nearest query and flags the rest. Tied rows
take one path: rows at the same point share their within-kth set, so
each distinct tied point is resolved once, by an exact refilter of
batched ball queries in blocks of bounded size, and its result is
shared by all of its rows.
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

# Points per k-d tree leaf. Trees split at the sliding midpoint
# (Maneewongvatana & Mount, 1999), not at scipy's default median, which
# makes builds cheaper. Replaying every neighbor call of one op of each
# benchmark kind as build + query, over leaf sizes 16-128 with either split,
# sliding midpoint with 24- to 48-point leaves took about 20% less summed
# time than scipy's default (median, 16-point leaves); no size beat 48 by
# more than 3% (CHANGES.md has the table). Queries are exact, so neither
# choice changes a result.
LEAF_SIZE = 48


def worker_count() -> int:
    """Number of worker threads/processes to use.

    Controlled by the FIRST_THREADS environment variable; defaults to the
    machine's CPU count. Results are invariant to this value.
    """
    raw = os.environ.get("FIRST_THREADS", "").strip()
    if raw:
        n = int(raw) if raw.isdecimal() else 0
        if n < 1:
            raise ValueError(f"FIRST_THREADS must be a positive integer, got {raw!r}")
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
    tree = cKDTree(points, leafsize=LEAF_SIZE, balanced_tree=False, compact_nodes=False, copy_data=False)
    return NeighborIndex(points=points, tree=tree)


def within_kth(index: NeighborIndex, query_row: int, k: int) -> list[int]:
    """All rows within the distance of the k-th nearest row of ``query_row``.

    The query row itself is included (distance zero), so the result always
    has at least ``k`` entries and may have more when distances tie at the
    k-th value. Rows are ordered by exact squared distance, then by row id.
    This is a one-row call of :func:`query_within_batch` and, for a tied
    row, of the tie path behind :func:`tied_variances`, the code the
    estimators run.
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
        [(_, _, ids)] = _tie_blocks(index, rows, kth, k, workers=1)
    d2 = ((index.points[ids] - index.points[query_row]) ** 2).sum(axis=1)
    order = np.lexsort((ids, d2))
    return [int(i) for i in ids[order]]


def query_within_batch(index: NeighborIndex, rows: np.ndarray, k: int, workers: int | None = None):
    """Within-kth sets for many query rows at once.

    Returns ``(ids, tied, kth)``. ``ids`` is a ``(len(rows), k)`` array of
    neighbor row ids, valid wherever the boolean mask ``tied`` is False:
    those rows have no distance tie at the k-th value and are resolved
    entirely inside the vectorized k-nearest query. Ids at equal distances
    are ordered by row id, so sums over a row's ids do not depend on the
    shape of the tree. ``kth`` holds the k-th neighbor distance of
    each tied row, in the order of ``rows[tied]``; :func:`tied_variances`
    resolves the tied rows from it.
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
    ids, dists = ids[:, :k], dists[:, :k]
    # the tree returns equal distances in the order its traversal met them
    even = (dists[:, 1:] == dists[:, :-1]).any(axis=1)
    if even.any():
        ids[even] = np.take_along_axis(ids[even], np.lexsort((ids[even], dists[even])), axis=1)
    return ids, tied, dk[tied]


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

    ``rows`` are the m tied query rows and ``kth`` their k-th distances, as
    :func:`query_within_batch` reports them; ``k`` is at least 2. Rows at
    the same point have the same within-kth set, so the rows are grouped
    by exact point (one ``lexsort``: q passes over m rows), one row per
    distinct point is resolved by the blocked exact refilter of
    :func:`_tie_blocks`, and its variance is copied to the rest of its
    group. No structure grows with the summed within-kth set sizes: extra
    memory is O(m·q + n·q + TIE_BLOCK_FLOATS). Grouping holds at most two
    copies of the tied points (16·m·q bytes), freed before the first
    block. With B = max(TIE_BLOCK_FLOATS, n·q), a block holds at most B
    gathered coordinates (two copies, 16·B bytes) and at most B/q
    candidate ids (under 64 bytes each), next to the index's O(n·q): one
    effect evaluation, index build included, stays below
    16·B + 64·B/q + 64·n·q bytes.
    """
    rows = np.asarray(rows, dtype=np.intp)
    points = index.points[rows]
    order = np.lexsort(points.T)
    points = points[order]
    head = np.ones(len(rows), dtype=bool)
    head[1:] = (points[1:] != points[:-1]).any(axis=1)
    del points
    group = np.empty(len(rows), dtype=np.intp)
    group[order] = np.cumsum(head) - 1
    reps = order[head]
    out = np.empty(len(reps))
    for pos, seg, ids in _tie_blocks(index, rows[reps], kth[reps], k, workers):
        counts = np.bincount(seg, minlength=len(pos))
        members = values[ids]
        means = np.bincount(seg, members, len(pos)) / counts
        out[pos] = np.bincount(seg, (members - means[seg]) ** 2, len(pos)) / (counts - 1)
    return out[group]
