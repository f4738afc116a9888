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
batched candidate searches in blocks of bounded size, and its result is
shared by all of its rows.

Two backends sit behind :func:`build_index`, chosen by the subspace's
encoded width q. Below ``DENSE_MIN_COLUMNS`` columns a k-d tree answers
the k-nearest query and the tie candidates' ball queries. From that width
on, where a tree does little better than a linear scan, the dense backend
scans row blocks: one matrix product per block gives the product distance
‖a‖² + ‖b‖² − 2·a·b to every row, argmin passes take the k nearest, and
a threshold on the same distances collects tie candidates. Its memory is
O(b·n) for the one block in flight, next to the index's O(n·q). A row is flagged tied when
its (k+1)-th distance is within ``TIE_REL_EPS`` of its k-th or within the
products' rounding bound of it, so an untied row's ids are exactly its k
nearest. Membership of tied rows is decided on exact sums of squared
differences on both backends. Every set, tied or not, is held in ascending
row id and valued by one reduction, :func:`set_variances`, so results do
not depend on the backend, the tree's shape, the BLAS thread count or the
path that found a set.

A forward-selection step scores every candidate A∪{j} of its active set
A. :func:`shared_lists` takes each outer row's M nearest rows in A once,
on A's tree. A row outside the list is at least the (M+1)-th distance b
away in A, so in A∪{j} too. For each candidate, a row is settled when
the (k+1)-th smallest distance in A∪{j} among its list lies below b and
above the k-th, each by the ``TIE_REL_EPS`` gap: its k ids are then
exactly its k nearest rows, the set an untied query would give. Only the
other rows are queried on an index of A∪{j}. The lists are taken only
where they pay: on a tree, where no row of a sample repeats its point in
A, and where they settle enough of that sample. A step with an empty A
takes its lists from sorted order instead (:class:`SortedOrder`).
"""

import functools
import itertools
from dataclasses import dataclass

import numpy as np
from scipy.spatial import cKDTree

from .dataset import check_integer

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
# more than 3% (CHANGES.md has the table). Queries are exact and their ids
# are sorted by row id, so neither choice changes a result.
LEAF_SIZE = 48

# Subspaces with at least this many encoded columns take the dense backend.
# Build plus a k=2 query of every row, one thread, z-scored Friedman data
# (rho=0.5), tree against dense: 67 / 173 ms at q=8, 146 / 180 at q=10,
# 215 / 184 at q=11 and 286 / 189 at q=12 for n=10,000; 676 / 811 at q=11
# and 918 / 850 at q=12 for n=20,000. At n=1,000 the dense backend is
# faster from q=8 on, but by at most 3.5 ms per subspace below q=12.
DENSE_MIN_COLUMNS = 12

# Product distances computed at once per dense block (8 bytes each).
DENSE_BLOCK_FLOATS = 1 << 18

# Nearest rows kept per outer row by a forward step's shared lists, and the
# share of a sample's rows they must settle for the step to use them.
# `first` on Friedman data (rho=0.5), one thread, best of 3, lists off /
# on with a 0.5 share at M = 16, 24, 32, 48: p=50, n=1,000, all rows, two
# seeds 1.36 / 0.95, 0.90, 0.89, 0.93 s; p=20, n=10,000, 500 outer rows
# 0.98 / 0.92, 0.73, 0.82, 0.71 s. At M=32, p=20, n=20,000, all rows,
# one run: 7.9 s off, 5.6 / 5.3 / 5.8 s with a share of 0.3 / 0.5 / 0.7.
LIST_LENGTH = 32
SETTLED_MIN_SHARE = 0.5

# Outer rows sampled to measure that share. On the shapes above, 64 rows
# gave the share of all rows to within 0.03 at every step.
SHARE_SAMPLE = 64

# List entries handled at once while querying and settling (8 bytes each).
LIST_BLOCK_FLOATS = 1 << 14


@dataclass(frozen=True, eq=False)
class NeighborIndex:
    """Immutable spatial index over a projection of the encoded matrix.

    A narrow subspace has a k-d ``tree``. A wide one has ``tree=None`` and
    holds ``centered``, the column-centered points, and ``norms``, their
    squared row norms, for the dense backend.
    """

    points: np.ndarray
    tree: cKDTree | None
    centered: np.ndarray | None = None
    norms: np.ndarray | None = None

    @property
    def n_rows(self) -> int:
        return self.points.shape[0]


def build_index(matrix, factors) -> NeighborIndex:
    """Index the rows of ``matrix`` projected onto a factor subset.

    ``factors`` must be a non-empty subset of ``range(matrix.n_factors)``;
    the encoded columns of those factors define the distance subspace.
    """
    points = np.ascontiguousarray(matrix.values[:, matrix.columns_for(matrix.factor_subset(factors))])
    points.flags.writeable = False
    if points.shape[1] < DENSE_MIN_COLUMNS:
        tree = cKDTree(points, leafsize=LEAF_SIZE, balanced_tree=False, compact_nodes=False, copy_data=False)
        return NeighborIndex(points=points, tree=tree)
    centered = points - points.mean(axis=0)
    return NeighborIndex(points=points, tree=None, centered=centered,
                         norms=np.einsum("ij,ij->i", centered, centered))


def within_kth(index: NeighborIndex, query_row: int, k: int) -> list[int]:
    """All rows within the distance of the k-th nearest row of ``query_row``.

    The query row itself is included (distance zero), so the result always
    has at least ``k`` entries and may have more when distances tie at the
    k-th value. Rows are ordered by exact squared distance, then by row id.
    This is a one-row call of :func:`query_within_batch` and, for a tied
    row, of the tie path behind :func:`tied_variances`, the code the
    estimators run, on whichever backend :func:`build_index` chose for the
    index.
    """
    n = index.n_rows
    if not 0 <= check_integer("query_row", query_row) < n:
        raise ValueError(f"query_row {query_row} out of range 0..{n - 1}")
    if not 1 <= check_integer("k", k) <= n:
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


def query_within_batch(index: NeighborIndex, rows: np.ndarray, k: int, workers: int):
    """Within-kth sets for many query rows at once.

    Returns ``(ids, tied, kth)``. ``ids`` is a ``(len(rows), k)`` array of
    neighbor row ids, ascending in each row, valid wherever the boolean
    mask ``tied`` is False: those rows have no distance tie at the k-th
    value and are resolved entirely inside the vectorized k-nearest query.
    ``kth`` holds the k-th neighbor distance of each tied row as the
    backend computed it, in the order of ``rows[tied]``;
    :func:`tied_variances` resolves the tied rows from it. ``workers``
    threads run the tree's queries; the dense backend's product uses the
    BLAS library's threads instead.
    """
    n = index.n_rows
    if k > n:
        raise ValueError(f"k must be at most the number of rows ({n}), got {k}")
    rows = np.asarray(rows, dtype=np.intp)
    if index.tree is None:
        ids, tied, kth = _dense_query(index, rows, k)
    else:
        dists, ids = index.tree.query(index.points[rows], k=k + 1, workers=workers)
        dk = dists[:, k - 1]
        tied = dists[:, k] <= dk * (1.0 + TIE_REL_EPS)
        ids, kth = ids[:, :k], dk[tied]
    return np.sort(ids, axis=1), tied, kth


def _shifted_d2(index: NeighborIndex, rows: np.ndarray) -> np.ndarray:
    """Product squared distances from ``rows`` to every row, less the query row's norm.

    Adding ``index.norms[rows]`` gives ‖a‖² + ‖b‖² − 2·a·b over the centered
    points, one matrix product per call; :func:`_rounding_bound` bounds its
    error. Dropping the norm, a constant per query row, saves a pass.
    """
    out = np.dot(index.centered[rows] * -2.0, index.centered.T)
    out += index.norms
    return out


def _rounding_bound(index: NeighborIndex, rows: np.ndarray) -> np.ndarray:
    """Per query row, a bound on |product distance − exact squared distance|.

    The exact squared distance is the plain sum of squared coordinate
    differences, the arithmetic of the tie refilter.
    With S = ‖a‖² + ‖b‖² over the centered points, centering, the norms, the
    product, the final sums and the exact sum of squares together round by
    at most about (4q + 13)·2^-53·S. The bound doubles that, with S taken
    at the largest norm; the ``tiny`` term covers underflow.
    """
    q = index.centered.shape[1]
    eps, tiny = np.finfo(np.float64).eps, np.finfo(np.float64).tiny
    return (4 * q + 13) * (eps * (index.norms[rows] + index.norms.max()) + tiny)


def _smallest(h: np.ndarray, k: int):
    """Columns and values of the k smallest entries of each row of ``h``, ascending.

    Takes k argmin passes and overwrites ``h``.
    """
    local = np.arange(len(h))
    cols, vals = np.empty((len(h), k), dtype=np.intp), np.empty((len(h), k))
    for t in range(k):
        cols[:, t] = j = h.argmin(axis=1)
        vals[:, t] = h[local, j]
        h[local, j] = np.inf
    return cols, vals


def _dense_block(index: NeighborIndex, block: np.ndarray, k: int):
    """k nearest rows of each row of ``block`` by product distance.

    Returns ``(ids, lo, hi)``: the ids, the query row first, and the k-th
    and (k+1)-th smallest product distances.
    """
    h = _shifted_d2(index, block)
    h[np.arange(len(block)), block] = np.inf
    cols, vals = _smallest(h, k)
    del h
    vals += index.norms[block][:, None]
    np.maximum(vals, 0.0, out=vals)
    ids = np.concatenate([block[:, None], cols[:, :k - 1]], axis=1)
    lo = vals[:, k - 2] if k > 1 else np.zeros(len(block))
    return ids, lo, vals[:, k - 1]


def _dense_query(index: NeighborIndex, rows: np.ndarray, k: int):
    """:func:`query_within_batch` on the dense backend.

    Rows go in blocks of b = max(1, DENSE_BLOCK_FLOATS // (n + k·q)). A row
    is tied when its (k+1)-th product distance is within ``TIE_REL_EPS`` of
    its k-th, or within twice the rounding bound of it; otherwise its k ids
    are exactly its k nearest rows, since no row can cross a gap wider than
    twice the bound. Blocks run in order on the calling thread and only the
    matrix product is parallel, on the BLAS library's threads: blocks spread
    over worker threads made each product wait for the other threads' BLAS
    calls, and ran 3 to 6 times slower with two BLAS threads. A block holds
    its b·n product distances, its b·q scaled query points and a few b×k
    arrays: at most 16·b·(n + k·q) + 48·b·k bytes, where b·(n + k·q) <=
    max(DENSE_BLOCK_FLOATS, n + k·q). The results add O(m·k) for m rows,
    and the index holds 16·n·q + 8·n bytes.
    """
    n, q = index.centered.shape
    ids, lo, hi = np.empty((len(rows), k), dtype=np.intp), np.empty(len(rows)), np.empty(len(rows))
    step = max(1, DENSE_BLOCK_FLOATS // (n + k * q))
    for start in range(0, len(rows), step):
        part = slice(start, start + step)
        ids[part], lo[part], hi[part] = _dense_block(index, rows[part], k)
    tied = (hi <= lo * (1.0 + TIE_REL_EPS) ** 2) | (hi - lo <= 2.0 * _rounding_bound(index, rows))
    return ids, tied, np.sqrt(lo[tied])


def _candidates(index: NeighborIndex, rows: np.ndarray, radii: np.ndarray, step: int, workers: int):
    """Rows within ``radii`` of each of ``rows``, in blocks of ``step`` query rows.

    Yields ``(start, lengths, ids)`` per block, ids grouped by query row and
    ascending within a group on both backends. The dense backend widens each
    radius by twice the rounding bound, so a group holds every row whose
    exact distance is in range; it takes the products of as many blocks at
    once as fit in ``DENSE_BLOCK_FLOATS``.
    """
    if index.tree is not None:
        for start in range(0, len(rows), step):
            balls = index.tree.query_ball_point(index.points[rows[start:start + step]], radii[start:start + step],
                                                workers=workers, return_sorted=True)
            lengths = np.fromiter(map(len, balls), dtype=np.intp, count=len(balls))
            yield start, lengths, np.fromiter(itertools.chain.from_iterable(balls), dtype=np.intp,
                                              count=lengths.sum())
        return
    span = step * max(1, DENSE_BLOCK_FLOATS // (step * index.n_rows))
    for outer in range(0, len(rows), span):
        block = rows[outer:outer + span]
        limit = radii[outer:outer + span] ** 2 + 2.0 * _rounding_bound(index, block) - index.norms[block]
        near = _shifted_d2(index, block) <= limit[:, None]
        for start in range(0, len(block), step):
            part = near[start:start + step]
            yield outer + start, part.sum(axis=1), np.nonzero(part)[1]


def _tie_blocks(index: NeighborIndex, rows: np.ndarray, kth: np.ndarray, k: int, workers: int):
    """Exact within-kth sets of tied ``rows``, yielded in bounded blocks.

    Each block is ``(pos, seg, ids)``: ``pos`` are the block's positions in
    ``rows`` and each member row id in ``ids`` belongs to query ``pos[seg]``.
    A search with ``TIE_REL_EPS`` slack on ``kth`` collects candidates;
    exact squared distances and the exact k-th smallest of them per row
    decide membership, so sets match a brute-force scan bit for bit. A block
    takes ``max(1, TIE_BLOCK_FLOATS // (n * q))`` rows, so it gathers at most
    ``max(TIE_BLOCK_FLOATS, n * q)`` candidate coordinates, held twice while
    the distances are computed: extra memory is O(n·q + TIE_BLOCK_FLOATS).
    """
    points = index.points
    step = max(1, TIE_BLOCK_FLOATS // points.size)
    for start, lengths, cand in _candidates(index, rows, kth * (1.0 + TIE_REL_EPS), step, workers):
        block = rows[start:start + len(lengths)]
        seg = np.repeat(np.arange(len(block)), lengths)
        diff = points[cand]
        diff -= points[block][seg]
        d2 = np.square(diff, out=diff).sum(axis=1)
        first = np.cumsum(lengths) - lengths
        kth_d2 = d2[np.lexsort((d2, seg))[first + k - 1]]
        member = d2 <= kth_d2[seg]
        yield np.arange(start, start + len(block)), seg[member], cand[member]


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
    16·B + 64·B/q + 64·n·q bytes. The dense backend's candidate search adds
    one block of product distances and their mask, at most
    9·max(DENSE_BLOCK_FLOATS, B/q) bytes.
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
        out[pos] = set_variances(seg, ids, values, len(pos))
    return out[group]


def set_variances(seg: np.ndarray, ids: np.ndarray, values: np.ndarray, m: int) -> np.ndarray:
    """Sample variances (ddof=1) of ``values`` over m sets of at least two rows.

    Row ``ids[i]`` belongs to set ``seg[i]``. ``bincount`` sums each set in
    the order of its rows, which every caller gives in ascending row id.
    """
    counts = np.bincount(seg, minlength=m)
    members = values[ids]
    means = np.bincount(seg, members, m) / counts
    return np.bincount(seg, (members - means[seg]) ** 2, m) / (counts - 1)


@dataclass(frozen=True, eq=False)
class NeighborLists:
    """Each outer row's nearest rows in one subspace, to settle its supersets.

    ``ids[i]`` are the M = ``LIST_LENGTH`` nearest rows of ``rows[i]`` and
    ``d2[i]`` their squared distances; ``bound[i]`` is the squared (M+1)-th
    distance. A row outside the list is at least that far in this
    subspace, so in any subspace that contains it too. The lists hold
    16·M + 8 bytes per outer row. Queries and settling run in blocks of at
    most ``LIST_BLOCK_FLOATS`` list entries and hold at most 32 bytes per
    entry of the block in flight; one candidate's settled ids and mask add
    at most 24·k + 1 bytes per outer row.
    """

    rows: np.ndarray
    ids: np.ndarray
    d2: np.ndarray
    bound: np.ndarray

    def settle(self, matrix, factor: int, k: int):
        """Rows whose k nearest rows in the subspace plus ``factor`` the lists give.

        Returns ``(settled, ids)``: a mask over ``rows`` and the k ids,
        ascending, of each settled row. A row is settled when its (k+1)-th
        smallest extended distance in the list is below ``bound`` and above
        its k-th, both by the ``TIE_REL_EPS`` gap: no row outside the list
        can then come nearer, and no rounding can reorder the two, so its
        ids are exactly those :func:`query_within_batch` gives an untied
        row. Rows go in blocks of ``LIST_BLOCK_FLOATS`` list entries.
        """
        cols = matrix.values[:, matrix.columns_for([factor])]
        n, m = self.ids.shape
        slack = (1.0 + TIE_REL_EPS) ** 2
        settled, ids = np.empty(n, dtype=bool), np.empty((n, k), dtype=np.intp)
        step = max(1, LIST_BLOCK_FLOATS // m)
        for start in range(0, n, step):
            part = slice(start, start + step)
            near = self.ids[part]
            ext = self.d2[part].copy()
            for c in cols.T:
                diff = c[near]
                diff -= c[self.rows[part], None]
                diff *= diff
                ext += diff
            top = np.partition(ext, k, axis=1)
            # column by column: max(axis=1) over k strided entries is about 10x slower
            lo, hi = functools.reduce(np.maximum, top[:, :k].T), top[:, k]
            settled[part] = ok = (hi * slack < self.bound[part]) & (hi > lo * slack)
            ids[part][ok] = near[(ext <= lo[:, None]) & ok[:, None]].reshape(-1, k)
        return settled, np.sort(ids[settled], axis=1)


@dataclass(frozen=True, eq=False)
class SortedOrder:
    """A forward step's lists over the empty active set, from a column's sorted order.

    A row's k+1 nearest rows in one dimension lie within k places of it in
    sorted order, so each outer row lists its 2k+1 neighbors in the sorted
    column at distance 0 (past either end, infinitely far) with an infinite
    bound, and :meth:`NeighborLists.settle` decides. A factor with several
    encoded columns settles no row. The argsort and its inverse take 16·n
    bytes (24·n while made), the window about 25·(2k+1) + 8 bytes per outer
    row; then the bound of :meth:`NeighborLists.settle` applies.
    """

    rows: np.ndarray

    def settle(self, matrix, factor: int, k: int):
        """``(settled, ids)`` as :meth:`NeighborLists.settle` gives them for ``factor`` alone."""
        cols = matrix.columns_for([factor])
        if len(cols) != 1:
            return np.zeros(len(self.rows), dtype=bool), np.empty((0, k), dtype=np.intp)
        order = np.argsort(matrix.values[:, cols[0]])
        place = np.empty_like(order)
        place[order] = np.arange(len(order))
        at = place[self.rows, None] + np.arange(-k, k + 1)
        inside = (at >= 0) & (at < len(order))
        ids = order[np.clip(at, 0, len(order) - 1, out=at)]
        lists = NeighborLists(self.rows, ids, np.where(inside, 0.0, np.inf), np.full(len(self.rows), np.inf))
        return lists.settle(matrix, factor, k)


def neighbor_lists(index: NeighborIndex, rows: np.ndarray, workers: int) -> NeighborLists:
    """The ``LIST_LENGTH`` nearest rows of each of ``rows`` on a tree index."""
    m = LIST_LENGTH
    ids, d2, bound = np.empty((len(rows), m), dtype=np.intp), np.empty((len(rows), m)), np.empty(len(rows))
    step = max(1, LIST_BLOCK_FLOATS // (m + 1))
    for start in range(0, len(rows), step):
        part = slice(start, start + step)
        dists, near = index.tree.query(index.points[rows[part]], k=m + 1, workers=workers)
        ids[part], d2[part], bound[part] = near[:, :m], dists[:, :m] ** 2, dists[:, m] ** 2
    return NeighborLists(rows=rows, ids=ids, d2=d2, bound=bound)


def shared_lists(index: NeighborIndex, matrix, rows: np.ndarray, candidates, k: int,
                 workers: int) -> NeighborLists | None:
    """Lists of ``rows`` in the index's subspace, or None where they would not pay.

    The lists of a fixed sample of ``SHARE_SAMPLE`` rows decide. They are
    refused when the index is not a tree, unless k < ``LIST_LENGTH`` < n,
    when a sampled row's second list entry is at distance zero (its point
    repeats, and the tree's long queries are slow on repeated points), and
    when, averaged over the ``candidates``, they settle less than
    ``SETTLED_MIN_SHARE`` of the sample. Refused lists send every row to
    each candidate's own index and query.
    """
    if index.tree is None or not k < LIST_LENGTH < index.n_rows:
        return None
    probe = neighbor_lists(index, rows[::-(-len(rows) // SHARE_SAMPLE)], workers)
    if not probe.d2[:, 1].all():
        return None
    share = np.mean([probe.settle(matrix, j, k)[0].mean() for j in candidates])
    return neighbor_lists(index, rows, workers) if share >= SETTLED_MIN_SHARE else None
