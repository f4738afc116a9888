"""Spatial index tests, including oracle equivalence against a linear scan."""

import itertools
import os
import subprocess
import sys
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.spatial import cKDTree

from first import estimators, neighbors, selection
from first.dataset import CATEGORICAL, CONTINUOUS, Dataset, encode
from first.estimators import (
    EstimatorConfig,
    _subspace_effect,
    conditional_variance_effect,
    nanne,
    prepare,
    step_lists,
    total_variance,
    worker_count,
)
from first.neighbors import (
    DENSE_BLOCK_FLOATS,
    DENSE_MIN_COLUMNS,
    LEAF_SIZE,
    LIST_BLOCK_FLOATS,
    TIE_BLOCK_FLOATS,
    NeighborIndex,
    build_index,
    neighbor_lists,
    query_within_batch,
    tied_variances,
    within_kth,
)
from first.selection import _candidate_values, first
from tests.conftest import brute_effect, brute_within_kth, categorical_grid_dataset, encoded


def index_1d(values):
    m, _ = encoded(np.asarray(values, dtype=float)[:, None], np.zeros(len(values)), standardize=False)
    return build_index(m, [0])


class TestWithinKth:
    def test_two_nearest_no_tie(self):
        idx = index_1d([0.0, 1.0, 2.0, 5.0])
        assert within_kth(idx, 0, 2) == [0, 1]

    def test_tie_at_kth_distance_includes_both(self):
        idx = index_1d([0.0, 1.0, 1.0, 5.0])
        assert within_kth(idx, 0, 2) == [0, 1, 2]

    def test_k1_includes_self_and_duplicates(self):
        idx = index_1d([3.0, 3.0, 7.0])
        assert within_kth(idx, 0, 1) == [0, 1]
        assert within_kth(idx, 1, 1) == [0, 1]

    def test_underflowing_distance_joins_duplicate_group(self):
        # rows 0 and 1 form a group of k=2, but row 2's squared distance to
        # them underflows to zero, so it is inside their within-kth set too
        idx = index_1d([0.0, 0.0, 1e-170, 5.0])
        assert within_kth(idx, 0, 2) == brute_within_kth(idx.points, 0, 2) == [0, 1, 2]

    def test_ordering_by_distance_then_id(self):
        idx = index_1d([0.0, -1.0, 1.0, 2.0])
        # rows 1 and 2 tie at distance 1 from row 0; id breaks the tie
        assert within_kth(idx, 0, 3) == [0, 1, 2]

    def test_k_equals_n_returns_everything(self):
        idx = index_1d([0.0, 4.0, 9.0])
        assert within_kth(idx, 2, 3) == [2, 1, 0]

    def test_bad_arguments(self):
        idx = index_1d([0.0, 1.0, 2.0])
        with pytest.raises(ValueError):
            within_kth(idx, 0, 0)
        with pytest.raises(ValueError):
            within_kth(idx, 0, 4)
        with pytest.raises(ValueError):
            within_kth(idx, 3, 1)
        for query_row, k, message in ((True, 2, "query_row must be an integer, got True"),
                                      (1.0, 2, "query_row must be an integer, got 1.0"),
                                      (1, 2.5, "k must be an integer, got 2.5")):
            with pytest.raises(ValueError, match=message):
                within_kth(idx, query_row, k)
        assert within_kth(idx, np.int64(1), np.int32(2)) == within_kth(idx, 1, 2)

    def test_batch_query_rejects_more_neighbors_than_rows(self):
        idx = index_1d([0.0, 1.0, 2.0])
        with pytest.raises(ValueError, match=r"k must be at most the number of rows \(3\), got 4"):
            query_within_batch(idx, np.arange(3), 4, workers=1)


class TestBuildIndex:
    def test_projection_dimensions(self, rng):
        m, _ = encoded(rng.uniform(size=(10, 3)), np.zeros(10))
        assert build_index(m, [0]).points.shape == (10, 1)
        assert build_index(m, [0, 2]).points.shape == (10, 2)

    def test_categorical_group_expands_columns(self, rng):
        ds = Dataset(
            factor_names=("u", "c"),
            factor_kinds=(CONTINUOUS, CATEGORICAL),
            factors=(rng.uniform(size=9), np.asarray(list("abcabcabc"), dtype=object)),
            response=np.zeros(9),
        )
        idx = build_index(encode(ds), [0, 1])
        assert idx.points.shape == (9, 4)

    def test_empty_factor_set_rejected(self, rng):
        m, _ = encoded(rng.uniform(size=(5, 2)), np.zeros(5))
        with pytest.raises(ValueError, match="non-empty"):
            build_index(m, [])

    def test_out_of_range_factor(self, rng):
        m, _ = encoded(rng.uniform(size=(5, 2)), np.zeros(5))
        with pytest.raises(ValueError, match="out of range"):
            build_index(m, [2])


@st.composite
def point_sets(draw):
    """Random point sets with many exact duplicates to exercise ties."""
    n = draw(st.integers(min_value=2, max_value=40))
    d = draw(st.integers(min_value=1, max_value=3))
    grid = draw(st.booleans())
    if grid:
        cells = draw(st.lists(
            st.tuples(*[st.integers(min_value=0, max_value=3) for _ in range(d)]),
            min_size=n, max_size=n))
        pts = np.array(cells, dtype=float)
    else:
        flat = draw(st.lists(
            st.floats(min_value=-10, max_value=10, allow_nan=False, width=32),
            min_size=n * d, max_size=n * d))
        pts = np.array(flat, dtype=float).reshape(n, d)
    return pts


class TestOracleEquivalence:
    @settings(max_examples=80, deadline=None)
    @given(pts=point_sets(), k=st.sampled_from([1, 2, 3, 5]), row=st.integers(min_value=0, max_value=10 ** 6))
    def test_matches_brute_force(self, pts, k, row):
        n = len(pts)
        if k > n:
            k = n
        row = row % n
        m, _ = encoded(pts, np.zeros(n), standardize=False)
        idx = build_index(m, list(range(pts.shape[1])))
        assert within_kth(idx, row, k) == brute_within_kth(idx.points, row, k)

    def test_monotonic_in_k(self, rng):
        pts = rng.choice([0.0, 1.0, 2.0], size=(30, 2))
        m, _ = encoded(pts, np.zeros(30), standardize=False)
        idx = build_index(m, [0, 1])
        for row in range(0, 30, 5):
            prev: set[int] = set()
            for k in range(1, 8):
                cur = set(within_kth(idx, row, k))
                assert prev <= cur
                assert len(cur) >= k
                prev = cur

    def test_permutation_invariance_of_sets(self, rng):
        pts = rng.uniform(size=(40, 2)).round(1)  # rounding forces ties
        perm = rng.permutation(40)
        m1, _ = encoded(pts, np.zeros(40), standardize=False)
        m2, _ = encoded(pts[perm], np.zeros(40), standardize=False)
        i1 = build_index(m1, [0, 1])
        i2 = build_index(m2, [0, 1])
        inverse = np.empty(40, dtype=int)
        inverse[perm] = np.arange(40)
        for row in range(0, 40, 7):
            direct = set(within_kth(i1, row, 3))
            mapped = {int(perm[j]) for j in within_kth(i2, int(inverse[row]), 3)}
            assert direct == mapped


def skewed_points(shape, n, rng):
    """Point sets that stress a k-d tree's splitting rule."""
    if shape == "lognormal":
        return rng.lognormal(sigma=3.0, size=(n, 3))
    if shape == "cauchy":
        return rng.standard_cauchy(size=(n, 2))
    if shape == "powers_of_two":
        return 2.0 ** -np.arange(n, dtype=float)[:, None]
    if shape == "geometric":
        return 1.01 ** -np.arange(n, dtype=float)[:, None]
    pts = 1e-6 * rng.standard_normal(size=(n, 2))  # a tight cluster plus one far outlier
    pts[-1] = 1e6
    return pts


class TestSkewedShapes:
    """Brute-force checks on trees of many leaves (the hypothesis sets fit in one)."""

    SHAPES = [("lognormal", 400), ("cauchy", 300), ("powers_of_two", 100),
              ("geometric", 400), ("cluster_outlier", 250)]

    @pytest.fixture(scope="class", params=SHAPES, ids=[s for s, _ in SHAPES])
    def skewed(self, request):
        shape, n = request.param
        rng = np.random.default_rng(11)
        pts = skewed_points(shape, n, rng)
        assert n > 2 * LEAF_SIZE
        return encoded(pts, rng.standard_normal(n), standardize=False)

    @pytest.mark.parametrize("k", [1, 2, 3, 5])
    def test_within_kth_matches_brute_force(self, skewed, k):
        m, _ = skewed
        index = build_index(m, range(m.n_factors))
        for row in range(m.n_rows):
            assert within_kth(index, row, k) == brute_within_kth(index.points, row, k)

    @pytest.mark.parametrize("k", [2, 3, 5])
    def test_effect_matches_brute_force(self, skewed, k):
        m, y = skewed
        got = conditional_variance_effect(m, y, range(m.n_factors), EstimatorConfig(n_inner=k))
        assert got == pytest.approx(brute_effect(m.values, y, k), rel=1e-12)


class TestTreeShape:
    """Results do not depend on how the k-d tree splits its nodes."""

    @pytest.fixture(scope="class", params=["continuous", "categorical"])
    def data(self, request):
        if request.param == "categorical":
            ds = categorical_grid_dataset(300, seed=8)
            return encode(ds), ds.response
        rng = np.random.default_rng(8)
        x = rng.uniform(size=(300, 3))
        return encoded(x, x[:, 0] + rng.standard_normal(300))

    @pytest.mark.parametrize("k", [2, 3])
    def test_scipy_default_tree_gives_identical_results(self, data, k):
        m, y = data
        rows = np.arange(m.n_rows)
        for subset in (s for r in range(1, 5) for s in itertools.combinations(range(m.n_factors), r)):
            index = build_index(m, subset)
            default = NeighborIndex(points=index.points, tree=cKDTree(index.points))
            ids, tied, kth = query_within_batch(index, rows, k, workers=1)
            want_ids, want_tied, want_kth = query_within_batch(default, rows, k, workers=1)
            np.testing.assert_array_equal(tied, want_tied)
            np.testing.assert_array_equal(kth, want_kth)
            # ids are only defined for untied rows: a tied row's k-th slot holds
            # whichever of the tied rows the traversal met first
            np.testing.assert_array_equal(ids[~tied], want_ids[~tied])
            np.testing.assert_array_equal(tied_variances(index, rows[tied], kth, k, y, 1),
                                          tied_variances(default, rows[tied], kth, k, y, 1))


class TestTieResolution:
    """The tie path on three 3-level categoricals plus a 0.1-grid factor."""

    N = 120
    SUBSETS = [s for r in range(1, 5) for s in itertools.combinations(range(4), r)]

    @pytest.fixture(scope="class")
    def tie_data(self):
        ds = categorical_grid_dataset(self.N, seed=4)
        return encode(ds), ds.response

    def test_shape_reaches_both_tie_paths(self, tie_data):
        """The shape ties rows both at zero distance (shared points) and at a positive distance."""
        m, _ = tie_data
        rows = np.arange(self.N)
        for k in (2, 3):
            kth = np.concatenate([query_within_batch(build_index(m, s), rows, k, workers=1)[2] for s in self.SUBSETS])
            assert (kth == 0.0).sum() > 1000  # rows sharing a point with at least k-1 others
            assert (kth > 0.0).sum() > 100  # ties at a positive distance
        assert not query_within_batch(build_index(m, [0, 3]), rows, self.N, workers=1)[1].any()

    @pytest.mark.parametrize("k", [2, 3, N])
    def test_effect_matches_brute_force(self, tie_data, k):
        m, y = tie_data
        cfg = EstimatorConfig(n_inner=k)
        for subset in self.SUBSETS:
            points = m.values[:, m.columns_for(subset)]
            got = conditional_variance_effect(m, y, subset, cfg)
            assert got == pytest.approx(brute_effect(points, y, k), rel=1e-12)

    @pytest.mark.parametrize("k", [2, 3, N])
    def test_within_kth_matches_brute_force(self, tie_data, k):
        m, _ = tie_data
        for subset in self.SUBSETS:
            index = build_index(m, subset)
            for row in range(self.N):
                assert within_kth(index, row, k) == brute_within_kth(index.points, row, k)

    @pytest.mark.parametrize("k", [2, 3])
    def test_tied_variances_match_brute_force_per_row(self, tie_data, k):
        m, y = tie_data
        cases = [(build_index(m, subset), y) for subset in self.SUBSETS]
        # 0.0 and -0.0 are one point; the groups at 1, 2 and 3 are smaller
        # than k = 3 and tie at a positive distance
        signed = index_1d([0.0, -0.0, 0.0, -0.0, 1.0, 1.0, 2.0, 3.0, 3.0, -0.0, 5.0])
        assert np.signbit(signed.points[:, 0]).sum() == 3
        cases.append((signed, np.random.default_rng(6).standard_normal(signed.n_rows)))
        for index, values in cases:
            rows = np.arange(index.n_rows)
            _, tied, kth = query_within_batch(index, rows, k, workers=1)
            got = tied_variances(index, rows[tied], kth, k, values, 1)
            want = [np.var(values[brute_within_kth(index.points, row, k)], ddof=1) for row in rows[tied]]
            assert got.tolist() == pytest.approx(want, rel=1e-12)
        assert (kth == 0.0).any() and (kth > 0.0).any()  # the 1-d case has both kinds of tie

    def test_worker_count_bit_identity(self, tie_data, monkeypatch):
        m, y = tie_data
        cfg = EstimatorConfig(n_inner=3, n_outer=90, seed=7)
        results = []
        for workers in ("1", "4", "8"):
            monkeypatch.setenv("FIRST_THREADS", workers)
            results.append((nanne(m, y, cfg), first(m, y, cfg), first(m, y, EstimatorConfig())))
        base_nanne, base_first, base_all = results[0]
        for imp, trace, trace_all in results[1:]:
            np.testing.assert_array_equal(imp.s_tot, base_nanne.s_tot)
            assert (imp.noise_var, imp.signal_var) == (base_nanne.noise_var, base_nanne.signal_var)
            for got, want in ((trace, base_first), (trace_all, base_all)):
                assert got.steps == want.steps
                assert got.final_active == want.final_active
                np.testing.assert_array_equal(got.importance, want.importance)

    def test_memory_bound_when_every_row_ties(self, monkeypatch):
        # one level per row: every pair of rows is sqrt(2) apart, so every
        # row ties at a positive distance with all n rows as candidates
        n = 200
        ds = Dataset(factor_names=("c",), factor_kinds=(CATEGORICAL,),
                     factors=(np.array([f"l{i}" for i in range(n)], dtype=object),),
                     response=np.random.default_rng(5).standard_normal(n))
        m = encode(ds)
        q = m.values.shape[1]
        block = max(TIE_BLOCK_FLOATS, n * q)
        for backend in ("tree", "dense"):
            on_backend(monkeypatch, backend)
            assert (build_index(m, [0]).tree is None) == (backend == "dense")
            tracemalloc.start()
            try:
                got = conditional_variance_effect(m, ds.response, [0], EstimatorConfig())
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert got == pytest.approx(total_variance(ds.response), rel=1e-12), backend
            assert peak < 16 * block + 64 * block // q + 64 * n * q, backend


def mixed_points(n, q, rng):
    """Continuous rows, rows on the 0.1 grid and duplicates of both."""
    pts = rng.uniform(size=(n, q))
    pts[: n // 3] = pts[: n // 3].round(1)
    dup = rng.integers(0, n, size=n // 3)
    pts[dup[: len(dup) // 2]] = pts[dup[len(dup) // 2: 2 * (len(dup) // 2)]]
    return pts


def many_level_dataset(n, seed):
    """One categorical level per row plus a factor on a 0.1 grid."""
    rng = np.random.default_rng(seed)
    x = rng.integers(0, 11, size=n) / 10
    return Dataset(factor_names=("c", "x"), factor_kinds=(CATEGORICAL, CONTINUOUS),
                   factors=(np.array([f"l{i}" for i in range(n)], dtype=object), x),
                   response=x + rng.standard_normal(n))


def on_backend(monkeypatch, backend):
    """Send every subspace to one backend."""
    monkeypatch.setattr(neighbors, "DENSE_MIN_COLUMNS", 1 if backend == "dense" else sys.maxsize)


class TestDenseBackend:
    """The blocked product backend that wide subspaces take."""

    def test_dispatch_by_encoded_width(self, rng):
        m, _ = encoded(rng.uniform(size=(30, DENSE_MIN_COLUMNS)), np.zeros(30))
        assert build_index(m, range(DENSE_MIN_COLUMNS - 1)).tree is not None
        index = build_index(m, range(DENSE_MIN_COLUMNS))
        assert index.tree is None and index.points.shape == (30, DENSE_MIN_COLUMNS)

    def test_large_offset_keeps_rows_untied(self):
        # raw columns far from zero: product distances of uncentered points
        # would round by about 1e-7 of 1e18 and flag every row as tied
        rng = np.random.default_rng(8)
        x = 1e9 + rng.uniform(size=(200, DENSE_MIN_COLUMNS))
        m, _ = encoded(x, np.zeros(200), standardize=False)
        index = build_index(m, range(DENSE_MIN_COLUMNS))
        assert index.tree is None
        _, tied, _ = query_within_batch(index, np.arange(200), 2, workers=1)
        assert not tied.any()
        for row in range(0, 200, 9):
            assert within_kth(index, row, 2) == brute_within_kth(index.points, row, 2)

    @pytest.mark.parametrize("q", [10, 11, 12, 16, 24, 40])
    def test_within_kth_matches_brute_force(self, q):
        rng = np.random.default_rng(q)
        n = 120
        m, _ = encoded(mixed_points(n, q, rng), np.zeros(n), standardize=False)
        index = build_index(m, range(q))
        for k in (1, 2, 3, 5, n):
            for row in range(n):
                assert within_kth(index, row, k) == brute_within_kth(index.points, row, k)

    def test_large_k_matches_brute_force(self, monkeypatch):
        on_backend(monkeypatch, "dense")
        rng = np.random.default_rng(41)
        n, k = 150, 35
        m, y = encoded(mixed_points(n, 3, rng), rng.standard_normal(n), standardize=False)
        index = build_index(m, range(3))
        for row in range(0, n, 7):
            assert within_kth(index, row, k) == brute_within_kth(index.points, row, k)
        got = conditional_variance_effect(m, y, range(3), EstimatorConfig(n_inner=k))
        assert got == pytest.approx(brute_effect(m.values, y, k), rel=1e-12)

    @pytest.fixture(scope="class", params=["continuous", "mixed", "categorical", "many_levels"])
    def data(self, request):
        rng = np.random.default_rng(12)
        if request.param == "continuous":
            x = rng.uniform(size=(300, 14))
            return encoded(x, x[:, 0] + np.sin(3 * x[:, 1]) + rng.standard_normal(300))
        if request.param == "mixed":
            x = mixed_points(300, 14, rng)
            return encoded(x, x[:, 0] + rng.standard_normal(300), standardize=False)
        ds = categorical_grid_dataset(300, seed=9) if request.param == "categorical" else many_level_dataset(80, 9)
        return encode(ds), ds.response

    @pytest.mark.parametrize("k", [2, 3, 5])
    def test_tree_and_dense_agree(self, data, k, monkeypatch):
        m, y = data
        cfg = EstimatorConfig(n_inner=k)
        p = m.n_factors
        subsets = [tuple(range(p))] + [tuple(j for j in range(p) if j != i) for i in range(p)]
        results = {}
        for backend in ("tree", "dense"):
            on_backend(monkeypatch, backend)
            indexes = [build_index(m, s) for s in subsets]
            results[backend] = ([[within_kth(ix, row, k) for row in range(m.n_rows)] for ix in indexes],
                                [conditional_variance_effect(m, y, s, cfg) for s in subsets])
        (tree_sets, tree_effects), (dense_sets, dense_effects) = results["tree"], results["dense"]
        assert dense_sets == tree_sets
        assert dense_effects == tree_effects

    def test_many_level_effect_matches_brute_force(self):
        ds = many_level_dataset(60, seed=2)
        m, y = encode(ds), ds.response
        assert build_index(m, [0, 1]).tree is None
        for k in (2, 3):
            cfg = EstimatorConfig(n_inner=k)
            for subset in ([0, 1], [0], [1]):
                points = m.values[:, m.columns_for(subset)]
                got = conditional_variance_effect(m, y, subset, cfg)
                assert got == pytest.approx(brute_effect(points, y, k), rel=1e-12)

    def test_memory_bound(self):
        n, q, k = 3000, 20, 3
        m, _ = encoded(np.random.default_rng(3).uniform(size=(n, q)), np.zeros(n))
        index = build_index(m, range(q))
        rows = np.arange(n)
        b = max(1, DENSE_BLOCK_FLOATS // (n + k * q))
        assert b < n  # several blocks
        tracemalloc.start()
        try:
            query_within_batch(index, rows, k, workers=1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # the bound in the _dense_query docstring: the results (k ids and
        # two distances per row) and one block
        assert peak < 8 * n * (k + 2) + 16 * b * (n + k * q) + 48 * b * k + (1 << 16)

    def test_blas_thread_count_does_not_change_results(self):
        script = (
            "import numpy as np\n"
            "from first import EstimatorConfig, nanne\n"
            "from tests.test_neighbors import mixed_points\n"
            "from tests.conftest import encoded\n"
            "rng = np.random.default_rng(5)\n"
            "x = rng.uniform(size=(1500, 16))\n"
            "m, y = encoded(x, x[:, 0] * x[:, 1] + rng.standard_normal(1500))\n"
            "w, wy = encoded(mixed_points(600, 14, rng), rng.standard_normal(600), standardize=False)\n"
            "for mat, resp in ((m, y), (w, wy)):\n"
            "    for k in (2, 3, 5):\n"
            "        r = nanne(mat, resp, EstimatorConfig(n_inner=k))\n"
            "        print(r.s_tot.tobytes().hex(), r.noise_var.hex())\n"
        )
        root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
        outputs = []
        for threads in ("1", "2"):
            env = dict(os.environ, OPENBLAS_NUM_THREADS=threads, OMP_NUM_THREADS=threads, FIRST_THREADS="1")
            proc = subprocess.run([sys.executable, "-c", script], cwd=root, env=env,
                                  capture_output=True, text=True, timeout=300)
            assert proc.returncode == 0, proc.stderr
            outputs.append(proc.stdout)
        assert outputs[0] == outputs[1] and outputs[0].count("\n") == 6


class TestPathParity:
    """A set's variance does not depend on which path found the set."""

    @pytest.mark.parametrize("backend", ["tree", "dense"])
    @pytest.mark.parametrize("k", [2, 3, 5, 9])
    def test_untied_rows_match_the_tie_path(self, backend, k, monkeypatch):
        on_backend(monkeypatch, backend)
        rng = np.random.default_rng(21)
        n = 150
        m, y = encoded(mixed_points(n, 3, rng), rng.standard_normal(n), standardize=False)
        ctx = prepare(m, y, EstimatorConfig(n_inner=k))
        index = build_index(m, range(3))
        assert (index.tree is None) == (backend == "dense")
        _, tied, _ = query_within_batch(index, ctx.rows, k, workers=1)
        free = ctx.rows[~tied]
        assert tied.any() and len(free) > n // 2
        d2 = ((index.points[free][:, None, :] - index.points[None, :, :]) ** 2).sum(axis=2)
        kth = np.sqrt(np.sort(d2, axis=1)[:, k - 1])
        want = tied_variances(index, free, kth, k, y, 1)
        got = [_subspace_effect(replace(ctx, rows=free[i:i + 1]), range(3)) for i in range(len(free))]
        np.testing.assert_array_equal(got, want)


def grid_points(n, q, rng):
    """Rows on the 0.1 grid: many duplicates and exact distance ties."""
    return rng.integers(0, 11, size=(n, q)) / 10


class TestSharedLists:
    """A forward step's shared neighbor lists settle rows exactly."""

    DATA = {"continuous": lambda n, rng: rng.uniform(size=(n, 4)),
            "grid": lambda n, rng: grid_points(n, 4, rng),
            "mixed": lambda n, rng: mixed_points(n, 4, rng)}

    @pytest.mark.parametrize("kind", sorted(DATA))
    @pytest.mark.parametrize("k", [2, 3, 5])
    def test_settled_rows_match_brute_force(self, kind, k, monkeypatch):
        # short lists leave rows unsettled on every kind of data
        monkeypatch.setattr(neighbors, "LIST_LENGTH", 12)
        rng = np.random.default_rng(31)
        n = 300
        m, _ = encoded(self.DATA[kind](n, rng), np.zeros(n), standardize=False)
        rows = np.arange(n)
        for active in ([0], [0, 1], [1, 2, 3]):
            lists = neighbor_lists(build_index(m, active), rows, workers=1)
            for j in set(range(4)) - set(active):
                settled, ids = lists.settle(m, j, k)
                points = build_index(m, active + [j]).points
                for row, got in zip(rows[settled], ids):
                    assert list(got) == sorted(brute_within_kth(points, row, k)), (kind, active, j, row)
                if kind != "grid" and len(active) > 1:
                    assert 0 < settled.sum() < n, (kind, active, j)

    def test_settle_and_fallback_rows_give_the_same_values(self, monkeypatch):
        # n=200 with 16-row lists: steps settle some rows of each candidate
        # and send the rest to the candidate's own index
        monkeypatch.setattr(neighbors, "LIST_LENGTH", 16)
        rng = np.random.default_rng(33)
        n = 200
        x = rng.uniform(size=(n, 5))
        m, y = encoded(x, x[:, 0] + x[:, 1] * x[:, 2] + 0.2 * rng.standard_normal(n))
        settled = 0
        for k in (2, 3, 5):
            ctx = prepare(m, y, EstimatorConfig(n_inner=k))
            for active in ([0], [0, 1], [0, 1, 2]):
                pool = [j for j in range(5) if j not in active]
                monkeypatch.setattr(neighbors, "SETTLED_MIN_SHARE", 0.0)
                lists = step_lists(ctx, active, pool)
                settled += sum(lists.settle(m, j, k)[0].sum() for j in pool)
                forced = _candidate_values(ctx, active, pool)
                monkeypatch.setattr(neighbors, "SETTLED_MIN_SHARE", np.inf)
                assert step_lists(ctx, active, pool) is None
                assert forced == _candidate_values(ctx, active, pool)
                for j in pool:
                    want = brute_effect(m.values[:, m.columns_for(sorted(active + [j]))], y, k)
                    assert ctx.total - forced[j] == pytest.approx(want, rel=1e-12)
        assert 0 < settled < 3 * 12 * n  # 12 candidates per k

    def test_lists_need_a_tree_and_distinct_points(self, monkeypatch):
        rng = np.random.default_rng(35)
        n = 300
        x = rng.uniform(size=(n, 3))
        m, y = encoded(x, x.sum(axis=1) + rng.standard_normal(n))
        ctx = prepare(m, y, EstimatorConfig())
        monkeypatch.setattr(neighbors, "SETTLED_MIN_SHARE", 0.0)
        assert step_lists(ctx, [0, 1], [2]) is not None
        on_backend(monkeypatch, "dense")
        assert step_lists(ctx, [0, 1], [2]) is None
        on_backend(monkeypatch, "tree")
        g, gy = encoded(grid_points(n, 3, rng), y, standardize=False)
        assert step_lists(prepare(g, gy, EstimatorConfig()), [0, 1], [2]) is None

    @pytest.mark.parametrize("source, probed", [(5, False), (16, True)])
    def test_repeated_point_refuses_only_in_the_probe(self, source, probed, monkeypatch):
        # at n=1000 the probe takes rows 0, 16, 32, ...: row 5 and the last row are
        # outside the probe, row 16 is inside
        rng = np.random.default_rng(39)
        n = 1000
        x = rng.uniform(size=(n, 4))
        x[-1] = x[source]
        m, y = encoded(x, x[:, 0] + x[:, 1] * x[:, 2] + 0.2 * rng.standard_normal(n))
        ctx = prepare(m, y, EstimatorConfig())
        pool = [2, 3]
        monkeypatch.setattr(neighbors, "SETTLED_MIN_SHARE", 0.0)
        assert (step_lists(ctx, [0, 1], pool) is None) == probed
        shared = _candidate_values(ctx, [0, 1], pool)
        monkeypatch.setattr(neighbors, "SETTLED_MIN_SHARE", np.inf)
        assert step_lists(ctx, [0, 1], pool) is None
        assert _candidate_values(ctx, [0, 1], pool) == shared

    def test_categorical_grid_refuses_lists_at_every_step(self, monkeypatch):
        ds = categorical_grid_dataset(600, seed=10)
        m = encode(ds)
        ctx = prepare(m, ds.response, EstimatorConfig())
        monkeypatch.setattr(neighbors, "SETTLED_MIN_SHARE", 0.0)
        for size in (1, 2, 3):
            for active in itertools.combinations(range(4), size):
                assert build_index(m, active).tree is not None
                assert step_lists(ctx, list(active), [j for j in range(4) if j not in active]) is None, active

    def test_memory_bound(self, monkeypatch):
        # the bound in the NeighborLists docstring: the lists, one
        # candidate's settled ids and mask, and one block in flight
        monkeypatch.setattr(neighbors, "SETTLED_MIN_SHARE", 0.0)
        rng = np.random.default_rng(37)
        n, k, m_len = 8000, 2, neighbors.LIST_LENGTH
        x = rng.uniform(size=(n, 4))
        m, y = encoded(x, x[:, 0] * x[:, 1] + rng.standard_normal(n))
        ctx = prepare(m, y, EstimatorConfig(n_inner=k))
        assert m_len * n > 8 * LIST_BLOCK_FLOATS  # many blocks
        tracemalloc.start()
        try:
            lists = step_lists(ctx, [0, 1], [2, 3])
            settled = lists.settle(m, 2, k)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert settled[0].any()
        index_bytes = 8 * n * 2
        bound = (16 * m_len + 8) * n + (24 * k + 1) * n + 32 * LIST_BLOCK_FLOATS + index_bytes
        assert peak < bound + (1 << 16), (peak, bound)


class TestSortedOrder:
    """Step 0's lists settle one-column factors exactly, from sorted order."""

    DATA = {"continuous": lambda n, rng: rng.uniform(size=n),
            "grid": lambda n, rng: grid_points(n, 1, rng)[:, 0],
            "mixed": lambda n, rng: mixed_points(n, 1, rng)[:, 0]}

    @staticmethod
    def check_settled(m, rows, k):
        """Settle factor 0 on ``rows``; every settled row must give its brute-force set."""
        settled, ids = neighbors.SortedOrder(rows).settle(m, 0, k)
        assert len(ids) == settled.sum()
        points = m.values[:, :1]
        for row, got in zip(rows[settled], ids):
            assert list(got) == sorted(brute_within_kth(points, row, k)), (k, row)
        return settled

    @pytest.mark.parametrize("kind", sorted(DATA))
    @pytest.mark.parametrize("k", [2, 3, 5])
    @pytest.mark.parametrize("sample", [False, True])
    def test_settled_rows_match_brute_force(self, kind, k, sample):
        rng = np.random.default_rng(41)
        n = 300
        x = self.DATA[kind](n, rng)
        # three copies of the smallest and of the largest value
        low, high = x.argmin(), x.argmax()
        x[[5, 100]], x[[7, 250]] = x[low], x[high]
        m, _ = encoded(x[:, None], np.zeros(n), standardize=False)
        rows = np.sort(rng.choice(n, size=60, replace=False)) if sample else np.arange(n)
        rows = np.union1d(rows, [5, 7, 100, 250, low, high])
        settled = self.check_settled(m, rows, k)
        if kind == "continuous":
            assert settled.mean() > 0.9
            # three rows at each end share a point: at k=2 the 2nd and 3rd
            # distances are both 0, from k=3 on the k-th and (k+1)-th differ
            ends = np.isin(x[rows], [x.min(), x.max()])
            assert ends.sum() == 6 and (settled[ends] == (k > 2)).all()
        if kind == "grid":
            assert not settled.any()

    @pytest.mark.parametrize("kind", sorted(DATA))
    def test_k_near_n(self, kind):
        rng = np.random.default_rng(43)
        for n in (2, 3, 7, 12):
            x = self.DATA[kind](n, rng)
            m, _ = encoded(x[:, None], np.zeros(n), standardize=False)
            self.check_settled(m, np.arange(n), n - 1)
            assert not self.check_settled(m, np.arange(n), n).any()

    @pytest.mark.filterwarnings("ignore:overflow encountered")
    def test_overflowing_distance_settles_no_row(self):
        # the squared distance from either end overflows to inf: those rows
        # keep every row as a neighbor, which only the query path gives
        x = np.array([-1e200, 0.0, 1.0, 3.0, 6.0, 1e200])
        m, _ = encoded(x[:, None], np.zeros(len(x)), standardize=False)
        settled = self.check_settled(m, np.arange(len(x)), 2)
        np.testing.assert_array_equal(settled, [False, True, True, True, True, False])

    def test_multi_column_factor_settles_no_row(self):
        m = encode(categorical_grid_dataset(200, seed=12))
        assert len(m.columns_for([0])) == 3
        settled, ids = neighbors.SortedOrder(np.arange(200)).settle(m, 0, 2)
        assert not settled.any() and ids.shape == (0, 2)

    @pytest.mark.parametrize("data", ["continuous", "grid", "categorical", "subsampled"])
    def test_step_zero_values_equal_those_without_lists(self, data, monkeypatch):
        rng = np.random.default_rng(45)
        n, cfg = 400, EstimatorConfig()
        if data == "categorical":
            ds = categorical_grid_dataset(n, seed=14)
            m, y = encode(ds), ds.response
        else:
            x = grid_points(n, 4, rng) if data == "grid" else rng.uniform(size=(n, 4))
            m, y = encoded(x, x[:, 0] + x[:, 1] * x[:, 2] + 0.2 * rng.standard_normal(n))
            cfg = EstimatorConfig(n_outer=150, seed=3) if data == "subsampled" else cfg
        ctx = prepare(m, y, cfg)
        pool = list(range(m.n_factors))
        builds = []
        monkeypatch.setattr(estimators, "build_index", lambda *a: builds.append(a) or build_index(*a))
        with_lists = _candidate_values(ctx, [], pool)
        assert (len(builds) == 0) == (data in ("continuous", "subsampled")), len(builds)
        monkeypatch.setattr(selection, "step_lists", lambda ctx, active, candidates: None)
        assert _candidate_values(ctx, [], pool) == with_lists

    def test_memory_bound(self):
        # the bound in the SortedOrder docstring: the argsort and its inverse
        # while they are made, the window, then NeighborLists.settle's
        # settled ids and mask and one block in flight
        rng = np.random.default_rng(47)
        n, k = 20_000, 3
        m, _ = encoded(rng.uniform(size=(n, 2)), np.zeros(n))
        for rows in (np.arange(n), np.arange(0, n, 7)):
            order = neighbors.SortedOrder(rows)
            tracemalloc.start()
            try:
                settled = order.settle(m, 1, k)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert settled[0].mean() > 0.9
            m_rows = len(rows)
            bound = 24 * n + (25 * (2 * k + 1) + 8) * m_rows + (24 * k + 1) * m_rows + 32 * LIST_BLOCK_FLOATS
            assert peak < bound + (1 << 16), (peak, bound)


def test_worker_count_env(monkeypatch):
    monkeypatch.setenv("FIRST_THREADS", "3")
    assert worker_count() == 3
    for bad in ("0", "abc", "2.5"):
        monkeypatch.setenv("FIRST_THREADS", bad)
        with pytest.raises(ValueError, match=f"FIRST_THREADS must be a positive integer, got '{bad}'"):
            worker_count()
    monkeypatch.delenv("FIRST_THREADS")
    assert worker_count() >= 1
