"""Spatial index tests, including oracle equivalence against a linear scan."""

import itertools
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.spatial import cKDTree

from first.dataset import CATEGORICAL, CONTINUOUS, Dataset, encode
from first.estimators import EstimatorConfig, conditional_variance_effect, nanne, total_variance
from first.neighbors import (
    LEAF_SIZE,
    TIE_BLOCK_FLOATS,
    NeighborIndex,
    build_index,
    query_within_batch,
    tied_variances,
    within_kth,
    worker_count,
)
from first.selection import first
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
    """Both tie paths on three 3-level categoricals plus a 0.1-grid factor."""

    N = 120
    SUBSETS = [s for r in range(1, 5) for s in itertools.combinations(range(4), r)]

    @pytest.fixture(scope="class")
    def tie_data(self):
        ds = categorical_grid_dataset(self.N, seed=4)
        return encode(ds), ds.response

    def test_shape_reaches_both_tie_paths(self, tie_data):
        m, _ = tie_data
        rows = np.arange(self.N)
        for k in (2, 3):
            kth = np.concatenate([query_within_batch(build_index(m, s), rows, k)[2] for s in self.SUBSETS])
            assert (kth == 0.0).sum() > 1000  # duplicate groups
            assert (kth > 0.0).sum() > 100  # ties at a positive distance
        assert not query_within_batch(build_index(m, [0, 3]), rows, self.N)[1].any()

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

    def test_memory_bound_when_every_row_ties(self):
        # one level per row: every pair of rows is sqrt(2) apart, so every
        # row ties at a positive distance with all n rows as candidates
        n = 200
        ds = Dataset(factor_names=("c",), factor_kinds=(CATEGORICAL,),
                     factors=(np.array([f"l{i}" for i in range(n)], dtype=object),),
                     response=np.random.default_rng(5).standard_normal(n))
        m = encode(ds)
        q = m.values.shape[1]
        tracemalloc.start()
        try:
            got = conditional_variance_effect(m, ds.response, [0], EstimatorConfig())
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert got == pytest.approx(total_variance(ds.response), rel=1e-12)
        block = max(TIE_BLOCK_FLOATS, n * q)
        assert peak < 16 * block + 64 * block // q + 64 * n * q


def test_worker_count_env(monkeypatch):
    monkeypatch.setenv("FIRST_THREADS", "3")
    assert worker_count() == 3
    monkeypatch.setenv("FIRST_THREADS", "0")
    with pytest.raises(ValueError):
        worker_count()
    monkeypatch.delenv("FIRST_THREADS")
    assert worker_count() >= 1
