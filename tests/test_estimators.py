"""Estimator tests: hand-checked values, Monte Carlo checks, invariances."""

import json
import re

import numpy as np
import pytest

from first.estimators import (
    EstimatorConfig,
    conditional_variance_effect,
    derive_seed,
    explainable_variance,
    nanne,
    outer_rows,
    total_variance,
)
from first.neighbors import build_index
from first.selection import first as first_select, nanne_be
from first.synthetic import BENCHMARKS, CopulaSpec, generate_regression
from first.dataset import encode
from tests.conftest import brute_effect, continuous_dataset, encoded

CFG = EstimatorConfig(n_inner=2, seed=1)

# Every public entry point that takes a factor subset, as f(matrix, y, factors).
SUBSET_FUNCTIONS = {
    "conditional_variance_effect": lambda m, y, factors: conditional_variance_effect(m, y, factors, CFG),
    "explainable_variance": lambda m, y, factors: explainable_variance(m, y, factors, CFG),
    "nanne_be": lambda m, y, factors: nanne_be(m, y, factors, CFG),
    "build_index": lambda m, y, factors: build_index(m, factors).points,
}

BAD_SUBSETS = [
    ([0.7], "factor index must be an integer, got 0.7"),
    ([True], "factor index must be an integer, got True"),
    (["1"], "factor index must be an integer, got '1'"),
    ([0, 3], r"factor indices out of range 0\.\.2"),
    ([-1], r"factor indices out of range 0\.\.2"),
    ([], "factor subset must be non-empty"),
]


def ishigami_total_indices():
    """Closed-form total Sobol' indices of the sine-quartic test function.

    Derived from its ANOVA decomposition on uniform inputs with
    coefficients a=7, b=0.1: the only nonzero variance terms are the two
    main effects and the 1-3 interaction.
    """
    a, b = 7.0, 0.1
    v1 = (1.0 + b * np.pi ** 4 / 5.0) ** 2 / 2.0
    v2 = a ** 2 / 8.0
    v13 = 8.0 * b ** 2 * np.pi ** 8 / 225.0
    total = v1 + v2 + v13
    return np.array([(v1 + v13) / total, v2 / total, v13 / total])


class TestTotalVariance:
    def test_two_points(self):
        assert total_variance([0.0, 2.0]) == pytest.approx(2.0)

    def test_constant(self):
        assert total_variance(np.full(10, 3.7)) == 0.0

    def test_standard_normal_draws(self, rng):
        y = rng.standard_normal(1000)
        assert total_variance(y) == pytest.approx(1.0, abs=0.15)

    def test_needs_two_observations(self):
        with pytest.raises(ValueError):
            total_variance([1.0])


class TestConditionalVarianceEffect:
    def test_hand_example_against_brute_force(self):
        # 1-D rows 0,1,2,10 with y equal to x: per-row within-2nd sets are
        # {0,1}, {0,1,2} (tie at distance 1), {1,2}, {2,10}; variances
        # 0.5, 1.0, 0.5, 32 average to 8.5.
        x = np.array([[0.0], [1.0], [2.0], [10.0]])
        y = np.array([0.0, 1.0, 2.0, 10.0])
        m, _ = encoded(x, y, standardize=False)
        got = conditional_variance_effect(m, y, [0], CFG)
        assert got == pytest.approx(brute_effect(x, y, 2))
        assert got == pytest.approx(8.5)

    def test_constant_response_is_zero(self, rng):
        m, _ = encoded(rng.uniform(size=(50, 2)), np.zeros(50))
        y = np.full(50, 4.2)
        assert conditional_variance_effect(m, y, [0, 1], CFG) == 0.0

    def test_pure_noise_recovers_noise_variance(self):
        rng = np.random.default_rng(7)
        x = rng.uniform(size=(10_000, 3))
        y = rng.standard_normal(10_000)
        m, _ = encoded(x, y)
        got = conditional_variance_effect(m, y, [0, 1, 2], CFG)
        assert got == pytest.approx(1.0, abs=0.1)

    def test_matches_brute_force_with_duplicates(self, rng):
        x = rng.choice([0.0, 0.5, 1.0], size=(60, 2))
        y = rng.standard_normal(60)
        m, _ = encoded(x, y, standardize=False)
        for k in (2, 3):
            cfg = EstimatorConfig(n_inner=k)
            got = conditional_variance_effect(m, y, [0, 1], cfg)
            assert got == pytest.approx(brute_effect(x, y, k), rel=1e-12)

    def test_empty_subset_rejected(self, rng):
        m, y = encoded(rng.uniform(size=(10, 2)), rng.uniform(size=10))
        with pytest.raises(ValueError, match="non-empty"):
            conditional_variance_effect(m, y, [], CFG)

    def test_response_length_mismatch_rejected(self, rng):
        m, y = encoded(rng.uniform(size=(10, 2)), rng.uniform(size=10))
        for bad in (y[:8], np.concatenate([y, y])):
            with pytest.raises(ValueError, match="one value per row"):
                conditional_variance_effect(m, bad, [0], CFG)

    def test_non_finite_response_rejected(self, rng):
        m, y = encoded(rng.uniform(size=(10, 2)), rng.uniform(size=10))
        for value in (np.nan, np.inf, -np.inf):
            bad = y.copy()
            bad[3] = value
            with pytest.raises(ValueError, match="non-finite"):
                nanne(m, bad, CFG)
            with pytest.raises(ValueError, match="non-finite"):
                conditional_variance_effect(m, bad, [0], CFG)
            with pytest.raises(ValueError, match="non-finite"):
                first_select(m, bad, CFG)


class TestExplainableVariance:
    def test_empty_selection_is_zero(self, rng):
        m, y = encoded(rng.uniform(size=(10, 2)), rng.uniform(size=10))
        assert explainable_variance(m, y, [], CFG) == 0.0

    def test_empty_selection_still_checks_the_response(self, rng):
        m, y = encoded(rng.uniform(size=(10, 2)), rng.uniform(size=10))
        with pytest.raises(ValueError, match="one value per row"):
            explainable_variance(m, y[:5], [], CFG)

    def test_constant_response(self, rng):
        m, _ = encoded(rng.uniform(size=(10, 2)), np.zeros(10))
        assert explainable_variance(m, np.full(10, 2.0), [0], CFG) == 0.0

    def test_linear_factor_explains_its_variance(self):
        rng = np.random.default_rng(11)
        x = rng.uniform(size=(5000, 2))
        y = x[:, 0] + 0.1 * rng.standard_normal(5000)
        m, _ = encoded(x, y)
        got = explainable_variance(m, y, [0], CFG)
        assert got == pytest.approx(1.0 / 12.0, abs=0.01)


class TestFactorSubsets:
    # an empty selection is valid for explainable_variance: it explains nothing
    @pytest.mark.parametrize("name, factors, message", [
        (name, factors, message) for name in SUBSET_FUNCTIONS for factors, message in BAD_SUBSETS
        if factors or name != "explainable_variance"])
    def test_bad_subset_rejected(self, rng, name, factors, message):
        x = rng.uniform(size=(40, 3))
        m, y = encoded(x, x[:, 0] + 0.1 * rng.standard_normal(40))
        with pytest.raises(ValueError, match=message):
            SUBSET_FUNCTIONS[name](m, y, factors)

    @pytest.mark.parametrize("name", list(SUBSET_FUNCTIONS))
    def test_numpy_and_repeated_indices_accepted(self, rng, name):
        x = rng.uniform(size=(40, 3))
        m, y = encoded(x, x[:, 0] + x[:, 2] + 0.1 * rng.standard_normal(40))
        got = SUBSET_FUNCTIONS[name](m, y, [np.int64(2), np.int32(0), 2])
        np.testing.assert_array_equal(got, SUBSET_FUNCTIONS[name](m, y, [0, 2]))


class TestNanne:
    def test_constant_response_hits_zero_signal_branch(self, rng):
        m, _ = encoded(rng.uniform(size=(30, 3)), np.zeros(30))
        res = nanne(m, np.full(30, 1.5), CFG)
        assert res.signal_var == 0.0
        np.testing.assert_array_equal(res.s_tot, 0.0)
        assert not res.selected.any()

    @pytest.mark.filterwarnings("ignore:total Sobol' index above 1")
    def test_single_noiseless_factor(self):
        rng = np.random.default_rng(3)
        x = rng.uniform(size=(5000, 2))
        y = x[:, 0].copy()
        m, _ = encoded(x, y)
        res = nanne(m, y, CFG)
        assert res.s_tot[0] == pytest.approx(1.0, abs=0.05)
        assert res.s_tot[1] == 0.0

    def test_ishigami_close_to_closed_form(self):
        spec = CopulaSpec.ar1(3, 0.0)
        ds = generate_regression(spec, BENCHMARKS["ishigami"], 1.0, 10_000, 5)
        m = encode(ds)
        res = nanne(m, ds.response, EstimatorConfig(n_inner=2, seed=5))
        np.testing.assert_allclose(res.s_tot, ishigami_total_indices(), atol=0.08)

    @pytest.mark.filterwarnings("ignore:total Sobol' index above 1")
    def test_affine_response_invariance(self, rng):
        for trial in range(10):
            n = int(rng.integers(40, 120))
            p = int(rng.integers(1, 4))
            x = rng.uniform(size=(n, p))
            y = x @ rng.uniform(size=p) + 0.3 * rng.standard_normal(n)
            m, _ = encoded(x, y)
            base = nanne(m, y, CFG)
            for a in (-3.0, 0.5, 10.0):
                for b in (-1.0, 7.0):
                    res = nanne(m, a * y + b, CFG)
                    np.testing.assert_allclose(res.s_tot, base.s_tot, rtol=1e-10, atol=1e-12)

    @pytest.mark.filterwarnings("ignore:total Sobol' index above 1")
    def test_row_permutation_invariance(self, rng):
        n = 200
        x = rng.uniform(size=(n, 2)).round(1)  # ties survive the permutation
        y = x[:, 0] + rng.standard_normal(n)
        perm = rng.permutation(n)
        r1 = nanne(encoded(x, y, standardize=False)[0], y, CFG)
        r2 = nanne(encoded(x[perm], y, standardize=False)[0], y[perm], CFG)
        np.testing.assert_allclose(r1.s_tot, r2.s_tot, rtol=1e-12, atol=1e-14)
        assert r1.noise_var == pytest.approx(r2.noise_var, rel=1e-12)

    @pytest.mark.filterwarnings("ignore:total Sobol' index above 1")
    def test_all_outputs_nonnegative(self, rng):
        for _ in range(5):
            x = rng.uniform(size=(80, 3))
            y = rng.standard_normal(80)
            m, _ = encoded(x, y)
            res = nanne(m, y, CFG)
            assert res.noise_var >= 0.0
            assert res.signal_var >= 0.0
            assert res.total_var >= 0.0
            assert (res.s_tot >= 0.0).all()

    def test_consistency_improves_with_sample_size(self):
        """Seed-averaged error shrinks from N=1,000 to N=10,000."""
        truth = ishigami_total_indices()
        spec = CopulaSpec.ar1(3, 0.0)
        errors = {1000: [], 10_000: []}
        for seed in range(20):
            for n in errors:
                ds = generate_regression(spec, BENCHMARKS["ishigami"], 1.0, n, seed)
                res = nanne(encode(ds), ds.response, EstimatorConfig(n_inner=2, seed=seed))
                errors[n].append(np.abs(res.s_tot - truth).mean())
        assert np.mean(errors[10_000]) <= np.mean(errors[1000])


class TestConfig:
    def test_auto_inner_count(self):
        cfg = EstimatorConfig()
        assert cfg.resolve_n_inner(np.array([0.0, 1.0, 1.0])) == 3
        assert cfg.resolve_n_inner(np.array([0.1, 1.0, 1.0])) == 2
        assert EstimatorConfig(n_inner=5).resolve_n_inner(np.array([0.0, 1.0])) == 5

    def test_validation(self):
        with pytest.raises(ValueError):
            EstimatorConfig(n_inner=1)
        with pytest.raises(ValueError):
            EstimatorConfig(n_outer="some")
        with pytest.raises(ValueError):
            EstimatorConfig(n_outer=0)

    @pytest.mark.parametrize("field,value", [
        (field, value) for field in ("n_inner", "n_outer")
        for value in (2.5, 3.0, True, np.float64(4.0), np.bool_(True))] + [("n_inner", "3")])
    def test_non_integer_count_rejected(self, field, value):
        with pytest.raises(ValueError, match=re.escape(f"{field} must be an integer, got {value!r}")):
            EstimatorConfig(**{field: value})

    @pytest.mark.parametrize("value", [2.5, 3.0, True, np.float64(4.0), np.bool_(True), "3"])
    def test_non_integer_seed_rejected(self, value):
        with pytest.raises(ValueError, match=re.escape(f"seed must be an integer, got {value!r}")):
            EstimatorConfig(seed=value)

    def test_numpy_integer_seed_matches_python_int(self, rng):
        x = rng.uniform(size=(300, 4))
        m, y = encoded(x, x[:, 0] + x[:, 1] * x[:, 2] + 0.1 * rng.standard_normal(300))
        cfg = EstimatorConfig(n_outer=100, seed=np.int64(3))
        assert type(cfg.seed) is int and cfg == EstimatorConfig(n_outer=100, seed=3)
        got = first_select(m, y, cfg).to_dict()
        assert got == first_select(m, y, EstimatorConfig(n_outer=100, seed=3)).to_dict()
        assert json.loads(json.dumps(got)) == got
        assert derive_seed(np.uint32(7), 1) == derive_seed(7, 1)
        assert derive_seed(np.int64(-1), 0) == derive_seed(-1, 0)
        with pytest.raises(TypeError):
            derive_seed(7.0, 1)

    def test_numpy_integer_counts_accepted(self):
        cfg = EstimatorConfig(n_inner=np.int64(3), n_outer=np.int32(40))
        assert cfg == EstimatorConfig(n_inner=3, n_outer=40)
        assert type(cfg.n_inner) is int and type(cfg.n_outer) is int

    def test_subsample_deterministic_and_bounded(self, rng):
        x = rng.uniform(size=(100, 2))
        y = x[:, 0] + 0.1 * rng.standard_normal(100)
        m, _ = encoded(x, y)
        cfg = EstimatorConfig(n_inner=2, n_outer=40, seed=9)
        a = conditional_variance_effect(m, y, [0], cfg)
        b = conditional_variance_effect(m, y, [0], cfg)
        assert a == b
        other = conditional_variance_effect(m, y, [0], EstimatorConfig(n_inner=2, n_outer=40, seed=10))
        assert a != other
        with pytest.raises(ValueError, match="exceeds"):
            conditional_variance_effect(m, y, [0], EstimatorConfig(n_inner=2, n_outer=101))

    def test_step_seed_derivation_stable(self):
        cfg = EstimatorConfig(n_inner=2, n_outer=10, seed=123)
        np.testing.assert_array_equal(outer_rows(cfg, 100, 0), outer_rows(cfg, 100, 0))
        assert outer_rows(cfg, 100, 0).tolist() != outer_rows(cfg, 100, 1).tolist()
        np.testing.assert_array_equal(outer_rows(EstimatorConfig(seed=123), 100, 3), np.arange(100))
        # Derived seeds reach the selection meta and benchmark reports: pin them.
        assert derive_seed(123, 3) == 15673771762283591188
        step_cfg = EstimatorConfig(n_inner=2, n_outer=10, seed=15673771762283591188)
        np.testing.assert_array_equal(outer_rows(cfg, 100, 3), outer_rows(step_cfg, 100))
        assert derive_seed(2024, 1) == 7778828159576237216
        assert derive_seed(-1, 0) == 14031750673298188677
