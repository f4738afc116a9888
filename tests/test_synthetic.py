"""Copula sampler, benchmark functions, and groundtruth oracle tests."""

import re

import numpy as np
import pytest
from scipy import stats
from scipy.special import ndtr, ndtri

from first.dataset import load_csv, save_csv
from first.synthetic import (
    BENCHMARKS,
    CopulaSpec,
    _cached_restricted,
    double_mc_total_sobol,
    evaluate,
    generate_binary,
    generate_regression,
    restricted_groundtruth,
    sample_inputs,
)
from tests.test_estimators import ishigami_total_indices


class TestCopulaSpec:
    def test_ar1_structure(self):
        spec = CopulaSpec.ar1(4, 0.5)
        assert spec.correlation[0, 3] == pytest.approx(0.5 ** 3)
        assert spec.dim == 4
        assert spec.marginals == ("uniform",) * 4
        np.testing.assert_array_equal(np.diag(spec.correlation), 1.0)

    def test_rho_bounds(self):
        with pytest.raises(ValueError):
            CopulaSpec.ar1(3, 1.0)
        with pytest.raises(ValueError):
            CopulaSpec.ar1(3, -0.1)

    def test_matrix_validation(self):
        with pytest.raises(ValueError, match="unit diagonal"):
            CopulaSpec(correlation=np.array([[2.0, 0.0], [0.0, 1.0]]), marginals=("uniform",) * 2)
        with pytest.raises(ValueError, match="symmetric"):
            CopulaSpec(correlation=np.array([[1.0, 0.3], [0.6, 1.0]]), marginals=("uniform",) * 2)
        with pytest.raises(ValueError, match="positive definite"):
            CopulaSpec(correlation=np.array([[1.0, 1.0], [1.0, 1.0]]), marginals=("uniform",) * 2)
        with pytest.raises(ValueError, match="marginal"):
            CopulaSpec(correlation=np.eye(2), marginals=("uniform", "exponential"))

    def test_shape_validation(self):
        with pytest.raises(ValueError, match="correlation must be a square matrix"):
            CopulaSpec(correlation=np.ones((2, 3)), marginals=("uniform",) * 2)
        with pytest.raises(ValueError, match="need one marginal per dimension"):
            CopulaSpec(correlation=np.eye(2), marginals=("uniform",) * 3)

    @pytest.mark.parametrize("dim, rho, message", [
        (2.5, 0.5, "dim must be an integer, got 2.5"),
        (0, 0.5, "dim must be at least 1, got 0"),
        (3, False, r"rho must lie in \[0, 1\), got False"),
        (3, "0.5", r"rho must lie in \[0, 1\), got '0.5'"),
    ])
    def test_ar1_rejects_bad_arguments(self, dim, rho, message):
        with pytest.raises(ValueError, match=message):
            CopulaSpec.ar1(dim, rho)

    def test_ar1_accepts_numpy_numbers(self):
        got = CopulaSpec.ar1(np.int32(4), np.float32(0.5)).correlation
        np.testing.assert_array_equal(got, CopulaSpec.ar1(4, 0.5).correlation)


class TestSampleInputs:
    def test_independent_case_uncorrelated(self):
        x = sample_inputs(CopulaSpec.ar1(4, 0.0), 10_000, seed=1)
        z = ndtri(x)
        corr = np.corrcoef(z, rowvar=False)
        off = corr[~np.eye(4, dtype=bool)]
        assert np.abs(off).max() < 0.05

    def test_adjacent_latent_correlation_matches_rho(self):
        x = sample_inputs(CopulaSpec.ar1(3, 0.9), 10_000, seed=2)
        z = ndtri(x)
        for i in (0, 1):
            r = np.corrcoef(z[:, i], z[:, i + 1])[0, 1]
            assert r == pytest.approx(0.9, abs=0.02)

    def test_marginals_are_uniform(self):
        x = sample_inputs(CopulaSpec.ar1(3, 0.7), 10_000, seed=3)
        for j in range(3):
            ks = stats.kstest(x[:, j], "uniform").statistic
            assert ks < 0.02

    def test_normal_marginals_pass_through(self):
        spec = CopulaSpec(correlation=np.eye(2), marginals=("normal", "normal"))
        x = sample_inputs(spec, 10_000, seed=4)
        assert stats.kstest(x[:, 0], "norm").statistic < 0.02

    def test_seed_reproducibility(self):
        spec = CopulaSpec.ar1(3, 0.4)
        np.testing.assert_array_equal(sample_inputs(spec, 50, 9), sample_inputs(spec, 50, 9))


def ishigami_draws(kind):
    """One of the three samplers, called on the Ishigami function where it takes one."""
    f = BENCHMARKS["ishigami"]
    return {
        "sample_inputs": lambda spec, n, seed: sample_inputs(spec, n, seed),
        "generate_regression": lambda spec, n, seed: generate_regression(spec, f, 1.0, n, seed),
        "generate_binary": lambda spec, n, seed: generate_binary(spec, f, n, seed),
    }[kind]


SAMPLERS = ("sample_inputs", "generate_regression", "generate_binary")


def earlier_stream(spec, n, seed):
    """The generator and inputs as first drawn: a raw seed to ``default_rng``, then the Cholesky factor and ndtr."""
    rng = np.random.default_rng(seed)
    z = rng.standard_normal((n, spec.dim)) @ np.linalg.cholesky(spec.correlation).T
    return rng, ndtr(z)


class TestSeededDraws:
    """Every sampler turns its seed into a stream the same way, and checks seed and count."""

    @pytest.mark.parametrize("kind", SAMPLERS)
    @pytest.mark.parametrize("seed", [True, 1.5, "1"])
    def test_bad_seed_rejected(self, kind, seed):
        with pytest.raises(ValueError, match=re.escape(f"seed must be an integer, got {seed!r}")):
            ishigami_draws(kind)(CopulaSpec.ar1(3, 0.5), 5, seed)

    @pytest.mark.parametrize("kind", SAMPLERS)
    @pytest.mark.parametrize("n, message", [
        (5.0, "n must be an integer, got 5.0"),
        (True, "n must be an integer, got True"),
        (0, "n must be at least 1, got 0"),
    ])
    def test_bad_count_rejected(self, kind, n, message):
        with pytest.raises(ValueError, match=message):
            ishigami_draws(kind)(CopulaSpec.ar1(3, 0.5), n, 1)

    @pytest.mark.parametrize("kind", SAMPLERS)
    def test_numpy_seed_and_count_accepted(self, kind):
        draw, spec = ishigami_draws(kind), CopulaSpec.ar1(3, 0.5)
        got, want = draw(spec, np.int64(20), np.uint64(7)), draw(spec, 20, 7)
        if kind == "sample_inputs":
            np.testing.assert_array_equal(got, want)
        else:
            np.testing.assert_array_equal(got.response, want.response)
            np.testing.assert_array_equal(np.column_stack(got.factors), np.column_stack(want.factors))

    def test_seed_taken_modulo_two_to_the_64(self):
        spec = CopulaSpec.ar1(3, 0.5)
        np.testing.assert_array_equal(sample_inputs(spec, 20, -1), sample_inputs(spec, 20, 2**64 - 1))
        np.testing.assert_array_equal(sample_inputs(spec, 20, 2**64 + 3), sample_inputs(spec, 20, 3))

    @pytest.mark.parametrize("dim, rho", [(1, 0.0), (4, 0.5), (10, 0.9)])
    @pytest.mark.parametrize("seed", [0, 5, 2**63 + 1, 2**64 - 1])
    def test_sample_inputs_stream_unchanged(self, dim, rho, seed):
        spec = CopulaSpec.ar1(dim, rho)
        np.testing.assert_array_equal(sample_inputs(spec, 64, seed), earlier_stream(spec, 64, seed)[1])

    @pytest.mark.parametrize("noise_sd", [0.0, 0.7])
    @pytest.mark.parametrize("seed", [0, 5, 2**64 - 1])
    def test_generate_regression_stream_unchanged(self, noise_sd, seed):
        spec, f = CopulaSpec.ar1(10, 0.5), BENCHMARKS["friedman"]
        ds = generate_regression(spec, f, noise_sd, 64, seed)
        rng, x = earlier_stream(spec, 64, seed)
        y = evaluate(f, x)
        if noise_sd:
            y = y + noise_sd * rng.standard_normal(64)
        np.testing.assert_array_equal(np.column_stack(ds.factors), x)
        np.testing.assert_array_equal(ds.response, y)

    @pytest.mark.parametrize("seed", [0, 5, 2**64 - 1])
    def test_generate_binary_stream_unchanged(self, seed):
        spec, f = CopulaSpec.ar1(3, 0.5), BENCHMARKS["ishigami"]
        ds = generate_binary(spec, f, 64, seed)
        rng, x = earlier_stream(spec, 64, seed)
        y = (rng.uniform(size=64) < ndtr(evaluate(f, x))).astype(np.float64)
        np.testing.assert_array_equal(np.column_stack(ds.factors), x)
        np.testing.assert_array_equal(ds.response, y)

    @pytest.mark.parametrize("noise_sd, message", [
        (-1.0, "noise_sd must be finite and non-negative, got -1.0"),
        (float("nan"), "noise_sd must be finite and non-negative, got nan"),
        (float("inf"), "noise_sd must be finite and non-negative, got inf"),
        (True, "noise_sd must be finite and non-negative, got True"),
    ])
    def test_generate_regression_rejects_bad_noise(self, noise_sd, message):
        with pytest.raises(ValueError, match=message):
            generate_regression(CopulaSpec.ar1(3, 0.5), BENCHMARKS["ishigami"], noise_sd, 20, 1)

    def test_numpy_float_noise_accepted(self):
        spec, f = CopulaSpec.ar1(3, 0.5), BENCHMARKS["ishigami"]
        got = generate_regression(spec, f, np.float32(0.5), 20, 1).response
        np.testing.assert_array_equal(got, generate_regression(spec, f, 0.5, 20, 1).response)


class TestBenchmarkFunctions:
    def test_ishigami_midpoint_is_zero(self):
        assert evaluate(BENCHMARKS["ishigami"], [0.5, 0.5, 0.5]) == pytest.approx(0.0, abs=1e-12)

    def test_friedman_term_cancellation(self):
        x = np.array([0.3, 0, 0, 0, 0, 0, 0.7, 0.5, 0.0, 0.0])
        got = evaluate(BENCHMARKS["friedman"], x)
        assert got == pytest.approx(10.0 * np.sin(np.pi * 0.3 * 0.7) - 10.0)

    def test_friedman_at_origin(self):
        assert evaluate(BENCHMARKS["friedman"], np.zeros(10)) == pytest.approx(-5.0)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError, match="dimensions"):
            evaluate(BENCHMARKS["friedman"], np.zeros(9))

    def test_heavy_tailed_finite_on_interior_grid(self, rng):
        # finite everywhere except the measure-zero ray x1 = x2 = 0
        x = rng.uniform(0.001, 1.0, size=(500, 8))
        vals = evaluate(BENCHMARKS["heavy_tailed"], x)
        assert np.all(np.isfinite(vals))

    def test_heavy_tailed_denominators_positive(self):
        x = np.linspace(0.0, 1.0, 101)
        assert np.all(np.cos(x) + np.sin(0.0) > 0)
        assert np.all(1.1 - x > 0)

    def test_batch_matches_single(self, rng):
        x = rng.uniform(size=(5, 10))
        batch = evaluate(BENCHMARKS["friedman"], x)
        singles = [evaluate(BENCHMARKS["friedman"], row) for row in x]
        np.testing.assert_allclose(batch, singles, rtol=0, atol=0)


class TestGenerators:
    def test_noiseless_regression_is_deterministic(self):
        spec = CopulaSpec.ar1(3, 0.0)
        ds = generate_regression(spec, BENCHMARKS["ishigami"], 0.0, 500, seed=10)
        x = np.column_stack(ds.factors)
        np.testing.assert_allclose(ds.response, evaluate(BENCHMARKS["ishigami"], x), rtol=1e-12)

    def test_regression_variance_is_signal_plus_noise(self):
        spec = CopulaSpec.ar1(3, 0.0)
        ds = generate_regression(spec, BENCHMARKS["ishigami"], 1.0, 20_000, seed=11)
        a, b = 7.0, 0.1
        var_f = (1 + b * np.pi ** 4 / 5) ** 2 / 2 + a ** 2 / 8 + 8 * b ** 2 * np.pi ** 8 / 225
        assert np.var(ds.response, ddof=1) == pytest.approx(var_f + 1.0, rel=0.05)

    def test_binary_balanced_for_zero_function(self):
        spec = CopulaSpec.ar1(2, 0.0)
        ds = generate_binary(spec, lambda x: np.zeros(len(x)), 10_000, seed=12)
        assert ds.response.mean() == pytest.approx(0.5, abs=0.02)

    def test_binary_saturates_for_large_function(self):
        spec = CopulaSpec.ar1(2, 0.0)
        ds = generate_binary(spec, lambda x: np.full(len(x), 10.0), 200, seed=13)
        assert ds.response.min() == 1.0

    def test_binary_benchmark_smoke(self):
        spec = CopulaSpec.ar1(6, 0.0)
        ds = generate_binary(spec, BENCHMARKS["ishigami"], 1000, seed=14)
        assert ds.n_rows == 1000
        assert set(np.unique(ds.response)) <= {0.0, 1.0}

    def test_generated_dataset_round_trips_csv(self, tmp_path):
        spec = CopulaSpec.ar1(3, 0.5)
        ds = generate_regression(spec, BENCHMARKS["ishigami"], 1.0, 50, seed=15)
        path = tmp_path / "gen.csv"
        save_csv(ds, path)
        back = load_csv(path, response="y")
        np.testing.assert_array_equal(back.response, ds.response)
        for a, b in zip(back.factors, ds.factors):
            np.testing.assert_array_equal(a, b)


class TestDoubleMcOracle:
    def test_inactive_variable_is_exactly_zero(self):
        spec = CopulaSpec.ar1(10, 0.0)
        got = double_mc_total_sobol(spec, BENCHMARKS["friedman"], 2, 2000, 2, seed=16)
        assert got == pytest.approx(0.0, abs=0.005)

    def test_friedman_inert_variables_near_zero(self):
        spec = CopulaSpec.ar1(10, 0.0)
        for i in (1, 2, 3, 4, 5):
            got = double_mc_total_sobol(spec, BENCHMARKS["friedman"], i, 1000, 2, seed=17 + i)
            assert got < 0.005

    def test_ishigami_matches_closed_form(self):
        spec = CopulaSpec.ar1(3, 0.0)
        truth = ishigami_total_indices()
        for i in range(3):
            got = double_mc_total_sobol(spec, BENCHMARKS["ishigami"], i, 50_000, 2, seed=18 + i)
            assert got == pytest.approx(truth[i], abs=0.015)

    def test_restricted_groundtruth_layout(self):
        truth = restricted_groundtruth("friedman", 20, 0.0, n_outer=5000, seed=19)
        assert truth.shape == (20,)
        active = BENCHMARKS["friedman"].active
        assert np.all(truth[list(active)] > 0.0)
        inert = [i for i in range(20) if i not in active]
        np.testing.assert_array_equal(truth[inert], 0.0)

    def test_oracle_rejects_fewer_than_two_outer_draws(self):
        # one outer draw has no variance of f to normalize by
        spec = CopulaSpec.ar1(10, 0.5)
        for n_outer in (0, 1):
            with pytest.raises(ValueError, match=f"n_outer must be at least 2, got {n_outer}"):
                double_mc_total_sobol(spec, BENCHMARKS["friedman"], 0, n_outer, 2, seed=1)
            with pytest.raises(ValueError, match=f"n_outer must be at least 2, got {n_outer}"):
                restricted_groundtruth("friedman", 10, 0.5, n_outer=n_outer)

    @pytest.mark.parametrize("bad, message", [
        (dict(i=10), r"factor index 10 out of range 0\.\.9"),
        (dict(i=-1), r"factor index -1 out of range 0\.\.9"),
        (dict(i=1.0), "factor index must be an integer, got 1.0"),
        (dict(i=True), "factor index must be an integer, got True"),
        (dict(n_outer=100.5), "n_outer must be an integer, got 100.5"),
        (dict(n_inner=1), "n_inner must be at least 2, got 1"),
        (dict(n_inner=2.0), "n_inner must be an integer, got 2.0"),
        (dict(seed=True), "seed must be an integer, got True"),
        (dict(seed=1.5), "seed must be an integer, got 1.5"),
        (dict(seed="1"), "seed must be an integer, got '1'"),
    ])
    def test_oracle_rejects_bad_arguments(self, bad, message):
        kwargs = dict(i=0, n_outer=100, n_inner=2, seed=1)
        with pytest.raises(ValueError, match=message):
            double_mc_total_sobol(CopulaSpec.ar1(10, 0.5), BENCHMARKS["friedman"], **{**kwargs, **bad})

    def test_constant_function_has_zero_index(self):
        spec = CopulaSpec.ar1(3, 0.5)
        assert double_mc_total_sobol(spec, lambda x: np.full(len(x), 2.0), 1, 100, 2, seed=1) == 0.0

    @pytest.mark.parametrize("bad, message", [
        (dict(name="nope"), "unknown benchmark function 'nope'"),
        (dict(p=10.0), "p must be an integer, got 10.0"),
        (dict(p=9), "friedman needs p >= 10, got 9"),
        (dict(n_outer=1000.7), "n_outer must be an integer, got 1000.7"),
        (dict(seed=1.9), "seed must be an integer, got 1.9"),
        (dict(seed=True), "seed must be an integer, got True"),
    ])
    def test_restricted_groundtruth_rejects_bad_arguments_before_oracle(self, bad, message):
        kwargs = dict(name="friedman", p=10, rho=0.5, n_outer=1000, seed=1)
        _cached_restricted.cache_clear()
        with pytest.raises(ValueError, match=message):
            restricted_groundtruth(**{**kwargs, **bad})
        assert _cached_restricted.cache_info().misses == 0

    def test_restricted_groundtruth_accepts_numpy_integers(self):
        got = restricted_groundtruth("ishigami", np.int64(3), 0.5, n_outer=np.int32(1000), seed=np.uint8(1))
        np.testing.assert_array_equal(got, restricted_groundtruth("ishigami", 3, 0.5, n_outer=1000, seed=1))

    def test_restricted_groundtruth_rejects_rho_outside_unit_interval(self):
        for rho in (-0.5, 1.0):
            with pytest.raises(ValueError, match=r"rho must lie in \[0, 1\)"):
                restricted_groundtruth("ishigami", 3, rho, n_outer=100)

    def test_groundtruth_stability_across_seeds(self):
        # run-to-run spread of the oracle at the reporting sample size
        for name in ("ishigami", "heavy_tailed", "friedman"):
            f = BENCHMARKS[name]
            values = np.array([
                restricted_groundtruth(name, f.min_dim, 0.5, n_outer=100_000, seed=s)[list(f.active)]
                for s in range(10)
            ])
            assert values.std(axis=0, ddof=1).max() < 0.01

    def test_lemma_style_identity_by_two_estimators(self):
        # Y = X * Z with X uniform and Z standard normal: the mean squared
        # deviation from the conditional mean (zero) and the average
        # conditional variance (X^2) are estimated from independent samples
        # and must agree within two standard errors.
        n = 200_000
        spec = CopulaSpec.ar1(1, 0.0)
        x_a = sample_inputs(spec, n, seed=20)[:, 0]
        z = np.random.default_rng(21).standard_normal(n)
        y = x_a * z
        lhs = (y ** 2).mean()
        se_lhs = (y ** 2).std(ddof=1) / np.sqrt(n)
        x_b = sample_inputs(spec, n, seed=22)[:, 0]
        rhs = (x_b ** 2).mean()
        se_rhs = (x_b ** 2).std(ddof=1) / np.sqrt(n)
        assert abs(lhs - rhs) <= 2.0 * np.hypot(se_lhs, se_rhs)
