"""Acceptance suite: every release gate runs here at its stated tolerance.

Each test prints one line on success (run with ``pytest -s`` to stream
them); a failed assertion is the corresponding FAIL line. The statistical
gates are seeded, so the whole suite is reproducible bit for bit.
"""

import json
import time

import numpy as np
import pytest

from first.dataset import encode
from first.estimators import EstimatorConfig, conditional_variance_effect, nanne, total_variance
from first.neighbors import SortedOrder, build_index, within_kth
from first.report import BenchmarkReport, run_benchmark
from first.selection import first
from first.synthetic import (
    BENCHMARKS,
    CopulaSpec,
    double_mc_total_sobol,
    generate_regression,
    sample_inputs,
)
from tests.conftest import brute_within_kth, encoded, force_backend
from tests.test_estimators import ishigami_total_indices

REPS = 100
N = 1000


def _pass(criterion: int, message: str) -> None:
    print(f"[acceptance] criterion {criterion:02d} PASS - {message}")


@pytest.fixture(scope="module")
def ishigami_oracle():
    """Groundtruth total indices for the rescaled sine-quartic function,
    computed with the nested Monte Carlo oracle at the reporting size."""
    spec = CopulaSpec.ar1(3, 0.0)
    values = np.array([
        double_mc_total_sobol(spec, BENCHMARKS["ishigami"], i, 100_000, 2, seed=400 + i)
        for i in range(3)
    ])
    # guard the oracle itself against the closed-form ANOVA values
    np.testing.assert_allclose(values, ishigami_total_indices(), atol=0.01)
    return values


@pytest.fixture(scope="module")
def friedman_first_rho0():
    return run_benchmark("friedman", p=50, rho=0.0, n=N, reps=REPS, method="first", seed=2024)


def test_criterion_01_double_mc_oracle_linear_gaussian():
    start = time.perf_counter()
    full = CopulaSpec(
        correlation=np.array([[1.0, 0.0, 0.0], [0.0, 1.0, 0.9], [0.0, 0.9, 1.0]]),
        marginals=("normal",) * 3,
    )
    f = lambda x: x[:, 0] + x[:, 1]
    psi1 = double_mc_total_sobol(full, f, 0, 100_000, 2, seed=101)
    psi2 = double_mc_total_sobol(full, f, 1, 100_000, 2, seed=102)
    restricted = CopulaSpec(correlation=np.eye(2), marginals=("normal",) * 2)
    r1 = double_mc_total_sobol(restricted, f, 0, 100_000, 2, seed=103)
    r2 = double_mc_total_sobol(restricted, f, 1, 100_000, 2, seed=104)
    elapsed = time.perf_counter() - start
    assert psi1 == pytest.approx(0.500, abs=0.010)
    assert psi2 == pytest.approx(0.095, abs=0.010)
    assert r1 == pytest.approx(0.500, abs=0.010)
    assert r2 == pytest.approx(0.500, abs=0.010)
    assert elapsed < 30.0
    _pass(1, f"linear-Gaussian oracle psi=({psi1:.3f},{psi2:.3f}), "
             f"restricted=({r1:.3f},{r2:.3f}), {elapsed:.1f}s")


def test_criterion_02_noise_adjustment_accuracy(ishigami_oracle):
    spec = CopulaSpec.ar1(3, 0.0)
    adjusted_err, clean_nn3 = [], []
    for seed in range(20):
        ds = generate_regression(spec, BENCHMARKS["ishigami"], 1.0, 10_000, seed=500 + seed)
        matrix = encode(ds)
        res = nanne(matrix, ds.response, EstimatorConfig(n_inner=2, seed=seed))
        adjusted_err.append(np.abs(res.s_tot - ishigami_oracle))
        # clean-data nearest-neighbor estimator, no noise adjustment
        total = total_variance(ds.response)
        cfg3 = EstimatorConfig(n_inner=3, seed=seed)
        nn3 = np.array([
            conditional_variance_effect(matrix, ds.response, [j for j in range(3) if j != i], cfg3) / total
            for i in range(3)
        ])
        clean_nn3.append(nn3)
    med_err = np.median(adjusted_err, axis=0)
    med_nn3 = np.median(clean_nn3, axis=0)
    assert np.all(med_err <= 0.05), med_err
    assert np.all(med_nn3 > ishigami_oracle), (med_nn3, ishigami_oracle)
    _pass(2, f"noise-adjusted median errors {np.round(med_err, 3)}; "
             f"unadjusted estimator overestimates every index")


@pytest.mark.parametrize("p", [6, 50])
@pytest.mark.parametrize("rho", [0.0, 0.5, 0.9])
def test_criterion_03_ishigami_exact_selection(p, rho):
    report = run_benchmark("ishigami", p=p, rho=rho, n=N, reps=REPS, method="first",
                           seed=3000 + p + int(10 * rho))
    assert report.exact_rate >= 0.95, report.exact_rate
    _pass(3, f"ishigami p={p} rho={rho}: exact rate {report.exact_rate:.2f}")


def test_criterion_04_friedman_ranking(friedman_first_rho0):
    r0 = friedman_first_rho0
    assert r0.mean_tau >= 0.95, r0.mean_tau
    assert r0.exact_rate >= 0.90, r0.exact_rate
    r9 = run_benchmark("friedman", p=50, rho=0.9, n=N, reps=REPS, method="first", seed=2025)
    assert r9.exact_rate >= 0.45, r9.exact_rate
    _pass(4, f"friedman p=50: rho=0 tau {r0.mean_tau:.3f} exact {r0.exact_rate:.2f}; "
             f"rho=0.9 exact {r9.exact_rate:.2f}")


def test_criterion_05_pruned_variant_tradeoff(friedman_first_rho0):
    fast = run_benchmark("friedman", p=50, rho=0.0, n=N, reps=REPS, method="first_fast", seed=2024)
    assert 0.80 <= fast.mean_tau <= 0.95, fast.mean_tau
    assert 0.70 <= fast.mean_tpr <= 0.90, fast.mean_tpr
    assert fast.mean_fpr <= 0.02, fast.mean_fpr
    assert fast.mean_runtime_s < friedman_first_rho0.mean_runtime_s
    _pass(5, f"pruned variant: tau {fast.mean_tau:.3f}, tpr {fast.mean_tpr:.2f}, "
             f"fpr {fast.mean_fpr:.3f}, runtime {fast.mean_runtime_s:.2f}s vs "
             f"{friedman_first_rho0.mean_runtime_s:.2f}s")


@pytest.mark.parametrize("rho", [0.0, 0.5])
def test_criterion_06_binary_classification(rho):
    report = run_benchmark("ishigami", p=6, rho=rho, n=N, reps=REPS, method="first",
                           seed=6000 + int(10 * rho), binary=True)
    assert report.n_inner is None  # auto-resolved to 3 from the 0/1 response
    assert report.mean_fpr <= 0.05, report.mean_fpr
    assert report.mean_tpr >= 0.80, report.mean_tpr
    _pass(6, f"binary ishigami rho={rho}: tpr {report.mean_tpr:.2f}, fpr {report.mean_fpr:.3f}")


def test_criterion_07_scaling_single_replication():
    spec = CopulaSpec.ar1(100, 0.0)
    ds = generate_regression(spec, BENCHMARKS["friedman"], 1.0, N, seed=7000)
    matrix = encode(ds)
    start = time.perf_counter()
    trace = first(matrix, ds.response, EstimatorConfig(n_inner=2, seed=7000))
    elapsed = time.perf_counter() - start
    assert elapsed < 60.0
    assert trace.final_active  # found signal while we were at it
    _pass(7, f"p=100 replication in {elapsed:.2f}s")


# Labels of the backends that criteria 8 and 10 run on, as force_backend names them.
BACKEND_LABELS = {"tree": "k-d tree", "dense": "dense", "few_rows": "dense by the few-rows rule"}


def _criterion_08(monkeypatch, backend):
    force_backend(monkeypatch, backend)
    rng = np.random.default_rng(8000)
    sorted_rows = 0
    for instance in range(1000):
        n = int(rng.integers(2, 501))
        q = int(rng.integers(1, 5))
        base = rng.uniform(size=(n, q))
        # duplicate a random slice of rows to force exact distance ties
        dup = rng.integers(0, n, size=max(1, n // 3))
        base[dup[: len(dup) // 2]] = base[dup[len(dup) // 2: 2 * (len(dup) // 2)]]
        if rng.uniform() < 0.3:
            base = np.round(base, 1)  # coarse grid: heavy tie regime
        m, _ = encoded(base, np.zeros(n), standardize=False)
        index = build_index(m, range(q), 4)  # answers at most four rows, one per k
        assert (index.tree is None) == (backend != "tree")
        for k in (1, 2, 3, 5):
            if k > n:
                continue
            row = int(rng.integers(n))
            assert within_kth(index, row, k) == brute_within_kth(index.points, row, k)
            if q == 1:
                # forward selection's step 0 settles one-column factors from sorted order
                settled, ids = SortedOrder(np.arange(n)).settle(m, 0, k)
                for r, got in zip(np.flatnonzero(settled), ids):
                    assert list(got) == sorted(brute_within_kth(index.points, r, k)), (instance, k, r)
                sorted_rows += int(settled.sum())
    _pass(8, f"within-kth sets match brute force on 1000 random instances, k in {{1,2,3,5}}, "
             f"and {sorted_rows} rows settled from sorted order ({BACKEND_LABELS[backend]})")


def test_criterion_08_neighbor_oracle_equivalence(monkeypatch):
    _criterion_08(monkeypatch, "tree")


def test_criterion_08_dense_backend(monkeypatch):
    _criterion_08(monkeypatch, "dense")


def test_criterion_08_few_rows_dense(monkeypatch):
    _criterion_08(monkeypatch, "few_rows")


def test_criterion_09_affine_invariance():
    rng = np.random.default_rng(9000)
    checked = 0
    for _ in range(50):
        n = int(rng.integers(50, 150))
        p = int(rng.integers(1, 5))
        x = rng.uniform(size=(n, p))
        y = x @ rng.uniform(0.5, 2.0, size=p) + x[:, 0] ** 2 + 0.4 * rng.standard_normal(n)
        m, _ = encoded(x, y)
        base = nanne(m, y, EstimatorConfig(n_inner=2, seed=1))
        for a in (-3.0, 0.5, 10.0):
            for b in (-1.0, 7.0):
                res = nanne(m, a * y + b, EstimatorConfig(n_inner=2, seed=1))
                np.testing.assert_allclose(res.s_tot, base.s_tot, rtol=1e-10, atol=1e-12)
                checked += 1
    _pass(9, f"importance invariant under {checked} affine response maps")


def _criterion_10(monkeypatch, backend):
    force_backend(monkeypatch, backend)
    rng = np.random.default_rng(10_000)
    x = rng.uniform(size=(500, 5))
    y = np.sin(6 * x[:, 0]) + x[:, 1] * x[:, 2] + 0.3 * rng.standard_normal(500)
    m, _ = encoded(x, y)
    # every effect's index, built with its row count, is on the backend named
    assert (build_index(m, range(5), 300).tree is None) == (backend != "tree")
    cfg = EstimatorConfig(n_inner=2, n_outer=300, seed=42)
    importance, traces = [], []
    for workers in ("1", "4", "8"):
        monkeypatch.setenv("FIRST_THREADS", workers)
        importance.append(nanne(m, y, cfg))
        traces.append(first(m, y, cfg))
    for other in importance[1:]:
        np.testing.assert_array_equal(importance[0].s_tot, other.s_tot)
        assert importance[0].noise_var == other.noise_var
        assert importance[0].signal_var == other.signal_var
    for other in traces[1:]:
        assert traces[0].steps == other.steps
        assert traces[0].final_active == other.final_active
        np.testing.assert_array_equal(traces[0].importance, other.importance)
    _pass(10, f"bit-identical results across worker counts 1, 4, 8 ({BACKEND_LABELS[backend]})")


def test_criterion_10_worker_count_determinism(monkeypatch):
    _criterion_10(monkeypatch, "tree")


def test_criterion_10_dense_backend(monkeypatch):
    _criterion_10(monkeypatch, "dense")


def test_criterion_10_few_rows_dense(monkeypatch):
    _criterion_10(monkeypatch, "few_rows")


@pytest.mark.filterwarnings("ignore:total Sobol' index above 1")
def test_criterion_11_clipping_and_branch_invariants():
    rng = np.random.default_rng(11_000)
    # constant response: the zero-signal branch must zero everything
    xc = rng.uniform(size=(60, 3))
    mc, _ = encoded(xc, np.zeros(60))
    const = nanne(mc, np.full(60, 2.5), EstimatorConfig(n_inner=2, seed=0))
    assert const.signal_var == 0.0
    np.testing.assert_array_equal(const.s_tot, 0.0)
    # random regressions: nonnegativity and selected <=> positive importance
    for seed in range(5):
        r = np.random.default_rng(seed)
        x = r.uniform(size=(300, 4))
        y = x[:, 0] + r.standard_normal(300)
        m, _ = encoded(x, y)
        res = nanne(m, y, EstimatorConfig(n_inner=2, seed=seed))
        assert min(res.noise_var, res.signal_var, res.total_var) >= 0.0
        assert (res.s_tot >= 0.0).all()
        trace = first(m, y, EstimatorConfig(n_inner=2, seed=seed))
        for i in range(4):
            assert (trace.importance[i] > 0.0) == (i in trace.final_active)
    _pass(11, "zero-signal branch, nonnegativity, and selection/importance consistency hold")


def test_criterion_12_conditional_variance_identity():
    # Y = X * Z: mean squared deviation from the conditional mean (zero)
    # and the average conditional variance (X^2), estimated from
    # independent Monte Carlo samples, agree within two standard errors.
    n = 200_000
    spec = CopulaSpec.ar1(1, 0.0)
    x1 = sample_inputs(spec, n, seed=1200)[:, 0]
    z = np.random.default_rng(1201).standard_normal(n)
    y = x1 * z
    lhs, se_lhs = (y ** 2).mean(), (y ** 2).std(ddof=1) / np.sqrt(n)
    x2 = sample_inputs(spec, n, seed=1202)[:, 0]
    rhs, se_rhs = (x2 ** 2).mean(), (x2 ** 2).std(ddof=1) / np.sqrt(n)
    gap = abs(lhs - rhs)
    bound = 2.0 * float(np.hypot(se_lhs, se_rhs))
    assert gap <= bound, (gap, bound)
    _pass(12, f"independent estimates {lhs:.4f} vs {rhs:.4f} within 2 SE ({bound:.4f})")


def test_reports_round_trip_through_json(friedman_first_rho0):
    back = BenchmarkReport.from_dict(json.loads(json.dumps(friedman_first_rho0.to_dict())))
    assert back == friedman_first_rho0
