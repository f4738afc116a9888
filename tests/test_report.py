"""Metric and benchmark-report tests."""

import json
from concurrent.futures import ProcessPoolExecutor

import numpy as np
import pytest
from scipy import stats

from first.report import (
    BenchmarkReport,
    kendall_tau_b,
    run_benchmark,
    selection_metrics,
)
from first.synthetic import _cached_restricted


class TestKendallTau:
    def test_identical_ranking(self):
        assert kendall_tau_b([1, 2, 3], [10, 20, 30]) == pytest.approx(1.0)

    def test_reversed_ranking(self):
        assert kendall_tau_b([1, 2, 3], [3, 2, 1]) == pytest.approx(-1.0)

    def test_hand_counted_pair_signs(self):
        # pairs (1,2): concordant, (1,3): concordant, (2,3): discordant
        assert kendall_tau_b([3, 1, 2], [3, 2, 1]) == pytest.approx(1.0 / 3.0)

    def test_self_agreement_for_distinct_values(self, rng):
        for _ in range(5):
            x = rng.permutation(12).astype(float)
            assert kendall_tau_b(x, x) == pytest.approx(1.0)

    def test_reversal_symmetry(self, rng):
        x = rng.standard_normal(10)
        y = rng.standard_normal(10)
        assert kendall_tau_b(x, -y) == pytest.approx(-kendall_tau_b(x, y))
        assert kendall_tau_b(-x, y) == pytest.approx(-kendall_tau_b(x, y))

    def test_too_short(self):
        with pytest.raises(ValueError):
            kendall_tau_b([1.0], [2.0])

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            kendall_tau_b([1.0, 2.0], [1.0, 2.0, 3.0])

    def test_plain_variant_shrinks_under_ties(self):
        truth = [0.0, 0.0, 0.0, 1.0, 2.0]
        estimate = [0.0, 0.0, 0.0, 1.5, 2.5]
        assert kendall_tau_b(truth, estimate) == pytest.approx(1.0)

    def test_tie_corrected_matches_scipy(self, rng):
        for _ in range(20):
            x = rng.choice([0.0, 0.0, 0.3, 0.7, 1.4], size=12)
            y = rng.choice([0.0, 0.0, 0.1, 0.9], size=12)
            if np.all(x == x[0]) or np.all(y == y[0]):
                continue
            expected = stats.kendalltau(x, y).statistic
            assert kendall_tau_b(x, y) == pytest.approx(expected, abs=1e-12)

    def test_fully_tied_vector_gives_zero(self):
        assert kendall_tau_b([1.0, 1.0, 1.0], [1.0, 2.0, 3.0]) == 0.0


class TestSelectionMetrics:
    def test_exact_match(self):
        m = selection_metrics({0, 3}, {0, 3}, p=5)
        assert (m.exact, m.tpr, m.fpr) == (True, 1.0, 0.0)

    def test_empty_selection(self):
        m = selection_metrics({0, 3}, set(), p=5)
        assert (m.exact, m.tpr, m.fpr) == (False, 0.0, 0.0)

    def test_partial_recovery(self):
        m = selection_metrics({0, 6, 7, 8, 9}, {0, 6, 7}, p=10)
        assert not m.exact
        assert m.tpr == pytest.approx(0.6)
        assert m.fpr == 0.0

    def test_false_positive_rate(self):
        m = selection_metrics({0}, {0, 1, 2}, p=5)
        assert m.fpr == pytest.approx(0.5)

    def test_undefined_fpr_flagged(self):
        m = selection_metrics({0, 1}, {0}, p=2)
        assert m.fpr == 0.0

    def test_empty_true_set_rejected(self):
        with pytest.raises(ValueError):
            selection_metrics(set(), {0}, p=3)

    def test_out_of_range_index_rejected(self):
        for true_set, selected in (({0, 3}, {5}), ({-1}, set())):
            with pytest.raises(ValueError, match=r"factor indices must lie in range\(p\)"):
                selection_metrics(true_set, selected, p=5)

    def test_integer_indices_only(self):
        with pytest.raises(ValueError, match="factor index must be an integer, got 1.5"):
            selection_metrics({0}, {1.5}, p=5)
        assert selection_metrics(np.array([0, 3]), [np.int64(0)], p=5) == selection_metrics({0, 3}, {0}, p=5)

    @pytest.mark.parametrize("p, message", [
        (3.5, "p must be an integer, got 3.5"),  # its 2.5 inert factors would give fpr 0.4 for one pick
        (True, "p must be an integer, got True"),
        ("5", "p must be an integer, got '5'"),
    ])
    def test_integer_p_only(self, p, message):
        with pytest.raises(ValueError, match=message):
            selection_metrics({0}, {0, 1}, p=p)
        assert selection_metrics({0}, {0, 1}, p=np.int64(3)) == selection_metrics({0}, {0, 1}, p=3)


@pytest.fixture(scope="module")
def small_report():
    return run_benchmark("ishigami", p=4, rho=0.0, n=400, reps=3, method="first", seed=99)


class TestRunBenchmark:
    def test_replication_count_and_ranges(self, small_report):
        r = small_report
        assert len(r.replications) == r.reps == 3
        assert 0.0 <= r.exact_rate <= 1.0
        assert 0.0 <= r.mean_tpr <= 1.0
        assert 0.0 <= r.mean_fpr <= 1.0
        assert -1.0 <= r.mean_tau <= 1.0
        assert r.mean_runtime_s > 0.0

    def test_truth_restricted_to_model_variables(self, small_report):
        truth = np.array(small_report.truth)
        assert truth[3] == 0.0
        assert np.all(truth[:3] > 0.0)

    def test_json_round_trip_identity(self, small_report):
        d = small_report.to_dict()
        assert list(d) == ["function", "p", "rho", "n", "reps", "method", "seed", "binary",
                           "noise_sd", "n_inner", "truth", "replications", "aggregates"]
        assert list(d["aggregates"]) == ["mean_tau", "exact_rate", "mean_tpr", "mean_fpr",
                                         "mean_runtime_s"]
        assert list(d["replications"][0]) == ["rep", "seed", "importance", "selected",
                                              "runtime_s", "tau", "exact", "tpr", "fpr"]
        back = BenchmarkReport.from_dict(json.loads(json.dumps(d)))
        assert back == small_report

    def test_worker_count_invariance(self, monkeypatch):
        kwargs = dict(function="ishigami", p=3, rho=0.0, n=300, reps=2,
                      method="first", seed=5)
        monkeypatch.setenv("FIRST_THREADS", "1")
        serial = run_benchmark(**kwargs)
        monkeypatch.setenv("FIRST_THREADS", "2")
        parallel = run_benchmark(**kwargs)
        serial_d, parallel_d = serial.to_dict(), parallel.to_dict()
        for d in (serial_d, parallel_d):
            for rep in d["replications"]:
                rep.pop("runtime_s")
            d["aggregates"].pop("mean_runtime_s")
        assert serial_d == parallel_d

    def test_pool_splits_threads_between_processes(self, monkeypatch):
        initargs = []

        class RecordingPool(ProcessPoolExecutor):
            def __init__(self, *args, **kwargs):
                initargs.append(kwargs["initargs"])
                super().__init__(*args, **kwargs)

        monkeypatch.setattr("first.report.ProcessPoolExecutor", RecordingPool)
        kwargs = dict(function="friedman", p=10, rho=0.5, n=300, reps=2,
                      method="first", seed=9)
        payloads = []
        for threads in ("1", "4"):
            monkeypatch.setenv("FIRST_THREADS", threads)
            d = run_benchmark(**kwargs).to_dict()
            for rep in d["replications"]:
                rep.pop("runtime_s")
            d["aggregates"].pop("mean_runtime_s")
            payloads.append(d)
        assert payloads[0] == payloads[1]
        assert initargs == [(2,)]  # 4 threads over 2 processes; none at 1 thread

    @pytest.mark.parametrize("bad, message", [
        (dict(n_inner=1), "n_inner must be at least 2, got 1"),
        (dict(n=1), "need at least 2 rows, got 1"),
        (dict(n=2, n_inner=3), "need at least 3 rows, got 2"),
        (dict(n=2, binary=True), "need at least 3 rows, got 2"),
        (dict(noise_sd=float("nan")), "noise_sd must be finite and non-negative"),
        (dict(noise_sd=-1.0), "noise_sd must be finite and non-negative"),
        (dict(seed=4.0), "seed must be an integer, got 4.0"),
        (dict(seed=True), "seed must be an integer, got True"),
        (dict(p=10.0), "p must be an integer, got 10.0"),
        (dict(n=200.0), "n must be an integer, got 200.0"),
        (dict(reps=2.0), "reps must be an integer, got 2.0"),
        (dict(reps=True), "reps must be an integer, got True"),
        (dict(noise_sd=True), "noise_sd must be finite and non-negative, got True"),
        (dict(noise_sd="1"), "noise_sd must be finite and non-negative, got '1'"),
        (dict(rho=False), r"rho must lie in \[0, 1\), got False"),
        (dict(rho="0.5"), r"rho must lie in \[0, 1\), got '0.5'"),
        (dict(binary="no"), "binary must be a bool, got 'no'"),
        (dict(binary=0), "binary must be a bool, got 0"),
        (dict(binary=1), "binary must be a bool, got 1"),
        (dict(binary=None), "binary must be a bool, got None"),
    ])
    def test_bad_arguments_rejected_before_oracle(self, bad, message):
        kwargs = dict(function="ishigami", p=3, rho=0.0, n=100, reps=1, method="first", seed=0)
        _cached_restricted.cache_clear()
        with pytest.raises(ValueError, match=message):
            run_benchmark(**{**kwargs, **bad})
        assert _cached_restricted.cache_info().misses == 0

    def test_numpy_seed_matches_python_int(self):
        payloads = []
        for cast in (np.int64, int):
            d = json.loads(json.dumps(run_benchmark("ishigami", p=cast(3), rho=0.0, n=cast(200), reps=cast(2),
                                                    method="first_fast", seed=cast(4)).to_dict()))
            for rep in d["replications"]:
                rep.pop("runtime_s")
            d["aggregates"].pop("mean_runtime_s")
            payloads.append(d)
        assert payloads[0] == payloads[1] and payloads[0]["seed"] == 4

    def test_numpy_floats_match_python_floats(self):
        payloads = []
        for cast in (np.float32, float):
            d = json.loads(json.dumps(run_benchmark("ishigami", p=3, rho=cast(0.5), n=200, reps=2, method="first_fast",
                                                    seed=4, noise_sd=cast(0.5)).to_dict()))
            for rep in d["replications"]:
                rep.pop("runtime_s")
            d["aggregates"].pop("mean_runtime_s")
            payloads.append(d)
        assert payloads[0] == payloads[1] and payloads[0]["rho"] == payloads[0]["noise_sd"] == 0.5

    def test_binary_reports_selection_metrics_only(self):
        r = run_benchmark("ishigami", p=4, rho=0.0, n=300, reps=2, method="first_fast",
                          seed=7, binary=True)
        assert r.truth is None
        assert r.mean_tau is None
        assert all(rep.tau is None for rep in r.replications)

    def test_numpy_bool_binary_round_trips_through_json(self):
        r = run_benchmark("ishigami", p=4, rho=0.0, n=300, reps=1, method="first_fast", seed=7, binary=np.True_)
        back = BenchmarkReport.from_dict(json.loads(json.dumps(r.to_dict())))
        assert back == r and r.binary is True and back.binary is True

    def test_negative_rho_rejected_before_oracle(self, monkeypatch):
        def oracle(*args, **kwargs):
            raise AssertionError("the oracle ran on an invalid rho")

        monkeypatch.setattr("first.report.restricted_groundtruth", oracle)
        with pytest.raises(ValueError, match=r"rho must lie in \[0, 1\)"):
            run_benchmark("friedman", p=10, rho=-0.5, n=200, reps=1, method="first", seed=0)

    def test_argument_validation(self):
        with pytest.raises(ValueError, match="unknown benchmark"):
            run_benchmark("cubic", p=3, rho=0.0, n=100, reps=1, method="first", seed=0)
        with pytest.raises(ValueError, match="method"):
            run_benchmark("ishigami", p=3, rho=0.0, n=100, reps=1, method="backward", seed=0)
        with pytest.raises(ValueError, match="needs p >="):
            run_benchmark("friedman", p=5, rho=0.0, n=100, reps=1, method="first", seed=0)
        with pytest.raises(ValueError, match="reps"):
            run_benchmark("ishigami", p=3, rho=0.0, n=100, reps=0, method="first", seed=0)
