"""Command-line interface tests (direct invocation plus one subprocess run)."""

import json
import subprocess
import sys

import numpy as np
import pytest

from first.cli import EXIT_DEGENERATE, EXIT_INPUT, EXIT_OK, main
from first.dataset import CATEGORICAL, CONTINUOUS, Dataset, save_csv
from first.synthetic import BENCHMARKS, CopulaSpec, generate_regression


@pytest.fixture
def ishigami_csv(tmp_path):
    spec = CopulaSpec.ar1(6, 0.0)
    ds = generate_regression(spec, BENCHMARKS["ishigami"], 1.0, 1000, seed=31)
    path = tmp_path / "ishigami.csv"
    save_csv(ds, path)
    return path


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    payload = json.loads(out.out) if out.out.strip() else None
    return code, payload, out.err


class TestEstimate:
    def test_end_to_end_json(self, capsys, ishigami_csv):
        code, payload, err = run_cli(
            capsys, "estimate", "--data", str(ishigami_csv), "--response", "y",
            "--ni", "2", "--seed", "1")
        assert code == EXIT_OK
        assert payload["factors"] == [f"x{j}" for j in range(1, 7)]
        assert len(payload["s_tot"]) == 6
        assert payload["n_inner"] == 2
        assert "factor" in err

    def test_constant_response_reports_degenerate(self, capsys, tmp_path):
        path = tmp_path / "const.csv"
        path.write_text("x1,x2,y\n" + "".join(f"{v},{v*2},5.0\n" for v in range(20)))
        code, payload, err = run_cli(capsys, "estimate", "--data", str(path), "--response", "y")
        assert code == EXIT_DEGENERATE
        assert payload["s_tot"] == [0.0, 0.0]
        assert any("signal variance zero" in n for n in payload["notes"])

    def test_missing_file_is_input_error(self, capsys, tmp_path):
        code, payload, err = run_cli(
            capsys, "estimate", "--data", str(tmp_path / "nope.csv"), "--response", "y")
        assert code == EXIT_INPUT
        assert payload is None
        assert "error:" in err

    def test_missing_response_is_input_error(self, capsys, ishigami_csv):
        code, _, err = run_cli(
            capsys, "estimate", "--data", str(ishigami_csv), "--response", "target")
        assert code == EXIT_INPUT
        assert "response column not found" in err

    def test_subsample_and_raw_distance_flags(self, capsys, ishigami_csv):
        code, payload, _ = run_cli(
            capsys, "estimate", "--data", str(ishigami_csv), "--response", "y",
            "--no", "400", "--seed", "6", "--no-standardize")
        assert code == EXIT_OK
        assert len(payload["s_tot"]) == 6
        code2, payload2, _ = run_cli(
            capsys, "estimate", "--data", str(ishigami_csv), "--response", "y",
            "--no", "401", "--seed", "6", "--no-standardize")
        assert payload2["s_tot"] != payload["s_tot"]  # different subsample

    def test_oversized_subsample_is_input_error(self, capsys, ishigami_csv):
        code, _, err = run_cli(
            capsys, "estimate", "--data", str(ishigami_csv), "--response", "y",
            "--no", "5000")
        assert code == EXIT_INPUT
        assert "exceeds" in err

    def test_abalone_shaped_table_with_categorical(self, capsys, tmp_path):
        rng = np.random.default_rng(8)
        n = 300
        sex = rng.choice(["m", "f", "i"], size=n)
        cont = rng.uniform(0.05, 1.5, size=(n, 7))
        y = cont[:, 4] + 0.5 * cont[:, 6] + 0.1 * rng.standard_normal(n)
        ds = Dataset(
            factor_names=("sex", "length", "diameter", "height", "whole_weight",
                          "shucked_weight", "viscera_weight", "shell_weight"),
            factor_kinds=(CATEGORICAL,) + (CONTINUOUS,) * 7,
            factors=(np.asarray(sex, dtype=object),) + tuple(cont[:, j] for j in range(7)),
            response=y,
            response_name="age",
        )
        path = tmp_path / "abalone_like.csv"
        save_csv(ds, path)
        code, payload, _ = run_cli(
            capsys, "estimate", "--data", str(path), "--response", "age",
            "--categorical", "sex", "--seed", "3")
        assert code == EXIT_OK
        assert len(payload["s_tot"]) == 8


class TestSelect:
    def test_recovers_model_variables(self, capsys, ishigami_csv):
        code, payload, _ = run_cli(
            capsys, "select", "--data", str(ishigami_csv), "--response", "y", "--seed", "2")
        assert code == EXIT_OK
        assert payload["selected_factors"] == ["x1", "x2", "x3"]
        imp = payload["importance"]
        assert all(imp[i] > 0 for i in range(3)) and all(v == 0 for v in imp[3:])

    def test_fast_single_factor_matches_full(self, capsys, tmp_path):
        rng = np.random.default_rng(9)
        path = tmp_path / "one.csv"
        x = rng.uniform(size=500)
        y = x + 0.2 * rng.standard_normal(500)
        path.write_text("x1,y\n" + "".join(f"{float(a)!r},{float(b)!r}\n" for a, b in zip(x, y)))
        _, full, _ = run_cli(capsys, "select", "--data", str(path), "--response", "y")
        _, fast, _ = run_cli(capsys, "select", "--data", str(path), "--response", "y", "--fast")
        assert full["importance"] == fast["importance"]
        assert full["final_active"] == fast["final_active"] == [0]

    def test_constant_response_empty_selection(self, capsys, tmp_path):
        path = tmp_path / "const.csv"
        path.write_text("x1,y\n" + "".join(f"{v}.0,1.0\n" for v in range(30)))
        code, payload, err = run_cli(capsys, "select", "--data", str(path), "--response", "y")
        assert code == EXIT_DEGENERATE
        assert payload["final_active"] == []
        assert "empty selection" in err


class TestBenchmark:
    def test_small_benchmark_report(self, capsys):
        code, payload, err = run_cli(
            capsys, "benchmark", "--function", "ishigami", "--p", "4", "--rho", "0.0",
            "--n", "300", "--reps", "2", "--method", "first-fast", "--seed", "11")
        assert code == EXIT_OK
        assert payload["reps"] == 2
        assert len(payload["replications"]) == 2
        assert payload["aggregates"]["mean_runtime_s"] > 0
        assert "mean_tau" in err

    def test_binary_flag(self, capsys):
        code, payload, _ = run_cli(
            capsys, "benchmark", "--function", "ishigami", "--p", "3", "--n", "300",
            "--reps", "2", "--method", "first", "--seed", "13", "--binary")
        assert code == EXIT_OK
        assert payload["binary"] is True
        assert payload["truth"] is None
        assert payload["aggregates"]["mean_tau"] is None

    def test_zero_reps_is_input_error(self, capsys):
        code, payload, err = run_cli(
            capsys, "benchmark", "--function", "ishigami", "--p", "3", "--reps", "0")
        assert code == EXIT_INPUT
        assert payload is None
        assert "reps" in err

    def test_negative_rho_is_input_error(self, capsys):
        code, payload, err = run_cli(
            capsys, "benchmark", "--function", "friedman", "--p", "10", "--rho", "-0.5")
        assert code == EXIT_INPUT
        assert payload is None
        assert "rho must lie in [0, 1)" in err

    @pytest.mark.parametrize("argv, message", [
        (("--ni", "1"), "n_inner must be at least 2"),
        (("--n", "1"), "need at least 2 rows"),
        (("--n", "2", "--ni", "3"), "need at least 3 rows"),
        (("--noise-sd", "nan"), "noise_sd must be finite"),
        (("--noise-sd", "-1"), "noise_sd must be finite"),
    ])
    def test_bad_size_or_noise_is_input_error(self, capsys, argv, message):
        code, payload, err = run_cli(
            capsys, "benchmark", "--function", "ishigami", "--p", "3", "--reps", "1", *argv)
        assert code == EXIT_INPUT
        assert payload is None
        assert message in err

    def test_bad_function_rejected_by_argparse(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["benchmark", "--function", "nope", "--p", "3"])
        assert exc.value.code == 2


def test_module_subprocess_entrypoint(tmp_path):
    spec = CopulaSpec.ar1(3, 0.0)
    ds = generate_regression(spec, BENCHMARKS["ishigami"], 1.0, 200, seed=12)
    path = tmp_path / "sub.csv"
    save_csv(ds, path)
    proc = subprocess.run(
        [sys.executable, "-m", "first.cli", "estimate", "--data", str(path),
         "--response", "y", "--seed", "1"],
        capture_output=True, text=True, timeout=120)
    assert proc.returncode == EXIT_OK
    payload = json.loads(proc.stdout)
    assert len(payload["s_tot"]) == 3
