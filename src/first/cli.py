"""Command-line interface.

Three subcommands: ``estimate`` (noise-adjusted total Sobol' indices for a
CSV), ``select`` (forward selection + backward elimination, optionally the
pruned fast variant), and ``benchmark`` (replicated synthetic experiments
with groundtruth scoring). JSON goes to stdout, human-readable diagnostics
to stderr.

Exit codes: 0 success, 1 degenerate-but-valid result (all importances
zero), 2 input error.
"""

import argparse
import json
import sys

from .dataset import encode, load_csv
from .estimators import EstimatorConfig, nanne
from .report import METHODS, run_benchmark
from .selection import first, first_fast
from .synthetic import BENCHMARKS

EXIT_OK = 0
EXIT_DEGENERATE = 1
EXIT_INPUT = 2


def _parse_n_outer(text: str):
    if text == "all":
        return "all"
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"--no must be a positive integer or 'all', got {text!r}")
    if value < 1:
        raise argparse.ArgumentTypeError("--no must be positive")
    return value


def _csv_list(text: str):
    return tuple(part.strip() for part in text.split(",") if part.strip())


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="first",
        description="Model-free factor importance and selection via nearest-neighbor total Sobol' indices.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_data_options(p):
        p.add_argument("--data", required=True, help="input CSV file (header row required)")
        p.add_argument("--response", required=True, help="name of the response column")
        p.add_argument("--categorical", type=_csv_list, default=(),
                       help="comma-separated categorical column names")
        p.add_argument("--ni", type=int, default=None,
                       help="inner-loop neighbor count (default: 2, or 3 for a 0/1 response)")
        p.add_argument("--no", type=_parse_n_outer, default="all", dest="n_outer",
                       help="outer-loop sample count or 'all' (default all)")
        p.add_argument("--seed", type=int, default=0, help="seed for outer-loop subsampling")
        p.add_argument("--no-standardize", action="store_true",
                       help="compute distances on raw columns instead of z-scored ones")
        p.add_argument("--drop-missing", action="store_true",
                       help="drop rows with missing cells instead of rejecting the file")

    p_est = sub.add_parser("estimate", help="estimate total Sobol' indices for every factor")
    add_data_options(p_est)

    p_sel = sub.add_parser("select", help="factor selection plus importance of the survivors")
    add_data_options(p_sel)
    p_sel.add_argument("--fast", action="store_true",
                       help="prune unpromising candidates for a faster, rougher search")

    p_bm = sub.add_parser("benchmark", help="replicated synthetic benchmark with groundtruth scoring")
    p_bm.add_argument("--function", required=True, choices=tuple(BENCHMARKS))
    p_bm.add_argument("--p", required=True, type=int, help="number of input factors")
    p_bm.add_argument("--rho", type=float, default=0.0, help="input correlation level in [0, 1)")
    p_bm.add_argument("--n", type=int, default=1000, help="sample size per replication")
    p_bm.add_argument("--reps", type=int, default=100, help="number of replications")
    p_bm.add_argument("--method", choices=tuple(m.replace("_", "-") for m in METHODS), default="first")
    p_bm.add_argument("--seed", type=int, default=0)
    p_bm.add_argument("--binary", action="store_true",
                      help="binary response via the probit link (selection metrics only)")
    p_bm.add_argument("--noise-sd", type=float, default=1.0, help="regression noise level")
    p_bm.add_argument("--ni", type=int, default=None, help="inner-loop neighbor count override")
    return parser


def _load_matrix(args):
    dataset = load_csv(
        args.data,
        response=args.response,
        categoricals=args.categorical,
        on_missing="drop_rows" if args.drop_missing else "reject",
    )
    matrix = encode(dataset, standardize=not args.no_standardize)
    for col in matrix.constant_columns:
        print(f"note: encoded column {col} is constant", file=sys.stderr)
    cfg = EstimatorConfig(n_inner=args.ni, n_outer=args.n_outer, seed=args.seed)
    return dataset, matrix, cfg


def _emit(payload: dict) -> None:
    json.dump(payload, sys.stdout, indent=2)
    sys.stdout.write("\n")


def _table(rows, header) -> str:
    widths = [max(len(str(r[c])) for r in ([header] + rows)) for c in range(len(header))]
    lines = ["  ".join(str(cell).ljust(w) for cell, w in zip(row, widths))
             for row in [header] + rows]
    return "\n".join(lines)


def cmd_estimate(args) -> int:
    dataset, matrix, cfg = _load_matrix(args)
    result = nanne(matrix, dataset.response, cfg)
    payload = {
        "command": "estimate",
        "data": args.data,
        "response": dataset.response_name,
        "factors": list(dataset.factor_names),
        **result.to_dict(),
    }
    notes = []
    if result.signal_var == 0.0:
        notes.append("signal variance zero: response variance is attributed entirely to noise")
    payload["notes"] = notes
    _emit(payload)
    rows = [(name, f"{s:.6f}", "yes" if sel else "no")
            for name, s, sel in zip(dataset.factor_names, result.s_tot, result.selected)]
    print(_table(rows, ("factor", "s_tot", "positive")), file=sys.stderr)
    for note in notes:
        print(f"note: {note}", file=sys.stderr)
    return EXIT_DEGENERATE if result.signal_var == 0.0 else EXIT_OK


def cmd_select(args) -> int:
    dataset, matrix, cfg = _load_matrix(args)
    select = first_fast if args.fast else first
    trace = select(matrix, dataset.response, cfg)
    payload = {
        "command": "select",
        "data": args.data,
        "response": dataset.response_name,
        "factors": list(dataset.factor_names),
        **trace.to_dict(),
    }
    payload["selected_factors"] = [dataset.factor_names[i] for i in trace.final_active]
    _emit(payload)
    rows = [(name, f"{v:.6f}", "yes" if i in trace.final_active else "no")
            for i, (name, v) in enumerate(zip(dataset.factor_names, trace.importance))]
    print(_table(rows, ("factor", "importance", "selected")), file=sys.stderr)
    if not trace.final_active:
        print("note: no factor improved the explainable variance; empty selection", file=sys.stderr)
        return EXIT_DEGENERATE
    return EXIT_OK


def cmd_benchmark(args) -> int:
    report = run_benchmark(
        function=args.function, p=args.p, rho=args.rho, n=args.n, reps=args.reps,
        method=args.method.replace("-", "_"), seed=args.seed,
        binary=args.binary, noise_sd=args.noise_sd, n_inner=args.ni,
    )
    payload = report.to_dict()
    _emit(payload)
    rows = [(k, "-" if v is None else f"{v:.4f}") for k, v in payload["aggregates"].items()]
    print(_table(rows, ("metric", "value")), file=sys.stderr)
    return EXIT_OK


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    handlers = {"estimate": cmd_estimate, "select": cmd_select, "benchmark": cmd_benchmark}
    try:
        return handlers[args.command](args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT


def entrypoint() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entrypoint()
