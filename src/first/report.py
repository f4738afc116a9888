"""Benchmark harness: selection metrics, rank correlation, and replicated
synthetic experiments with machine-readable reports.

Replications run in separate processes with seeds derived from the report
seed and the replication number, and are reduced in replication order, so a
report is reproducible bit for bit regardless of the worker count.
"""

import os
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import asdict, dataclass, field, replace

import numpy as np

from .dataset import check_integer, encode
from .estimators import EstimatorConfig, check_rows, derive_seed, worker_count
from .selection import first, first_fast
from .synthetic import (
    BENCHMARKS,
    CopulaSpec,
    benchmark_cell,
    check_noise_sd,
    generate_binary,
    generate_regression,
    restricted_groundtruth,
)

METHODS = ("first", "first_fast")

#: BenchmarkReport fields serialized under the report's "aggregates" key.
AGGREGATES = ("mean_tau", "exact_rate", "mean_tpr", "mean_fpr", "mean_runtime_s")


def kendall_tau_b(truth, estimate) -> float:
    """Tie-corrected rank correlation (the usual Kendall tau-b).

    Matches what a tie-aware correlation routine reports: the concordance
    sum is normalized by the geometric mean of the untied pair counts of
    the two vectors. Returns 0 when either vector is entirely tied.
    """
    truth = np.asarray(truth, dtype=np.float64)
    estimate = np.asarray(estimate, dtype=np.float64)
    if truth.shape != estimate.shape or truth.ndim != 1:
        raise ValueError("truth and estimate must be 1-D vectors of equal length")
    if len(truth) < 2:
        raise ValueError("need at least two factors for a rank correlation")
    iu = np.triu_indices(len(truth), k=1)
    t = np.sign(truth[:, None] - truth[None, :])[iu]
    e = np.sign(estimate[:, None] - estimate[None, :])[iu]
    n1 = int((t != 0).sum())
    n2 = int((e != 0).sum())
    if n1 == 0 or n2 == 0:
        return 0.0
    return float((t * e).sum() / np.sqrt(n1 * n2))


@dataclass(frozen=True)
class SelectionMetrics:
    """Exact-match flag plus true/false positive rates of a selected set."""

    exact: bool
    tpr: float
    fpr: float


def selection_metrics(true_set, selected, p: int) -> SelectionMetrics:
    """Compare a selected factor set against the true model variables.

    The false positive rate is taken over the ``p - |true_set|`` inert
    factors; when there are none it is reported as 0.
    """
    p = check_integer("p", p, 1)
    true_set = {check_integer("factor index", i) for i in true_set}
    selected = {check_integer("factor index", i) for i in selected}
    if not true_set:
        raise ValueError("true_set must be non-empty")
    if any(i < 0 or i >= p for i in true_set | selected):
        raise ValueError("factor indices must lie in range(p)")
    tpr = len(selected & true_set) / len(true_set)
    inert = p - len(true_set)
    fpr = len(selected - true_set) / inert if inert else 0.0
    return SelectionMetrics(exact=selected == true_set, tpr=tpr, fpr=fpr)


@dataclass(frozen=True)
class Replication:
    """Outcome of one benchmark replication."""

    rep: int
    seed: int
    importance: list
    selected: list
    runtime_s: float
    tau: float | None
    exact: bool
    tpr: float
    fpr: float


@dataclass(frozen=True)
class BenchmarkReport:
    """Aggregated results of repeated selection runs on a benchmark."""

    function: str
    p: int
    rho: float
    n: int
    reps: int
    method: str
    seed: int
    binary: bool
    noise_sd: float
    n_inner: int | None
    truth: list | None
    replications: list = field(default_factory=list)
    mean_tau: float | None = None
    exact_rate: float = 0.0
    mean_tpr: float = 0.0
    mean_fpr: float = 0.0
    mean_runtime_s: float = 0.0

    def to_dict(self) -> dict:
        d = asdict(self)
        d["aggregates"] = {name: d.pop(name) for name in AGGREGATES}
        return d

    @classmethod
    def from_dict(cls, d: dict) -> "BenchmarkReport":
        kwargs = {k: v for k, v in d.items() if k != "aggregates"}
        kwargs["replications"] = [Replication(**r) for r in d["replications"]]
        return cls(**kwargs, **d["aggregates"])


def _run_replication(cell: BenchmarkReport, rep: int) -> Replication:
    """Generate, select and score replication ``rep`` of a cell, given as its report's header (process-pool entry)."""
    rep_seed = derive_seed(cell.seed, rep)
    f = BENCHMARKS[cell.function]
    spec = CopulaSpec.ar1(cell.p, cell.rho)
    if cell.binary:
        ds = generate_binary(spec, f, cell.n, rep_seed)
    else:
        ds = generate_regression(spec, f, cell.noise_sd, cell.n, rep_seed)
    matrix = encode(ds)
    cfg = EstimatorConfig(n_inner=cell.n_inner, seed=rep_seed)
    select = first if cell.method == "first" else first_fast
    start = time.perf_counter()
    trace = select(matrix, ds.response, cfg)
    runtime = time.perf_counter() - start
    importance, selected = [float(v) for v in trace.importance], list(trace.final_active)
    metrics = selection_metrics(f.active, selected, cell.p)
    return Replication(rep=rep, seed=rep_seed, importance=importance, selected=selected, runtime_s=runtime,
                       tau=None if cell.truth is None else kendall_tau_b(cell.truth, importance),
                       exact=metrics.exact, tpr=metrics.tpr, fpr=metrics.fpr)


def _set_threads(threads: int) -> None:
    """Pool initializer: the query threads of one replication process."""
    os.environ["FIRST_THREADS"] = str(threads)


def run_benchmark(function: str, p: int, rho: float, n: int, reps: int, method: str,
                  seed: int, binary: bool = False, noise_sd: float = 1.0,
                  n_inner: int | None = None) -> BenchmarkReport:
    """Run ``reps`` generate/select/score replications of one benchmark cell.

    For regression cells the groundtruth importance (restricted to the true
    model variables) is computed once with the double Monte Carlo oracle
    and every replication is scored against it with tie-corrected rank
    correlation. Binary cells have no importance groundtruth, so only the
    selection metrics are reported.

    Arguments are checked before the oracle runs. With P replication
    processes, each process queries with ``max(1, worker_count() // P)``
    threads, so the pool uses no more threads than ``FIRST_THREADS``.
    """
    _, p, rho = benchmark_cell(function, p, rho)
    n, reps = check_integer("n", n), check_integer("reps", reps, 1)
    if not isinstance(binary, (bool, np.bool_)):
        raise ValueError(f"binary must be a bool, got {binary!r}")
    binary = bool(binary)
    if method not in METHODS:
        raise ValueError(f"method must be one of {METHODS}, got {method!r}")
    cfg = EstimatorConfig(n_inner=n_inner, seed=seed)  # rejects n_inner < 2 and a non-integer seed
    check_rows(n, cfg.inner_count(binary))
    noise_sd = check_noise_sd(noise_sd)
    truth = None if binary else [float(v) for v in restricted_groundtruth(function, p, rho, seed=cfg.seed)]
    header = BenchmarkReport(function=function, p=p, rho=rho, n=n, reps=reps, method=method, seed=cfg.seed,
                             binary=binary, noise_sd=noise_sd, n_inner=cfg.n_inner, truth=truth)

    threads = worker_count()
    workers = min(threads, reps)
    if workers > 1:
        with ProcessPoolExecutor(max_workers=workers, initializer=_set_threads,
                                 initargs=(max(1, threads // workers),)) as pool:
            replications = list(pool.map(_run_replication, [header] * reps, range(reps)))
    else:
        replications = [_run_replication(header, rep) for rep in range(reps)]
    return replace(
        header,
        replications=replications,
        mean_tau=None if truth is None else float(np.mean([r.tau for r in replications])),
        exact_rate=float(np.mean([r.exact for r in replications])),
        mean_tpr=float(np.mean([r.tpr for r in replications])),
        mean_fpr=float(np.mean([r.fpr for r in replications])),
        mean_runtime_s=float(np.mean([r.runtime_s for r in replications])),
    )
