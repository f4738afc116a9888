"""Seeded closed-loop benchmark of the ``first`` command line.

Run from the root of a source checkout:

    python3 perfbench/run.py --workload cli --seed 1 --seconds 50 --trace 0

One client runs one op at a time. An op is one ``first.cli.main`` argv, from
the input on disk to the parsed stdout JSON; a workload's plan may mix
kinds of op, and each kind is timed on its own. Timed ops run at
``FIRST_THREADS=1`` with one BLAS thread (see ``TIMED_THREADS``). The
workload's inputs are written by fresh setup processes, timed as
``setup_s``. ``--trace 0`` prints the end-to-end metrics. ``--trace 1``
first runs untraced ops at ``FIRST_THREADS`` = the number of usable CPUs,
which gives the replication
pool metrics and the bit-identity check across thread counts; then
untraced and traced ops at 1, and prints the per-layer metrics and the
tracing overhead. The last stdout line is the result JSON; the line
before it records the environment. Run records and spans are written under
``.perfbench/runs``.
"""

import argparse
import collections
import contextlib
import hashlib
import io
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from concurrent.futures import ProcessPoolExecutor
from pathlib import Path

import tracing

HERE = Path(__file__).resolve().parent
# FIRST_THREADS of the timed ops. On a small shared host, the wall time of
# parallel work follows the steal time of the busiest CPU. On a 2-vCPU VM at
# FIRST_THREADS=2, an estimate op's median time moved 2.5x between runs of one
# input, and benchmark-replicated's spread over ten seeds reached 55%. At 1
# the first moved 0.55 to 0.59 s. The CPU count still runs in every traced run.
TIMED_THREADS = 1
# BLAS threads are pinned the same way, before numpy loads: the copula draws
# and the oracle are matrix products, and with a BLAS thread per CPU
# benchmark-replicated's spread over ten seeds was 23%.
SINGLE_THREAD_BLAS = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
SETUP_REPEATS = 5
SETUP_TIMEOUT_S = 120


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "tiny"), default="full",
                        help="input size; 'tiny' is the smoke-test size")
    parser.add_argument("--setup-into", default=None, help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def usable_cpus() -> int:
    return len(os.sched_getaffinity(0))


def steal_seconds() -> float:
    """Time the host took from this machine's CPUs (from /proc/stat)."""
    try:
        with open("/proc/stat", encoding="ascii") as fh:
            fields = fh.readline().split()
        return int(fields[8]) / os.sysconf("SC_CLK_TCK")
    except (OSError, IndexError, ValueError):
        return 0.0


def find_source(root: Path) -> Path:
    src = root / "src"
    if not (src / "first" / "__init__.py").is_file():
        raise SystemExit(f"error: no source tree at {src}/first; run from the root of a checkout")
    return src


def setup_main(args, src: Path) -> int:
    """Setup process: import the package, write the inputs, report the time."""
    start = time.perf_counter()
    sys.path.insert(0, str(src))
    import workloads

    workloads.setup(args.workload, args.size, args.seed, args.setup_into)
    print(json.dumps({"setup_s": time.perf_counter() - start}))
    return 0


def run_setups(args, workdir: Path):
    """Run the setup process several times; return (times, manifest, same)."""
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--size", args.size, "--setup-into", str(workdir)]
    times, manifests = [], []
    for _ in range(SETUP_REPEATS):
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=SETUP_TIMEOUT_S,
                              check=False)
        if proc.returncode != 0:
            raise SystemExit(f"error: setup failed:\n{proc.stderr}")
        times.append(json.loads(proc.stdout.splitlines()[-1])["setup_s"])
        manifests.append(json.loads((workdir / "manifest.json").read_text()))
    return times, manifests[0], all(m == manifests[0] for m in manifests)


def environment(root: Path, src: Path, threads: int) -> dict:
    import numpy
    import scipy

    try:
        lscpu = subprocess.run(["lscpu"], capture_output=True, text=True, timeout=10,
                               check=False).stdout
    except OSError:
        lscpu = ""
    caches = {}
    for line in lscpu.splitlines():
        key, _, value = line.partition(":")
        if "cache" in key.lower():
            caches[key.strip()] = value.strip()
    commit = "unknown (not a git checkout)"
    if (root / ".git").exists():
        proc = subprocess.run(["git", "-C", str(root), "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=10, check=False)
        commit = proc.stdout.strip() or commit
    tree = hashlib.sha256()
    for path in sorted(src.rglob("*.py")):
        tree.update(path.relative_to(src).as_posix().encode() + b"\0" + path.read_bytes())
    return {
        "nproc": usable_cpus(),
        "FIRST_THREADS": threads,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "commit": commit,
        "source_sha256": tree.hexdigest(),
        "caches": caches,
    }


class CheckError(ValueError):
    """An op's output is wrong."""


def digest(payload: dict) -> str:
    """SHA-256 of the result JSON without the input path and run times."""
    canon = {k: v for k, v in payload.items() if k != "data"}
    if "replications" in canon:
        canon["replications"] = [{k: v for k, v in r.items() if k != "runtime_s"}
                                 for r in canon["replications"]]
        canon["aggregates"] = {k: v for k, v in canon["aggregates"].items()
                               if k != "mean_runtime_s"}
    text = json.dumps(canon, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


def _importance(values, p):
    if len(values) != p:
        raise CheckError(f"expected {p} importances, got {len(values)}")
    if not all(math.isfinite(v) and v >= 0.0 for v in values):
        raise CheckError("importance is non-finite or negative")
    return values


def score(entry: dict, payload: dict, ref, true_set, tau_b):
    """Check one op's output; return its results as (tau_b, exact) pairs."""
    command = entry["argv"][0]
    if command == "benchmark":
        truth = payload["truth"]
        p = payload["p"]
        _importance(truth, p)
        if {i for i, v in enumerate(truth) if v > 0} != true_set:
            raise CheckError("oracle truth is not positive exactly on the true factors")
        results = []
        for rep in payload["replications"]:
            importance = _importance(rep["importance"], p)
            if sorted(rep["selected"]) != [i for i, v in enumerate(importance) if v > 0]:
                raise CheckError("selected factors differ from the positive importances")
            tau = tau_b(truth, importance)
            exact = set(rep["selected"]) == true_set
            if tau != rep["tau"] or exact != rep["exact"]:
                raise CheckError("replication tau or exact disagrees with a recomputation")
            results.append((tau, exact))
        if payload["aggregates"]["exact_rate"] != statistics.fmean(e for _, e in results):
            raise CheckError("aggregate exact_rate disagrees with the replications")
        return results
    p = len(payload["factors"])
    if command == "estimate":
        importance = _importance(payload["s_tot"], p)
        if payload["selected"] != [v > 0 for v in importance]:
            raise CheckError("selected flags differ from the positive indices")
        if not math.isclose(payload["total_var"], entry["total_var"], rel_tol=1e-12):
            raise CheckError("total variance differs from the generated response's")
        if payload["signal_var"] != max(payload["total_var"] - payload["noise_var"], 0.0):
            raise CheckError("signal variance is not total minus noise")
        selected = [i for i, v in enumerate(importance) if v > 0]
    else:
        importance = _importance(payload["importance"], p)
        selected = payload["final_active"]
        if selected != [i for i, v in enumerate(importance) if v > 0]:
            raise CheckError("final_active differs from the positive importances")
        if payload["selected_factors"] != [payload["factors"][i] for i in selected]:
            raise CheckError("selected_factors do not name final_active")
    return [(tau_b(ref, importance), set(selected) == true_set)]


class PoolProbe:
    """Times the replication pool and counts its processes.

    Installed as ``first.report.ProcessPoolExecutor``; it adds two clock
    reads per pool and no spans.
    """

    def __init__(self):
        self.pools = []  # (seconds, processes)

    def executor(self):
        probe = self

        class ProbedPool(ProcessPoolExecutor):
            def __enter__(self):
                self._probe_start = time.perf_counter()
                return super().__enter__()

            def __exit__(self, *exc):
                processes = len(self._processes)
                result = super().__exit__(*exc)
                probe.pools.append((time.perf_counter() - self._probe_start, processes))
                return result

        return ProbedPool


class Runner:
    """Runs ops of one workload and keeps a record of each."""

    def __init__(self, manifest, refs):
        import first.cli
        import first.report
        import first.synthetic

        self.entries = manifest["entries"]
        self.refs = refs
        self.main = first.cli.main
        self.tau_b = first.report.kendall_tau_b
        self.report = first.report
        self.oracle = first.synthetic._cached_restricted
        self.records = []
        self.started = 0

    def phase(self, name, seconds, threads, min_ops, tracer=None, probe=None):
        """Run ops round-robin over the plan for ``seconds`` and at least
        ``min_ops`` ops; return this phase's records."""
        os.environ["FIRST_THREADS"] = str(threads)
        self.threads = threads
        original_pool = self.report.ProcessPoolExecutor
        if probe is not None:
            self.report.ProcessPoolExecutor = probe.executor()
        if tracer is not None:
            tracer.install()
        records = []
        try:
            start = time.perf_counter()
            while len(records) < min_ops or time.perf_counter() - start < seconds:
                records.append(self.op(name, len(records) % len(self.entries), tracer, probe))
        finally:
            if tracer is not None:
                tracer.uninstall()
            self.report.ProcessPoolExecutor = original_pool
        self.records.extend(records)
        return records

    def op(self, phase, index, tracer, probe):
        entry = self.entries[index]
        benchmark = entry["argv"][0] == "benchmark"
        if benchmark:
            self.oracle.cache_clear()
        pools_before = len(probe.pools) if probe else 0
        out, err = io.StringIO(), io.StringIO()
        span = tracer.span("cli.op") if tracer else contextlib.nullcontext()
        root = len(tracer.spans) if tracer else None
        self.started += 1
        if tracer:
            tracer.op = self.started
        payload, error = None, None
        start = time.perf_counter()
        try:
            with span, contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = self.main(list(entry["argv"]))
            payload = json.loads(out.getvalue())
        except (Exception, SystemExit) as exc:  # a failing op is counted, not fatal
            error = f"{type(exc).__name__}: {exc}"
        wall = time.perf_counter() - start
        record = {"phase": phase, "entry": index, "kind": entry["kind"], "wall_s": wall,
                  "threads": self.threads}
        if error is None and code != 0:
            error = f"exit code {code}: {err.getvalue().strip()[-200:]}"
        if error is None:
            try:
                record["results"] = score(entry, payload, *self.refs[entry["kind"]], self.tau_b)
                record["digest"] = digest(payload)
                if benchmark:
                    record["rep_runtime_s"] = [r["runtime_s"] for r in payload["replications"]]
                    if self.oracle.cache_info().misses < 1:
                        raise CheckError("the groundtruth oracle did not run")
            except (CheckError, KeyError, TypeError) as exc:
                error = f"{type(exc).__name__}: {exc}"
        if probe is not None:
            record["pools"] = probe.pools[pools_before:]
        if tracer is not None:
            record["profile"] = tracing.op_profile(tracer.spans, root)
            if benchmark and error is None and not record["profile"]["inclusive"].get(
                    "synthetic.groundtruth", 0.0) > 0.0:
                error = "CheckError: no time in the groundtruth oracle"
        record["error"] = error
        return record


def quality(records, entries):
    """Mean tau-b and exact share over the first run of every plan entry."""
    first_seen = {}
    for rec in records:
        if rec["error"] is None:
            first_seen.setdefault(rec["entry"], rec["results"])
    results = [r for i in range(len(entries)) for r in first_seen.get(i, [])]
    if not results:
        return 0.0, 0.0
    return (statistics.fmean(t for t, _ in results),
            statistics.fmean(1.0 if e else 0.0 for _, e in results))


def consistency(records):
    """Problems with repeated ops: one entry must always give one digest,
    and traced ops of one entry must give one set of counters."""
    problems = []
    digests, counters = {}, {}
    for rec in records:
        if rec["error"] is not None:
            continue
        if digests.setdefault(rec["entry"], rec["digest"]) != rec["digest"]:
            problems.append(f"entry {rec['entry']}: digest differs in phase {rec['phase']} "
                            f"at FIRST_THREADS={rec['threads']}")
        if "profile" in rec:
            counts = (rec["profile"]["calls"], rec["profile"]["counts"])
            if counters.setdefault(rec["entry"], counts) != counts:
                problems.append(f"entry {rec['entry']}: counters differ")
    return problems


def by_kind(records):
    """kind -> that kind's records, in the order the kinds first appear."""
    kinds = {}
    for rec in records:
        kinds.setdefault(rec["kind"], []).append(rec)
    return kinds


def end_to_end(records, setup_times):
    # The ops of one kind cost the same, so each kind's median is over all
    # of its ops, spread across the whole run. op_s.p50 is the mean of the
    # kinds' medians; results_per_s is the rate of a round of median ops.
    kinds = by_kind(records).values()
    medians = [statistics.median(r["wall_s"] for r in recs) for recs in kinds]
    results = sum(statistics.median(len(r.get("results", ())) for r in recs) for recs in kinds)
    return {
        "op_s.p50": (statistics.fmean(medians), "s"),
        "results_per_s": (results / sum(medians), "1/s"),
        "setup_s": (statistics.median(setup_times), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }


def paired_overhead(traced, untraced) -> float:
    """Median wall-time difference of a traced op and the untraced op of
    the same plan entry; entries differ in cost, so unpaired medians don't."""
    base = {}
    for r in untraced:
        base.setdefault(r["entry"], r["wall_s"])
    diffs = [r["wall_s"] - base[r["entry"]] for r in traced if r["entry"] in base]
    return statistics.median(diffs) if diffs else 0.0


def per_layer(traced, untraced, pool_records, exact_rate):
    """Per-layer metrics of one round, one traced op of each kind: a time is
    the sum over kinds of its median over that kind's traced ops, a counter
    the sum over kinds of that kind's first traced op, which repeat exactly."""
    kinds = list(by_kind(traced).values())

    def med(fn):
        return sum(statistics.median(fn(r["profile"]) for r in recs) for recs in kinds)

    def inc(name):
        return med(lambda p: p["inclusive"].get(name, 0.0))

    def first_op(key):
        total = collections.Counter()
        for recs in kinds:
            total.update(recs[0]["profile"][key])
        return total

    calls, counts = first_op("calls"), first_op("counts")
    rows = counts.get("neighbors.query.rows", 0)
    metrics = {
        "dataset.load_csv_s": (inc("dataset.load_csv"), "s"),
        "dataset.encode_s": (inc("dataset.encode"), "s"),
        "dataset.cells": (counts.get("dataset.load_csv.cells", 0), "count"),
        "neighbors.build_s": (inc("neighbors.build"), "s"),
        "neighbors.builds": (calls.get("neighbors.build", 0), "count"),
        "neighbors.build_dims": (counts.get("neighbors.build.dims", 0), "count"),
        "neighbors.build_mb": (counts.get("neighbors.build.bytes", 0) / 1e6, "MB"),
        "neighbors.query_s": (inc("neighbors.query"), "s"),
        "neighbors.queries": (calls.get("neighbors.query", 0), "count"),
        "neighbors.rows_queried": (rows, "count"),
        "neighbors.tied_rows": (counts.get("neighbors.query.tied", 0), "count"),
        "neighbors.tied_share": (counts.get("neighbors.query.tied", 0) / rows if rows else 0.0,
                                 "share"),
        "estimators.self_s": (med(lambda p: sum(v for k, v in p["self"].items()
                                                if k.startswith("estimators."))), "s"),
        "estimators.subset_scores_calls": (calls.get("estimators.subset_scores", 0), "count"),
        "selection.forward_s": (inc("selection.forward"), "s"),
        "selection.backward_s": (inc("selection.backward"), "s"),
        "selection.subsets_evaluated": (counts.get("selection.effects", 0), "count"),
        "selection.forward_steps": (calls.get("selection.step", 0), "count"),
        "selection.exact_rate": (exact_rate, "share"),
        "synthetic.generate_s": (inc("synthetic.generate"), "s"),
        "synthetic.groundtruth_s": (inc("synthetic.groundtruth"), "s"),
        "cli.self_s": (med(lambda p: p["self"]["cli.op"]), "s"),
        "trace.overhead_s": (paired_overhead(traced, untraced), "s"),
    }
    pools = [pool for r in pool_records for pool in r.get("pools", ())]
    runtimes = [t for r in pool_records for t in r.get("rep_runtime_s", ())]
    if pools:
        processes = max(n for _, n in pools)
        pool_s = statistics.median(s for s, _ in pools)
        efficiency = sum(runtimes) / sum(s * n for s, n in pools)
        threads = processes * pool_records[0]["threads"]
    else:
        pool_s = efficiency = 0.0
        threads = 0
    metrics.update({
        "report.pool_s": (pool_s, "s"),
        "report.rep_s.p50": (statistics.median(runtimes) if runtimes else 0.0, "s"),
        "report.pool_efficiency": (efficiency, "share"),
        "report.threads": (threads, "count"),
    })
    return metrics


def main(argv=None) -> int:
    args = parse_args(argv)
    root = Path.cwd()
    src = find_source(root)
    if args.setup_into:
        return setup_main(args, src)
    if args.seconds <= 0:
        raise SystemExit("error: --seconds must be positive")
    os.environ.update(SINGLE_THREAD_BLAS)
    sys.path.insert(0, str(src))
    import workloads

    if args.workload not in workloads.SIZES:
        raise SystemExit(f"error: unknown workload {args.workload!r}; "
                         f"choose from {sorted(workloads.SIZES)}")
    threads = TIMED_THREADS
    out_dir = root / ".perfbench"
    stem = f"{args.workload}-{args.size}-s{args.seed}-t{args.trace}-j{threads}"
    workdir = out_dir / "work" / f"{stem}-{os.getpid()}"
    runs_dir = out_dir / "runs"
    runs_dir.mkdir(parents=True, exist_ok=True)
    try:
        setup_times, manifest, same_inputs = run_setups(args, workdir)
        runner = Runner(manifest, workloads.references(args.workload, args.size))
        plan = len(manifest["entries"])
        # The plan starts with one op of each kind, so every phase of at
        # least ``kinds`` ops runs every kind.
        kinds = len({entry["kind"] for entry in manifest["entries"]})
        replicated = args.workload == "benchmark-replicated"
        tracer = None
        steal_start = steal_seconds()
        # One untimed op of each kind first, so lazy set-up inside the
        # libraries is not timed.
        runner.phase("warmup", 0, threads, kinds)
        if args.trace == 0:
            timed = runner.phase("run", args.seconds, threads, plan)
        else:
            # At the CPU count, untraced: the pool metrics of benchmark-replicated
            # and the bit-identity check across thread counts. Replications are
            # traced in-process at FIRST_THREADS=1, where their spans are visible.
            share = args.seconds / (3 if replicated else 2)
            pool_records = runner.phase("cpus", share if replicated else 0, usable_cpus(), kinds,
                                        probe=PoolProbe())
            untraced = runner.phase("untraced", share, threads, kinds)
            tracer = tracing.Tracer()
            traced = runner.phase("traced", share, threads, kinds, tracer=tracer)
        steal = steal_seconds() - steal_start
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    records = runner.records
    failed = sum(1 for r in records if r["error"] is not None)
    problems = consistency(records)
    if not same_inputs:
        problems.append("setup runs wrote different inputs")
    tau, exact_rate = quality(records, manifest["entries"])
    if args.trace == 0:
        metrics = end_to_end(timed, setup_times)
        metrics["tau_b"] = (tau, "tau")
    else:
        metrics = per_layer([r for r in traced if r["error"] is None], untraced,
                            pool_records, exact_rate)
    env = environment(root, src, threads)
    result = {
        "correct": failed == 0 and not problems,
        "attempted": len(records),
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    record = {"args": vars(args), "env": env, "setup_s": setup_times, "manifest": manifest,
              "host_steal_s": steal, "problems": problems, "ops": records, "result": result}
    (runs_dir / f"{stem}.json").write_text(json.dumps(record, indent=1, default=list))
    if tracer is not None:
        tracer.dump(runs_dir / f"{stem}.spans.jsonl")
    for rec in records:
        if rec["error"] is not None:
            print(f"op {rec['phase']}/{rec['entry']} failed: {rec['error']}", file=sys.stderr)
    for problem in problems:
        print(f"inconsistent: {problem}", file=sys.stderr)
    print(json.dumps({"env": env}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
