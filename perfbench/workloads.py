"""Seeded workloads: inputs written to disk, the CLI argv of each op, and
the reference each op's output is scored against.

A workload's ``setup`` runs in a fresh process and writes every input file
plus ``manifest.json``; the benchmark process then runs the plan's argv
lists round-robin through ``first.cli.main``. Every input is a function of
the seed and the size alone.
"""

import hashlib
import json
from pathlib import Path

import numpy as np

from first import CATEGORICAL, CONTINUOUS, BENCHMARKS, CopulaSpec, Dataset
from first import generate_regression, restricted_groundtruth, save_csv

FRIEDMAN = BENCHMARKS["friedman"]
RHO = 0.5

# Why each workload exists is recorded in BENCHMARK.json. The ``cli``
# workload interleaves three kinds of command, one op of each per round.
# The ops of one kind share one input shape, so they cost the same.
SIZES = {
    "cli": {"full": {"rounds": 6, "p": 20, "tall_n": 10_000, "n_outer": 500,
                     "wide_n": 1000, "categorical_n": 600},
            "tiny": {"rounds": 2, "p": 10, "tall_n": 400, "n_outer": 100,
                     "wide_n": 200, "categorical_n": 200}},
    "benchmark-replicated": {"full": {"p": 50, "n": 1000, "reps": 2, "runs": 3},
                             "tiny": {"p": 10, "n": 200, "reps": 2, "runs": 2}},
}

CATEGORICAL_NAMES = ("c1", "c2", "c3", "x")
CATEGORICAL_ACTIVE = (0, 1, 3)
LEVELS = np.array(["a", "b", "c"], dtype=object)


def _seeds(seed, count):
    """Distinct per-entry seeds derived from the workload seed."""
    state = np.random.SeedSequence(seed).generate_state(count, np.uint32)
    return [int(s) for s in state]


def _friedman_csv(path, p, n, seed):
    data = generate_regression(CopulaSpec.ar1(p, RHO), FRIEDMAN, 1.0, n, seed)
    save_csv(data, path)
    return data


def _categorical_csv(path, n, seed):
    """y = c1 + (2*c2 + 1) * x + N(0, 1); c3 is inert, x lies on a 0.1 grid."""
    rng = np.random.default_rng(seed)
    codes = rng.integers(0, 3, size=(n, 3))
    x = rng.integers(0, 11, size=n) / 10
    y = codes[:, 0] + (2 * codes[:, 1] + 1) * x + rng.standard_normal(n)
    data = Dataset(
        factor_names=CATEGORICAL_NAMES,
        factor_kinds=(CATEGORICAL,) * 3 + (CONTINUOUS,),
        factors=tuple(LEVELS[codes[:, j]] for j in range(3)) + (x,),
        response=y,
    )
    save_csv(data, path)


def categorical_truth():
    """Exact total Sobol' indices of the categorical model, by enumeration.

    Factors are independent and uniform on their levels, so the expected
    conditional variance is an average over the full level grid.
    """
    c = np.arange(3.0)
    x = np.arange(11) / 10
    f = c[:, None, None] + (2 * c[None, :, None] + 1) * x[None, None, :]  # axes c1, c2, x
    total = f.var()
    t1, t2, tx = (f.var(axis=a).mean() / total for a in range(3))
    return np.array([t1, t2, 0.0, tx])


def setup(name, size, seed, workdir):
    """Write the workload's inputs into ``workdir``; return the manifest."""
    cfg = SIZES[name][size]
    workdir = Path(workdir)
    workdir.mkdir(parents=True, exist_ok=True)
    entries = []
    if name == "cli":
        tall_seed, *seeds = _seeds(seed, 1 + 2 * cfg["rounds"])
        tall = workdir / "tall.csv"
        _friedman_csv(tall, cfg["p"], cfg["tall_n"], tall_seed)
        for j in range(cfg["rounds"]):
            outer_seed, data_seed = seeds[2 * j:2 * j + 2]
            wide, cat = workdir / f"wide{j}.csv", workdir / f"cat{j}.csv"
            data = _friedman_csv(wide, cfg["p"], cfg["wide_n"], data_seed)
            _categorical_csv(cat, cfg["categorical_n"], data_seed)
            entries += [
                {"kind": "select-tall",
                 "argv": ["select", "--data", str(tall), "--response", "y",
                          "--no", str(cfg["n_outer"]), "--seed", str(outer_seed)]},
                {"kind": "estimate-wide",
                 "argv": ["estimate", "--data", str(wide), "--response", "y"],
                 "total_var": float(np.var(data.response, ddof=1))},
                {"kind": "select-categorical",
                 "argv": ["select", "--data", str(cat), "--response", "y",
                          "--categorical", "c1,c2,c3"]},
            ]
    elif name == "benchmark-replicated":
        for s in _seeds(seed, cfg["runs"]):
            entries.append({"kind": "benchmark",
                            "argv": ["benchmark", "--function", "friedman", "--p", str(cfg["p"]),
                                     "--rho", str(RHO), "--n", str(cfg["n"]),
                                     "--reps", str(cfg["reps"]), "--seed", str(s)]})
    else:
        raise ValueError(f"unknown workload {name!r}")
    files = {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
             for p in sorted(workdir.glob("*.csv"))}
    manifest = {"workload": name, "size": size, "seed": seed, "entries": entries, "files": files}
    (workdir / "manifest.json").write_text(json.dumps(manifest, indent=1))
    return manifest


def references(name, size):
    """kind -> (truth vector, true factor set) the op outputs are scored against.

    ``benchmark`` reports its own oracle truth per op, so its reference
    vector is None and only the true set is fixed here.
    """
    active = set(FRIEDMAN.active)
    if name == "benchmark-replicated":
        return {"benchmark": (None, active)}
    friedman = restricted_groundtruth("friedman", SIZES[name][size]["p"], RHO)
    return {"select-tall": (friedman, active), "estimate-wide": (friedman, active),
            "select-categorical": (categorical_truth(), set(CATEGORICAL_ACTIVE))}
