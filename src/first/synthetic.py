"""Synthetic data generation and the double Monte Carlo groundtruth oracle.

Correlated inputs are drawn from a Gaussian copula: sample a correlated
standard-normal vector, push each coordinate through the normal CDF, and
map the resulting uniforms through the requested marginal quantile
function. Conditional draws of one coordinate given the rest reduce to a
univariate conditional Gaussian, which is what lets the nested Monte Carlo
oracle compute exact total Sobol' indices for evaluable test functions.
"""

from dataclasses import dataclass
from functools import lru_cache
from typing import Callable

import numpy as np
from scipy.special import ndtr

from .dataset import CONTINUOUS, Dataset, check_integer
from .estimators import derive_seed, seeded_rng

UNIFORM = "uniform"
NORMAL = "normal"


def _check_real(name: str, value, high: float, rule: str) -> float:
    """``value`` as a ``float`` if it is a real number in [0, ``high``), else ``ValueError``."""
    real = isinstance(value, (int, float, np.integer, np.floating)) and not isinstance(value, bool)
    if not (real and 0.0 <= value < high):
        raise ValueError(f"{name} must {rule}, got {value!r}")
    return float(value)


def check_rho(rho: float) -> float:
    """``rho`` as a ``float`` if it is a valid AR(1) copula correlation, in [0, 1)."""
    return _check_real("rho", rho, 1.0, "lie in [0, 1)")


def check_noise_sd(noise_sd: float) -> float:
    """``noise_sd`` as a ``float`` if it is finite and non-negative."""
    return _check_real("noise_sd", noise_sd, np.inf, "be finite and non-negative")


@dataclass(frozen=True, eq=False)
class CopulaSpec:
    """Gaussian copula with per-dimension marginals.

    ``correlation`` must be a symmetric positive-definite matrix with unit
    diagonal. Marginals are either ``"uniform"`` (standard uniform) or
    ``"normal"`` (standard normal, in which case the coordinate is the
    latent Gaussian itself).
    """

    correlation: np.ndarray
    marginals: tuple[str, ...]

    def __post_init__(self):
        sigma = np.asarray(self.correlation, dtype=np.float64)
        if sigma.ndim != 2 or sigma.shape[0] != sigma.shape[1]:
            raise ValueError("correlation must be a square matrix")
        if len(self.marginals) != sigma.shape[0]:
            raise ValueError("need one marginal per dimension")
        for m in self.marginals:
            if m not in (UNIFORM, NORMAL):
                raise ValueError(f"unknown marginal {m!r}")
        if not np.allclose(sigma, sigma.T, atol=1e-12):
            raise ValueError("correlation must be symmetric")
        if not np.allclose(np.diag(sigma), 1.0, atol=1e-12):
            raise ValueError("correlation must have unit diagonal")
        try:
            np.linalg.cholesky(sigma)
        except np.linalg.LinAlgError:
            raise ValueError("correlation must be positive definite") from None
        object.__setattr__(self, "correlation", sigma)
        sigma.flags.writeable = False

    @property
    def dim(self) -> int:
        return self.correlation.shape[0]

    @classmethod
    def ar1(cls, dim: int, rho: float) -> "CopulaSpec":
        """Banded correlation ``rho ** |i - j|`` with uniform marginals."""
        idx = np.arange(check_integer("dim", dim, 1))
        sigma = check_rho(rho) ** np.abs(idx[:, None] - idx[None, :])
        return cls(correlation=np.asarray(sigma, dtype=np.float64), marginals=(UNIFORM,) * len(idx))


def _draw(spec: CopulaSpec, n: int, seed: int):
    """The stream of ``seed`` after drawing ``n`` rows, with their latent normals ``z`` and inputs ``x``."""
    rng = seeded_rng(seed)
    z = rng.standard_normal((check_integer("n", n, 1), spec.dim)) @ np.linalg.cholesky(spec.correlation).T
    x = ndtr(z)
    normal = [j for j, marginal in enumerate(spec.marginals) if marginal == NORMAL]
    x[:, normal] = z[:, normal]
    return rng, z, x


def sample_inputs(spec: CopulaSpec, n: int, seed: int) -> np.ndarray:
    """Draw ``n`` i.i.d. rows from the copula."""
    return _draw(spec, n, seed)[2]


def _conditional_coefficients(spec: CopulaSpec, i: int):
    """Weights and residual sd of the latent conditional Z_i | Z_rest."""
    rest = [j for j in range(spec.dim) if j != i]
    sigma = spec.correlation
    cross = sigma[np.ix_([i], rest)].ravel()
    weights = np.linalg.solve(sigma[np.ix_(rest, rest)], cross)
    resid = float(sigma[i, i] - cross @ weights)
    return rest, weights, np.sqrt(max(resid, 0.0))


@dataclass(frozen=True)
class BenchmarkFunction:
    """A named test function with its true model variables (0-based)."""

    name: str
    min_dim: int
    active: tuple[int, ...]
    fn: Callable[[np.ndarray], np.ndarray]


def _ishigami(x: np.ndarray) -> np.ndarray:
    a = 2.0 * np.pi * x[:, 0] - np.pi
    b = 2.0 * np.pi * x[:, 1] - np.pi
    c = 2.0 * np.pi * x[:, 2] - np.pi
    return np.sin(a) + 7.0 * np.sin(b) ** 2 + 0.1 * c ** 4 * np.sin(a)


def _heavy_tailed(x: np.ndarray) -> np.ndarray:
    # Denominators stay positive on the unit cube: cos(x1) >= cos(1),
    # sin(x3) >= 0, and 1.1 - x6 >= 0.1.
    num = 2.0 * np.log(x[:, 0] ** 2 + x[:, 1] ** 4)
    den = np.cos(x[:, 0]) + np.sin(x[:, 2])
    return num / den + x[:, 1] ** 2 * np.exp(x[:, 2]) / np.sqrt(1.1 - x[:, 5])


def _friedman(x: np.ndarray) -> np.ndarray:
    return (10.0 * np.sin(np.pi * x[:, 0] * x[:, 6])
            + 20.0 * (x[:, 7] - 0.5) ** 2
            + 10.0 * x[:, 8] + 5.0 * x[:, 9]
            - 20.0 * x[:, 8] * x[:, 9] - 10.0)


BENCHMARKS = {
    "ishigami": BenchmarkFunction("ishigami", min_dim=3, active=(0, 1, 2), fn=_ishigami),
    "heavy_tailed": BenchmarkFunction("heavy_tailed", min_dim=6, active=(0, 1, 2, 5), fn=_heavy_tailed),
    "friedman": BenchmarkFunction("friedman", min_dim=10, active=(0, 6, 7, 8, 9), fn=_friedman),
}


def evaluate(f: BenchmarkFunction, x):
    """Evaluate a benchmark function at one point or a batch of rows."""
    x = np.asarray(x, dtype=np.float64)
    single = x.ndim == 1
    if single:
        x = x[None, :]
    if x.shape[1] < f.min_dim:
        raise ValueError(f"{f.name} needs at least {f.min_dim} input dimensions, got {x.shape[1]}")
    out = f.fn(x)
    return float(out[0]) if single else out


def _call(f, x: np.ndarray) -> np.ndarray:
    if isinstance(f, BenchmarkFunction):
        return np.asarray(evaluate(f, x), dtype=np.float64)
    return np.asarray(f(x), dtype=np.float64)


def _as_dataset(x: np.ndarray, y: np.ndarray) -> Dataset:
    p = x.shape[1]
    return Dataset(
        factor_names=tuple(f"x{j + 1}" for j in range(p)),
        factor_kinds=(CONTINUOUS,) * p,
        factors=tuple(np.ascontiguousarray(x[:, j]) for j in range(p)),
        response=y,
        response_name="y",
    )


def generate_regression(spec: CopulaSpec, f, noise_sd: float, n: int, seed: int) -> Dataset:
    """Sample inputs from the copula and add centered Gaussian noise to f."""
    noise_sd = check_noise_sd(noise_sd)
    rng, _, x = _draw(spec, n, seed)
    y = _call(f, x)
    if noise_sd:
        y = y + noise_sd * rng.standard_normal(n)
    return _as_dataset(x, y)


def generate_binary(spec: CopulaSpec, f, n: int, seed: int) -> Dataset:
    """Binary response: Bernoulli with probit success probability of f."""
    rng, _, x = _draw(spec, n, seed)
    prob = ndtr(_call(f, x))
    y = (rng.uniform(size=n) < prob).astype(np.float64)
    return _as_dataset(x, y)


def double_mc_total_sobol(spec: CopulaSpec, f, i: int, n_outer: int, n_inner: int, seed: int) -> float:
    """Groundtruth total Sobol' index of X_i for an evaluable function.

    Nested Monte Carlo: the outer loop draws joint inputs, the inner loop
    redraws coordinate i from its conditional distribution given the rest
    and takes the sample variance of f across the redraws. The average
    conditional variance is normalized by the Monte Carlo variance of f
    over the outer sample. The inner evaluations are reduced along axis 0
    of an (n_inner, n_outer) array: for n_inner from 2 to 7 that equals, bit
    for bit, reducing the rows of an (n_outer, n_inner) array, which numpy
    sums pairwise from 8 on, so the last bit may differ there.
    """
    if not 0 <= check_integer("factor index", i) < spec.dim:
        raise ValueError(f"factor index {i} out of range 0..{spec.dim - 1}")
    n_outer, n_inner = check_integer("n_outer", n_outer, 2), check_integer("n_inner", n_inner, 2)
    rng, z, x = _draw(spec, n_outer, seed)
    f_outer = _call(f, x)
    var_f = float(np.var(f_outer, ddof=1))
    if var_f == 0.0:
        return 0.0

    rest, weights, resid_sd = _conditional_coefficients(spec, i)
    cond_mean = z[:, rest] @ weights
    del z
    inner = np.empty((n_inner, n_outer))
    # the outer draws are not read again: redraw coordinate i in place
    for j in range(n_inner):
        z_i = cond_mean + resid_sd * rng.standard_normal(n_outer)
        x[:, i] = ndtr(z_i) if spec.marginals[i] == UNIFORM else z_i
        inner[j] = _call(f, x)
    centered = inner - inner.mean(axis=0)
    effect = float(((centered ** 2).sum(axis=0) / (n_inner - 1)).mean())
    return effect / var_f


def benchmark_cell(name: str, p, rho: float) -> tuple[BenchmarkFunction, int, float]:
    """Check a benchmark cell; return its function, ``p`` as an ``int`` and ``rho`` as a ``float``."""
    if name not in BENCHMARKS:
        raise ValueError(f"unknown benchmark function {name!r}")
    f, p = BENCHMARKS[name], check_integer("p", p)
    if p < f.min_dim:
        raise ValueError(f"{name} needs p >= {f.min_dim}, got {p}")
    return f, p, check_rho(rho)


def restricted_groundtruth(name: str, p: int, rho: float, n_outer: int = 100_000, seed: int = 0) -> np.ndarray:
    """Groundtruth importance vector for a benchmark, inert factors at zero.

    Importance is measured relative to the true model variables only: the
    copula is marginalized onto the active coordinates (a Gaussian copula
    restricted to a submatrix stays a Gaussian copula) and the oracle runs
    on that restricted problem.
    """
    f, p, rho = benchmark_cell(name, p, rho)
    truth = np.zeros(p)
    truth[list(f.active)] = _cached_restricted(name, rho, check_integer("n_outer", n_outer, 2),
                                               check_integer("seed", seed))
    return truth


@lru_cache(maxsize=64)
def _cached_restricted(name: str, rho: float, n_outer: int, seed: int) -> tuple:
    f = BENCHMARKS[name]
    active = list(f.active)
    spec = CopulaSpec(correlation=CopulaSpec.ar1(f.min_dim, rho).correlation[np.ix_(active, active)],
                      marginals=(UNIFORM,) * len(active))

    # every call of one oracle passes n_outer rows, so one buffer serves
    # them all: the inert columns stay 0.5, and column-major order gives f
    # contiguous columns
    full = np.full((n_outer, f.min_dim), 0.5, order="F")

    def embedded(x_sub: np.ndarray) -> np.ndarray:
        full[:, active] = x_sub
        return evaluate(f, full)

    return tuple(double_mc_total_sobol(spec, embedded, pos, n_outer, n_inner=2, seed=derive_seed(seed, pos))
                 for pos in range(len(active)))
