"""Variance-based importance estimators computed directly from data.

The central quantity is the conditional-variance effect of a factor subset
u: the average, over outer Monte Carlo points, of the sample variance of
the response over each point's within-kth nearest-neighbor set in the
u-subspace. Combining such effects for the full factor set (a noise
variance estimate) and for each leave-one-out subset yields noise-adjusted
total Sobol' indices without fitting any model.
"""

import operator
import os
import warnings
from dataclasses import dataclass

import numpy as np

from .dataset import EncodedMatrix, check_integer
from .neighbors import (
    build_index,
    query_within_batch,
    set_variances,
    shared_lists,
    tied_variances,
)

#: Inner-loop neighbor counts used when none is requested explicitly.
DEFAULT_N_INNER_REGRESSION = 2
DEFAULT_N_INNER_BINARY = 3

_SEED_MASK = (1 << 64) - 1


@dataclass(frozen=True)
class EstimatorConfig:
    """Monte Carlo configuration shared by all estimators.

    ``n_inner`` is the inner-loop neighbor count; ``None`` selects 2 for a
    regression response and 3 for a binary (0/1) response. ``n_outer`` is
    either ``"all"`` (every row is an outer point, the default) or the
    size of a subsample drawn without replacement with the given seed.
    Both counts and ``seed`` must be integers; a float or a bool raises
    ``ValueError``, and a numpy integer is stored as ``int``.
    """

    n_inner: int | None = None
    n_outer: int | str = "all"
    seed: int = 0

    def __post_init__(self):
        _set_integer(self, "seed")
        if self.n_inner is not None:
            _set_integer(self, "n_inner", 2)
        if isinstance(self.n_outer, str):
            if self.n_outer != "all":
                raise ValueError(f"n_outer must be a positive integer or 'all', got {self.n_outer!r}")
        else:
            _set_integer(self, "n_outer", 1)

    def resolve_n_inner(self, y: np.ndarray) -> int:
        """Effective inner neighbor count for the given response."""
        return self.inner_count(bool(np.isin(y, (0.0, 1.0)).all()))

    def inner_count(self, binary: bool) -> int:
        """``n_inner`` if set, else 3 for a binary (0/1) response and 2 otherwise."""
        if self.n_inner is not None:
            return self.n_inner
        return DEFAULT_N_INNER_BINARY if binary else DEFAULT_N_INNER_REGRESSION


def _set_integer(cfg: EstimatorConfig, name: str, least: int | None = None) -> None:
    """Check an integer field; store a numpy integer as ``int``."""
    object.__setattr__(cfg, name, check_integer(name, getattr(cfg, name), least))


def check_rows(n: int, k: int) -> None:
    """Reject a sample too small for ``k`` inner neighbors and a variance."""
    if n < max(k, 2):
        raise ValueError(f"need at least {max(k, 2)} rows, got {n}")


def worker_count() -> int:
    """Number of worker threads/processes to use.

    Controlled by the FIRST_THREADS environment variable; defaults to the
    machine's CPU count. Results are invariant to this value.
    """
    raw = os.environ.get("FIRST_THREADS", "").strip()
    if raw:
        n = int(raw) if raw.isdecimal() else 0
        if n < 1:
            raise ValueError(f"FIRST_THREADS must be a positive integer, got {raw!r}")
        return n
    return os.cpu_count() or 1


def derive_seed(seed: int, *key: int) -> int:
    """64-bit seed derived from a base seed and an integer key path.

    Any integer base seed, negative or numpy, is masked to 64 bits. Used
    for selection steps, benchmark replications and oracle factors.
    """
    ss = np.random.SeedSequence(entropy=operator.index(seed) & _SEED_MASK, spawn_key=key)
    return int(ss.generate_state(1, np.uint64)[0])


def seeded_rng(seed: int) -> np.random.Generator:
    """Generator of an integer ``seed`` taken modulo 2**64; every seeded draw in the package starts here."""
    return np.random.default_rng(check_integer("seed", seed) & _SEED_MASK)


@dataclass(frozen=True, eq=False)
class ImportanceResult:
    """Per-factor total Sobol' index estimates with variance diagnostics.

    ``signal_var`` is the part of the response variance attributed to the
    inputs (total minus estimated noise, clipped at zero); when it is zero
    every index is zero by definition. Indices are clipped below at zero but
    not above at one; values above one are reported with a warning.
    """

    s_tot: np.ndarray
    noise_var: float
    signal_var: float
    total_var: float
    selected: np.ndarray
    n_inner: int

    def __post_init__(self):
        self.s_tot.flags.writeable = False
        self.selected.flags.writeable = False

    def to_dict(self) -> dict:
        return {
            "s_tot": [float(v) for v in self.s_tot],
            "noise_var": self.noise_var,
            "signal_var": self.signal_var,
            "total_var": self.total_var,
            "selected": [bool(v) for v in self.selected],
            "n_inner": self.n_inner,
        }


def total_variance(y) -> float:
    """Unbiased sample variance of the response (N-1 divisor).

    Exactly zero for a constant response, so that the zero-signal branch of
    the noise-adjusted estimator is taken reliably rather than hinging on
    round-off residue.
    """
    y = np.asarray(y, dtype=np.float64)
    if y.size < 2:
        raise ValueError("need at least two observations for a variance")
    if y.min() == y.max():
        return 0.0
    return float(np.var(y, ddof=1))


def outer_rows(cfg: EstimatorConfig, n: int, step: int | None = None) -> np.ndarray:
    """Outer-loop row indices: all rows, or a seeded subsample in sorted order.

    Forward-selection step ``step`` draws its own subsample, from
    ``derive_seed(cfg.seed, step)``; all rows ignore the step.
    """
    if cfg.n_outer == "all":
        return np.arange(n, dtype=np.intp)
    if cfg.n_outer > n:
        raise ValueError(f"n_outer={cfg.n_outer} exceeds the number of rows ({n})")
    rng = seeded_rng(cfg.seed if step is None else derive_seed(cfg.seed, step))
    picks = rng.choice(n, size=cfg.n_outer, replace=False)
    return np.sort(picks.astype(np.intp))


@dataclass(frozen=True, eq=False)
class EffectContext:
    """Validated inputs shared by every effect evaluation of one call.

    ``y`` is the float64 response, ``k`` the resolved inner neighbor count,
    ``rows`` the outer-loop rows and ``total`` the response variance. A
    subsampled forward-selection step replaces only ``rows``.
    """

    matrix: EncodedMatrix
    y: np.ndarray
    k: int
    rows: np.ndarray
    workers: int
    total: float


def prepare(matrix, y, cfg: EstimatorConfig) -> EffectContext:
    """Check the inputs, resolve ``k`` and draw the outer rows, once per call."""
    y = np.asarray(y, dtype=np.float64)
    n = matrix.n_rows
    if y.shape != (n,):
        raise ValueError(f"response must have one value per row ({n}), got shape {y.shape}")
    if not np.isfinite(y).all():
        raise ValueError("response contains non-finite values")
    k = cfg.resolve_n_inner(y)
    check_rows(n, k)
    return EffectContext(matrix=matrix, y=y, k=k, rows=outer_rows(cfg, n),
                         workers=worker_count(), total=total_variance(y))


def _subspace_effect(ctx: EffectContext, factors, settled=None) -> float:
    """Mean within-kth neighbor variance of y over the context's outer rows.

    ``factors`` defines the conditioning subspace. An empty subset is the
    degenerate limit in which every row ties at distance zero, so each
    neighbor set is the whole sample and the effect equals the total
    variance. A constant response has zero effect in every subspace.
    ``settled`` is ``(mask, ids)`` from :meth:`NeighborLists.settle`: the
    outer rows whose k ids a forward step's lists already gave. Only the
    other rows are queried, on an index built only when there are any.
    """
    if not factors:
        return ctx.total
    if ctx.total == 0.0:
        return 0.0
    n, k = len(ctx.rows), ctx.k
    ids, tied = np.empty((n, k), dtype=np.intp), np.zeros(n, dtype=bool)
    todo = slice(None)
    if settled is not None:
        todo = ~settled[0]
        ids[settled[0]] = settled[1]
    rows = ctx.rows[todo]
    if len(rows):
        index = build_index(ctx.matrix, factors)
        ids[todo], tied[todo], kth = query_within_batch(index, rows, k, workers=ctx.workers)
    variances = set_variances(np.repeat(np.arange(n), k), ids.ravel(), ctx.y, n)
    if tied.any():
        variances[tied] = tied_variances(index, ctx.rows[tied], kth, k, ctx.y, ctx.workers)
    return float(variances.mean())


def step_lists(ctx: EffectContext, active, candidates):
    """Neighbor lists in ``active`` shared by a forward step's candidates.

    Builds the index of ``active`` and returns :func:`shared_lists` of the
    outer rows, or None for an empty ``active`` or a constant response.
    """
    if not active or ctx.total == 0.0:
        return None
    return shared_lists(build_index(ctx.matrix, active), ctx.matrix, ctx.rows, candidates, ctx.k, ctx.workers)


def conditional_variance_effect(matrix, y, conditioning_factors, cfg: EstimatorConfig) -> float:
    """Average conditional variance of y given the factors in the subset.

    With the full factor set this estimates the noise variance; with a
    leave-one-out set it estimates that factor's (noise-inflated) total
    effect; with a candidate selection set it is the unexplained-variance
    term of the explainable-variance criterion.
    """
    return _subspace_effect(prepare(matrix, y, cfg), matrix.factor_subset(conditioning_factors))


def explainable_variance(matrix, y, selected_factors, cfg: EstimatorConfig) -> float:
    """Variance of y explainable by the selected factors (not clipped).

    Defined as the total variance minus the conditional-variance effect of
    the selected set; zero for an empty selection. Forward selection
    compares these raw values, so negative estimates are preserved.
    """
    ctx = prepare(matrix, y, cfg)
    factors = list(selected_factors)
    if not factors:
        return 0.0
    return ctx.total - _subspace_effect(ctx, matrix.factor_subset(factors))


def subset_scores(ctx: EffectContext, factors):
    """Noise-adjusted total Sobol' indices treating ``factors`` as the full set.

    ``factors`` is a non-empty sorted list. Returns ``(scores, noise_var,
    signal_var)`` where ``scores`` maps each factor to its clipped index.
    Estimating on a factor subset recomputes the noise variance in the
    restricted subspace, which is what backward elimination relies on.
    """
    noise = _subspace_effect(ctx, factors)
    signal = max(ctx.total - noise, 0.0)
    if signal > 0.0:
        scores = {}
        for i in factors:
            rest = [j for j in factors if j != i]
            scores[i] = max(_subspace_effect(ctx, rest) - noise, 0.0) / signal
    else:
        scores = {i: 0.0 for i in factors}
    return scores, noise, signal


def nanne(matrix, y, cfg: EstimatorConfig | None = None) -> ImportanceResult:
    """Noise-adjusted nearest-neighbor total Sobol' indices for all factors.

    The noise variance is estimated from neighbor sets in the full factor
    space and subtracted from both the per-factor effects and the total
    variance; all clipped quantities are nonnegative and a zero signal
    variance forces every index to zero.
    """
    cfg = cfg or EstimatorConfig()
    ctx = prepare(matrix, y, cfg)
    p = matrix.n_factors
    scores, noise, signal = subset_scores(ctx, list(range(p)))
    s_tot = np.array([scores[i] for i in range(p)])
    if np.any(s_tot > 1.0):
        over = [i for i in range(p) if s_tot[i] > 1.0]
        warnings.warn(f"total Sobol' index above 1 for factors {over}; "
                      "estimates are only clipped below at 0", stacklevel=2)
    return ImportanceResult(
        s_tot=s_tot,
        noise_var=noise,
        signal_var=signal,
        total_var=ctx.total,
        selected=s_tot > 0.0,
        n_inner=ctx.k,
    )
