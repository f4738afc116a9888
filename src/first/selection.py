"""Factor selection: greedy forward selection on explainable variance,
backward elimination on noise-adjusted indices, and their combination.

Forward selection adds the factor that maximizes the explainable variance
of the augmented set and stops when no candidate strictly improves it.
Backward elimination repeatedly drops factors whose estimated index clips
to zero and re-estimates on the survivors, so the reported importance is
always measured relative to the retained factors only.
"""

from dataclasses import dataclass, field, replace

import numpy as np

from .estimators import EstimatorConfig, _subspace_effect, derive_seed, outer_rows, prepare, step_lists, subset_scores

ADD = "add"
ELIMINATE = "eliminate"
PRUNE = "prune"


@dataclass(frozen=True)
class SelectionStep:
    """One recorded selection event.

    ``value`` is the explainable variance for add/prune steps and the
    (zero) index estimate for eliminate steps.
    """

    action: str
    factor: int
    value: float


@dataclass(frozen=True, eq=False)
class SelectionTrace:
    """Full record of a selection run.

    ``importance`` holds the final per-factor importance: the total Sobol'
    index measured relative to the surviving factors, zero elsewhere, so
    ``importance[i] > 0`` exactly when ``i`` is in ``final_active``.
    """

    steps: tuple[SelectionStep, ...]
    final_active: tuple[int, ...]
    importance: np.ndarray
    meta: dict = field(default_factory=dict)

    def __post_init__(self):
        self.importance.flags.writeable = False

    def to_dict(self) -> dict:
        return {
            "steps": [{"action": s.action, "factor": s.factor, "value": s.value} for s in self.steps],
            "final_active": list(self.final_active),
            "importance": [float(v) for v in self.importance],
            "meta": dict(self.meta),
        }


def _backward_eliminate(ctx, active):
    """Iterate noise-adjusted estimation on a sorted factor list, dropping zero-index factors.

    Returns ``(importance, steps)``: ``importance`` is a length-``n_factors``
    vector, strictly positive for the surviving factors and zero elsewhere.
    Every round either stops or strictly shrinks the active set, so there
    are at most ``len(active)`` rounds.
    """
    steps: list[SelectionStep] = []
    while active:
        scores = subset_scores(ctx, active)[0]
        survivors = [i for i in active if scores[i] > 0.0]
        if survivors == active:
            break
        steps.extend(SelectionStep(ELIMINATE, i, 0.0) for i in active if i not in survivors)
        active = survivors
    importance = np.zeros(ctx.matrix.n_factors)
    importance[active] = [scores[i] for i in active]
    return importance, steps


def nanne_be(matrix, y, factors, cfg: EstimatorConfig | None = None) -> np.ndarray:
    """Backward-eliminated total Sobol' indices over a factor subset.

    Returns a length-``n_factors`` vector: strictly positive entries for
    factors that survive elimination, zero for eliminated factors and for
    factors outside ``factors``.
    """
    cfg = cfg or EstimatorConfig()
    return _backward_eliminate(prepare(matrix, y, cfg), matrix.factor_subset(factors))[0]


def _candidate_values(ctx, active, candidates):
    """Explainable variance of ``active + [i]`` for every candidate i.

    All candidates within one step share the context's outer rows so their
    values are directly comparable. Where the step's neighbor lists pay,
    they settle most rows of every candidate without an index of its own.
    """
    lists = step_lists(ctx, active, candidates)
    return {i: ctx.total - _subspace_effect(ctx, sorted(active + [i]),
                                            None if lists is None else lists.settle(ctx.matrix, i, ctx.k))
            for i in candidates}


def _forward_select(ctx, cfg, prune: bool):
    """Greedy forward selection; with ``prune`` it permanently removes
    candidates whose inclusion strictly decreases the explainable variance.

    Ties in the argmax go to the lowest factor index. A candidate is added
    only while it strictly improves on the current explainable variance (in
    the pruning variant, the loop instead runs until the candidate pool is
    exhausted, which subsumes the same stopping rule). Step s scores on
    ``outer_rows(cfg, n, s)``. Returns ``(active, steps, n_steps)``.
    """
    active: list[int] = []
    v_active = 0.0
    pool = list(range(ctx.matrix.n_factors))
    steps: list[SelectionStep] = []
    n_steps = 0
    while pool:
        step_ctx = replace(ctx, rows=outer_rows(cfg, ctx.matrix.n_rows, n_steps))
        n_steps += 1
        values = _candidate_values(step_ctx, active, pool)
        best = min(pool, key=lambda i: (-values[i], i))
        if prune:
            dropped = [i for i in pool if values[i] < v_active]
            steps.extend(SelectionStep(PRUNE, i, values[i]) for i in dropped)
            pool = [i for i in pool if i not in dropped]
            if best not in pool:
                break
        elif not values[best] > v_active:
            break
        active.append(best)
        pool.remove(best)
        v_active = values[best]
        steps.append(SelectionStep(ADD, best, v_active))
    return active, steps, n_steps


def _run_selection(matrix, y, cfg, prune: bool, method: str) -> SelectionTrace:
    ctx = prepare(matrix, y, cfg)
    active, steps, n_steps = _forward_select(ctx, cfg, prune)
    importance = np.zeros(matrix.n_factors)
    if active:
        importance, be_steps = _backward_eliminate(ctx, sorted(active))
        steps.extend(be_steps)
    meta = {
        "method": method,
        "n_inner": ctx.k,
        "n_outer": cfg.n_outer,
        "seed": cfg.seed,
        "forward_step_seeds": ("all-rows" if cfg.n_outer == "all"
                               else [derive_seed(cfg.seed, s) for s in range(n_steps)]),
    }
    return SelectionTrace(
        steps=tuple(steps),
        final_active=tuple(np.flatnonzero(importance).tolist()),
        importance=importance,
        meta=meta,
    )


def first(matrix, y, cfg: EstimatorConfig | None = None) -> SelectionTrace:
    """Factor importance ranking and selection using total Sobol' indices.

    Forward selection on explainable variance picks a candidate set; then
    backward elimination estimates importance relative to the survivors.
    Every factor outside the final active set gets importance zero.
    """
    cfg = cfg or EstimatorConfig()
    return _run_selection(matrix, y, cfg, prune=False, method="first")


def first_fast(matrix, y, cfg: EstimatorConfig | None = None) -> SelectionTrace:
    """Pruned variant of :func:`first` for high-dimensional problems.

    Each forward step permanently discards candidates whose inclusion
    strictly decreases the explainable variance, betting on effect sparsity
    to cut the quadratic candidate-evaluation cost at some accuracy loss.
    """
    cfg = cfg or EstimatorConfig()
    return _run_selection(matrix, y, cfg, prune=True, method="first_fast")
