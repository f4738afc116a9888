"""In-memory span tracer that wraps the package's functions from outside.

The package imports names directly (``from .neighbors import build_index``),
so a function is wrapped in every module that looks it up, not only where
it is defined. Each wrapped call records a span ``(name, start, end,
parent, op)``; a layer is the part of the span name before the first dot.
Spans stay in memory until ``dump`` writes them out at the end of a run.
"""

import contextlib
import functools
import importlib
import json
import time

# (module, attribute, span name). A call is recorded once, under the module
# namespace the caller looks the function up in.
WRAPPED = (
    ("first.cli", "load_csv", "dataset.load_csv"),
    ("first.cli", "encode", "dataset.encode"),
    ("first.cli", "nanne", "estimators.nanne"),
    ("first.cli", "first", "selection.first"),
    ("first.cli", "run_benchmark", "report.run_benchmark"),
    ("first.report", "restricted_groundtruth", "synthetic.groundtruth"),
    ("first.report", "generate_regression", "synthetic.generate"),
    ("first.report", "encode", "dataset.encode"),
    ("first.report", "first", "selection.first"),
    ("first.selection", "_forward_select", "selection.forward"),
    ("first.selection", "_backward_eliminate", "selection.backward"),
    ("first.selection", "_candidate_values", "selection.step"),
    ("first.selection", "subset_scores", "estimators.subset_scores"),
    ("first.selection", "_subspace_effect", "estimators.effect"),
    ("first.estimators", "subset_scores", "estimators.subset_scores"),
    ("first.estimators", "_subspace_effect", "estimators.effect"),
    ("first.estimators", "build_index", "neighbors.build"),
    ("first.estimators", "query_within_batch", "neighbors.query"),
)


def _build_counts(args, kwargs, index):
    n, dims = index.points.shape
    return {"dims": dims, "bytes": n * dims * 8}


def _query_counts(args, kwargs, result):
    rows = args[1] if len(args) > 1 else kwargs["rows"]
    return {"rows": len(rows), "tied": int(result[1].sum())}


def _load_counts(args, kwargs, dataset):
    return {"cells": dataset.n_rows * (dataset.n_factors + 1)}


# Counters taken from a call's arguments and result, keyed by span name.
COUNTERS = {
    "neighbors.build": _build_counts,
    "neighbors.query": _query_counts,
    "dataset.load_csv": _load_counts,
}


class Tracer:
    """Records nested spans of wrapped calls while installed."""

    def __init__(self):
        self.spans = []  # [name, start, end, parent, op, counts]
        self._stack = []
        self._patches = []
        self.op = None

    @contextlib.contextmanager
    def span(self, name):
        """Record a span around the ``with`` body."""
        idx = self._open(name)
        try:
            yield
        finally:
            self._close(idx)

    def _open(self, name):
        parent = self._stack[-1] if self._stack else -1
        idx = len(self.spans)
        self.spans.append([name, time.perf_counter(), 0.0, parent, self.op, None])
        self._stack.append(idx)
        return idx

    def _close(self, idx):
        self.spans[idx][2] = time.perf_counter()
        self._stack.pop()

    def _wrap(self, original, name):
        tracer = self
        count = COUNTERS.get(name)

        @functools.wraps(original)
        def traced(*args, **kwargs):
            idx = tracer._open(name)
            try:
                result = original(*args, **kwargs)
            finally:
                tracer._close(idx)
            if count is not None:
                tracer.spans[idx][5] = count(args, kwargs, result)
            return result

        return traced

    def install(self):
        for module_name, attr, name in WRAPPED:
            module = importlib.import_module(module_name)
            original = getattr(module, attr)
            setattr(module, attr, self._wrap(original, name))
            self._patches.append((module, attr, original))

    def uninstall(self):
        while self._patches:
            module, attr, original = self._patches.pop()
            setattr(module, attr, original)

    def dump(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            for name, start, end, parent, op, counts in self.spans:
                fh.write(json.dumps({"name": name, "start": start, "end": end,
                                     "parent": parent, "op": op, "counts": counts}) + "\n")


def op_profile(spans, root):
    """Per-layer times and counters of the op whose root span is ``root``.

    Spans of one op are contiguous and follow their root, so the op's
    subtree is the run of spans from ``root`` up to the next root. A span's
    self time is its duration minus that of its direct children.
    """
    end = root + 1
    while end < len(spans) and spans[end][3] != -1:
        end += 1
    tree = spans[root:end]
    duration = [s[2] - s[1] for s in tree]
    own = list(duration)
    under_selection = [False] * len(tree)
    for i, (_, _, _, parent, _, _) in enumerate(tree[1:], start=1):
        own[parent - root] -= duration[i]
        up = tree[parent - root][0]
        under_selection[i] = under_selection[parent - root] or up.startswith("selection.")
    inclusive, self_time, calls, counts = {}, {}, {}, {}
    for i, (name, _, _, _, _, c) in enumerate(tree):
        inclusive[name] = inclusive.get(name, 0.0) + duration[i]
        self_time[name] = self_time.get(name, 0.0) + own[i]
        calls[name] = calls.get(name, 0) + 1
        for key, value in (c or {}).items():
            counts[f"{name}.{key}"] = counts.get(f"{name}.{key}", 0) + value
    counts["selection.effects"] = sum(
        1 for i, s in enumerate(tree) if s[0] == "estimators.effect" and under_selection[i])
    return {"wall": duration[0], "inclusive": inclusive, "self": self_time,
            "calls": calls, "counts": counts}
