"""Span recording around bklab's public functions, from outside the package.

A module binds the names it imports when it is imported, so wrapping a
function only where it is defined would miss calls such as
``backward_error.pseudoinverse(...)``.  :meth:`Tracer.install` therefore
replaces every binding of each traced function in every loaded ``bklab``
module and :meth:`Tracer.uninstall` puts the originals back.  Nothing under
``src/`` is modified.

Spans live in memory as ``(id, name, op, parent, start, end, info)`` tuples
and are written out once, when the run ends.
"""

from __future__ import annotations

import json
import sys
import time
from collections import defaultdict

COMPLEX_BYTES = 16

# (module, function): span name.  ``numerical_rank`` is not listed because it
# delegates to ``svd_with_rank``, whose binding in ``bklab.tolerances`` is
# replaced, so rank decisions are never counted twice.
TRACED = {
    ("bklab.backward_error", "run_pipeline"): "backward_error.run_pipeline",
    ("bklab.backward_error", "solve_step1"): "backward_error.solve_step1",
    ("bklab.backward_error", "solve_step2"): "backward_error.solve_step2",
    ("bklab.backward_error", "assemble_step3"): "backward_error.assemble_step3",
    ("bklab.tolerances", "pseudoinverse"): "tolerances.pseudoinverse",
    ("bklab.tolerances", "svd_with_rank"): "tolerances.svd_with_rank",
    ("bklab.eigenstructure", "staircase_eigenstructure"):
        "eigenstructure.staircase_eigenstructure",
    ("bklab.eigenstructure", "match_eigenvalues"): "eigenstructure.match_eigenvalues",
    ("bklab.eigenstructure", "shift_recovery"): "eigenstructure.shift_recovery",
    ("bklab.eigenstructure", "right_minimal_indices_by_convolution"):
        "eigenstructure.right_minimal_indices_by_convolution",
    ("bklab.block_kronecker", "from_polynomial"): "block_kronecker.from_polynomial",
    ("bklab.block_kronecker", "recover_polynomial"): "block_kronecker.recover_polynomial",
    ("bklab.matpoly", "multiply"): "matpoly.multiply",
    ("bklab.matpoly", "convolution"): "matpoly.convolution",
}

ROOT = "bench.op"


def _operand(args, kwargs) -> dict:
    rows, cols = args[0].shape
    return {"bytes": rows * cols * COMPLEX_BYTES}


def _rank_decision(args, kwargs) -> dict:
    """Operand size, and where the function's own decision log will hold the
    decision, judged borderline or not in :meth:`Tracer.finish`, off the
    clock.  The caller's log is used when it passes one."""
    if kwargs.get("log") is None:
        kwargs["log"] = []
    return {**_operand(args, kwargs), "log": kwargs["log"], "at": len(kwargs["log"])}


# Span name: (before, after).  ``before(args, kwargs)`` returns the span's
# info and may add keyword arguments; ``after(info, out)`` adds what only the
# result shows.
HOOKS = {
    "tolerances.pseudoinverse": (_operand, None),
    "tolerances.svd_with_rank": (_rank_decision, None),
    "backward_error.solve_step1":
        (lambda args, kwargs: {}, lambda info, out: info.update(iterations=out.iterations)),
}


class Tracer:
    """In-memory span recorder for one single-threaded run."""

    def __init__(self):
        self.spans: list[tuple] = []
        self._stack: list[int] = []
        self._op = -1
        self._restore: list[tuple] = []

    # -- recording ---------------------------------------------------------

    def _open(self) -> tuple[int, int | None]:
        span_id = len(self.spans)
        self.spans.append(None)  # placeholder keeps ids in start order
        parent = self._stack[-1] if self._stack else None
        self._stack.append(span_id)
        return span_id, parent

    def _close(self, span_id, name, parent, start, info):
        end = time.perf_counter()
        self._stack.pop()
        self.spans[span_id] = (span_id, name, self._op, parent, start, end, info)

    def op(self, op_id: int, fn):
        """Run ``fn()`` as the root span of operation ``op_id``."""
        self._op = op_id
        span_id, parent = self._open()
        start = time.perf_counter()
        try:
            return fn()
        finally:
            self._close(span_id, ROOT, parent, start, None)

    def _wrap(self, name, fn):
        tracer = self
        before, after = HOOKS.get(name, (None, None))

        def wrapper(*args, **kwargs):
            info = before(args, kwargs) if before is not None else None
            span_id, parent = tracer._open()
            start = time.perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                tracer._close(span_id, name, parent, start, info)
            if after is not None:
                after(info, out)
            return out

        return wrapper

    # -- installation ------------------------------------------------------

    def install(self):
        modules = [m for key, m in list(sys.modules.items())
                   if m is not None and (key == "bklab" or key.startswith("bklab."))]
        for (module_name, attr), span_name in TRACED.items():
            original = getattr(sys.modules[module_name], attr)
            wrapper = self._wrap(span_name, original)
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, key, wrapper)
                        self._restore.append((module, key, original))

    def uninstall(self):
        for module, key, original in reversed(self._restore):
            setattr(module, key, original)
        self._restore.clear()

    # -- output ------------------------------------------------------------

    def finish(self):
        """Turn the rank decisions kept by the ``svd_with_rank`` spans into
        borderline flags; call once, after the traced ops."""
        for span in self.spans:
            info = span[6]
            if info is not None and "log" in info:
                info["borderline"] = info.pop("log")[info.pop("at")].is_borderline()

    def write(self, path):
        with open(path, "w") as fh:
            json.dump({"fields": ["id", "name", "op", "parent", "start", "end", "info"],
                       "spans": self.spans}, fh)


def self_times(spans) -> dict[int, float]:
    """Duration of each span minus the time its direct children cover.

    The run is single-threaded, so children never overlap one another and
    the covered time is the sum of their durations.
    """
    own = {s[0]: s[5] - s[4] for s in spans}
    for s in spans:
        if s[3] is not None:
            own[s[3]] -= s[5] - s[4]
    return own


def _op_count(spans) -> int:
    return max(sum(1 for s in spans if s[1] == ROOT), 1)


def layer_metrics(spans) -> dict[str, float]:
    """Per-op layer figures from the spans of a traced run.

    Times are in ms per op, sizes in MB (10^6 B, 16 B per complex entry) per
    op, counts per op.  A layer the workload never enters reads 0.
    """
    by_id = {s[0]: s for s in spans}
    own = self_times(spans)
    n_ops = _op_count(spans)
    total = defaultdict(float)
    count = defaultdict(int)
    decisions = borderline = 0
    for s in spans:
        span_id, name, _, parent, start, end, info = s
        duration = end - start
        parent_name = by_id[parent][1] if parent is not None else None
        total[name] += duration
        total[name + ":self"] += own[span_id]
        count[name] += 1
        if name == "tolerances.pseudoinverse":
            step = {"backward_error.solve_step1": "step1",
                    "backward_error.solve_step2": "step2"}.get(parent_name)
            if step is not None:
                total[step + ":pinv"] += duration
                total[step + ":pinv_bytes"] += info["bytes"]
        elif name == "tolerances.svd_with_rank":
            total["svd_bytes"] += info["bytes"]
            decisions += 1
            borderline += info["borderline"]
        elif name == "backward_error.solve_step1":
            total["step1_iterations"] += info.get("iterations", 0)

    def ms(key):
        return 1e3 * total[key] / n_ops

    def mb(key):
        return total[key] / 1e6 / n_ops

    return {
        "backward_error.step1_ms": ms("backward_error.solve_step1"),
        "backward_error.step1_self_ms": ms("backward_error.solve_step1:self"),
        "backward_error.step1_pinv_ms": ms("step1:pinv"),
        "backward_error.step1_pinv_mb": mb("step1:pinv_bytes"),
        "backward_error.step1_iterations": total["step1_iterations"] / n_ops,
        "backward_error.step2_ms": ms("backward_error.solve_step2"),
        "backward_error.step2_pinv_ms": ms("step2:pinv"),
        "backward_error.step2_pinv_mb": mb("step2:pinv_bytes"),
        "backward_error.step3_ms": ms("backward_error.assemble_step3"),
        "backward_error.pipeline_self_ms": ms("backward_error.run_pipeline:self"),
        "matpoly.multiply_ms": ms("matpoly.multiply"),
        "matpoly.convolution_ms": ms("matpoly.convolution"),
        "eigenstructure.staircase_ms": ms("eigenstructure.staircase_eigenstructure"),
        "eigenstructure.staircase_self_ms":
            ms("eigenstructure.staircase_eigenstructure:self"),
        "eigenstructure.rank_svd_ms": ms("tolerances.svd_with_rank"),
        "eigenstructure.rank_svd_calls": count["tolerances.svd_with_rank"] / n_ops,
        "eigenstructure.rank_svd_mb": mb("svd_bytes"),
        "eigenstructure.oracle_ms":
            ms("eigenstructure.right_minimal_indices_by_convolution"),
        "eigenstructure.borderline_share": borderline / decisions if decisions else 0.0,
        "eigenstructure.match_ms": ms("eigenstructure.match_eigenvalues"),
        "block_kronecker.from_polynomial_ms": ms("block_kronecker.from_polynomial"),
        "block_kronecker.recover_polynomial_ms": ms("block_kronecker.recover_polynomial"),
        "trace.untraced_ms": ms(ROOT + ":self"),
    }


def self_time_table(spans) -> dict[str, float]:
    """Self time per span name in ms per op; the values add up to the mean
    traced op time, with ``bench.op`` holding the time no layer span covers."""
    own = self_times(spans)
    n_ops = _op_count(spans)
    table = defaultdict(float)
    for s in spans:
        table[s[1]] += 1e3 * own[s[0]] / n_ops
    return dict(sorted(table.items(), key=lambda kv: -kv[1]))
