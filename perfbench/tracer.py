"""Timing wrappers installed from outside the library, spans kept in memory, per-layer totals.

``Tracer.install`` replaces the public functions that the solve loops, the
certifier and the generators call through module attributes (plus the two
``DenseMatrix`` GEMV methods) with wrappers that record one span per call:
layer, parent span, start, end, whether it raised, and the benchmark
operation it ran under. ``restore`` puts every original object back. Nothing
under ``src/`` changes, and a wrapped call returns exactly what the original
returns.

A span's self time is its duration minus the durations of its direct
children. A layer's call count counts only spans whose parent belongs to
another layer, so ``rgrk_step`` calling ``kaczmarz_step`` is one step.
"""

from __future__ import annotations

import functools
import importlib
from dataclasses import dataclass
from time import perf_counter

# (module, attribute, layer). Each attribute is what the calling module looks up at call time.
PATCH_POINTS = (
    ("rgsolve.row_methods", "run_row_method", "row_methods.driver"),
    ("rgsolve.row_methods", "kaczmarz_step", "row_methods.step"),
    ("rgsolve.row_methods", "rgdr_step", "row_methods.step"),
    ("rgsolve.row_methods", "rgrk_step", "row_methods.step"),
    ("rgsolve.row_methods", "block_project_step", "row_methods.step"),
    ("rgsolve.row_methods", "row_losses", "selection"),
    ("rgsolve.row_methods", "relaxed_greedy_set", "selection"),
    ("rgsolve.row_methods", "gbk_set", "selection"),
    ("rgsolve.row_methods", "make_partition", "selection"),
    ("rgsolve.row_methods", "cgls", "cgls"),
    ("rgsolve.col_methods", "run_col_method", "col_methods.driver"),
    ("rgsolve.col_methods", "cd_step", "col_methods.step"),
    ("rgsolve.col_methods", "rgdc_step", "col_methods.step"),
    ("rgsolve.col_methods", "rgrcd_step", "col_methods.step"),
    ("rgsolve.col_methods", "amdcd_step", "col_methods.step"),
    ("rgsolve.col_methods", "rbcd_block_step", "col_methods.step"),
    ("rgsolve.col_methods", "column_losses_from_y", "selection"),
    ("rgsolve.col_methods", "relaxed_greedy_set", "selection"),
    ("rgsolve.col_methods", "max_distance_set", "selection"),
    ("rgsolve.col_methods", "make_partition", "selection"),
    ("rgsolve.col_methods", "cgls", "cgls"),
    ("rgsolve.linalg", "DenseMatrix.matvec", "linalg.matvec"),
    ("rgsolve.linalg", "DenseMatrix.matvec_transpose", "linalg.matvec_t"),
    ("rgsolve.linalg", "singular_values", "linalg.svd"),
    ("rgsolve.linalg", "sigma_extremes", "linalg.svd"),
    ("rgsolve.theory", "singular_values", "linalg.svd"),
    ("rgsolve.theory", "sigma_extremes", "linalg.svd"),
    ("rgsolve.theory", "certify_run", "theory"),
    ("rgsolve.theory", "certify_randomized", "theory"),
    ("rgsolve.theory", "rgrk_factor", "theory"),
    ("rgsolve.theory", "rgrcd_factor", "theory"),
    ("rgsolve.problems", "gen_randn", "problems"),
    ("rgsolve.problems", "gen_smatrix", "problems"),
    ("rgsolve.problems", "make_consistent", "problems"),
    ("rgsolve.problems", "make_inconsistent", "problems"),
    ("rgsolve.problems", "cgls", "cgls"),
)


@dataclass(slots=True)
class Span:
    parent: int  # index into Tracer.spans, -1 for a root
    layer: str
    op: str
    start: float
    end: float = 0.0
    failed: bool = False


def _owner(module_name: str, attr: str):
    """The object holding ``attr`` (a module or a class in it) and the bare attribute name."""
    owner = importlib.import_module(module_name)
    *path, name = attr.split(".")
    for part in path:
        owner = getattr(owner, part)
    return owner, name


class Tracer:
    """Records spans while installed. ``op`` labels the benchmark operation now running."""

    def __init__(self):
        self.spans: list[Span] = []
        self.op = ""
        self._stack: list[int] = [-1]  # the bottom entry is the parent of root spans
        self._saved: list[tuple[object, str, object]] = []

    def _wrap(self, layer: str, fn):
        spans, stack, clock = self.spans, self._stack, perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = Span(stack[-1], layer, self.op, clock())
            stack.append(len(spans))
            spans.append(span)
            try:
                return fn(*args, **kwargs)
            except BaseException:
                span.failed = True
                raise
            finally:
                span.end = clock()
                stack.pop()

        return wrapper

    def install(self) -> None:
        if self._saved:
            raise RuntimeError("tracer already installed")
        for module_name, attr, layer in PATCH_POINTS:
            owner, name = _owner(module_name, attr)
            # vars() gives the stored object itself, not a bound method.
            original = vars(owner)[name]
            self._saved.append((owner, name, original))
            setattr(owner, name, self._wrap(layer, original))

    def restore(self) -> None:
        for owner, name, original in reversed(self._saved):
            setattr(owner, name, original)
        self._saved.clear()

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.restore()

    def layer_totals(self) -> dict[tuple[str, str], dict]:
        """Per (op, layer): top-level call count, self seconds, failed calls, and cgls oracle time.

        A cgls span under a ``problems`` span is the generators' reference
        solve; its self time goes to ``oracle_s`` instead of the layer's
        ``self_s``.
        """
        child_time = [0.0] * len(self.spans)
        for span in self.spans:
            if span.parent >= 0:
                child_time[span.parent] += span.end - span.start
        totals: dict[tuple[str, str], dict] = {}
        for i, span in enumerate(self.spans):
            t = totals.setdefault((span.op, span.layer),
                                  {"calls": 0, "self_s": 0.0, "failed": 0, "oracle_s": 0.0})
            parent_layer = self.spans[span.parent].layer if span.parent >= 0 else None
            own = span.end - span.start - child_time[i]
            if span.layer == "cgls" and parent_layer == "problems":
                t["oracle_s"] += own
                continue
            t["self_s"] += own
            t["failed"] += span.failed
            if parent_layer != span.layer:
                t["calls"] += 1
        return totals
