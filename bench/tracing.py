"""Spans and counts around the package's layers, recorded from outside.

Each hook replaces one function at the attribute its callers look up (a
module global, or a name another module imported), so nothing under `src/`
changes.  Spans are kept in memory as [name, start, end, parent, case] and
written out when the run ends.  A hook whose attribute no longer exists is
skipped and listed as missing; its metrics then read 0.
"""

from __future__ import annotations

import importlib
import time
from collections import Counter


def _count_blocks(counts, mat):
    counts["momkit.block_entries"] += mat.size * mat.size


def _count_solve(counts, report):
    counts["maxdet.newton_iters"] += report.iterations
    counts["maxdet.backtracks"] += report.backtracks


def _count_draw(counts, _):
    counts["measures.start_draws"] += 1


# (module, attribute path, span name or None for count-only, counter)
HOOKS = (
    ("equipell.pellcheck", "chebyshev", "mvpoly.chebyshev", None),
    ("equipell.pellcheck", "chebyshev_pell_identity", "pellcheck.cheb_identity", None),
    ("equipell.pellcheck", "generalized_pell_residual", "pellcheck.residual", None),
    ("equipell.pellcheck", "localizing_matrix", "momkit.localizing", _count_blocks),
    ("equipell.pellcheck", "christoffel_inverse_poly", "christoffel.inverse_poly", None),
    ("equipell.christoffel", "_exact_inverse", "christoffel.exact_inverse", None),
    ("equipell.christoffel", "orthonormal_basis", "christoffel.float_inverse", None),
    ("equipell.momkit", "MomentSequence.from_model", "measures.closed_form", None),
    ("equipell.measures", "uniform_start_moments", "measures.start_moments", _count_draw),
    ("equipell.maxdet", "feasible_start", "maxdet.start", None),
    ("equipell.maxdet", "extension_sweep", "maxdet.sweep", None),
    ("equipell.maxdet", "assemble_instance", "maxdet.assemble", None),
    ("equipell.maxdet", "solve_primal", "maxdet.newton", _count_solve),
    ("equipell.maxdet", "_derivatives", "maxdet.derivatives", None),
    ("equipell.mvpoly", "Poly.__add__", None, "mvpoly.poly_ops"),
    ("equipell.mvpoly", "Poly.__radd__", None, "mvpoly.poly_ops"),
    ("equipell.mvpoly", "Poly.__mul__", None, "mvpoly.poly_ops"),
    ("equipell.mvpoly", "Poly.__rmul__", None, "mvpoly.poly_ops"),
)

CASE = "case"

# Per-layer metrics: (name, unit, (kind, key)) where kind is "incl" or "self"
# time of the spans named key, a "count" kept under key, or "per_iter", the
# Newton time per iteration.
LAYER_METRICS = (
    ("mvpoly.chebyshev_s", "s", ("incl", "mvpoly.chebyshev")),
    ("pellcheck.cheb_identity_s", "s", ("incl", "pellcheck.cheb_identity")),
    ("mvpoly.poly_ops", "count", ("count", "mvpoly.poly_ops")),
    ("momkit.localizing_s", "s", ("incl", "momkit.localizing")),
    ("momkit.block_entries", "count", ("count", "momkit.block_entries")),
    ("measures.closed_form_s", "s", ("incl", "measures.closed_form")),
    ("christoffel.exact_inverse_s", "s", ("incl", "christoffel.exact_inverse")),
    ("christoffel.float_inverse_s", "s", ("incl", "christoffel.float_inverse")),
    ("christoffel.accumulate_s", "s", ("self", "christoffel.inverse_poly")),
    ("pellcheck.residual_s", "s", ("incl", "pellcheck.residual")),
    ("pellcheck.residual_self_s", "s", ("self", "pellcheck.residual")),
    ("measures.start_moments_s", "s", ("incl", "measures.start_moments")),
    ("measures.start_draws", "count", ("count", "measures.start_draws")),
    ("maxdet.start_s", "s", ("incl", "maxdet.start")),
    ("maxdet.sweep_s", "s", ("incl", "maxdet.sweep")),
    ("maxdet.assemble_s", "s", ("incl", "maxdet.assemble")),
    ("maxdet.newton_s", "s", ("incl", "maxdet.newton")),
    ("maxdet.derivatives_s", "s", ("incl", "maxdet.derivatives")),
    ("maxdet.newton_iters", "count", ("count", "maxdet.newton_iters")),
    ("maxdet.backtracks", "count", ("count", "maxdet.backtracks")),
    ("maxdet.ms_per_iter", "ms", ("per_iter", None)),
    ("cli.self_s", "s", ("self", CASE)),
    ("bench.case_s", "s", ("incl", CASE)),
)


def _resolve(module: str, path: str):
    owner = importlib.import_module(module)
    *parents, attr = path.split(".")
    for name in parents:
        owner = getattr(owner, name)
    return owner, attr


class Tracer:
    def __init__(self):
        self.spans: list = []
        self.counts: Counter = Counter()
        self.case = None
        self.missing: list = []
        self._stack: list = []
        self._saved: list = []

    def _span(self, name, fn, counter):
        spans, stack, counts = self.spans, self._stack, self.counts

        def traced(*args, **kwargs):
            record = [name, time.perf_counter(), 0.0, stack[-1] if stack else -1, self.case]
            stack.append(len(spans))
            spans.append(record)
            try:
                result = fn(*args, **kwargs)
            finally:
                record[2] = time.perf_counter()
                stack.pop()
            if counter is not None:
                counter(counts, result)
            return result

        return traced

    def _counted(self, key, fn):
        counts = self.counts

        def counted(*args, **kwargs):
            counts[key] += 1
            return fn(*args, **kwargs)

        return counted

    def install(self):
        for module, path, name, counter in HOOKS:
            try:
                owner, attr = _resolve(module, path)
                original = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
            except (ImportError, AttributeError, KeyError):
                self.missing.append(f"{module}.{path}")
                continue
            self._saved.append((owner, attr, original))
            fn = original.__func__ if isinstance(original, classmethod) else original
            wrapped = self._counted(counter, fn) if name is None else self._span(name, fn, counter)
            setattr(owner, attr, classmethod(wrapped) if isinstance(original, classmethod) else wrapped)

    def uninstall(self):
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def run_case(self, case_id, fn):
        """Call fn() inside the root span of one case."""
        self.case = case_id
        try:
            return self._span(CASE, fn, None)()
        finally:
            self.case = None


def layer_times(spans: list, lo: int, hi: int) -> tuple:
    """(inclusive, self) seconds per span name over spans[lo:hi].

    Inclusive time counts only the outermost span of a name; self time is a
    span's duration minus the part its direct children cover.
    """
    child: Counter = Counter()
    for name, start, end, parent, _ in spans[lo:hi]:
        if parent >= 0:
            child[parent] += end - start
    incl: Counter = Counter()
    own: Counter = Counter()
    for k in range(lo, hi):
        name, start, end, parent, _ = spans[k]
        own[name] += end - start - child[k]
        while parent >= 0 and spans[parent][0] != name:
            parent = spans[parent][3]
        if parent < 0:
            incl[name] += end - start
    return incl, own


def pass_metrics(spans: list, lo: int, hi: int, counts: Counter) -> dict:
    """Every per-layer metric of one traced pass."""
    incl, own = layer_times(spans, lo, hi)
    out = {}
    for metric, _, (kind, key) in LAYER_METRICS:
        if kind == "incl":
            out[metric] = incl[key]
        elif kind == "self":
            out[metric] = own[key]
        elif kind == "count":
            out[metric] = counts[key]
        else:
            iters = counts["maxdet.newton_iters"]
            out[metric] = 1000.0 * incl["maxdet.newton"] / iters if iters else 0.0
    return out


def shares(per_pass: list) -> dict:
    """Each time metric summed over the traced passes, as a share of case time."""
    total = sum(p["bench.case_s"] for p in per_pass)
    return {
        m: sum(p[m] for p in per_pass) / total
        for m, unit, _ in LAYER_METRICS
        if unit == "s" and m != "bench.case_s"
    }
