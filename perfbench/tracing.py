"""Traced runs: spans around each layer's public functions, and the
per-layer metrics computed from them.

Tracing wraps functions from outside the package.  It patches both the
defining module and every ``from ... import`` binding that callers use
(``cli.run_css``, ``bench.compute_metrics``, ``css.svd`` ...), plus the
LAPACK entry points ``np.linalg.svd``, ``np.linalg.qr`` and
``scipy.linalg.solve_triangular``.  Spans are kept in memory and written
out at the end of the run.

Conventions for the per-layer metrics: a name ending in ``_s`` (or with
``_s.`` before a qualifier) is mean seconds per call of that span,
inclusive of its children unless it says ``self``; counts, bytes and
computed gflop are totals over round 0, the first traced round, whose
work is fixed by the seed, so two traced runs with one seed agree on them
exactly.
"""
from __future__ import annotations

import functools
import importlib
import os
from collections import defaultdict
from dataclasses import dataclass, field
from time import perf_counter

from workloads import ALGORITHMS, METHODS

COMMANDS = ("analyze", "svir", "bench")


@dataclass(slots=True)
class Span:
    name: str
    start: float
    end: float
    parent: int          # index into the span list, -1 for a request span
    request: int
    attrs: dict = field(default_factory=dict)

    @property
    def layer(self) -> str:
        return self.name.split(".", 1)[0]

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """Records nested spans; ``request`` tags every span with its request."""

    def __init__(self):
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self.request = -1

    def call(self, name, fn, args, kwargs, before=None, after=None):
        span = Span(name, 0.0, 0.0, self._stack[-1] if self._stack else -1,
                    self.request)
        self._stack.append(len(self.spans))
        self.spans.append(span)
        if before is not None:
            args = before(span.attrs, args, kwargs)
        span.start = perf_counter()
        try:
            result = fn(*args, **kwargs)
        finally:
            span.end = perf_counter()
            self._stack.pop()
        if after is not None:
            after(span.attrs, args, kwargs, result)
        return result

    def wrap(self, name, fn, before=None, after=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            return self.call(name, fn, args, kwargs, before, after)
        return traced


# ---------------------------------------------------------------- flop counts

def svd_flops(m: int, n: int, compute_uv: bool = True,
              full_matrices: bool = True) -> float:
    """Golub-Reinsch SVD of an m x n matrix (Golub & Van Loan, Matrix
    Computations, 4th ed., Fig. 8.6.1): singular values only
    4mn^2 - 4n^3/3; with full U and V 4m^2n + 8mn^2 + 9n^3; with thin U
    14mn^2 + 8n^3, for m >= n (a wide matrix counts as its transpose)."""
    m, n = max(m, n), min(m, n)
    if not compute_uv:
        return 4.0 * m * n * n - 4.0 * n ** 3 / 3.0
    if full_matrices:
        return 4.0 * m * m * n + 8.0 * m * n * n + 9.0 * n ** 3
    return 14.0 * m * n * n + 8.0 * n ** 3


def qr_flops(m: int, n: int, mode: str = "reduced") -> float:
    """Householder QR of an m x n matrix with k = min(m, n) reflectors:
    R costs 2k^2(max(m, n) - k/3) (Golub & Van Loan, Alg. 5.2.1); the
    m x k Q by backward accumulation 2k^2(m - k/3) more, the complete
    m x m Q 4(m^2 k - m k^2 + k^3/3) more."""
    k = min(m, n)
    r = 2.0 * k * k * (max(m, n) - k / 3.0)
    if mode == "r":
        return r
    if mode == "complete":
        return r + 4.0 * (m * m * k - m * k * k + k ** 3 / 3.0)
    return r + 2.0 * k * k * (m - k / 3.0)


def _batch(shape) -> int:
    count = 1
    for dim in shape[:-2]:
        count *= dim
    return count


def _arg(args, kwargs, pos, name, default):
    return args[pos] if len(args) > pos else kwargs.get(name, default)


# ----------------------------------------------------- span annotation hooks

def _svd_after(attrs, args, kwargs, _result):
    shape = args[0].shape
    attrs["flops"] = _batch(shape) * svd_flops(
        shape[-2], shape[-1],
        compute_uv=_arg(args, kwargs, 2, "compute_uv", True),
        full_matrices=_arg(args, kwargs, 1, "full_matrices", True))


def _qr_after(attrs, args, kwargs, _result):
    shape = args[0].shape
    attrs["flops"] = _batch(shape) * qr_flops(
        shape[-2], shape[-1], _arg(args, kwargs, 1, "mode", "reduced"))


def _run_css_after(attrs, args, kwargs, result):
    attrs["algorithm"] = result.algorithm
    attrs["swaps"] = result.swap_count
    attrs["converged"] = result.extras.get("converged", True)


def _read_after(attrs, args, kwargs, _result):
    attrs["bytes"] = os.path.getsize(args[0])


def _write_after(attrs, args, kwargs, _result):
    attrs["bytes"] = os.path.getsize(args[1])


def _checks_after(attrs, args, kwargs, result):
    attrs["unsatisfied"] = sum(not c.satisfied for c in result)


def _svir_after(attrs, args, kwargs, _result):
    attrs["method"] = _arg(args, kwargs, 3, "method", None).kind


def _integrate_before(attrs, args, kwargs):
    # count right-hand-side evaluations by wrapping the rhs that is passed in
    rhs, rest = args[0], args[1:]
    grid = _arg(args, kwargs, 2, "grid", None)
    attrs["steps"] = (len(grid.times) - 1) * _arg(args, kwargs, 3, "substeps", 100)
    attrs["rhs_evals"] = 0

    def counted(t, x):
        attrs["rhs_evals"] += 1
        return rhs(t, x)
    return (counted, *rest)


def _experiment_after(attrs, args, kwargs, report):
    attrs["realizations"] = report.spec.realizations
    attrs["rows"] = len(report.rows)
    attrs["error_rows"] = sum(1 for row in report.rows if row["error"])


# (module, attribute, span name, before hook, after hook)
PATCHES = (
    ("cssident.matio", "read_matrix", "matio.read", None, _read_after),
    ("cssident.cli", "read_matrix", "matio.read", None, _read_after),
    ("cssident.matio", "write_matrix", "matio.write", None, _write_after),
    ("cssident.cli", "write_matrix", "matio.write", None, _write_after),
    ("cssident.css", "run_css", "css.run_css", None, _run_css_after),
    ("cssident.cli", "run_css", "css.run_css", None, _run_css_after),
    ("cssident.bench", "run_css", "css.run_css", None, _run_css_after),
    ("cssident.css", "select_k", "css.select_k", None, None),
    ("cssident.css", "v11_inverse_norm", "css.v11_inverse_norm", None, None),
    ("cssident.metrics", "v11_inverse_norm", "css.v11_inverse_norm", None, None),
    ("cssident.linalg", "svd", "linalg.svd", None, None),
    ("cssident.css", "svd", "linalg.svd", None, None),
    ("cssident.metrics", "svd", "linalg.svd", None, None),
    ("cssident.linalg", "qr_unpivoted", "linalg.qr_unpivoted", None, None),
    ("cssident.css", "qr_unpivoted", "linalg.qr_unpivoted", None, None),
    ("cssident.generators", "qr_unpivoted", "linalg.qr_unpivoted", None, None),
    ("cssident.linalg", "qr_col_pivoted", "linalg.qr_col_pivoted", None, None),
    ("cssident.css", "qr_col_pivoted", "linalg.qr_col_pivoted", None, None),
    ("cssident.linalg", "residual_norm", "linalg.residual_norm", None, None),
    ("cssident.metrics", "residual_norm", "linalg.residual_norm", None, None),
    ("numpy.linalg", "svd", "numpy.svd", None, _svd_after),
    ("numpy.linalg", "qr", "numpy.qr", None, _qr_after),
    ("scipy.linalg", "solve_triangular", "numpy.solve_triangular", None, None),
    ("cssident.metrics", "compute_metrics", "metrics.compute_metrics", None, None),
    ("cssident.cli", "compute_metrics", "metrics.compute_metrics", None, None),
    ("cssident.bench", "compute_metrics", "metrics.compute_metrics", None, None),
    ("cssident.metrics", "theorem_bound_checks", "metrics.bound_checks", None, _checks_after),
    ("cssident.cli", "theorem_bound_checks", "metrics.bound_checks", None, _checks_after),
    ("cssident.odesens", "svir_sensitivity", "odesens.svir_sensitivity", None, _svir_after),
    ("cssident.cli", "svir_sensitivity", "odesens.svir_sensitivity", None, _svir_after),
    ("cssident.odesens", "integrate", "odesens.integrate", _integrate_before, None),
    ("cssident.bench", "realize", "generators.realize", None, None),
    ("cssident.bench", "run_experiment", "bench.run_experiment", None, _experiment_after),
    ("cssident.cli", "run_experiment", "bench.run_experiment", None, _experiment_after),
    ("cssident.bench", "write_rows_csv", "bench.write", None, None),
    ("cssident.bench", "write_report_json", "bench.write", None, None),
)


def install(tracer: Tracer):
    """Patch every entry of PATCHES; returns the function that undoes it."""
    saved = []
    for module_name, attr, name, before, after in PATCHES:
        module = importlib.import_module(module_name)
        original = getattr(module, attr)
        saved.append((module, attr, original))
        setattr(module, attr, tracer.wrap(name, original, before, after))

    def restore():
        for module, attr, original in reversed(saved):
            setattr(module, attr, original)
    return restore


# ------------------------------------------------------------ span arithmetic

def union_length(intervals) -> float:
    """Total length covered by a set of (start, end) intervals."""
    total, reach = 0.0, float("-inf")
    for start, end in sorted(intervals):
        if end <= reach:
            continue
        total += end - max(start, reach)
        reach = end
    return total


class SpanIndex:
    """Children lists and lookups over one run's spans."""

    def __init__(self, spans: list[Span]):
        self.spans = spans
        self.children: dict[int, list[int]] = defaultdict(list)
        self.named: dict[str, list[int]] = defaultdict(list)
        for idx, span in enumerate(spans):
            self.children[span.parent].append(idx)
            self.named[span.name].append(idx)

    def covered(self, idx: int, match) -> float:
        """Time within span ``idx`` covered by its outermost descendants
        that satisfy ``match``."""
        hits, todo = [], list(self.children[idx])
        while todo:
            child = todo.pop()
            span = self.spans[child]
            if match(span):
                hits.append((span.start, span.end))
            else:
                todo.extend(self.children[child])
        return union_length(hits)

    def self_time(self, idx: int, match=lambda _span: True) -> float:
        """Duration of span ``idx`` minus the part covered by ``match``
        descendants; by default minus all direct children."""
        return self.spans[idx].duration - self.covered(idx, match)

    def count_below(self, idx: int, name: str) -> int:
        todo, count = list(self.children[idx]), 0
        while todo:
            child = todo.pop()
            count += self.spans[child].name == name
            todo.extend(self.children[child])
        return count


# ---------------------------------------------------------- per-layer metrics

@dataclass(frozen=True)
class RequestInfo:
    kind: str
    label: str
    round: int


def _mean(values) -> float:
    values = list(values)
    return sum(values) / len(values) if values else 0.0


def layer_metrics(spans: list[Span], requests: dict[int, RequestInfo]) -> dict[str, float]:
    """Per-layer metrics of a traced run (setup and trace overhead excluded)."""
    ix = SpanIndex(spans)
    kind = {rid: info.kind for rid, info in requests.items()}

    def spans_of(name, round0=False, request_kind=None):
        return [i for i in ix.named[name]
                if (not round0 or requests[spans[i].request].round == 0)
                and (request_kind is None or kind[spans[i].request] == request_kind)]

    def mean_s(name, **filters):
        return _mean(spans[i].duration for i in spans_of(name, **filters))

    def total(name, attr=None, **filters):
        chosen = spans_of(name, round0=True, **filters)
        return sum(spans[i].attrs[attr] for i in chosen) if attr else len(chosen)

    lapack = lambda span: span.layer in ("linalg", "numpy")  # noqa: E731
    m: dict[str, float] = {}

    css = spans_of("css.run_css", request_kind="analyze")
    for alg in ALGORITHMS:
        mine = [i for i in css if spans[i].attrs["algorithm"] == alg]
        first = [i for i in mine if requests[spans[i].request].round == 0]
        m[f"css.select_s.{alg}"] = _mean(spans[i].duration for i in mine)
        m[f"css.self_s.{alg}"] = _mean(ix.self_time(i, lapack) for i in mine)
        for op in ("svd", "qr"):
            m[f"css.numpy_{op}_calls.{alg}"] = _mean(
                ix.count_below(i, f"numpy.{op}") for i in first)
    m["css.select_k_s"] = mean_s("css.select_k")
    srrqr = [i for i in spans_of("css.run_css", round0=True)
             if spans[i].attrs["algorithm"] == "srrqr"]
    m["css.srrqr_swaps"] = _mean(spans[i].attrs["swaps"] for i in srrqr
                                 if kind[spans[i].request] == "analyze")
    m["css.srrqr_unconverged"] = sum(not spans[i].attrs["converged"] for i in srrqr)
    m["css.v11_inverse_norm_s"] = mean_s("css.v11_inverse_norm")

    for fn in ("qr_unpivoted", "qr_col_pivoted", "svd", "residual_norm"):
        m[f"linalg.{fn}_s"] = mean_s(f"linalg.{fn}")
        m[f"linalg.{fn}_calls"] = total(f"linalg.{fn}")
    first_analyses = [rid for rid, info in requests.items()
                      if info.round == 0 and info.kind == "analyze"]
    svd_per_request = defaultdict(int)
    for i in spans_of("linalg.svd", round0=True):
        svd_per_request[spans[i].request] += 1
    m["linalg.svd_calls_per_analyze"] = _mean(svd_per_request[r] for r in first_analyses)
    for alg in ALGORITHMS:
        m[f"linalg.svd_calls_per_analyze.{alg}"] = _mean(
            svd_per_request[r] for r in first_analyses if requests[r].label == alg)
    realizations = total("bench.run_experiment", "realizations")
    m["linalg.svd_calls_per_realization"] = (
        total("linalg.svd", request_kind="bench") / realizations if realizations else 0.0)

    for op in ("svd", "qr", "solve_triangular"):
        m[f"numpy.{op}_calls"] = total(f"numpy.{op}")
        m[f"numpy.{op}_s"] = mean_s(f"numpy.{op}")
    m["numpy.svd_gflop"] = total("numpy.svd", "flops") / 1e9
    m["numpy.qr_gflop"] = total("numpy.qr", "flops") / 1e9

    m["metrics.compute_metrics_s"] = mean_s("metrics.compute_metrics")
    m["metrics.bound_checks_s"] = mean_s("metrics.bound_checks")
    m["metrics.self_s"] = _mean(
        ix.self_time(i, lambda span: span.layer != "metrics")
        for i in ix.named["metrics.compute_metrics"] + ix.named["metrics.bound_checks"])
    m["metrics.bound_checks_unsatisfied"] = total("metrics.bound_checks", "unsatisfied")

    for op in ("read", "write"):
        m[f"matio.{op}_s"] = mean_s(f"matio.{op}")
        m[f"matio.{op}_calls"] = total(f"matio.{op}")
        m[f"matio.{op}_bytes"] = total(f"matio.{op}", "bytes")

    for method in METHODS:
        m[f"odesens.svir_sensitivity_s.{method}"] = _mean(
            spans[i].duration for i in ix.named["odesens.svir_sensitivity"]
            if spans[i].attrs["method"] == method)
    m["odesens.integrate_calls"] = total("odesens.integrate")
    m["odesens.rk4_steps"] = total("odesens.integrate", "steps")
    m["odesens.rhs_evals"] = total("odesens.integrate", "rhs_evals")

    m["generators.realize_s"] = mean_s("generators.realize")
    m["generators.realize_calls"] = total("generators.realize")

    experiments = ix.named["bench.run_experiment"]
    m["bench.run_experiment_s"] = mean_s("bench.run_experiment")
    m["bench.self_s"] = _mean(ix.self_time(i) for i in experiments)
    bench_requests = sum(1 for info in requests.values() if info.kind == "bench")
    m["bench.write_s"] = (sum(spans[i].duration for i in ix.named["bench.write"])
                          / bench_requests if bench_requests else 0.0)
    m["bench.rows"] = total("bench.run_experiment", "rows")
    m["bench.error_rows"] = total("bench.run_experiment", "error_rows")

    for command in COMMANDS:
        m[f"cli.self_s.{command}"] = _mean(ix.self_time(i) for i in ix.named[f"cli.{command}"])
    return m


SETUP_METRICS = ("setup.import_s", "setup.inputs_s", "setup.warmup_s")
OVERHEAD_METRIC = "trace.overhead_ratio"


def unit_of(name: str) -> str:
    """Unit of a per-layer metric, from the naming conventions above."""
    if name.endswith("_s") or "_s." in name:
        return "s"
    if name.endswith("_gflop"):
        return "gflop"
    if name.endswith("_bytes"):
        return "B"
    if name.endswith("_ratio"):
        return "ratio"
    return "count"


# Which end-to-end metric each layer's metrics should move, on which workload.
LAYER_MAP = {
    "css": "analyze_p50_s.<alg> on analyze-ships; for b4/b3 only, bench_rows_per_s "
           "on bench-kahan; nothing on svir-pipeline",
    "linalg": "qr_col_pivoted -> analyze_p50_s.srrqr on analyze-ships; svd -> every "
              "analyze_p50_s.* on analyze-ships, and bench_rows_per_s",
    "numpy": "the same metrics as css",
    "metrics": "analyze_p50_s.* on analyze-ships (~10% of a request) and "
               "bench_rows_per_s (~12%)",
    "matio": "analyze_p50_s.* on analyze-ships through 1.5 MB CSV reads; "
             "svir_p50_s.* through writes",
    "odesens": "svir_p50_s.<method> on svir-pipeline only",
    "generators": "bench_rows_per_s on bench-kahan, and setup_s elsewhere",
    "bench": "bench_rows_per_s only",
    "cli": "analyze_p50_s.* on svir-pipeline",
    "setup": "setup_s",
    "trace": "nothing: tracing overhead, traced round 0 over the same round untraced",
}
