"""Multi-realization experiment runner and aggregation.

An experiment draws ``realizations`` matrices from one generator family
(seed = base_seed + i), decomposes each once, runs each configured
algorithm on it, computes metrics,
and aggregates mean/median/min/max/quartiles per algorithm.  Per-row
results go to CSV, aggregates (and wall-clock times, which are not part
of the deterministic row data) go to JSON.
"""
from __future__ import annotations

import csv
import json
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import linalg
from .config import DEFAULT, SCHEMA_VERSION, Tolerances
from .css import ALGORITHMS, RankPolicy, SrrqrConfig, run_css
from .errors import CssIdentError, InputDomainError
from .generators import (
    SpectrumSpec,
    gen_gu_eisenstat,
    gen_jolliffe,
    gen_kahan,
    gen_ships,
    gen_sorensen_embree,
)
from .metrics import compute_metrics

_FLOAT_FMT = "%.17g"

CSV_COLUMNS = (
    "seed", "algorithm", "k", "tau", "gamma1", "gamma2",
    "gamma2_flag", "tau_flag", "degenerate_k", "swap_count", "error",
)


def _spectrum_from_dict(d: dict, default_spacing: str = "uniform") -> SpectrumSpec:
    return SpectrumSpec(
        k=int(d["k"]),
        leading=tuple(d.get("leading", (1e2, 1e3))),
        trailing=tuple(d.get("trailing", (1e-10, 10 ** 1.9))),
        spacing=d.get("spacing", default_spacing),
    )


def _zeta_for(params: dict, rng: np.random.Generator) -> float:
    if "zeta" in params:
        return float(params["zeta"])
    lo, hi = params.get("zeta_range", (0.9, 0.99999))
    return float(rng.uniform(lo, hi))


def realize(generator: dict, seed: int) -> np.ndarray:
    """Draw one matrix from a generator description.

    ``generator`` carries a 'family' key plus family parameters; see the
    bench spec schema for the accepted layouts.
    """
    params = dict(generator)
    try:
        family = params.pop("family")
    except KeyError as exc:
        raise InputDomainError("generator description needs a 'family'") from exc
    rng = np.random.default_rng(seed)
    if family == "identity":
        n = int(params["n"])
        return np.eye(n, int(params.get("p", n)))
    if family == "gaussian":
        return rng.standard_normal((int(params["n"]), int(params["p"])))
    if family == "kahan":
        return gen_kahan(int(params["n"]), _zeta_for(params, rng))
    if family == "gu_eisenstat":
        return gen_gu_eisenstat(int(params["n"]), _zeta_for(params, rng))
    if family == "jolliffe":
        spec = _spectrum_from_dict(params["spectrum"]) if "spectrum" in params else None
        return gen_jolliffe(
            int(params["n"]), int(params["p"]),
            block_size=int(params.get("block_size", 5)),
            rho_range=tuple(params.get("rho_range", (0.9, 0.99999))),
            spec=spec, seed=seed,
        )
    if family == "sorensen_embree":
        spec = _spectrum_from_dict(params["spectrum"])
        return gen_sorensen_embree(int(params["n"]), int(params["p"]), spec, seed)
    if family == "ships":
        spec = (
            _spectrum_from_dict(params["spectrum"], default_spacing="logspace")
            if "spectrum" in params else None
        )
        return gen_ships(int(params["n"]), int(params["p"]), spec, seed)
    raise InputDomainError(f"unknown generator family {family!r}")


@dataclass(frozen=True)
class ExperimentSpec:
    """One benchmark run: generator, algorithms, rank policy, srrqr f."""

    generator: dict
    algorithms: tuple[str, ...]
    k_policy: RankPolicy
    realizations: int
    base_seed: int = 0
    f: dict = field(default_factory=dict)  # per-algorithm srrqr bound

    def __post_init__(self):
        if self.realizations < 1:
            raise InputDomainError("realizations must be >= 1")
        for alg in self.algorithms:
            if alg not in ALGORITHMS:
                raise InputDomainError(f"unknown algorithm {alg!r}")

    @classmethod
    def from_dict(cls, d: dict) -> "ExperimentSpec":
        policy = d["k_policy"]
        return cls(
            generator=dict(d["generator"]),
            algorithms=tuple(a.lower() for a in d["algorithms"]),
            k_policy=RankPolicy(
                mode=policy["mode"],
                k=policy.get("k"),
                eta=float(policy.get("eta", 0.0)),
            ),
            realizations=int(d["realizations"]),
            base_seed=int(d.get("base_seed", 0)),
            f=dict(d.get("f", {})),
        )

    def as_dict(self) -> dict:
        policy: dict = {"mode": self.k_policy.mode}
        if self.k_policy.k is not None:
            policy["k"] = self.k_policy.k
        if self.k_policy.eta:
            policy["eta"] = self.k_policy.eta
        return {
            "generator": dict(self.generator),
            "algorithms": list(self.algorithms),
            "k_policy": policy,
            "realizations": self.realizations,
            "base_seed": self.base_seed,
            "f": dict(self.f),
        }


@dataclass(frozen=True)
class AggregateReport:
    spec: ExperimentSpec
    rows: tuple[dict, ...]
    stats: dict
    wall_time_s: dict


_STAT_FIELDS = ("mean", "median", "min", "max", "q1", "q3")


def _stats_of(values: list[float]) -> dict:
    if not values:
        return {name: None for name in _STAT_FIELDS} | {"count": 0}
    arr = np.asarray(values, dtype=float)
    finite = arr[np.isfinite(arr)]
    q1, med, q3 = (
        np.percentile(arr, (25, 50, 75)) if finite.size == arr.size
        else _percentile_with_inf(arr)
    )
    return {
        "mean": float(np.mean(arr)),
        "median": float(med),
        "min": float(np.min(arr)),
        "max": float(np.max(arr)),
        "q1": float(q1),
        "q3": float(q3),
        "count": int(arr.size),
    }


def _percentile_with_inf(arr: np.ndarray) -> tuple[float, float, float]:
    # interpolation involving inf is ill-defined; fall back to order statistics
    s = np.sort(arr)
    idx = [int(round(q * (s.size - 1))) for q in (0.25, 0.5, 0.75)]
    return s[idx[0]], s[idx[1]], s[idx[2]]


def run_experiment(spec: ExperimentSpec, tol: Tolerances = DEFAULT) -> AggregateReport:
    """Run every realization and aggregate per-algorithm statistics.

    Individual realization failures are recorded in their row's ``error``
    field and excluded from the statistics; they do not abort the run.
    """
    rows: list[dict] = []
    wall: dict = {alg: 0.0 for alg in spec.algorithms}
    t_start = time.perf_counter()
    for i in range(spec.realizations):
        seed = spec.base_seed + i
        try:
            chi = realize(spec.generator, seed)
        except CssIdentError as exc:
            for alg in spec.algorithms:
                rows.append(_error_row(seed, alg, f"generator: {exc}"))
            continue
        try:
            chi_svd = linalg.svd(chi, tol)
        except CssIdentError as exc:
            rows.extend(_error_row(seed, alg, str(exc)) for alg in spec.algorithms)
            continue
        for alg in spec.algorithms:
            t0 = time.perf_counter()
            try:
                cfg = SrrqrConfig(f=float(spec.f.get(alg, 1.0)))
                result = run_css(chi, chi_svd, alg, spec.k_policy, cfg, tol)
                rec = compute_metrics(chi, chi_svd, result, tol)
            except CssIdentError as exc:
                rows.append(_error_row(seed, alg, str(exc)))
                continue
            finally:
                wall[alg] += time.perf_counter() - t0
            rows.append({
                "seed": seed,
                "algorithm": alg,
                "k": rec.k,
                "tau": rec.tau,
                "gamma1": rec.gamma1,
                "gamma2": rec.gamma2,
                "gamma2_flag": rec.gamma2_flag,
                "tau_flag": rec.tau_flag,
                "degenerate_k": result.degenerate_k,
                "swap_count": result.swap_count,
                "error": "",
            })
    wall["total"] = time.perf_counter() - t_start
    return AggregateReport(
        spec=spec,
        rows=tuple(sorted(rows, key=lambda r: (r["seed"], r["algorithm"]))),
        stats=aggregate_rows(rows, spec.algorithms),
        wall_time_s=wall,
    )


def _error_row(seed: int, alg: str, message: str) -> dict:
    return {
        "seed": seed, "algorithm": alg, "k": None, "tau": None,
        "gamma1": None, "gamma2": None, "gamma2_flag": "", "tau_flag": "",
        "degenerate_k": False, "swap_count": 0, "error": message,
    }


def aggregate_rows(rows: list[dict], algorithms) -> dict:
    """Order-independent per-algorithm statistics over metric rows."""
    ordered = sorted(rows, key=lambda r: (r["seed"], r["algorithm"]))
    stats: dict = {}
    for alg in algorithms:
        mine = [r for r in ordered if r["algorithm"] == alg and not r["error"]]
        tau_vals = [r["tau"] for r in mine if r["tau"] is not None]
        stats[alg] = {
            "tau": _stats_of(tau_vals),
            "gamma1": _stats_of([r["gamma1"] for r in mine]),
            "gamma2": _stats_of([r["gamma2"] for r in mine]),
            "tau_undefined": sum(1 for r in mine if r["tau"] is None),
            "gamma2_exact_deficiency": sum(
                1 for r in mine if r["gamma2_flag"] == "exact-deficiency"
            ),
            "gamma2_infinite": sum(
                1 for r in mine if r["gamma2_flag"] == "infinite"
            ),
            "failures": sum(
                1 for r in ordered if r["algorithm"] == alg and r["error"]
            ),
            "rows": len(mine),
        }
    return stats


def _cell(value) -> str:
    if value is None:
        return ""
    if isinstance(value, bool):
        return "1" if value else "0"
    if isinstance(value, float):
        return _FLOAT_FMT % value
    return str(value)


def write_rows_csv(report: AggregateReport, path) -> None:
    """Per-realization rows, one line per (seed, algorithm)."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(CSV_COLUMNS)
        for row in report.rows:
            writer.writerow([_cell(row[col]) for col in CSV_COLUMNS])


def read_rows_csv(path) -> list[dict]:
    """Read rows written by :func:`write_rows_csv`."""
    out = []
    with open(path, newline="") as fh:
        for raw in csv.DictReader(fh):
            out.append({
                "seed": int(raw["seed"]),
                "algorithm": raw["algorithm"],
                "k": int(raw["k"]) if raw["k"] else None,
                "tau": float(raw["tau"]) if raw["tau"] else None,
                "gamma1": float(raw["gamma1"]) if raw["gamma1"] else None,
                "gamma2": float(raw["gamma2"]) if raw["gamma2"] else None,
                "gamma2_flag": raw["gamma2_flag"],
                "tau_flag": raw["tau_flag"],
                "degenerate_k": raw["degenerate_k"] == "1",
                "swap_count": int(raw["swap_count"]) if raw["swap_count"] else 0,
                "error": raw["error"],
            })
    return out


def json_safe(obj):
    """Replace non-finite floats by strings so the output is strict JSON."""
    if isinstance(obj, dict):
        return {key: json_safe(val) for key, val in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [json_safe(val) for val in obj]
    if isinstance(obj, float) and not np.isfinite(obj):
        return repr(obj)  # 'inf', '-inf', 'nan'
    return obj


def report_as_dict(report: AggregateReport) -> dict:
    return json_safe({
        "schema_version": SCHEMA_VERSION,
        "spec": report.spec.as_dict(),
        "stats": report.stats,
        "wall_time_s": report.wall_time_s,
    })


def write_report_json(report: AggregateReport, path) -> None:
    Path(path).write_text(
        json.dumps(report_as_dict(report), indent=2, allow_nan=False) + "\n"
    )
