"""Multi-realization experiment runner and aggregation.

An experiment draws ``realizations`` matrices from one generator
description (seed = base_seed + i), decomposes each once, runs each
configured algorithm on it, computes metrics, and aggregates
mean/median/min/max/quartiles per algorithm.  Per-row results go to CSV,
aggregates (and wall-clock times, which are not part of the
deterministic row data) go to JSON.

The description is read by :func:`cssident.generators.realize`, which
owns its keys and defaults; ``realize`` is bound here so that run_experiment
calls it through this module.  An algorithm the spec gives no f runs with
``SrrqrConfig``'s default.  A description realize rejects (a missing key,
a NaN range) becomes ``generator: ...`` error rows, not an exit.
"""
from __future__ import annotations

import csv
import json
import time
from dataclasses import asdict, dataclass, field
from pathlib import Path

import numpy as np

from . import linalg
from .config import FLOAT_FMT, SCHEMA_VERSION
from .css import ALGORITHMS, RankPolicy, SrrqrConfig, run_css
from .errors import CssIdentError, InputDomainError
from .generators import realize
from .metrics import compute_metrics

CSV_COLUMNS = (
    "seed", "algorithm", "k", "tau", "gamma1", "gamma2",
    "gamma2_flag", "tau_flag", "degenerate_k", "swap_count", "error",
)


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
            k_policy=RankPolicy(mode=policy["mode"], k=policy.get("k"),
                                eta=policy.get("eta")),
            realizations=int(d["realizations"]),
            base_seed=int(d.get("base_seed", cls.base_seed)),
            f=dict(d.get("f", {})),
        )

    def as_dict(self) -> dict:
        # the policy as a spec writes it: k when set, eta when nonzero
        policy = {key: val for key, val in asdict(self.k_policy).items()
                  if val is not None and (key != "eta" or val)}
        return asdict(self) | {"algorithms": list(self.algorithms), "k_policy": policy}


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
    # interpolation involving inf is ill-defined: then take order statistics
    q1, med, q3 = np.percentile(
        arr, (25, 50, 75),
        method="linear" if np.all(np.isfinite(arr)) else "nearest")
    return {
        "mean": float(np.mean(arr)),
        "median": float(med),
        "min": float(np.min(arr)),
        "max": float(np.max(arr)),
        "q1": float(q1),
        "q3": float(q3),
        "count": int(arr.size),
    }


def run_experiment(spec: ExperimentSpec) -> AggregateReport:
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
            chi_svd = linalg.svd(chi)
        except CssIdentError as exc:
            rows.extend(_error_row(seed, alg, str(exc)) for alg in spec.algorithms)
            continue
        for alg in spec.algorithms:
            t0 = time.perf_counter()
            try:
                cfg = SrrqrConfig(f=float(spec.f.get(alg, SrrqrConfig.f)))
                result = run_css(chi, chi_svd, alg, spec.k_policy, cfg)
                rec = compute_metrics(chi, chi_svd, result)
            except CssIdentError as exc:
                rows.append(_error_row(seed, alg, str(exc)))
                continue
            finally:
                wall[alg] += time.perf_counter() - t0
            fields = rec.as_dict() | {
                "seed": seed, "algorithm": alg, "degenerate_k": result.degenerate_k,
                "swap_count": result.swap_count, "error": ""}
            rows.append({col: fields[col] for col in CSV_COLUMNS})
    wall["total"] = time.perf_counter() - t_start
    return AggregateReport(
        spec=spec,
        rows=tuple(sorted(rows, key=lambda r: (r["seed"], r["algorithm"]))),
        stats=aggregate_rows(rows, spec.algorithms),
        wall_time_s=wall,
    )


def _error_row(seed: int, alg: str, message: str) -> dict:
    return dict.fromkeys(CSV_COLUMNS) | {
        "seed": seed, "algorithm": alg, "gamma2_flag": "", "tau_flag": "",
        "degenerate_k": False, "swap_count": 0, "error": message}


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
        return FLOAT_FMT % value
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


def write_json(payload: dict, path) -> None:
    """Write ``payload`` as strict JSON, indented, ``schema_version`` first."""
    document = json_safe({"schema_version": SCHEMA_VERSION} | payload)
    Path(path).write_text(json.dumps(document, indent=2, allow_nan=False) + "\n")


def write_report_json(report: AggregateReport, path) -> None:
    write_json({"spec": report.spec.as_dict(), "stats": report.stats,
                "wall_time_s": report.wall_time_s}, path)
