"""Golden answers and the output check behind ``failed`` and ``correct``.

Each golden table (``golden/<name>.json``) holds, per pool entry, what
the program printed when the table was recorded:

* ``analyze``: key ``"<seed>/<algorithm>"`` (or ``"<draw>/<method>/<algorithm>"``
  for SVIR sensitivities) -> k, a digest of the identifiable/unidentifiable
  split, swap count, the metrics and the indices of unsatisfied bound checks;
* ``rows``: key ``"<seed>/<algorithm>"`` -> one ``cssident bench`` row;
* ``sens``: key ``"<draw>/<method>"`` -> the SVIR sensitivity matrix.

Integers, flags, strings and the split must match exactly.  Floats of
analyses and rows must match to a relative 1e-6, which absorbs last-ulp
drift between BLAS builds and thread counts; sensitivities to 1e-10.
"""
from __future__ import annotations

import csv
import hashlib
import json
import math
from pathlib import Path

import numpy as np

GOLDEN_DIR = Path(__file__).resolve().parent / "golden"

METRIC_RTOL = 1e-6
SENS_RTOL = 1e-10

ROW_EXACT = ("k", "gamma2_flag", "tau_flag", "degenerate_k", "swap_count", "error")
ROW_FLOAT = ("tau", "gamma1", "gamma2")


def load_table(name: str) -> dict:
    return json.loads((GOLDEN_DIR / f"{name}.json").read_text())


def save_table(name: str, table: dict) -> None:
    GOLDEN_DIR.mkdir(exist_ok=True)
    (GOLDEN_DIR / f"{name}.json").write_text(
        json.dumps(table, sort_keys=True, separators=(",", ":")) + "\n"
    )


def split_digest(identifiable, unidentifiable) -> str:
    """Order-independent digest of the identifiable/unidentifiable split."""
    text = json.dumps([sorted(identifiable), sorted(unidentifiable)])
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def analysis_entry(payload: dict) -> dict:
    """The golden record of one ``cssident analyze`` output JSON."""
    checks = payload["bound_checks"]
    return {
        "k": payload["k"],
        "split": split_digest(payload["identifiable"], payload["unidentifiable"]),
        "swap_count": payload["swap_count"],
        "degenerate_k": payload["degenerate_k"],
        "metrics": payload["metrics"],
        "checks": len(checks),
        "unsatisfied": [i for i, c in enumerate(checks) if not c["satisfied"]],
    }


def close(a, b, rtol: float) -> bool:
    """Equal up to ``rtol`` for finite floats, exactly equal otherwise."""
    if isinstance(a, bool) or isinstance(b, bool) or not (
        isinstance(a, (int, float)) and isinstance(b, (int, float))
    ):
        return a == b
    if a == b:
        return True
    if not (math.isfinite(a) and math.isfinite(b)):
        return False
    return abs(a - b) <= rtol * max(abs(a), abs(b))


def compare_analysis(payload: dict, gold: dict) -> list[str]:
    """Mismatches between an analyze output JSON and its golden entry."""
    got = analysis_entry(payload)
    problems = [
        f"{field}: {got[field]!r} != {gold[field]!r}"
        for field in ("k", "split", "swap_count", "degenerate_k", "checks", "unsatisfied")
        if got[field] != gold[field]
    ]
    if set(got["metrics"]) != set(gold["metrics"]):
        problems.append("metric names differ")
    else:
        problems += [
            f"metrics.{name}: {got['metrics'][name]!r} != {value!r}"
            for name, value in gold["metrics"].items()
            if not close(got["metrics"][name], value, METRIC_RTOL)
        ]
    return problems


def compare_row(row: dict, gold: dict) -> list[str]:
    """Mismatches between one parsed ``rows.csv`` row and its golden row."""
    problems = [f"{c}: {row[c]!r} != {gold[c]!r}" for c in ROW_EXACT if row[c] != gold[c]]
    problems += [
        f"{c}: {row[c]!r} != {gold[c]!r}"
        for c in ROW_FLOAT if not close(row[c], gold[c], METRIC_RTOL)
    ]
    return problems


def compare_matrix(got: np.ndarray, gold) -> list[str]:
    """Mismatch of a sensitivity matrix, relative to its largest entry."""
    ref = np.asarray(gold, dtype=float)
    if got.shape != ref.shape:
        return [f"shape {got.shape} != {ref.shape}"]
    err = float(np.max(np.abs(got - ref)))
    scale = float(np.max(np.abs(ref)))
    if err > SENS_RTOL * scale:
        return [f"max deviation {err:.3e} exceeds {SENS_RTOL:g} x {scale:.3e}"]
    return []


def _optional(cast):
    return lambda text: cast(text) if text else None


_ROW_TYPES = {
    "seed": int, "algorithm": str, "k": _optional(int), "tau": _optional(float),
    "gamma1": _optional(float), "gamma2": _optional(float),
    "gamma2_flag": str, "tau_flag": str, "degenerate_k": lambda t: t == "1",
    "swap_count": int, "error": str,
}


def read_rows(path) -> dict[str, dict]:
    """Parse a bench ``rows.csv`` into ``{"<seed>/<algorithm>": row}``."""
    with open(path, newline="") as fh:
        rows = [{col: _ROW_TYPES[col](raw[col]) for col in _ROW_TYPES}
                for raw in csv.DictReader(fh)]
    return {f"{r['seed']}/{r['algorithm']}": r for r in rows}


def check(kind: str, output: Path, table: dict, keys) -> tuple[int, list[str]]:
    """Check one request's output; returns (failed units, problems)."""
    if kind == "analyze":
        problems = compare_analysis(json.loads(Path(output).read_text()),
                                    table["analyze"][keys[0]])
        return int(bool(problems)), problems
    if kind == "svir":
        got = np.loadtxt(output, delimiter=",", ndmin=2)
        problems = compare_matrix(got, table["sens"][keys[0]])
        return int(bool(problems)), problems
    rows = read_rows(Path(output) / "rows.csv")
    extra = sorted(set(rows) - set(keys))
    failed, problems = len(extra), [f"{key} not requested" for key in extra]
    for key in keys:
        found = compare_row(rows[key], table["rows"][key]) if key in rows else ["missing"]
        if found:
            failed += 1
            problems += [f"{key} {p}" for p in found]
    return failed, problems
