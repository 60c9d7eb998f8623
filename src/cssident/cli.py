"""Command line interface.

Subcommands: analyze, generate, bench, svir, verify-dyn, gram-demo.
Exit codes: 0 success, 2 input or validation error, 3 numerical failure
(verify-dyn additionally exits 1 when the verification tolerance is
exceeded).  All outputs are deterministic given identical flags and seed;
wall-clock timings appear only in JSON reports, never in CSV or matrix
files.  Numeric defaults can be overridden through CSSIDENT_* environment
variables (see config module).
"""
from __future__ import annotations

import argparse
import functools
import json
import sys
from importlib import resources
from pathlib import Path

import jsonschema
import numpy as np

from . import bench as bench_mod
from . import linalg
from .bench import ExperimentSpec, json_safe, realize, run_experiment
from .config import SCHEMA_VERSION
from .css import ALGORITHMS, RankPolicy, SrrqrConfig, run_css
from .errors import InputDomainError, IntegrationFailureError, NumericalFailureError
from .generators import FAMILIES, designated_k
from .linalg import SvdFactors, check_matrix
from .matio import read_matrix, write_matrix
from .metrics import compute_metrics, gram_loss_demo, theorem_bound_checks
from .odesens import (
    SensMethod,
    SvirParams,
    SvirState,
    TimeGrid,
    build_prescribed_system,
    svir_sensitivity,
    verify_prescribed_sensitivity,
)

EXIT_OK = 0
EXIT_VERIFY_FAILED = 1
EXIT_INPUT = 2
EXIT_NUMERICAL = 3


def load_schema(name: str) -> dict:
    path = resources.files("cssident.schemas").joinpath(name)
    return json.loads(path.read_text())


def _write_json(payload: dict, path) -> None:
    Path(path).write_text(json.dumps(json_safe(payload), indent=2) + "\n")


def _policy_from_args(args) -> RankPolicy:
    mode = args.k_policy
    if mode == "fixed":
        if args.k is None:
            raise InputDomainError("--k-policy fixed requires --k")
        return RankPolicy.fixed(args.k)
    if mode in ("absolute", "relative"):
        if args.eta is None:
            raise InputDomainError(f"--k-policy {mode} requires --eta")
        return RankPolicy(mode=mode, eta=args.eta)
    return RankPolicy.gap()


def cmd_analyze(args) -> int:
    chi = read_matrix(args.input)
    policy = _policy_from_args(args)
    cfg = SrrqrConfig(f=args.f)
    chi_svd = linalg.svd(chi)
    result = run_css(chi, chi_svd, args.algorithm, policy, cfg)
    record = compute_metrics(chi, chi_svd, result)
    checks = theorem_bound_checks(chi_svd, result, f=args.f)
    payload = {
        "schema_version": SCHEMA_VERSION,
        "input": str(args.input),
        "algorithm": result.algorithm,
        "k": result.k,
        "k_policy": {"mode": policy.mode, "k": policy.k, "eta": policy.eta},
        "degenerate_k": result.degenerate_k,
        "identifiable": list(result.identifiable),
        "unidentifiable": list(result.unidentifiable),
        "swap_count": result.swap_count,
        "metrics": record.as_dict(),
        "bound_checks": [
            {"name": c.name, "satisfied": c.satisfied, "lhs": c.lhs,
             "rhs": c.rhs, "sense": c.sense, "slack": c.slack}
            for c in checks
        ],
        "extras": result.extras,
    }
    _write_json(payload, args.output)
    return EXIT_OK


def _generator_params(args) -> dict:
    # the generator description that realize() reads, as the sidecar records it
    if args.family in ("kahan", "gu_eisenstat"):
        if args.zeta is None:
            raise InputDomainError(f"{args.family} requires --zeta")
        return {"n": args.n, "zeta": args.zeta}
    if args.k is None or args.p is None:
        raise InputDomainError(f"{args.family} requires --p and --k")
    params: dict = {"n": args.n, "p": args.p}
    if args.family == "jolliffe":
        params |= {"block_size": args.block_size, "rho_range": list(args.rho_range)}
    default_spacing = "logspace" if args.family == "ships" else "uniform"
    params["spectrum"] = {"k": args.k, "leading": list(args.leading),
                          "trailing": list(args.trailing),
                          "spacing": args.spacing or default_spacing}
    return params


def cmd_generate(args) -> int:
    family = args.family
    params = _generator_params(args)
    matrix = realize({"family": family, **params}, args.seed)
    write_matrix(matrix, args.output, args.format)
    sidecar = {
        "schema_version": SCHEMA_VERSION,
        "family": family,
        "seed": args.seed if family in ("jolliffe", "sorensen_embree", "ships") else None,
        "params": params,
        "rows": int(matrix.shape[0]),
        "cols": int(matrix.shape[1]),
        "designated_k": designated_k(family, n=args.n, k=args.k),
        "format": args.format,
        "matrix_file": str(args.output),
    }
    _write_json(sidecar, args.sidecar or str(args.output) + ".json")
    return EXIT_OK


def cmd_bench(args) -> int:
    try:
        raw = json.loads(Path(args.spec).read_text())
    except (OSError, json.JSONDecodeError) as exc:
        raise InputDomainError(f"cannot read bench spec: {exc}") from exc
    schema = load_schema("bench_spec.schema.json")
    try:
        jsonschema.validate(raw, schema)
    except jsonschema.ValidationError as exc:
        raise InputDomainError(f"bench spec violates schema: {exc.message}") from exc
    spec = ExperimentSpec.from_dict(raw)
    report = run_experiment(spec)
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    bench_mod.write_rows_csv(report, out_dir / "rows.csv")
    bench_mod.write_report_json(report, out_dir / "report.json")
    return EXIT_OK


def cmd_svir(args) -> int:
    params = SvirParams(beta=args.beta, nu=args.nu, alpha=args.alpha,
                        gamma=args.gamma)
    state = SvirState(s=args.s0 if args.s0 is not None else args.n_total - args.i0,
                      v=args.v0, i=args.i0, r=args.r0, n=args.n_total)
    grid = TimeGrid.days(args.days + 1)
    if args.method == "central-fd":
        method = SensMethod.central_fd() if args.step is None \
            else SensMethod.central_fd(args.step)
    else:
        method = SensMethod.complex_step() if args.step is None \
            else SensMethod.complex_step(args.step)
    sens = svir_sensitivity(params, state, grid, method, substeps=args.substeps)
    write_matrix(sens, args.output, args.format)
    sidecar = {
        "schema_version": SCHEMA_VERSION,
        "params": {"beta": params.beta, "nu": params.nu,
                   "alpha": params.alpha, "gamma": params.gamma},
        "initial_state": {"s": state.s, "v": state.v, "i": state.i,
                          "r": state.r, "n": state.n},
        "times": [float(t) for t in grid.times],
        "method": {"kind": method.kind, "step": method.step},
        "substeps": args.substeps,
        "rows": int(sens.shape[0]),
        "cols": int(sens.shape[1]),
        "format": args.format,
        "matrix_file": str(args.output),
    }
    _write_json(sidecar, args.sidecar or str(args.output) + ".json")
    return EXIT_OK


def cmd_verify_dyn(args) -> int:
    try:
        raw = json.loads(Path(args.svd).read_text())
        u = check_matrix(np.asarray(raw["u"], dtype=float), "u")
        sigma = np.asarray(raw["sigma"], dtype=float)
        v = check_matrix(np.asarray(raw["v"], dtype=float), "v")
    except (OSError, json.JSONDecodeError, KeyError, TypeError, ValueError) as exc:
        raise InputDomainError(f"cannot read SVD file: {exc}") from exc
    system = build_prescribed_system(
        SvdFactors(u=u, sigma=sigma, v=v), horizon=args.t
    )
    rng = np.random.default_rng(args.seed)
    q = rng.standard_normal(v.shape[0])
    report = verify_prescribed_sensitivity(system, q, tol=args.tol)
    payload = {
        "schema_version": SCHEMA_VERSION,
        "rel_error": report.rel_error,
        "tol": report.tol,
        "passed": report.passed,
        "horizon": args.t,
    }
    if args.output:
        _write_json(payload, args.output)
    print(f"relative error {report.rel_error:.6e} "
          f"({'<=' if report.passed else '>'} tol {report.tol:g})")
    return EXIT_OK if report.passed else EXIT_VERIFY_FAILED


def cmd_gram_demo(args) -> int:
    report = gram_loss_demo(eta=args.eta)
    payload = {
        "schema_version": SCHEMA_VERSION,
        "eta": report.eta,
        "gram_rank": report.gram_rank,
        "css_rank": report.css_rank,
        "sigma": [float(s) for s in report.sigma],
        "gram_eigenvalues": [float(x) for x in report.gram_eigenvalues],
        "gram": report.gram.tolist(),
    }
    print(f"gram_rank = {report.gram_rank}, css_rank = {report.css_rank} "
          f"(relative eta = {report.eta:g})")
    if args.output:
        _write_json(payload, args.output)
    return EXIT_OK


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    # built once per process; parsing leaves the parser unchanged
    parser = argparse.ArgumentParser(
        prog="cssident",
        description="Parameter identifiability analysis by column subset "
                    "selection on sensitivity matrices.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    pa = sub.add_parser("analyze", help="run one CSS algorithm on a matrix file")
    pa.add_argument("--input", required=True, help="matrix file (CSV or MatrixMarket)")
    pa.add_argument("--algorithm", required=True, choices=ALGORITHMS)
    pa.add_argument("--k-policy", default="gap",
                    choices=("fixed", "absolute", "relative", "gap"))
    pa.add_argument("--k", type=int, default=None)
    pa.add_argument("--eta", type=float, default=None)
    pa.add_argument("--f", type=float, default=1.0, help="srrqr bound f >= 1")
    pa.add_argument("--output", required=True, help="output JSON path")
    pa.set_defaults(func=cmd_analyze)

    pg = sub.add_parser("generate", help="generate an adversarial test matrix")
    pg.add_argument("--family", required=True, choices=FAMILIES)
    pg.add_argument("--n", type=int, required=True)
    pg.add_argument("--p", type=int, default=None)
    pg.add_argument("--zeta", type=float, default=None)
    pg.add_argument("--k", type=int, default=None)
    pg.add_argument("--block-size", type=int, default=5)
    pg.add_argument("--rho-range", type=float, nargs=2, default=(0.9, 0.99999))
    pg.add_argument("--leading", type=float, nargs=2, default=(1e2, 1e3))
    pg.add_argument("--trailing", type=float, nargs=2, default=(1e-10, 10 ** 1.9))
    pg.add_argument("--spacing", choices=("uniform", "logspace"), default=None)
    pg.add_argument("--seed", type=int, default=0)
    pg.add_argument("--format", choices=("csv", "matrixmarket"), default="csv")
    pg.add_argument("--output", required=True)
    pg.add_argument("--sidecar", default=None,
                    help="sidecar JSON path (default: <output>.json)")
    pg.set_defaults(func=cmd_generate)

    pb = sub.add_parser("bench", help="run a benchmark experiment spec")
    pb.add_argument("--spec", required=True, help="experiment spec JSON")
    pb.add_argument("--out-dir", required=True)
    pb.set_defaults(func=cmd_bench)

    ps = sub.add_parser("svir", help="write the SVIR sensitivity matrix")
    ps.add_argument("--beta", type=float, default=0.80)
    ps.add_argument("--nu", type=float, default=0.004)
    ps.add_argument("--alpha", type=float, default=0.10)
    ps.add_argument("--gamma", type=float, default=0.14)
    ps.add_argument("--n-total", type=float, default=1e5)
    ps.add_argument("--i0", type=float, default=10.0)
    ps.add_argument("--s0", type=float, default=None,
                    help="default: n_total - i0")
    ps.add_argument("--v0", type=float, default=0.0)
    ps.add_argument("--r0", type=float, default=0.0)
    ps.add_argument("--days", type=int, default=30,
                    help="daily grid t = 0..days")
    ps.add_argument("--substeps", type=int, default=100)
    ps.add_argument("--method", choices=("central-fd", "complex-step"),
                    default="complex-step")
    ps.add_argument("--step", type=float, default=None)
    ps.add_argument("--format", choices=("csv", "matrixmarket"), default="csv")
    ps.add_argument("--output", required=True)
    ps.add_argument("--sidecar", default=None)
    ps.set_defaults(func=cmd_svir)

    pv = sub.add_parser("verify-dyn",
                        help="verify the prescribed-sensitivity construction")
    pv.add_argument("--svd", required=True,
                    help="JSON file with keys u, sigma, v")
    pv.add_argument("--t", type=float, default=1.0, help="horizon T > 0")
    pv.add_argument("--tol", type=float, default=1e-10)
    pv.add_argument("--seed", type=int, default=0,
                    help="seed for the probe parameter vector")
    pv.add_argument("--output", default=None, help="optional output JSON")
    pv.set_defaults(func=cmd_verify_dyn)

    pd = sub.add_parser("gram-demo",
                        help="Gram-matrix precision loss demonstration")
    pd.add_argument("--eta", type=float, default=1e-12)
    pd.add_argument("--output", default=None)
    pd.set_defaults(func=cmd_gram_demo)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except InputDomainError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except (NumericalFailureError, IntegrationFailureError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())
