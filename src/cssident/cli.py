"""Command line interface.

Subcommands: analyze, generate, bench, svir, verify-dyn, gram-demo.
Exit codes: 0 success, 2 input or validation error, 3 numerical failure
(verify-dyn additionally exits 1 when the verification tolerance is
exceeded).  All outputs are deterministic given identical flags and seed;
wall-clock timings appear only in JSON reports, never in CSV or matrix
files.  No environment variable changes a result: the numeric constants
are fixed in the config module.  A flag that feeds a library parameter
takes, when left out, the default its library owner states.
"""
from __future__ import annotations

import argparse
import functools
import json
import sys
from dataclasses import asdict, replace
from importlib import resources
from pathlib import Path

import numpy as np

from . import bench as bench_mod
from . import generators, linalg, odesens
from .bench import ExperimentSpec, run_experiment, write_json
from .css import ALGORITHMS, RankPolicy, SrrqrConfig, run_css
from .errors import InputDomainError
from .generators import FAMILIES, designated_k
from .linalg import SvdFactors, check_matrix
from .matio import read_matrix, write_matrix
from .metrics import compute_metrics, gram_loss_demo, theorem_bound_checks
from .odesens import (
    SensMethod,
    SvirParams,
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


@functools.cache
def schema_validator(name: str):
    # built once per process: the schema is checked against its metaschema
    # here, not on every request as jsonschema.validate would.  jsonschema
    # is imported on first use, so only the commands that validate load it.
    import jsonschema

    schema = load_schema(name)
    cls = jsonschema.validators.validator_for(schema)
    cls.check_schema(schema)
    return cls(schema)


def _given(args, *names) -> dict:
    # the flags the user set; the library's own defaults fill in the rest
    return {name: getattr(args, name) for name in names
            if getattr(args, name) is not None}


def cmd_analyze(args) -> int:
    chi = read_matrix(args.input)
    # RankPolicy rejects a --k or --eta that the mode does not read
    policy = RankPolicy(mode=args.k_policy, k=args.k, eta=args.eta)
    cfg = SrrqrConfig(**_given(args, "f"))
    chi_svd = linalg.svd(chi)
    result = run_css(chi, chi_svd, args.algorithm, policy, cfg)
    record = compute_metrics(chi, chi_svd, result)
    checks = theorem_bound_checks(chi_svd, result)
    payload = {
        "input": str(args.input),
        "algorithm": result.algorithm,
        "k": result.k,
        "k_policy": asdict(policy),
        "degenerate_k": result.degenerate_k,
        "identifiable": list(result.identifiable),
        "unidentifiable": list(result.unidentifiable),
        "swap_count": result.swap_count,
        "metrics": record.as_dict(),
        # vars, not asdict: asdict's deep copy costs ~12 us per check
        "bound_checks": [vars(c) for c in checks],
        "extras": result.extras,
    }
    write_json(payload, args.output)
    return EXIT_OK


def _generator_params(args) -> dict:
    # the generator description that realize() reads, as the sidecar records it
    if args.family not in generators.SEEDED_FAMILIES:
        if args.zeta is None:
            raise InputDomainError(f"{args.family} requires --zeta")
        return {"n": args.n, "zeta": args.zeta}
    if args.k is None or args.p is None:
        raise InputDomainError(f"{args.family} requires --p and --k")
    params: dict = {"n": args.n, "p": args.p}
    if args.family == "jolliffe":
        params |= {"block_size": args.block_size, "rho_range": list(args.rho_range)}
    spectrum = {"k": args.k, **_given(args, "leading", "trailing", "spacing")}
    params["spectrum"] = asdict(generators.spectrum_spec(args.family, spectrum))
    return params


def cmd_generate(args) -> int:
    family = args.family
    params = _generator_params(args)
    matrix = generators.realize({"family": family, **params}, args.seed)
    write_matrix(matrix, args.output, args.format)
    sidecar = {
        "family": family,
        "seed": args.seed if family in generators.SEEDED_FAMILIES else None,
        "params": params,
        "rows": int(matrix.shape[0]),
        "cols": int(matrix.shape[1]),
        "designated_k": designated_k(family, n=args.n, k=args.k),
        "format": args.format,
        "matrix_file": str(args.output),
    }
    write_json(sidecar, args.sidecar or str(args.output) + ".json")
    return EXIT_OK


def cmd_bench(args) -> int:
    try:
        raw = json.loads(Path(args.spec).read_text())
    except (OSError, UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise InputDomainError(f"cannot read bench spec: {exc}") from exc
    import jsonschema

    validator = schema_validator("bench_spec.schema.json")
    # jsonschema.validate's choice of error among several, without its
    # per-call metaschema check
    error = jsonschema.exceptions.best_match(validator.iter_errors(raw))
    if error is not None:
        raise InputDomainError(f"bench spec violates schema: {error.message}")
    spec = ExperimentSpec.from_dict(raw)
    report = run_experiment(spec)
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    bench_mod.write_rows_csv(report, out_dir / "rows.csv")
    bench_mod.write_report_json(report, out_dir / "report.json")
    return EXIT_OK


def cmd_svir(args) -> int:
    params = SvirParams(**_given(args, "beta", "nu", "alpha", "gamma"))
    state = replace(odesens.default_initial_state(**_given(args, "n_total", "i0")),
                    **_given(args, "s", "v", "r"))
    grid = odesens.DEFAULT_GRID if args.days is None else TimeGrid.days(args.days + 1)
    method = (SensMethod.central_fd if args.method == "central-fd"
              else SensMethod.complex_step)(**_given(args, "step"))
    sens = svir_sensitivity(params, state, grid, method, substeps=args.substeps)
    write_matrix(sens, args.output, args.format)
    sidecar = {
        "params": asdict(params),
        "initial_state": asdict(state),
        "times": [float(t) for t in grid.times],
        "method": asdict(method),
        "substeps": args.substeps,
        "rows": int(sens.shape[0]),
        "cols": int(sens.shape[1]),
        "format": args.format,
        "matrix_file": str(args.output),
    }
    write_json(sidecar, args.sidecar or str(args.output) + ".json")
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
    report = verify_prescribed_sensitivity(system, q, **_given(args, "tol"))
    payload = {**asdict(report), "horizon": args.t}
    if args.output:
        write_json(payload, args.output)
    print(f"relative error {report.rel_error:.6e} "
          f"({'<=' if report.passed else '>'} tol {report.tol:g})")
    return EXIT_OK if report.passed else EXIT_VERIFY_FAILED


def cmd_gram_demo(args) -> int:
    report = gram_loss_demo(**_given(args, "eta"))
    payload = {
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
        write_json(payload, args.output)
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
    pa.add_argument("--f", type=float, help="srrqr bound f >= 1")
    pa.add_argument("--output", required=True, help="output JSON path")
    pa.set_defaults(func=cmd_analyze)

    pg = sub.add_parser("generate", help="generate an adversarial test matrix")
    pg.add_argument("--family", required=True, choices=FAMILIES)
    pg.add_argument("--n", type=int, required=True)
    pg.add_argument("--p", type=int, default=None)
    pg.add_argument("--zeta", type=float, default=None)
    pg.add_argument("--k", type=int, default=None)
    pg.add_argument("--block-size", type=int, default=generators.JOLLIFFE_BLOCK_SIZE)
    pg.add_argument("--rho-range", type=float, nargs=2,
                    default=generators.JOLLIFFE_RHO_RANGE)
    pg.add_argument("--leading", type=float, nargs=2)
    pg.add_argument("--trailing", type=float, nargs=2)
    pg.add_argument("--spacing", choices=("uniform", "logspace"))
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
    ps.add_argument("--beta", type=float)
    ps.add_argument("--nu", type=float)
    ps.add_argument("--alpha", type=float)
    ps.add_argument("--gamma", type=float)
    ps.add_argument("--n-total", type=float)
    ps.add_argument("--i0", type=float)
    ps.add_argument("--s0", dest="s", type=float)
    ps.add_argument("--v0", dest="v", type=float)
    ps.add_argument("--r0", dest="r", type=float)
    ps.add_argument("--days", type=int, help="daily grid t = 0..days")
    ps.add_argument("--substeps", type=int, default=odesens.SVIR_SUBSTEPS)
    ps.add_argument("--method", choices=("central-fd", "complex-step"),
                    default=odesens.DEFAULT_SENS_METHOD.kind)
    ps.add_argument("--step", type=float, default=None,
                    help="central-fd: relative step, default eps**(1/3), at "
                         "least eps; complex-step: absolute step, default "
                         "1e-20, at least the smallest normal float")
    ps.add_argument("--format", choices=("csv", "matrixmarket"), default="csv")
    ps.add_argument("--output", required=True)
    ps.add_argument("--sidecar", default=None)
    ps.set_defaults(func=cmd_svir)

    pv = sub.add_parser("verify-dyn",
                        help="verify the prescribed-sensitivity construction")
    pv.add_argument("--svd", required=True,
                    help="JSON file with keys u, sigma, v")
    pv.add_argument("--t", type=float, default=1.0, help="horizon T > 0")
    pv.add_argument("--tol", type=float)
    pv.add_argument("--seed", type=int, default=0,
                    help="seed for the probe parameter vector")
    pv.add_argument("--output", default=None, help="optional output JSON")
    pv.set_defaults(func=cmd_verify_dyn)

    pd = sub.add_parser("gram-demo",
                        help="Gram-matrix precision loss demonstration")
    pd.add_argument("--eta", type=float)
    pd.add_argument("--output", default=None)
    pd.set_defaults(func=cmd_gram_demo)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    # by exception family: LinAlgError is a ValueError, so it is caught first
    try:
        return args.func(args)
    except (np.linalg.LinAlgError, ArithmeticError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    except (ValueError, OSError, MemoryError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())
