"""Record the golden answers of every input pool into ``golden/``.

    python3 perfbench/record_golden.py

Runs the CLI in-process, exactly as the benchmark does, over every entry
of each pool in ``workloads.POOLS`` and stores what it printed.  Golden
answers are recorded once, from a commit whose outputs are trusted; a
later change that alters any of them fails the benchmark's output check.
"""
from __future__ import annotations

import json
import shutil
import sys
from pathlib import Path

from run import RUNS, environment, import_cli  # pins BLAS threads first

import numpy as np  # noqa: E402

import golden  # noqa: E402
from workloads import (  # noqa: E402
    ALGORITHMS, METHODS, POOLS, MatrixPool, analyze_argv, bench_spec, svir_argv,
)


def run_cli(cli, argv) -> None:
    if cli.main(list(argv)) != 0:
        raise RuntimeError(f"request failed: {' '.join(argv)}")


def record_matrices(cli, pool: MatrixPool, work: Path) -> dict:
    from cssident.bench import realize
    from cssident.matio import write_matrix
    table: dict = {"generator": pool.generator, "policy": pool.policy}
    if pool.analyzed:
        table["analyze"] = {}
        for seed in range(pool.size):
            path = work / "input.csv"
            write_matrix(realize(pool.generator, seed), path)
            for alg in ALGORITHMS:
                out = work / "analyze.json"
                run_cli(cli, analyze_argv(path, alg, pool.policy_args(), out))
                table["analyze"][f"{seed}/{alg}"] = golden.analysis_entry(
                    json.loads(out.read_text()))
    if pool.rows:
        spec = work / "spec.json"
        spec.write_text(json.dumps(bench_spec(pool, 0, pool.size)))
        run_cli(cli, ("bench", "--spec", str(spec), "--out-dir", str(work / "bench")))
        table["rows"] = golden.read_rows(work / "bench" / "rows.csv")
    return table


def record_svir(cli, pool, work: Path) -> dict:
    table: dict = {"substeps": pool.substeps, "sens": {}}
    if pool.analyzed:
        table["analyze"] = {}
    for draw in range(pool.size):
        for method in METHODS:
            sens = work / "sens.csv"
            run_cli(cli, svir_argv(draw, method, pool.substeps, sens))
            key = f"{draw}/{method}"
            table["sens"][key] = np.loadtxt(sens, delimiter=",", ndmin=2).tolist()
            if pool.analyzed:
                for alg in ALGORITHMS:
                    out = work / "analyze.json"
                    run_cli(cli, analyze_argv(sens, alg, ("--k-policy", "gap"), out))
                    table["analyze"][f"{key}/{alg}"] = golden.analysis_entry(
                        json.loads(out.read_text()))
    return table


def main() -> int:
    cli = import_cli()
    env = environment()
    work = RUNS / "record-golden"
    work.mkdir(parents=True, exist_ok=True)
    try:
        for pool in POOLS:
            table = (record_matrices(cli, pool, work) if isinstance(pool, MatrixPool)
                     else record_svir(cli, pool, work))
            table.update(pool=pool.name, size=pool.size, environment=env)
            golden.save_table(pool.name, table)
            print(f"recorded {pool.name}")
    finally:
        shutil.rmtree(work, ignore_errors=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
