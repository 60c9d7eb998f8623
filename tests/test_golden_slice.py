"""A slice of the benchmark's golden tables (perfbench/golden/), checked
through the CLI as the benchmark checks it, so that golden drift shows
before a benchmark run.  perfbench/ is read, never changed."""
import importlib
import json
import sys
from pathlib import Path

import pytest

from cssident.bench import realize
from cssident.cli import main
from cssident.matio import write_matrix

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"

# pool name -> seeds analyzed here; seeds run through ``cssident bench``
# (on ships200 seeds 0..3, srrqr swaps 3, 0, 5 and 4 times)
SLICE = {"ships400": (0,), "kahan100": (0, 1, 2, 3)}
BENCH_SLICE = {"kahan100": range(5), "gauss31x4": range(4), "ships200": range(4)}
# svir100 draws run through ``cssident svir``, then analyzed by gap policy
SVIR_SLICE = (0,)


@pytest.fixture(scope="module")
def perfbench():
    sys.path.insert(0, str(PERFBENCH))
    try:
        yield importlib.import_module("workloads"), importlib.import_module("golden")
    finally:
        sys.path.remove(str(PERFBENCH))


@pytest.mark.parametrize("pool_name", SLICE)
def test_analyses_match_the_golden_table(pool_name, perfbench, tmp_path):
    workloads, golden = perfbench
    pool = next(p for p in workloads.POOLS if p.name == pool_name)
    table = golden.load_table(pool_name)["analyze"]
    problems = []
    for seed in SLICE[pool_name]:
        path = tmp_path / f"{pool_name}-{seed}.csv"
        write_matrix(realize(pool.generator, seed), path)
        for alg in workloads.ALGORITHMS:
            out = tmp_path / f"{seed}-{alg}.json"
            argv = workloads.analyze_argv(path, alg, pool.policy_args(), out)
            assert main(list(argv)) == 0, (seed, alg)
            found = golden.compare_analysis(json.loads(out.read_text()),
                                            table[f"{seed}/{alg}"])
            problems += [f"{seed}/{alg} {p}" for p in found]
    assert not problems


@pytest.mark.parametrize("pool_name", BENCH_SLICE)
def test_bench_rows_match_the_golden_table(pool_name, perfbench, tmp_path):
    workloads, golden = perfbench
    pool = next(p for p in workloads.POOLS if p.name == pool_name)
    seeds = BENCH_SLICE[pool_name]
    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps(workloads.bench_spec(pool, seeds[0], len(seeds))))
    assert main(["bench", "--spec", str(spec), "--out-dir", str(tmp_path)]) == 0
    rows = golden.read_rows(tmp_path / "rows.csv")
    table = golden.load_table(pool_name)["rows"]
    keys = [f"{seed}/{alg}" for seed in seeds for alg in workloads.ALGORITHMS]
    assert sorted(rows) == sorted(keys)
    problems = [f"{key} {p}" for key in keys for p in golden.compare_row(rows[key], table[key])]
    assert not problems


@pytest.mark.parametrize("method", ("complex-step", "central-fd"))
def test_svir_analyses_match_the_golden_table(method, perfbench, tmp_path):
    workloads, golden = perfbench
    pool = next(p for p in workloads.POOLS if p.name == "svir100")
    table = golden.load_table(pool.name)["analyze"]
    problems = []
    for draw in SVIR_SLICE:
        sens = tmp_path / f"svir-{draw}.csv"
        assert main(list(workloads.svir_argv(draw, method, pool.substeps, sens))) == 0
        for alg in workloads.ALGORITHMS:
            out = tmp_path / f"{draw}-{alg}.json"
            argv = workloads.analyze_argv(sens, alg, ("--k-policy", "gap"), out)
            assert main(list(argv)) == 0, (draw, alg)
            found = golden.compare_analysis(json.loads(out.read_text()),
                                            table[f"{draw}/{method}/{alg}"])
            problems += [f"{draw}/{alg} {p}" for p in found]
    assert not problems
