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

# pool name -> seeds analyzed here
SLICE = {"ships400": (0,), "kahan100": (0, 1, 2, 3)}


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
