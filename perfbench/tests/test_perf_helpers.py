"""Tests of the benchmark's own helpers.

    python3 -m pytest perfbench/tests
"""
import copy
import json

import numpy as np
import pytest

import golden
import measure
import run
import tracing
from tracing import Span, SpanIndex, Tracer, qr_flops, svd_flops

BENCHMARK = json.loads((run.ROOT / "BENCHMARK.json").read_text())


# ------------------------------------------------------------ tail rule

def test_tail_is_highest_percentile_with_ten_beyond():
    value, pct, n = measure.tail(range(1, 101))
    assert (value, pct, n) == (90, 90.0, 100)
    assert sum(x > value for x in range(1, 101)) == 10


def test_tail_of_eleven_samples_is_the_smallest():
    samples = [5.0, 1.0, 3.0, 2.0, 4.0, 6.0, 7.0, 8.0, 9.0, 10.0, 11.0]
    value, pct, n = measure.tail(samples)
    assert value == 1.0 and n == 11
    assert pct == pytest.approx(100.0 / 11)


def test_tail_without_eleven_samples_falls_back_to_the_maximum():
    assert measure.tail([3.0, 1.0, 2.0]) == (3.0, None, 3)
    with pytest.raises(ValueError):
        measure.tail([])


def test_quartile_spread_and_direction():
    assert measure.quartile_spread([1.0] * 10) == 0.0
    assert measure.worse_by(2.0, 2.2, "lower") == pytest.approx(0.1)
    assert measure.worse_by(2.0, 2.2, "higher") == pytest.approx(-0.1)


# ------------------------------------------------- self-time arithmetic

def test_union_length_merges_overlaps():
    assert tracing.union_length([(5, 6), (0, 2), (1, 3)]) == 4
    assert tracing.union_length([(0, 4), (1, 2)]) == 4
    assert tracing.union_length([]) == 0


def nested_spans():
    # cli.analyze [0,10] > css.run_css [1,4] > numpy.svd [2,3]
    #                    > linalg.svd [5,9] > numpy.svd [6,8]
    return [
        Span("cli.analyze", 0.0, 10.0, -1, 0),
        Span("css.run_css", 1.0, 4.0, 0, 0),
        Span("numpy.svd", 2.0, 3.0, 1, 0),
        Span("linalg.svd", 5.0, 9.0, 0, 0),
        Span("numpy.svd", 6.0, 8.0, 3, 0),
    ]


def test_self_time_subtracts_direct_children():
    ix = SpanIndex(nested_spans())
    assert ix.self_time(0) == 3.0
    assert ix.self_time(1) == 2.0
    assert ix.self_time(3) == 2.0
    assert ix.self_time(2) == 1.0


def test_self_time_excluding_layers_counts_outermost_matches_once():
    ix = SpanIndex(nested_spans())
    lapack = lambda s: s.layer in ("linalg", "numpy")  # noqa: E731
    # the numpy span under linalg.svd lies inside it and is not counted twice
    assert ix.self_time(0, lapack) == 10.0 - 1.0 - 4.0
    assert ix.count_below(0, "numpy.svd") == 2


def test_tracer_records_parents_and_requests():
    tracer = Tracer()
    inner = tracer.wrap("numpy.svd", lambda: 1)
    outer = tracer.wrap("linalg.svd", lambda: inner() + inner())
    tracer.request = 7
    assert tracer.call("cli.analyze", outer, (), {}) == 2
    assert [(s.name, s.parent, s.request) for s in tracer.spans] == [
        ("cli.analyze", -1, 7), ("linalg.svd", 0, 7),
        ("numpy.svd", 1, 7), ("numpy.svd", 1, 7)]
    assert all(s.start <= s.end for s in tracer.spans)


# ------------------------------------------------------- golden compare

def analysis_payload():
    return {
        "k": 2, "identifiable": [3, 0], "unidentifiable": [1, 2],
        "swap_count": 1, "degenerate_k": False,
        "metrics": {"algorithm": "srrqr", "k": 2, "gamma1": 0.7071067811865476,
                    "gamma2": 1.25, "tau": None, "gamma2_flag": "ok",
                    "tau_flag": "undefined", "cond_chi": "inf"},
        "bound_checks": [{"name": "a", "satisfied": True},
                         {"name": "b", "satisfied": False}],
    }


def test_golden_accepts_identical_and_reordered_output():
    gold = golden.analysis_entry(analysis_payload())
    assert golden.compare_analysis(analysis_payload(), gold) == []
    reordered = analysis_payload()
    reordered["identifiable"] = [0, 3]
    assert golden.compare_analysis(reordered, gold) == []


def test_golden_rejects_a_changed_split():
    gold = golden.analysis_entry(analysis_payload())
    changed = analysis_payload()
    changed["identifiable"], changed["unidentifiable"] = [3, 1], [0, 2]
    problems = golden.compare_analysis(changed, gold)
    assert len(problems) == 1 and problems[0].startswith("split")


def test_golden_accepts_last_ulp_drift_and_rejects_real_change():
    gold = golden.analysis_entry(analysis_payload())
    drift = analysis_payload()
    g1 = drift["metrics"]["gamma1"]
    drift["metrics"]["gamma1"] = float(np.nextafter(g1, 2.0))
    assert golden.compare_analysis(drift, gold) == []
    moved = copy.deepcopy(drift)
    moved["metrics"]["gamma1"] = g1 * (1 + 1e-5)
    assert golden.compare_analysis(moved, gold) != []


def test_golden_flags_must_match_exactly():
    gold = golden.analysis_entry(analysis_payload())
    flipped = analysis_payload()
    flipped["bound_checks"][1]["satisfied"] = True
    assert golden.compare_analysis(flipped, gold) != []
    flag = analysis_payload()
    flag["metrics"]["gamma2_flag"] = "infinite"
    assert golden.compare_analysis(flag, gold) != []
    inf = analysis_payload()
    inf["metrics"]["cond_chi"] = 1e300
    assert golden.compare_analysis(inf, gold) != []


def test_golden_rows_and_sensitivities():
    row = {"k": 3, "tau": 2.5, "gamma1": 1.0, "gamma2": float("inf"),
           "gamma2_flag": "infinite", "tau_flag": "ok", "degenerate_k": False,
           "swap_count": 0, "error": ""}
    assert golden.compare_row(dict(row, tau=2.5 * (1 + 1e-12)), row) == []
    assert golden.compare_row(dict(row, swap_count=1), row) != []
    assert golden.compare_row(dict(row, gamma2=1e308), row) != []
    sens = np.array([[1.0, -2.0], [3.0, 1e-9]])
    assert golden.compare_matrix(sens * (1 + 1e-13), sens.tolist()) == []
    assert golden.compare_matrix(sens + 1e-8, sens.tolist()) != []
    assert golden.compare_matrix(sens[:1], sens.tolist()) != []


def test_golden_bench_check_fails_missing_and_unrequested_rows(tmp_path):
    header = "seed,algorithm,k,tau,gamma1,gamma2,gamma2_flag,tau_flag,degenerate_k,swap_count,error"
    line = "{},b1,3,2.5,1.0,4.0,ok,ok,0,0,"
    (tmp_path / "rows.csv").write_text("\n".join([header, line.format(0), line.format(1)]) + "\n")
    rows = golden.read_rows(tmp_path / "rows.csv")
    table = {"rows": {**rows, "2/b1": rows["0/b1"]}}
    assert golden.check("bench", tmp_path, table, ["0/b1", "1/b1"]) == (0, [])
    failed, problems = golden.check("bench", tmp_path, table, ["0/b1"])
    assert failed == 1 and problems == ["1/b1 not requested"]
    failed, _ = golden.check("bench", tmp_path, table, ["0/b1", "1/b1", "2/b1"])
    assert failed == 1


# ------------------------------------------------------ computed gflop

def test_svd_flop_formulas():
    n = 10
    assert svd_flops(n, n) == 21 * n ** 3
    assert svd_flops(n, n, compute_uv=False) == pytest.approx(8 * n ** 3 / 3)
    assert svd_flops(30, 10, full_matrices=False) == 14 * 30 * 100 + 8 * 1000
    assert svd_flops(10, 30) == svd_flops(30, 10)


def test_qr_flop_formulas():
    m, n = 30, 10
    r = 2 * n * n * (m - n / 3)
    assert qr_flops(m, n, "r") == pytest.approx(r)
    assert qr_flops(m, n) == pytest.approx(2 * r)
    assert qr_flops(m, n, "complete") == pytest.approx(
        r + 4 * (m * m * n - m * n * n + n ** 3 / 3))
    assert qr_flops(n, n) == pytest.approx(8 * n ** 3 / 3)
    assert qr_flops(n, m, "r") == pytest.approx(2 * n * n * (m - n / 3))


def test_flop_hooks_read_call_shapes():
    tracer = Tracer()
    svd = tracer.wrap("numpy.svd", np.linalg.svd, after=tracing._svd_after)
    qr = tracer.wrap("numpy.qr", np.linalg.qr, after=tracing._qr_after)
    a = np.arange(15.0).reshape(5, 3)
    svd(a)
    svd(a, compute_uv=False)
    qr(a, mode="r")
    assert [s.attrs["flops"] for s in tracer.spans] == [
        svd_flops(5, 3), svd_flops(5, 3, compute_uv=False), qr_flops(5, 3, "r")]


# -------------------------------------------- names match BENCHMARK.json

def test_end_to_end_names_match_benchmark_json():
    log = [run.Record(0, "analyze", alg, 0.1, 1, 0, 2.0) for alg in run.ALGORITHMS]
    log += [run.Record(0, "svir", m, 0.2, 1, 0, 2.0) for m in run.METHODS]
    log.append(run.Record(0, "bench", "bench", 0.5, 4, 0, 2.0))
    metrics, info = run.end_to_end(log, [{"wall_s": 1.0, "slowdown": 0.5}])
    declared = {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]}
    assert {name: unit for name, (_, unit, _) in metrics.items()} == declared
    assert metrics["analyze_p50_s.b1"][0] == pytest.approx(0.05)
    assert metrics["bench_rows_per_s"][0] == pytest.approx(16.0)
    assert metrics["setup_s"][0] == 2.0
    assert info["setup_s.raw"][0] == 1.0
    assert info["analyze_p50_s.b1.raw"][0] == pytest.approx(0.1)
    assert info["host_slowdown"][0] == 2.0


def test_per_layer_names_match_benchmark_json():
    names = set(tracing.layer_metrics([], {})) | set(tracing.SETUP_METRICS)
    names.add(tracing.OVERHEAD_METRIC)
    declared = {m["name"]: m["unit"] for m in BENCHMARK["per_layer"]}
    assert {name: tracing.unit_of(name) for name in names} == declared
