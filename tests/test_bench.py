import json

import numpy as np
import pytest

from cssident import ExperimentSpec, RankPolicy, realize, run_experiment
from cssident.bench import (
    aggregate_rows,
    read_rows_csv,
    write_report_json,
    write_rows_csv,
)
from cssident.errors import InputDomainError


def _spec(**overrides):
    base = dict(
        generator={"family": "identity", "n": 4},
        algorithms=("b1", "b4", "b3", "srrqr"),
        k_policy=RankPolicy.fixed(2),
        realizations=1,
        base_seed=0,
    )
    base.update(overrides)
    return ExperimentSpec(**base)


class TestRealize:
    def test_identity(self):
        assert np.array_equal(realize({"family": "identity", "n": 3}, 0), np.eye(3))

    def test_kahan_range_draws_zeta(self):
        a = realize({"family": "kahan", "n": 6, "zeta_range": [0.5, 0.9]}, 1)
        b = realize({"family": "kahan", "n": 6, "zeta_range": [0.5, 0.9]}, 2)
        assert not np.array_equal(a, b)

    def test_needs_family(self):
        with pytest.raises(InputDomainError):
            realize({"n": 3}, 0)
        with pytest.raises(InputDomainError):
            realize({"family": "weird", "n": 3}, 0)

    def test_svd_families(self):
        spectrum = {"k": 3, "spacing": "uniform"}
        for fam in ("jolliffe", "sorensen_embree", "ships"):
            params = {"family": fam, "n": 24, "p": 10, "spectrum": dict(spectrum)}
            if fam == "jolliffe":
                params["block_size"] = 5
            if fam == "ships":
                params["spectrum"]["spacing"] = "logspace"
            m = realize(params, 3)
            assert m.shape == (24, 10)


class TestRunExperiment:
    def test_single_identity_realization(self):
        report = run_experiment(_spec())
        assert len(report.rows) == 4
        for row in report.rows:
            assert row["gamma1"] == pytest.approx(1.0)
            assert row["gamma2"] == pytest.approx(1.0)
            assert row["tau"] == pytest.approx(1.0)
        assert report.stats["b1"]["gamma1"]["mean"] == pytest.approx(1.0)

    def test_deterministic_reruns(self):
        spec = _spec(
            generator={"family": "kahan", "n": 12, "zeta_range": [0.9, 0.99]},
            k_policy=RankPolicy.fixed(11),
            realizations=5,
        )
        r1, r2 = run_experiment(spec), run_experiment(spec)
        assert r1.rows == r2.rows
        assert r1.stats == r2.stats

    def test_failures_recorded_per_row(self):
        # rows < cols violates the CSS precondition for every realization
        spec = _spec(
            generator={"family": "gaussian", "n": 3, "p": 5},
            realizations=2,
        )
        report = run_experiment(spec)
        assert all(row["error"] for row in report.rows)
        assert report.stats["b1"]["failures"] == 2
        assert report.stats["b1"]["rows"] == 0

    def test_aggregation_is_order_invariant(self):
        spec = _spec(
            generator={"family": "gaussian", "n": 10, "p": 6},
            k_policy=RankPolicy.fixed(3),
            realizations=6,
        )
        report = run_experiment(spec)
        rows = list(report.rows)
        rng = np.random.default_rng(0)
        for _ in range(3):
            shuffled = [rows[i] for i in rng.permutation(len(rows))]
            assert aggregate_rows(shuffled, spec.algorithms) == report.stats


class TestPersistence:
    def test_csv_roundtrip_exact(self, tmp_path):
        spec = _spec(
            generator={"family": "gaussian", "n": 12, "p": 7},
            k_policy=RankPolicy.fixed(3),
            realizations=4,
        )
        report = run_experiment(spec)
        path = tmp_path / "rows.csv"
        write_rows_csv(report, path)
        back = read_rows_csv(path)
        assert len(back) == len(report.rows)
        for row, orig in zip(back, report.rows):
            for key in ("tau", "gamma1", "gamma2"):
                if orig[key] is None:
                    assert row[key] is None
                else:
                    assert abs(row[key] - orig[key]) <= 1e-12 * max(1.0, abs(orig[key]))
            assert row["seed"] == orig["seed"]
            assert row["algorithm"] == orig["algorithm"]
            assert row["swap_count"] == orig["swap_count"]

    def test_json_report_validates_against_schema(self, tmp_path):
        import jsonschema

        from cssident.cli import load_schema

        report = run_experiment(_spec())
        path = tmp_path / "report.json"
        write_report_json(report, path)
        payload = json.loads(path.read_text())
        jsonschema.validate(payload, load_schema("bench_report.schema.json"))

    def test_exactly_deficient_rows_survive_json(self, caution_matrix, tmp_path):
        # identity generator with p < n exercises the clean path; the
        # deficiency path is covered through a caution-like spectrum
        spec = _spec(
            generator={"family": "identity", "n": 4, "p": 3},
            k_policy=RankPolicy.fixed(2),
        )
        report = run_experiment(spec)
        write_report_json(report, tmp_path / "r.json")
        assert (tmp_path / "r.json").exists()


class TestSpecParsing:
    def test_from_dict_roundtrip(self):
        raw = {
            "generator": {"family": "kahan", "n": 8, "zeta": 0.9},
            "algorithms": ["b1", "srrqr"],
            "k_policy": {"mode": "fixed", "k": 7},
            "realizations": 2,
            "base_seed": 11,
            "f": {"srrqr": 1.5},
        }
        spec = ExperimentSpec.from_dict(raw)
        assert spec.algorithms == ("b1", "srrqr")
        assert spec.k_policy.k == 7
        echoed = spec.as_dict()
        assert echoed["generator"] == raw["generator"]
        assert echoed["f"] == {"srrqr": 1.5}
        # each mode echoes the fields it reads, a zero threshold included,
        # so the echo is a spec that reads back to the same policy
        for policy in ({"mode": "fixed", "k": 7}, {"mode": "gap"},
                       {"mode": "absolute", "eta": 0.0}):
            spec = ExperimentSpec.from_dict(raw | {"k_policy": policy})
            assert spec.as_dict()["k_policy"] == policy
            assert ExperimentSpec.from_dict(spec.as_dict()) == spec

    def test_validation(self):
        with pytest.raises(InputDomainError):
            _spec(realizations=0)
        with pytest.raises(InputDomainError):
            _spec(algorithms=("b1", "b9"))


class TestFullScaleBehavior:
    """Effects that need full-scale dimensions.

    Acceptance criteria 5 and 6 are stated at these sizes too.  At desk
    scale the effects do not exist.  At n = 50, b4's rejected Gu-Eisenstat
    residual stays above the rank cutoff, so gamma2 = 1 for every
    algorithm.  At 60x30 the Sorensen-Embree gamma1 ratios stay near 1.1.
    The tests here use other seeds and fewer realizations.  Two acceptance
    criteria stay failing: c01e, whose 2^(k-1) cap on ||V11^{-1}|| no
    selection rule meets in general, and c07, where srrqr does not beat b3
    on every ships seed base, at desk or full scale.
    """

    def test_gu_eisenstat_b4_failure_at_n100(self):
        spec = ExperimentSpec(
            generator={"family": "gu_eisenstat", "n": 100,
                       "zeta_range": [0.9, 0.96]},
            algorithms=("b1", "b4", "b3", "srrqr"),
            k_policy=RankPolicy.fixed(98),
            realizations=6,
            base_seed=100,
            f={"srrqr": float(np.sqrt(2.0))},
        )
        report = run_experiment(spec)
        assert report.stats["b4"]["gamma2_infinite"] >= 1
        for alg in ("b1", "b3", "srrqr"):
            assert report.stats[alg]["gamma2_infinite"] == 0
            assert report.stats[alg]["gamma2"]["max"] <= 10.0

    def test_sorensen_embree_separation_at_full_scale(self):
        spec = ExperimentSpec(
            generator={"family": "sorensen_embree", "n": 200, "p": 100,
                       "spectrum": {"k": 20}},
            algorithms=("b1", "b4", "b3"),
            k_policy=RankPolicy.fixed(20),
            realizations=6,
            base_seed=7,
        )
        report = run_experiment(spec)
        g1 = {alg: report.stats[alg]["gamma1"]["mean"] for alg in spec.algorithms}
        assert g1["b1"] >= 1.2 * g1["b4"]
        assert g1["b1"] >= 1.2 * g1["b3"]
