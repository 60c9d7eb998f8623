import contextlib
import importlib
import io
import json
import math
import os
import pkgutil
import subprocess
import sys
import warnings
from importlib import resources
from pathlib import Path

import jsonschema
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import cssident
from cssident import ALGORITHMS, SpectrumSpec, cli, gen_ships, linalg
from cssident.bench import ExperimentSpec, read_rows_csv, realize, run_experiment
from cssident.cli import load_schema, main
from cssident.generators import FAMILIES
from cssident.matio import read_matrix, write_csv


def run_cli(*argv):
    return main(list(argv))


@pytest.fixture
def identity_csv(tmp_path):
    path = tmp_path / "eye.csv"
    write_csv(np.eye(4), path)
    return path


class TestAnalyze:
    def test_identity_b1_fixed(self, identity_csv, tmp_path):
        out = tmp_path / "out.json"
        code = run_cli("analyze", "--input", str(identity_csv),
                       "--algorithm", "b1", "--k-policy", "fixed", "--k", "2",
                       "--output", str(out))
        assert code == 0
        payload = json.loads(out.read_text())
        jsonschema.validate(payload, load_schema("analyze_output.schema.json"))
        assert payload["metrics"]["gamma1"] == pytest.approx(1.0)
        assert sorted(payload["identifiable"] + payload["unidentifiable"]) == [0, 1, 2, 3]

    def test_gram_demo_matrix_srrqr_relative(self, tmp_path, gram_demo_matrix):
        mat = tmp_path / "m.csv"
        write_csv(gram_demo_matrix, mat)
        out = tmp_path / "out.json"
        code = run_cli("analyze", "--input", str(mat), "--algorithm", "srrqr",
                       "--k-policy", "relative", "--eta", "1e-12",
                       "--output", str(out))
        assert code == 0
        payload = json.loads(out.read_text())
        # numerical rank 2 on a 2-column matrix: k clamps to p - 1 = 1
        assert payload["k"] == 1
        assert not payload["degenerate_k"]

    @pytest.mark.parametrize("algorithm, keys", (
        ("b1", {"svd_fallbacks", "solve_sweeps"}),
        ("b4", {"svd_fallbacks"}),
        ("b3", {"v11_inv_norm", "svd_fallbacks"}),
        ("srrqr", {"converged", "max_rho", "f", "logdet_history"}),
    ))
    def test_extras_reported(self, tmp_path, algorithm, keys):
        path = tmp_path / "chi.csv"
        write_csv(gen_ships(60, 30, SpectrumSpec(k=8, spacing="logspace"), seed=0), path)
        out = tmp_path / "out.json"
        assert run_cli("analyze", "--input", str(path), "--algorithm", algorithm,
                       "--k-policy", "fixed", "--k", "8", "--output", str(out)) == 0
        payload = json.loads(out.read_text())
        jsonschema.validate(payload, load_schema("analyze_output.schema.json"))
        assert set(payload["extras"]) == keys

    def test_missing_file_exits_2(self, tmp_path):
        assert run_cli("analyze", "--input", str(tmp_path / "nope.csv"),
                       "--algorithm", "b1", "--k-policy", "gap",
                       "--output", str(tmp_path / "o.json")) == 2

    def test_unwritable_output_exits_2(self, identity_csv, tmp_path, capsys):
        assert run_cli("analyze", "--input", str(identity_csv), "--algorithm", "b1",
                       "--output", str(tmp_path / "missing" / "o.json")) == 2
        assert capsys.readouterr().err.startswith("error: ")

    def test_svd_failure_exits_3(self, tmp_path, capsys):
        # the QR of these entries overflows, so the SVD of chi has non-finite
        # singular values: a numerical failure, not an input error
        path = tmp_path / "huge.csv"
        write_csv(np.array([[1e308, -1e308], [-1e308, 1e308], [1e308, 1e308]]), path)
        for algorithm in ALGORITHMS:
            with np.errstate(all="ignore"):
                assert run_cli("analyze", "--input", str(path), "--algorithm", algorithm,
                               "--k-policy", "fixed", "--k", "1",
                               "--output", str(tmp_path / "o.json")) == 3, algorithm
            assert capsys.readouterr().err.startswith("numerical failure: ")

    def test_fixed_policy_requires_k(self, identity_csv, tmp_path):
        assert run_cli("analyze", "--input", str(identity_csv),
                       "--algorithm", "b1", "--k-policy", "fixed",
                       "--output", str(tmp_path / "o.json")) == 2

    @pytest.mark.parametrize("mode", ("absolute", "relative"))
    def test_threshold_policy_requires_eta(self, identity_csv, tmp_path, capsys, mode):
        assert run_cli("analyze", "--input", str(identity_csv),
                       "--algorithm", "b1", "--k-policy", mode,
                       "--output", str(tmp_path / "o.json")) == 2
        assert capsys.readouterr().err == f"error: {mode} rank policy needs eta\n"

    @pytest.mark.parametrize("argv, message", [
        # the default policy is gap, which would pick its own k
        (("--k", "5"), "gap rank policy does not read k"),
        (("--k-policy", "fixed", "--k", "2", "--eta", "1e-12"),
         "fixed rank policy does not read eta"),
    ])
    def test_policy_flag_the_mode_does_not_read_exits_2(self, identity_csv, tmp_path,
                                                        capsys, argv, message):
        assert run_cli("analyze", "--input", str(identity_csv), "--algorithm", "b1",
                       *argv, "--output", str(tmp_path / "o.json")) == 2
        assert capsys.readouterr().err == f"error: {message}\n"

    @pytest.mark.parametrize("argv, message", [
        (("--algorithm", "srrqr", "--f", "nan", "--k-policy", "fixed", "--k", "1"),
         "srrqr needs f >= 1"),
        (("--algorithm", "b1", "--k-policy", "absolute", "--eta", "nan"),
         "eta must be nonnegative"),
    ])
    def test_nan_bound_exits_2(self, tmp_path, capsys, argv, message):
        path = tmp_path / "chi.csv"
        write_csv(np.arange(1.0, 7.0).reshape(3, 2) ** 2, path)
        assert run_cli("analyze", "--input", str(path), *argv,
                       "--output", str(tmp_path / "o.json")) == 2
        assert capsys.readouterr().err == f"error: {message}\n"

    @pytest.mark.parametrize("name, text", [
        ("chi.csv", b"1,2\n3,\xff\n"),
        ("chi.mtx", b"%%MatrixMarket matrix array real general\n2 1\n1\n\xff\n"),
    ])
    def test_undecodable_input_exits_2(self, tmp_path, name, text):
        path = tmp_path / name
        path.write_bytes(text)
        assert run_cli("analyze", "--input", str(path), "--algorithm", "b1",
                       "--output", str(tmp_path / "o.json")) == 2


class TestGenerate:
    def test_kahan_csv_upper_triangular(self, tmp_path):
        out = tmp_path / "k.csv"
        assert run_cli("generate", "--family", "kahan", "--n", "8",
                       "--zeta", "0.95", "--output", str(out)) == 0
        m = read_matrix(out)
        assert m.shape == (8, 8)
        assert np.all(np.tril(m, -1) == 0.0)
        sidecar = json.loads((tmp_path / "k.csv.json").read_text())
        jsonschema.validate(sidecar, load_schema("generate_sidecar.schema.json"))
        assert sidecar["designated_k"] == 7

    def test_ships_rerun_is_byte_identical(self, tmp_path):
        args = ("generate", "--family", "ships", "--n", "30", "--p", "15",
                "--k", "5", "--seed", "7")
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        assert run_cli(*args, "--output", str(a)) == 0
        assert run_cli(*args, "--output", str(b)) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_jolliffe_indivisible_exits_2(self, tmp_path):
        assert run_cli("generate", "--family", "jolliffe", "--n", "20",
                       "--p", "10", "--k", "3", "--block-size", "3",
                       "--output", str(tmp_path / "j.csv")) == 2

    def test_matrixmarket_output(self, tmp_path):
        out = tmp_path / "g.mtx"
        assert run_cli("generate", "--family", "gu_eisenstat", "--n", "8",
                       "--zeta", "0.9", "--format", "matrixmarket",
                       "--output", str(out)) == 0
        assert read_matrix(out).shape == (8, 8)

    @pytest.mark.parametrize("argv", (
        ("--family", "kahan", "--zeta", "0.9"),
        ("--family", "jolliffe", "--p", "10", "--k", "2"),
    ))
    def test_oversized_matrix_exits_2(self, tmp_path, capsys, argv):
        # n = 2^62: numpy rejects the array before it allocates anything
        assert run_cli("generate", *argv, "--n", str(2 ** 62),
                       "--output", str(tmp_path / "g.csv")) == 2
        lines = capsys.readouterr().err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: array is too big")

    def test_svd_family_without_k_exits_2(self, tmp_path):
        assert run_cli("generate", "--family", "ships", "--n", "20",
                       "--p", "10", "--output", str(tmp_path / "s.csv")) == 2
        assert run_cli("generate", "--family", "sorensen_embree", "--n", "20",
                       "--k", "3", "--output", str(tmp_path / "s.csv")) == 2


class TestGenerateMatchesRealize:
    """``generate`` writes what ``realize`` draws from the sidecar's params."""

    FLAGS = {
        "kahan": ("--n", "12", "--zeta", "0.93"),
        "gu_eisenstat": ("--n", "12", "--zeta", "0.93"),
        "jolliffe": ("--n", "30", "--p", "10", "--k", "2", "--spacing", "logspace"),
        "sorensen_embree": ("--n", "30", "--p", "12", "--k", "4"),
        "ships": ("--n", "30", "--p", "12", "--k", "4", "--leading", "10", "20"),
    }

    @pytest.mark.parametrize("family", FAMILIES)
    def test_matrix_is_realize_of_sidecar_params(self, tmp_path, family):
        out = tmp_path / "m.csv"
        assert run_cli("generate", "--family", family, *self.FLAGS[family],
                       "--seed", "4", "--output", str(out)) == 0
        sidecar = json.loads((tmp_path / "m.csv.json").read_text())
        expected = tmp_path / "expected.csv"
        write_csv(realize({"family": family, **sidecar["params"]}, 4), expected)
        assert out.read_bytes() == expected.read_bytes()

    @pytest.mark.parametrize("family, argv, message", [
        ("kahan", ("--n", "8"), "kahan requires --zeta"),
        ("gu_eisenstat", ("--n", "8"), "gu_eisenstat requires --zeta"),
        ("jolliffe", ("--n", "20", "--k", "2"), "jolliffe requires --p and --k"),
        ("sorensen_embree", ("--n", "20", "--k", "3"),
         "sorensen_embree requires --p and --k"),
        ("ships", ("--n", "20", "--p", "10"), "ships requires --p and --k"),
        ("jolliffe", ("--n", "20", "--p", "10", "--k", "2", "--block-size", "0"),
         "block_size must be >= 1, got 0"),
        ("jolliffe", ("--n", "20", "--p", "10", "--k", "2", "--block-size", "-5"),
         "block_size must be >= 1, got -5"),
        ("jolliffe", ("--n", "20", "--p", "10", "--k", "2", "--rho-range", "0.5", "0.1"),
         "rho_range needs lo <= hi, got (0.5, 0.1)"),
        ("jolliffe", ("--n", "20", "--p", "10", "--k", "2", "--rho-range", "nan", "0.5"),
         "rho_range needs lo <= hi, got (nan, 0.5)"),
        ("ships", ("--n", "20", "--p", "10", "--k", "2", "--trailing", "1e-3", "nan"),
         "spectrum trailing needs 0 < lo <= hi, got (0.001, nan)"),
    ])
    def test_missing_flag_exits_2(self, tmp_path, capsys, family, argv, message):
        assert run_cli("generate", "--family", family, *argv,
                       "--output", str(tmp_path / "m.csv")) == 2
        assert capsys.readouterr().err == f"error: {message}\n"


@pytest.fixture
def svd_input_shapes(monkeypatch):
    """Shapes of every matrix passed to ``cssident.linalg.svd``, through
    any module of the package that binds it."""
    original = linalg.svd
    shapes = []

    def counted(a, *args, **kwargs):
        shapes.append(np.shape(a))
        return original(a, *args, **kwargs)

    modules = [cssident] + [
        importlib.import_module(f"cssident.{info.name}")
        for info in pkgutil.iter_modules(cssident.__path__)
    ]
    for module in modules:
        if getattr(module, "svd", None) is original:
            monkeypatch.setattr(module, "svd", counted)
    return shapes


POLICIES = {"fixed": ("--k-policy", "fixed", "--k", "2"), "gap": ("--k-policy", "gap")}


class TestSvdOfChiOnce:
    """The SVD of chi is computed once per analysis and once per realization."""

    @pytest.mark.parametrize("algorithm", ALGORITHMS)
    @pytest.mark.parametrize("policy", POLICIES)
    def test_analyze(self, tmp_path, svd_input_shapes, algorithm, policy):
        chi = np.random.default_rng(3).standard_normal((12, 5))
        path = tmp_path / "chi.csv"
        write_csv(chi, path)
        assert run_cli("analyze", "--input", str(path), "--algorithm", algorithm,
                       *POLICIES[policy], "--output", str(tmp_path / "o.json")) == 0
        assert svd_input_shapes.count(chi.shape) == 1

    @pytest.mark.parametrize("policy", POLICIES)
    def test_run_experiment(self, svd_input_shapes, policy):
        mode = {"mode": policy, "k": 2} if policy == "fixed" else {"mode": policy}
        spec = ExperimentSpec.from_dict({
            "generator": {"family": "gaussian", "n": 12, "p": 5},
            "algorithms": list(ALGORITHMS),
            "k_policy": mode,
            "realizations": 3,
        })
        report = run_experiment(spec)
        assert not any(row["error"] for row in report.rows)
        assert svd_input_shapes.count((12, 5)) == 3


@pytest.fixture
def factorizations(monkeypatch):
    """Every ``np.linalg.qr`` call as (mode, shape), every input shape of
    ``cssident.linalg.svd`` with its result, and every SvdFactors whose u
    is read."""
    qr_calls, svds, u_reads = [], [], []
    numpy_qr = np.linalg.qr

    def recording_qr(a, mode="reduced"):
        qr_calls.append((mode, np.shape(a)))
        return numpy_qr(a, mode=mode)

    original_svd = linalg.svd

    def recording_svd(a):
        fac = original_svd(a)
        svds.append((np.shape(a), fac))
        return fac

    u = linalg.SvdFactors.u

    def recording_u(fac):
        u_reads.append(fac)
        return u.fget(fac)

    monkeypatch.setattr(np.linalg, "qr", recording_qr)
    # analyze and bench call it as linalg.svd
    monkeypatch.setattr(linalg, "svd", recording_svd)
    monkeypatch.setattr(linalg.SvdFactors, "u", property(recording_u))
    return qr_calls, svds, u_reads


class TestNoQOfChi:
    """The analysis reads R alone: no QR of chi forms its Q, and the U of
    svd(chi) is never formed."""

    @staticmethod
    def _check(factorizations, shape):
        qr_calls, svds, u_reads = factorizations
        assert ("reduced", shape) not in qr_calls
        assert ("r", shape) in qr_calls
        chi_svds = [fac for s, fac in svds if s == shape]
        assert chi_svds
        assert not any(fac is read for fac in chi_svds for read in u_reads)

    @pytest.mark.parametrize("algorithm", ALGORITHMS)
    def test_analyze(self, tmp_path, factorizations, algorithm):
        chi = realize({"family": "ships", "n": 200, "p": 100, "spectrum": {"k": 20}}, 0)
        path = tmp_path / "chi.csv"
        write_csv(chi, path)
        # the ships generator's Haar draw is a reduced QR of this shape
        factorizations[0].clear()
        assert run_cli("analyze", "--input", str(path), "--algorithm", algorithm,
                       "--k-policy", "fixed", "--k", "20",
                       "--output", str(tmp_path / "o.json")) == 0
        self._check(factorizations, chi.shape)

    def test_bench(self, tmp_path, factorizations):
        spec = tmp_path / "spec.json"
        spec.write_text(json.dumps({
            "generator": {"family": "kahan", "n": 100, "zeta_range": [0.9, 0.99999]},
            "algorithms": list(ALGORITHMS),
            "k_policy": {"mode": "fixed", "k": 99},
            "realizations": 1,
        }))
        assert run_cli("bench", "--spec", str(spec), "--out-dir", str(tmp_path)) == 0
        self._check(factorizations, (100, 100))


class TestScaledInput:
    """Scaling chi by 2^j changes neither the split nor the exit code."""

    @pytest.mark.parametrize("j", (-600, -64, 64, 600))
    def test_analyze_same_split(self, tmp_path, j):
        chi = gen_ships(60, 30, SpectrumSpec(k=8, spacing="logspace"), seed=0)
        for scale, name in ((0, "base"), (j, "scaled")):
            write_csv(np.ldexp(chi, scale), tmp_path / f"{name}.csv")
        for algorithm in ALGORITHMS:
            splits = []
            for name in ("base", "scaled"):
                out = tmp_path / f"{name}-{algorithm}.json"
                assert run_cli("analyze", "--input", str(tmp_path / f"{name}.csv"),
                               "--algorithm", algorithm, "--k-policy", "fixed",
                               "--k", "8", "--output", str(out)) == 0
                payload = json.loads(out.read_text())
                splits.append((payload["identifiable"], payload["unidentifiable"]))
            assert splits[0] == splits[1], algorithm

    def test_subnormal_input(self, tmp_path):
        # max|chi| < 2^-1022, where the factor 2^-e of the scaling is inf;
        # the split and every bound flag are those of chi * 2^1000
        chi = np.array([[1e-310, 2e-310], [3e-310, -1e-310], [5e-311, 7e-310]])
        for scale, name in ((0, "tiny"), (1000, "normal")):
            write_csv(np.ldexp(chi, scale), tmp_path / f"{name}.csv")
        for algorithm in ALGORITHMS:
            payloads = []
            for name in ("tiny", "normal"):
                out = tmp_path / f"{name}-{algorithm}.json"
                with warnings.catch_warnings():
                    warnings.simplefilter("error", RuntimeWarning)
                    assert run_cli("analyze", "--input", str(tmp_path / f"{name}.csv"),
                                   "--algorithm", algorithm, "--k-policy", "fixed",
                                   "--k", "1", "--output", str(out)) == 0
                payloads.append(json.loads(out.read_text()))
            tiny, normal = payloads
            assert tiny["identifiable"] == normal["identifiable"], algorithm
            assert ([c["satisfied"] for c in tiny["bound_checks"]]
                    == [c["satisfied"] for c in normal["bound_checks"]]), algorithm


class TestBoundChecksAtLargeScale:
    """Bound checks near the top of the double range: no overflow warning,
    the flags of the unscaled input, values in input units or inf."""

    @pytest.mark.parametrize("algorithm", ALGORITHMS)
    def test_analyze_without_overflow(self, tmp_path, algorithm):
        chi = gen_ships(60, 30, SpectrumSpec(k=8, spacing="logspace"), seed=0)
        # max|chi| in [2^1003, 2^1004), where b1's proof-form bound
        # sqrt(p(p-k)) 2^(p-k-1) sigma_{k+1} exceeds the double range
        j = 1004 - int(np.frexp(np.max(np.abs(chi)))[1])
        payloads = []
        for scale, name in ((0, "base"), (j, "scaled")):
            write_csv(np.ldexp(chi, scale), tmp_path / f"{name}.csv")
            out = tmp_path / f"{name}.json"
            with warnings.catch_warnings():
                warnings.simplefilter("error", RuntimeWarning)
                assert run_cli("analyze", "--input", str(tmp_path / f"{name}.csv"),
                               "--algorithm", algorithm, "--k-policy", "fixed",
                               "--k", "8", "--output", str(out)) == 0
            payloads.append(json.loads(out.read_text()))
        base, scaled = payloads
        assert scaled["identifiable"] == base["identifiable"]
        factor = 2.0 ** j
        for b, c in zip(base["bound_checks"], scaled["bound_checks"], strict=True):
            assert c["satisfied"] == b["satisfied"], c["name"]
            unitless = c["name"] in ("b3-v11-inverse-cap", "srrqr-coupling-cap")
            for side in ("lhs", "rhs"):
                want = float(b[side]) * (1.0 if unitless else factor)
                assert float(c[side]) == pytest.approx(want, rel=1e-10), (c["name"], side)
        assert any(c["rhs"] == "inf" for c in scaled["bound_checks"]) == (algorithm == "b1")


class TestEnvironmentIndependence:
    """Results depend on the flags and the matrix alone: no environment
    variable changes a byte of the output."""

    def test_analyze_ignores_cssident_variables(self, tmp_path):
        # on Kahan 30 at k = 29, a larger rank cutoff would flip gamma2_flag
        # to exact-deficiency and tau_flag to undefined
        chi = tmp_path / "kahan.csv"
        assert run_cli("generate", "--family", "kahan", "--n", "30",
                       "--zeta", "0.9", "--output", str(chi)) == 0
        src = str(Path(cssident.__file__).resolve().parents[1])
        base_env = {key: val for key, val in os.environ.items()
                    if not key.startswith("CSSIDENT_")}
        base_env["PYTHONPATH"] = os.pathsep.join(
            filter(None, (src, base_env.get("PYTHONPATH"))))
        outputs = []
        for extra in ({}, {"CSSIDENT_TOL_RANK_FACTOR": "1e10"},
                      {"CSSIDENT_TOL_ORTH": "abc"}):
            out = tmp_path / "analysis.json"
            out.unlink(missing_ok=True)
            proc = subprocess.run(
                [sys.executable, "-m", "cssident.cli", "analyze",
                 "--input", str(chi), "--algorithm", "srrqr",
                 "--k-policy", "fixed", "--k", "29", "--output", str(out)],
                env=base_env | extra, capture_output=True, text=True,
            )
            assert proc.returncode == 0, (extra, proc.stderr)
            outputs.append(out.read_bytes())
        assert outputs[1] == outputs[0]
        assert outputs[2] == outputs[0]

    @pytest.mark.parametrize("method", ("central-fd", "complex-step"))
    def test_svir_ignores_numpy_simd_dispatch(self, tmp_path, method,
                                              numpy_without_avx_env):
        # a child process runs with numpy's AVX2/AVX-512 targets turned off
        if "NPY_DISABLE_CPU_FEATURES" not in numpy_without_avx_env:
            pytest.skip("this CPU has none of the AVX2/AVX-512 targets")
        argv = ["svir", "--method", method, "--days", "10", "--substeps", "20"]
        default = tmp_path / "default.csv"
        assert run_cli(*argv, "--output", str(default)) == 0
        baseline = tmp_path / "baseline.csv"
        proc = subprocess.run([sys.executable, "-m", "cssident.cli", *argv,
                               "--output", str(baseline)],
                              env=numpy_without_avx_env, capture_output=True,
                              text=True)
        assert proc.returncode == 0, proc.stderr
        assert baseline.read_bytes() == default.read_bytes()


SCHEMA_FILES = sorted(path.name for path in resources.files("cssident.schemas").iterdir()
                      if path.name.endswith(".schema.json"))


def test_importing_the_cli_does_not_load_jsonschema():
    # only bench validates against a schema, so only it imports jsonschema
    src = str(Path(cssident.__file__).resolve().parents[1])
    env = os.environ | {"PYTHONPATH": os.pathsep.join(
        filter(None, (src, os.environ.get("PYTHONPATH"))))}
    proc = subprocess.run(
        [sys.executable, "-c",
         "import sys, cssident.cli; print('jsonschema' in sys.modules)"],
        env=env, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "False\n"


def test_seven_schemas_ship():
    assert len(SCHEMA_FILES) == 7


@pytest.mark.parametrize("name", SCHEMA_FILES)
def test_shipped_schema_passes_its_metaschema(name):
    schema = load_schema(name)
    jsonschema.validators.validator_for(schema).check_schema(schema)


class TestBench:
    def _write_spec(self, tmp_path, payload):
        spec = tmp_path / "spec.json"
        spec.write_text(json.dumps(payload))
        return spec

    def test_identity_single_realization(self, tmp_path):
        spec = self._write_spec(tmp_path, {
            "generator": {"family": "identity", "n": 4},
            "algorithms": ["b1"],
            "k_policy": {"mode": "fixed", "k": 2},
            "realizations": 1,
        })
        out = tmp_path / "results"
        assert run_cli("bench", "--spec", str(spec), "--out-dir", str(out)) == 0
        rows = (out / "rows.csv").read_text().strip().splitlines()
        assert len(rows) == 2  # header + one row
        report = json.loads((out / "report.json").read_text())
        jsonschema.validate(report, load_schema("bench_report.schema.json"))

    def test_malformed_json_exits_2(self, tmp_path):
        spec = tmp_path / "bad.json"
        spec.write_text("{not json")
        assert run_cli("bench", "--spec", str(spec),
                       "--out-dir", str(tmp_path / "o")) == 2

    VALID_SPEC = {
        "generator": {"family": "identity", "n": 4},
        "algorithms": ["b1"],
        "k_policy": {"mode": "fixed", "k": 2},
        "realizations": 1,
    }

    def _schema_error(self, tmp_path, capsys, payload) -> str:
        spec = self._write_spec(tmp_path, payload)
        assert run_cli("bench", "--spec", str(spec),
                       "--out-dir", str(tmp_path / "o")) == 2
        assert not (tmp_path / "o").exists()
        return capsys.readouterr().err

    def test_schema_violation_exits_2(self, tmp_path, capsys):
        err = self._schema_error(tmp_path, capsys, self.VALID_SPEC | {"algorithms": ["b7"]})
        assert err == ("error: bench spec violates schema: "
                       "'b7' is not one of ['b1', 'b4', 'b3', 'srrqr']\n")

    @pytest.mark.parametrize("change, message", [
        ({"seeds": 3}, "Additional properties are not allowed ('seeds' was unexpected)"),
        ({"k_policy": None}, "'k_policy' is a required property"),
        ({"realizations": "1"}, "'1' is not of type 'integer'"),
        # two errors: the algorithm is found first, but best_match reports
        # the shallower one
        ({"algorithms": ["b7"], "realizations": "1"}, "'1' is not of type 'integer'"),
        # only srrqr reads f
        ({"f": {"srqr": 2.0}},
         "Additional properties are not allowed ('srqr' was unexpected)"),
    ])
    def test_schema_violation_message(self, tmp_path, capsys, change, message):
        payload = {key: value for key, value in (self.VALID_SPEC | change).items()
                   if value is not None}
        err = self._schema_error(tmp_path, capsys, payload)
        assert err == f"error: bench spec violates schema: {message}\n"

    def test_spec_schema_checked_once_per_process(self, tmp_path, monkeypatch):
        cli.schema_validator.cache_clear()
        cls = jsonschema.validators.validator_for(load_schema("bench_spec.schema.json"))
        check_schema = cls.check_schema
        checked = []

        def spy(klass, schema, *args, **kwargs):
            checked.append(schema["title"])
            return check_schema(schema, *args, **kwargs)

        monkeypatch.setattr(cls, "check_schema", classmethod(spy))
        spec = self._write_spec(tmp_path, {
            "generator": {"family": "gaussian", "n": 31, "p": 4},
            "algorithms": ["b1"],
            "k_policy": {"mode": "gap"},
            "realizations": 1,
        })
        for out in ("o1", "o2"):
            assert run_cli("bench", "--spec", str(spec),
                           "--out-dir", str(tmp_path / out)) == 0
        assert checked == ["Benchmark experiment specification"]

    @pytest.mark.parametrize("mode", ("absolute", "relative"))
    def test_threshold_policy_requires_eta(self, tmp_path, capsys, mode):
        spec = self._write_spec(tmp_path, {
            "generator": {"family": "gaussian", "n": 31, "p": 4},
            "algorithms": ["b1"],
            "k_policy": {"mode": mode},
            "realizations": 1,
        })
        assert run_cli("bench", "--spec", str(spec),
                       "--out-dir", str(tmp_path / "o")) == 2
        assert capsys.readouterr().err == f"error: {mode} rank policy needs eta\n"

    def test_oversized_matrix_exits_2(self, tmp_path, capsys):
        # numpy rejects the 2^40 x 2^40 draw before it allocates anything
        spec = self._write_spec(tmp_path, {
            "generator": {"family": "gaussian", "n": 2 ** 40, "p": 2 ** 40},
            "algorithms": ["b1"],
            "k_policy": {"mode": "gap"},
            "realizations": 1,
        })
        assert run_cli("bench", "--spec", str(spec),
                       "--out-dir", str(tmp_path / "o")) == 2
        lines = capsys.readouterr().err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: array is too big")

    def test_out_of_memory_exits_2(self, tmp_path, capsys, monkeypatch):
        def realize_out_of_memory(generator, seed):
            raise MemoryError("Unable to allocate 74.5 GiB for an array")

        monkeypatch.setattr("cssident.bench.realize", realize_out_of_memory)
        spec = self._write_spec(tmp_path, {
            "generator": {"family": "gaussian", "n": 10 ** 5, "p": 10 ** 5},
            "algorithms": ["b1"],
            "k_policy": {"mode": "gap"},
            "realizations": 1,
        })
        assert run_cli("bench", "--spec", str(spec),
                       "--out-dir", str(tmp_path / "o")) == 2
        assert capsys.readouterr().err == "error: Unable to allocate 74.5 GiB for an array\n"

    def test_reversed_zeta_range_records_generator_errors(self, tmp_path):
        spec = self._write_spec(tmp_path, {
            "generator": {"family": "kahan", "n": 10, "zeta_range": [0.99, 0.9]},
            "algorithms": ["b1", "srrqr"],
            "k_policy": {"mode": "fixed", "k": 9},
            "realizations": 2,
        })
        out = tmp_path / "o"
        assert run_cli("bench", "--spec", str(spec), "--out-dir", str(out)) == 0
        rows = read_rows_csv(out / "rows.csv")
        assert len(rows) == 4
        assert {r["error"] for r in rows} == {
            "generator: zeta_range needs lo <= hi, got (0.99, 0.9)"}

    @pytest.mark.parametrize("generator, message", [
        ({"family": "gaussian", "n": 5}, "gaussian needs key 'p'"),
        ({"family": "kahan"}, "kahan needs key 'n'"),
        ({"family": "identity"}, "identity needs key 'n'"),
        ({"family": "ships", "n": 10}, "ships needs key 'p'"),
        ({"family": "sorensen_embree", "n": 10, "p": 5},
         "sorensen_embree needs key 'spectrum'"),
        ({"family": "kahan", "n": 10, "zeta_range": [math.nan, 0.95]},
         "zeta_range needs lo <= hi, got (nan, 0.95)"),
        ({"family": "jolliffe", "n": 20, "p": 10, "rho_range": [math.nan, 0.95]},
         "rho_range needs lo <= hi, got (nan, 0.95)"),
        # a key the family does not read would be ignored, not honoured
        ({"family": "gaussian", "n": 30, "p": 6,
          "spectrum": {"k": 2, "leading": [1e5, 1e6]}},
         "gaussian does not read key 'spectrum'"),
        ({"family": "kahan", "n": 10, "p": 4}, "kahan does not read key 'p'"),
        ({"family": "ships", "n": 20, "p": 10, "spectrum": {"k": 2}, "zeta": 0.9},
         "ships does not read key 'zeta'"),
        ({"family": "ships", "n": 20, "p": 10, "spectrum": {"k": 2}, "block_size": 2},
         "ships does not read key 'block_size'"),
        ({"family": "identity", "n": 4, "zeta_range": [0.9, 0.99]},
         "identity does not read key 'zeta_range'"),
    ])
    def test_rejected_description_records_generator_errors(self, tmp_path,
                                                            generator, message):
        spec = self._write_spec(tmp_path, {
            "generator": generator,
            "algorithms": ["b1", "srrqr"],
            "k_policy": {"mode": "fixed", "k": 2},
            "realizations": 2,
        })
        out = tmp_path / "o"
        assert run_cli("bench", "--spec", str(spec), "--out-dir", str(out)) == 0
        rows = read_rows_csv(out / "rows.csv")
        assert len(rows) == 4
        assert {r["error"] for r in rows} == {f"generator: {message}"}

    def test_nan_f_records_errors(self, tmp_path):
        spec = self._write_spec(tmp_path, {
            "generator": {"family": "gaussian", "n": 8, "p": 4},
            "algorithms": ["b1", "srrqr"],
            "k_policy": {"mode": "fixed", "k": 2},
            "realizations": 2,
            "f": {"srrqr": math.nan},
        })
        out = tmp_path / "o"
        assert run_cli("bench", "--spec", str(spec), "--out-dir", str(out)) == 0
        rows = read_rows_csv(out / "rows.csv")
        assert [r["error"] for r in rows if r["algorithm"] == "srrqr"] == [
            "srrqr needs f >= 1"] * 2
        assert not any(r["error"] for r in rows if r["algorithm"] == "b1")

    def test_undecodable_spec_exits_2(self, tmp_path):
        spec = tmp_path / "spec.json"
        spec.write_bytes(b'{"generator": "\xff"}')
        assert run_cli("bench", "--spec", str(spec),
                       "--out-dir", str(tmp_path / "o")) == 2

    def test_rerun_csv_byte_identical(self, tmp_path):
        spec = self._write_spec(tmp_path, {
            "generator": {"family": "kahan", "n": 10,
                          "zeta_range": [0.9, 0.99]},
            "algorithms": ["b1", "srrqr"],
            "k_policy": {"mode": "fixed", "k": 9},
            "realizations": 3,
            "base_seed": 5,
        })
        out1, out2 = tmp_path / "o1", tmp_path / "o2"
        assert run_cli("bench", "--spec", str(spec), "--out-dir", str(out1)) == 0
        assert run_cli("bench", "--spec", str(spec), "--out-dir", str(out2)) == 0
        assert (out1 / "rows.csv").read_bytes() == (out2 / "rows.csv").read_bytes()


class TestSvir:
    def test_default_sensitivity_shape(self, tmp_path):
        out = tmp_path / "sens.csv"
        assert run_cli("svir", "--output", str(out)) == 0
        m = read_matrix(out)
        assert m.shape == (31, 4)
        sidecar = json.loads((tmp_path / "sens.csv.json").read_text())
        jsonschema.validate(sidecar, load_schema("svir_sidecar.schema.json"))
        assert sidecar["params"]["beta"] == 0.80

    def test_rerun_byte_identical(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        for out in (a, b):
            assert run_cli("svir", "--days", "10", "--substeps", "20",
                           "--output", str(out)) == 0
        assert a.read_bytes() == b.read_bytes()

    @pytest.mark.parametrize("flag, value", (("--i0", "nan"), ("--s0", "inf")))
    def test_non_finite_initial_state_exits_2(self, tmp_path, capsys, flag, value):
        assert run_cli("svir", flag, value, "--output", str(tmp_path / "s.csv")) == 2
        assert capsys.readouterr().err.startswith("error: ")

    def test_blowup_exits_3(self, tmp_path, capsys):
        with np.errstate(all="ignore"):
            assert run_cli("svir", "--beta", "1e300", "--days", "4",
                           "--output", str(tmp_path / "s.csv")) == 3
        assert capsys.readouterr().err.startswith("numerical failure: ")


    @pytest.mark.parametrize("method", ("central-fd", "complex-step"))
    def test_infinite_step_exits_2(self, tmp_path, capsys, method):
        # and a step too small to resolve a derivative
        too_small = {"central-fd": "1e-17", "complex-step": "5e-324"}[method]
        for step in ("inf", too_small):
            assert run_cli("svir", "--method", method, "--step", step,
                           "--output", str(tmp_path / "s.csv")) == 2
            assert capsys.readouterr().err.startswith("error: ")

    @pytest.mark.parametrize("flag, value", (("--beta", "1e300"), ("--step", "1e308")))
    def test_blowup_reports_one_line_and_no_warning(self, tmp_path, capsys, flag, value):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code = run_cli("svir", "--method", "complex-step", flag, value, "--days", "4",
                           "--output", str(tmp_path / "s.csv"))
        assert code == 3
        assert [str(w.message) for w in caught] == []
        lines = capsys.readouterr().err.splitlines()
        assert len(lines) == 1
        assert lines[0].startswith("numerical failure: non-finite state at t=")

    @pytest.mark.parametrize("beta, step", (("1e300", "1e300"), ("1e308", "1")))
    def test_central_fd_perturbation_overflow_exits_2(self, tmp_path, capsys,
                                                      beta, step):
        # h_j overflows in the product, or beta + h_j in the sum
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code = run_cli("svir", "--method", "central-fd", "--beta", beta,
                           "--step", step, "--output", str(tmp_path / "s.csv"))
        assert code == 2
        assert [str(w.message) for w in caught] == []
        assert capsys.readouterr().err.splitlines() == [
            f"error: central-fd step {float(step)!r} takes beta +- h "
            "out of the double range"]

    @pytest.mark.parametrize("method", ("central-fd", "complex-step"))
    def test_zero_substeps_exits_2(self, tmp_path, capsys, method):
        assert run_cli("svir", "--method", method, "--substeps", "0",
                       "--output", str(tmp_path / "s.csv")) == 2
        assert capsys.readouterr().err == "error: substeps must be >= 1\n"


class TestVerifyDyn:
    def _svd_file(self, tmp_path, sigma):
        payload = {
            "u": np.eye(3).tolist(),
            "sigma": list(sigma),
            "v": np.eye(3).tolist(),
        }
        path = tmp_path / "svd.json"
        path.write_text(json.dumps(payload))
        return path

    def test_identity_passes(self, tmp_path, capsys):
        path = self._svd_file(tmp_path, [1.0, 1.0, 1.0])
        out = tmp_path / "v.json"
        code = run_cli("verify-dyn", "--svd", str(path), "--t", "1.0",
                       "--tol", "1e-12", "--output", str(out))
        assert code == 0
        payload = json.loads(out.read_text())
        jsonschema.validate(payload, load_schema("verify_dyn_output.schema.json"))
        assert payload["passed"]

    def test_zero_sigma_exits_2(self, tmp_path):
        path = self._svd_file(tmp_path, [1.0, 0.5, 0.0])
        assert run_cli("verify-dyn", "--svd", str(path), "--t", "1.0") == 2

    @pytest.mark.parametrize("flag, value", (
        ("--t", "inf"), ("--tol", "nan"), ("--tol", "-1"),
    ))
    def test_out_of_domain_flag_exits_2(self, tmp_path, flag, value):
        path = self._svd_file(tmp_path, [1.0, 1.0, 1.0])
        assert run_cli("verify-dyn", "--svd", str(path), flag, value) == 2

    def test_malformed_svd_exits_2(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text('{"u": [[1]]}')
        assert run_cli("verify-dyn", "--svd", str(path)) == 2
        # shapes that disagree: u must be n x p, sigma of length p, v p x p
        for u, sigma, v in (
            (np.ones((3, 2)), [1.0, 1.0, 1.0], np.eye(2)),
            (np.eye(3), [1.0, 1.0], np.eye(3)),
            (np.eye(3), [1.0, 1.0, 1.0], np.eye(2)),
            (np.eye(3), [[1.0, 1.0, 1.0]], np.eye(3)),
            (np.eye(3)[:, :2], [1.0, 1.0], np.ones((2, 3))),
        ):
            path.write_text(json.dumps(
                {"u": u.tolist(), "sigma": sigma, "v": v.tolist()}))
            assert run_cli("verify-dyn", "--svd", str(path)) == 2


class TestGramDemo:
    def test_prints_and_writes(self, tmp_path, capsys):
        out = tmp_path / "demo.json"
        assert run_cli("gram-demo", "--output", str(out)) == 0
        text = capsys.readouterr().out
        assert "gram_rank = 1" in text and "css_rank = 2" in text
        payload = json.loads(out.read_text())
        jsonschema.validate(payload, load_schema("gram_demo_output.schema.json"))

    @pytest.mark.parametrize("eta", ("nan", "-1"))
    def test_out_of_domain_eta_exits_2(self, eta):
        assert run_cli("gram-demo", "--eta", eta) == 2


# small sizes, 0 and negatives for integer flags; NaN and inf for real ones.
# Values are passed as --flag=value, the form that lets "-inf" through
_SIZE = st.one_of(st.integers(1, 6), st.integers(-2, 0))
_INT = _SIZE.map(str)
_REAL = st.one_of(st.floats(0.0, 10.0),
                  st.sampled_from((math.nan, math.inf, -math.inf, -1.0))).map(repr)


@st.composite
def _given_flags(draw, options):
    return [f"{flag}={draw(values)}" for flag, values in options if draw(st.booleans())]


@st.composite
def _argv(draw, work):
    command = draw(st.sampled_from(("analyze", "generate", "svir", "bench",
                                    "verify-dyn", "gram-demo")))
    out = ["--output", str(work / "out")]
    if command == "analyze":
        return ["analyze", "--input", str(draw(st.sampled_from(sorted(work.glob("*.csv"))))),
                "--algorithm", draw(st.sampled_from(ALGORITHMS)),
                "--k-policy", draw(st.sampled_from(("fixed", "absolute", "relative", "gap"))),
                *draw(_given_flags((("--k", _INT), ("--eta", _REAL), ("--f", _REAL)))),
                *out]
    if command == "generate":
        return ["generate", "--family", draw(st.sampled_from(FAMILIES)), f"--n={draw(_INT)}",
                *draw(_given_flags((("--p", _INT), ("--k", _INT), ("--zeta", _REAL),
                                    ("--seed", _INT)))),
                *out]
    if command == "svir":
        return ["svir", f"--days={draw(st.integers(-1, 3))}",
                f"--substeps={draw(st.integers(-1, 3))}",
                "--method", draw(st.sampled_from(("central-fd", "complex-step"))),
                *draw(_given_flags((("--beta", _REAL), ("--i0", _REAL), ("--s0", _REAL),
                                    ("--step", _REAL)))),
                *out]
    if command == "bench":
        policy = {"mode": draw(st.sampled_from(("fixed", "absolute", "relative", "gap")))}
        policy |= draw(st.fixed_dictionaries({}, optional={
            "k": _SIZE, "eta": st.sampled_from((math.nan, -1.0, 0.0, 0.5))}))
        spec = {"generator": {"family": draw(st.sampled_from(("identity", "gaussian", "kahan"))),
                              "n": draw(_SIZE), "p": draw(_SIZE)},
                "algorithms": [draw(st.sampled_from(ALGORITHMS))],
                "k_policy": policy, "realizations": draw(st.integers(1, 2))}
        (work / "spec.json").write_text(json.dumps(spec))
        return ["bench", "--spec", str(work / "spec.json"), "--out-dir", str(work / "bench")]
    if command == "verify-dyn":
        return ["verify-dyn", "--svd", str(work / "svd.json"),
                *draw(_given_flags((("--t", _REAL), ("--tol", _REAL), ("--seed", _INT)))),
                *out]
    return ["gram-demo", *draw(_given_flags((("--eta", _REAL),))), *out]


@pytest.fixture(scope="module")
def argv_inputs(tmp_path_factory):
    work = tmp_path_factory.mktemp("argv")
    rng = np.random.default_rng(0)
    gaussian = rng.standard_normal((6, 4))
    write_csv(gaussian, work / "gaussian.csv")
    write_csv(np.column_stack([gaussian, gaussian[:, 0]]), work / "duplicated.csv")
    write_csv(np.zeros((3, 2)), work / "zeros.csv")
    (work / "svd.json").write_text(json.dumps(
        {"u": np.eye(3, 2).tolist(), "sigma": [2.0, 1.0], "v": np.eye(2).tolist()}))
    return work


@settings(max_examples=200)
@given(data=st.data())
def test_every_exit_is_a_documented_code_with_one_line(argv_inputs, data):
    """Any parseable argv exits 0-3; a failure prints exactly one stderr line."""
    argv = data.draw(_argv(argv_inputs))
    err = io.StringIO()
    with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
        code = main(argv)
    assert code in (0, 1, 2, 3)
    assert len(err.getvalue().splitlines()) == (1 if code in (2, 3) else 0)
