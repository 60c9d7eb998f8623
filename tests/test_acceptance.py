"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see every line.
The theorem property checks (criterion 1) share one precomputed corpus of
seeded random matrices plus desk-scale instances of every adversarial
family, evaluated by all four selection algorithms.
"""
import itertools
import json
import time
from dataclasses import dataclass

import numpy as np
import pytest
import scipy.linalg as sla

from cssident import (
    ExperimentSpec,
    InputDomainError,
    RankPolicy,
    SensMethod,
    SpectrumSpec,
    SrrqrConfig,
    SvdFactors,
    NOMINAL_SVIR,
    build_prescribed_system,
    css_b1,
    css_b3,
    css_b4,
    css_srrqr,
    gen_gu_eisenstat,
    gen_jolliffe,
    gen_kahan,
    gen_ships,
    gen_sorensen_embree,
    gram_loss_demo,
    integrate,
    residual_norm,
    run_experiment,
    select_k,
    svd,
    svir_sensitivity,
    verify_prescribed_sensitivity,
)
from cssident.generators import _haar
from cssident.odesens import TimeGrid

SLACK_FACTOR = 1e-8
GAMMA_EPS = 1e-8  # endpoint slack for gamma range checks, matching gamma1 <= 1 + 1e-8


def _report(cid: str, ok: bool, detail: str) -> bool:
    print(f"[acceptance] criterion {cid}: {'PASS' if ok else 'FAIL'} | {detail}")
    return ok


@dataclass
class TheoremRecord:
    label: str
    algorithm: str
    n: int
    p: int
    k: int
    f: float
    sigma: np.ndarray
    s_r11: np.ndarray
    s_r22: np.ndarray
    r_diag: np.ndarray
    sigma_k_chi1: float
    residual: float
    coupling_max: float
    v11_inv: float | None


@dataclass
class TheoremCorpus:
    records: list
    elapsed_s: float


def _evaluate(label, chi, k, f_srrqr=1.0):
    sigma = svd(chi).sigma
    runs = {
        "b1": css_b1(chi, k),
        "b4": css_b4(chi, k),
        "b3": css_b3(chi, k),
        "srrqr": css_srrqr(chi, k, SrrqrConfig(f=f_srrqr)),
    }
    out = []
    n, p = chi.shape
    for alg, res in runs.items():
        r = res.factors.r
        s_r11 = np.linalg.svd(r[:k, :k], compute_uv=False)
        s_r22 = np.linalg.svd(r[k:, k:], compute_uv=False)
        chi1 = chi[:, res.perm[:k]]
        chi2 = chi[:, res.perm[k:]]
        coupling = sla.solve_triangular(r[:k, :k], r[:k, k:])
        out.append(TheoremRecord(
            label=label, algorithm=alg, n=n, p=p, k=k, f=f_srrqr,
            sigma=sigma, s_r11=s_r11, s_r22=s_r22, r_diag=np.abs(np.diag(r)),
            sigma_k_chi1=float(np.linalg.svd(chi1, compute_uv=False)[k - 1]),
            residual=float(residual_norm(chi1, chi2)),
            coupling_max=float(np.max(np.abs(coupling))),
            v11_inv=res.extras.get("v11_inv_norm"),
        ))
    return out


@pytest.fixture(scope="session")
def theorem_corpus():
    t0 = time.perf_counter()
    rng = np.random.default_rng(0)
    records = []
    for t in range(200):
        n = int(rng.integers(8, 41))
        p = int(rng.integers(4, min(n, 25) + 1))
        chi = rng.standard_normal((n, p))
        if t % 3 == 1:
            # graded spectrum, still far above the float64 noise floor
            u, _, vt = np.linalg.svd(chi, full_matrices=False)
            decades = float(rng.uniform(2.0, 9.0))
            chi = u @ np.diag(np.logspace(0.0, -decades, p)) @ vt
        for k in sorted({3, p // 2, p - 2}):
            if 1 <= k < p:
                records.extend(_evaluate(f"random-{t}", chi, k))
    # every adversarial family at desk scale, at its designated k
    records.extend(_evaluate("kahan-8", gen_kahan(8, 0.95), 7))
    records.extend(_evaluate("kahan-12", gen_kahan(12, 0.9), 11))
    records.extend(_evaluate("gu_eisenstat-12", gen_gu_eisenstat(12, 0.95), 10,
                             f_srrqr=float(np.sqrt(2.0))))
    records.extend(_evaluate(
        "jolliffe-40x20", gen_jolliffe(40, 20, block_size=5, seed=0), 4))
    records.extend(_evaluate(
        "sorensen_embree-60x30",
        gen_sorensen_embree(60, 30, SpectrumSpec(k=8), seed=0), 8))
    records.extend(_evaluate(
        "ships-60x30",
        gen_ships(60, 30, SpectrumSpec(k=8, spacing="logspace"), seed=0), 8))
    return TheoremCorpus(records=records, elapsed_s=time.perf_counter() - t0)


def _violations(records, predicate):
    bad = []
    for rec in records:
        excess = predicate(rec)
        if excess is not None:
            bad.append((rec.label, rec.k, excess))
    return bad


class TestCriterion1:
    def test_c01a_interlacing(self, theorem_corpus):
        def check(rec):
            slack = SLACK_FACTOR * rec.sigma[0]
            upper = np.max(rec.s_r11 - rec.sigma[:rec.k])
            lower = np.max(rec.sigma[rec.k:] - rec.s_r22)
            worst = max(upper, lower)
            return worst if worst > slack else None

        bad = _violations(theorem_corpus.records, check)
        ok = _report("1 (interlacing)", not bad,
                     f"{len(bad)} violations over {len(theorem_corpus.records)} runs")
        assert ok

    def test_c01b_gamma_inequalities(self, theorem_corpus):
        def check(rec):
            slack = SLACK_FACTOR * rec.sigma[0]
            g1_excess = rec.sigma_k_chi1 - rec.sigma[rec.k - 1]
            g2_deficit = rec.sigma[rec.k] - rec.residual
            worst = max(g1_excess, g2_deficit)
            return worst if worst > slack else None

        bad = _violations(theorem_corpus.records, check)
        ok = _report("1 (gamma1 <= 1, gamma2 >= 1)", not bad,
                     f"{len(bad)} violations")
        assert ok

    def test_c01c_b1_residual_bound(self, theorem_corpus):
        # css_b1 promises |r_ll| <= sqrt(l) * sigma_l for every l = k+1..p;
        # the proof form sqrt(p(p-k)) * 2^(p-k-1) * sigma_{k+1} on ||R22||
        # follows from it.  The stated form 2^(p-k-1) * sigma_{k+1} is
        # printed, not asserted: at k = p-1 it demands |r_pp| <= sigma_p,
        # but |r_pp| is the distance of the last column from the span of
        # the others, so |r_pp| >= sigma_p for every column choice.
        recs = [r for r in theorem_corpus.records if r.algorithm == "b1"]

        def per_step(rec):
            slack = SLACK_FACTOR * rec.sigma[0]
            ell = np.arange(rec.k + 1, rec.p + 1)
            bound = np.sqrt(ell) * rec.sigma[rec.k:]
            excess = np.max(rec.r_diag[rec.k:] - bound)
            return excess if excess > slack else None

        def proof_form(rec):
            slack = SLACK_FACTOR * rec.sigma[0]
            bound = (np.sqrt(rec.p * (rec.p - rec.k))
                     * 2.0 ** (rec.p - rec.k - 1) * rec.sigma[rec.k])
            excess = rec.s_r22[0] - bound
            return excess if excess > slack else None

        def stated(rec):
            slack = SLACK_FACTOR * rec.sigma[0]
            bound = 2.0 ** (rec.p - rec.k - 1) * rec.sigma[rec.k]
            excess = rec.s_r22[0] - bound
            return excess if excess > slack else None

        bad_step = _violations(recs, per_step)
        bad_proof = _violations(recs, proof_form)
        bad_stated = _violations(recs, stated)
        ok = _report(
            "1 (b1 bounds: |r_ll| <= sqrt(l)*sigma_l and proof form)",
            not (bad_step or bad_proof),
            f"per-step diagonal: {len(bad_step)} violations; "
            f"proof-form sqrt(p(p-k))*2^(p-k-1): {len(bad_proof)} violations "
            f"over {len(recs)} runs; stated 2^(p-k-1) form (not asserted): "
            f"{len(bad_stated)} violations",
        )
        assert ok

    def test_c01d_b4_lower_bound(self, theorem_corpus):
        recs = [r for r in theorem_corpus.records if r.algorithm == "b4"]

        def check(rec):
            slack = SLACK_FACTOR * rec.sigma[0]
            bound = 2.0 ** (1 - rec.k) * rec.sigma[rec.k - 1]
            deficit = bound - rec.s_r11[-1]
            return deficit if deficit > slack else None

        bad = _violations(recs, check)
        ok = _report("1 (b4 bound)", not bad,
                     f"{len(bad)} violations over {len(recs)} runs")
        assert ok

    def test_c01e_b3_bounds(self, theorem_corpus):
        # fails as stated: the 2^(k-1) cap on ||V11^{-1}|| holds for no
        # selection rule in general.  If every row of V1 has norm
        # sqrt(k/p) (two columns of a normalized 16x16 Hadamard matrix,
        # say), every k x k block has ||V11^{-1}|| >= sqrt(p/k), which
        # exceeds 2^(k-1) once p > k * 4^(k-1).  Column-pivoted QR on V1^T
        # (Golub-Klema-Stewart) gives 2.012 > 2 on corpus matrix random-36
        # at k = 2, as b3 does.  Which cap b3 meets is not stated in the
        # repo, so the assertion stays until the paper's statement is.
        recs = [r for r in theorem_corpus.records if r.algorithm == "b3"]

        def pair_bounds(rec):
            slack = SLACK_FACTOR * rec.sigma[0]
            lower_deficit = rec.sigma[rec.k - 1] / rec.v11_inv - rec.s_r11[-1]
            upper_excess = rec.s_r22[0] - rec.v11_inv * rec.sigma[rec.k]
            worst = max(lower_deficit, upper_excess)
            return worst if worst > slack else None

        def cap(rec):
            slack = SLACK_FACTOR * rec.sigma[0]
            excess = rec.v11_inv - 2.0 ** (rec.k - 1)
            return excess if excess > slack else None

        bad_pair = _violations(recs, pair_bounds)
        bad_cap = _violations(recs, cap)
        ok = _report(
            "1 (b3 bounds with measured V11)", not (bad_pair or bad_cap),
            f"pair bounds: {len(bad_pair)} violations; "
            f"2^(k-1) cap: {len(bad_cap)} violations over {len(recs)} runs",
        )
        assert ok

    def test_c01f_srrqr_bounds(self, theorem_corpus):
        recs = [r for r in theorem_corpus.records if r.algorithm == "srrqr"]

        def check(rec):
            slack = SLACK_FACTOR * rec.sigma[0]
            factor = np.sqrt(1.0 + rec.f ** 2 * rec.k * (rec.p - rec.k))
            lower = np.max(rec.sigma[:rec.k] / factor - rec.s_r11)
            upper = np.max(rec.s_r22 - rec.sigma[rec.k:] * factor)
            coupling = rec.coupling_max - rec.f * (1.0 + 1e-9)
            worst = max(lower, upper, coupling)
            return worst if worst > slack else None

        bad = _violations(recs, check)
        ok = _report("1 (srrqr three-part bound)", not bad,
                     f"{len(bad)} violations over {len(recs)} runs")
        assert ok

    def test_c01g_runtime(self, theorem_corpus):
        ok = _report("1 (runtime)", theorem_corpus.elapsed_s <= 300.0,
                     f"corpus built and evaluated in {theorem_corpus.elapsed_s:.1f}s "
                     f"(budget 300s)")
        assert ok


def test_c02_rho_determinant_identity():
    from cssident import qr_unpivoted, srrqr_rho

    t0 = time.perf_counter()
    rng = np.random.default_rng(2024)
    worst = 0.0
    for _ in range(500):
        p = int(rng.integers(3, 11))
        r = np.triu(rng.standard_normal((p, p)))
        r[np.diag_indices(p)] = np.abs(np.diag(r)) + 0.05
        k = int(rng.integers(1, p))
        i = int(rng.integers(0, k))
        j = int(rng.integers(0, p - k))
        rho = srrqr_rho(r, k, i, j)
        cols = np.arange(p)
        cols[[i, k + j]] = cols[[k + j, i]]
        fac = qr_unpivoted(r[:, cols])
        oracle = np.prod(np.diag(fac.r)[:k]) / np.prod(np.diag(r)[:k])
        worst = max(worst, abs(rho - oracle) / abs(oracle))
    elapsed = time.perf_counter() - t0
    ok = _report("2", worst <= 1e-10 and elapsed <= 30.0,
                 f"max relative error {worst:.2e} over 500 instances, "
                 f"{elapsed:.1f}s")
    assert ok


def test_c03_gram_loss_demo():
    report = gram_loss_demo(eta=1e-12)
    ok = _report("3", report.gram_rank == 1 and report.css_rank == 2,
                 f"gram_rank={report.gram_rank}, css_rank={report.css_rank}")
    assert ok


def _bench(family_params, k, realizations=100, base_seed=0, f=None):
    spec = ExperimentSpec(
        generator=family_params,
        algorithms=("b1", "b4", "b3", "srrqr"),
        k_policy=RankPolicy.fixed(k),
        realizations=realizations,
        base_seed=base_seed,
        f=f or {},
    )
    return run_experiment(spec)


def test_c04_kahan_reproduction():
    t0 = time.perf_counter()
    report = _bench({"family": "kahan", "n": 100,
                     "zeta_range": [0.9, 0.99999]}, k=99)
    elapsed = time.perf_counter() - t0
    g1 = {a: report.stats[a]["gamma1"]["mean"] for a in report.stats}
    g2 = {a: report.stats[a]["gamma2"]["mean"] for a in report.stats}
    checks = [
        all(0.95 <= g1[a] <= 1.0 + GAMMA_EPS for a in ("b1", "b3", "srrqr")),
        g1["b4"] <= 1e-2,
        g2["b4"] >= 1e8,
        all(g2[a] <= 1e5 for a in ("b1", "b3", "srrqr")),
        elapsed <= 600.0,
    ]
    ok = _report(
        "4", all(checks),
        f"mean gamma1 b1/b3/srrqr = {g1['b1']:.3f}/{g1['b3']:.3f}/"
        f"{g1['srrqr']:.3f}, b4 = {g1['b4']:.2e}; mean gamma2 b4 = "
        f"{g2['b4']:.2e}, others <= {max(g2['b1'], g2['b3'], g2['srrqr']):.2e}; "
        f"{elapsed:.0f}s",
    )
    assert ok


def test_c05_gu_eisenstat_reproduction():
    # stated at n = 100, k = 98 (c04's Kahan size): the b4 gamma2 blowup
    # does not exist at n = 50.  In exact arithmetic b4 rejects columns
    # {n-2, n-1}, whose residual mu * [e_{n-2}, e_{n-1}] has norm
    # mu = sigma_{k+1}, so gamma2 = 1.  The blowup appears only once mu
    # falls below the rank cutoff n * eps * sigma_1: then b4's kept Kahan
    # block is numerically singular and gamma2 is flagged infinite.  Over
    # the sampled zeta range that needs n >~ 80.  Measured at base seed 0:
    # n = 50 gives gamma1 = gamma2 = 1 for all four algorithms on all 100
    # realizations; n = 100 gives b4 gamma2 infinite on 46/100 and
    # b1/b3/srrqr max gamma2 = 1.0.
    report = _bench({"family": "gu_eisenstat", "n": 100,
                     "zeta_range": [0.9, 0.99999]}, k=98,
                    f={"srrqr": float(np.sqrt(2.0))})
    g2 = {a: report.stats[a]["gamma2"]["mean"] for a in report.stats}
    b4_blowup = g2["b4"] >= 1e4
    others_small = all(g2[a] <= 10.0 for a in ("b1", "b3", "srrqr"))
    ok = _report(
        "5", b4_blowup and others_small,
        f"mean gamma2: b4 = {g2['b4']:.3g} (need >= 1e4), "
        f"b1/b3/srrqr = {g2['b1']:.3g}/{g2['b3']:.3g}/{g2['srrqr']:.3g} "
        f"(need <= 10)",
    )
    assert ok


def test_c06_sorensen_embree_ordering():
    # stated at 200x100, k = 20 (the size of TestFullScaleBehavior's
    # Sorensen-Embree test): the gamma1 separation between the
    # deflation-style and greedy selectors grows with size.  At 60x30,
    # k = 8 the four ratios are 1.09-1.13 on each of six seed bases
    # (0-500), never 1.2; at 200x100, k = 20 they are >= 1.595 (base 0)
    # and >= 1.577 (base 100), with gamma2 b3 ~ 1.01 <= b1 ~ 5.58.
    report = _bench({"family": "sorensen_embree", "n": 200, "p": 100,
                     "spectrum": {"k": 20}}, k=20)
    g1 = {a: report.stats[a]["gamma1"]["mean"] for a in report.stats}
    g2 = {a: report.stats[a]["gamma2"]["mean"] for a in report.stats}
    ratios = {
        (hi, lo): g1[hi] / g1[lo]
        for hi, lo in itertools.product(("b1", "srrqr"), ("b4", "b3"))
    }
    ratio_ok = all(v >= 1.2 for v in ratios.values())
    order_ok = g2["b3"] <= g2["b1"]
    ok = _report(
        "6", ratio_ok and order_ok,
        "gamma1 ratios " +
        ", ".join(f"{hi}/{lo}={v:.3f}" for (hi, lo), v in ratios.items()) +
        f" (need >= 1.2); gamma2 b3 = {g2['b3']:.2f} <= b1 = {g2['b1']:.2f}: "
        f"{order_ok}",
    )
    assert ok


def test_c07_ships_srrqr_superiority():
    # fails as stated: srrqr beats b1 and b4 in mean tau and mean gamma1
    # on all 10 seed bases 0-900, but beats b3 on only 6/10 (tau) and
    # 7/10 (gamma1), and base 0 loses both.  A larger size does not help:
    # at 200x100, k = 20, b3 still edges srrqr (tau 1.974e-12 vs
    # 2.008e-12, gamma1 0.318 vs 0.317).  Unsettled: whether the criterion
    # asks more than srrqr's polynomial bounds promise, or ships fails to
    # build the separation from b3.  Re-seeding would only pick a seed.
    report = _bench({"family": "ships", "n": 60, "p": 30,
                     "spectrum": {"k": 8, "spacing": "logspace"}}, k=8)
    tau = {a: report.stats[a]["tau"]["mean"] for a in report.stats}
    g1 = {a: report.stats[a]["gamma1"]["mean"] for a in report.stats}
    tau_best = all(tau["srrqr"] <= tau[a] for a in ("b1", "b4", "b3"))
    g1_best = all(g1["srrqr"] >= g1[a] for a in ("b1", "b4", "b3"))
    ok = _report(
        "7", tau_best and g1_best,
        f"mean tau srrqr = {tau['srrqr']:.3e} vs "
        f"{tau['b1']:.3e}/{tau['b4']:.3e}/{tau['b3']:.3e}; "
        f"mean gamma1 srrqr = {g1['srrqr']:.3f} vs "
        f"{g1['b1']:.3f}/{g1['b4']:.3f}/{g1['b3']:.3f}",
    )
    assert ok


def test_c08_jolliffe_agreement():
    report = _bench({"family": "jolliffe", "n": 40, "p": 20,
                     "block_size": 5, "spectrum": {"k": 4}}, k=4)
    spreads = {}
    for metric in ("gamma1", "gamma2"):
        means = [report.stats[a][metric]["mean"] for a in report.stats]
        spreads[metric] = (max(means) - min(means)) / max(means)
    ok = _report(
        "8", all(v <= 0.05 for v in spreads.values()),
        f"relative spread of means: gamma1 {spreads['gamma1']:.2e}, "
        f"gamma2 {spreads['gamma2']:.2e} (need <= 5e-2)",
    )
    assert ok


def test_c09_svir_pipeline():
    from cssident import compute_metrics

    t0 = time.perf_counter()
    chi = svir_sensitivity(NOMINAL_SVIR)
    sel = select_k(svd(chi).sigma, RankPolicy.gap())
    metrics_ok = True
    detail = []
    for fn in (css_b1, css_b4, css_b3, css_srrqr):
        rec = compute_metrics(chi, svd(chi), fn(chi, 3))
        metrics_ok &= 0.8 <= rec.gamma1 <= 1.0 + GAMMA_EPS
        metrics_ok &= 1.0 - GAMMA_EPS <= rec.gamma2 <= 1.3
        detail.append(f"{rec.algorithm}: g1={rec.gamma1:.4f} g2={rec.gamma2:.4f}")
    fd = svir_sensitivity(NOMINAL_SVIR, method=SensMethod.central_fd())
    agreement = np.linalg.norm(chi - fd) / np.linalg.norm(chi)
    elapsed = time.perf_counter() - t0
    ok = _report(
        "9",
        sel.k == 3 and metrics_ok and agreement <= 1e-6 and elapsed <= 60.0,
        f"gap k = {sel.k}; " + "; ".join(detail) +
        f"; fd-vs-complex-step {agreement:.2e}; {elapsed:.1f}s",
    )
    assert ok


def test_c10_prescribed_system_construction():
    rng = np.random.default_rng(10)
    worst = 0.0
    for _ in range(50):
        p = int(rng.integers(2, 9))
        n = int(rng.integers(p, 13))
        u = _haar(rng, n, p)
        v = _haar(rng, p, p)
        sigma = np.sort(10.0 ** rng.uniform(-3, 2, p))[::-1]
        system = build_prescribed_system(
            SvdFactors(u=u, sigma=sigma, v=v), horizon=1.0
        )
        q = rng.standard_normal(p)
        report = verify_prescribed_sensitivity(system, q, tol=1e-10)
        worst = max(worst, report.rel_error)
    zero_rejected = False
    try:
        build_prescribed_system(
            SvdFactors(u=np.eye(3), sigma=np.array([1.0, 1.0, 0.0]),
                       v=np.eye(3)),
            horizon=1.0,
        )
    except InputDomainError:
        zero_rejected = True
    ok = _report(
        "10", worst <= 1e-10 and zero_rejected,
        f"max relative error {worst:.2e} over 50 systems; "
        f"zero singular value rejected: {zero_rejected}",
    )
    assert ok


def test_c11_rk4_order():
    errs = []
    for substeps in (10, 20, 40, 80):
        traj = integrate(lambda t, x: -x, np.array([1.0]),
                         TimeGrid(np.array([0.0, 1.0])), substeps=substeps)
        errs.append(abs(traj[-1, 0] - np.exp(-1.0)))
    orders = [float(np.log2(errs[i] / errs[i + 1])) for i in range(3)]
    ok = _report(
        "11", all(3.8 <= o <= 4.2 for o in orders),
        "observed orders " + ", ".join(f"{o:.3f}" for o in orders),
    )
    assert ok


def test_c12_cli_determinism(tmp_path):
    from cssident.cli import main as cli_main

    def run_twice(name, argv_for):
        d1, d2 = tmp_path / f"{name}-1", tmp_path / f"{name}-2"
        d1.mkdir(), d2.mkdir()
        assert cli_main(argv_for(d1)) == 0
        assert cli_main(argv_for(d2)) == 0
        return d1, d2

    identical = []

    d1, d2 = run_twice("gen", lambda d: [
        "generate", "--family", "ships", "--n", "30", "--p", "15", "--k", "5",
        "--seed", "7", "--output", str(d / "m.csv")])
    identical.append((d1 / "m.csv").read_bytes() == (d2 / "m.csv").read_bytes())

    d1, d2 = run_twice("genmm", lambda d: [
        "generate", "--family", "kahan", "--n", "10", "--zeta", "0.93",
        "--format", "matrixmarket", "--output", str(d / "m.mtx")])
    identical.append((d1 / "m.mtx").read_bytes() == (d2 / "m.mtx").read_bytes())

    d1, d2 = run_twice("svir", lambda d: [
        "svir", "--days", "8", "--substeps", "25", "--output", str(d / "s.csv")])
    identical.append((d1 / "s.csv").read_bytes() == (d2 / "s.csv").read_bytes())

    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps({
        "generator": {"family": "kahan", "n": 12, "zeta_range": [0.9, 0.99]},
        "algorithms": ["b1", "srrqr"],
        "k_policy": {"mode": "fixed", "k": 11},
        "realizations": 4,
        "base_seed": 3,
    }))
    d1, d2 = run_twice("bench", lambda d: [
        "bench", "--spec", str(spec), "--out-dir", str(d / "out")])
    identical.append((d1 / "out" / "rows.csv").read_bytes()
                     == (d2 / "out" / "rows.csv").read_bytes())

    mat = tmp_path / "kahan.csv"
    assert cli_main(["generate", "--family", "kahan", "--n", "8", "--zeta",
                     "0.95", "--output", str(mat)]) == 0
    d1, d2 = run_twice("analyze", lambda d: [
        "analyze", "--input", str(mat), "--algorithm", "srrqr",
        "--k-policy", "fixed", "--k", "7", "--output", str(d / "a.json")])
    identical.append((d1 / "a.json").read_bytes() == (d2 / "a.json").read_bytes())

    d1, d2 = run_twice("gram", lambda d: [
        "gram-demo", "--output", str(d / "g.json")])
    identical.append((d1 / "g.json").read_bytes() == (d2 / "g.json").read_bytes())

    ok = _report("12", all(identical),
                 f"{sum(identical)}/{len(identical)} command reruns byte-identical")
    assert ok
