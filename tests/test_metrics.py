import numpy as np
import pytest

from cssident import (
    InputDomainError,
    NOMINAL_SVIR,
    compute_metrics,
    css_b1,
    css_b3,
    css_b4,
    css_srrqr,
    gram_loss_demo,
    svd,
    svir_sensitivity,
    theorem_bound_checks,
)


class TestComputeMetrics:
    def test_identity_all_ones(self):
        a = np.eye(4)
        rec = compute_metrics(a, svd(a), css_b1(a, 2))
        assert rec.gamma1 == pytest.approx(1.0)
        assert rec.gamma2 == pytest.approx(1.0)
        assert rec.tau == pytest.approx(1.0)
        assert rec.gamma2_flag == "ok" and rec.tau_flag == "ok"

    def test_exactly_deficient_matrix(self, caution_matrix):
        rec = compute_metrics(caution_matrix, svd(caution_matrix),
                              css_b1(caution_matrix, 2))
        assert rec.gamma2_flag == "exact-deficiency"
        assert rec.gamma2 == 1.0
        assert rec.tau_flag == "undefined"
        assert rec.tau is None
        assert rec.residual <= 1e-12

    def test_infinite_flag_when_selection_misses_range(self, caution_matrix):
        # an adversarially bad hand-made selection: keep both duplicates of
        # one pair, so the rejected block is NOT spanned although
        # sigma_3 = 0
        from cssident.css import CssResult
        from cssident.linalg import QrFactors, qr_unpivoted

        perm = np.array([0, 2, 1, 3])
        permuted = caution_matrix[:, perm]
        fac = qr_unpivoted(permuted)
        result = CssResult(
            algorithm="b1", k=2,
            factors=QrFactors(perm=perm, q=fac.q, r=fac.r),
            identifiable=(0, 2), unidentifiable=(1, 3),
        )
        rec = compute_metrics(caution_matrix, svd(caution_matrix), result)
        assert rec.gamma2_flag == "infinite"
        assert np.isinf(rec.gamma2)

    def test_svir_pipeline_metrics(self):
        chi = svir_sensitivity(NOMINAL_SVIR)
        for fn in (css_b1, css_b4, css_b3, css_srrqr):
            rec = compute_metrics(chi, svd(chi), fn(chi, 3))
            assert 0.8 <= rec.gamma1 <= 1.0 + 1e-8
            assert 1.0 - 1e-8 <= rec.gamma2 <= 1.3

    def test_mismatched_input_rejected(self):
        rng = np.random.default_rng(2)
        a = rng.standard_normal((8, 5))
        b = rng.standard_normal((8, 5))
        res = css_b1(a, 2)
        with pytest.raises(InputDomainError):
            compute_metrics(b, svd(b), res)

    def test_gamma_invariants_seeded(self):
        rng = np.random.default_rng(77)
        for _ in range(20):
            n = int(rng.integers(5, 20))
            p = int(rng.integers(3, min(n, 10) + 1))
            a = rng.standard_normal((n, p))
            k = int(rng.integers(1, p))
            for fn in (css_b1, css_b4, css_b3, css_srrqr):
                rec = compute_metrics(a, svd(a), fn(a, k))
                assert rec.gamma1 <= 1.0 + 1e-8
                if rec.gamma2_flag == "ok":
                    assert rec.gamma2 >= 1.0 - 1e-8


class TestBoundChecks:
    def test_identity_all_satisfied(self):
        a = np.eye(4)
        for fn in (css_b1, css_b4, css_b3, css_srrqr):
            checks = theorem_bound_checks(svd(a), fn(a, 2))
            assert all(c.satisfied for c in checks)

    def test_srrqr_bounds_reported(self):
        rng = np.random.default_rng(5)
        a = rng.standard_normal((10, 6))
        checks = theorem_bound_checks(svd(a), css_srrqr(a, 3))
        names = {c.name for c in checks}
        assert "srrqr-coupling-cap" in names
        assert any(n.startswith("srrqr-sigma-lower") for n in names)
        assert all(c.satisfied for c in checks)


class TestGramLossDemo:
    def test_rank_detection_splits(self):
        report = gram_loss_demo(eta=1e-12)
        assert report.gram_rank == 1
        assert report.css_rank == 2

    def test_gram_is_exactly_ones(self):
        report = gram_loss_demo()
        assert np.array_equal(report.gram, np.ones((2, 2)))

    def test_huge_eta_collapses_both(self):
        report = gram_loss_demo(eta=0.5)
        assert report.gram_rank == 1
        assert report.css_rank == 1

    def test_sigma2_within_bracket(self):
        report = gram_loss_demo()
        assert 5e-10 <= report.sigma[1] <= 5e-9
