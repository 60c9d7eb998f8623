import dataclasses
import math

import numpy as np
import pytest

from cssident import (
    CssResult,
    InputDomainError,
    NOMINAL_SVIR,
    QrFactors,
    SvdFactors,
    compute_metrics,
    css_b1,
    css_b3,
    css_b4,
    css_srrqr,
    gram_loss_demo,
    qr_unpivoted,
    svd,
    svir_sensitivity,
    theorem_bound_checks,
)


def _selection_missing_range(caution_matrix):
    # an adversarially bad hand-made selection: keep both duplicates of one
    # pair, so the rejected block is NOT spanned although sigma_3 = 0
    perm = np.array([0, 2, 1, 3])
    fac = qr_unpivoted(caution_matrix[:, perm])
    return CssResult(
        algorithm="b1", k=2,
        factors=QrFactors(perm=perm, q=fac.q, r=fac.r),
        identifiable=(0, 2), unidentifiable=(1, 3),
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
        rec = compute_metrics(caution_matrix, svd(caution_matrix),
                              _selection_missing_range(caution_matrix))
        assert rec.gamma2_flag == "infinite"
        assert np.isinf(rec.gamma2)

    def test_as_dict_equals_asdict(self, caution_matrix):
        a = np.eye(4)
        records = [
            compute_metrics(a, svd(a), css_b1(a, 2)),
            compute_metrics(caution_matrix, svd(caution_matrix),
                            css_b1(caution_matrix, 2)),
            compute_metrics(caution_matrix, svd(caution_matrix),
                            _selection_missing_range(caution_matrix)),
        ]
        assert records[1].tau is None and records[1].tau_flag == "undefined"
        assert records[2].gamma2 == math.inf
        for rec in records:
            assert list(rec.as_dict().items()) == list(dataclasses.asdict(rec).items())

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

    def test_mismatched_input_rejected_at_large_scale(self):
        # squaring entries of size 2^600 overflows; the check must still see
        # that the factors belong to another matrix
        rng = np.random.default_rng(5)
        a = rng.standard_normal((20, 6)) * 2.0 ** 600
        b = rng.standard_normal((20, 6)) * 2.0 ** 600
        res = css_b1(a, 3)
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

    @staticmethod
    def _identity_checks(algorithm, k, p=1030, sigma=None, extras=None):
        # hand-built factors of the p x p identity: no selection runs
        eye = np.eye(p)
        chi_svd = SvdFactors(u=eye, sigma=np.ones(p) if sigma is None else sigma, v=eye)
        perm = np.arange(p)
        result = CssResult(algorithm=algorithm, k=k,
                           factors=QrFactors(perm=perm, q=eye, r=eye),
                           identifiable=tuple(range(k)),
                           unidentifiable=tuple(range(k, p)),
                           extras=extras or {})
        checks = theorem_bound_checks(chi_svd, result)
        for c in checks:
            assert not any(math.isnan(x) for x in (c.lhs, c.rhs, c.slack))
        return {c.name: c for c in checks}

    def test_b1_bound_past_double_range(self):
        # 2^(p-k-1) = 2^1028 overflows; the bound is inf, not an error
        checks = self._identity_checks("b1", 1)
        for name in ("b1-residual-upper", "b1-residual-upper-proof-form"):
            assert checks[name].rhs == math.inf and checks[name].satisfied
        # ... and 0 where the sigma it multiplies is 0
        sigma = np.zeros(1030)
        sigma[0] = 1.0
        checks = self._identity_checks("b1", 1, sigma=sigma)
        for name in ("b1-residual-upper", "b1-residual-upper-proof-form"):
            assert checks[name].rhs == 0.0
        # the largest exponent that fits keeps its value
        checks = self._identity_checks("b1", 6)
        assert checks["b1-residual-upper"].rhs == 2.0 ** 1023

    @pytest.mark.parametrize("j", (0, -600, 600))
    def test_b3_cap_flag_does_not_depend_on_scale(self, j):
        # ||V11^{-1}|| is unitless, and so is the slack of its cap 2^(k-1)
        a = np.ldexp(np.random.default_rng(0).standard_normal((20, 6)), j)
        checks = {c.name: c for c in theorem_bound_checks(svd(a), css_b3(a, 1))}
        cap = checks["b3-v11-inverse-cap"]
        assert cap.lhs == pytest.approx(1.3297, abs=1e-4)
        assert (cap.rhs, cap.slack) == (1.0, 1e-9)
        assert not cap.satisfied

    def test_b3_cap_past_double_range(self):
        # 2^(k-1) = 2^1025 overflows; the cap is inf, not an error
        checks = self._identity_checks("b3", 1026, extras={"v11_inv_norm": 1.0})
        cap = checks["b3-v11-inverse-cap"]
        assert cap.rhs == math.inf and cap.satisfied


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
