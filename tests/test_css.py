import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays
from numpy.testing import assert_allclose

from cssident import (
    CssIdentError,
    InputDomainError,
    NumericalFailureError,
    RankPolicy,
    SrrqrConfig,
    css_b1,
    css_b3,
    css_b4,
    css_srrqr,
    gen_gu_eisenstat,
    gen_jolliffe,
    gen_kahan,
    qr_unpivoted,
    run_css,
    select_k,
    srrqr_rho,
    svd,
)
from cssident.bench import realize
from cssident.css import _B1_BLOCK, _exchange, _gram_certified_pick, _working
from cssident.linalg import _EPS, _nonneg_diag
from cssident.metrics import compute_metrics, theorem_bound_checks


ALL_ALGS = {
    "b1": lambda a, k: css_b1(a, k),
    "b4": lambda a, k: css_b4(a, k),
    "b3": lambda a, k: css_b3(a, k),
    "srrqr": lambda a, k: css_srrqr(a, k),
}


class TestSelectK:
    def test_exact_deficiency_relative(self):
        sel = select_k([np.sqrt(2), np.sqrt(2), 0.0, 0.0], RankPolicy.relative(1e-12))
        assert sel == (2, False)

    def test_fixed(self):
        assert select_k([3.0, 2.0, 1.0], RankPolicy.fixed(2)).k == 2

    @pytest.mark.parametrize("eta", (-1e-3, float("nan")))
    def test_eta_domain(self, eta):
        with pytest.raises(InputDomainError, match="eta must be nonnegative"):
            RankPolicy.absolute(eta)

    @pytest.mark.parametrize("mode", ("absolute", "relative"))
    def test_threshold_modes_require_eta(self, mode):
        with pytest.raises(InputDomainError, match=f"{mode} rank policy needs eta"):
            RankPolicy(mode=mode)

    def test_other_modes_record_eta_zero(self):
        assert RankPolicy.fixed(2).eta == 0.0
        assert RankPolicy(mode="gap", eta=None).eta == 0.0

    def test_gap_dominant_ratio(self):
        sel = select_k([100.0, 99.0, 1e-6, 1e-7], RankPolicy.gap())
        assert sel.k == 2

    def test_gap_zero_tail(self):
        assert select_k([5.0, 1.0, 0.0], RankPolicy.gap()).k == 2

    def test_gap_tie_prefers_smallest(self):
        assert select_k([4.0, 2.0, 1.0], RankPolicy.gap()).k == 1

    def test_absolute_threshold(self):
        assert select_k([10.0, 5.0, 0.5], RankPolicy.absolute(1.0)).k == 2

    def test_degenerate_all_below(self):
        sel = select_k([1e-20, 1e-21], RankPolicy.absolute(1.0))
        assert sel == (1, True)

    def test_clamps_to_p_minus_1(self):
        assert select_k([3.0, 2.0, 1.0], RankPolicy.absolute(0.0)).k == 2
        assert select_k([3.0, 2.0, 1.0], RankPolicy.fixed(17)).k == 2

    def test_rejects_bad_sigma(self):
        with pytest.raises(InputDomainError):
            select_k([], RankPolicy.gap())
        with pytest.raises(InputDomainError):
            select_k([1.0, 2.0], RankPolicy.gap())
        with pytest.raises(InputDomainError):
            select_k([1.0], RankPolicy.gap())
        for bad in ([2.0, np.nan, 1.0], [np.inf, 1.0], [2.0, 1.0, -np.inf]):
            with pytest.raises(InputDomainError, match="sigma must be finite"):
                select_k(bad, RankPolicy.absolute(0.5))


class TestCssB1:
    def test_identity_k2(self):
        res = css_b1(np.eye(4), 2)
        r22 = res.factors.r[2:, 2:]
        assert np.linalg.norm(r22, 2) == pytest.approx(1.0)

    def test_caution_matrix_duplicate_pairs(self, caution_matrix):
        res = css_b1(caution_matrix, 2)
        rejected = set(res.unidentifiable)
        assert len(rejected & {0, 2}) == 1
        assert len(rejected & {1, 3}) == 1
        assert np.linalg.norm(res.factors.r[2:, 2:], 2) <= 1e-12

    def test_kahan_trailing_diagonal_bound(self):
        chi = gen_kahan(8, 0.95)
        sigma = svd(chi).sigma
        res = css_b1(chi, 7)
        assert abs(res.factors.r[7, 7]) <= np.sqrt(8) * sigma[7] + 1e-10

    def test_trailing_diag_lemma_random(self):
        rng = np.random.default_rng(21)
        for _ in range(15):
            a = rng.standard_normal((14, 9))
            sigma = svd(a).sigma
            for k in (3, 7):
                res = css_b1(a, k)
                r = res.factors.r
                for ell in range(k + 1, 10):
                    assert abs(r[ell - 1, ell - 1]) <= \
                        np.sqrt(ell) * sigma[ell - 1] + 1e-8 * sigma[0]

    def test_proof_form_residual_bound(self):
        # the appendix derivation bounds ||R22|| by sqrt(p(p-k)) 2^(p-k-1) sigma_{k+1}
        rng = np.random.default_rng(22)
        for _ in range(15):
            a = rng.standard_normal((16, 10))
            sigma = svd(a).sigma
            for k in (3, 5, 8):
                res = css_b1(a, k)
                lhs = np.linalg.norm(res.factors.r[k:, k:], 2)
                rhs = np.sqrt(10 * (10 - k)) * 2.0 ** (10 - k - 1) * sigma[k]
                assert lhs <= rhs + 1e-8 * sigma[0]


# the references return perm only: a result's factors are the QR of
# chi[:, perm] (TestFactorsOfTheSelectedOrder), so equal perms mean equal factors


def _full_exchange(r, perm, a, b, end):
    # the exchange with Q formed and applied to every column past end; the
    # references use it, so they do not share css._exchange's R-only route
    # and can catch a drift in it
    r[:, [a, b]] = r[:, [b, a]]
    perm[[a, b]] = perm[[b, a]]
    qt, r[a:end, a:end] = _nonneg_diag(*np.linalg.qr(r[a:end, a:end]))
    r[a:end, end:] = qt.T @ r[a:end, end:]


def _reference_b1(chi, k):
    # b1's perm with every pick taken from the full SVD of the leading block
    r, perm, _ = _working(qr_unpivoted(chi))
    for ell in range(chi.shape[1], k, -1):
        _, _, vt = np.linalg.svd(r[:ell, :ell])
        m = int(np.argmax(np.abs(vt[-1])))
        _full_exchange(r, perm, m, ell - 1, ell)
    return perm


def _reference_greedy(chi, k, subspace):
    # b4's (subspace=False) or b3's perm with every pick taken from the full
    # SVD of the trailing block
    r, perm, _ = _working(qr_unpivoted(chi))
    for i in range(k):
        _, _, vt = np.linalg.svd(r[i:, i:])
        m = int(np.argmax(np.linalg.norm(vt[: k - i if subspace else 1], axis=0)))
        _full_exchange(r, perm, i, i + m, chi.shape[1])
    return perm


def _ships(n, p, k, seed):
    return realize({"family": "ships", "n": n, "p": p, "spectrum": {"k": k}}, seed)


def _near_tie_matrix(n=30, p=20):
    # the smallest right singular vector is (e_3 - e_7) / sqrt(2): its two
    # largest entries tie, so only the exact SVD can say which one it picks
    rng = np.random.default_rng(5)
    w = np.zeros(p)
    w[3], w[7] = 1.0, -1.0
    v, _ = np.linalg.qr(np.column_stack([w, rng.standard_normal((p, p - 1))]))
    v = np.roll(v, -1, axis=1)  # w becomes the last right singular vector
    u, _ = np.linalg.qr(rng.standard_normal((n, p)))
    return u @ np.diag(np.logspace(0, -1, p)) @ v.T


def _clustered_matrix(n=120, p=60, seed=3):
    # sigma = 1 +- logspace(-12, -2) with alternating signs and Haar U and V.
    # A start that drops the previous step's smallest Ritz vector certifies
    # a wrong pick here (column 36 for the SVD's column 1 at l = 59)
    rng = np.random.default_rng(seed)
    signs = np.where(np.arange(p) % 2, 1, -1)
    sigma = np.sort(1.0 + np.logspace(-12, -2, p) * signs)
    u = np.linalg.qr(rng.standard_normal((n, p)))[0]
    v = np.linalg.qr(rng.standard_normal((p, p)))[0]
    return u @ np.diag(sigma[::-1]) @ v.T


B1_ITERATION_CASES = {
    **{f"ships200-{seed}": (lambda seed=seed: _ships(200, 100, 20, seed), 20)
       for seed in range(4)},
    # at l = 196, sigma_{l-1} / sigma_l = 1.010 with cond(R11) = 5.1e12
    "ships400-10": (lambda: _ships(400, 200, 40, 10), 40),
    "kahan-0.9": (lambda: gen_kahan(100, 0.9), 50),
    "kahan-0.99999": (lambda: gen_kahan(100, 0.99999), 50),
    "gu-eisenstat": (lambda: gen_gu_eisenstat(100, 0.99), 50),
    "gaussian-300x150": (lambda: np.random.default_rng(7).standard_normal((300, 150)), 30),
    "clustered-120x60": (_clustered_matrix, 12),
}


class TestCssB1InverseIteration:
    """Picks certified by the inverse iteration match the exact SVD's."""

    @pytest.mark.parametrize("case", B1_ITERATION_CASES)
    def test_bit_identical_to_exact_svd_picks(self, case):
        make, k = B1_ITERATION_CASES[case]
        chi = make()
        assert np.array_equal(css_b1(chi, k).perm, _reference_b1(chi, k))

    def test_iteration_decides_most_ships_steps(self):
        chi = _ships(200, 100, 20, 0)
        res = css_b1(chi, 20)
        assert res.extras["svd_fallbacks"] < (100 - 20) // 4
        assert res.extras["solve_sweeps"] >= 2 * (100 - 20 - res.extras["svd_fallbacks"])

    @pytest.mark.parametrize("case", ("ships200-0", "ships400-10"))
    def test_warm_start_keeps_sweeps_low(self, case):
        # counts do not jitter: a step started from the previous step's
        # smallest Ritz vectors is certified after about 2 sweeps
        make, k = B1_ITERATION_CASES[case]
        chi = make()
        extras = css_b1(chi, k).extras
        certified = chi.shape[1] - k - extras["svd_fallbacks"]
        assert extras["solve_sweeps"] <= 2.5 * certified

    def test_near_tie_falls_back_to_the_svd(self):
        chi = _near_tie_matrix()
        res = css_b1(chi, 16)
        assert res.extras["svd_fallbacks"] >= 1
        assert np.array_equal(res.perm, _reference_b1(chi, 16))

    @pytest.mark.parametrize("j", (-600, 600))
    def test_scaled_input_same_perm(self, j):
        chi = _ships(200, 100, 20, 1)
        assert np.array_equal(css_b1(np.ldexp(chi, j), 20).perm, css_b1(chi, 20).perm)

    def test_reruns_report_equal_extras(self):
        chi = _ships(200, 100, 20, 2)
        assert css_b1(chi, 20).extras == css_b1(chi, 20).extras


# b4 and b3 on the matrices of B1_ITERATION_CASES; at k = 80 the square
# n = 100 matrices also run blocks small enough to go straight to the SVD
GREEDY_CASES = {name: (make, 80 if k == 50 else k)
                for name, (make, k) in B1_ITERATION_CASES.items()}
GREEDY_ALGS = {"b4": (css_b4, False), "b3": (css_b3, True)}


def _duplicate_column_matrix():
    # columns 3 and 9 are the same dominant column, so the two lead every
    # score by the same amount and only the exact SVD can say which it picks
    a = np.random.default_rng(8).standard_normal((80, 40))
    a[:, 9] = a[:, 3] = 10.0 * a[:, 3]
    return a


class TestGreedyGramRoute:
    """b4's and b3's certified Gram picks match the exact SVD's."""

    @pytest.mark.parametrize("alg", GREEDY_ALGS)
    @pytest.mark.parametrize("case", GREEDY_CASES)
    def test_bit_identical_to_exact_svd_picks(self, case, alg):
        make, k = GREEDY_CASES[case]
        fn, subspace = GREEDY_ALGS[alg]
        chi = make()
        assert np.array_equal(fn(chi, k).perm, _reference_greedy(chi, k, subspace))

    @pytest.mark.parametrize("alg", GREEDY_ALGS)
    def test_duplicate_columns_fall_back_to_the_svd(self, alg):
        fn, subspace = GREEDY_ALGS[alg]
        chi = _duplicate_column_matrix()
        res = fn(chi, 4)
        assert res.extras["svd_fallbacks"] >= 1
        assert np.array_equal(res.perm, _reference_greedy(chi, 4, subspace))

    @pytest.mark.parametrize("alg", GREEDY_ALGS)
    def test_tiny_trailing_columns(self, alg):
        # after the 20 large columns the trailing blocks are about 2^-600
        # times max|r|.  b3's first 20 steps cannot certify (their d > 20
        # dominant vectors reach into the tiny columns) and the backoff
        # then skips the rest; b4 runs steps 20-27 (blocks of 40 down to 33
        # columns) on the Gram route, whose Gram matrix must not underflow
        fn, subspace = GREEDY_ALGS[alg]
        chi = np.random.default_rng(9).standard_normal((120, 60))
        chi[:, 20:] = np.ldexp(chi[:, 20:], -600)
        res = fn(chi, 30)
        assert np.array_equal(res.perm, _reference_greedy(chi, 30, subspace))
        if not subspace:
            assert res.extras["svd_fallbacks"] <= 2
        # 2^-400, not 2^-600: the latter puts the tiny columns at 2^-1200,
        # below the smallest subnormal, so the input itself loses them
        for j in (-400, 600):
            assert fn(np.ldexp(chi, j), 30).identifiable == res.identifiable

    @pytest.mark.parametrize("d", (1, 5))
    def test_gram_pick_of_a_tiny_block(self, d):
        block = qr_unpivoted(_ships(200, 100, 20, 3)).r
        pick = _gram_certified_pick(block, d)
        assert pick is not None
        assert _gram_certified_pick(np.ldexp(block, -600), d) == pick

    def test_one_vector_pick_refuses_an_exact_tie(self):
        block = qr_unpivoted(_duplicate_column_matrix()).r
        assert _gram_certified_pick(block, 1) is None

    def test_one_vector_pick_refuses_equal_top_singular_values(self):
        rng = np.random.default_rng(6)
        u = np.linalg.qr(rng.standard_normal((80, 40)))[0]
        v = np.linalg.qr(rng.standard_normal((40, 40)))[0]
        sigma = np.geomspace(1.0, 1e-3, 40)
        sigma[1] = sigma[0]
        block = qr_unpivoted((u * sigma) @ v.T).r
        assert _gram_certified_pick(block, 1) is None

    @pytest.mark.parametrize("seed", (0, 1, 2))
    def test_one_vector_pick_is_the_svds_on_ships(self, seed):
        # the trailing blocks b4 meets, from the first step to its last (k = 20)
        r, _, _ = _working(qr_unpivoted(_ships(200, 100, 20, seed)))
        for i in range(20):
            _, _, vt = np.linalg.svd(r[i:, i:])
            m = int(np.argmax(np.abs(vt[0])))
            assert _gram_certified_pick(r[i:, i:], 1) == m, i
            _exchange(r, np.arange(100), i, i + m)

    @pytest.mark.parametrize("alg", GREEDY_ALGS)
    def test_svd_calls_on_ships(self, alg, monkeypatch):
        # counts do not jitter: the SVD of every step cost 20 (b4) and 21
        # (b3, with its V11 norm) calls here
        fn, subspace = GREEDY_ALGS[alg]
        chi = _ships(200, 100, 20, 0)
        args = (chi, 20, svd(chi)) if subspace else (chi, 20)
        calls = []
        numpy_svd = np.linalg.svd

        def counting_svd(*args, **kwargs):
            calls.append(1)
            return numpy_svd(*args, **kwargs)

        monkeypatch.setattr(np.linalg, "svd", counting_svd)
        fn(*args)
        assert len(calls) <= 2


EXCHANGE_CASES = {
    "ships200": lambda: _ships(200, 100, 20, 0),
    "kahan-0.99999": lambda: gen_kahan(100, 0.99999),
}


class TestExchange:
    """The exchange takes R alone.  On the square blocks of b1, b4 and b3
    that R is the full exchange's, bit for bit; on srrqr's wide rows the
    blocked QR rounds differently from Q^T applied by hand, so there it
    agrees with the full exchange to rounding and keeps the rows past b."""

    @pytest.mark.parametrize("case", EXCHANGE_CASES)
    def test_r_only_exchange_keeps_the_full_exchanges_bits(self, case):
        start, start_perm, _ = _working(qr_unpivoted(EXCHANGE_CASES[case]()))
        p = start.shape[1]
        for a, b in ((0, 0), (0, 57), (13, 99), (40, 41), (98, 99)):
            # b1's form (the leading block), then b4's and b3's (all of r)
            for end in (b + 1, p):
                r, perm = start.copy(), start_perm.copy()
                _exchange(r[:end, :end], perm, a, b)
                ref, ref_perm = start.copy(), start_perm.copy()
                _full_exchange(ref, ref_perm, a, b, end)
                assert np.array_equal(r[:end, :end], ref[:end, :end]), (a, b, end)
                assert np.array_equal(perm, ref_perm), (a, b, end)
            # srrqr's form (rows 0..b, every column)
            r, perm = start.copy(), start_perm.copy()
            _exchange(r[:b + 1], perm, a, b)
            assert np.array_equal(perm, ref_perm), (a, b)
            assert np.array_equal(r, np.triu(r)) and np.all(np.diag(r) >= 0), (a, b)
            assert np.array_equal(r[b + 1:], start[b + 1:]), (a, b)
            ref = start.copy()
            _full_exchange(ref, start_perm.copy(), a, b, b + 1)
            assert_allclose(r, ref, rtol=0, atol=4 * p * _EPS * np.max(np.abs(ref)))

    def test_no_exchange_forms_a_q(self, monkeypatch):
        # apart from b1's l x _B1_BLOCK iteration QRs every QR takes R
        # alone: the start and result QRs (200 x 100) and the exchanges, of
        # which srrqr's are of its wide rows
        calls = []
        numpy_qr = np.linalg.qr

        def recording_qr(a, mode="reduced"):
            calls.append((mode, a.shape))
            return numpy_qr(a, mode=mode)

        monkeypatch.setattr(np.linalg, "qr", recording_qr)
        chi = _ships(200, 100, 20, 0)
        for alg, fn in ALL_ALGS.items():
            calls.clear()
            swaps = fn(chi, 20).swap_count
            with_q = [shape for mode, shape in calls if mode != "r"]
            exchanges = [shape for mode, shape in calls
                         if mode == "r" and shape != chi.shape]
            assert all(alg == "b1" and shape[1] == _B1_BLOCK
                       for shape in with_q), alg
            # b3 called without svd(chi) takes it itself
            assert calls.count(("r", chi.shape)) == 2 + (alg == "b3"), alg
            if alg == "srrqr":
                assert swaps == 3 and len(exchanges) == swaps
                assert all(m < n for m, n in exchanges)
            else:
                assert exchanges, alg


class TestFactorsOfTheSelectedOrder:
    """A result's factors are the QR of chi[:, perm], whatever the route."""

    CASES = {
        "ships200": (lambda: _ships(200, 100, 20, 0), 20),
        "kahan100": (lambda: gen_kahan(100, 0.9), 99),
        "caution": (None, 2),
    }

    @pytest.mark.parametrize("alg", ALL_ALGS)
    @pytest.mark.parametrize("case", CASES)
    def test_factors_are_the_qr_of_the_selected_order(self, case, alg, caution_matrix):
        make, k = self.CASES[case]
        base = caution_matrix if make is None else make()
        for j in (0, -600, 600):
            chi = np.ldexp(base, j)
            res = ALL_ALGS[alg](chi, k)
            fac = qr_unpivoted(chi[:, res.perm])
            assert np.array_equal(res.factors.q, fac.q), j
            assert np.array_equal(res.factors.r, fac.r), j


class TestCssB4:
    def test_identity_k2(self):
        res = css_b4(np.eye(4), 2)
        chi1 = np.eye(4)[:, res.perm[:2]]
        assert np.linalg.svd(chi1, compute_uv=False)[-1] == pytest.approx(1.0)

    def test_diagonal_picks_largest(self):
        res = css_b4(np.diag([5.0, 3.0, 1.0]), 2)
        assert set(res.identifiable) == {0, 1}
        s11 = np.linalg.svd(res.factors.r[:2, :2], compute_uv=False)
        assert s11[-1] == pytest.approx(3.0)

    def test_kahan_leading_diagonal_bound(self):
        chi = gen_kahan(8, 0.95)
        sigma = svd(chi).sigma
        res = css_b4(chi, 7)
        r = res.factors.r
        for ell in range(1, 8):
            assert abs(r[ell - 1, ell - 1]) >= \
                sigma[ell - 1] / np.sqrt(8 - ell + 1) - 1e-10

    def test_theorem_lower_bound_random(self):
        rng = np.random.default_rng(23)
        for _ in range(15):
            a = rng.standard_normal((12, 8))
            sigma = svd(a).sigma
            for k in (3, 6):
                res = css_b4(a, k)
                s11 = np.linalg.svd(res.factors.r[:k, :k], compute_uv=False)
                assert s11[-1] >= 2.0 ** (1 - k) * sigma[k - 1] - 1e-8 * sigma[0]


class TestCssB3:
    def test_identity_metrics(self):
        a = np.eye(4)
        res = css_b3(a, 2)
        rec = compute_metrics(a, svd(a), res)
        assert rec.gamma1 == pytest.approx(1.0)
        assert rec.gamma2 == pytest.approx(1.0)

    def test_caution_matrix_residual(self, caution_matrix):
        res = css_b3(caution_matrix, 2)
        assert np.linalg.norm(res.factors.r[2:, 2:], 2) <= 1e-12

    def test_reports_v11_norm(self):
        rng = np.random.default_rng(31)
        res = css_b3(rng.standard_normal((9, 6)), 3)
        assert res.extras["v11_inv_norm"] >= 1.0

    def test_bounds_with_measured_v11(self):
        rng = np.random.default_rng(32)
        for _ in range(15):
            a = rng.standard_normal((13, 9))
            sigma = svd(a).sigma
            for k in (3, 6):
                res = css_b3(a, k)
                v11_inv = res.extras["v11_inv_norm"]
                s11 = np.linalg.svd(res.factors.r[:k, :k], compute_uv=False)
                s22 = np.linalg.norm(res.factors.r[k:, k:], 2)
                slack = 1e-8 * sigma[0]
                assert s11[-1] >= sigma[k - 1] / v11_inv - slack
                assert s22 <= v11_inv * sigma[k] + slack

    def test_jolliffe_cross_algorithm_agreement(self):
        # all four selectors behave nearly identically on this family
        chi = gen_jolliffe(40, 20, block_size=5, seed=77)
        recs = {
            name: compute_metrics(chi, svd(chi), fn(chi, 4))
            for name, fn in ALL_ALGS.items()
        }
        g1 = [r.gamma1 for r in recs.values()]
        g2 = [r.gamma2 for r in recs.values()]
        assert max(g1) <= min(g1) * 1.05
        assert max(g2) <= min(g2) * 1.05


class TestSrrqrRho:
    def test_identity_rho_is_one(self):
        for i in range(2):
            for j in range(2):
                assert srrqr_rho(np.eye(4), 2, i, j) == pytest.approx(1.0)

    def test_diag_two_one(self):
        assert srrqr_rho(np.diag([2.0, 1.0]), 1, 0, 0) == pytest.approx(0.5)

    def test_determinant_ratio_oracle(self):
        # rho equals det(R~11)/det(R11) after physically swapping and re-QR-ing
        rng = np.random.default_rng(40)
        worst = 0.0
        for _ in range(40):
            p = int(rng.integers(4, 9))
            r = np.triu(rng.standard_normal((p, p)))
            r[np.diag_indices(p)] = np.abs(np.diag(r)) + 0.1
            k = int(rng.integers(1, p))
            i = int(rng.integers(0, k))
            j = int(rng.integers(0, p - k))
            rho = srrqr_rho(r, k, i, j)
            cols = np.arange(p)
            cols[[i, k + j]] = cols[[k + j, i]]
            fac = qr_unpivoted(r[:, cols])
            det_ratio = np.prod(np.diag(fac.r)[:k]) / np.prod(np.diag(r)[:k])
            worst = max(worst, abs(rho - det_ratio) / abs(det_ratio))
        assert worst <= 1e-10

    def test_singular_leading_block(self):
        r = np.triu(np.ones((3, 3)))
        r[0, 0] = 0.0
        with pytest.raises(NumericalFailureError):
            srrqr_rho(r, 1, 0, 0)

    def test_index_validation(self):
        with pytest.raises(InputDomainError):
            srrqr_rho(np.eye(4), 2, 2, 0)


class TestCssSrrqr:
    def test_identity_no_swaps(self):
        res = css_srrqr(np.eye(4), 2, SrrqrConfig(f=1.0))
        assert res.swap_count == 0
        assert res.extras["converged"]
        assert res.extras["max_rho"] <= 1.0 + 1e-9

    def test_kahan_bounds_f1(self):
        chi = gen_kahan(8, 0.95)
        sigma = svd(chi).sigma
        res = css_srrqr(chi, 7, SrrqrConfig(f=1.0))
        import scipy.linalg as sla
        r = res.factors.r
        coupling = sla.solve_triangular(r[:7, :7], r[:7, 7:])
        assert np.all(np.abs(coupling) <= 1.0 + 1e-9)
        s11 = np.linalg.svd(r[:7, :7], compute_uv=False)
        assert s11[-1] >= sigma[6] / np.sqrt(1 + 1 * 7 * 1) - 1e-10

    def test_gu_eisenstat_bounds_fsqrt2(self):
        chi = gen_gu_eisenstat(12, 0.95)
        sigma = svd(chi).sigma
        f = np.sqrt(2.0)
        res = css_srrqr(chi, 10, SrrqrConfig(f=f))
        factor = np.sqrt(1 + f * f * 10 * 2)
        r = res.factors.r
        s11 = np.linalg.svd(r[:10, :10], compute_uv=False)
        s22 = np.linalg.svd(r[10:, 10:], compute_uv=False)
        slack = 1e-8 * sigma[0]
        assert np.all(s11 >= sigma[:10] / factor - slack)
        assert np.all(s22 <= sigma[10:] * factor + slack)

    def test_determinant_growth_per_swap(self):
        # each accepted swap multiplies |det(R11)| by at least
        # f(1 + SRRQR_TIE_SLACK); column-pivoted QR already satisfies f=1
        # on Gaussian inputs, so use the families this machinery was built
        # to handle
        from cssident import SpectrumSpec, gen_ships
        from cssident.config import SRRQR_TIE_SLACK

        cfg = SrrqrConfig(f=1.0)
        instances = [(gen_kahan(n, 0.9), n - 1) for n in (12, 20, 40)]
        instances += [
            (gen_ships(60, 30, SpectrumSpec(k=8, spacing="logspace"), seed=s), 8)
            for s in (0, 2, 3)
        ]
        found_swaps = 0
        for chi, k in instances:
            res = css_srrqr(chi, k, cfg)
            hist = res.extras["logdet_history"]
            found_swaps += res.swap_count
            for prev, cur in zip(hist, hist[1:]):
                assert cur - prev >= np.log(cfg.f * (1 + SRRQR_TIE_SLACK)) - 1e-9
        assert found_swaps >= 6

    def test_swap_budget_flag(self):
        from cssident import SpectrumSpec, gen_ships

        chi = gen_ships(60, 30, SpectrumSpec(k=8, spacing="logspace"), seed=3)
        full = css_srrqr(chi, 8, SrrqrConfig(f=1.0))
        assert full.swap_count >= 2
        capped = css_srrqr(chi, 8, SrrqrConfig(f=1.0, max_swaps=1))
        assert capped.swap_count == 1
        assert not capped.extras["converged"]

    def test_singular_initial_block(self, caution_matrix):
        with pytest.raises(NumericalFailureError):
            css_srrqr(caution_matrix, 3, SrrqrConfig(f=1.0))

    @pytest.mark.parametrize("f", (0.5, float("nan")))
    def test_f_domain(self, f):
        # NaN would otherwise spend the whole swap budget unconverged
        with pytest.raises(InputDomainError, match="f >= 1"):
            SrrqrConfig(f=f)


class TestRunCss:
    def test_identity_fixed(self):
        res = run_css(np.eye(4), svd(np.eye(4)), "b1", RankPolicy.fixed(2))
        assert res.k == 2

    def test_gram_demo_matrix_rank_two(self, gram_demo_matrix):
        res = run_css(gram_demo_matrix, svd(gram_demo_matrix), "srrqr",
                      RankPolicy.relative(1e-12))
        assert res.k == 1  # p = 2, so k clamps to p - 1 = 1
        assert set(res.identifiable) | set(res.unidentifiable) == {0, 1}

    def test_unknown_algorithm(self):
        with pytest.raises(InputDomainError):
            run_css(np.eye(3), svd(np.eye(3)), "b9", RankPolicy.gap())

    def test_degenerate_flag_propagates(self):
        a = 1e-30 * np.eye(3)
        res = run_css(a, svd(a), "b1", RankPolicy.absolute(1.0))
        assert res.degenerate_k
        assert res.k == 1


class TestDeterminismAndSoundness:
    def test_identical_reruns(self):
        rng = np.random.default_rng(60)
        a = rng.standard_normal((12, 8))
        for name, fn in ALL_ALGS.items():
            r1, r2 = fn(a, 4), fn(a, 4)
            assert r1.identifiable == r2.identifiable
            assert np.array_equal(r1.factors.r, r2.factors.r)
            assert np.array_equal(r1.factors.q, r2.factors.q)

    def test_permutation_soundness_all_algorithms(self):
        rng = np.random.default_rng(61)
        cases = []
        for _ in range(10):
            n = int(rng.integers(6, 16))
            p = int(rng.integers(4, min(n, 10) + 1))
            a = rng.standard_normal((n, p))
            cases += [(a, int(rng.integers(1, p))), (a, 1), (a, p - 1)]
        # Kahan k = p-1: many of b3's exchanges leave the column in place;
        # p > 128 runs the exchange through LAPACK's blocked QR as well
        cases.append((gen_kahan(30, 0.9), 29))
        cases.append((rng.standard_normal((300, 150)), 30))
        for a, k in cases:
            p = a.shape[1]
            for name, fn in ALL_ALGS.items():
                res = fn(a, k)
                res.factors.validate(a)
                assert sorted(res.identifiable + res.unidentifiable) == list(range(p))
                assert res.identifiable == tuple(res.perm[:k])

    def test_dimension_validation(self):
        for fn in ALL_ALGS.values():
            with pytest.raises(InputDomainError):
                fn(np.ones((3, 5)), 2)
            with pytest.raises(InputDomainError):
                fn(np.eye(4), 4)
            with pytest.raises(InputDomainError):
                fn(np.eye(4), 0)


@st.composite
def _tall_with_duplicates(draw):
    # entries of magnitude 0 or >= 1e-3 keep a 2^-600 scaling exact
    p = draw(st.integers(2, 6))
    n = draw(st.integers(p, 8))
    entry = st.floats(-1e3, 1e3).map(lambda x: x if abs(x) >= 1e-3 else 0.0)
    a = draw(arrays(float, (n, p), elements=entry))
    if draw(st.booleans()):
        src, dst = draw(st.permutations(range(p)))[:2]
        a[:, dst] = a[:, src]
    return a, draw(st.integers(1, p - 1))


def _split_or_error(fn, a, k):
    try:
        return frozenset(fn(a, k).identifiable)
    except CssIdentError as exc:
        return type(exc).__name__


@settings(max_examples=60)
@given(case=_tall_with_duplicates())
def test_split_unchanged_under_power_of_two_scaling(case):
    """chi * 2^j has the identifiable set of chi, duplicated columns too."""
    a, k = case
    for name, fn in ALL_ALGS.items():
        base = _split_or_error(fn, a, k)
        for j in (-600, -64, 64, 600):
            assert _split_or_error(fn, np.ldexp(a, j), k) == base, (name, j)


@settings(max_examples=60)
@given(case=_tall_with_duplicates(), e=st.sampled_from((0, 600, -600)))
def test_interlacing_holds_for_every_algorithm(case, e):
    """sigma_j(R11) <= sigma_j(chi) and sigma_j(R22) >= sigma_{k+j}(chi)
    within the checks' slack, for every algorithm's split."""
    a, k = case
    a = np.ldexp(a, e)
    try:
        chi_svd = svd(a)
    except CssIdentError:
        return
    for name, fn in ALL_ALGS.items():
        try:
            result = fn(a, k)
        except CssIdentError:
            continue
        failed = [c.name for c in theorem_bound_checks(chi_svd, result)
                  if c.name.startswith("interlacing-") and not c.satisfied]
        assert not failed, (name, failed)
