import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays
from numpy.testing import assert_allclose

from cssident import (
    NOMINAL_SVIR,
    InputDomainError,
    condition_number,
    gen_kahan,
    linalg,
    qr_col_pivoted,
    qr_unpivoted,
    residual_norm,
    svd,
    svir_sensitivity,
)
from cssident.generators import realize
from cssident.linalg import _EPS, _nonneg_diag, _pow2_exponent, orthonormal_range


class TestQrUnpivoted:
    def test_identity(self):
        fac = qr_unpivoted(np.eye(3))
        assert_allclose(fac.q, np.eye(3))
        assert_allclose(fac.r, np.eye(3))
        assert list(fac.perm) == [0, 1, 2]

    def test_single_column(self):
        fac = qr_unpivoted(np.array([[3.0], [4.0]]))
        assert_allclose(fac.r, [[5.0]])
        assert_allclose(fac.q, [[0.6], [0.8]])

    def test_seeded_residuals(self):
        rng = np.random.default_rng(42)
        a = rng.standard_normal((8, 5))
        fac = qr_unpivoted(a)
        assert np.linalg.norm(fac.q.T @ fac.q - np.eye(5)) <= 1e-12
        assert np.linalg.norm(a - fac.q @ fac.r) <= 1e-12 * np.linalg.norm(a)

    def test_nonnegative_diagonal_and_exact_zeros(self):
        rng = np.random.default_rng(7)
        for _ in range(20):
            a = rng.standard_normal((9, 6))
            fac = qr_unpivoted(a)
            assert np.all(np.diag(fac.r) >= 0)
            assert np.all(np.tril(fac.r, -1) == 0.0)

    def test_rejects_nonfinite(self):
        with pytest.raises(InputDomainError):
            qr_unpivoted(np.array([[1.0], [np.nan]]))

    def test_rejects_wide(self):
        with pytest.raises(InputDomainError):
            qr_unpivoted(np.ones((2, 3)))


class TestQrColPivoted:
    def test_identity_unit_diagonal(self):
        fac = qr_col_pivoted(np.eye(3))
        assert_allclose(np.abs(np.diag(fac.r)), np.ones(3))

    def test_max_norm_pivot_first(self):
        fac = qr_col_pivoted(np.array([[1.0, 2.0], [0.0, 0.0]]))
        assert fac.perm[0] == 1
        assert fac.r[0, 0] == pytest.approx(2.0)

    def test_gram_demo_matrix_reveals_sigma2(self, gram_demo_matrix):
        # closed form: Gram eigenvalues are 2 + d^2 and d^2, so sigma_2 = d
        d = 1e-9
        sigma2 = svd(gram_demo_matrix).sigma[1]
        assert sigma2 == pytest.approx(d, rel=1e-6)
        fac = qr_col_pivoted(gram_demo_matrix)
        assert np.all(np.abs(np.diag(fac.r)) > 0)
        assert 1e-10 <= abs(fac.r[1, 1]) <= 1e-8

    def test_diag_nonincreasing(self):
        rng = np.random.default_rng(3)
        for _ in range(25):
            a = rng.standard_normal((12, 8))
            d = np.abs(np.diag(qr_col_pivoted(a).r))
            assert np.all(np.diff(d) <= 1e-14)

    def test_factorization_valid(self):
        rng = np.random.default_rng(11)
        a = rng.standard_normal((10, 7))
        fac = qr_col_pivoted(a)
        fac.validate(a)

    def test_tie_breaks_to_lowest_index(self):
        fac = qr_col_pivoted(np.eye(4))
        assert list(fac.perm) == [0, 1, 2, 3]


def _greedy_loop_reference(a):
    """Greedy max-column-norm Householder QR on the power-of-two-scaled
    input, norms recomputed per step, ties to the lowest index: the order
    qr_col_pivoted must choose.  Returns (perm, r), r with a nonnegative
    diagonal."""
    p = a.shape[1]
    e = _pow2_exponent(a)
    r = np.ldexp(a, -e)
    perm = np.arange(p)
    for j in range(p):
        m = j + int(np.argmax(np.linalg.norm(r[j:, j:], axis=0)))
        r[:, [j, m]] = r[:, [m, j]]
        perm[[j, m]] = perm[[m, j]]
        x = r[j:, j]
        normx = np.linalg.norm(x)
        if normx == 0.0:
            continue
        v = x.copy()
        v[0] += normx if v[0] >= 0 else -normx
        v /= np.linalg.norm(v)
        r[j:, j:] -= 2.0 * np.outer(v, v @ r[j:, j:])
        r[j + 1:, j] = 0.0
    r = np.ldexp(np.triu(r[:p, :]), e)
    return perm, r * np.where(np.diag(r) < 0, -1.0, 1.0)[:, None]


def _shapes_the_loop_ran_on(monkeypatch, a):
    # qr_col_pivoted(a), and the shape of every block its greedy loop factored
    shapes = []
    loop = linalg._householder_pivoted

    def spy(block):
        shapes.append(block.shape)
        return loop(block)

    monkeypatch.setattr(linalg, "_householder_pivoted", spy)
    return qr_col_pivoted(a), shapes


def _ships(n, p):
    return realize({"family": "ships", "n": n, "p": p, "spectrum": {"k": p // 5}}, 0)


def _equal_leading_norms():
    # columns 0 and 1 hold the same entries in reverse order, column 2 has
    # half their norm
    a = np.random.default_rng(4).standard_normal((6, 3))
    a[:, 1] = a[::-1, 0]
    a[:, 2] *= 0.5 * np.linalg.norm(a[:, 0]) / np.linalg.norm(a[:, 2])
    return a


class TestQrColPivotedRoutes:
    """LAPACK's certified pivots, the loop on the uncertified rest, or the
    loop alone on a step-0 tie: each route gives the reference's perm."""

    @pytest.mark.parametrize("a", (
        realize({"family": "gaussian", "n": 31, "p": 4}, 0),
        svir_sensitivity(NOMINAL_SVIR),
    ), ids=("gaussian-31x4", "svir-31x4"))
    def test_fully_certified(self, monkeypatch, a):
        fac, shapes = _shapes_the_loop_ran_on(monkeypatch, a)
        assert shapes == []
        perm, r = _greedy_loop_reference(a)
        assert np.array_equal(fac.perm, perm)
        assert np.max(np.abs(fac.r - r)) <= 1e-13 * np.max(np.abs(r))

    @pytest.mark.parametrize("n, p", ((200, 100), (400, 200)))
    def test_certified_prefix_then_loop(self, monkeypatch, n, p):
        a = _ships(n, p)
        fac, shapes = _shapes_the_loop_ran_on(monkeypatch, a)
        assert len(shapes) == 1 and shapes[0][0] == shapes[0][1] < p
        perm, r = _greedy_loop_reference(a)
        assert np.array_equal(fac.perm, perm)
        assert np.max(np.abs(fac.r - r)) <= 1e-13 * np.max(np.abs(r))
        fac.validate(a)

    def test_uncertified_pivot_is_redecided_in_the_loops_order(self, monkeypatch):
        # columns y, w, z, b on disjoint rows, ||b|| > ||y|| = ||w|| > ||z||:
        # the greedy loop takes b, swapping it with y, then w, which now sits
        # before y, then y and z.  A pivoted QR that takes z second is caught
        # by the certificate; the loop then redecides the exact tie between
        # w and y from the column order after the first swap, not from the
        # order that QR left (b, z, y, w)
        a = np.zeros((6, 4))
        a[2:4, 0] = [1.0, 2.0]
        a[4:6, 1] = [2.0, 1.0]
        a[1, 2] = 1.0
        a[0, 3] = 3.0

        def misordered_qr(s, mode, **_):
            assert mode == "r"
            piv = np.array([3, 2, 0, 1], dtype=np.int32)
            return np.linalg.qr(s[:, piv], mode="r"), piv

        monkeypatch.setattr(linalg.sla, "qr", misordered_qr)
        fac, shapes = _shapes_the_loop_ran_on(monkeypatch, a)
        assert shapes == [(3, 3)]
        assert list(fac.perm) == list(_greedy_loop_reference(a)[0]) == [3, 1, 0, 2]
        fac.validate(a)

    @pytest.mark.parametrize("a", (
        realize({"family": "kahan", "n": 100, "zeta_range": [0.9, 0.99999]}, 0),
        np.eye(3),
        _equal_leading_norms(),
    ), ids=("kahan-100", "eye-3", "equal-leading-norms"))
    def test_step0_tie_is_the_loop_bit_for_bit(self, monkeypatch, a):
        fac, shapes = _shapes_the_loop_ran_on(monkeypatch, a)
        assert shapes == [a.shape]
        assert np.array_equal(fac.perm, _greedy_loop_reference(a)[0])


_ROUTE_INPUTS = {
    "kahan-100": lambda: realize(
        {"family": "kahan", "n": 100, "zeta_range": [0.9, 0.99999]}, 0),
    "eye-3": lambda: np.eye(3),
    "equal-leading-norms": _equal_leading_norms,
    "ships-400x200": lambda: _ships(400, 200),
    "gaussian-31x4": lambda: realize({"family": "gaussian", "n": 31, "p": 4}, 0),
    "svir-31x4": lambda: svir_sensitivity(NOMINAL_SVIR),
}


@pytest.mark.parametrize("name", _ROUTE_INPUTS)
def test_factors_are_the_qr_of_the_column_order(name):
    """On every route (step-0 tie, certified prefix then loop, fully
    certified) the factors are qr_unpivoted of the scaled columns in perm
    order, with r scaled back, bit for bit."""
    a = _ROUTE_INPUTS[name]()
    fac = qr_col_pivoted(a)
    e = _pow2_exponent(a)
    ref = qr_unpivoted(np.ldexp(a[:, fac.perm], -e))
    assert np.array_equal(fac.q, ref.q)
    assert np.array_equal(fac.r, np.ldexp(ref.r, e))


def _eager_qr(a):
    # the QR with q formed at once, as the factorizations did before they
    # formed q on demand
    return _nonneg_diag(*np.linalg.qr(a))


@pytest.mark.parametrize("q_first", (True, False), ids=("q-first", "r-first"))
@pytest.mark.parametrize("j", (0, -600, 600))
@pytest.mark.parametrize("name", ("ships-400x200", "kahan-100", "svir-31x4"))
def test_on_demand_factors_keep_the_eager_bits(name, j, q_first):
    """q and u are formed on their first read; whichever factor is read
    first, each has the bits of the eager formula and is read-only, as has
    the basis of orthonormal_range."""
    a = np.ldexp(_ROUTE_INPUTS[name](), j)
    piv = qr_col_pivoted(a)
    e = _pow2_exponent(a)
    q_piv, r_piv = _eager_qr(np.ldexp(a[:, piv.perm], -e))
    q, r = _eager_qr(a)
    u_r, sigma, vt = np.linalg.svd(r)
    cases = (
        (qr_unpivoted(a), {"q": q, "r": r}),
        (piv, {"q": q_piv, "r": np.ldexp(r_piv, e)}),
        (svd(a), {"u": q @ u_r, "sigma": sigma, "v": vt.T}),
    )
    for fac, eager in cases:
        names = list(eager) if q_first else list(eager)[::-1]
        for attr in names:
            got = getattr(fac, attr)
            assert np.array_equal(got, eager[attr]), (type(fac).__name__, attr)
            assert not got.flags.writeable, (type(fac).__name__, attr)
            with pytest.raises(AttributeError):
                setattr(fac, attr, eager[attr])
    # orthonormal_range forms its q at once, with the same bits
    basis = orthonormal_range(a)
    assert np.array_equal(basis, (q @ u_r)[:, :basis.shape[1]])


def _tiny_pair(seed):
    # one column of norm 0.75 and two of norm about 1e-160 within 3e-4 of
    # each other, whose entries' squares underflow
    rng = np.random.default_rng(seed)
    a = rng.standard_normal((4, 3))
    a[:, 0] *= 0.75 / np.linalg.norm(a[:, 0])
    for j in (1, 2):
        a[:, j] *= 1e-160 * (1 + 3e-4 * rng.random()) / np.linalg.norm(a[:, j])
    return a


@pytest.mark.parametrize("seed", (771, 1022, 2582, 3966))
def test_pivots_among_columns_whose_squares_underflow(seed):
    """The second pivot is the tiny column with the larger component
    orthogonal to the first, taken on the tiny columns scaled by 2^600, and
    the route and the loop on the whole input agree."""
    a = _tiny_pair(seed)
    q0 = a[:, 0] / np.linalg.norm(a[:, 0])
    tiny = np.ldexp(a[:, 1:], 600)
    second = 1 + int(np.argmax(np.linalg.norm(tiny - np.outer(q0, q0 @ tiny), axis=0)))
    perm = qr_col_pivoted(a).perm
    assert list(perm[:2]) == [0, second]
    loop = linalg._householder_pivoted(np.ldexp(a, -_pow2_exponent(a)))
    assert np.array_equal(perm, loop)


def _triangular_with_swapped_columns():
    r = np.triu(np.random.default_rng(1).standard_normal((100, 100)))
    r[:, [3, 60]] = r[:, [60, 3]]
    return r


def _wide_exchange_block():
    # srrqr's exchange: rows a..b of an R with columns a and b swapped
    a, b = 13, 150
    r = qr_unpivoted(_ships(400, 200)).r.copy()
    r[:, [a, b]] = r[:, [b, a]]
    return r[a:b + 1, a:]


_R_ONLY_INPUTS = {
    "gaussian-square": lambda: np.random.default_rng(0).standard_normal((120, 120)),
    "triangular-swapped-columns": _triangular_with_swapped_columns,
    "ships-400x200": lambda: _ships(400, 200),
    "trailing-view": lambda: qr_unpivoted(_ships(200, 100)).r[37:, 37:],
    "wide-exchange-block": _wide_exchange_block,
    "kahan-100": _ROUTE_INPUTS["kahan-100"],
    "svir-31x4": _ROUTE_INPUTS["svir-31x4"],
    "ships-400x200-2^-600": lambda: np.ldexp(_ships(400, 200), -600),
    "ships-400x200-2^600": lambda: np.ldexp(_ships(400, 200), 600),
}


@pytest.mark.parametrize("name", _R_ONLY_INPUTS)
def test_r_only_qr_is_the_reduced_qrs_r(name):
    """css's exchanges and the starts take R alone, of square and of wide
    blocks, and q is formed on demand by a second, reduced QR; they rely on
    both modes of np.linalg.qr running the same dgeqrf on the same copy."""
    a = _R_ONLY_INPUTS[name]()
    assert np.array_equal(np.linalg.qr(a, mode="r"), np.linalg.qr(a)[1])


# entries are 0 or at least 1e-3 in magnitude, so a 2^-600 scaling stays
# exact even after the products of the low-rank draws; small integers make
# exact ties between column norms common
_ENTRY = st.one_of(
    st.integers(-3, 3).map(float),
    st.floats(-1e3, 1e3).map(lambda x: x if abs(x) >= 1e-3 else 0.0),
)


@st.composite
def _tall_matrices(draw):
    n = draw(st.integers(1, 10))
    p = draw(st.integers(1, n))
    m = draw(st.integers(1, p))
    kind = draw(st.sampled_from(("independent", "duplicated", "low-rank")))
    if kind == "independent":
        return draw(arrays(float, (n, p), elements=_ENTRY))
    base = draw(arrays(float, (n, m), elements=_ENTRY))
    if kind == "duplicated":
        return base[:, draw(st.lists(st.integers(0, m - 1), min_size=p, max_size=p))]
    return base @ draw(arrays(float, (m, p), elements=_ENTRY))


@given(a=_tall_matrices())
def test_qr_col_pivoted_properties(a):
    """Valid factors with a nonnegative diagonal, greedy pivots up to
    rounding, and a perm that does not move under a * 2^600 or a * 2^-600."""
    n, p = a.shape
    fac = qr_col_pivoted(a)
    assert np.array_equal(np.sort(fac.perm), np.arange(p))
    assert np.all(np.diag(fac.r) >= 0)
    assert np.all(np.tril(fac.r, -1) == 0.0)
    scale = max(float(np.max(np.linalg.norm(a, axis=0))), np.finfo(float).tiny)
    assert np.linalg.norm(a[:, fac.perm] - fac.q @ fac.r) <= 1e-13 * scale * p
    assert np.linalg.norm(fac.q.T @ fac.q - np.eye(p)) <= 1e-12
    # |r_jj| >= ||r[j:, c]|| for every c > j, up to rounding
    tail = np.sqrt(np.cumsum((fac.r ** 2)[::-1], axis=0)[::-1])
    for j in range(p - 1):
        assert np.diag(fac.r)[j] >= np.max(tail[j, j + 1:]) - 64 * n * _EPS * scale
    for e in (600, -600):
        assert np.array_equal(qr_col_pivoted(np.ldexp(a, e)).perm, fac.perm)


class TestSvd:
    def test_padded_diagonal(self):
        a = np.vstack([np.diag([3.0, 2.0, 1.0]), np.zeros((1, 3))])
        assert_allclose(svd(a).sigma, [3.0, 2.0, 1.0], atol=1e-14)

    def test_caution_matrix_spectrum(self, caution_matrix):
        sigma = svd(caution_matrix).sigma
        assert_allclose(sigma[:2], [np.sqrt(2)] * 2, rtol=1e-12)
        assert np.all(sigma[2:] <= 1e-12 * sigma[0])

    def test_against_gram_eigensolver(self):
        rng = np.random.default_rng(99)
        a = rng.standard_normal((10, 6))
        sigma = svd(a).sigma
        oracle = np.sqrt(np.maximum(np.linalg.eigvalsh(a.T @ a)[::-1], 0.0))
        keep = sigma > 1e-6 * sigma[0]
        assert_allclose(sigma[keep], oracle[keep], rtol=1e-8)

    def test_reconstruct_many_seeded(self):
        # svd o reconstruct is the identity within tol_recon
        rng = np.random.default_rng(1234)
        for _ in range(1000):
            n = int(rng.integers(2, 51))
            p = int(rng.integers(1, min(n, 30) + 1))
            a = rng.standard_normal((n, p))
            fac = svd(a)
            err = np.linalg.norm(a - fac.reconstruct(), 2)
            assert err <= 1e-12 * max(fac.sigma[0], 1.0)
            assert np.all(np.diff(fac.sigma) <= 0)
            assert np.linalg.norm(fac.u.T @ fac.u - np.eye(p)) <= 1e-12
            assert np.linalg.norm(fac.v.T @ fac.v - np.eye(p)) <= 1e-12


class TestResidualNorm:
    def test_full_range_projector(self):
        rng = np.random.default_rng(0)
        assert residual_norm(np.eye(3), rng.standard_normal((3, 2))) == pytest.approx(0.0, abs=1e-14)

    def test_caution_matrix_duplicates(self, caution_matrix):
        a1 = caution_matrix[:, :2]
        a2 = caution_matrix[:, 2:]
        assert residual_norm(a1, a2) == pytest.approx(0.0, abs=1e-12)

    def test_orthogonal_complement(self):
        a1 = np.array([[1.0], [0.0]])
        a2 = np.array([[0.0], [1.0]])
        assert residual_norm(a1, a2) == pytest.approx(1.0)

    def test_row_mismatch(self):
        with pytest.raises(InputDomainError):
            residual_norm(np.eye(3), np.eye(4))

    def test_zero_basis(self):
        a1 = np.zeros((3, 2))
        a2 = np.eye(3)
        assert residual_norm(a1, a2) == pytest.approx(1.0)


class TestConditionNumber:
    def test_identity(self):
        assert condition_number(np.eye(4)) == pytest.approx(1.0)

    def test_kahan_100(self):
        # zeta toward the low end of the benchmark sampling range; the
        # matrix is only mildly conditioned for zeta near 1
        assert condition_number(gen_kahan(100, 0.9)) >= 1e15

    def test_rank_deficient_is_infinite(self, caution_matrix):
        assert condition_number(caution_matrix) == np.inf


class TestSplitIdentities:
    def test_interlacing_and_block_identities(self):
        # sigma_j(R11) <= sigma_j(chi), sigma_j(R22) >= sigma_{k+j}(chi);
        # sigma_j(chi1) = sigma_j(R11); residual(chi1, chi2) = sigma_1(R22)
        rng = np.random.default_rng(5150)
        for _ in range(30):
            n = int(rng.integers(6, 20))
            p = int(rng.integers(4, min(n, 12) + 1))
            a = rng.standard_normal((n, p))
            fac = qr_col_pivoted(a)
            sigma = svd(a).sigma
            slack = 1e-10 * sigma[0]
            for k in range(1, p):
                s11 = np.linalg.svd(fac.r[:k, :k], compute_uv=False)
                s22 = np.linalg.svd(fac.r[k:, k:], compute_uv=False)
                assert np.all(s11 <= sigma[:k] + slack)
                assert np.all(s22 >= sigma[k:] - slack)
                chi1 = a[:, fac.perm[:k]]
                chi2 = a[:, fac.perm[k:]]
                s_chi1 = np.linalg.svd(chi1, compute_uv=False)
                assert_allclose(s_chi1, s11, rtol=1e-10, atol=slack)
                assert residual_norm(chi1, chi2) == pytest.approx(
                    s22[0], rel=1e-10, abs=slack
                )

    def test_orthonormal_range_truncates(self, caution_matrix):
        basis = orthonormal_range(caution_matrix)
        assert basis.shape == (4, 2)
