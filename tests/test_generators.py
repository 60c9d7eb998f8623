import math

import jsonschema
import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

import cssident.bench

from cssident import (
    InputDomainError,
    SpectrumSpec,
    condition_number,
    designated_k,
    gen_gu_eisenstat,
    gen_jolliffe,
    gen_kahan,
    gen_ships,
    gen_sorensen_embree,
    haar_orthonormal,
)
from cssident.cli import load_schema
from cssident.generators import (
    REQUIRED_KEYS,
    block_correlation_matrix,
    correlation_block,
    gu_eisenstat_mu,
    realize,
    ships_v11,
    sorensen_embree_pattern,
)


class TestHaar:
    def test_one_by_one(self):
        q = haar_orthonormal(1, 1, seed=3)
        assert abs(abs(q[0, 0]) - 1.0) <= 1e-15

    def test_orthonormal_columns(self):
        q = haar_orthonormal(6, 3, seed=11)
        assert np.linalg.norm(q.T @ q - np.eye(3)) <= 1e-12

    def test_first_entry_second_moment(self):
        # E[q11^2] = 1/2 for Haar on 2x2; Monte-Carlo check
        acc = 0.0
        for seed in range(10_000):
            acc += haar_orthonormal(2, 2, seed=seed)[0, 0] ** 2
        assert abs(acc / 10_000 - 0.5) <= 0.02

    def test_needs_tall(self):
        with pytest.raises(InputDomainError):
            haar_orthonormal(2, 3, seed=0)


class TestKahan:
    def test_two_by_two(self):
        assert_allclose(gen_kahan(2, 0.6), [[1.0, -0.8], [0.0, 0.6]], atol=1e-15)

    def test_three_by_three_rows(self):
        m = gen_kahan(3, 0.6)
        assert_allclose(m[1], [0.0, 0.6, -0.48], atol=1e-15)
        assert_allclose(m[2], [0.0, 0.0, 0.36], atol=1e-15)

    def test_large_condition_number(self):
        assert condition_number(gen_kahan(100, 0.9)) >= 1e15

    def test_strictly_upper_triangular_zeros(self):
        m = gen_kahan(9, 0.77)
        assert np.all(np.tril(m, -1) == 0.0)

    def test_zeta_domain(self):
        for bad in (0.0, 1.0, -0.2, 1.7):
            with pytest.raises(InputDomainError):
                gen_kahan(5, bad)


class TestGuEisenstat:
    def test_mu_analytic_n5(self):
        # D2 K2 = [[1, -0.8], [0, 0.6]]; inverse rows have norms 5/3 each,
        # so mu = (3/5) / sqrt(3)
        mu = gu_eisenstat_mu(5, 0.6)
        assert mu == pytest.approx((3.0 / 5.0) / np.sqrt(3.0), rel=1e-12)
        m = gen_gu_eisenstat(5, 0.6)
        assert_allclose(np.diag(m)[2:], [mu, mu, mu])

    def test_upper_triangular(self):
        m = gen_gu_eisenstat(10, 0.9)
        assert np.all(np.tril(m, -1) == 0.0)

    def test_top_right_column(self):
        m = gen_gu_eisenstat(8, 0.6)
        phi = 0.8
        assert_allclose(m[:5, 7], -phi * 0.6 ** np.arange(5), atol=1e-15)
        assert np.all(m[:5, 5] == 0.0)
        assert np.all(m[:5, 6] == 0.0)

    def test_condition_number_grows_with_n(self):
        # conditioning is mild at small n and explodes with dimension
        assert condition_number(gen_gu_eisenstat(12, 0.95)) >= 1e2
        assert condition_number(gen_gu_eisenstat(50, 0.9)) >= 1e10

    def test_mu_positive(self):
        for zeta in (0.05, 0.5, 0.9, 0.999):
            assert gu_eisenstat_mu(7, zeta) > 0

    def test_needs_n_at_least_5(self):
        with pytest.raises(InputDomainError):
            gen_gu_eisenstat(4, 0.5)

    @pytest.mark.parametrize("n, zeta", ((12, 5.8e-308), (6, 6e-143)))
    def test_mu_underflow_is_input_error(self, n, zeta):
        # zeta^(n-4) is 0, or the inverse's row norms pass the double range
        with pytest.raises(InputDomainError, match="mu underflows"):
            gen_gu_eisenstat(n, zeta)


class TestJolliffe:
    def test_correlation_block(self):
        assert_allclose(correlation_block(0.9, 2), [[1.0, 0.9], [0.9, 1.0]])

    def test_block_matrix_layout(self):
        lam = block_correlation_matrix(4, 2, [0.5, 0.25])
        assert lam[0, 1] == 0.5 and lam[2, 3] == 0.25 and lam[1, 2] == 0.0

    def test_spectrum_recovered(self):
        s, (u, sigma, v) = gen_jolliffe(40, 20, block_size=5, seed=4,
                                        return_parts=True)
        computed = np.linalg.svd(s, compute_uv=False)
        assert np.max(np.abs(computed - sigma)) <= 1e-10 * sigma[0]

    def test_divisibility(self):
        with pytest.raises(InputDomainError):
            gen_jolliffe(20, 10, block_size=3, seed=0)

    def test_needs_tall(self):
        with pytest.raises(InputDomainError, match="p <= n"):
            gen_jolliffe(6, 10, block_size=5, seed=0)

    @pytest.mark.parametrize("rho_range", ((0.5, 0.1), (math.nan, 0.5),
                                           (0.5, math.nan), (0.5, math.inf)))
    def test_rho_range_domain(self, rho_range):
        with pytest.raises(InputDomainError, match="rho_range needs lo <= hi"):
            gen_jolliffe(20, 10, rho_range=rho_range, seed=0)

    def test_deterministic(self):
        a = gen_jolliffe(30, 10, block_size=5, seed=9)
        b = gen_jolliffe(30, 10, block_size=5, seed=9)
        assert np.array_equal(a, b)


class TestSorensenEmbree:
    def test_pattern(self):
        assert_allclose(
            sorensen_embree_pattern(3, 2),
            [[1.0, 0.0], [-1.0, 1.0], [-1.0, -1.0]],
        )

    def test_v_orthogonal_and_spectrum(self):
        spec = SpectrumSpec(k=6)
        s, (u, sigma, v) = gen_sorensen_embree(40, 20, spec, seed=2,
                                               return_parts=True)
        assert np.linalg.norm(v.T @ v - np.eye(20)) <= 1e-12
        computed = np.linalg.svd(s, compute_uv=False)
        assert np.max(np.abs(computed - sigma)) <= 1e-10 * sigma[0]

    def test_deterministic(self):
        spec = SpectrumSpec(k=4)
        assert np.array_equal(
            gen_sorensen_embree(20, 10, spec, seed=5),
            gen_sorensen_embree(20, 10, spec, seed=5),
        )


class TestShips:
    def test_v11_norm_is_half(self):
        assert np.linalg.norm(ships_v11(8), 2) == pytest.approx(0.5, abs=1e-14)

    def test_vk_orthonormal_and_spectrum(self):
        spec = SpectrumSpec(k=6, spacing="logspace")
        s, (u, sigma, v) = gen_ships(40, 20, spec, seed=3, return_parts=True)
        v_k = v[:, :6]
        assert np.linalg.norm(v_k.T @ v_k - np.eye(6)) <= 1e-12
        assert np.linalg.norm(v.T @ v - np.eye(20)) <= 1e-12
        computed = np.linalg.svd(s, compute_uv=False)
        assert np.max(np.abs(computed - sigma)) <= 1e-10 * sigma[0]

    def test_dominant_right_subspace_matches_vk(self):
        # principal angles between computed dominant right subspace and
        # span(V_k); the spectrum gap keeps them tiny
        import scipy.linalg as sla

        spec = SpectrumSpec(k=6, spacing="logspace")
        s, (u, sigma, v) = gen_ships(40, 20, spec, seed=8, return_parts=True)
        _, _, vt = np.linalg.svd(s)
        angles = sla.subspace_angles(vt[:6].T, v[:, :6])
        assert np.max(angles) <= 1e-8

    def test_haar_block_dimension_guard(self):
        with pytest.raises(InputDomainError):
            gen_ships(40, 20, SpectrumSpec(k=12, spacing="logspace"), seed=0)

    def test_deterministic(self):
        spec = SpectrumSpec(k=5, spacing="logspace")
        assert np.array_equal(
            gen_ships(30, 15, spec, seed=1), gen_ships(30, 15, spec, seed=1)
        )


class TestSpectrumSpec:
    def test_logspace_deterministic_grid(self):
        spec = SpectrumSpec(k=3, leading=(1e2, 1e3), trailing=(1e-4, 1e-1),
                            spacing="logspace")
        sig = spec.sample(6, np.random.default_rng(0))
        assert_allclose(sig[:3], np.logspace(3, 2, 3))
        assert_allclose(sig[3:], np.logspace(-1, -4, 3))

    def test_uniform_stays_in_range_descending(self):
        spec = SpectrumSpec(k=4)
        sig = spec.sample(12, np.random.default_rng(7))
        assert np.all(np.diff(sig) <= 0)
        assert np.all((sig[:4] >= 1e2) & (sig[:4] <= 1e3))
        assert np.all((sig[4:] >= 1e-10) & (sig[4:] <= 10 ** 1.9))

    def test_validation(self):
        with pytest.raises(InputDomainError):
            SpectrumSpec(k=2, leading=(10.0, 1.0))
        with pytest.raises(InputDomainError):
            SpectrumSpec(k=2, spacing="linear")

    @pytest.mark.parametrize("bounds", ((math.nan, 1.0), (1.0, math.nan),
                                        (0.0, 1.0), (1.0, math.inf)))
    def test_nan_and_unbounded_ranges_rejected(self, bounds):
        with pytest.raises(InputDomainError, match="0 < lo <= hi"):
            SpectrumSpec(k=2, trailing=bounds)

    def test_accepts_json_lists(self):
        assert SpectrumSpec(k=2, leading=[1, 2]) == SpectrumSpec(k=2, leading=(1, 2))


def test_designated_k():
    assert designated_k("kahan", n=100) == 99
    assert designated_k("gu_eisenstat", n=100) == 98
    assert designated_k("ships", k=20) == 20
    with pytest.raises(InputDomainError):
        designated_k("jolliffe")
    with pytest.raises(InputDomainError):
        designated_k("unknown")


class TestRealize:
    """``realize`` reads a generator description, as bench specs hold it."""

    def test_bench_binds_the_same_function(self):
        assert cssident.bench.realize is realize
        assert cssident.realize is realize

    def test_schema_families_are_the_accepted_families(self):
        schema = load_schema("bench_spec.schema.json")
        family = schema["properties"]["generator"]["properties"]["family"]
        assert set(family["enum"]) == set(REQUIRED_KEYS)

    @pytest.mark.parametrize("generator, message", [
        ({"family": "gaussian", "n": 5}, "gaussian needs key 'p'"),
        ({"family": "kahan"}, "kahan needs key 'n'"),
        ({"family": "identity"}, "identity needs key 'n'"),
        ({"family": "ships", "n": 10}, "ships needs key 'p'"),
        ({"family": "sorensen_embree", "n": 10, "p": 5},
         "sorensen_embree needs key 'spectrum'"),
        ({"family": "ships", "n": 10, "p": 5, "spectrum": {}},
         "ships spectrum needs key 'k'"),
    ])
    def test_missing_key_names_family_and_key(self, generator, message):
        with pytest.raises(InputDomainError) as err:
            realize(generator, 0)
        assert str(err.value) == message

    @pytest.mark.parametrize("generator, message", [
        ({"family": "kahan", "n": 6, "zeta_range": [math.nan, 0.95]},
         "zeta_range needs lo <= hi, got (nan, 0.95)"),
        ({"family": "gu_eisenstat", "n": 6, "zeta_range": [0.9, math.nan]},
         "zeta_range needs lo <= hi, got (0.9, nan)"),
        ({"family": "jolliffe", "n": 20, "p": 10, "rho_range": [math.nan, 0.95]},
         "rho_range needs lo <= hi, got (nan, 0.95)"),
        ({"family": "ships", "n": 20, "p": 10,
          "spectrum": {"k": 3, "leading": [math.nan, 5.0]}},
         "spectrum leading needs 0 < lo <= hi, got (nan, 5.0)"),
    ])
    def test_nan_range_is_input_error(self, generator, message):
        with pytest.raises(InputDomainError) as err:
            realize(generator, 0)
        assert str(err.value) == message

    def test_left_out_keys_take_the_generators_defaults(self):
        spec = SpectrumSpec(k=2)
        assert np.array_equal(
            realize({"family": "jolliffe", "n": 30, "p": 10}, 3),
            gen_jolliffe(30, 10, seed=3))
        assert np.array_equal(
            realize({"family": "sorensen_embree", "n": 30, "p": 10,
                     "spectrum": {"k": 2}}, 3),
            gen_sorensen_embree(30, 10, spec, seed=3))
        assert np.array_equal(
            realize({"family": "ships", "n": 30, "p": 10, "spectrum": {"k": 2}}, 3),
            gen_ships(30, 10, SpectrumSpec(k=2, spacing="logspace"), seed=3))


_GENERATOR_SCHEMA = load_schema("bench_spec.schema.json")["properties"]["generator"]
_GENERATOR_VALIDATOR = jsonschema.Draft202012Validator(_GENERATOR_SCHEMA)
_SIZE = st.integers(1, 12)
_NUMBER = st.one_of(st.floats(), st.integers(-10**6, 10**6))
_PAIR = st.lists(_NUMBER, min_size=2, max_size=2)
_DESCRIPTIONS = st.fixed_dictionaries(
    {"family": st.sampled_from(_GENERATOR_SCHEMA["properties"]["family"]["enum"])},
    optional={
        "n": _SIZE,
        "p": _SIZE,
        "zeta": st.floats(0, 1, exclude_min=True, exclude_max=True),
        "zeta_range": _PAIR,
        "block_size": _SIZE,
        "rho_range": _PAIR,
        "spectrum": st.fixed_dictionaries({"k": _SIZE}, optional={
            "leading": _PAIR,
            "trailing": _PAIR,
            "spacing": st.sampled_from(["uniform", "logspace"]),
        }),
    },
)


@settings(max_examples=200, deadline=None, derandomize=True, database=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(generator=_DESCRIPTIONS, seed=st.integers(0, 2**32 - 1))
def test_realize_is_a_finite_matrix_or_an_input_error(generator, seed):
    """Any description the bench schema accepts (n, p <= 12, ranges with
    NaN and infinities) gives a finite matrix of the described shape,
    byte-identical for the same seed, or an InputDomainError."""
    _GENERATOR_VALIDATOR.validate(generator)
    try:
        first = realize(generator, seed)
    except InputDomainError:
        return
    n = generator["n"]
    square = generator["family"] in ("kahan", "gu_eisenstat")
    p = n if square else generator.get("p", n)
    assert first.shape == (n, p)
    assert np.all(np.isfinite(first))
    assert realize(generator, seed).tobytes() == first.tobytes()
