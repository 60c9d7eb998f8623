"""Input errors that no other test reaches: each entry point rejects its
input with InputDomainError and a message naming the fault."""
import re

import numpy as np
import pytest

from cssident import (
    InputDomainError,
    RankPolicy,
    SpectrumSpec,
    SrrqrConfig,
    condition_number,
    gen_ships,
    gen_sorensen_embree,
    srrqr_rho,
)
from cssident.generators import block_correlation_matrix
from cssident.linalg import check_matrix, check_perm
from cssident.matio import read_matrixmarket
from cssident.odesens import SensMethod


def _read_mm(path, text):
    path.write_text(text)
    return read_matrixmarket(path)


# each call takes a path it may write a file to; {path} in a message is that path
CASES = {
    "rank-policy-mode": (lambda _: RankPolicy(mode="largest"),
                         "unknown rank policy mode 'largest'"),
    "rank-policy-unread-k": (lambda _: RankPolicy(mode="gap", k=5),
                             "gap rank policy does not read k"),
    "rank-policy-unread-k-threshold": (
        lambda _: RankPolicy(mode="relative", k=5, eta=1e-12),
        "relative rank policy does not read k"),
    "rank-policy-unread-eta": (lambda _: RankPolicy(mode="fixed", k=2, eta=1e-12),
                               "fixed rank policy does not read eta"),
    "rank-policy-unread-eta-gap": (lambda _: RankPolicy(mode="gap", eta=0.0),
                                   "gap rank policy does not read eta"),
    "srrqr-max-swaps": (lambda _: SrrqrConfig(max_swaps=0), "max_swaps must be positive"),
    "rho-not-square": (lambda _: srrqr_rho(np.ones((2, 3)), 1, 0, 0),
                       "r must be square, got (2, 3)"),
    "rho-not-triangular": (lambda _: srrqr_rho(np.tril(np.ones((3, 3))), 1, 0, 0),
                           "r must be upper triangular"),
    "rho-k": (lambda _: srrqr_rho(np.eye(3), 3, 0, 0),
              "k must satisfy 1 <= k < p, got k=3, p=3"),
    "spectrum-k": (lambda _: SpectrumSpec(k=4).sample(4, np.random.default_rng(0)),
                   "spectrum needs 1 <= k < p, got k=4, p=4"),
    "block-correlation-size": (lambda _: block_correlation_matrix(5, 2, [0.1, 0.2]),
                               "p must equal block_size * len(rho_values)"),
    "sorensen-embree-shape": (lambda _: gen_sorensen_embree(10, 20, SpectrumSpec(k=5)),
                              "need k < p <= n, got k=5, p=20, n=10"),
    "ships-shape": (lambda _: gen_ships(10, 20, SpectrumSpec(k=5)),
                    "need k < p <= n, got k=5, p=20, n=10"),
    "matrix-not-2d": (lambda _: check_matrix(np.ones(3)),
                      "matrix must be 2-D, got shape (3,)"),
    "matrix-empty": (lambda _: check_matrix(np.ones((0, 3))),
                     "matrix must be nonempty, got shape (0, 3)"),
    "not-a-permutation": (lambda _: check_perm([0, 0], 2),
                          "not a permutation of 0..1: [0, 0]"),
    "matrixmarket-banner": (lambda path: _read_mm(path, "1 1\n2.0\n"),
                            "{path} is not a MatrixMarket file"),
    "matrixmarket-entry-count": (
        lambda path: _read_mm(path, "%%MatrixMarket matrix array real general\n"
                                    "2 2\n1.0\n2.0\n3.0\n"),
        "{path}: expected 4 entries, found 3"),
    "sensitivity-method": (lambda _: SensMethod(kind="forward-fd", step=1e-6),
                           "unknown sensitivity method 'forward-fd'"),
}


@pytest.mark.parametrize("case", CASES)
def test_rejects_input_with_its_message(case, tmp_path):
    call, message = CASES[case]
    path = tmp_path / "a.mtx"
    with pytest.raises(InputDomainError, match=f"^{re.escape(message.format(path=path))}$"):
        call(path)


def test_condition_number_of_a_zero_matrix_is_infinite():
    assert condition_number(np.zeros((3, 2))) == np.inf
