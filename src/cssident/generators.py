"""Seeded generators for the five adversarial test matrix families.

Every generator is a pure function of its parameters and seed (PCG64
stream via ``numpy.random.default_rng``).  For the SVD-composed families
the draw order within one stream is fixed and documented: spectrum first,
then the left factor U, then any remaining random pieces (rho for the
block-correlation family, the inner Haar block and the orthogonal
completion fill for SHIPS).

Spectrum ranges spanning many decades are sampled uniformly in the
exponent ('uniform' spacing); 'logspace' places a deterministic
logarithmically spaced grid.  This keeps the ill-conditioning these
families are designed around (average condition numbers near 1e14),
which a linear-uniform draw misses by more than ten orders of magnitude.

:func:`realize` is the one reader of a generator description (a bench
spec's ``generator``, a ``generate`` sidecar's params).  A key left out
takes the default of the generator it feeds, written once in that
generator's signature, in SpectrumSpec or in a module constant here.  A
missing key, a key the family does not read or a range failing
``lo <= hi`` (as NaN does) raises InputDomainError.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.linalg as sla

from .errors import InputDomainError
from .linalg import _nonneg_diag, qr_unpivoted

FAMILIES = ("kahan", "gu_eisenstat", "jolliffe", "sorensen_embree", "ships")

# the seed draws the whole matrix (kahan, gu_eisenstat: only zeta)
SEEDED_FAMILIES = ("jolliffe", "sorensen_embree", "ships")
# the families realize accepts, the keys each description must carry, and
# the further keys each family reads; realize rejects any other key
REQUIRED_KEYS = {"identity": ("n",), "gaussian": ("n", "p"), "kahan": ("n",),
                 "gu_eisenstat": ("n",), "jolliffe": ("n", "p"), "ships": ("n", "p"),
                 "sorensen_embree": ("n", "p", "spectrum")}
OPTIONAL_KEYS = {"identity": ("p",), "gaussian": (), "kahan": ("zeta", "zeta_range"),
                 "gu_eisenstat": ("zeta", "zeta_range"),
                 "jolliffe": ("spectrum", "block_size", "rho_range"),
                 "ships": ("spectrum",), "sorensen_embree": ()}
ZETA_RANGE = (0.9, 0.99999)
JOLLIFFE_BLOCK_SIZE = 5
JOLLIFFE_RHO_RANGE = (0.9, 0.99999)
SHIPS_SPACING = "logspace"


def _check_range(name: str, bounds, lower: float = -np.inf) -> tuple[float, float]:
    """(lo, hi) with lower < lo <= hi and a finite width; NaN fails it."""
    lo, hi = bounds
    if not (lower < lo <= hi and hi - lo < np.inf):
        need = "lo <= hi" if lower == -np.inf else f"{lower:g} < lo <= hi"
        raise InputDomainError(f"{name} needs {need}, got {tuple(bounds)}")
    return lo, hi


@dataclass(frozen=True)
class SpectrumSpec:
    """Singular value layout: k leading values and p-k trailing ones.

    spacing 'uniform' draws uniformly in log10 of each range; 'logspace'
    uses a deterministic logarithmically spaced descending grid.
    """

    k: int
    leading: tuple[float, float] = (1e2, 1e3)
    trailing: tuple[float, float] = (1e-10, 10 ** 1.9)
    spacing: str = "uniform"

    def __post_init__(self):
        for name in ("leading", "trailing"):
            bounds = _check_range(f"spectrum {name}", getattr(self, name), lower=0)
            object.__setattr__(self, name, bounds)
        if self.spacing not in ("uniform", "logspace"):
            raise InputDomainError(f"unknown spacing {self.spacing!r}")

    def sample(self, p: int, rng: np.random.Generator) -> np.ndarray:
        """Descending spectrum of length p (leading block then trailing)."""
        if not 1 <= self.k < p:
            raise InputDomainError(f"spectrum needs 1 <= k < p, got k={self.k}, p={p}")

        def block(rank: int, lo: float, hi: float) -> np.ndarray:
            if self.spacing == "uniform":
                vals = 10.0 ** rng.uniform(np.log10(lo), np.log10(hi), rank)
                return np.sort(vals)[::-1]
            return np.logspace(np.log10(hi), np.log10(lo), rank)

        lead = block(self.k, *self.leading)
        trail = block(p - self.k, *self.trailing)
        return np.concatenate([lead, trail])


def haar_orthonormal(n: int, p: int, seed) -> np.ndarray:
    """n x p matrix with Haar-distributed orthonormal columns."""
    if n < p:
        raise InputDomainError(f"haar_orthonormal needs n >= p, got {n}x{p}")
    return _haar(np.random.default_rng(seed), n, p)


def _haar(rng: np.random.Generator, n: int, p: int) -> np.ndarray:
    # QR of a Gaussian with R-diagonal sign correction (Stewart's method)
    g = rng.standard_normal((n, p))
    return _nonneg_diag(*np.linalg.qr(g))[0]


def gen_kahan(n: int, zeta: float) -> np.ndarray:
    """Kahan's triangular matrix D_n K_n; designated k = n - 1.

    D_n = diag(1, zeta, ..., zeta^(n-1)) and K_n is unit upper triangular
    with -phi above the diagonal, phi = sqrt(1 - zeta^2).
    """
    _check_zeta(zeta)
    if n < 2:
        raise InputDomainError("kahan needs n >= 2")
    phi = np.sqrt(1.0 - zeta * zeta)
    d = zeta ** np.arange(n)
    kk = np.eye(n) + np.triu(-phi * np.ones((n, n)), 1)
    return d[:, None] * kk


def _check_zeta(zeta: float) -> None:
    if not 0.0 < zeta < 1.0:
        raise InputDomainError(f"zeta must lie in (0, 1), got {zeta}")


def gu_eisenstat_mu(n: int, zeta: float) -> float:
    """Scale mu of the bottom block: min over rows i of
    1/||e_i^T (D K)^{-1}||_2, divided by sqrt(n - 2)."""
    m = n - 3
    dk = gen_kahan(m, zeta)
    mu = 0.0  # at a singular D K, or row norms past the double range
    if dk[-1, -1] > 0:
        inv = sla.solve_triangular(dk, np.eye(m))
        with np.errstate(over="ignore"):
            row_norms = np.linalg.norm(inv, axis=1)
        mu = float(np.min(1.0 / row_norms) / np.sqrt(n - 2))
    if not mu > 0:
        raise InputDomainError(f"gu_eisenstat mu underflows at zeta={zeta}, n={n}")
    return mu


def gen_gu_eisenstat(n: int, zeta: float) -> np.ndarray:
    """Gu-Eisenstat triangular matrix; designated k = n - 2.

    Leading (n-3) x (n-3) block D K as in Kahan, two columns that are zero
    above the bottom 3 x 3 block, a top-right column -phi * D * ones, and
    mu on the last three diagonal positions.
    """
    if n < 5:
        raise InputDomainError("gu_eisenstat needs n >= 5")
    _check_zeta(zeta)
    m = n - 3
    phi = np.sqrt(1.0 - zeta * zeta)
    mu = gu_eisenstat_mu(n, zeta)
    s = np.zeros((n, n))
    s[:m, :m] = gen_kahan(m, zeta)
    s[:m, n - 1] = -phi * zeta ** np.arange(m)
    s[m, m] = mu
    s[m + 1, m + 1] = mu
    s[m + 2, m + 2] = mu
    return s


def _compose(u: np.ndarray, sigma: np.ndarray, v: np.ndarray) -> np.ndarray:
    return u @ (sigma[:, None] * v.T)


def correlation_block(rho: float, size: int) -> np.ndarray:
    """Equicorrelation block (1 - rho) I + rho * ones."""
    return (1.0 - rho) * np.eye(size) + rho * np.ones((size, size))


def block_correlation_matrix(p: int, block_size: int, rho_values) -> np.ndarray:
    """Block-diagonal matrix of equicorrelation blocks."""
    rho_values = np.asarray(rho_values, dtype=float)
    if p != block_size * rho_values.size:
        raise InputDomainError("p must equal block_size * len(rho_values)")
    lam = np.zeros((p, p))
    for i, rho in enumerate(rho_values):
        sl = slice(i * block_size, (i + 1) * block_size)
        lam[sl, sl] = correlation_block(rho, block_size)
    return lam


def gen_jolliffe(n: int, p: int, block_size: int = JOLLIFFE_BLOCK_SIZE,
                 rho_range: tuple[float, float] = JOLLIFFE_RHO_RANGE,
                 spec: SpectrumSpec | None = None, seed=0,
                 return_parts: bool = False):
    """Block-correlation family: U Sigma V^T with V from a QR of the
    block-diagonal correlation matrix Lambda.

    Each block is (1 - rho_i) I + rho_i * ones, rho_i drawn uniformly from
    ``rho_range``.  By default every column belongs to a correlated block
    and the number of blocks equals the designated k.  Draw order: spectrum, U, rho.
    """
    if block_size < 1:
        raise InputDomainError(f"block_size must be >= 1, got {block_size}")
    lo, hi = _check_range("rho_range", rho_range)
    if p > n:
        raise InputDomainError(f"jolliffe needs p <= n, got {n}x{p}")
    if p % block_size != 0:
        raise InputDomainError(
            f"p={p} must be divisible by block_size={block_size}"
        )
    n_blocks = p // block_size
    spec = spec or SpectrumSpec(k=n_blocks)
    rng = np.random.default_rng(seed)
    sigma = spec.sample(p, rng)
    u = _haar(rng, n, p)
    rho = rng.uniform(lo, hi, n_blocks)
    lam = block_correlation_matrix(p, block_size, rho)
    v = qr_unpivoted(lam).q
    s = _compose(u, sigma, v)
    return (s, (u, sigma, v)) if return_parts else s


def sorensen_embree_pattern(p: int, k: int) -> np.ndarray:
    """The p x k sign pattern L: unit diagonal, -1 strictly below."""
    ll = np.zeros((p, k))
    for j in range(k):
        ll[j, j] = 1.0
        ll[j + 1:, j] = -1.0
    return ll


def gen_sorensen_embree(n: int, p: int, spec: SpectrumSpec, seed=0,
                        return_parts: bool = False):
    """Clustered-right-vector family: V_k from a QR of the lower
    triangular -1 pattern, completed to an orthogonal V by the full QR.

    Draw order: spectrum, then U.
    """
    if not 1 <= spec.k < p <= n:
        raise InputDomainError(f"need k < p <= n, got k={spec.k}, p={p}, n={n}")
    rng = np.random.default_rng(seed)
    sigma = spec.sample(p, rng)
    u = _haar(rng, n, p)
    ll = sorensen_embree_pattern(p, spec.k)
    v, rfull = np.linalg.qr(ll, mode="complete")
    v[:, :spec.k] = _nonneg_diag(v[:, :spec.k], rfull[:spec.k])[0]
    out = _compose(u, sigma, v)
    return (out, (u, sigma, v)) if return_parts else out


def ships_v11(k: int) -> np.ndarray:
    """The k x k leading block T / (2 ||T||_2): unit upper triangular T
    with -1 strictly above the diagonal, scaled so ||V11||_2 = 1/2."""
    t = np.eye(k) + np.triu(-np.ones((k, k)), 1)
    return t / (2.0 * np.linalg.norm(t, 2))


def gen_ships(n: int, p: int, spec: SpectrumSpec | None = None, seed=0,
              return_parts: bool = False):
    """Adversarial family amplifying accuracy differences between the
    selection algorithms.

    V_k stacks V11 on top of U~ (I - V11^T V11)^{1/2} with U~ Haar; the
    symmetric PSD square root comes from an eigendecomposition.  V is
    completed to p x p orthogonal by a full QR of [V_k | Gaussian fill].
    The spectrum is logarithmically spaced by default.  Draw order:
    spectrum, U, U~, fill.
    """
    spec = spec or SpectrumSpec(k=20, spacing=SHIPS_SPACING)
    k = spec.k
    if not 1 <= k < p <= n:
        raise InputDomainError(f"need k < p <= n, got k={k}, p={p}, n={n}")
    if p - k < k:
        raise InputDomainError(
            f"ships needs p - k >= k for the Haar block, got p={p}, k={k}"
        )
    rng = np.random.default_rng(seed)
    sigma = spec.sample(p, rng)
    u = _haar(rng, n, p)
    v11 = ships_v11(k)
    u_tilde = _haar(rng, p - k, k)
    gram_defect = np.eye(k) - v11.T @ v11
    w, vecs = np.linalg.eigh(gram_defect)
    root = vecs @ (np.sqrt(np.clip(w, 0.0, None))[:, None] * vecs.T)
    v_k = np.vstack([v11, u_tilde @ root])
    fill = rng.standard_normal((p, p - k))
    qf, _ = np.linalg.qr(np.hstack([v_k, fill]))
    v = np.hstack([v_k, qf[:, k:]])
    s = _compose(u, sigma, v)
    return (s, (u, sigma, v)) if return_parts else s


def designated_k(family: str, n: int | None = None, k: int | None = None) -> int:
    """The k each family was designed around."""
    if family == "kahan":
        return int(n) - 1
    if family == "gu_eisenstat":
        return int(n) - 2
    if family in SEEDED_FAMILIES:
        if k is None:
            raise InputDomainError(f"{family} needs an explicit k")
        return int(k)
    raise InputDomainError(f"unknown family {family!r}")


def spectrum_spec(family: str, d: dict) -> SpectrumSpec:
    """SpectrumSpec of a description's 'spectrum' entry (ships: SHIPS_SPACING)."""
    _require(f"{family} spectrum", d, ("k",))
    defaults = {"spacing": SHIPS_SPACING} if family == "ships" else {}
    return SpectrumSpec(**(defaults | dict(d, k=int(d["k"]))))


def _require(what: str, params: dict, keys) -> None:
    for key in keys:
        if key not in params:
            raise InputDomainError(f"{what} needs key {key!r}")


def realize(generator: dict, seed: int) -> np.ndarray:
    """Draw one matrix from a generator description: a 'family' key, that
    family's ``REQUIRED_KEYS`` and any optional parameters (layouts in the
    bench spec schema).  The same description and seed give the same bytes.
    """
    params = dict(generator)
    family = params.pop("family", None)
    if family is None:
        raise InputDomainError("generator description needs a 'family'")
    if family not in REQUIRED_KEYS:
        raise InputDomainError(f"unknown generator family {family!r}")
    _require(family, params, REQUIRED_KEYS[family])
    for key in params:
        if key not in REQUIRED_KEYS[family] + OPTIONAL_KEYS[family]:
            raise InputDomainError(f"{family} does not read key {key!r}")
    n, rng = int(params["n"]), np.random.default_rng(seed)
    if family == "identity":
        return np.eye(n, int(params.get("p", n)))
    if family == "gaussian":
        return rng.standard_normal((n, int(params["p"])))
    if family not in SEEDED_FAMILIES:  # kahan, gu_eisenstat
        zeta = params.get("zeta")
        if zeta is None:
            bounds = _check_range("zeta_range", params.get("zeta_range", ZETA_RANGE))
            zeta = rng.uniform(*bounds)
        return (gen_kahan if family == "kahan" else gen_gu_eisenstat)(n, float(zeta))
    p = int(params["p"])
    spec = spectrum_spec(family, params["spectrum"]) if "spectrum" in params else None
    if family == "jolliffe":
        options = {key: convert(params[key]) for key, convert in
                   (("block_size", int), ("rho_range", tuple)) if key in params}
        return gen_jolliffe(n, p, spec=spec, seed=seed, **options)
    generate = gen_sorensen_embree if family == "sorensen_embree" else gen_ships
    return generate(n, p, spec, seed)
