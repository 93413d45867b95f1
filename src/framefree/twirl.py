"""Two-copy twirling layer.

The sufficient statistic of a locally twirled two-copy product is the vector
of swap-mask overlaps ``c_a = Tr(rho_{+,a} rho_{-,a})`` over all 2^N site
masks, where ``rho_{.,a}`` is the reduction onto the sites selected by ``a``.
This module computes those coefficients (numerically for arbitrary pairs,
in closed form for GHZ and product probes), assembles the dense invariant
states they describe, and provides Monte-Carlo twirling plus collective
rotation as independent oracles.
"""

import functools
import math
import operator
from dataclasses import dataclass

import numpy as np

from .states import IE, EncodedPair
from .tensor import (
    SWAP_TEST_KERNEL,
    DensityOperator,
    QuditLayout,
    haar_unitary,
    is_unitary,
    kron,
    local_unitary,
    popcounts,
    subset_transform,
    swap_operator,
    swap_permutation,
)

COEFF_RANGE_TOL = 1e-10


@dataclass(eq=False)
class LuiState:
    """Local-unitary-invariant state: the 2^N swap-mask overlaps on the last
    axis, one state per entry of the leading axes."""

    layout: QuditLayout
    coeffs: np.ndarray

    def __post_init__(self):
        if self.layout.copies != 1:
            raise ValueError("LuiState carries the single-copy layout")
        c = np.asarray(self.coeffs, dtype=float)
        if c.shape[-1:] != (1 << self.layout.n_sites,):
            raise ValueError(f"expected {1 << self.layout.n_sites} coefficients on the last axis")
        if not np.isfinite(c).all():
            raise ValueError("coefficients must be finite")
        self.coeffs = c

    @property
    def n_sites(self) -> int:
        return self.layout.n_sites


@dataclass(eq=False)
class GuiState:
    """Global-unitary-invariant state: a single swap expectation value."""

    layout: QuditLayout
    s_global: float

    def __post_init__(self):
        if not -COEFF_RANGE_TOL <= self.s_global <= 1.0 + COEFF_RANGE_TOL:
            raise ValueError(f"swap expectation {self.s_global} outside [0, 1]")


def _pair_blocks(product: np.ndarray, k: int, size: int) -> np.ndarray:
    """Rows (i, j) of a (k*size)^2 product of derivative-stacked matrices:
    its (i, j) block of size x size, flattened."""
    return product.reshape(k, size, k, size).transpose(0, 2, 1, 3).reshape(k * k, -1)


def swap_overlaps(pair: EncodedPair, order: int = 2) -> np.ndarray:
    """Overlaps c_a = Tr(rho_{+,a} rho_{-,a}) for every site mask a and
    their first `order` exact theta derivatives: row k holds d^k c / dtheta^k.

    Works on the amplitudes.  Per mask each copy is a (kept x traced) matrix
    M, and c = Tr(M+ M+^H M- M-^H) is contracted over the smaller side:
    Tr(rho+ rho-) of the reduced densities M M^H when the kept side is
    smaller, ||M-^H M+||^2 otherwise.  The derivatives of M are stacked so
    that one matrix product per mask gives every derivative pair.
    """
    lay = pair.layout
    n, d = lay.n_sites, lay.local_dim
    # the k-th theta derivative of exp(-i theta H) psi is (-iH)^k of it;
    # copy B's phase runs backwards under reversed encoding
    phase = np.array([[-1j], [-1j if pair.mode == IE else 1j]])
    series = [np.stack([pair.psi_plus.amplitudes, pair.psi_minus.amplitudes])]
    for _ in range(order):
        series.append(phase * pair.hamiltonian.apply(series[-1]))
    k = order + 1
    plus, minus = np.stack(series, axis=1).reshape((2, k) + (d,) * n)
    # Leibniz rule over derivative pairs: leibniz[r, i*k + j] = C(r, i) if i + j = r
    leibniz = np.array([[math.comb(r, i) if i + j == r else 0 for i in range(k) for j in range(k)]
                        for r in range(k)], dtype=float)
    out = np.zeros((k, 1 << n))
    out[0, 0] = 1.0
    for mask in range(1, 1 << n):
        # behind the derivative axis, site s sits on tensor axis n - s
        kept = [n - s for s in range(n) if (mask >> s) & 1]
        traced = [n - s for s in range(n) if not (mask >> s) & 1]
        dk, dt = d ** len(kept), d ** len(traced)
        if dk < dt:
            # rows (derivative, kept), columns traced
            p = plus.transpose([0] + kept + traced).reshape(k * dk, dt)
            m = minus.transpose([0] + kept + traced).reshape(k * dk, dt)
            left = leibniz @ _pair_blocks(p @ p.conj().T, k, dk)
            right = leibniz @ _pair_blocks(m @ m.conj().T, k, dk)
        else:
            # rows kept, columns (derivative, traced)
            p = plus.transpose(kept + [0] + traced).reshape(dk, k * dt)
            m = minus.transpose(kept + [0] + traced).reshape(dk, k * dt)
            left = right = leibniz @ _pair_blocks(m.conj().T @ p, k, dt)
        # derivatives of the inner product <right, left>, by the same rule
        out[:, mask] = (leibniz @ (right.conj() @ left.T).ravel()).real
    bad = np.flatnonzero((out[0] < -COEFF_RANGE_TOL) | (out[0] > 1.0 + COEFF_RANGE_TOL))
    if bad.size:
        mask = int(bad[0])
        raise RuntimeError(f"coefficient {mask:#x} = {out[0, mask]} outside [0, 1]")
    return out


def lui_coefficients(pair: EncodedPair) -> LuiState:
    """All 2^N overlap coefficients of the twirled two-copy product."""
    return LuiState(pair.layout, swap_overlaps(pair, 0)[0])


# -- closed-form probe model (GHZ and product-plus probes, 1/2-weight Z sum,
# reversed encoding)

PROBES = ("ghz", "product")
_TINY_ANGLE = math.sqrt(np.finfo(float).tiny)  # below it sin^2 is subnormal: the angle is 0


def probe_factors(probe: str, n: int) -> tuple:
    """(f, m) of the GHZ (1, n) or product-plus (n, 1) probe on n sites: its
    full-swap overlap s = x^f has f identical factors x = cos^2(m theta)."""
    if probe not in PROBES:
        raise ValueError(f"probe must be one of {PROBES}")
    return (1, n) if probe == "ghz" else (n, 1)


def _overlap_power(m: int, f: int, theta, order: int) -> tuple:
    """s = x^f of the overlap x = cos^2(m theta) and its first `order` exact
    derivatives, and 1 - s without cancellation: sin^2(m theta) for f = 1,
    else -expm1(f log1p(-sin^2)).  An angle below `_TINY_ANGLE` is taken as 0."""
    if not 0 <= order <= 2:
        raise ValueError("closed forms are given up to the second derivative")
    t = np.asarray(theta, dtype=float)
    mt = m * np.where(np.abs(t) < _TINY_ANGLE, 0.0, t)
    cos, gap = np.cos(mt), np.sin(mt) ** 2
    series = [cos ** (2 * f)]
    if order > 0:
        inner = cos ** (2 * f - 2)  # x^(f - 1)
        series.append(-m * f * np.sin(2.0 * mt) * inner)
    if order > 1:
        # f(f - 1) x^(f - 2) x'^2 + f x^(f - 1) x'', where x'^2 = 4 m^2 x (1 - x)
        ddx = -2.0 * m * m * np.cos(2.0 * mt)
        series.append(f * inner * (4.0 * m * m * (f - 1) * gap + ddx))
    if f > 1:
        with np.errstate(divide="ignore"):  # log1p(-1) = -inf gives s = 0 at pi/2
            gap = -np.expm1(f * np.log1p(-gap))
    return series, gap


@functools.cache
def _class_factors(probe: str, n: int, kernel: tuple) -> tuple:
    """Class-factor table of a closed probe for the flattened 2x2 `kernel`:
    class w's sum is a product of factors u^e, u = lo (1 - x) + hi x with
    lo, hi >= 0 and exact slope s.  Product probe: u from row 0 of 2K with
    e = n - w, from row 1 with e = w.  GHZ, c = (1 + delta_0)/2 + (x - 1/2)
    delta_full: one u, e = 1, s = B_w the column-1 product of 2K and lo = A_w,
    2 A_w = row-sum product + column-0 product - B_w.  Returns (lo, hi), e and
    the product rule's terms (coefficient, exponents) of u' and u''; read-only."""
    k2 = 2.0 * np.reshape(kernel, (2, 2))
    q = np.arange(n + 1)
    p, row_sums = n - q, k2.sum(axis=1)
    if probe == "ghz":
        b = k2[0, 1] ** p * k2[1, 1] ** q
        a = 0.5 * (row_sums[0] ** p * row_sums[1] ** q + k2[0, 0] ** p * k2[1, 0] ** q - b)
        factors = [(a, a + b, b, 1)]
    else:
        # a factor that is 1 at x = 0 and at x = 1 is 1 (row 0 of the identity)
        factors = [(k2[i, 0], row_sums[i], k2[i, 1], e) for i, e in ((0, p), (1, q))
                   if (k2[i, 0], row_sums[i]) != (1.0, 1.0)]
    lo, hi, s, e = zip(*factors)
    ids = range(len(factors))

    def term(coef, *drop):  # coef and the (i, e_i - k_i) that are not 0 everywhere
        return coef, [(i, k) for i in ids if np.any(k := np.maximum(e[i] - drop.count(i), 0))]

    first = [term(s[i] * e[i], i) for i in ids]
    # s_i^2 e_i (e_i - 1) for i = j, 2 s_i s_j e_i e_j for i < j
    second = [term(s[i] * s[i] * e[i] * (e[i] - 1) if i == j else 2 * s[i] * s[j] * e[i] * e[j],
                   i, j) for i in ids for j in ids[i:]]
    for value in [*lo, *hi, *e] + [v for c, ks in first + second for v in (c, *dict(ks).values())]:
        if isinstance(value, np.ndarray):
            value.flags.writeable = False
    return list(zip(lo, hi)), list(enumerate(e)), first, second


def closed_families(probe: str, n: int, theta, kernel=SWAP_TEST_KERNEL,
                    order: int = 2) -> np.ndarray:
    """Class sums den, num, sec of c, c', c'' (the first `order` + 1) by class
    weight w for the readout with class probabilities K c, shape
    (order + 1, *theta.shape, n + 1), scaled so that sum_w C(n, w) den_w = 2^n:
    the class-factor table at the overlap x, num and sec by the chain rule.
    No den_w cancels: its terms are the class sums at x = 0 and x = 1."""
    lines, den, first, second = _class_factors(
        probe, n, tuple(np.asarray(kernel, dtype=float).ravel().tolist()))
    rows, gap = _overlap_power(probe_factors(probe, n)[1], 1, theta, order)
    x, *dx = [row[..., None] for row in rows]
    us = [lo * gap[..., None] + hi * x for lo, hi in lines]

    def product(powers, *coef):  # the product of the u_i^k over the (i, k), times coef
        return functools.reduce(operator.mul, [us[i] ** k for i, k in powers] + [*coef])

    out = [product(den)]
    if order > 0:
        d1 = sum(product(ks, c) for c, ks in first)
        out.append(dx[0] * d1)
    if order > 1:
        out.append(dx[0] * dx[0] * sum(product(ks, c) for c, ks in second) + dx[1] * d1)
    # np.array joins rows of one shape at a quarter of np.stack's call cost
    return np.array(out)


def closed_overlaps(probe: str, n: int, theta, order: int = 2) -> np.ndarray:
    """Closed-form overlaps of the GHZ or product-plus probe and their first
    `order` exact theta derivatives: entry [k, ..., w] is d^k c_a / dtheta^k
    for |a| = w (expand with `popcounts(n)`), the class sums of the identity
    readout 2K = 1.  GHZ: 1 at w = 0, x at w = n, 1/2 between; product: x^w."""
    return closed_families(probe, n, theta, np.eye(2) / 2, order)


def closed_swap(probe: str, n: int, theta, order: int = 2) -> tuple:
    """The full-swap overlap s = x^f of the GHZ or product-plus probe with its
    first `order` exact derivatives, (order + 1, *theta.shape), and 1 - s."""
    f, m = probe_factors(probe, n)
    series, gap = _overlap_power(m, f, theta, order)
    return np.array(series), gap


def closed_lui(probe: str, n: int, theta) -> LuiState:
    """Twirled two-copy state of the GHZ or product-plus probe under the
    half-weight Z sum, reversed encoding; one state per angle of an array."""
    coeffs = closed_overlaps(probe, n, theta, 0)[0][..., popcounts(n)]
    return LuiState(QuditLayout(n, 2, 1), coeffs)


def ghz_lui(n: int, theta: float) -> LuiState:
    return closed_lui("ghz", n, theta)


def product_lui(n: int, theta: float) -> LuiState:
    return closed_lui("product", n, theta)


# -- dense assembly


def _lui_matrix(lui: LuiState) -> np.ndarray:
    """Dense two-copy matrix of the invariant state, without state validation:
    sum_m w_m S_m / (d^2 - 1)^N, real and symmetric.  Each swap S_m is a
    permutation, so its weight is scattered onto its dim entries."""
    if lui.coeffs.ndim != 1:
        raise ValueError("dense assembly takes a single state")
    lay2 = lui.layout.two_copy()
    n, d, dim = lay2.n_sites, lay2.local_dim, lay2.dim
    weights = subset_transform(lui.coeffs, [[1.0, -1.0 / d], [-1.0 / d, 1.0]])
    weights /= (d * d - 1.0) ** n
    cols = np.arange(dim)
    flat = np.concatenate([swap_permutation(m, lay2) * dim + cols for m in range(1 << n)])
    acc = np.bincount(flat, np.repeat(weights, dim), minlength=dim * dim)
    return acc.reshape(dim, dim)


def lui_density(lui: LuiState) -> DensityOperator:
    """Assemble the dense invariant state described by the coefficients."""
    return DensityOperator(lui.layout.two_copy(), _lui_matrix(lui))


def global_overlap_series(pair: EncodedPair) -> tuple:
    """The full-state overlap s = Tr(rho_+ rho_-) = |g|^2 of the pure copies,
    g = <psi_+|psi_->, its exact first and second theta derivatives, and
    1 - s as the squared norm of the part of psi_- orthogonal to psi_+.
    1 - s and s' carry no cancellation where s is near 1 and are exactly 0
    where the two copies coincide."""
    plus, minus = pair.psi_plus.amplitudes, pair.psi_minus.amplitudes
    g = np.vdot(plus, minus)
    perp = minus - g / np.vdot(plus, plus) * plus
    gap = float(np.vdot(perp, perp).real)
    if pair.mode == IE:
        return float(abs(g) ** 2), 0.0, 0.0, gap
    # g' = 2i <psi_+|H|psi_->, g'' = -4 <psi_+|H^2|psi_->; psi_- along psi_+ adds nothing to s'.
    h_plus, h_minus = pair.hamiltonian.apply(np.stack([plus, minus]))
    dg, ddg = 2j * np.vdot(h_plus, minus), -4.0 * np.vdot(h_plus, h_minus)
    ds = -4.0 * (np.conj(g) * np.vdot(h_plus, perp)).imag
    dds = 2.0 * (abs(dg) ** 2 + (np.conj(g) * ddg).real)
    return float(abs(g) ** 2), float(ds), float(dds), gap


def gui_state(pair: EncodedPair) -> GuiState:
    """Globally twirled two-copy state: only the full swap expectation survives."""
    return GuiState(pair.layout, global_overlap_series(pair)[0])


def gui_density(state: GuiState) -> DensityOperator:
    lay2 = state.layout.two_copy()
    dn = state.layout.single_copy_dim
    s = state.s_global
    swap_full = swap_operator((1 << state.layout.n_sites) - 1, lay2)
    mat = (1.0 - s / dn) * np.eye(lay2.dim) + (s - 1.0 / dn) * swap_full
    return DensityOperator(lay2, mat / (dn * dn - 1.0))


# -- Monte-Carlo and rotation oracles


def pair_product_density(pair: EncodedPair) -> DensityOperator:
    """Dense two-copy product state, copy A in the low slots."""
    lay2 = pair.layout.two_copy()
    rho_p = np.outer(pair.psi_plus.amplitudes, pair.psi_plus.amplitudes.conj())
    rho_m = np.outer(pair.psi_minus.amplitudes, pair.psi_minus.amplitudes.conj())
    return DensityOperator(lay2, kron(rho_m, rho_p))


def mc_local_twirl(pair: EncodedPair, samples: int, rng: np.random.Generator) -> DensityOperator:
    """Empirical local twirl: average per-site Haar rotations applied
    collectively to both copies.  Converges to lui_density(lui_coefficients)."""
    if samples < 1:
        raise ValueError("samples must be at least 1")
    lay = pair.layout
    lay2 = lay.two_copy()
    n, d = lay.n_sites, lay.local_dim
    amps = np.stack([pair.psi_minus.amplitudes, pair.psi_plus.amplitudes])
    acc = np.zeros((lay2.dim, lay2.dim), dtype=complex)
    # a batch's stacked two-copy vectors hold at most 2^20 entries
    batch = max(1, (1 << 20) // lay2.dim)
    for start in range(0, samples, batch):
        size = min(batch, samples - start)
        rots = haar_unitary(d, rng, (size, n))
        # rows (sample, copy); site s is the middle axis of (d^(n-1-s), d, d^s)
        v = np.broadcast_to(amps, (size, 2, lay.dim))
        for s in range(n):
            v = rots[:, s, None, None] @ v.reshape(size, 2, d ** (n - 1 - s), d, d ** s)
        v = v.reshape(size, 2, lay.dim)
        full = (v[:, 0, :, None] * v[:, 1, None, :]).reshape(size, lay2.dim)
        acc += full.T @ full.conj()
    acc /= samples
    acc = (acc + acc.conj().T) / 2.0
    acc /= acc.trace().real
    return DensityOperator(lay2, acc)


def g_twirl_apply(rho: DensityOperator, rotations) -> DensityOperator:
    """One realization of collective frame misalignment: the same per-site
    rotation hits both copies of each site."""
    lay = rho.layout
    if lay.copies != 2:
        raise ValueError("collective rotations act on two-copy states")
    rotations = [np.asarray(u, dtype=complex) for u in rotations]
    if len(rotations) != lay.n_sites:
        raise ValueError("one rotation per site expected")
    for u in rotations:
        if u.shape != (lay.local_dim, lay.local_dim) or not is_unitary(u):
            raise ValueError("rotations must be local_dim x local_dim unitaries")
    # W = U (x) U with U = local_unitary(rotations); rows and columns of rho
    # are (copy B, copy A), so W rho W^dag is U on each copy, row side and
    # column side, one product each
    u = local_unitary(rotations)
    dd = u.shape[0]
    out = u @ rho.matrix.reshape(dd, -1)  # copy B, rows
    out = u @ out.reshape(dd, dd, -1)  # copy A, rows
    out = out.reshape(-1, dd) @ u.conj().T  # copy A, columns
    out = u.conj() @ out.reshape(-1, dd, dd)  # copy B, columns
    return DensityOperator(lay, out.reshape(dd * dd, dd * dd))
