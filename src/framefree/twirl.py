"""Two-copy twirling layer.

The sufficient statistic of a locally twirled two-copy product is the vector
of swap-mask overlaps ``c_a = Tr(rho_{+,a} rho_{-,a})`` over all 2^N site
masks, where ``rho_{.,a}`` is the reduction onto the sites selected by ``a``.
This module computes those coefficients (numerically for arbitrary pairs,
in closed form for GHZ and product probes), assembles the dense invariant
states they describe, and provides Monte-Carlo twirling plus collective
rotation as independent oracles.
"""

import math
from dataclasses import dataclass

import numpy as np

from .states import IE, RE, EncodedPair
from .tensor import (
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
    """Local-unitary-invariant state: 2^N swap-mask overlaps per angle of `theta`."""

    layout: QuditLayout
    coeffs: np.ndarray
    mode: str
    theta: float | np.ndarray

    def __post_init__(self):
        if self.layout.copies != 1:
            raise ValueError("LuiState carries the single-copy layout")
        c = np.asarray(self.coeffs, dtype=float)
        if c.shape != np.shape(self.theta) + (1 << self.layout.n_sites,):
            raise ValueError(f"expected {1 << self.layout.n_sites} coefficients per angle")
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
    theta: float

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
    return LuiState(pair.layout, swap_overlaps(pair, 0)[0], pair.mode, pair.theta)


# -- closed-form probe model (GHZ and product-plus probes, 1/2-weight Z sum,
# reversed encoding)

PROBES = ("ghz", "product")


def closed_overlaps(probe: str, n: int, theta, order: int = 2) -> np.ndarray:
    """Closed-form overlaps of the GHZ or product-plus probe and their first
    `order` exact theta derivatives, for any array of angles.

    Both probes are symmetric under site permutation, so c_a depends only on
    the weight |a|: entry [k, ..., w] of the (order + 1, *theta.shape, n + 1)
    result is d^k c_a / dtheta^k for |a| = w.  Expand with `popcounts(n)`.
    The GHZ overlaps are 1 at the empty mask, cos^2(n theta) at the full
    mask and 1/2 in between; the product overlaps are cos(theta)^(2w).
    """
    if probe not in PROBES:
        raise ValueError(f"probe must be one of {PROBES}")
    if not 0 <= order <= 2:
        raise ValueError("closed forms are given up to the second derivative")
    t = np.asarray(theta, dtype=float)[..., None]
    w = np.arange(n + 1)
    out = np.zeros((order + 1,) + t.shape[:-1] + (n + 1,))
    if probe == "ghz":
        nt = n * t[..., 0]
        out[0] = 0.5
        out[0, ..., 0] = 1.0
        out[0, ..., n] = np.cos(nt) ** 2
        if order > 0:
            out[1, ..., n] = -n * np.sin(2.0 * nt)
        if order > 1:
            out[2, ..., n] = -2.0 * n * n * np.cos(2.0 * nt)
    else:
        cos = np.cos(t)
        out[0] = cos ** (2 * w)
        if order > 0:
            # cos^(2w - 2), kept finite at w = 0 where the factor w clears it
            inner = cos ** np.maximum(2 * w - 2, 0)
            out[1] = -w * np.sin(2.0 * t) * inner
        if order > 1:
            out[2] = w * inner * (4.0 * (w - 1) * np.sin(t) ** 2 - 2.0 * np.cos(2.0 * t))
    return out


def closed_families(probe: str, n: int, theta) -> np.ndarray:
    """Signed swap-test sums den, num, sec of c, c', c'' by class weight w,
    shape (3, *theta.shape, n + 1), each written as a product.  Product probe:
    den_w = A^(n - w) B^w, A = 1 + cos^2, B = sin^2, the rest by the product
    rule.  GHZ: den_0 = 2^(n - 1) + cos^2(n theta), then cos^2(n theta) at
    even w and sin^2(n theta) at odd w, num and sec the +/- derivatives."""
    if probe not in PROBES:
        raise ValueError(f"probe must be one of {PROBES}")
    t = np.asarray(theta, dtype=float)[..., None]
    # below sqrt(tiny) sin^2 is subnormal; the families are those at 0
    t = np.where(np.abs(t) < np.sqrt(np.finfo(float).tiny), 0.0, t)
    w = np.arange(n + 1)
    if probe == "ghz":
        nt, odd = n * t, w % 2 == 1
        den = np.where(odd, np.sin(nt) ** 2, np.cos(nt) ** 2)
        den[..., 0] += 2.0 ** (n - 1)
        sign = np.where(odd, n, -n)
        return np.stack([den, sign * np.sin(2.0 * nt), 2.0 * n * sign * np.cos(2.0 * nt)])
    a, b = 1.0 + np.cos(t) ** 2, np.sin(t) ** 2
    da, dda = -np.sin(2.0 * t), -2.0 * np.cos(2.0 * t)  # b' = -a', b'' = -a''
    p, q = n - w, w

    def term(k, j):
        # a^(p - k) b^(q - j), kept finite where a zero factor p or q clears it
        return a ** np.maximum(p - k, 0) * b ** np.maximum(q - j, 0)

    first = p * term(1, 0) - q * term(0, 1)
    second = p * (p - 1) * term(2, 0) - 2 * p * q * term(1, 1) + q * (q - 1) * term(0, 2)
    return np.stack([term(0, 0), da * first, da * da * second + dda * first])


def closed_gap(probe: str, n: int, theta) -> np.ndarray:
    """1 - s for the full-swap overlap s of the GHZ or product-plus probe,
    without cancellation: sin^2(n theta), or -expm1(n log1p(-sin^2 theta))."""
    if probe not in PROBES:
        raise ValueError(f"probe must be one of {PROBES}")
    t = np.asarray(theta, dtype=float)
    if probe == "ghz":
        return np.sin(n * t) ** 2
    with np.errstate(divide="ignore"):  # log1p(-1) = -inf gives s = 0 at pi/2
        return -np.expm1(n * np.log1p(-np.sin(t) ** 2))


def closed_lui(probe: str, n: int, theta) -> LuiState:
    """Twirled two-copy state of the GHZ or product-plus probe under the
    half-weight Z sum, reversed encoding; one state per angle of an array."""
    coeffs = closed_overlaps(probe, n, theta, 0)[0][..., popcounts(n)]
    return LuiState(QuditLayout(n, 2, 1), coeffs, RE, theta)


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
    return GuiState(pair.layout, global_overlap_series(pair)[0], pair.theta)


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
