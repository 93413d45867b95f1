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

from .states import IE, RE, MODES, EncodedPair
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
)

COEFF_RANGE_TOL = 1e-10


@dataclass(eq=False)
class LuiState:
    """Local-unitary-invariant state: 2^N real swap-mask overlap coefficients."""

    layout: QuditLayout
    coeffs: np.ndarray
    mode: str
    theta: float

    def __post_init__(self):
        if self.layout.copies != 1:
            raise ValueError("LuiState carries the single-copy layout")
        c = np.asarray(self.coeffs, dtype=float)
        if c.shape != (1 << self.layout.n_sites,):
            raise ValueError(f"expected {1 << self.layout.n_sites} coefficients")
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


# -- closed-form coefficient models (GHZ and product probes, 1/2-weight Z sum)


def ghz_coefficients(n: int, theta: float, mode: str = RE) -> np.ndarray:
    """GHZ-probe coefficients: 1 at the empty mask, 1/2 in between, and
    cos^2(n*theta) (reversed mode) at the full mask."""
    if mode not in MODES:
        raise ValueError(f"mode must be one of {MODES}")
    c = np.full(1 << n, 0.5)
    c[0] = 1.0
    c[-1] = math.cos(n * theta) ** 2 if mode == RE else 1.0
    return c


def ghz_coefficient_derivatives(n: int, theta: float, mode: str = RE) -> np.ndarray:
    dc = np.zeros(1 << n)
    if mode == RE:
        dc[-1] = -n * math.sin(2.0 * n * theta)
    return dc


def ghz_coefficient_second_derivatives(n: int, theta: float, mode: str = RE) -> np.ndarray:
    ddc = np.zeros(1 << n)
    if mode == RE:
        ddc[-1] = -2.0 * n * n * math.cos(2.0 * n * theta)
    return ddc


def product_coefficients(n: int, theta: float, mode: str = RE) -> np.ndarray:
    """Product-plus-probe coefficients: cos(theta)^(2|a|) in reversed mode."""
    if mode not in MODES:
        raise ValueError(f"mode must be one of {MODES}")
    if mode == IE:
        return np.ones(1 << n)
    ham = popcounts(n)
    return np.cos(theta) ** (2 * ham)


def product_coefficient_derivatives(n: int, theta: float, mode: str = RE) -> np.ndarray:
    if mode == IE:
        return np.zeros(1 << n)
    ham = popcounts(n)
    out = np.zeros(1 << n)
    nz = ham > 0
    out[nz] = -ham[nz] * math.sin(2.0 * theta) * np.cos(theta) ** (2 * ham[nz] - 2)
    return out


def product_coefficient_second_derivatives(n: int, theta: float, mode: str = RE) -> np.ndarray:
    if mode == IE:
        return np.zeros(1 << n)
    ham = popcounts(n)
    out = np.zeros(1 << n)
    nz = ham > 0
    k = ham[nz]
    out[nz] = -2.0 * k * math.cos(2.0 * theta) * np.cos(theta) ** (2 * k - 2)
    deep = ham > 1  # the second term carries a factor (2k - 2) and vanishes at k = 1
    k = ham[deep]
    out[deep] += (k * (2 * k - 2) * math.sin(2.0 * theta) * math.sin(theta)
                  * np.cos(theta) ** (2 * k - 3))
    return out


def ghz_lui(n: int, theta: float, mode: str = RE) -> LuiState:
    return LuiState(QuditLayout(n, 2, 1), ghz_coefficients(n, theta, mode), mode, theta)


def product_lui(n: int, theta: float, mode: str = RE) -> LuiState:
    return LuiState(QuditLayout(n, 2, 1), product_coefficients(n, theta, mode), mode, theta)


# -- dense assembly


def _lui_matrix(lui: LuiState) -> np.ndarray:
    """Dense two-copy matrix of the invariant state, without state validation."""
    lay2 = lui.layout.two_copy()
    n, d = lay2.n_sites, lay2.local_dim
    weights = subset_transform(lui.coeffs, [[1.0, -1.0 / d], [-1.0 / d, 1.0]])
    acc = np.zeros((lay2.dim, lay2.dim), dtype=complex)
    for m in range(1 << n):
        acc += weights[m] * swap_operator(m, lay2)
    return acc / (d * d - 1.0) ** n


def lui_density(lui: LuiState) -> DensityOperator:
    """Assemble the dense invariant state described by the coefficients."""
    return DensityOperator(lui.layout.two_copy(), _lui_matrix(lui))


def global_overlap(pair: EncodedPair) -> float:
    """Tr(rho_+ rho_-) = |<psi_+|psi_->|^2 for pure copies."""
    return float(abs(np.vdot(pair.psi_plus.amplitudes, pair.psi_minus.amplitudes)) ** 2)


def global_overlap_derivative(pair: EncodedPair) -> float:
    """Exact d/d(theta) of the full-state overlap."""
    if pair.mode == IE:
        return 0.0
    plus, minus = pair.psi_plus.amplitudes, pair.psi_minus.amplitudes
    g = np.vdot(plus, minus)
    dg = 2j * np.vdot(plus, pair.hamiltonian.apply(minus))
    return float(2.0 * (np.conj(g) * dg).real)


def gui_state(pair: EncodedPair) -> GuiState:
    """Globally twirled two-copy state: only the full swap expectation survives."""
    return GuiState(pair.layout, global_overlap(pair), pair.theta)


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
    acc = np.zeros((lay2.dim, lay2.dim), dtype=complex)
    for _ in range(samples):
        rot = local_unitary([haar_unitary(d, rng) for _ in range(n)])
        a = rot @ pair.psi_plus.amplitudes
        b = rot @ pair.psi_minus.amplitudes
        full = np.kron(b, a)
        acc += np.outer(full, full.conj())
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
    single = local_unitary(rotations)
    w = np.kron(single, single)
    return DensityOperator(lay, w @ rho.matrix @ w.conj().T)
