"""Quantum Fisher information for twirled two-copy states.

Every information number is one sum, `information_sum`, over the classes a
linear map makes of the swap-mask overlaps c and their exact derivatives:
site masks (the coefficient route, also the swap-test and Bell readouts),
eigenvalue families (the spectrum route) or the mask weights of the closed
probes; a class whose sum vanishes takes its continuous limit.  Closed forms
cover the GHZ and product probes and one-site / m-site encodings on probes
that factorize between encoded and unencoded sites.
"""

import math
from dataclasses import dataclass

import numpy as np

from .states import IE, RE, EncodedPair
from .tensor import WALSH_KERNEL, popcounts, subset_transform
from .twirl import LuiState, swap_overlaps

SUM_ROUNDING = 8.0  # rounding scale of a class sum, in eps times the size of its terms
# class probabilities of the local swap test: p = W c / 2^N
SWAP_TEST_KERNEL = WALSH_KERNEL / 2.0
_MODE_NAMES = {RE: "reversed", IE: "identical"}


@dataclass(frozen=True)
class SpectrumEntry:
    """One eigenvalue family of the invariant state, labelled by the
    antisymmetric-site mask; `degeneracy` counts the repeated eigenvectors."""

    mask: int
    eigenvalue: float
    degeneracy: int


@dataclass(eq=False)
class FisherResult:
    theta: float
    value: float
    method: str


def _spectrum(n: int, d: int):
    """Overlaps-to-eigenvalues kernel of the invariant state, and the degeneracies."""
    k = popcounts(n)
    kernel = np.array([[1.0 / (d * (d + 1)), 1.0 / (d * (d + 1))],
                       [1.0 / (d * (d - 1)), -1.0 / (d * (d - 1))]])
    return kernel, (d * (d + 1) // 2) ** (n - k) * (d * (d - 1) // 2) ** k


def lui_spectrum(lui: LuiState) -> list[SpectrumEntry]:
    """Eigenvalues of the dense invariant state, indexed by the mask of
    antisymmetric sites, with combinatorial degeneracies."""
    if lui.coeffs.ndim != 1:
        raise ValueError("the spectrum is listed for a single state")
    kernel, deg = _spectrum(lui.n_sites, lui.layout.local_dim)
    lam = subset_transform(lui.coeffs, kernel)
    return [SpectrumEntry(b, float(lam[b]), int(deg[b])) for b in range(lam.size)]


def information_sum(den, num, sec, mult, r):
    """(1/S) sum of mult num^2 / den over the classes on the last axis,
    S = sum(mult); den, num, sec are a class's sums of c, c', c'' scaled so
    that den / S is the probability of each of its mult outcomes, and r the
    rounding scale of den, at least the smallest normal float (a subnormal
    den carries no relative precision).  Below -r the state is not PSD; up
    to r a class is a zero and takes its continuous limit 2 sec (Safranek,
    PRA 95, 052320, 2017), which requires num^2 <= 4 r max(|sec|, S); above
    r it takes num^2 / den, or 2 sec where the two agree within the ratio's
    own rounding (double zeros near stationary angles)."""
    size = mult.sum()
    r = np.maximum(r, np.finfo(float).tiny)
    if np.any(den < -r):
        raise RuntimeError(f"denominator {den.min()} is negative: state is not PSD")
    zero = den <= r
    pinned = zero & (num * num > 4.0 * r * np.maximum(np.abs(sec), size))
    if pinned.any():
        raise RuntimeError("vanishing denominator with non-vanishing numerator "
                           f"{num[pinned][0]} of family {np.argwhere(pinned)[0, -1]:#x}")
    den = np.where(zero, 1.0, den)
    ratio = num * num / den
    limit = 2.0 * sec
    at_limit = zero | (np.abs(ratio - limit) * den <= r * ratio)
    # a product with mult, not a sum over a short last axis, which numpy runs row by row
    return np.where(at_limit, limit, ratio) @ mult / size


def fisher_from_coefficients(coeffs, dcoeffs, second_dcoeffs, kernel=SWAP_TEST_KERNEL) -> float:
    """Information sum (dp)^2 / p over the classes p = K c of a readout with
    Kronecker kernel K, from the overlaps c and their exact c' and c''; the
    default kernel is the swap test's, whose information is that of the
    invariant state.  r_b = SUM_ROUNDING * eps * (|K| |c|)_b."""
    c = np.asarray(coeffs, dtype=float)
    size = c.size
    # centred on c_0 = 1 so the sums near a zero carry no O(1) cancellation
    p, dp, ddp, ones = subset_transform([c - c[0], dcoeffs, second_dcoeffs, np.ones(size)], kernel)
    p += c[0] * ones
    r = SUM_ROUNDING * np.finfo(float).eps * subset_transform(np.abs(c), np.abs(kernel))
    # one outcome per class, S = 2^N: den = 2^N p
    return float(information_sum(size * p, size * dp, size * ddp, np.ones(size), size * r))


def fisher_from_weight_classes(families) -> np.ndarray:
    """Information from `twirl.closed_families` (mask weight w, multiplicity
    C(N, w)), elementwise over the leading axes.  Each den_w is a product of
    positive factors: r_w = SUM_ROUNDING * eps * den_w, only exact zeros."""
    den, num, sec = families
    n = den.shape[-1] - 1
    mult = np.array([math.comb(n, w) for w in range(n + 1)], dtype=float)
    return information_sum(den, num, sec, mult, SUM_ROUNDING * np.finfo(float).eps * den)


def qfi_from_spectrum(series, local_dim: int) -> float:
    """Degeneracy-weighted sum of (d lambda)^2 / lambda over the eigenvalue
    families of the invariant state, with lambda, d lambda and d^2 lambda
    the eigenvalue kernel applied to the exact overlap rows c, c', c''
    (shape (3, 2^N)) of a register of local dimension `local_dim`;
    r_b = SUM_ROUNDING * eps * (|K| |c|)_b."""
    c = np.asarray(series, dtype=float)
    kernel, deg = _spectrum(c.shape[-1].bit_length() - 1, local_dim)
    # each eigenvector is one outcome: den = dim * lambda, dim = sum(deg)
    dim = float(deg.sum())
    r = SUM_ROUNDING * np.finfo(float).eps * subset_transform(np.abs(c[0]), np.abs(kernel))
    return float(information_sum(*(dim * subset_transform(c, kernel)), deg, dim * r))


def _qfi_general(pair_fn, theta: float, mode: str) -> FisherResult:
    pair = pair_fn(theta)
    if pair.mode != mode:
        raise ValueError(f"qfi_{mode}_general expects {_MODE_NAMES[mode]}-encoding pairs")
    return FisherResult(theta, fisher_from_coefficients(*swap_overlaps(pair)), f"{mode}_general")


# qfi_re_general, qfi_ie_general, qfi_m_site_closed and qfi_gui_re accept one
# trailing positional argument and ignore it: the general_route workload in
# perfbench/workloads.py passes a derivative step there.


def qfi_re_general(pair_fn, theta: float, _ignored=None, /) -> FisherResult:
    """Information of the locally twirled reversed-encoding state."""
    return _qfi_general(pair_fn, theta, RE)


def qfi_ie_general(pair_fn, theta: float, _ignored=None, /) -> FisherResult:
    """Information of the locally twirled identical-encoding state (purity terms)."""
    return _qfi_general(pair_fn, theta, IE)


def f0(psi0, h) -> float:
    """Information ceiling of the untwirled two-copy pure product:
    8 * variance of the generator in the probe."""
    amps = psi0.amplitudes
    h_psi = h.apply(amps)
    mean = np.vdot(amps, h_psi).real
    second = np.vdot(h_psi, h_psi).real
    return float(8.0 * (second - mean * mean))


def qfi_one_site_closed(tr_rho_sq: float, tr_zrz_rho: float, theta: float) -> float:
    """One-encoded-site closed form from the probe's purity terms.

    Exact when the probe factorizes between the encoded site and the rest.
    """
    t = tr_rho_sq - tr_zrz_rho
    c = math.cos(theta)
    s = math.sin(theta)
    return 4.0 * c * c * t / (2.0 - s * s * t)


def qfi_m_site_closed(pair: EncodedPair, _ignored=None, /) -> float:
    """Restricted sum over encoded-site masks only, prefactor 1/2^m.

    Exact when the probe factorizes between the encoded and unencoded sites;
    entanglement across that cut carries extra information this restricted
    sum does not see.
    """
    if pair.mode != RE:
        raise ValueError("the restricted sum is defined for reversed encoding")
    support = pair.hamiltonian.support
    if support == 0:
        raise ValueError("the generator has empty support")
    # every subset of the support; increasing order is the restricted register's bit order
    submasks = [mask for mask in range(support + 1) if mask & support == mask]
    return fisher_from_coefficients(*swap_overlaps(pair)[:, submasks])


def qfi_product_closed(n: int, theta):
    """Closed form for the product-plus probe under the half-weight Z sum,
    elementwise over arrays of angles."""
    c = np.cos(theta) ** 2
    return 4.0 * n * c / (1.0 + c)


def qfi_ghz_closed(n: int, theta):
    """Closed form for the GHZ probe under the half-weight Z sum, elementwise
    over arrays of angles."""
    s = np.sin(n * theta) ** 2
    c = np.cos(n * theta) ** 2
    return 2.0 * n * n * (1.0 - s / (c + 2.0 ** (n - 1)))


def qfi_gui_ghz_closed(n: int, theta: float) -> float:
    """Globally twirled GHZ closed form: 4 n^2 cos^2(n t) / (1 + cos^2(n t))."""
    c = math.cos(n * theta) ** 2
    return 4.0 * n * n * c / (1.0 + c)


def qfi_gui_re(pair: EncodedPair, _ignored=None, /) -> float:
    """Information of the globally twirled reversed-encoding state:
    (ds)^2 / (1 - s^2), the global swap test's information."""
    from .measure import cfi_gst  # measure builds on this module

    if pair.mode != RE:
        raise ValueError("qfi_gui_re expects reversed-encoding pairs")
    return cfi_gst(pair)
