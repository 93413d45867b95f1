"""Quantum Fisher information for twirled two-copy states.

Two routes are provided and cross-checked everywhere: the coefficient route
(a signed sum over swap-mask overlaps and their theta derivatives) and the
spectrum route (eigenvalue perturbation of the dense invariant state).  The
spectrum route excludes vanishing eigenvalues; the coefficient route takes a
family whose signed sum and its derivative both vanish at its continuous
limit, twice the exact second derivative.  Closed forms are available for
the GHZ and product probes and for one-site / m-site encodings on probes
that factorize between encoded and unencoded sites.
"""

import math
from dataclasses import dataclass, field

import numpy as np

from .states import IE, RE, EncodedPair
from .tensor import WALSH_KERNEL, popcounts, subset_transform
from .twirl import LuiState, swap_overlaps

DEFAULT_STEP = 1e-5
EIGENVALUE_FLOOR = 1e-12
SUM_ROUNDING = 8.0  # rounding scale of a signed coefficient sum, in eps * sum|c|
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
    derivative_step: float
    dropped: tuple = field(default_factory=tuple)


def lui_spectrum(lui: LuiState) -> list[SpectrumEntry]:
    """Eigenvalues of the dense invariant state, indexed by the mask of
    antisymmetric sites, with combinatorial degeneracies."""
    n, d = lui.n_sites, lui.layout.local_dim
    lam = subset_transform(lui.coeffs, [[1.0 / (d * (d + 1)), 1.0 / (d * (d + 1))],
                                        [1.0 / (d * (d - 1)), -1.0 / (d * (d - 1))]])
    k = popcounts(n)
    deg = (d * (d + 1) // 2) ** (n - k) * (d * (d - 1) // 2) ** k
    return [SpectrumEntry(b, float(lam[b]), int(deg[b])) for b in range(1 << n)]


def fisher_from_coefficients(coeffs, dcoeffs, second_dcoeffs) -> float:
    """Information of the invariant state from the overlap coefficients and
    their first and second derivatives: (1/2^N) times the sum over masks of
    num^2 / den, with den, num and sec the signed sums of c, c' and c''.

    Each family is judged against the rounding scale r = SUM_ROUNDING * eps *
    sum|c| of its denominator.  Below -r the state is not PSD.  Up to r the
    family is a zero and takes its continuous limit 2 sec (Safranek, PRA 95,
    052320, 2017), which requires num^2 <= 4 r max(|sec|, 2^N).  Above r it
    takes num^2 / den, or the limit where the two agree within the ratio's
    own rounding, which settles double zeros near stationary angles.
    """
    c = np.asarray(coeffs, dtype=float)
    size = c.size
    # centred on c_0 = 1 so the sums near a zero carry no O(1) cancellation
    den, num, sec = subset_transform([c - c[0], dcoeffs, second_dcoeffs], WALSH_KERNEL)
    den[0] += size * c[0]
    r = SUM_ROUNDING * np.finfo(float).eps * np.abs(c).sum()
    b = int(den.argmin())
    if den[b] < -r:
        raise RuntimeError(f"denominator {den[b]} at mask {b:#x} is negative: state is not PSD")
    zero = den <= r
    pinned = zero & (num * num > 4.0 * r * np.maximum(np.abs(sec), size))
    if pinned.any():
        b = int(pinned.argmax())
        raise RuntimeError(f"vanishing denominator with non-vanishing numerator {num[b]} "
                           f"at mask {b:#x}")
    den = np.where(zero, 1.0, den)
    ratio = num * num / den
    limit = 2.0 * sec
    at_limit = zero | (np.abs(ratio - limit) * den <= r * ratio)
    return float(np.where(at_limit, limit, ratio).sum() / size)


def _overlap_series(pair_fn, theta: float, step: float):
    """The pair at theta with c, c' and the exact c'' of every swap mask;
    c' by central differences of c when step > 0."""
    if step < 0.0:
        raise ValueError("step must be positive, or 0 for the exact derivative")
    pair = pair_fn(theta)
    series = swap_overlaps(pair)
    if step > 0.0:
        series[1] = (swap_overlaps(pair_fn(theta + step), 0)[0]
                     - swap_overlaps(pair_fn(theta - step), 0)[0]) / (2.0 * step)
    return pair, series


def _qfi_general(pair_fn, theta: float, step: float, mode: str) -> FisherResult:
    pair, (c, dc, ddc) = _overlap_series(pair_fn, theta, step)
    if pair.mode != mode:
        raise ValueError(f"qfi_{mode}_general expects {_MODE_NAMES[mode]}-encoding pairs")
    return FisherResult(theta, fisher_from_coefficients(c, dc, ddc), f"{mode}_general", step)


def qfi_re_general(pair_fn, theta: float, step: float = DEFAULT_STEP) -> FisherResult:
    """Information of the locally twirled reversed-encoding state."""
    return _qfi_general(pair_fn, theta, step, RE)


def qfi_ie_general(pair_fn, theta: float, step: float = DEFAULT_STEP) -> FisherResult:
    """Information of the locally twirled identical-encoding state (purity terms)."""
    return _qfi_general(pair_fn, theta, step, IE)


def qfi_from_spectrum(spectrum_fn, theta: float, step: float = DEFAULT_STEP) -> FisherResult:
    """Degeneracy-weighted sum of (d lambda)^2 / lambda over the spectrum,
    with central finite differences; families below the floor are excluded."""
    if step <= 0.0:
        raise ValueError("step must be positive")
    here = spectrum_fn(theta)
    above = {e.mask: e.eigenvalue for e in spectrum_fn(theta + step)}
    below = {e.mask: e.eigenvalue for e in spectrum_fn(theta - step)}
    total = 0.0
    dropped = []
    for entry in here:
        dlam = (above[entry.mask] - below[entry.mask]) / (2.0 * step)
        if entry.eigenvalue < EIGENVALUE_FLOOR:
            dropped.append(entry.mask)
            continue
        total += entry.degeneracy * dlam * dlam / entry.eigenvalue
    return FisherResult(theta, total, "from_spectrum", step, tuple(dropped))


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


def _submasks(support: int) -> list[int]:
    """Full-register masks for every subset of the support, subset-bit order."""
    bits = [i for i in range(support.bit_length()) if (support >> i) & 1]
    out = []
    for sub in range(1 << len(bits)):
        mask = 0
        for j, site in enumerate(bits):
            if (sub >> j) & 1:
                mask |= 1 << site
        out.append(mask)
    return out


def qfi_m_site_closed(pair: EncodedPair, step: float = DEFAULT_STEP) -> float:
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
    _, series = _overlap_series(pair.at, pair.theta, step)
    return fisher_from_coefficients(*series[:, _submasks(support)])


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


def qfi_gui_re(pair: EncodedPair, step: float = DEFAULT_STEP) -> float:
    """Information of the globally twirled reversed-encoding state:
    (ds)^2 / (1 - s^2) with the stationary point resolved to the untwirled
    ceiling.  This is the global swap test's information."""
    from .measure import cfi_gst  # measure builds on this module

    if pair.mode != RE:
        raise ValueError("qfi_gui_re expects reversed-encoding pairs")
    return cfi_gst(pair, step)
