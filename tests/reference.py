"""Reference implementations that only the tests read.

Each one is an independent route to a number the package computes another
way (partial traces, dense generators, closed forms, the outcome models over
all 2^N site masks) or the plain loop that a faster kernel must reproduce
(the full-eigensolve invariance oracles, the per-value scan CSV writer, the
per-probe closed-form class sums and gap).
"""

import functools
import math

import numpy as np

from framefree.fisher import fisher_from_weight_classes, lui_spectrum
from framefree.measure import (
    DM,
    LBM,
    OutcomeDistribution,
    cfi_grm_from_overlap,
    gst_families,
    readout_kernel,
)
from framefree.tensor import (
    SWAP_TEST_KERNEL,
    DensityOperator,
    QuditLayout,
    haar_unitary,
    subset_transform,
)
from framefree.twirl import LuiState, g_twirl_apply, global_overlap_series
from framefree.verify import LUI_CHECK_ATOL, LUI_SPECTRUM_ATOL, trace_distance


def hamming(mask: int) -> int:
    """Number of selected sites in a bit-mask."""
    if mask < 0:
        raise ValueError("bit-masks are non-negative integers")
    return mask.bit_count()


def ptrace_matrix(mat: np.ndarray, local_dim: int, n_slots: int, keep: int) -> np.ndarray:
    """Partial trace of a raw square matrix, keeping the slots in `keep`.

    Kept slots stay in canonical order (lowest kept slot least significant).
    """
    if keep <= 0:
        raise ValueError("keep mask must select at least one slot")
    if keep >= (1 << n_slots):
        raise ValueError(f"keep mask {keep:#x} addresses slots beyond {n_slots}")
    if keep == (1 << n_slots) - 1:
        return np.asarray(mat, dtype=complex).copy()
    d = local_dim
    t = np.asarray(mat, dtype=complex).reshape((d,) * (2 * n_slots))
    # tensor axis j is slot n_slots-1-j for rows, and n_slots+j for columns
    row_ids = list(range(n_slots))
    col_ids = list(range(n_slots, 2 * n_slots))
    for slot in range(n_slots):
        if not (keep >> slot) & 1:
            axis = n_slots - 1 - slot
            col_ids[axis] = row_ids[axis]
    kept_desc = [s for s in range(n_slots - 1, -1, -1) if (keep >> s) & 1]
    out_ids = [row_ids[n_slots - 1 - s] for s in kept_desc]
    out_ids += [col_ids[n_slots - 1 - s] for s in kept_desc]
    reduced = np.einsum(t, row_ids + col_ids, out_ids)
    dk = d ** len(kept_desc)
    return reduced.reshape(dk, dk)


def partial_trace(rho: DensityOperator, keep: int) -> DensityOperator:
    """Reduce a density operator onto the slots selected by the `keep` mask."""
    lay = rho.layout
    mat = ptrace_matrix(rho.matrix, lay.local_dim, lay.n_slots, keep)
    out_layout = QuditLayout(hamming(keep), lay.local_dim, 1)
    return DensityOperator(out_layout, mat)


def dense_matrix(h) -> np.ndarray:
    """Dense matrix of a `HamiltonianSpec`."""
    return np.diag(h.z_diagonal().astype(complex)) if h.is_z_sum else h.matrix


def qfi_one_site_closed(tr_rho_sq: float, tr_zrz_rho: float, theta: float) -> float:
    """One-encoded-site closed form from the probe's purity terms.

    Exact when the probe factorizes between the encoded site and the rest.
    """
    t = tr_rho_sq - tr_zrz_rho
    c = math.cos(theta)
    s = math.sin(theta)
    return 4.0 * c * c * t / (2.0 - s * s * t)


def qfi_gui_ghz_closed(n: int, theta: float) -> float:
    """Globally twirled GHZ closed form: 4 n^2 cos^2(n t) / (1 + cos^2(n t))."""
    c = math.cos(n * theta) ** 2
    return 4.0 * n * n * c / (1.0 + c)


def cfi_grm(pair) -> float:
    """Information of the globally randomized computational-basis readout."""
    s, ds = global_overlap_series(pair)[:2]
    return cfi_grm_from_overlap(s, ds, pair.layout.n_sites, pair.layout.local_dim)


def cfi_gst_from_overlap(s, gap, ds, dds):
    """Information of the global swap test from s, its stable 1 - s, s' and
    s'', elementwise over arrays of angles; a scalar for scalar input."""
    return fisher_from_weight_classes(gst_families([s, ds, dds], gap))[()]


# -- the closed probes written out per probe, the oracle of the one
# class-factor description in `twirl`


@functools.cache
def _kernel_powers(n: int, kernel: tuple) -> tuple:
    """2K and its row sums for the flattened 2x2 `kernel`, the exponents
    p = n - w and q = w of the class weights, and the GHZ families' A_w and
    B_w, built once per (n, kernel), read-only."""
    k2 = 2.0 * np.reshape(kernel, (2, 2))
    q = np.arange(n + 1)
    p, row_sums = n - q, k2.sum(axis=1)
    b = k2[0, 1] ** p * k2[1, 1] ** q
    a = 0.5 * (row_sums[0] ** p * row_sums[1] ** q + k2[0, 0] ** p * k2[1, 0] ** q - b)
    for table in (k2, row_sums, p, q, a, b):
        table.flags.writeable = False
    return k2, row_sums, p, q, a, b


def closed_families(probe: str, n: int, theta, kernel=SWAP_TEST_KERNEL,
                    order: int = 2) -> np.ndarray:
    """Class sums den, num, sec by class weight, one branch per probe.
    Product probe: den_w = a^(n - w) b^w, a = 2 K00 sin^2 + 2 (K00 + K01) cos^2
    and b the same from row 1, num and sec by the product rule.  GHZ:
    den_w = A_w sin^2(n theta) + (A_w + B_w) cos^2(n theta), num_w = B_w s',
    sec_w = B_w s''."""
    t = np.asarray(theta, dtype=float)[..., None]
    t = np.where(np.abs(t) < np.sqrt(np.finfo(float).tiny), 0.0, t)
    k2, row_sums, p, q, a, b = _kernel_powers(
        n, tuple(np.asarray(kernel, dtype=float).ravel().tolist()))
    if probe == "ghz":
        nt = n * t
        den = a * np.sin(nt) ** 2 + (a + b) * np.cos(nt) ** 2
        if order == 0:
            return den[None]
        return np.stack([den, -n * np.sin(2.0 * nt) * b,
                         -2.0 * n * n * np.cos(2.0 * nt) * b])[:order + 1]
    sin2, cos2 = np.sin(t) ** 2, np.cos(t) ** 2
    a, b = (k2[i, 0] * sin2 + row_sums[i] * cos2 for i in (0, 1))
    if order == 0:
        return (a ** p * b ** q)[None]
    da, db = k2[:, 1]
    dx, ddx = -np.sin(2.0 * t), -2.0 * np.cos(2.0 * t)

    def term(k, j):
        return a ** np.maximum(p - k, 0) * b ** np.maximum(q - j, 0)

    first = da * p * term(1, 0) + db * q * term(0, 1)
    second = (da * da * p * (p - 1) * term(2, 0) + 2 * da * db * p * q * term(1, 1)
              + db * db * q * (q - 1) * term(0, 2))
    return np.stack([term(0, 0), dx * first, dx * dx * second + ddx * first])[:order + 1]


def closed_gap(probe: str, n: int, theta) -> np.ndarray:
    """1 - s of the full-swap overlap, one branch per probe: sin^2(n theta),
    or -expm1(n log1p(-sin^2 theta))."""
    t = np.asarray(theta, dtype=float)
    if probe == "ghz":
        return np.sin(n * t) ** 2
    with np.errstate(divide="ignore"):
        return -np.expm1(n * np.log1p(-np.sin(t) ** 2))


def scan_csv_text(strategies, table: np.ndarray) -> str:
    """A scan CSV written one value at a time: the header ``theta,<strategies>``
    and one row per grid point, each value formatted with ``.12g``."""
    text = "theta," + ",".join(strategies) + "\n"
    for row in table.tolist():
        text += ",".join(f"{v:.12g}" for v in row) + "\n"
    return text


# -- outcome models over all 2^N site masks, one row per angle of an array


def probs_dm(lui: LuiState) -> OutcomeDistribution:
    """Both-copy computational-basis readout after the local twirl, grouped
    by the mask of sites whose two copies coincide."""
    kernel = readout_kernel(DM, lui.layout.local_dim)
    return OutcomeDistribution(subset_transform(lui.coeffs, kernel))


def probs_gst(lui: LuiState) -> OutcomeDistribution:
    """Ancilla readout of the global swap test: p_+/- = (1 +/- <S>)/2, with
    <S> the full-mask overlap.  The full swap commutes with collective
    rotations, so the local twirl keeps <S>."""
    s = lui.coeffs[..., -1]
    return OutcomeDistribution(np.stack([(1 + s) / 2, (1 - s) / 2], axis=-1))


def probs_lst(lui: LuiState) -> OutcomeDistribution:
    """Per-site ancilla bitstring probabilities of the local swap test,
    grouped by the mask of antisymmetric sites."""
    return OutcomeDistribution(subset_transform(lui.coeffs, SWAP_TEST_KERNEL))


def probs_lbm(lui: LuiState) -> OutcomeDistribution:
    """Per-site Bell readout (qubits): patterns grouped by the mask of sites
    that landed in the singlet, triplet choices folded into the class."""
    kernel = readout_kernel(LBM, lui.layout.local_dim)
    return OutcomeDistribution(subset_transform(lui.coeffs, kernel))


def exact_rotation_distance(rho: DensityOperator, trials: int, rng: np.random.Generator,
                            identical_sites: bool = False) -> list:
    """Per-trial trace distances of the rotation oracle, each by the full
    eigensolve of `trace_distance`, drawing rotations as `rotation_distance`
    does."""
    lay = rho.layout
    out = []
    for _ in range(trials):
        if identical_sites:
            rotations = [haar_unitary(lay.local_dim, rng)] * lay.n_sites
        else:
            rotations = [haar_unitary(lay.local_dim, rng) for _ in range(lay.n_sites)]
        out.append(trace_distance(g_twirl_apply(rho, rotations), rho))
    return out


def exact_eigen_checks(mat: np.ndarray, lui) -> dict:
    """The eigenvalue checks of `lui_state_checks` on the full eigensolve of
    the dense matrix `mat` of `lui`."""
    eigvals = np.linalg.eigvalsh(mat)
    predicted = np.sort(np.repeat(*lui_spectrum(lui)))
    return {
        "positive": bool(eigvals[0] >= -LUI_CHECK_ATOL),
        "spectrum_consistent": bool(np.max(np.abs(eigvals - predicted)) <= LUI_SPECTRUM_ATOL),
    }
