"""Measurement strategies, classical Fisher information, and estimation.

Outcome sets are grouped into classes of equal probability (a per-site
coincidence pattern for computational-basis readout, an antisymmetric-site
mask for swap tests and Bell readout); grouping preserves the information
because probabilities inside a class coincide.
"""

import math
from dataclasses import dataclass

import numpy as np

from .fisher import SUM_ROUNDING, SWAP_TEST_KERNEL, fisher_from_coefficients, information_sum
from .states import EncodedPair
from .tensor import popcounts, subset_transform
from .twirl import LuiState, global_overlap_series

PROB_ATOL = -1e-12
CLASS_PROB_TOL = 1e-10
PROB_SUM_ATOL = 1e-9

DM = "dm"
GST = "gst"
LST = "lst"
LBM = "lbm"


@dataclass(eq=False)
class OutcomeDistribution:
    """Probabilities over outcome classes at a fixed encoding angle."""

    labels: tuple
    probs: np.ndarray
    theta: float
    strategy: str
    multiplicity: np.ndarray | None = None

    def __post_init__(self):
        p = np.asarray(self.probs, dtype=float)
        if len(self.labels) != p.size:
            raise ValueError("one label per probability expected")
        if p.min() < PROB_ATOL:
            raise ValueError(f"negative probability {p.min()}")
        total = p.sum()
        if abs(total - 1.0) > PROB_SUM_ATOL:
            raise ValueError(f"probabilities sum to {total}")
        self.probs = np.clip(p, 0.0, None) / np.clip(p, 0.0, None).sum()


@dataclass(eq=False)
class EstimationRun:
    true_theta: float
    shots: int
    outcomes: np.ndarray
    estimate: float
    variance: float
    crb: float
    boundary_hits: int = 0
    repetitions: int = 1


def cfi(readout: str, series, local_dim: int) -> float:
    """Classical information of the dm, lst or lbm readout of the locally
    twirled state from its overlap rows c, c', c'' (shape (3, 2^N), exact
    derivatives) on sites of dimension `local_dim`: the readout's kernel on
    each row, through the one information sum.  The global swap test reads
    the full-mask overlap alone: `cfi_gst_from_overlap`."""
    if readout not in (DM, LST, LBM):
        raise ValueError(f"unknown readout {readout!r}")
    kernel = _dm_kernel(local_dim) if readout == DM else SWAP_TEST_KERNEL
    return fisher_from_coefficients(*np.asarray(series, dtype=float), kernel=kernel)


# -- computational-basis readout (per-site coincidence classes)


def _dm_kernel(d: int) -> np.ndarray:
    return np.array([[d / (d + 1.0), -1.0 / (d + 1.0)], [1.0 / (d + 1.0), 1.0 / (d + 1.0)]])


def probs_dm(lui: LuiState) -> OutcomeDistribution:
    """Both-copy computational-basis readout after the local twirl, grouped
    by the mask of sites whose two copies coincide."""
    n, d = lui.n_sites, lui.layout.local_dim
    probs = subset_transform(lui.coeffs, _dm_kernel(d))
    mult = d**n * (d - 1) ** (n - popcounts(n))
    labels = tuple(f"coincide:{m:0{n}b}" for m in range(1 << n))
    return OutcomeDistribution(labels, probs, lui.theta, DM, multiplicity=mult)


def cfi_dm_from_overlap(s, ds, n_sites: int, local_dim: int = 2):
    """Closed form driven by the full-state overlap s and its derivative:
    the information of `probs_dm` with every intermediate overlap c_a
    (0 < |a| < N) set to 0.  That is the direct readout of neither the GHZ
    nor the product probe's twirled state, whose intermediate overlaps are
    1/2 and cos^(2|a|) theta (fault 1, ROADMAP item 1).  It stays until the
    targets that rest on it (test_c06, TestDmReadout and the 0.990 peak in
    test_cli) are re-targeted.  Elementwise over arrays of angles."""
    d = local_dim
    total = sum(
        math.comb(n_sites, k) * ds * ds / (d**k + (-1.0) ** k * s)
        for k in range(n_sites + 1)
    )
    return total / (d + 1.0) ** n_sites


def cfi_dm(pair: EncodedPair) -> float:
    s, ds = global_overlap_series(pair)[:2]
    return cfi_dm_from_overlap(s, ds, pair.layout.n_sites, pair.layout.local_dim)


# -- globally randomized computational-basis readout


def cfi_grm_from_overlap(s, ds, n_sites: int, local_dim: int = 2):
    dn = float(local_dim) ** n_sites
    return ds * ds / (dn + (dn - 1.0) * s - s * s)


def cfi_grm(pair: EncodedPair) -> float:
    s, ds = global_overlap_series(pair)[:2]
    return cfi_grm_from_overlap(s, ds, pair.layout.n_sites, pair.layout.local_dim)


# -- global swap test


def probs_gst(lui: LuiState) -> OutcomeDistribution:
    """Ancilla readout of the global swap test: p_+/- = (1 +/- <S>)/2, with
    <S> the full-mask overlap.  The full swap commutes with collective
    rotations, so the local twirl keeps <S>."""
    s = lui.coeffs[-1]
    return OutcomeDistribution(("+", "-"), np.array([(1 + s) / 2, (1 - s) / 2]),
                               lui.theta, GST)


def cfi_gst_from_overlap(s, gap, ds, dds):
    """(ds)^2 / (1 - s^2) as the information sum of the two ancilla classes
    (1 +/- s)/2, with gap = 1 - s formed without cancellation, as
    `twirl.closed_gap` and `twirl.global_overlap_series` give it, so both
    class sums carry only relative rounding: r = SUM_ROUNDING * eps * den.
    At a stationary point the class 1 - s takes its limit from dds.
    Elementwise over arrays of angles; a scalar for scalar input."""
    s, gap, ds, dds = (np.asarray(x, dtype=float) for x in (s, gap, ds, dds))
    den = np.stack([1.0 + s, gap], axis=-1)
    num = np.stack([ds, -ds], axis=-1)
    sec = np.stack([dds, -dds], axis=-1)
    return information_sum(den, num, sec, np.ones(2), SUM_ROUNDING * np.finfo(float).eps * den)[()]


def cfi_gst(pair: EncodedPair) -> float:
    s, ds, dds, gap = global_overlap_series(pair)
    return float(cfi_gst_from_overlap(s, gap, ds, dds))


# -- local swap test and local Bell readout


def _class_probs(lui: LuiState) -> np.ndarray:
    """Probabilities of the antisymmetric-site-mask classes: the signed
    coefficient sums over 2^N."""
    p = subset_transform(lui.coeffs, SWAP_TEST_KERNEL)
    if p.min() < -CLASS_PROB_TOL:
        raise RuntimeError(f"inconsistent coefficients: probability {p.min()}")
    return p


def probs_lst(lui: LuiState) -> OutcomeDistribution:
    """Per-site ancilla bitstring probabilities of the local swap test."""
    n = lui.n_sites
    labels = tuple(f"ancilla:{b:0{n}b}" for b in range(1 << n))
    return OutcomeDistribution(labels, _class_probs(lui), lui.theta, LST)


def probs_lbm(lui: LuiState) -> OutcomeDistribution:
    """Per-site Bell readout (qubits): patterns grouped by the mask of sites
    that landed in the singlet, triplet choices folded into the class."""
    if lui.layout.local_dim != 2:
        raise ValueError("Bell readout is defined for qubits")
    n = lui.n_sites
    mult = 3 ** (n - popcounts(n))
    labels = tuple(f"singlet:{b:0{n}b}" for b in range(1 << n))
    return OutcomeDistribution(labels, _class_probs(lui), lui.theta, LBM, multiplicity=mult)


# -- sampling and estimation


def sample_outcomes(dist: OutcomeDistribution, shots: int, rng: np.random.Generator) -> np.ndarray:
    """Multinomial sample of outcome-class counts."""
    if shots < 1:
        raise ValueError("shots must be at least 1")
    return rng.multinomial(shots, dist.probs)


def _log_likelihood(counts: np.ndarray, probs: np.ndarray) -> float:
    return float(counts @ np.log(np.clip(probs, 1e-300, None)))


def _golden_max(f, lo: float, hi: float, tol: float = 1e-7) -> float:
    invphi = (math.sqrt(5.0) - 1.0) / 2.0
    a, b = lo, hi
    c = b - invphi * (b - a)
    d = a + invphi * (b - a)
    fc, fd = f(c), f(d)
    while b - a > tol:
        if fc > fd:
            b, d, fd = d, c, fc
            c = b - invphi * (b - a)
            fc = f(c)
        else:
            a, c, fc = c, d, fd
            d = a + invphi * (b - a)
            fd = f(d)
    return 0.5 * (a + b)


def mle_estimate(counts: np.ndarray, model, window: tuple, tol: float = 1e-7):
    """Golden-section maximum-likelihood estimate over the window.

    Returns (estimate, at_boundary); a maximizer pinned to either edge is
    flagged rather than silently returned.
    """
    lo, hi = window
    if not lo < hi:
        raise ValueError("empty search window")
    counts = np.asarray(counts)
    est = _golden_max(lambda t: _log_likelihood(counts, model(t).probs), lo, hi, tol)
    at_boundary = est - lo < 10 * tol or hi - est < 10 * tol
    return est, at_boundary


def default_window(true_theta: float) -> tuple:
    """Local search window around the working point, clamped inside (0, pi/2)
    to dodge the +/-theta likelihood symmetry at the origin."""
    lo = max(true_theta - 0.5, 1e-6)
    hi = min(true_theta + 0.5, math.pi / 2 - 1e-6)
    return lo, hi


def estimation_experiment(model, true_theta: float, information: float, shots: int,
                          repetitions: int, seed: int,
                          window: tuple | None = None) -> EstimationRun:
    """Repeated sample-and-estimate runs against the Cramer-Rao bound.

    Repetitions use independently derived streams; the empirical variance of
    the estimates is compared to 1/(shots * F), with F = `information` the
    model's information at the true angle (`cfi` on the same overlaps).
    """
    if repetitions < 2:
        raise ValueError("need at least two repetitions to estimate a variance")
    if not 0.0 < information < np.inf:
        raise ValueError(f"information {information} at the true angle is not finite and "
                         "positive, so there is no Cramer-Rao bound to compare with")
    if window is None:
        window = default_window(true_theta)
    crb = 1.0 / (shots * information)
    dist = model(true_theta)
    estimates = np.empty(repetitions)
    boundary_hits = 0
    pooled = np.zeros(dist.probs.size, dtype=np.int64)
    for rep in range(repetitions):
        rng = np.random.default_rng([seed, rep])
        counts = sample_outcomes(dist, shots, rng)
        pooled += counts
        est, flagged = mle_estimate(counts, model, window)
        estimates[rep] = est
        boundary_hits += int(flagged)
    return EstimationRun(
        true_theta=true_theta,
        shots=shots,
        outcomes=pooled,
        estimate=float(estimates.mean()),
        variance=float(estimates.var(ddof=1)),
        crb=crb,
        boundary_hits=boundary_hits,
        repetitions=repetitions,
    )
