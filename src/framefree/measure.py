"""Measurement strategies, classical Fisher information, and estimation.

Outcome sets are grouped into classes of equal probability (a per-site
coincidence pattern for computational-basis readout, an antisymmetric-site
mask for swap tests and Bell readout); grouping preserves the information
because probabilities inside a class coincide.
"""

import math
from dataclasses import dataclass

import numpy as np

from .fisher import DEFAULT_STEP, f0
from .states import EncodedPair
from .tensor import WALSH_KERNEL, popcounts, subset_transform
from .twirl import LuiState, global_overlap, global_overlap_derivative

PROB_FLOOR = 1e-14
PROB_ATOL = -1e-12
CLASS_PROB_TOL = 1e-10
PROB_SUM_ATOL = 1e-9
OVERLAP_FLOOR = 1e-12

DM = "dm"
GRM = "grm"
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


def cfi(dist_fn, theta: float, step: float = DEFAULT_STEP) -> float:
    """Classical information sum (dp)^2/p from an outcome model; classes with
    probability under the floor are dropped."""
    if step <= 0.0:
        raise ValueError("step must be positive")
    p = dist_fn(theta).probs
    dp = (dist_fn(theta + step).probs - dist_fn(theta - step).probs) / (2.0 * step)
    live = p > PROB_FLOOR
    return float(np.sum(dp[live] ** 2 / p[live]))


# -- computational-basis readout (per-site coincidence classes)


def probs_dm(lui: LuiState) -> OutcomeDistribution:
    """Both-copy computational-basis readout after the local twirl, grouped
    by the mask of sites whose two copies coincide."""
    n, d = lui.n_sites, lui.layout.local_dim
    probs = subset_transform(lui.coeffs, [[d / (d + 1.0), -1.0 / (d + 1.0)],
                                          [1.0 / (d + 1.0), 1.0 / (d + 1.0)]])
    mult = d**n * (d - 1) ** (n - popcounts(n))
    labels = tuple(f"coincide:{m:0{n}b}" for m in range(1 << n))
    return OutcomeDistribution(labels, probs, lui.theta, DM, multiplicity=mult)


def cfi_dm_from_overlap(s, ds, n_sites: int, local_dim: int = 2):
    """Closed form driven by the full-state overlap, exact for GHZ probes.
    Elementwise over arrays of angles."""
    d = local_dim
    total = sum(
        math.comb(n_sites, k) * ds * ds / (d**k + (-1.0) ** k * s)
        for k in range(n_sites + 1)
    )
    return total / (d + 1.0) ** n_sites


def cfi_dm(pair: EncodedPair, step: float = DEFAULT_STEP) -> float:
    s, ds = _overlap_and_derivative(pair, step)
    return cfi_dm_from_overlap(s, ds, pair.layout.n_sites, pair.layout.local_dim)


# -- globally randomized computational-basis readout


def cfi_grm_from_overlap(s, ds, n_sites: int, local_dim: int = 2):
    dn = float(local_dim) ** n_sites
    return ds * ds / (dn + (dn - 1.0) * s - s * s)


def cfi_grm(pair: EncodedPair, step: float = DEFAULT_STEP) -> float:
    s, ds = _overlap_and_derivative(pair, step)
    return cfi_grm_from_overlap(s, ds, pair.layout.n_sites, pair.layout.local_dim)


# -- global swap test


def probs_gst(lui: LuiState) -> OutcomeDistribution:
    """Ancilla readout of the global swap test: p_+/- = (1 +/- <S>)/2, with
    <S> the full-mask overlap.  The full swap commutes with collective
    rotations, so the local twirl keeps <S>."""
    s = lui.coeffs[-1]
    return OutcomeDistribution(("+", "-"), np.array([(1 + s) / 2, (1 - s) / 2]),
                               lui.theta, GST)


def cfi_gst_from_overlap(s, ds, limit: float | None = None):
    """(ds)^2 / (1 - s^2), or `limit` (the information at the stationary
    point) where 1 - s^2 falls under the floor.  There (ds)^2 is at most about
    limit * (1 - s^2); a derivative beyond twice that scale is inconsistent.
    Elementwise over arrays of angles; a scalar for scalar input."""
    s, ds = np.asarray(s, dtype=float), np.asarray(ds, dtype=float)
    denom = 1.0 - s * s
    stationary = denom < OVERLAP_FLOOR
    if not stationary.any():
        return (ds * ds / denom)[()]
    if limit is None:
        raise RuntimeError("stationary overlap: supply the small-angle limit")
    if np.any(ds[stationary] ** 2 > 2.0 * limit * OVERLAP_FLOOR):
        raise RuntimeError("overlap pinned at 1 with non-vanishing derivative")
    return np.where(stationary, limit, ds * ds / np.where(stationary, 1.0, denom))[()]


def cfi_gst(pair: EncodedPair, step: float = DEFAULT_STEP) -> float:
    s, ds = _overlap_and_derivative(pair, step)
    return cfi_gst_from_overlap(s, ds, limit=f0(pair.initial, pair.hamiltonian))


def _overlap_and_derivative(pair: EncodedPair, step: float):
    s = global_overlap(pair)
    if step == 0.0:
        return s, global_overlap_derivative(pair)
    if step < 0.0:
        raise ValueError("step must be positive, or 0 for the exact derivative")
    ds = (global_overlap(pair.at(pair.theta + step))
          - global_overlap(pair.at(pair.theta - step))) / (2.0 * step)
    return s, ds


# -- local swap test and local Bell readout


def _class_probs(lui: LuiState) -> np.ndarray:
    """Probabilities of the antisymmetric-site-mask classes: the signed
    coefficient sums over 2^N."""
    p = subset_transform(lui.coeffs, WALSH_KERNEL) / (1 << lui.n_sites)
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


def estimation_experiment(model, true_theta: float, shots: int, repetitions: int,
                          seed: int, window: tuple | None = None,
                          step: float = DEFAULT_STEP) -> EstimationRun:
    """Repeated sample-and-estimate runs against the Cramer-Rao bound.

    Repetitions use independently derived streams; the empirical variance of
    the estimates is compared to 1/(shots * F) at the true angle.
    """
    if repetitions < 2:
        raise ValueError("need at least two repetitions to estimate a variance")
    if window is None:
        window = default_window(true_theta)
    information = cfi(model, true_theta, step)
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
