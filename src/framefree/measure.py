"""Measurement strategies, classical Fisher information, and estimation.

Outcome sets are grouped into classes of equal probability (a per-site
coincidence pattern for computational-basis readout, an antisymmetric-site
mask or its weight for swap tests and Bell readout); grouping preserves the
information because probabilities inside a class coincide.
"""

import math
from dataclasses import dataclass

import numpy as np

from .fisher import fisher_from_coefficients, weight_multiplicities
from .tensor import SWAP_TEST_KERNEL

PROB_ATOL = -1e-12
PROB_SUM_ATOL = 1e-9

DM = "dm"
LST = "lst"
LBM = "lbm"


@dataclass(eq=False)
class OutcomeDistribution:
    """Probabilities over outcome classes on the last axis; each row (one
    per encoding angle of an array) is checked on its own."""

    probs: np.ndarray

    def __post_init__(self):
        p = np.asarray(self.probs, dtype=float)
        if not p.min() >= PROB_ATOL:  # also turns away NaN
            raise ValueError(f"negative or undefined probability {p.min()}")
        worst = np.abs(p.sum(axis=-1) - 1.0).max()
        if not worst <= PROB_SUM_ATOL:
            raise ValueError(f"probabilities sum to 1 +/- {worst}")
        p = np.clip(p, 0.0, None)
        self.probs = p / p.sum(axis=-1, keepdims=True)


@dataclass(eq=False)
class EstimationRun:
    estimate: float
    variance: float
    mse: float
    crb: float
    boundary_hits: int


def readout_kernel(readout: str, local_dim: int) -> np.ndarray:
    """Kronecker kernel K of the dm, lst or lbm readout: class probabilities K c."""
    if readout == DM:
        return np.array([[local_dim, -1.0], [1.0, 1.0]]) / (local_dim + 1.0)
    if readout == LBM and local_dim != 2:
        raise ValueError("Bell readout is defined for qubits")
    # the Bell readout splits each swap-test class into equal-probability patterns
    if readout in (LST, LBM):
        return SWAP_TEST_KERNEL
    raise ValueError(f"unknown readout {readout!r}")


def cfi(readout: str, series, local_dim: int) -> float:
    """Classical information of the dm, lst or lbm readout of the locally
    twirled state from its overlap rows c, c', c'' (shape (3, 2^N), exact
    derivatives) on sites of dimension `local_dim`: the readout's kernel on
    each row, through the one information sum.  The global swap test reads
    the full-mask overlap alone: `gst_families`."""
    return fisher_from_coefficients(*np.asarray(series, dtype=float),
                                    kernel=readout_kernel(readout, local_dim))


def weight_class_distribution(den) -> OutcomeDistribution:
    """The K weight classes on the last axis from their den (order 0 of
    `twirl.closed_families` or `gst_families`): class w holds C(K - 1, w)
    equally likely outcomes, den_w / 2^(K - 1) each."""
    k = np.shape(den)[-1] - 1
    return OutcomeDistribution(weight_multiplicities(k) * den / 2.0 ** k)


# -- globally randomized computational-basis readout


def cfi_grm_from_overlap(s, ds, n_sites: int, local_dim: int = 2):
    dn = float(local_dim) ** n_sites
    return ds * ds / (dn + (dn - 1.0) * s - s * s)


# -- global swap test


def gst_families(series, gap) -> np.ndarray:
    """Rows den, num, sec (as many as `series` holds of s, s', s'') of the
    global swap test's classes 1 + s and 1 - s on the last axis, the weight
    classes of one site; gap = 1 - s as `twirl.closed_swap` and
    `twirl.global_overlap_series` form it, so no den cancels."""
    plus = np.array(series, dtype=float)
    minus = -plus
    plus[0] += 1.0
    minus[0] = gap
    return np.stack([plus, minus], axis=-1)


# -- sampling and estimation


def sample_outcomes(dist: OutcomeDistribution, shots: int, rng: np.random.Generator) -> np.ndarray:
    """Multinomial sample of outcome-class counts."""
    if shots < 1:
        raise ValueError("shots must be at least 1")
    return rng.multinomial(shots, dist.probs)


def _log_likelihood(counts: np.ndarray, probs: np.ndarray) -> np.ndarray:
    # stacked 1 x K by K x 1 products round each row as its dot product does
    logp = np.log(np.clip(probs, 1e-300, None))
    return (counts[..., None, :] @ logp[..., :, None])[..., 0, 0]


def _golden_max(f, lo, hi, tol: float = 1e-7) -> np.ndarray:
    """Golden-section maxima of f, which maps an array of angles to values,
    on every interval [lo, hi] of the broadcast arrays in lockstep: one call
    of f per step, each element taking the branches and float operations of
    the scalar search and stopping on its own once below tol."""
    invphi = (math.sqrt(5.0) - 1.0) / 2.0
    a, b = np.broadcast_arrays(np.asarray(lo, dtype=float), np.asarray(hi, dtype=float))
    c = b - invphi * (b - a)
    d = a + invphi * (b - a)
    fc, fd = f(c), f(d)
    while (live := b - a > tol).any():
        left = fc > fd  # the maximum lies in [a, d]
        a, b = np.where(live & ~left, c, a), np.where(live & left, d, b)
        x = np.where(left, b - invphi * (b - a), a + invphi * (b - a))
        fx = f(x)
        c, d, fc, fd = (np.where(live, np.where(left, new_l, new_r), old) for new_l, new_r, old in
                        ((x, d, c), (c, x, d), (fx, fd, fc), (fc, fx, fd)))
    return 0.5 * (a + b)


def mle_estimate(counts: np.ndarray, model, window: tuple, tol: float = 1e-7):
    """Golden-section maximum-likelihood estimates over the window for the
    counts vectors on the last axis, searched in lockstep; `model` maps an
    array of angles to their stacked OutcomeDistribution.

    Returns (estimates, at_boundary) of shape counts.shape[:-1]; a maximizer
    pinned to either edge is flagged rather than silently returned.
    """
    lo, hi = window
    if not lo < hi:
        raise ValueError("empty search window")
    counts = np.asarray(counts)
    lo_all = np.full(counts.shape[:-1], lo, dtype=float)
    est = _golden_max(lambda t: _log_likelihood(counts, model(t).probs), lo_all, hi, tol)
    at_boundary = (est - lo < 10 * tol) | (hi - est < 10 * tol)
    return est[()], at_boundary[()]


def default_window(true_theta: float, cells: int = 1) -> tuple:
    """Local search window around the working point, inside the one of
    `cells` equal cells of (0, pi/2) that holds it (the nearest for an angle
    outside), inset from the cell's edges to dodge the likelihood's mirror
    symmetry there, +/-theta at the origin."""
    width = math.pi / (2 * cells)
    k = min(max(math.floor(true_theta / width), 0), cells - 1)
    return max(true_theta - 0.5, k * width + 1e-6), min(true_theta + 0.5, (k + 1) * width - 1e-6)


def estimation_experiment(model, true_theta: float, information: float, shots: int,
                          repetitions: int, seed: int,
                          window: tuple | None = None) -> EstimationRun:
    """Repeated sample-and-estimate runs against the Cramer-Rao bound.

    `model` is elementwise over an array of angles.  Repetitions use
    independently derived streams and are estimated together, in blocks of
    at most 2^20 counts; the empirical variance and mean squared error of
    the estimates are compared to 1/(shots * F), with F = `information` the
    model's information at the true angle (from the same class sums).
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
    counts = np.stack([sample_outcomes(dist, shots, np.random.default_rng([seed, rep]))
                       for rep in range(repetitions)])
    estimates, flagged = np.empty(repetitions), np.empty(repetitions, dtype=bool)
    block = max(1, (1 << 20) // dist.probs.size)
    for start in range(0, repetitions, block):
        part = slice(start, start + block)
        estimates[part], flagged[part] = mle_estimate(counts[part], model, window)
    return EstimationRun(
        estimate=float(estimates.mean()),
        variance=float(estimates.var(ddof=1)),
        mse=float(np.mean((estimates - true_theta) ** 2)),
        crb=crb,
        boundary_hits=int(flagged.sum()),
    )
