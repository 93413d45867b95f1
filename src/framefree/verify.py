"""Independent verification oracles.

Nothing here reuses the analytic twirl formulas it checks: the commutant
dimension comes from a nullspace computation over random group elements,
and the invariance and convergence suites compare dense matrices by trace
distance; the invariance oracles eigensolve the blocks of `tensor.orbit_blocks`,
off which an invariant state and its rotated copies are zero up to rounding.
"""

from dataclasses import dataclass

import numpy as np

from .tensor import DensityOperator, haar_unitary, hermitian_eig, local_unitary, orbit_blocks
from .twirl import (
    LuiState,
    _lui_matrix,
    g_twirl_apply,
    lui_coefficients,
    lui_density,
    mc_local_twirl,
    pair_product_density,
)
from .fisher import lui_spectrum

PER_SITE = "one_local_per_site_collective"
GLOBAL = "unrestricted_symmetric"

# tolerances: relative rank cut of the nullspace SVD; eigenvalue gap that
# separates clusters of W + W^dag; norm of the commutant basis's traces below
# which no basis element carries a trace
NULLSPACE_RTOL = 1e-9
CLUSTER_TOL = 1e-7
COMMUTANT_TRACE_TOL = 1e-8
# validity of an invariant state: absolute slack on c_0 = 1, the [0, 1]
# coefficient range, unit trace and the lowest eigenvalue; and on each
# eigenvalue against the spectrum predicted from the coefficients
LUI_CHECK_ATOL = 1e-10
LUI_SPECTRUM_ATOL = 1e-9
# widest orbit-block bracket on a trace distance that is reported by its upper
# end.  An invariant state's is about 1e-16 at dimension 729; the slack is 1% of
# the 1e-10 bounds decided on (LUI_CHECK_ATOL, invariance), so none turns on it
BLOCK_SLACK = 1e-12
COMMUTANT_DIM_LIMIT = 256


@dataclass(frozen=True)
class CommutantQuery:
    """Which symmetry group to probe and with how many random elements."""

    n_sites: int
    local_dim: int = 2
    copies: int = 2
    locality: str = PER_SITE
    probe_count: int = 8

    def __post_init__(self):
        if self.locality not in (PER_SITE, GLOBAL):
            raise ValueError(f"locality must be {PER_SITE!r} or {GLOBAL!r}")
        if self.copies not in (1, 2):
            raise ValueError("copies must be 1 or 2")
        if self.local_dim ** (self.copies * self.n_sites) > COMMUTANT_DIM_LIMIT:
            raise ValueError(f"dense dimension exceeds {COMMUTANT_DIM_LIMIT}")


@dataclass(frozen=True)
class CommutantResult:
    dimension: int
    traceless_dimension: int
    stable: bool


@dataclass(frozen=True)
class DistanceReport:
    trace_distance: float
    samples: int
    seed: int


def _group_element(query: CommutantQuery, rng: np.random.Generator) -> np.ndarray:
    if query.locality == PER_SITE:
        single = local_unitary([haar_unitary(query.local_dim, rng)
                                for _ in range(query.n_sites)])
    else:
        single = haar_unitary(query.local_dim ** query.n_sites, rng)
    return np.kron(single, single) if query.copies == 2 else single


def _restrict(basis: np.ndarray, w: np.ndarray) -> np.ndarray:
    """Cut a matrix-space basis, stacked along axis 0, down to the kernel of
    X -> W X W^dag - X."""
    r = len(basis)
    if not r:
        return basis
    cols = (w @ basis @ w.conj().T - basis).reshape(r, -1).T
    # cols = QR, Q orthonormal: R has the singular values and vh of cols
    _, svals, vh = np.linalg.svd(np.linalg.qr(cols, mode="r"))
    # columns of unit-norm operators under unitary conjugation have scale <= 2,
    # so anchor the rank cutoff at 1 to survive the all-commuting case
    cutoff = NULLSPACE_RTOL * max(svals[0], 1.0)
    rank = int(np.sum(svals > cutoff))
    # rows of vh[rank:].conj() span the kernel, orthonormal
    return np.tensordot(vh[rank:].conj(), basis, axes=1)


def _initial_basis(w: np.ndarray) -> np.ndarray:
    """Basis of all operators block-diagonal in the eigenspaces of W + W^dag.

    Anything commuting with the group commutes with every element W of its
    algebra and with W^dag, so with their Hermitian sum: this is a superset
    of the target space; later probes cut it down.
    """
    vals, vecs = hermitian_eig(w + w.conj().T)
    clusters = []
    start = 0
    for i in range(1, vals.size + 1):
        if i == vals.size or vals[i] - vals[i - 1] > CLUSTER_TOL:
            clusters.append(range(start, i))
            start = i
    basis = []
    for cluster in clusters:
        for i in cluster:
            for j in cluster:
                basis.append(np.outer(vecs[:, i], vecs[:, j].conj()))
    return np.stack(basis)


def commutant_dimension(query: CommutantQuery, rng: np.random.Generator) -> CommutantResult:
    """Dimension of the commutant of the sampled symmetry group.

    The complex dimension of the commutant equals the real dimension of its
    Hermitian part (the space is closed under the adjoint).  The start is
    block-diagonal for the sum of the first two elements: one element's
    eigenspaces merge irreps that share a weight, a generic sum's do not.
    The result is flagged unstable if four additional probes still shrink it.
    """
    elements = [_group_element(query, rng) for _ in range(max(query.probe_count, 1))]
    basis = _initial_basis(sum(elements[:2]))
    for w in elements:
        basis = _restrict(basis, w)
    dim = len(basis)
    for _ in range(4):
        basis = _restrict(basis, _group_element(query, rng))
    stable = len(basis) == dim
    dim = len(basis)
    traces = np.trace(basis, axis1=1, axis2=2)
    has_trace = bool(np.linalg.norm(traces) > COMMUTANT_TRACE_TOL)
    return CommutantResult(dim, dim - int(has_trace), stable)


def trace_distance(rho: DensityOperator, sigma: DensityOperator) -> float:
    """Half the trace norm of the difference."""
    if rho.layout != sigma.layout:
        raise ValueError("operators live on different layouts")
    vals = np.linalg.eigvalsh(rho.matrix - sigma.matrix)
    return float(0.5 * np.sum(np.abs(vals)))


def rotation_distance(rho: DensityOperator, trials: int, rng: np.random.Generator,
                      identical_sites: bool = False) -> float:
    """Max trace distance moved by random collective per-site rotations.

    For a state without off-block weight, such as an invariant one, each trial
    is bracketed: below by half the blocks' trace norms (pinching cannot raise
    the trace norm), above by that plus sqrt(dim)/2 times the off-block
    Frobenius norm.  The upper end, within BLOCK_SLACK of the exact value, is
    reported; a wider bracket, and any other state, takes `trace_distance`."""
    lay = rho.layout
    n, d, root_dim = lay.n_sites, lay.local_dim, np.sqrt(lay.dim)
    # a state with off-block weight is no span of copy exchanges, so not invariant
    blockwise = lay.copies == 2 and root_dim * orbit_blocks(rho.matrix, n, d)[1] <= BLOCK_SLACK
    worst = 0.0
    for _ in range(trials):
        drawn = haar_unitary(d, rng, (1 if identical_sites else n,))
        moved = g_twirl_apply(rho, np.broadcast_to(drawn, (n, d, d)))
        if blockwise:
            # U (x) U does not keep the orbits: each difference's own off-block norm decides
            blocks, off = orbit_blocks(moved.matrix - rho.matrix, n, d)
            if 0.5 * root_dim * off <= BLOCK_SLACK:
                norm = sum(np.sum(np.abs(np.linalg.eigvalsh(b))) for b in blocks)
                worst = max(worst, float(0.5 * (norm + root_dim * off)))
                continue
        worst = max(worst, trace_distance(moved, rho))
    return worst


def invariance_suite(lui: LuiState, trials: int, seed: int) -> DistanceReport:
    """Max trace distance of the dense invariant state under random
    collective rotations; passes when it stays at numerical zero.  The distance
    is never below the exact value and within BLOCK_SLACK of it."""
    rng = np.random.default_rng(seed)
    dense = lui_density(lui)
    return DistanceReport(rotation_distance(dense, trials, rng), trials, seed)


def lui_state_checks(lui: LuiState) -> dict:
    """Validity report for a coefficient vector: named check -> pass/fail."""
    coeffs = lui.coeffs
    mat = _lui_matrix(lui)
    predicted = np.sort(np.repeat(*lui_spectrum(lui)))
    tol = LUI_CHECK_ATOL

    def eigen_checks(eigvals, slack):
        deviation = np.max(np.abs(eigvals - predicted))
        return {(bool(eigvals[0] + s >= -tol), bool(deviation - s <= LUI_SPECTRUM_ATOL))
                for s in (-slack, slack)}

    # Weyl: each sorted eigenvalue lies within the off-block norm of the blocks'
    # sorted ones; where the checks at the two ends disagree, solve in full
    blocks, off = orbit_blocks(mat, lui.n_sites, lui.layout.local_dim)
    eigvals = np.concatenate([np.linalg.eigvalsh(b).ravel() for b in blocks])
    outcomes = eigen_checks(np.sort(eigvals), off)
    if len(outcomes) > 1:
        outcomes = eigen_checks(np.linalg.eigvalsh(mat), 0.0)
    (positive, consistent), = outcomes
    return {
        "c0_is_one": bool(abs(coeffs[0] - 1.0) <= tol),
        "coeffs_in_range": bool(coeffs.min() >= -tol and coeffs.max() <= 1.0 + tol),
        "unit_trace": bool(abs(mat.trace().real - 1.0) <= tol),
        "positive": positive,
        "spectrum_consistent": consistent,
    }


def mc_convergence(pair, sample_schedule, seed: int) -> list:
    """Trace distance between the sampled twirl and the analytic invariant
    state at each sample count; entries use independently derived streams."""
    target = lui_density(lui_coefficients(pair))
    reports = []
    for i, samples in enumerate(sample_schedule):
        rng = np.random.default_rng([seed, i])
        approx = mc_local_twirl(pair, int(samples), rng)
        reports.append(DistanceReport(trace_distance(approx, target), int(samples), seed))
    return reports


def untwirled_moves(pair, trials: int, seed: int) -> float:
    """Negative control: generic rotations displace the raw two-copy product."""
    rng = np.random.default_rng(seed)
    return rotation_distance(pair_product_density(pair), trials, rng)
