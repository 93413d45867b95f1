"""Dense real and complex linear algebra over multi-qudit registers.

Index convention
----------------
A register of ``M`` qudit slots, each of local dimension ``d``, is flattened
so that slot 0 is the least significant digit: basis index
``x = sum_s digit_s * d**s``.  Two-copy layouts are copy-major: slots
``0..N-1`` hold copy A (site ``i`` at slot ``i``) and slots ``N..2N-1`` hold
copy B (site ``i`` at slot ``N+i``).

Subsets of sites or slots are passed as integer bit-masks, bit ``i`` set
meaning slot/site ``i`` is selected.

All values are immutable after construction and every operation is a pure
function; concurrent use only requires independently seeded generators.
"""

import functools
import os
from dataclasses import dataclass

import numpy as np

DEFAULT_DIM_CAP = 4096
DIM_CAP_ENV = "FF_DIM_CAP"

NORM_ATOL = 1e-12
HERMITIAN_ATOL = 1e-12
TRACE_ATOL = 1e-10
PSD_ATOL = 1e-10
UNITARY_ATOL = 1e-10


def dim_cap() -> int:
    """Dense-dimension cap; the FF_DIM_CAP env var overrides the default."""
    raw = os.environ.get(DIM_CAP_ENV)
    if raw is None:
        return DEFAULT_DIM_CAP
    cap = int(raw)
    if cap < 2:
        raise ValueError(f"{DIM_CAP_ENV} must be at least 2, got {cap}")
    return cap


@functools.cache
def popcounts(n_bits: int) -> np.ndarray:
    """Number of set bits of every mask below 2^n_bits, indexed by mask.
    Built once per n_bits and shared, so the table is read-only."""
    table = np.zeros(1, dtype=np.int64)
    for _ in range(n_bits):
        table = np.concatenate([table, table + 1])
    table.flags.writeable = False
    return table


WALSH_KERNEL = np.array([[1.0, 1.0], [1.0, -1.0]])
# class probabilities of the local swap test: p = W c / 2^N
SWAP_TEST_KERNEL = WALSH_KERNEL / 2.0


def subset_transform(values, kernel) -> np.ndarray:
    """Kronecker-kernel transform over bit-masks along the last axis:
    out[..., b] = sum_a prod_i kernel[b_i][a_i] * values[..., a].

    Yates' algorithm: one batched 2x2 product per bit, O(N 2^N) in all.
    """
    out = np.array(values, dtype=float)
    size = out.shape[-1] if out.ndim else 0
    if size == 0 or size & (size - 1):
        raise ValueError("length must be a power of two")
    k = np.asarray(kernel, dtype=float)
    h = 1
    while h < size:
        out = (k @ out.reshape(-1, 2, h)).reshape(out.shape)
        h *= 2
    return out


@dataclass(frozen=True)
class QuditLayout:
    """Register geometry: N sites of local dimension d, with k copies."""

    n_sites: int
    local_dim: int = 2
    copies: int = 1

    def __post_init__(self):
        if self.n_sites < 1:
            raise ValueError("n_sites must be positive")
        if self.local_dim < 2:
            raise ValueError("local_dim must be at least 2")
        if self.copies not in (1, 2):
            raise ValueError("copies must be 1 or 2")
        cap = dim_cap()
        if self.dim > cap:
            raise ValueError(
                f"dense dimension {self.local_dim}^{self.n_slots} = {self.dim} "
                f"exceeds the cap {cap} (override with {DIM_CAP_ENV})"
            )

    @property
    def n_slots(self) -> int:
        return self.n_sites * self.copies

    @property
    def dim(self) -> int:
        return self.local_dim ** self.n_slots

    @property
    def single_copy_dim(self) -> int:
        return self.local_dim ** self.n_sites

    def two_copy(self) -> "QuditLayout":
        return QuditLayout(self.n_sites, self.local_dim, 2)


def check_hermitian(mat: np.ndarray, atol: float) -> None:
    """Raise unless `mat` is Hermitian within atol * max(1, max|entry|); a NaN
    entry fails.  conj() of a real matrix is the matrix itself, not a copy."""
    herm_err = np.max(np.abs(mat - mat.conj().T))
    if not herm_err <= atol * max(1.0, np.max(np.abs(mat))):
        raise ValueError(f"matrix is not Hermitian (max deviation {herm_err})")


@functools.cache
def _orbit_plan(n: int, d: int) -> tuple:
    """Two-copy basis indices by orbit under the copy exchanges, read-only:
    entry k stacks the orbits whose copies differ on k sites as rows of 2^k,
    member j exchanged on the subset j of those sites."""
    p = d ** np.arange(2 * n)
    a, b = np.split(np.arange(d ** (2 * n))[:, None] // p % d, 2, axis=1)
    rep = np.flatnonzero((a <= b).all(axis=1))
    # exchanging site i moves an index by (b_i - a_i) (d^i - d^(n+i)) <= 0: sorted, nonzero first
    step = np.sort((b - a)[rep] * (p[:n] - p[n:]), axis=1)
    width = np.count_nonzero(step, axis=1)
    plan = []
    for k in range(n + 1):
        bits = np.arange(1 << k) >> np.arange(k)[:, None] & 1
        plan.append(rep[width == k, None] + step[width == k, :k] @ bits)
        plan[-1].flags.writeable = False
    return tuple(plan)


def orbit_blocks(mat: np.ndarray, n: int, d: int) -> tuple:
    """The orbit blocks of a two-copy matrix, stacked by size, and the Frobenius
    norm of the entries outside them, where every span of copy exchanges is 0."""
    rest, blocks = mat.copy(), []
    for members in _orbit_plan(n, d):
        rows, cols = members[:, :, None], members[:, None, :]
        blocks.append(rest[rows, cols])
        rest[rows, cols] = 0
    # from the off-block entries themselves: ||mat||^2 - sum ||block||^2 cancels
    return blocks, float(np.sqrt(np.vdot(rest, rest).real))


def _shifted_factor(mats: np.ndarray, shift: float) -> bool:
    """Whether every matrix of a stack, plus shift * I, has a Cholesky factor."""
    shifted = mats.copy()
    np.einsum("...ii->...i", shifted)[...] += shift
    try:
        np.linalg.cholesky(shifted)
    except np.linalg.LinAlgError:
        return False
    return True


@dataclass(eq=False)
class StateVector:
    """Pure state on the full register; unit norm enforced at construction."""

    layout: QuditLayout
    amplitudes: np.ndarray

    def __post_init__(self):
        amps = np.asarray(self.amplitudes, dtype=complex)
        if amps.shape != (self.layout.dim,):
            raise ValueError(
                f"amplitude vector has shape {amps.shape}, expected ({self.layout.dim},)"
            )
        norm = np.linalg.norm(amps)
        if not abs(norm - 1.0) <= NORM_ATOL:  # written so that NaN fails
            raise ValueError(f"state norm {norm} deviates from 1 beyond {NORM_ATOL}")
        self.amplitudes = amps

    def density(self) -> "DensityOperator":
        return DensityOperator(self.layout, np.outer(self.amplitudes, self.amplitudes.conj()))


@dataclass(eq=False)
class DensityOperator:
    """Dense Hermitian, unit-trace, positive-semidefinite operator.

    The input's dtype decides the arithmetic: ``matrix`` is float64 for real
    input, checked in real arithmetic, and complex128 otherwise."""

    layout: QuditLayout
    matrix: np.ndarray

    def __post_init__(self):
        mat = np.asarray(self.matrix)
        mat = mat.astype(float if np.isrealobj(mat) else complex, copy=False)
        dim = self.layout.dim
        if mat.shape != (dim, dim):
            raise ValueError(f"matrix has shape {mat.shape}, expected ({dim}, {dim})")
        # every test is written so that a NaN entry fails it.  A two-copy state
        # near its orbit blocks passes on them; others, and rejections, take the full tests
        herm_ok = psd_ok = False
        if self.layout.copies == 2:
            blocks, off = orbit_blocks(mat, self.layout.n_sites, self.layout.local_dim)
            tol = HERMITIAN_ATOL * max(1.0, max(np.max(np.abs(b)) for b in blocks))
            # off-block entries differ by at most 2 off from their mirrors.  Weyl: blocks
            # above -PSD_ATOL / 4 and off <= PSD_ATOL / 4 put lambda_min above -PSD_ATOL / 2
            herm_ok = 2 * off <= tol and all(
                np.max(np.abs(b - b.swapaxes(1, 2).conj())) <= tol for b in blocks)
            psd_ok = herm_ok and off <= PSD_ATOL / 4 and all(
                _shifted_factor(b, PSD_ATOL / 4) for b in blocks)
        if not herm_ok:
            check_hermitian(mat, HERMITIAN_ATOL)
        tr = mat.trace()
        if not abs(tr - 1.0) <= TRACE_ATOL:
            raise ValueError(f"trace {tr} deviates from 1 beyond {TRACE_ATOL}")
        # a Cholesky factor of mat + (PSD_ATOL / 2) I proves the smallest
        # eigenvalue above -PSD_ATOL; without one the spectrum decides
        if not (psd_ok or _shifted_factor(mat, PSD_ATOL / 2)):
            lo = float(np.linalg.eigvalsh(mat)[0])
            if not lo >= -PSD_ATOL:
                raise ValueError(f"matrix has negative eigenvalue {lo}")
        self.matrix = mat


def kron(*factors: np.ndarray) -> np.ndarray:
    """Kronecker product of one or more matrices, left factor most significant."""
    if not factors:
        raise ValueError("kron needs at least one factor")
    out = np.asarray(factors[0])
    for f in factors[1:]:
        out = np.kron(out, np.asarray(f))
        if max(out.shape) > dim_cap():
            raise ValueError(f"kron result dimension {max(out.shape)} exceeds cap {dim_cap()}")
    return out


def local_unitary(site_ops) -> np.ndarray:
    """Tensor product of per-site operators with site 0 least significant."""
    return kron(*reversed(list(site_ops)))


def swap_permutation(site_mask: int, layout: QuditLayout) -> np.ndarray:
    """Basis index that the copy exchange on the selected sites sends each
    two-copy basis index to; the permutation is an involution."""
    if layout.copies != 2:
        raise ValueError("the copy exchange requires a two-copy layout")
    n, d = layout.n_sites, layout.local_dim
    if site_mask < 0 or site_mask >= (1 << n):
        raise ValueError(f"site mask {site_mask:#x} out of range for {n} sites")
    idx = np.arange(layout.dim)
    perm = idx.copy()
    for i in range(n):
        if (site_mask >> i) & 1:
            dig_a = (idx // d**i) % d
            dig_b = (idx // d ** (n + i)) % d
            perm = perm + (dig_b - dig_a) * d**i + (dig_a - dig_b) * d ** (n + i)
    return perm


def swap_operator(site_mask: int, layout: QuditLayout) -> np.ndarray:
    """Real permutation matrix exchanging copy A and copy B on the selected
    sites.

    The result is an involution (S @ S = identity) and symmetric.
    """
    perm = swap_permutation(site_mask, layout)
    op = np.zeros((layout.dim, layout.dim))
    op[perm, np.arange(layout.dim)] = 1.0
    return op


def haar_unitary(d: int, rng: np.random.Generator, shape=()) -> np.ndarray:
    """Haar-distributed unitary: complex Ginibre, QR, then R-phase correction
    (Mezzadri, Notices AMS 54, 2007).  A `shape` draws a stack of that shape
    whose matrices equal those of as many single calls, in C order.

    Each column of Q is multiplied by conj(R_ii)/|R_ii|; without the phase
    fix the raw QR output is unitary but not Haar.
    """
    if d < 2:
        raise ValueError("dimension must be at least 2")
    # per matrix the real part's d x d normals, then the imaginary part's
    z = rng.standard_normal(tuple(shape) + (2, d, d))
    ginibre = (z[..., 0, :, :] + 1j * z[..., 1, :, :]) / np.sqrt(2.0)
    q, r = np.linalg.qr(ginibre)
    diag = np.diagonal(r, axis1=-2, axis2=-1)
    phases = np.conj(diag) / np.abs(diag)
    return q * phases[..., np.newaxis, :]


def is_unitary(u: np.ndarray, atol: float = UNITARY_ATOL) -> bool:
    u = np.asarray(u)
    if u.ndim != 2 or u.shape[0] != u.shape[1]:
        return False
    return bool(np.max(np.abs(u @ u.conj().T - np.eye(u.shape[0]))) <= atol)


def hermitian_eig(op, atol: float = 1e-10):
    """Ascending eigenvalues and eigenvector columns of a Hermitian matrix.

    `eigh` reads one triangle only, so the check guards against a matrix
    that is not Hermitian at all.  Its default atol is 1e-10, not the
    HERMITIAN_ATOL = 1e-12 that `DensityOperator` holds stored states to:
    inputs here may come straight out of arithmetic (products of unitaries
    and generators), whose asymmetry grows with the dimension, so it takes
    the slack of the other post-arithmetic checks (TRACE_ATOL, PSD_ATOL,
    UNITARY_ATOL)."""
    mat = op.matrix if isinstance(op, DensityOperator) else np.asarray(op, dtype=complex)
    check_hermitian(mat, atol)
    return np.linalg.eigh(mat)


def trace_product(a: np.ndarray, b: np.ndarray) -> complex:
    """Tr(a @ b) without forming the product."""
    return complex(np.einsum("ij,ji->", a, b))
