"""Dense complex linear algebra over multi-qudit registers.

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


def hamming(mask: int) -> int:
    """Number of selected sites in a bit-mask."""
    if mask < 0:
        raise ValueError("bit-masks are non-negative integers")
    return mask.bit_count()


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
        if abs(norm - 1.0) > NORM_ATOL:
            raise ValueError(f"state norm {norm} deviates from 1 beyond {NORM_ATOL}")
        self.amplitudes = amps

    def density(self) -> "DensityOperator":
        return DensityOperator(self.layout, np.outer(self.amplitudes, self.amplitudes.conj()))


@dataclass(eq=False)
class DensityOperator:
    """Dense Hermitian, unit-trace, positive-semidefinite operator."""

    layout: QuditLayout
    matrix: np.ndarray

    def __post_init__(self):
        mat = np.asarray(self.matrix, dtype=complex)
        dim = self.layout.dim
        if mat.shape != (dim, dim):
            raise ValueError(f"matrix has shape {mat.shape}, expected ({dim}, {dim})")
        herm_err = np.max(np.abs(mat - mat.conj().T))
        if herm_err > HERMITIAN_ATOL * max(1.0, np.max(np.abs(mat))):
            raise ValueError(f"matrix is not Hermitian (max deviation {herm_err})")
        tr = mat.trace()
        if abs(tr - 1.0) > TRACE_ATOL:
            raise ValueError(f"trace {tr} deviates from 1 beyond {TRACE_ATOL}")
        lo = float(np.linalg.eigvalsh(mat)[0])
        if lo < -PSD_ATOL:
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


def swap_operator(site_mask: int, layout: QuditLayout) -> np.ndarray:
    """Permutation matrix exchanging copy A and copy B on the selected sites.

    The result is an involution (S @ S = identity) and Hermitian.
    """
    if layout.copies != 2:
        raise ValueError("swap_operator requires a two-copy layout")
    n, d = layout.n_sites, layout.local_dim
    if site_mask < 0 or site_mask >= (1 << n):
        raise ValueError(f"site mask {site_mask:#x} out of range for {n} sites")
    dim = layout.dim
    idx = np.arange(dim)
    perm = idx.copy()
    for i in range(n):
        if (site_mask >> i) & 1:
            dig_a = (idx // d**i) % d
            dig_b = (idx // d ** (n + i)) % d
            perm = perm + (dig_b - dig_a) * d**i + (dig_a - dig_b) * d ** (n + i)
    op = np.zeros((dim, dim), dtype=complex)
    op[perm, idx] = 1.0
    return op


def haar_unitary(d: int, rng: np.random.Generator) -> np.ndarray:
    """Haar-distributed unitary: complex Ginibre, QR, then R-phase correction.

    Each column of Q is multiplied by conj(R_ii)/|R_ii|; without the phase
    fix the raw QR output is unitary but not Haar.
    """
    if d < 2:
        raise ValueError("dimension must be at least 2")
    ginibre = (rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))) / np.sqrt(2.0)
    q, r = np.linalg.qr(ginibre)
    diag = np.diagonal(r)
    phases = np.conj(diag) / np.abs(diag)
    return q * phases[np.newaxis, :]


def is_unitary(u: np.ndarray, atol: float = UNITARY_ATOL) -> bool:
    u = np.asarray(u)
    if u.ndim != 2 or u.shape[0] != u.shape[1]:
        return False
    return bool(np.max(np.abs(u @ u.conj().T - np.eye(u.shape[0]))) <= atol)


def hermitian_eig(op, atol: float = 1e-10):
    """Ascending eigenvalues and eigenvector columns of a Hermitian matrix."""
    mat = op.matrix if isinstance(op, DensityOperator) else np.asarray(op, dtype=complex)
    herm_err = np.max(np.abs(mat - mat.conj().T))
    if herm_err > atol * max(1.0, np.max(np.abs(mat))):
        raise ValueError(f"input is not Hermitian (max deviation {herm_err})")
    vals, vecs = np.linalg.eigh(mat)
    return vals, vecs


def trace_product(a: np.ndarray, b: np.ndarray) -> complex:
    """Tr(a @ b) without forming the product."""
    return complex(np.einsum("ij,ji->", a, b))
