"""Probe states, local phase encodings, and two-copy preparations.

An encoding generator is either a weighted sum of single-site Pauli-Z terms
(qubits only, diagonal fast path) or an arbitrary dense Hermitian matrix.
Two-copy products carry a mode tag: ``"ie"`` gives both copies the same
phase, ``"re"`` gives copy B the opposite phase.
"""

from dataclasses import dataclass

import numpy as np

from .tensor import HERMITIAN_ATOL, QuditLayout, StateVector, check_hermitian, hermitian_eig

IE = "ie"
RE = "re"
MODES = (IE, RE)


def _site_signs(n: int) -> np.ndarray:
    """(2^n x n) table of the Z eigenvalue 1 - 2 * bit of each site per basis index."""
    idx = np.arange(1 << n)
    return 1.0 - 2.0 * ((idx[:, np.newaxis] >> np.arange(n)[np.newaxis, :]) & 1)


@dataclass(eq=False)
class HamiltonianSpec:
    """Encoding generator on a single-copy register.

    Exactly one of `site_weights` (Pauli-Z sum, qubits) and `matrix` (dense
    Hermitian) is set.  `support` is the mask of sites carrying a nonzero
    term; m-site encodings are expressed by zeroing weights outside it.
    """

    layout: QuditLayout
    site_weights: np.ndarray | None = None
    matrix: np.ndarray | None = None
    support: int = 0

    def __post_init__(self):
        if self.layout.copies != 1:
            raise ValueError("encoding generators live on a single-copy layout")
        if (self.site_weights is None) == (self.matrix is None):
            raise ValueError("specify exactly one of site_weights and matrix")
        if self.site_weights is not None:
            if self.layout.local_dim != 2:
                raise ValueError("Pauli-Z sums require local_dim = 2")
            w = np.asarray(self.site_weights, dtype=float)
            if w.shape != (self.layout.n_sites,):
                raise ValueError("one weight per site expected")
            if not np.isfinite(w).all():
                raise ValueError("site weights must be finite")
            self.site_weights = w
            self.support = int(sum(1 << i for i in range(w.size) if w[i] != 0.0))
            self._z_diag = _site_signs(self.layout.n_sites) @ w
            self._z_diag.flags.writeable = False
        else:
            mat = np.asarray(self.matrix, dtype=complex)
            dim = self.layout.dim
            if mat.shape != (dim, dim):
                raise ValueError(f"matrix has shape {mat.shape}, expected ({dim}, {dim})")
            check_hermitian(mat, HERMITIAN_ATOL)
            self.matrix = mat
            if self.support == 0:
                self.support = (1 << self.layout.n_sites) - 1

    @classmethod
    def pauli_z_sum(cls, n_sites: int, weights=None, support: int | None = None):
        """Sum of (1/2) Z_i terms by default; `support` zeroes sites outside it."""
        w = np.full(n_sites, 0.5) if weights is None else np.asarray(weights, dtype=float)
        if support is not None:
            w = np.where([(support >> i) & 1 for i in range(n_sites)], w, 0.0)
        return cls(QuditLayout(n_sites, 2, 1), site_weights=w)

    @classmethod
    def dense(cls, layout: QuditLayout, matrix, support: int = 0):
        return cls(layout, matrix=matrix, support=support)

    @property
    def is_z_sum(self) -> bool:
        return self.site_weights is not None

    def z_diagonal(self) -> np.ndarray:
        """Diagonal of the Z-sum generator over basis indices (bit b -> z = 1-2b),
        built once at construction and read-only."""
        if not self.is_z_sum:
            raise ValueError("not a Pauli-Z sum")
        return self._z_diag

    def apply(self, vecs: np.ndarray) -> np.ndarray:
        """The generator applied along the last axis of `vecs`; Z sums act
        as a diagonal multiply."""
        if self.is_z_sum:
            return vecs * self.z_diagonal()
        return vecs @ self.matrix.T


@dataclass(eq=False)
class EncodedPair:
    """Two-copy product: copy A encoded at +theta, copy B at +/-theta by mode."""

    psi_plus: StateVector
    psi_minus: StateVector
    mode: str
    hamiltonian: HamiltonianSpec

    def __post_init__(self):
        if self.mode not in MODES:
            raise ValueError(f"mode must be one of {MODES}")
        if self.psi_plus.layout != self.psi_minus.layout:
            raise ValueError("both copies must share one single-copy layout")
        if self.psi_plus.layout != self.hamiltonian.layout:
            raise ValueError("pair and generator layouts disagree")

    @property
    def layout(self) -> QuditLayout:
        return self.psi_plus.layout


def ghz_state(n: int, d: int = 2) -> StateVector:
    """(|0...0> + |1...1>)/sqrt(2) on n qubits."""
    if d != 2:
        raise ValueError("GHZ probe is defined for qubits (d = 2)")
    if n < 1:
        raise ValueError("n must be positive")
    layout = QuditLayout(n, 2, 1)
    amps = np.zeros(layout.dim, dtype=complex)
    amps[0] = amps[-1] = 1.0 / np.sqrt(2.0)
    return StateVector(layout, amps)


def product_plus_state(n: int) -> StateVector:
    """Tensor power of (|0> + |1>)/sqrt(2): uniform amplitudes 2^(-n/2)."""
    if n < 1:
        raise ValueError("n must be positive")
    layout = QuditLayout(n, 2, 1)
    amps = np.full(layout.dim, 2.0 ** (-n / 2.0), dtype=complex)
    return StateVector(layout, amps)


def evolve(psi: StateVector, h: HamiltonianSpec, theta: float) -> StateVector:
    """Apply exp(-i * theta * H) to a pure state."""
    if psi.layout != h.layout:
        raise ValueError("state and generator layouts disagree")
    if h.is_z_sum:
        amps = psi.amplitudes * np.exp(-1j * theta * h.z_diagonal())
    else:
        vals, vecs = hermitian_eig(h.matrix)
        amps = vecs @ (np.exp(-1j * theta * vals) * (vecs.conj().T @ psi.amplitudes))
    return StateVector(psi.layout, amps)


def make_pair(psi0: StateVector, h: HamiltonianSpec, theta: float, mode: str) -> EncodedPair:
    """Encode the probe twice: identically ("ie") or with opposite signs ("re")."""
    if mode not in MODES:
        raise ValueError(f"mode must be one of {MODES}")
    plus = evolve(psi0, h, theta)
    minus = evolve(psi0, h, theta if mode == IE else -theta)
    return EncodedPair(plus, minus, mode, h)
