"""Reference values computed without the framefree package.

Two kinds of reference live here:

* the paper's closed forms for the half-weight Pauli-Z sum generator
  H = (1/2) sum_j Z_j on GHZ and product-plus probes;
* a dense brute-force oracle.  It encodes the probe on two copies, applies
  the exact single-site two-copy twirl (on every site, the Hilbert-Schmidt
  projection onto span{1, SWAP}) to the encoded product, and evaluates
  quantum and classical Fisher information from the resulting matrices.

Index convention (the one the package documents): a single-copy amplitude
index is x = sum_s digit_s * d**s, and a two-copy register is copy-major with
copy A in the low digits, i.e. the two-copy vector is kron(psi_B, psi_A).

Information at rank changes is the continuous extension (Safranek, PRA 95,
052320, 2017): an eigenvalue or probability that vanishes at the point
contributes twice its second derivative instead of being dropped.
"""

import math

import numpy as np

# eigenvalues / probabilities at or below this are treated as exact zeros
ZERO_FLOOR = 1e-13

# rows are <Phi+|, <Phi-|, <Psi+|, <Psi-| on a (copy-B digit, copy-A digit) pair
BELL = np.array([[1, 0, 0, 1],
                 [1, 0, 0, -1],
                 [0, 1, 1, 0],
                 [0, 1, -1, 0]], dtype=complex) / math.sqrt(2.0)


# -- the paper's closed forms (half-weight Z sum)


def qfi_re_ghz(n: int, theta: float) -> float:
    s = math.sin(n * theta) ** 2
    c = math.cos(n * theta) ** 2
    return 2.0 * n * n * (1.0 - s / (c + 2.0 ** (n - 1)))


def qfi_re_product(n: int, theta: float) -> float:
    c = math.cos(theta) ** 2
    return 4.0 * n * c / (1.0 + c)


def qfi_gui_ghz(n: int, theta: float) -> float:
    c = math.cos(n * theta) ** 2
    return 4.0 * n * n * c / (1.0 + c)


def qfi_re_closed(probe: str, n: int, theta: float) -> float:
    return qfi_re_ghz(n, theta) if probe == "ghz" else qfi_re_product(n, theta)


def f0_closed(probe: str, n: int) -> float:
    """8 Var(H): N^2/4 for GHZ and N/4 for the product probe."""
    return 2.0 * n * n if probe == "ghz" else 2.0 * n


def global_swap_info(s: float, ds: float, dds: float) -> float:
    """Information of the globally twirled state, (ds)^2 / (1 - s^2).

    Its spectrum is (1 + s)/(D(D+1)) on the symmetric subspace and
    (1 - s)/(D(D-1)) on the antisymmetric one; at s = 1 the antisymmetric
    family vanishes and contributes 2 * d^2(1 - s)/2 = -dds instead.
    """
    if 1.0 - s <= ZERO_FLOOR:
        return ds * ds / (2.0 * (1.0 + s)) - dds
    return ds * ds / (1.0 - s * s)


def overlap_closed(probe: str, n: int, theta: float):
    """s = |<psi_+|psi_->|^2 and its first two theta derivatives."""
    if probe == "ghz":
        x = 2.0 * n * theta  # s = cos^2(n t) = (1 + cos 2nt)/2
        return (0.5 * (1.0 + math.cos(x)), -n * math.sin(x), -2.0 * n * n * math.cos(x))
    c, sn = math.cos(theta), math.sin(theta)
    s = c ** (2 * n)
    ds = -2.0 * n * c ** (2 * n - 1) * sn
    dds = 2.0 * n * (2 * n - 1) * c ** (2 * n - 2) * sn * sn - 2.0 * n * c ** (2 * n)
    return s, ds, dds


def qfi_gui_closed(probe: str, n: int, theta: float) -> float:
    if probe == "ghz":
        return qfi_gui_ghz(n, theta)
    return global_swap_info(*overlap_closed(probe, n, theta))


# -- probes and generators, built from the index convention alone


def ghz_vector(n: int) -> np.ndarray:
    v = np.zeros(1 << n, dtype=complex)
    v[0] = v[-1] = 1.0 / math.sqrt(2.0)
    return v


def product_vector(n: int) -> np.ndarray:
    return np.full(1 << n, 2.0 ** (-n / 2.0), dtype=complex)


def z_sum_diagonal(weights) -> np.ndarray:
    """Diagonal of sum_j w_j Z_j: site j is bit j of the index, Z|1> = -|1>."""
    w = np.asarray(weights, dtype=float)
    idx = np.arange(1 << w.size)
    bits = (idx[:, None] >> np.arange(w.size)[None, :]) & 1
    return (1.0 - 2.0 * bits) @ w


def random_vector(dim: int, rng: np.random.Generator) -> np.ndarray:
    v = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
    return v / np.linalg.norm(v)


def random_hermitian(dim: int, rng: np.random.Generator) -> np.ndarray:
    m = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    return (m + m.conj().T) / 2.0


class Probe:
    """Probe vector with a generator given as a diagonal or a dense matrix."""

    def __init__(self, psi, local_dim: int, n_sites: int, *, diag=None, matrix=None):
        self.psi = np.asarray(psi, dtype=complex)
        self.d, self.n = local_dim, n_sites
        if (diag is None) == (matrix is None):
            raise ValueError("give exactly one of diag and matrix")
        if diag is not None:
            self._vals = np.asarray(diag, dtype=float)
            self._vecs = None  # eigenvectors are the basis states
        else:
            self._vals, self._vecs = np.linalg.eigh(np.asarray(matrix, dtype=complex))

    @property
    def h(self) -> np.ndarray:
        if self._vecs is None:
            return np.diag(self._vals.astype(complex))
        return (self._vecs * self._vals) @ self._vecs.conj().T

    def _to_eigenbasis(self, v):
        return v if self._vecs is None else self._vecs.conj().T @ v

    def _from_eigenbasis(self, v):
        return v if self._vecs is None else self._vecs @ v

    def encoded(self, theta: float) -> np.ndarray:
        """exp(-i theta H) psi."""
        coeff = self._to_eigenbasis(self.psi)
        return self._from_eigenbasis(np.exp(-1j * theta * self._vals) * coeff)

    def f0(self) -> float:
        """8 Var(H) in the probe."""
        w = np.abs(self._to_eigenbasis(self.psi)) ** 2
        mean = np.sum(w * self._vals)
        return float(8.0 * np.sum(w * (self._vals - mean) ** 2))

    def overlap(self, theta: float):
        """s(theta) = |<psi_+|psi_->|^2 for reversed encoding, with ds and dds.

        <psi_+|psi_-> = sum_k |<k|psi>|^2 exp(2 i theta h_k) over eigenvectors k.
        """
        w = np.abs(self._to_eigenbasis(self.psi)) ** 2
        ph = np.exp(2j * theta * self._vals)
        g = np.sum(w * ph)
        dg = np.sum(w * 2j * self._vals * ph)
        ddg = np.sum(w * (2j * self._vals) ** 2 * ph)
        s = abs(g) ** 2
        ds = 2.0 * (np.conj(g) * dg).real
        dds = 2.0 * (np.conj(dg) * dg).real + 2.0 * (np.conj(g) * ddg).real
        return float(s), float(ds), float(dds)


def closed_probe(probe: str, n: int) -> Probe:
    vec = ghz_vector(n) if probe == "ghz" else product_vector(n)
    return Probe(vec, 2, n, diag=z_sum_diagonal(np.full(n, 0.5)))


# -- the dense two-copy oracle


def _site_twirl(t: np.ndarray, d: int, n: int, site_axis: int) -> np.ndarray:
    """Project one site's (copy A, copy B) pair onto span{1, SWAP}.

    `t` is the two-copy operator as a tensor with 4n axes: rows (copy B
    digits, copy A digits), then columns in the same order.  `site_axis`
    indexes the digit within a copy (0 = most significant).
    """
    a_r, b_r = n + site_axis, site_axis
    a_c, b_c = 3 * n + site_axis, 2 * n + site_axis
    moved = np.moveaxis(t, (a_r, b_r, a_c, b_c), (-4, -3, -2, -1))
    trace = np.einsum("...abab->...", moved)
    swap = np.einsum("...abba->...", moved)
    # T(M) = x 1 + y F with Tr T = Tr M and Tr F T = Tr F M; Tr 1 = d^2, Tr F = d
    x = (trace * d - swap) / (d * (d * d - 1.0))
    y = (swap * d - trace) / (d * (d * d - 1.0))
    eye = np.eye(d)
    ident = np.einsum("ac,bd->abcd", eye, eye)
    flip = np.einsum("ad,bc->abcd", eye, eye)
    out = x[..., None, None, None, None] * ident + y[..., None, None, None, None] * flip
    return np.moveaxis(out, (-4, -3, -2, -1), (a_r, b_r, a_c, b_c))


def local_twirl(mat: np.ndarray, d: int, n: int) -> np.ndarray:
    """Exact average of (U_j (x) U_j per site) M (...)^dag over Haar U_j."""
    t = np.asarray(mat).reshape((d,) * (4 * n))
    for k in range(n):
        t = _site_twirl(t, d, n, k)
    return t.reshape(mat.shape)


def global_twirl(mat: np.ndarray, d: int, n: int) -> np.ndarray:
    """Average over U (x) U with U Haar on the whole single-copy register."""
    return local_twirl(mat, d ** n, 1)


def dense_probe_pair(probe: Probe, theta: float, mode: str = "re") -> np.ndarray:
    """Untwirled two-copy product kron(rho_B, rho_A) as a matrix."""
    plus = probe.encoded(theta)
    minus = probe.encoded(theta if mode == "ie" else -theta)
    vec = np.kron(minus, plus)
    return np.outer(vec, vec.conj())


class TwoCopy:
    """Twirled two-copy state of a probe and its first two theta derivatives."""

    def __init__(self, probe: Probe, theta: float, mode: str = "re", twirl: str = "local"):
        d, n = probe.d, probe.n
        sign = 1.0 if mode == "ie" else -1.0
        eye = np.eye(d ** n)
        # generator of the two-copy encoding; copy B is the high factor
        gen = sign * np.kron(probe.h, eye) + np.kron(eye, probe.h)
        rho = dense_probe_pair(probe, theta, mode)
        drho = -1j * (gen @ rho - rho @ gen)
        ddrho = -1j * (gen @ drho - drho @ gen)
        apply = local_twirl if twirl == "local" else global_twirl
        self.d, self.n = d, n
        self.rho = apply(rho, d, n)
        self.drho = apply(drho, d, n)
        self.ddrho = apply(ddrho, d, n)

    def qfi(self) -> float:
        """Continuous-extension QFI: 2 sum |dA_ij|^2/(l_i+l_j) over the
        support plus 2 Tr(P_0 d^2 rho) over the kernel."""
        vals, vecs = np.linalg.eigh(self.rho)
        a = vecs.conj().T @ self.drho @ vecs
        b = vecs.conj().T @ self.ddrho @ vecs
        live = vals > ZERO_FLOOR
        lv = vals[live]
        total = 2.0 * np.sum(np.abs(a[np.ix_(live, live)]) ** 2 / (lv[:, None] + lv[None, :]))
        total += 2.0 * np.sum(np.diag(b)[~live].real)
        return float(total)

    def _readout(self, site_basis=None):
        """Outcome probabilities and two derivatives, optionally after a
        per-site change of basis acting on each (copy-B digit, copy-A digit)
        pair; `site_basis` rows are the measured states."""
        mats = (self.rho, self.drho, self.ddrho)
        if site_basis is None:
            return [np.diag(m).real for m in mats]
        d, n = self.d, self.n
        # rows: copy-B digits (axes 0..n-1), then copy-A digits; interleave
        # them so each site's (B, A) pair is adjacent, then apply kron(U, ..., U)
        rows = [ax for k in range(n) for ax in (k, n + k)]
        order = rows + [2 * n + ax for ax in rows]
        u = site_basis
        for _ in range(n - 1):
            u = np.kron(u, site_basis)
        out = []
        for m in mats:
            t = m.reshape((d,) * (4 * n)).transpose(order).reshape(m.shape)
            out.append(np.einsum("ij,jk,ik->i", u, t, u.conj()).real)
        return out

    def cfi(self, readout: str) -> float:
        """Classical information of 'diag' (both copies in the computational
        basis) or 'bell' (per-site Bell basis, qubits) readout."""
        if readout == "diag":
            p, dp, ddp = self._readout()
        elif readout == "bell":
            if self.d != 2:
                raise ValueError("Bell readout is defined for qubits")
            p, dp, ddp = self._readout(BELL)
        else:
            raise ValueError(readout)
        live = p > ZERO_FLOOR
        return float(np.sum(dp[live] ** 2 / p[live]) + 2.0 * np.sum(ddp[~live]))


def trace_norm_distance(a: np.ndarray, b: np.ndarray) -> float:
    """Half the sum of singular values of a - b."""
    return float(0.5 * np.sum(np.linalg.svd(a - b, compute_uv=False)))
