import numpy as np
import pytest

from framefree.tensor import (
    DIM_CAP_ENV,
    DensityOperator,
    QuditLayout,
    StateVector,
    _orbit_plan,
    dim_cap,
    haar_unitary,
    hermitian_eig,
    kron,
    local_unitary,
    popcounts,
    subset_transform,
    swap_operator,
    swap_permutation,
    trace_product,
)

from reference import hamming, partial_trace, ptrace_matrix
from conftest import random_hermitian, random_state

I2 = np.eye(2, dtype=complex)
Z = np.diag([1.0 + 0j, -1.0])


class TestLayout:
    def test_dimensions(self):
        lay = QuditLayout(3, 2, 2)
        assert lay.dim == 64
        assert lay.single_copy_dim == 8
        assert lay.n_slots == 6

    def test_cap_rejected(self):
        with pytest.raises(ValueError, match="cap"):
            QuditLayout(7, 2, 2)  # 2^14 > 4096

    def test_cap_env_override(self, monkeypatch):
        monkeypatch.setenv(DIM_CAP_ENV, "16384")
        assert dim_cap() == 16384
        QuditLayout(7, 2, 2)
        monkeypatch.setenv(DIM_CAP_ENV, "8")
        with pytest.raises(ValueError, match="cap"):
            QuditLayout(2, 2, 2)

    def test_bad_parameters(self):
        with pytest.raises(ValueError):
            QuditLayout(0, 2, 1)
        with pytest.raises(ValueError):
            QuditLayout(2, 1, 1)
        with pytest.raises(ValueError):
            QuditLayout(2, 2, 3)


class TestStateAndDensity:
    def test_norm_enforced(self):
        lay = QuditLayout(1, 2, 1)
        with pytest.raises(ValueError, match="norm"):
            StateVector(lay, np.array([1.0, 1.0]))

    def test_density_validation(self):
        lay = QuditLayout(1, 2, 1)
        DensityOperator(lay, I2 / 2)
        with pytest.raises(ValueError, match="Hermitian"):
            DensityOperator(lay, np.array([[0.5, 0.3], [0.0, 0.5]]))
        with pytest.raises(ValueError, match="trace"):
            DensityOperator(lay, I2)
        with pytest.raises(ValueError, match="eigenvalue"):
            DensityOperator(lay, np.diag([1.5, -0.5]).astype(complex))

    def test_non_finite_entries_rejected(self):
        lay = QuditLayout(2, 2, 1)
        with pytest.raises(ValueError, match="norm"):
            StateVector(lay, [1, 0, 0, np.nan])
        m = np.eye(4, dtype=complex) / 4
        m[1, 2] = m[2, 1] = np.nan
        with pytest.raises(ValueError, match="Hermitian"):
            DensityOperator(lay, m)

    @pytest.mark.parametrize("lowest, accepted", [(-0.9e-10, True), (-1.1e-10, False)])
    def test_psd_gate_boundary(self, lowest, accepted):
        # the Cholesky factor fails on both sides of -PSD_ATOL, so the
        # spectrum decides at the threshold
        u = haar_unitary(4, np.random.default_rng(8))
        mat = u @ np.diag([0.5, 0.3, 0.2 - lowest, lowest]) @ u.conj().T
        lay = QuditLayout(2, 2, 1)
        if accepted:
            DensityOperator(lay, mat)
        else:
            with pytest.raises(ValueError, match=r"negative eigenvalue -1\.(1|09)"):
                DensityOperator(lay, mat)

    def test_real_input_checked_in_real_arithmetic(self, monkeypatch):
        # the input's dtype decides: real stays float64, complex stays complex128
        lay = QuditLayout(2, 2, 1)
        q, _ = np.linalg.qr(np.random.default_rng(3).standard_normal((4, 4)))
        good = q @ np.diag([0.4, 0.3, 0.2, 0.1]) @ q.T
        good = (good + good.T) / 2
        assert DensityOperator(lay, good).matrix.dtype == np.float64
        cast = DensityOperator(lay, good.astype(complex)).matrix
        assert cast.dtype == np.complex128
        assert np.array_equal(cast, good)
        with pytest.raises(ValueError, match="Hermitian"):
            DensityOperator(lay, good + np.triu(np.full((4, 4), 1e-6), 1))
        nan = good.copy()
        nan[1, 2] = nan[2, 1] = np.nan
        with pytest.raises(ValueError, match="Hermitian"):
            DensityOperator(lay, nan)
        # eigenvalue -1e-9: no Cholesky factor, so the real spectrum decides
        seen = []
        eigvalsh = np.linalg.eigvalsh
        monkeypatch.setattr(np.linalg, "eigvalsh", lambda a: seen.append(a.dtype) or eigvalsh(a))
        low = q @ np.diag([0.5, 0.3, 0.2 + 1e-9, -1e-9]) @ q.T
        with pytest.raises(ValueError, match=r"matrix has negative eigenvalue -(1\.0|9\.99)"):
            DensityOperator(lay, (low + low.T) / 2)
        assert seen == [np.float64]

    def test_rank_one_state_accepted(self, rng):
        psi = random_state(6, rng, 3)
        DensityOperator(psi.layout, np.outer(psi.amplitudes, psi.amplitudes.conj()))


class TestKron:
    def test_identity(self):
        assert np.allclose(kron(I2, I2), np.eye(4))

    def test_zz_diagonal(self):
        assert np.allclose(np.diag(kron(Z, Z)), [1, -1, -1, 1])

    def test_trace_multiplicative(self, rng):
        # oracle: direct dense multiplication
        a = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
        b = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
        assert np.isclose(np.trace(kron(a, b)), np.trace(a) * np.trace(b))


class TestPartialTrace:
    def test_bell_reduction(self):
        bell = np.zeros(4, dtype=complex)
        bell[0] = bell[3] = 1 / np.sqrt(2)
        rho = StateVector(QuditLayout(2, 2, 1), bell).density()
        for keep in (0b01, 0b10):
            red = partial_trace(rho, keep)
            assert np.allclose(red.matrix, I2 / 2, atol=1e-12)

    def test_product_factorization(self):
        plus = np.array([1, 1]) / np.sqrt(2)
        zero = np.array([1, 0])
        psi = StateVector(QuditLayout(2, 2, 1), np.kron(plus, zero))  # slot0=|0>, slot1=|+>
        red = partial_trace(psi.density(), 0b10)
        assert np.allclose(red.matrix, np.outer(plus, plus), atol=1e-12)

    def test_keep_all_identity(self, rng):
        psi = random_state(3, rng)
        rho = psi.density()
        red = partial_trace(rho, 0b111)
        assert np.allclose(red.matrix, rho.matrix)

    def test_empty_keep_rejected(self, rng):
        rho = random_state(2, rng).density()
        with pytest.raises(ValueError, match="at least one"):
            partial_trace(rho, 0)

    def test_composition(self, rng):
        # tracing slot sets one at a time agrees with tracing them jointly
        for layout in (QuditLayout(4, 2, 2), QuditLayout(3, 4, 1), QuditLayout(3, 2, 1)):
            amps = rng.standard_normal(layout.dim) + 1j * rng.standard_normal(layout.dim)
            rho = StateVector(layout, amps / np.linalg.norm(amps)).density()
            full = (1 << layout.n_slots) - 1
            drop_first, drop_second = 1 << 0, 1 << 1
            step1 = ptrace_matrix(rho.matrix, layout.local_dim, layout.n_slots,
                                  full ^ drop_first)
            # after dropping slot 0 the remaining slots renumber downward by one
            step2 = ptrace_matrix(step1, layout.local_dim, layout.n_slots - 1,
                                  (full >> 1) ^ (drop_second >> 1))
            joint = ptrace_matrix(rho.matrix, layout.local_dim, layout.n_slots,
                                  full ^ drop_first ^ drop_second)
            assert np.max(np.abs(step2 - joint)) < 1e-12

    def test_trace_preserved(self, rng):
        rho = random_state(4, rng).density()
        red = partial_trace(rho, 0b0110)
        assert np.isclose(red.matrix.trace(), 1.0, atol=1e-10)


class TestSwapOperator:
    def test_empty_mask_identity(self):
        lay = QuditLayout(2, 2, 2)
        assert np.allclose(swap_operator(0, lay), np.eye(16))

    def test_full_swap_exchanges_states(self, rng):
        lay = QuditLayout(2, 2, 2)
        psi = random_state(2, rng).amplitudes
        phi = random_state(2, rng).amplitudes
        full = np.kron(phi, psi)  # copy A = psi in the low slots
        swapped = swap_operator(0b11, lay) @ full
        assert np.allclose(swapped, np.kron(psi, phi), atol=1e-12)

    def test_trace_formula(self):
        # oracle: brute-force matrix trace; d^(2N - |a|) expected
        lay = QuditLayout(2, 2, 2)
        assert np.isclose(np.trace(swap_operator(0b01, lay)).real, 8.0)
        assert np.isclose(np.trace(swap_operator(0b11, lay)).real, 4.0)
        lay3 = QuditLayout(2, 3, 2)
        assert np.isclose(np.trace(swap_operator(0b10, lay3)).real, 27.0)

    def test_involution_and_hermitian(self, rng):
        lay = QuditLayout(3, 2, 2)
        for mask in (0b001, 0b101, 0b111):
            s = swap_operator(mask, lay)
            assert s.dtype == np.float64
            assert np.array_equal(s @ s, np.eye(lay.dim))
            assert np.array_equal(s, s.T)

    def test_requires_two_copies(self):
        with pytest.raises(ValueError, match="two-copy"):
            swap_operator(1, QuditLayout(2, 2, 1))


@pytest.mark.parametrize("n, d", [(1, 2), (2, 2), (3, 2), (4, 2), (1, 3), (2, 3)])
def test_orbit_plan_partitions_under_every_exchange(n, d):
    plan = _orbit_plan(n, d)
    assert [rows.shape[1] for rows in plan] == [1 << k for k in range(n + 1)]
    flat = np.concatenate([rows.ravel() for rows in plan])
    assert np.array_equal(np.sort(flat), np.arange(d ** (2 * n)))
    # label each index by its orbit row; every exchange keeps the labels
    label = np.empty(flat.size, dtype=int)
    start = 0
    for rows in plan:
        label[rows] = start + np.arange(len(rows))[:, None]
        start += len(rows)
    layout = QuditLayout(n, d, 2)
    for mask in range(1 << n):
        assert np.array_equal(label[swap_permutation(mask, layout)], label)
    assert not plan[0].flags.writeable


class TestHaar:
    def test_unitarity(self, rng):
        for d in (2, 3, 5):
            u = haar_unitary(d, rng)
            assert np.max(np.abs(u @ u.conj().T - np.eye(d))) < 1e-10

    def test_deterministic_under_seed(self):
        u1 = haar_unitary(3, np.random.default_rng(99))
        u2 = haar_unitary(3, np.random.default_rng(99))
        assert np.array_equal(u1, u2)

    @pytest.mark.parametrize("d", [2, 3, 5])
    def test_stack_equals_sequential_calls(self, d):
        stack = haar_unitary(d, np.random.default_rng(17), (4, 3))
        rng = np.random.default_rng(17)
        sequential = [[haar_unitary(d, rng) for _ in range(3)] for _ in range(4)]
        assert np.array_equal(stack, np.array(sequential))

    def test_first_moment(self):
        # Monte-Carlo oracle: E[U rho U^dag] = I/d
        rng = np.random.default_rng(101)
        d = 2
        rho = np.diag([1.0, 0.0]).astype(complex)
        n = 10_000
        u = haar_unitary(d, rng, (n,))
        acc = np.sum(u @ rho @ u.conj().swapaxes(-1, -2), axis=0) / n
        diff = acc - np.eye(d) / d
        dist = 0.5 * np.sum(np.abs(np.linalg.eigvalsh(diff)))
        assert dist <= 0.05

    def test_two_moment(self):
        rng = np.random.default_rng(555)
        n = 100_000
        total = np.sum(np.abs(haar_unitary(2, rng, (n,))[:, 0, 0]) ** 2)
        assert abs(total / n - 0.5) < 0.01


class TestHermitianEig:
    def test_pauli_z(self):
        vals, _ = hermitian_eig(Z)
        assert np.allclose(vals, [-1.0, 1.0])

    def test_maximally_mixed(self):
        vals, _ = hermitian_eig(I2 / 2)
        assert np.allclose(vals, [0.5, 0.5])

    def test_trace_identity(self, rng):
        a = random_hermitian(8, rng)
        vals, vecs = hermitian_eig(a)
        assert np.isclose(vals.sum(), np.trace(a).real, atol=1e-10)
        recon = vecs @ np.diag(vals) @ vecs.conj().T
        assert np.linalg.norm(recon - a) <= 1e-9 * np.linalg.norm(a)

    def test_rejects_non_hermitian(self, rng):
        with pytest.raises(ValueError, match="Hermitian"):
            hermitian_eig(np.array([[0.0, 1.0], [0.0, 0.0]]))
        with pytest.raises(ValueError, match="Hermitian"):
            hermitian_eig(np.array([[1.0, np.nan], [np.nan, 0.0]]))


def test_local_unitary_site_order():
    # site 0 is least significant: X on site 0 flips the low bit
    X = np.array([[0, 1], [1, 0]], dtype=complex)
    op = local_unitary([X, I2])
    vec = np.zeros(4)
    vec[0] = 1.0
    assert np.allclose(op @ vec, [0, 1, 0, 0])


def test_trace_product_matches_dense(rng):
    a = random_hermitian(6, rng)
    b = random_hermitian(6, rng)
    assert np.isclose(trace_product(a, b), np.trace(a @ b))


def test_hamming():
    assert hamming(0) == 0
    assert hamming(0b1011) == 3
    with pytest.raises(ValueError):
        hamming(-1)


def test_popcounts():
    for n in range(7):
        assert popcounts(n).tolist() == [hamming(a) for a in range(1 << n)]


def _explicit_sums(v, d):
    """The four subset sums the transform replaces, each as the explicit
    O(4^N) double loop over masks."""
    size = len(v)
    n = size.bit_length() - 1
    base = 1.0 / (d * d - 1.0) ** n
    walsh = np.array([sum((-1.0) ** hamming(a & b) * v[a] for a in range(size))
                      for b in range(size)])
    coincide = np.empty(size)
    for m in range(size):
        k = hamming(m)
        signed = sum(v[a] * (-1.0 / d) ** hamming(a & ~m) for a in range(size))
        coincide[m] = base * ((d - 1.0) / d) ** k * signed * d**n * (d - 1) ** (n - k)
    dense_weights = np.array([sum((-1.0 / d) ** hamming(a ^ m) * v[a] for a in range(size))
                              for m in range(size)])
    spectrum = np.array([base * ((d - 1.0) / d) ** (n - hamming(b))
                         * ((d + 1.0) / d) ** hamming(b) * walsh[b] for b in range(size)])
    return walsh, coincide, dense_weights, spectrum


@pytest.mark.parametrize("d", [2, 3])
@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6])
def test_subset_transform_matches_explicit_sums(rng, n, d):
    v = rng.uniform(0.0, 1.0, 1 << n)
    kernels = (
        [[1.0, 1.0], [1.0, -1.0]],
        [[d / (d + 1.0), -1.0 / (d + 1.0)], [1.0 / (d + 1.0), 1.0 / (d + 1.0)]],
        [[1.0, -1.0 / d], [-1.0 / d, 1.0]],
        [[1.0 / (d * (d + 1)), 1.0 / (d * (d + 1))], [1.0 / (d * (d - 1)), -1.0 / (d * (d - 1))]],
    )
    for kernel, want in zip(kernels, _explicit_sums(v, d)):
        got = subset_transform(v, kernel)
        assert np.max(np.abs(got - want)) <= 1e-14 * max(1.0, np.max(np.abs(want)))
        # a stack is transformed row by row along its last axis
        stacked = subset_transform([v, 2.0 * v, -v], kernel)
        assert np.array_equal(stacked, [got, 2.0 * got, -got])


def test_subset_transform_rejects_bad_length():
    with pytest.raises(ValueError, match="power of two"):
        subset_transform(np.ones(6), [[1.0, 1.0], [1.0, -1.0]])
