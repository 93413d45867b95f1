import numpy as np
import pytest

from framefree.states import (
    IE,
    RE,
    HamiltonianSpec,
    evolve,
    ghz_state,
    make_pair,
    product_plus_state,
)
from framefree.tensor import QuditLayout

from reference import dense_matrix, partial_trace
from conftest import random_hermitian, random_state


class TestProbes:
    def test_ghz_single_site_is_plus(self):
        psi = ghz_state(1)
        assert np.allclose(psi.amplitudes, [1 / np.sqrt(2), 1 / np.sqrt(2)])

    def test_ghz_amplitudes(self):
        psi = ghz_state(3)
        assert np.isclose(psi.amplitudes[0], 1 / np.sqrt(2))
        assert np.isclose(psi.amplitudes[-1], 1 / np.sqrt(2))
        assert np.allclose(psi.amplitudes[1:-1], 0.0)

    def test_ghz_reduction_maximally_mixed(self):
        # oracle: partial trace of the dense density matrix
        red = partial_trace(ghz_state(2).density(), 0b01)
        assert np.allclose(red.matrix, np.eye(2) / 2, atol=1e-12)

    def test_ghz_rejects_qudits(self):
        with pytest.raises(ValueError, match="d = 2"):
            ghz_state(2, d=3)

    def test_product_plus_amplitudes(self):
        assert np.allclose(product_plus_state(1).amplitudes, [1, 1] / np.sqrt(2))
        assert np.allclose(product_plus_state(2).amplitudes, np.full(4, 0.5))

    def test_product_single_site_purity(self):
        # oracle: purity of every single-site reduction equals 1
        psi = product_plus_state(3)
        for site in range(3):
            red = partial_trace(psi.density(), 1 << site).matrix
            assert np.isclose(np.trace(red @ red).real, 1.0, atol=1e-12)


class TestHamiltonianSpec:
    def test_default_weights(self):
        h = HamiltonianSpec.pauli_z_sum(3)
        assert np.allclose(h.site_weights, 0.5)
        assert h.support == 0b111

    def test_support_masking(self):
        h = HamiltonianSpec.pauli_z_sum(3, support=0b101)
        assert np.allclose(h.site_weights, [0.5, 0.0, 0.5])
        assert h.support == 0b101

    def test_z_sum_requires_qubits(self):
        with pytest.raises(ValueError, match="local_dim = 2"):
            HamiltonianSpec(QuditLayout(2, 3, 1), site_weights=np.ones(2))

    def test_dense_requires_hermitian(self, rng):
        lay = QuditLayout(2, 2, 1)
        mat = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
        with pytest.raises(ValueError, match="Hermitian"):
            HamiltonianSpec.dense(lay, mat)

    @pytest.mark.parametrize("entry", [(1, 2), (3, 3)])
    def test_dense_rejects_nan_entry(self, entry):
        mat = np.eye(4, dtype=complex)
        mat[entry] = np.nan
        with pytest.raises(ValueError, match="Hermitian"):
            HamiltonianSpec.dense(QuditLayout(2, 2, 1), mat)

    @pytest.mark.parametrize("weight", [np.nan, np.inf])
    def test_z_sum_rejects_non_finite_weight(self, weight):
        with pytest.raises(ValueError, match="finite"):
            HamiltonianSpec.pauli_z_sum(2, weights=[0.5, weight])

    def test_dense_rendering_matches(self):
        h = HamiltonianSpec.pauli_z_sum(2)
        z = np.diag([1.0, -1.0])
        expected = np.kron(np.eye(2), z) / 2 + np.kron(z, np.eye(2)) / 2
        assert np.allclose(dense_matrix(h), expected)

    def test_z_diagonal_built_once_read_only(self):
        h = HamiltonianSpec.pauli_z_sum(3, weights=[0.5, 0.25, 1.0])
        diag = h.z_diagonal()
        assert diag is h.z_diagonal()
        assert not diag.flags.writeable
        assert np.allclose(diag, np.diag(dense_matrix(h)).real)
        assert np.isclose(diag[0], 1.75) and np.isclose(diag[-1], -1.75)


class TestEvolve:
    def test_zero_angle_identity(self, rng):
        psi = random_state(3, rng)
        h = HamiltonianSpec.pauli_z_sum(3)
        assert np.allclose(evolve(psi, h, 0.0).amplitudes, psi.amplitudes)

    def test_ghz_global_phase(self):
        # relative phase N*theta on |1...1> up to the global phase exp(-i N theta / 2)
        n, theta = 3, 0.37
        out = evolve(ghz_state(n), HamiltonianSpec.pauli_z_sum(n), theta)
        expected = np.zeros(2**n, dtype=complex)
        expected[0] = 1 / np.sqrt(2)
        expected[-1] = np.exp(1j * n * theta) / np.sqrt(2)
        expected *= np.exp(-1j * n * theta / 2)
        assert np.allclose(out.amplitudes, expected, atol=1e-12)

    def test_inverse(self, rng):
        psi = random_state(2, rng)
        h = HamiltonianSpec.pauli_z_sum(2, weights=rng.uniform(0.1, 1.0, 2))
        back = evolve(evolve(psi, h, 0.83), h, -0.83)
        assert np.allclose(back.amplitudes, psi.amplitudes, atol=1e-12)

    def test_z_sum_agrees_with_dense(self, rng):
        # property: diagonal fast path vs dense-exponential path on random states
        for n in (2, 3, 4):
            weights = rng.uniform(-1.0, 1.0, n)
            h = HamiltonianSpec.pauli_z_sum(n, weights=weights)
            h_dense = HamiltonianSpec.dense(h.layout, dense_matrix(h))
            psi = random_state(n, rng)
            a = evolve(psi, h, 0.61).amplitudes
            b = evolve(psi, h_dense, 0.61).amplitudes
            assert np.max(np.abs(a - b)) < 1e-10

    def test_norm_preserved_over_grid(self, rng):
        psi = random_state(2, rng)
        h = HamiltonianSpec.dense(psi.layout, random_hermitian(4, rng))
        for theta in np.linspace(0.0, np.pi, 100):
            out = evolve(psi, h, theta)
            assert abs(np.linalg.norm(out.amplitudes) - 1.0) < 1e-12

    def test_layout_mismatch(self, rng):
        with pytest.raises(ValueError, match="layout"):
            evolve(random_state(2, rng), HamiltonianSpec.pauli_z_sum(3), 0.1)


class TestMakePair:
    def test_re_at_zero(self, rng):
        psi = random_state(2, rng)
        pair = make_pair(psi, HamiltonianSpec.pauli_z_sum(2), 0.0, RE)
        assert np.allclose(pair.psi_plus.amplitudes, psi.amplitudes)
        assert np.allclose(pair.psi_minus.amplitudes, psi.amplitudes)

    def test_ie_copies_identical(self, rng):
        psi = random_state(2, rng)
        pair = make_pair(psi, HamiltonianSpec.pauli_z_sum(2), 0.44, IE)
        overlap = np.vdot(pair.psi_plus.amplitudes, pair.psi_minus.amplitudes)
        assert np.isclose(abs(overlap), 1.0, atol=1e-12)

    def test_re_ghz_overlap(self):
        # |<psi_+|psi_->|^2 = cos^2(N theta) for the GHZ probe
        for n in (1, 2, 3):
            for theta in (0.2, 0.9):
                pair = make_pair(ghz_state(n), HamiltonianSpec.pauli_z_sum(n), theta, RE)
                ov = abs(np.vdot(pair.psi_plus.amplitudes, pair.psi_minus.amplitudes)) ** 2
                assert np.isclose(ov, np.cos(n * theta) ** 2, atol=1e-12)

    def test_re_overlap_is_one_at_zero(self, rng):
        psi = random_state(2, rng)
        h = HamiltonianSpec.dense(psi.layout, random_hermitian(4, rng))
        pair = make_pair(psi, h, 0.0, RE)
        ov = abs(np.vdot(pair.psi_plus.amplitudes, pair.psi_minus.amplitudes)) ** 2
        assert np.isclose(ov, 1.0, atol=1e-12)

    def test_bad_mode(self, rng):
        with pytest.raises(ValueError, match="mode"):
            make_pair(random_state(1, rng), HamiltonianSpec.pauli_z_sum(1), 0.1, "xx")


class TestDistributedEncode:
    """Per-site angles theta_j encoded as evolution for unit time under the
    Z sum with weights theta_j / 2."""

    @staticmethod
    def encode(psi, thetas):
        weights = np.asarray(thetas) / 2
        return evolve(psi, HamiltonianSpec.pauli_z_sum(psi.layout.n_sites, weights), 1.0)

    def test_zero_angles_identity(self, rng):
        psi = random_state(2, rng)
        out = self.encode(psi, [0.0, 0.0])
        assert np.allclose(out.amplitudes, psi.amplitudes)

    def test_ghz_mean_phase(self):
        # oracle: direct amplitude inspection; relative phase is N * mean(thetas)
        psi = ghz_state(2)
        out = self.encode(psi, [0.1, 0.3])
        rel = out.amplitudes[-1] / out.amplitudes[0]
        assert np.isclose(np.angle(rel), 0.4, atol=1e-12)

    def test_ghz_permutation_invariant(self):
        psi = ghz_state(3)
        a = self.encode(psi, [0.1, 0.5, 0.2]).amplitudes
        b = self.encode(psi, [0.5, 0.2, 0.1]).amplitudes
        assert np.array_equal(a, b)

    def test_length_mismatch(self):
        with pytest.raises(ValueError, match="per site"):
            self.encode(ghz_state(2), [0.1])
