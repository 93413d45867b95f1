import numpy as np
import pytest

from framefree.cli import _scan_columns
from framefree.fisher import (
    DEFAULT_STEP,
    f0,
    fisher_from_coefficients,
    fisher_from_weight_classes,
    information_sum,
    lui_spectrum,
    qfi_from_spectrum,
    qfi_ghz_closed,
    qfi_gui_ghz_closed,
    qfi_gui_re,
    qfi_ie_general,
    qfi_m_site_closed,
    qfi_one_site_closed,
    qfi_product_closed,
    qfi_re_general,
)
from framefree.states import IE, RE, HamiltonianSpec, ghz_state, make_pair, product_plus_state
from framefree.tensor import (
    WALSH_KERNEL,
    QuditLayout,
    StateVector,
    hamming,
    local_unitary,
    popcounts,
    subset_transform,
)
from framefree.twirl import (
    LuiState,
    closed_families,
    closed_overlaps,
    ghz_lui,
    lui_coefficients,
    lui_density,
)

from conftest import random_state

Z = np.diag([1.0 + 0j, -1.0])


def z_pair_fn(probe, mode=RE, support=None):
    n = probe.layout.n_sites
    h = HamiltonianSpec.pauli_z_sum(n, support=support)
    return lambda t: make_pair(probe, h, t, mode)


def product_cut_state(rng, encoded_sites: int, total: int):
    """Random probe that factorizes between the first `encoded_sites` sites
    and the rest (the domain where the restricted closed forms are exact)."""
    low = rng.standard_normal(2**encoded_sites) + 1j * rng.standard_normal(2**encoded_sites)
    high = rng.standard_normal(2 ** (total - encoded_sites)) + 1j * rng.standard_normal(
        2 ** (total - encoded_sites))
    amps = np.kron(high / np.linalg.norm(high), low / np.linalg.norm(low))
    return StateVector(QuditLayout(total, 2, 1), amps)


def test_walsh_transform_matches_sign_matrix(rng):
    # oracle: explicit (-1)^(popcount(a & b)) matrix
    v = rng.standard_normal(16)
    signs = np.array([[(-1.0) ** hamming(a & b) for a in range(16)] for b in range(16)])
    assert np.allclose(subset_transform(v, WALSH_KERNEL), signs @ v, atol=1e-12)


class TestSpectrum:
    def test_single_site_unit_coefficients(self):
        lui = LuiState(QuditLayout(1, 2, 1), np.array([1.0, 1.0]), RE, 0.0)
        entries = {e.mask: e for e in lui_spectrum(lui)}
        assert np.isclose(entries[0].eigenvalue, 1.0 / 3.0)
        assert entries[0].degeneracy == 3
        assert np.isclose(entries[1].eigenvalue, 0.0)
        assert entries[1].degeneracy == 1

    def test_qubit_degeneracies(self):
        lui = ghz_lui(3, 0.4)
        for e in lui_spectrum(lui):
            assert e.degeneracy == 3 ** (3 - hamming(e.mask))

    def test_unit_weighted_sum(self, rng):
        psi = random_state(3, rng)
        lui = lui_coefficients(z_pair_fn(psi)(0.7))
        total = sum(e.degeneracy * e.eigenvalue for e in lui_spectrum(lui))
        assert np.isclose(total, 1.0, atol=1e-9)

    def test_matches_dense_eigenvalues(self, rng):
        # oracle: eigendecomposition of the assembled operator
        for n in (1, 2, 3):
            psi = random_state(n, rng)
            lui = lui_coefficients(z_pair_fn(psi)(0.52))
            dense_vals = np.linalg.eigvalsh(lui_density(lui).matrix)
            entries = lui_spectrum(lui)
            predicted = np.sort(np.repeat([e.eigenvalue for e in entries],
                                          [e.degeneracy for e in entries]))
            assert np.max(np.abs(np.sort(dense_vals) - predicted)) < 1e-9


class TestSpectrumPathQfi:
    def test_ie_local_gives_zero(self, rng):
        psi = random_state(2, rng)
        spec_fn = lambda t: lui_spectrum(lui_coefficients(z_pair_fn(psi, IE)(t)))
        for theta in (0.1, 0.8):
            assert qfi_from_spectrum(spec_fn, theta).value <= 1e-8

    def test_ghz_matches_closed(self):
        spec_fn = lambda t: lui_spectrum(lui_coefficients(z_pair_fn(ghz_state(2))(t)))
        got = qfi_from_spectrum(spec_fn, 0.3).value
        assert abs(got - qfi_ghz_closed(2, 0.3)) / qfi_ghz_closed(2, 0.3) < 1e-4

    def test_constant_spectrum_gives_zero(self):
        lui = LuiState(QuditLayout(1, 2, 1), np.array([1.0, 0.7]), RE, 0.0)
        got = qfi_from_spectrum(lambda t: lui_spectrum(lui), 0.3)
        assert got.value == 0.0

    def test_requires_positive_step(self):
        lui = LuiState(QuditLayout(1, 2, 1), np.array([1.0, 0.7]), RE, 0.0)
        with pytest.raises(ValueError, match="step"):
            qfi_from_spectrum(lambda t: lui_spectrum(lui), 0.3, step=0.0)


class TestReGeneral:
    def test_ghz_heisenberg_limit(self):
        for n in (1, 2, 3, 4):
            got = qfi_re_general(z_pair_fn(ghz_state(n)), 1e-4).value
            assert abs(got - 2 * n * n) / (2 * n * n) < 1e-3

    def test_product_standard_limit(self):
        got = qfi_re_general(z_pair_fn(product_plus_state(3)), 1e-4).value
        assert abs(got - 6.0) / 6.0 < 1e-3

    def test_agrees_with_spectrum_path(self, rng):
        for n in (1, 2, 3):
            psi = random_state(n, rng)
            fn = z_pair_fn(psi)
            spec_fn = lambda t: lui_spectrum(lui_coefficients(fn(t)))
            for theta in (0.1, 0.4, 0.9):
                a = qfi_re_general(fn, theta).value
                b = qfi_from_spectrum(spec_fn, theta).value
                assert abs(a - b) <= 1e-6 * max(abs(a), 1e-12)

    def test_exact_derivative_path(self):
        fn = z_pair_fn(ghz_state(3))
        exact = qfi_re_general(fn, 0.3, step=0.0).value
        assert abs(exact - qfi_ghz_closed(3, 0.3)) < 1e-10

    def test_bounded_by_untwirled(self, rng):
        psi = random_state(3, rng)
        h = HamiltonianSpec.pauli_z_sum(3)
        ceiling = f0(psi, h)
        fn = lambda t: make_pair(psi, h, t, RE)
        for theta in np.linspace(0.05, 1.5, 12):
            assert qfi_re_general(fn, theta).value <= ceiling + 1e-6

    def test_small_angle_recovery(self):
        # reversed encoding recovers the untwirled value as theta -> 0
        for n in (1, 2, 3, 4):
            for probe, target in ((ghz_state(n), 2 * n * n), (product_plus_state(n), 2 * n)):
                got = qfi_re_general(z_pair_fn(probe), 1e-4).value
                assert abs(got - target) / target <= 1e-3

    def test_mode_mismatch_rejected(self):
        with pytest.raises(ValueError, match="reversed"):
            qfi_re_general(z_pair_fn(ghz_state(2), IE), 0.2)


class TestIeGeneral:
    def test_local_no_information(self, rng):
        probes = [ghz_state(2), ghz_state(3), product_plus_state(2), product_plus_state(3)]
        probes += [random_state(2, rng) for _ in range(6)]
        for psi in probes:
            n = psi.layout.n_sites
            weights = rng.uniform(0.2, 1.0, n)
            h = HamiltonianSpec(QuditLayout(n, 2, 1), site_weights=weights)
            fn = lambda t: make_pair(psi, h, t, IE)
            assert qfi_ie_general(fn, 0.4).value <= 1e-8

    def test_nonlocal_interaction_informative(self, rng):
        psi = random_state(2, rng)
        h = HamiltonianSpec.dense(psi.layout, np.kron(Z, Z))
        fn = lambda t: make_pair(psi, h, t, IE)
        assert qfi_ie_general(fn, 0.3).value > 1e-4

    def test_zero_angle_finite(self, rng):
        psi = ghz_state(2)
        h = HamiltonianSpec.dense(psi.layout, np.kron(Z, Z))
        fn = lambda t: make_pair(psi, h, t, IE)
        result = qfi_ie_general(fn, 0.0)
        assert np.isfinite(result.value)


class TestF0:
    def test_ghz(self):
        for n in (1, 2, 3):
            assert np.isclose(f0(ghz_state(n), HamiltonianSpec.pauli_z_sum(n)), 2 * n * n)

    def test_product(self):
        for n in (1, 2, 3):
            assert np.isclose(f0(product_plus_state(n), HamiltonianSpec.pauli_z_sum(n)), 2 * n)

    def test_eigenstate_zero(self):
        zero = StateVector(QuditLayout(2, 2, 1), np.array([1.0, 0, 0, 0]))
        assert np.isclose(f0(zero, HamiltonianSpec.pauli_z_sum(2)), 0.0, atol=1e-12)


class TestOneSiteClosed:
    def test_plus_probe_small_angle(self):
        # |+> on the encoded site, unentangled elsewhere: terms are (1, 0)
        assert np.isclose(qfi_one_site_closed(1.0, 0.0, 1e-8), 2.0, atol=1e-6)

    def test_right_angle_zero(self):
        assert np.isclose(qfi_one_site_closed(1.0, 0.0, np.pi / 2), 0.0, atol=1e-12)

    def test_matches_general_on_factorized_probe(self, rng):
        # probe = (random site-0 state) x (random rest); encoding on site 0 only
        psi = product_cut_state(rng, 1, 3)
        h = HamiltonianSpec.pauli_z_sum(3, support=0b001)
        rho = psi.density().matrix
        z1 = local_unitary([Z, np.eye(2), np.eye(2)])
        tr_rho2 = np.einsum("ij,ji->", rho, rho).real
        tr_zrz = np.einsum("ij,ji->", z1 @ rho @ z1, rho).real
        for theta in (0.2, 0.7, 1.1):
            closed = qfi_one_site_closed(tr_rho2, tr_zrz, theta)
            general = qfi_re_general(lambda t: make_pair(psi, h, t, RE), theta).value
            assert abs(closed - general) < 1e-6


class TestMSiteClosed:
    def test_full_support_reduces_to_general(self, rng):
        psi = random_state(3, rng)
        fn = z_pair_fn(psi)
        got = qfi_m_site_closed(fn(0.6))
        assert abs(got - qfi_re_general(fn, 0.6).value) < 1e-8

    def test_single_site_support_matches_one_site_path(self, rng):
        psi = product_cut_state(rng, 1, 3)
        h = HamiltonianSpec.pauli_z_sum(3, support=0b001)
        pair = make_pair(psi, h, 0.45, RE)
        rho = psi.density().matrix
        z1 = local_unitary([Z, np.eye(2), np.eye(2)])
        tr_rho2 = np.einsum("ij,ji->", rho, rho).real
        tr_zrz = np.einsum("ij,ji->", z1 @ rho @ z1, rho).real
        assert abs(qfi_m_site_closed(pair) - qfi_one_site_closed(tr_rho2, tr_zrz, 0.45)) < 1e-8

    def test_factorized_probe_matches_general(self, rng):
        # restricted sum is exact when the probe factorizes across the cut
        psi = product_cut_state(rng, 2, 3)
        h = HamiltonianSpec.pauli_z_sum(3, support=0b011)
        fn = lambda t: make_pair(psi, h, t, RE)
        for theta in (0.3, 0.8):
            assert abs(qfi_m_site_closed(fn(theta)) - qfi_re_general(fn, theta).value) < 1e-8

    def test_entangled_cut_loses_information(self):
        # entanglement across the encoded/unencoded cut carries information the
        # restricted sum cannot see; the full sum keeps it
        h = HamiltonianSpec.pauli_z_sum(2, support=0b01)
        fn = lambda t: make_pair(ghz_state(2), h, t, RE)
        restricted = qfi_m_site_closed(fn(np.pi / 4))
        general = qfi_re_general(fn, np.pi / 4).value
        assert restricted < 1e-8
        assert np.isclose(general, 1.6, atol=1e-6)


class TestClosedForms:
    def test_product_values(self):
        assert np.isclose(qfi_product_closed(3, 0.0), 6.0)
        assert np.isclose(qfi_product_closed(2, np.pi / 2), 0.0, atol=1e-12)
        # direct evaluation: 8 cos^2(0.5) / (1 + cos^2(0.5))
        assert np.isclose(qfi_product_closed(2, 0.5), 3.4806, atol=5e-4)

    def test_ghz_values(self):
        assert np.isclose(qfi_ghz_closed(2, 0.0), 8.0)
        assert np.isclose(qfi_ghz_closed(2, 0.3), 7.049, atol=5e-4)

    def test_ghz_minimum_at_quarter_period(self):
        for n in (2, 3, 4):
            grid = np.linspace(1e-3, np.pi / 2 - 1e-3, 400)
            vals = [qfi_ghz_closed(n, t) for t in grid]
            floor = 2 * n * n * (1 - 1 / 2 ** (n - 1))
            assert min(vals) >= floor - 1e-9

    def test_ghz_stays_above_standard_limit(self):
        for n in range(2, 7):
            for t in np.linspace(0.0, np.pi / 2, 200):
                assert qfi_ghz_closed(n, t) >= 2 * n - 1e-9


class TestGuiRe:
    def test_ghz_small_angle(self):
        pair = make_pair(ghz_state(2), HamiltonianSpec.pauli_z_sum(2), 1e-4, RE)
        assert abs(qfi_gui_re(pair) - 8.0) / 8.0 < 1e-3

    def test_ghz_quarter_period_zero(self):
        pair = make_pair(ghz_state(2), HamiltonianSpec.pauli_z_sum(2), np.pi / 4, RE)
        assert qfi_gui_re(pair) < 1e-8

    def test_dips_below_standard_limit(self):
        thetas = np.linspace(0.01, np.pi / 2 - 0.01, 100)
        pairs = [make_pair(ghz_state(2), HamiltonianSpec.pauli_z_sum(2), t, RE) for t in thetas]
        vals = [qfi_gui_re(p, step=0.0) for p in pairs]
        assert min(vals) < 4.0  # below 2N at some angle
        lui_vals = [qfi_ghz_closed(2, t) for t in thetas]
        assert min(lui_vals) >= 4.0 - 1e-9

    def test_matches_ghz_closed_form(self):
        for n in (2, 3):
            for theta in (0.05, 0.4, 1.0):
                pair = make_pair(ghz_state(n), HamiltonianSpec.pauli_z_sum(n), theta, RE)
                assert abs(qfi_gui_re(pair, step=0.0) - qfi_gui_ghz_closed(n, theta)) < 1e-9

    def test_stationary_limit_recovers_ceiling(self):
        pair = make_pair(ghz_state(2), HamiltonianSpec.pauli_z_sum(2), 0.0, RE)
        assert np.isclose(qfi_gui_re(pair), 8.0, atol=1e-9)


def dense_mixed_information(rho_fn, theta, h=1e-5, floor=1e-12):
    """Brute-force oracle: full mixed-state information sum
    2 |<m| d(rho) |n>|^2 / (lambda_m + lambda_n) on the dense operator,
    with no assumption that the eigenvectors are angle-independent."""
    rho = rho_fn(theta)
    drho = (rho_fn(theta + h) - rho_fn(theta - h)) / (2 * h)
    vals, vecs = np.linalg.eigh(rho)
    mat = vecs.conj().T @ drho @ vecs
    total = 0.0
    for m in range(len(vals)):
        for n in range(len(vals)):
            denom = vals[m] + vals[n]
            if denom > floor:
                total += 2.0 * abs(mat[m, n]) ** 2 / denom
    return total


class TestDenseOracle:
    def test_coefficient_route_matches_textbook_sum(self, rng):
        for d, n in ((2, 2), (2, 3), (3, 2)):
            lay = QuditLayout(n, d, 1)
            amps = rng.standard_normal(lay.dim) + 1j * rng.standard_normal(lay.dim)
            psi = StateVector(lay, amps / np.linalg.norm(amps))
            gen = rng.standard_normal((lay.dim,) * 2) + 1j * rng.standard_normal((lay.dim,) * 2)
            h = HamiltonianSpec.dense(lay, (gen + gen.conj().T) / 2)
            fn = lambda t: make_pair(psi, h, t, RE)
            rho_fn = lambda t: lui_density(lui_coefficients(fn(t))).matrix
            for theta in (0.2, 0.7):
                brute = dense_mixed_information(rho_fn, theta)
                ours = qfi_re_general(fn, theta).value
                assert abs(brute - ours) <= 1e-8 * max(ours, 1.0)


class TestDenominatorRule:
    def test_dropped_terms_reported(self):
        # GHZ at theta = 0: odd-mask families are 0/0; the exact second
        # derivatives resolve them to their limit, so nothing is dropped
        result = qfi_re_general(z_pair_fn(ghz_state(2)), 0.0)
        assert result.dropped == ()
        assert abs(result.value - 8.0) <= 8.0 * 1e-6

    @pytest.mark.parametrize("step", [0.0, DEFAULT_STEP])
    @pytest.mark.parametrize("probe, n, theta, closed", [
        (ghz_state, 2, 0.0, 8.0),
        (ghz_state, 2, np.pi / 4, 4.0),
        (ghz_state, 3, np.pi / 6, 13.5),
        (product_plus_state, 3, 0.0, 6.0),
    ])
    def test_stationary_angles_resolved(self, probe, n, theta, closed, step):
        # families whose signed sum and its derivative both vanish take the
        # continuous-extension value 2 x (second derivative)
        psi = probe(n)
        fn = z_pair_fn(psi)
        tol = f0(psi, HamiltonianSpec.pauli_z_sum(n)) * (1e-6 if step else 1e-8)
        result = qfi_re_general(fn, theta, step)
        assert result.dropped == ()
        assert abs(result.value - closed) <= tol
        assert abs(qfi_m_site_closed(fn(theta), step) - closed) <= tol

    @pytest.mark.parametrize("probe, n, centre", [
        ("ghz", 2, 0.0),
        ("ghz", 2, np.pi / 4),
        ("ghz", 3, np.pi / 6),
        ("ghz", 4, np.pi / 8),
        ("product", 3, 0.0),
    ])
    def test_sweep_around_stationary_angles(self, probe, n, centre):
        # offsets 0 and +/-1e-k, k = 2..10: the rule must move between the
        # ratio and the limit without raising or jumping, on the closed-form
        # scan columns and on the general route in both step modes
        psi = ghz_state(n) if probe == "ghz" else product_plus_state(n)
        closed = qfi_ghz_closed if probe == "ghz" else qfi_product_closed
        fn = z_pair_fn(psi)
        offsets = [0.0] + [sign * 10.0**-k for k in range(2, 11) for sign in (1, -1)]
        for theta in centre + np.array(offsets):
            want = closed(n, theta)
            got = {col: v[0] for col, v in
                   _scan_columns(probe, n, np.array([theta]), ("cfi_lst", "cfi_lbm")).items()}
            for step in (0.0, DEFAULT_STEP):
                got[f"re_step{step:g}"] = qfi_re_general(fn, theta, step).value
            for route, value in got.items():
                assert abs(value - want) <= 1e-6 * want, (route, theta, value, want)

    def test_negative_denominator_aborts(self):
        coeffs = np.array([1.0, 1.0, 0.0, 1.0])  # infeasible: signed sum < 0
        signed = subset_transform(coeffs, WALSH_KERNEL)
        assert signed.min() < -1e-8
        with pytest.raises(RuntimeError, match="PSD"):
            fisher_from_coefficients(coeffs, np.zeros(4), np.zeros(4))


class TestWeightRoute:
    @staticmethod
    def angles(n):
        stationary = np.arange(2 * n + 1) * np.pi / (2 * n)
        seeded = np.random.default_rng(n).uniform(0.0, np.pi, 5)
        return np.concatenate([stationary, stationary[1:] + 1e-9,
                               [3e-4, 1e-6, 1e-160, 1e-170], seeded])

    @pytest.mark.parametrize("probe", ["ghz", "product"])
    @pytest.mark.parametrize("n", list(range(1, 11)) + [16, 32, 63, 64])
    def test_matches_closed_forms(self, probe, n):
        # one array call over every angle, including the exact zeros at
        # k pi/(2N) and 0 and the product probe's quartic zeros near 3e-4;
        # the closed forms themselves carry eps f0 where the QFI vanishes
        theta = self.angles(n)
        closed = qfi_ghz_closed if probe == "ghz" else qfi_product_closed
        got = fisher_from_weight_classes(closed_families(probe, n, theta))
        want = closed(n, theta)
        f0_closed = 2.0 * n * n if probe == "ghz" else 2.0 * n
        assert got.shape == theta.shape
        assert np.all(np.abs(got - want) <= 1e-13 * want + 4.0 * np.finfo(float).eps * f0_closed)

    @pytest.mark.parametrize("probe", ["ghz", "product"])
    @pytest.mark.parametrize("n", [2, 5, 8])
    def test_agrees_with_mask_route_at_generic_angles(self, probe, n):
        theta = np.random.default_rng(n).uniform(0.05, 1.5, 7)
        weight = fisher_from_weight_classes(closed_families(probe, n, theta))
        for t, value in zip(theta, weight):
            mask = fisher_from_coefficients(*closed_overlaps(probe, n, t)[:, popcounts(n)])
            assert abs(value - mask) <= 1e-10 * mask

    def test_rule_rejects_negative_family(self):
        with pytest.raises(RuntimeError, match="PSD"):
            information_sum(np.array([[1.0, -1e-3]]), np.zeros((1, 2)), np.zeros((1, 2)),
                            np.array([1.0, 1.0]), 1e-15)
