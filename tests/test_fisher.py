import warnings

import numpy as np
import pytest

from framefree.cli import _scan_columns
from framefree.fisher import (
    f0,
    fisher_from_coefficients,
    fisher_from_weight_classes,
    information_sum,
    lui_spectrum,
    qfi_from_spectrum,
    qfi_ghz_closed,
    qfi_gui_re,
    qfi_ie_general,
    qfi_m_site_closed,
    qfi_product_closed,
    qfi_re_general,
)
from framefree.measure import DM, cfi, readout_kernel
from framefree.states import IE, RE, HamiltonianSpec, ghz_state, make_pair, product_plus_state
from framefree.tensor import (
    WALSH_KERNEL,
    QuditLayout,
    StateVector,
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
    swap_overlaps,
)

from reference import hamming, qfi_gui_ghz_closed, qfi_one_site_closed
from conftest import random_hermitian, random_state

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
        lui = LuiState(QuditLayout(1, 2, 1), np.array([1.0, 1.0]))
        eigenvalues, degeneracies = lui_spectrum(lui)
        assert np.isclose(eigenvalues[0], 1.0 / 3.0)
        assert degeneracies[0] == 3
        assert np.isclose(eigenvalues[1], 0.0)
        assert degeneracies[1] == 1

    def test_qubit_degeneracies(self):
        _, degeneracies = lui_spectrum(ghz_lui(3, 0.4))
        assert degeneracies.tolist() == [3 ** (3 - hamming(mask)) for mask in range(8)]

    def test_unit_weighted_sum(self, rng):
        psi = random_state(3, rng)
        lui = lui_coefficients(z_pair_fn(psi)(0.7))
        eigenvalues, degeneracies = lui_spectrum(lui)
        assert np.isclose(np.sum(degeneracies * eigenvalues), 1.0, atol=1e-9)

    def test_matches_dense_eigenvalues(self, rng):
        # oracle: eigendecomposition of the assembled operator
        for n in (1, 2, 3):
            psi = random_state(n, rng)
            lui = lui_coefficients(z_pair_fn(psi)(0.52))
            dense_vals = np.linalg.eigvalsh(lui_density(lui).matrix)
            predicted = np.sort(np.repeat(*lui_spectrum(lui)))
            assert np.max(np.abs(np.sort(dense_vals) - predicted)) < 1e-9


class TestSpectrumPathQfi:
    def test_ie_local_gives_zero(self, rng):
        psi = random_state(2, rng)
        for theta in (0.1, 0.8):
            assert qfi_from_spectrum(swap_overlaps(z_pair_fn(psi, IE)(theta)), 2) <= 1e-12

    def test_ghz_matches_closed(self):
        got = qfi_from_spectrum(swap_overlaps(z_pair_fn(ghz_state(2))(0.3)), 2)
        assert abs(got - qfi_ghz_closed(2, 0.3)) / qfi_ghz_closed(2, 0.3) < 1e-12

    def test_qutrit_spectrum(self, rng):
        # the d = 3 eigenvalue kernel and degeneracies vs the dense invariant
        # state: its eigenvalues, and (its eigenvectors being fixed) the
        # information by central difference of its sorted spectrum
        lay = QuditLayout(2, 3, 1)
        psi = random_state(2, rng, 3)
        h = HamiltonianSpec.dense(lay, random_hermitian(lay.dim, rng))
        fn = lambda t: make_pair(psi, h, t, RE)
        step = 1e-5
        for theta in (0.3, 0.9):
            lui = lui_coefficients(fn(theta))
            lam, up, down = (np.linalg.eigvalsh(lui_density(lui_coefficients(fn(t))).matrix)
                             for t in (theta, theta + step, theta - step))
            predicted = np.sort(np.repeat(*lui_spectrum(lui)))
            assert np.max(np.abs(lam - predicted)) < 1e-12
            want = np.sum(((up - down) / (2 * step)) ** 2 / lam)
            got = qfi_from_spectrum(swap_overlaps(fn(theta)), 3)
            assert abs(got - want) <= 1e-6 * want, (theta, got, want)

    def test_constant_spectrum_gives_zero(self):
        assert qfi_from_spectrum([[1.0, 0.7], [0.0, 0.0], [0.0, 0.0]], 2) == 0.0


class TestReGeneral:
    def test_ghz_heisenberg_limit(self):
        for n in (1, 2, 3, 4):
            got = qfi_re_general(z_pair_fn(ghz_state(n)), 1e-4)
            assert abs(got - 2 * n * n) / (2 * n * n) < 1e-3

    def test_product_standard_limit(self):
        got = qfi_re_general(z_pair_fn(product_plus_state(3)), 1e-4)
        assert abs(got - 6.0) / 6.0 < 1e-3

    def test_agrees_with_spectrum_path(self, rng):
        for n in (1, 2, 3):
            psi = random_state(n, rng)
            fn = z_pair_fn(psi)
            for theta in (0.1, 0.4, 0.9):
                a = qfi_re_general(fn, theta)
                b = qfi_from_spectrum(swap_overlaps(fn(theta)), 2)
                assert abs(a - b) <= 1e-12 * max(abs(a), 1e-12)

    def test_exact_derivative_path(self):
        fn = z_pair_fn(ghz_state(3))
        exact = qfi_re_general(fn, 0.3)
        assert abs(exact - qfi_ghz_closed(3, 0.3)) < 1e-10

    def test_bounded_by_untwirled(self, rng):
        psi = random_state(3, rng)
        h = HamiltonianSpec.pauli_z_sum(3)
        ceiling = f0(psi, h)
        fn = lambda t: make_pair(psi, h, t, RE)
        for theta in np.linspace(0.05, 1.5, 12):
            assert qfi_re_general(fn, theta) <= ceiling + 1e-6

    def test_small_angle_recovery(self):
        # reversed encoding recovers the untwirled value as theta -> 0
        for n in (1, 2, 3, 4):
            for probe, target in ((ghz_state(n), 2 * n * n), (product_plus_state(n), 2 * n)):
                got = qfi_re_general(z_pair_fn(probe), 1e-4)
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
            assert qfi_ie_general(fn, 0.4) <= 1e-8

    def test_nonlocal_interaction_informative(self, rng):
        psi = random_state(2, rng)
        h = HamiltonianSpec.dense(psi.layout, np.kron(Z, Z))
        fn = lambda t: make_pair(psi, h, t, IE)
        assert qfi_ie_general(fn, 0.3) > 1e-4

    def test_zero_angle_finite(self, rng):
        psi = ghz_state(2)
        h = HamiltonianSpec.dense(psi.layout, np.kron(Z, Z))
        fn = lambda t: make_pair(psi, h, t, IE)
        assert np.isfinite(qfi_ie_general(fn, 0.0))


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
            general = qfi_re_general(lambda t: make_pair(psi, h, t, RE), theta)
            assert abs(closed - general) < 1e-6


class TestMSiteClosed:
    def test_full_support_reduces_to_general(self, rng):
        psi = random_state(3, rng)
        fn = z_pair_fn(psi)
        got = qfi_m_site_closed(fn(0.6))
        assert abs(got - qfi_re_general(fn, 0.6)) < 1e-8

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
            assert abs(qfi_m_site_closed(fn(theta)) - qfi_re_general(fn, theta)) < 1e-8

    def test_entangled_cut_loses_information(self):
        # entanglement across the encoded/unencoded cut carries information the
        # restricted sum cannot see; the full sum keeps it
        h = HamiltonianSpec.pauli_z_sum(2, support=0b01)
        fn = lambda t: make_pair(ghz_state(2), h, t, RE)
        restricted = qfi_m_site_closed(fn(np.pi / 4))
        general = qfi_re_general(fn, np.pi / 4)
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

    def test_ghz_scaled_form_matches_the_written_out_one(self):
        # scaling by 2^(1-N) is exact: bit for bit where 2^(N-1) is a float
        grid = np.concatenate([np.linspace(-np.pi, np.pi, 2001), [1e-9, 1e-170, -1e-3, 7.0]])
        for n in range(1, 65):
            s, c = np.sin(n * grid) ** 2, np.cos(n * grid) ** 2
            want = 2.0 * n * n * (1.0 - s / (c + 2.0 ** (n - 1)))
            assert np.array_equal(qfi_ghz_closed(n, grid), want), n

    @pytest.mark.parametrize("n", [1025, 2000, 10_000])
    def test_ghz_beyond_the_float_powers_of_two(self, n):
        # 2.0 ** (n - 1) raised OverflowError from N = 1025; the sum is 2 N^2 to rounding
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = qfi_ghz_closed(n, np.array([0.0, 0.1, 1.0, np.pi / (2 * n)]))
        assert np.all(got == 2.0 * n * n)

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
        vals = [qfi_gui_re(p) for p in pairs]
        assert min(vals) < 4.0  # below 2N at some angle
        lui_vals = [qfi_ghz_closed(2, t) for t in thetas]
        assert min(lui_vals) >= 4.0 - 1e-9

    def test_matches_ghz_closed_form(self):
        for n in (2, 3):
            for theta in (0.05, 0.4, 1.0):
                pair = make_pair(ghz_state(n), HamiltonianSpec.pauli_z_sum(n), theta, RE)
                assert abs(qfi_gui_re(pair) - qfi_gui_ghz_closed(n, theta)) < 1e-9

    def test_stationary_limit_recovers_ceiling(self, rng):
        pair = make_pair(ghz_state(2), HamiltonianSpec.pauli_z_sum(2), 0.0, RE)
        assert np.isclose(qfi_gui_re(pair), 8.0, atol=1e-9)
        # dense generators: <H> carries an imaginary rounding residue, which
        # must not count as a slope where the two copies coincide
        for n, d in ((2, 2), (2, 3)):
            lay = QuditLayout(n, d, 1)
            psi = random_state(n, rng, d)
            h = HamiltonianSpec.dense(lay, random_hermitian(lay.dim, rng))
            for theta in (0.0, 1e-170):
                got = qfi_gui_re(make_pair(psi, h, theta, RE))
                assert abs(got - f0(psi, h)) <= 1e-12 * f0(psi, h)


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
                ours = qfi_re_general(fn, theta)
                assert abs(brute - ours) <= 1e-8 * max(ours, 1.0)


class TestDenominatorRule:
    # `ignored` is passed the way the general_route benchmark workload
    # passes a derivative step: positionally, to the four functions it calls
    @pytest.mark.parametrize("ignored", [0.0, 1e-5])
    @pytest.mark.parametrize("probe, n, theta, closed", [
        (ghz_state, 2, 0.0, 8.0),
        (ghz_state, 2, np.pi / 4, 4.0),
        (ghz_state, 3, np.pi / 6, 13.5),
        (product_plus_state, 3, 0.0, 6.0),
    ])
    def test_stationary_angles_resolved(self, probe, n, theta, closed, ignored):
        # families whose signed sum and its derivative both vanish take the
        # continuous-extension value 2 x (second derivative)
        psi = probe(n)
        fn = z_pair_fn(psi)
        ie_fn = z_pair_fn(psi, IE)
        tol = f0(psi, HamiltonianSpec.pauli_z_sum(n)) * 1e-12
        # the product input sits at theta = 0, where the global twirl keeps f0
        gui = qfi_gui_ghz_closed(n, theta) if probe is ghz_state else closed
        for route, value, want in (
                ("re", lambda *a: qfi_re_general(fn, theta, *a), closed),
                ("m_site", lambda *a: qfi_m_site_closed(fn(theta), *a), closed),
                ("ie", lambda *a: qfi_ie_general(ie_fn, theta, *a), 0.0),
                ("gui", lambda *a: qfi_gui_re(fn(theta), *a), gui)):
            assert type(value()) is float, route
            assert value(ignored) == value(), route
            assert abs(value(ignored) - want) <= tol, (route, value(ignored), want)

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
        # scan columns and on the general route
        psi = ghz_state(n) if probe == "ghz" else product_plus_state(n)
        closed = qfi_ghz_closed if probe == "ghz" else qfi_product_closed
        fn = z_pair_fn(psi)
        offsets = [0.0] + [sign * 10.0**-k for k in range(2, 11) for sign in (1, -1)]
        for theta in centre + np.array(offsets):
            want = closed(n, theta)
            got = {col: v[0] for col, v in
                   _scan_columns(probe, n, np.array([theta]), ("cfi_lst", "cfi_lbm")).items()}
            got["re_general"] = qfi_re_general(fn, theta)
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

    @pytest.mark.parametrize("probe", ["ghz", "product"])
    @pytest.mark.parametrize("n", range(1, 11))
    def test_dm_families_match_mask_route(self, probe, n):
        # the direct readout's weight classes against its kernel on the 2^N
        # mask rows, at 0, the stationary angles and generic angles
        theta = np.concatenate([[0.0, 1e-4, 0.3, 0.7, 1.2], np.arange(2 * n + 1) * np.pi / (2 * n)])
        families = closed_families(probe, n, theta, readout_kernel(DM, 2))
        got = fisher_from_weight_classes(families)
        f0_closed = 2.0 * n * n if probe == "ghz" else 2.0 * n
        for t, value in zip(theta, got):
            want = cfi(DM, closed_overlaps(probe, n, t)[:, popcounts(n)], 2)
            assert abs(value - want) <= 1e-13 * f0_closed, (t, value, want)

    @pytest.mark.parametrize("n", list(range(1, 11)) + [16, 32, 63, 64])
    def test_dm_product_closed_form(self, n):
        # independent sites: N sin^2(2t) / ((1 + cos^2 t)(1 + sin^2 t)), 4N/9 at pi/4
        theta = np.concatenate([self.angles(n), np.linspace(0.0, np.pi / 2, 2001)])
        families = closed_families("product", n, theta, readout_kernel(DM, 2))
        got = fisher_from_weight_classes(families)
        want = n * np.sin(2 * theta) ** 2 / ((1 + np.cos(theta) ** 2) * (1 + np.sin(theta) ** 2))
        assert np.all(np.abs(got - want) <= 1e-13 * 2.0 * n)

    def test_rule_rejects_negative_family(self):
        with pytest.raises(RuntimeError, match="PSD"):
            information_sum(np.array([[1.0, -1e-3]]), np.zeros((1, 2)), np.zeros((1, 2)),
                            np.array([1.0, 1.0]), 1e-15)
