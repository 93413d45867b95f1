import numpy as np
import pytest

from framefree.fisher import lui_spectrum
from framefree.states import IE, RE, HamiltonianSpec, ghz_state, make_pair, product_plus_state
from framefree.tensor import (
    WALSH_KERNEL,
    DensityOperator,
    QuditLayout,
    StateVector,
    haar_unitary,
    hamming,
    local_unitary,
    partial_trace,
    popcounts,
    ptrace_matrix,
    subset_transform,
    swap_operator,
    trace_product,
)
from framefree.twirl import (
    LuiState,
    _lui_matrix,
    closed_families,
    closed_gap,
    closed_overlaps,
    g_twirl_apply,
    ghz_lui,
    global_overlap_series,
    gui_density,
    gui_state,
    lui_coefficients,
    lui_density,
    mc_local_twirl,
    pair_product_density,
    product_lui,
    swap_overlaps,
)
from framefree.verify import lui_state_checks

from conftest import random_hermitian, random_state


def z_sum_pair(probe, theta, mode=RE):
    n = probe.layout.n_sites
    return make_pair(probe, HamiltonianSpec.pauli_z_sum(n), theta, mode)


def trace_dist(a, b):
    vals = np.linalg.eigvalsh(a - b)
    return 0.5 * np.sum(np.abs(vals))


class TestOverlapCoefficient:
    def test_ghz_full_mask(self):
        for n in (2, 3):
            pair = z_sum_pair(ghz_state(n), 0.47)
            got = swap_overlaps(pair, 0)[0, (1 << n) - 1]
            assert np.isclose(got, np.cos(n * 0.47) ** 2, atol=1e-12)

    def test_ghz_partial_masks_half(self):
        pair = z_sum_pair(ghz_state(3), 0.31)
        for mask in (0b001, 0b011, 0b101, 0b110):
            assert np.isclose(swap_overlaps(pair, 0)[0, mask], 0.5, atol=1e-12)

    def test_product_power_law(self):
        pair = z_sum_pair(product_plus_state(3), 0.62)
        for mask in range(8):
            expected = np.cos(0.62) ** (2 * hamming(mask))
            assert np.isclose(swap_overlaps(pair, 0)[0, mask], expected, atol=1e-12)

    def test_empty_mask_is_one(self, rng):
        pair = z_sum_pair(random_state(2, rng), 1.1)
        assert swap_overlaps(pair, 0)[0, 0] == 1.0

    def test_matches_swap_expectation(self, rng):
        # oracle: Tr(S_a P) on the dense two-copy product
        psi = random_state(2, rng)
        pair = z_sum_pair(psi, 0.8)
        dense = pair_product_density(pair).matrix
        lay2 = pair.layout.two_copy()
        for mask in range(4):
            expect = trace_product(swap_operator(mask, lay2), dense).real
            assert np.isclose(swap_overlaps(pair, 0)[0, mask], expect, atol=1e-11)


def density_route(pair):
    """Reference c and c' for every mask from reduced densities of the full
    single-copy densities and their commutator derivatives."""
    lay = pair.layout
    n, d = lay.n_sites, lay.local_dim
    h = pair.hamiltonian.dense_matrix()
    rho_p = pair.psi_plus.density().matrix
    rho_m = pair.psi_minus.density().matrix
    sign = 1.0 if pair.mode == IE else -1.0
    drho_p = -1j * (h @ rho_p - rho_p @ h)
    drho_m = sign * (-1j) * (h @ rho_m - rho_m @ h)
    c, dc = np.ones(1 << n), np.zeros(1 << n)
    for mask in range(1, 1 << n):
        red = lambda mat: ptrace_matrix(mat, d, n, mask)
        c[mask] = trace_product(partial_trace(pair.psi_plus.density(), mask).matrix,
                                partial_trace(pair.psi_minus.density(), mask).matrix).real
        dc[mask] = (trace_product(red(drho_p), red(rho_m))
                    + trace_product(red(rho_p), red(drho_m))).real
    return c, dc


def random_pairs(rng, mode):
    """Random qubit probes under random-weight Z sums (N up to 5) and random
    qutrit probes under dense generators (N up to 3)."""
    for n in range(1, 6):
        h = HamiltonianSpec.pauli_z_sum(n, rng.uniform(0.2, 1.0, n))
        yield lambda t, psi=random_state(n, rng), h=h: make_pair(psi, h, t, mode)
    for n in range(1, 4):
        lay = QuditLayout(n, 3, 1)
        h = HamiltonianSpec.dense(lay, random_hermitian(lay.dim, rng) / np.sqrt(lay.dim))
        yield lambda t, psi=random_state(n, rng, 3), h=h: make_pair(psi, h, t, mode)


class TestSwapOverlaps:
    @pytest.mark.parametrize("mode", [IE, RE])
    def test_matches_density_route(self, rng, mode):
        for pair_fn in random_pairs(rng, mode):
            pair = pair_fn(0.7)
            c, dc = density_route(pair)
            got = swap_overlaps(pair)
            assert np.max(np.abs(got[0] - c)) <= 1e-14
            assert np.max(np.abs(got[1] - dc)) <= 1e-14 * max(1.0, np.max(np.abs(dc)))
            assert np.max(np.abs(swap_overlaps(pair, 0)[0] - got[0])) <= 1e-14

    @pytest.mark.parametrize("mode", [IE, RE])
    def test_second_derivative_matches_difference_of_first(self, rng, mode):
        h = 1e-5
        for pair_fn in random_pairs(rng, mode):
            ddc = swap_overlaps(pair_fn(0.7))[2]
            fd = (swap_overlaps(pair_fn(0.7 + h), 1)[1]
                  - swap_overlaps(pair_fn(0.7 - h), 1)[1]) / (2 * h)
            assert np.max(np.abs(ddc - fd)) <= 1e-8 * max(1.0, np.max(np.abs(ddc)))

    def test_out_of_range_coefficient_rejected(self):
        pair = z_sum_pair(ghz_state(2), 0.3)
        pair.psi_minus.amplitudes = 2.0 * pair.psi_minus.amplitudes
        with pytest.raises(RuntimeError, match="outside"):
            swap_overlaps(pair, 0)


class TestLuiCoefficients:
    def test_zero_angle_reduces_to_purity(self, rng):
        # oracle: purity of each reduction of the probe
        psi = random_state(3, rng)
        pair = z_sum_pair(psi, 0.0)
        lui = lui_coefficients(pair)
        rho = psi.density()
        for mask in range(1, 8):
            red = partial_trace(rho, mask).matrix
            assert np.isclose(lui.coeffs[mask], np.trace(red @ red).real, atol=1e-11)

    def test_ie_thetas_all_match_zero_angle(self, rng):
        psi = random_state(2, rng)
        base = lui_coefficients(z_sum_pair(psi, 0.0, IE)).coeffs
        for theta in (0.3, 0.9, 1.4):
            now = lui_coefficients(z_sum_pair(psi, theta, IE)).coeffs
            assert np.allclose(now, base, atol=1e-11)

    def test_ghz_quarter_pi(self):
        lui = lui_coefficients(z_sum_pair(ghz_state(2), np.pi / 4))
        assert np.allclose(lui.coeffs, [1.0, 0.5, 0.5, 0.0], atol=1e-12)

    def test_complement_symmetry_at_zero(self, rng):
        # pure global state: reductions onto a mask and its complement share purity
        psi = random_state(3, rng)
        lui = lui_coefficients(z_sum_pair(psi, 0.0))
        full = 0b111
        for mask in range(1, 7):
            assert np.isclose(lui.coeffs[mask], lui.coeffs[full ^ mask], atol=1e-11)

    def test_closed_form_models_match_numeric(self):
        for n in (1, 2, 3):
            for theta in (0.0, 0.5, 1.2):
                ghz_num = lui_coefficients(z_sum_pair(ghz_state(n), theta)).coeffs
                assert np.allclose(ghz_num, ghz_lui(n, theta).coeffs, atol=1e-12)
                prod_num = lui_coefficients(z_sum_pair(product_plus_state(n), theta)).coeffs
                assert np.allclose(prod_num, product_lui(n, theta).coeffs, atol=1e-12)

    def test_exact_derivatives_match_finite_difference(self, rng):
        psi = random_state(2, rng)
        h = 1e-6
        for mode in (IE, RE):
            exact = swap_overlaps(z_sum_pair(psi, 0.7, mode), 1)[1]
            fd = (lui_coefficients(z_sum_pair(psi, 0.7 + h, mode)).coeffs
                  - lui_coefficients(z_sum_pair(psi, 0.7 - h, mode)).coeffs) / (2 * h)
            assert np.allclose(exact, fd, atol=1e-8)

    def test_closed_form_derivatives(self):
        h = 1e-6
        for n in (2, 3):
            ghz = closed_overlaps("ghz", n, [0.4 - h, 0.4, 0.4 + h])[..., popcounts(n)]
            fd = (ghz[0, 2] - ghz[0, 0]) / (2 * h)
            assert np.allclose(ghz[1, 1], fd, atol=1e-8)
            prod = closed_overlaps("product", n, [0.4 - h, 0.4, 0.4 + h])[..., popcounts(n)]
            fd = (prod[0, 2] - prod[0, 0]) / (2 * h)
            assert np.allclose(prod[1, 1], fd, atol=1e-8)
            fd2 = (prod[1, 2] - prod[1, 0]) / (2 * h)
            assert np.allclose(prod[2, 1], fd2, atol=1e-6)


class TestClosedOverlaps:
    @pytest.mark.parametrize("probe", ["ghz", "product"])
    @pytest.mark.parametrize("n", range(1, 7))
    def test_matches_swap_overlaps(self, probe, n):
        # both probes are symmetric under site permutation: the weight-indexed
        # closed form, expanded over masks, is every row of the numeric route
        psi = ghz_state(n) if probe == "ghz" else product_plus_state(n)
        seeded = np.random.default_rng(n).uniform(0.0, np.pi, 3)
        angles = np.concatenate([[0.0, np.pi / 2], np.arange(n + 1) * np.pi / (2 * n), seeded])
        closed = closed_overlaps(probe, n, angles)
        assert closed.shape == (3, angles.size, n + 1)
        for order in (0, 1):
            assert np.array_equal(closed_overlaps(probe, n, angles, order), closed[:order + 1])
        for i, theta in enumerate(angles):
            numeric = swap_overlaps(z_sum_pair(psi, theta))
            assert np.allclose(closed[:, i, popcounts(n)], numeric, rtol=0, atol=1e-11 * n * n)


class TestClosedFamilies:
    @pytest.mark.parametrize("probe", ["ghz", "product"])
    @pytest.mark.parametrize("n", range(1, 11))
    def test_matches_walsh_transform(self, probe, n):
        # the factorised class sums against the Walsh transform of the mask
        # rows; the transform's own rounding is at most n eps sum|row|
        seeded = np.random.default_rng(n).uniform(0.0, np.pi, 3)
        angles = np.concatenate([[0.0, 3e-4], np.arange(1, 2 * n + 1) * np.pi / (2 * n), seeded])
        families = closed_families(probe, n, angles)
        assert families.shape == (3, angles.size, n + 1)
        rows = closed_overlaps(probe, n, angles)[..., popcounts(n)]
        walsh = subset_transform(rows, WALSH_KERNEL)
        tol = 2.0 * n * np.finfo(float).eps * np.abs(rows).sum(axis=-1, keepdims=True)
        assert np.all(np.abs(families[..., popcounts(n)] - walsh) <= tol)

    def test_exact_zeros_at_zero_angle(self):
        # theta = 0 is a true zero of every class but w = 0 for the product
        # probe and of the odd classes for GHZ: no rounding residue
        den = closed_families("product", 6, 0.0)[0]
        assert den[0] == 2.0**6 and np.all(den[1:] == 0.0)
        den = closed_families("ghz", 5, 0.0)[0]
        assert np.all(den[1::2] == 0.0) and np.all(den[2::2] == 1.0)

    @pytest.mark.parametrize("probe", ["ghz", "product"])
    def test_subnormal_angles_take_the_zero_angle_value(self, probe):
        # below sqrt(tiny) sin^2 is subnormal; the families are those at 0
        at_zero = closed_families(probe, 64, 0.0)
        for theta in (1e-160, 1e-170, -1e-200):
            assert np.array_equal(closed_families(probe, 64, theta), at_zero)


class TestClosedGap:
    @pytest.mark.parametrize("probe", ["ghz", "product"])
    def test_matches_mpmath(self, probe):
        # 1 - s to full relative precision near theta = 0, where forming it
        # from the rounded s loses digits
        mp = pytest.importorskip("mpmath")
        mp.mp.dps = 40
        angles = np.concatenate([np.linspace(0.0, 0.05, 101)[1:], [1e-9, 1e-6, 3e-4]])
        for n in range(1, 11):
            got = closed_gap(probe, n, angles)
            for theta, value in zip(angles, got):
                t = mp.mpf(theta)
                s = mp.cos(n * t) ** 2 if probe == "ghz" else mp.cos(t) ** (2 * n)
                assert abs(value - (1 - s)) <= 1e-14 * (1 - s), (n, theta)


class TestLuiDensity:
    def test_single_site_symmetric_projector(self, rng):
        # oracle: (I + S) / (d (d + 1)) for unit coefficients
        for d in (2, 3):
            lay = QuditLayout(1, d, 1)
            lui = LuiState(lay, np.array([1.0, 1.0]), RE, 0.0)
            dense = lui_density(lui).matrix
            swap = swap_operator(1, lay.two_copy())
            expected = (np.eye(d * d) + swap) / (d * (d + 1))
            assert np.allclose(dense, expected, atol=1e-12)

    def test_unit_trace_random_pairs(self, rng):
        for n in (1, 2, 3):
            psi = random_state(n, rng)
            dense = lui_density(lui_coefficients(z_sum_pair(psi, 0.9))).matrix
            assert np.isclose(dense.trace().real, 1.0, atol=1e-10)

    @pytest.mark.parametrize("n, d", [(1, 2), (2, 2), (3, 2), (4, 2), (5, 2),
                                      (1, 3), (2, 3), (3, 3)])
    def test_scatter_matches_swap_operator_sum(self, rng, n, d):
        # oracle: the weighted sum of dense swap operators
        lay = QuditLayout(n, d, 1)
        lui = LuiState(lay, rng.uniform(0.0, 1.0, 1 << n), RE, 0.0)
        weights = subset_transform(lui.coeffs, [[1.0, -1.0 / d], [-1.0 / d, 1.0]])
        expected = np.zeros((lay.dim ** 2, lay.dim ** 2), dtype=complex)
        for m in range(1 << n):
            expected += weights[m] * swap_operator(m, lay.two_copy())
        expected /= (d * d - 1.0) ** n
        got = _lui_matrix(lui)
        assert got.dtype == float
        assert np.max(np.abs(got - expected)) <= 1e-15

    def test_matches_brute_force_single_site_twirl(self, rng):
        # oracle: Monte-Carlo twirl of |psi><psi| x |psi><psi| at one site
        psi = random_state(1, rng)
        pair = z_sum_pair(psi, 0.0)
        analytic = lui_density(lui_coefficients(pair)).matrix
        sampled = mc_local_twirl(pair, 20000, np.random.default_rng(321)).matrix
        assert trace_dist(analytic, sampled) < 0.02


class TestGui:
    def test_ie_pure_overlap_one(self, rng):
        pair = z_sum_pair(random_state(2, rng), 0.8, IE)
        assert np.isclose(gui_state(pair).s_global, 1.0, atol=1e-12)

    def test_ghz_overlap(self):
        for n in (2, 3):
            pair = z_sum_pair(ghz_state(n), 0.33)
            assert np.isclose(gui_state(pair).s_global, np.cos(n * 0.33) ** 2, atol=1e-12)

    def test_zero_angle(self, rng):
        pair = z_sum_pair(random_state(2, rng), 0.0)
        assert np.isclose(gui_state(pair).s_global, 1.0, atol=1e-12)

    def test_density_valid_and_swap_expectation(self):
        pair = z_sum_pair(ghz_state(2), 0.4)
        state = gui_state(pair)
        dense = gui_density(state)
        lay2 = pair.layout.two_copy()
        got = trace_product(swap_operator(0b11, lay2), dense.matrix).real
        assert np.isclose(got, state.s_global, atol=1e-10)

    def test_overlap_derivative_exact(self, rng):
        psi = random_state(2, rng)
        h = 1e-4
        s, ds, dds, gap = global_overlap_series(z_sum_pair(psi, 0.6))
        up, down = (global_overlap_series(z_sum_pair(psi, 0.6 + x))[0] for x in (h, -h))
        assert np.isclose(ds, (up - down) / (2 * h), atol=1e-8)
        assert np.isclose(dds, (up - 2 * s + down) / (h * h), atol=1e-6)
        assert np.isclose(gap, 1.0 - s, rtol=0, atol=1e-15)
        s, ds, dds, gap = global_overlap_series(z_sum_pair(psi, 0.6, IE))
        assert (ds, dds, gap) == (0.0, 0.0, 0.0)


class TestMcLocalTwirl:
    def test_single_sample_valid_state(self, rng):
        pair = z_sum_pair(random_state(2, rng), 0.5)
        out = mc_local_twirl(pair, 1, np.random.default_rng(4))
        assert np.isclose(out.matrix.trace().real, 1.0, atol=1e-12)

    def test_converges_to_analytic_n2(self):
        pair = z_sum_pair(ghz_state(2), 0.3)
        target = lui_density(lui_coefficients(pair)).matrix
        sampled = mc_local_twirl(pair, 20000, np.random.default_rng(77)).matrix
        assert trace_dist(target, sampled) <= 0.03

    def test_swap_expectations_preserved(self):
        # sampled twirl leaves every swap-mask expectation of the input intact
        pair = z_sum_pair(ghz_state(2), 0.3)
        coeffs = lui_coefficients(pair).coeffs
        sampled = mc_local_twirl(pair, 20000, np.random.default_rng(13))
        lay2 = pair.layout.two_copy()
        for mask in range(4):
            got = trace_product(swap_operator(mask, lay2), sampled.matrix).real
            assert abs(got - coeffs[mask]) < 0.05

    @pytest.mark.parametrize("n, d, samples", [(1, 2, 500), (2, 2, 500), (3, 2, 500),
                                               (2, 3, 500), (4, 2, 4200)])
    def test_matches_per_sample_loop(self, rng, n, d, samples):
        # oracle: one rotation and one outer product per sample, drawn in the
        # same order; 4200 samples at N=4 take two batches
        pair = make_pair(random_state(n, rng, d), HamiltonianSpec.dense(
            QuditLayout(n, d, 1), random_hermitian(d ** n, rng)), 0.7, RE)
        loop_rng = np.random.default_rng(31)
        acc = np.zeros((d ** (2 * n), d ** (2 * n)), dtype=complex)
        for _ in range(samples):
            rot = local_unitary([haar_unitary(d, loop_rng) for _ in range(n)])
            full = np.kron(rot @ pair.psi_minus.amplitudes, rot @ pair.psi_plus.amplitudes)
            acc += np.outer(full, full.conj())
        acc /= samples
        acc = (acc + acc.conj().T) / 2.0
        acc /= acc.trace().real
        got = mc_local_twirl(pair, samples, np.random.default_rng(31)).matrix
        assert np.max(np.abs(got - acc)) <= 1e-14

    def test_rejects_zero_samples(self, rng):
        with pytest.raises(ValueError, match="samples"):
            mc_local_twirl(z_sum_pair(random_state(1, rng), 0.1), 0, rng)


class TestGTwirlApply:
    def test_identity_rotations(self, rng):
        pair = z_sum_pair(random_state(2, rng), 0.4)
        dense = lui_density(lui_coefficients(pair))
        out = g_twirl_apply(dense, [np.eye(2), np.eye(2)])
        assert np.allclose(out.matrix, dense.matrix, atol=1e-14)

    def test_invariant_state_fixed(self, rng):
        from framefree.tensor import haar_unitary

        for n, d in ((2, 2), (3, 2), (2, 3)):
            lay = QuditLayout(n, d, 1)
            amps = rng.standard_normal(lay.dim) + 1j * rng.standard_normal(lay.dim)
            psi = StateVector(lay, amps / np.linalg.norm(amps))
            ham = HamiltonianSpec.dense(lay, random_hermitian(lay.dim, rng))
            dense = lui_density(lui_coefficients(make_pair(psi, ham, 0.5, RE)))
            for _ in range(5):
                rotations = [haar_unitary(d, rng) for _ in range(n)]
                out = g_twirl_apply(dense, rotations)
                assert trace_dist(out.matrix, dense.matrix) <= 1e-10

    def test_moves_untwirled_product(self, rng):
        from framefree.tensor import haar_unitary

        pair = z_sum_pair(ghz_state(2), 0.3)
        dense = pair_product_density(pair)
        rotations = [haar_unitary(2, rng) for _ in range(2)]
        out = g_twirl_apply(dense, rotations)
        assert trace_dist(out.matrix, dense.matrix) > 0.1

    @pytest.mark.parametrize("n, d", [(2, 2), (3, 2), (1, 3), (2, 3)])
    def test_matches_kron_conjugation(self, rng, n, d):
        # oracle: W rho W^dag with W = U (x) U built densely
        lay2 = QuditLayout(n, d, 2)
        g = rng.standard_normal((lay2.dim, 3)) + 1j * rng.standard_normal((lay2.dim, 3))
        rho = g @ g.conj().T
        dense = DensityOperator(lay2, rho / rho.trace().real)
        rotations = [haar_unitary(d, rng) for _ in range(n)]
        w = np.kron(local_unitary(rotations), local_unitary(rotations))
        expected = w @ dense.matrix @ w.conj().T
        out = g_twirl_apply(dense, rotations)
        assert np.max(np.abs(out.matrix - expected)) <= 1e-13

    def test_rejects_non_unitary(self, rng):
        pair = z_sum_pair(random_state(2, rng), 0.4)
        dense = lui_density(lui_coefficients(pair))
        with pytest.raises(ValueError, match="unitar"):
            g_twirl_apply(dense, [np.eye(2), np.ones((2, 2))])


def test_lui_state_shape_checks():
    with pytest.raises(ValueError, match="coefficients"):
        LuiState(QuditLayout(2, 2, 1), np.ones(3), RE, 0.1)
    with pytest.raises(ValueError, match="per angle"):
        LuiState(QuditLayout(2, 2, 1), np.ones((3, 4)), RE, 0.1)
    with pytest.raises(ValueError, match="finite"):
        LuiState(QuditLayout(2, 2, 1), np.array([1.0, np.nan, 0.5, 0.5]), RE, 0.1)


def test_dense_consumers_take_a_single_state():
    batched = ghz_lui(2, np.array([0.1, 0.4]))
    for consumer in (lui_density, lui_spectrum, lui_state_checks):
        with pytest.raises(ValueError, match="single state"):
            consumer(batched)
