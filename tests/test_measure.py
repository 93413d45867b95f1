import math

import numpy as np
import pytest

from framefree.cli import _scan_columns
from framefree.fisher import (
    fisher_from_coefficients,
    qfi_ghz_closed,
    qfi_gui_ghz_closed,
    qfi_re_general,
)
from framefree.measure import (
    OutcomeDistribution,
    cfi,
    cfi_dm,
    cfi_dm_from_overlap,
    cfi_grm,
    cfi_grm_from_overlap,
    cfi_gst,
    cfi_gst_from_overlap,
    default_window,
    estimation_experiment,
    mle_estimate,
    probs_dm,
    probs_gst,
    probs_lbm,
    probs_lst,
    sample_outcomes,
)
from framefree.states import IE, RE, HamiltonianSpec, ghz_state, make_pair
from framefree.tensor import QuditLayout, hamming, popcounts
from framefree.twirl import (
    closed_overlaps,
    ghz_lui,
    global_overlap,
    lui_coefficients,
    lui_density,
    product_lui,
)

from conftest import random_hermitian, random_state


def ghz_pair(n, theta):
    return make_pair(ghz_state(n), HamiltonianSpec.pauli_z_sum(n), theta, RE)


def ghz_overlap(n, theta):
    return math.cos(n * theta) ** 2, -n * math.sin(2 * n * theta)


class TestDmReadout:
    def test_probs_sum_to_one(self):
        for n in (1, 2, 3):
            dist = probs_dm(ghz_lui(n, 0.4))
            assert np.isclose(dist.probs.sum(), 1.0, atol=1e-9)

    def test_probs_match_dense_diagonal(self, rng):
        # oracle: diagonal of the assembled invariant state, grouped by the
        # per-site coincidence pattern of the two basis strings
        n = 2
        psi = random_state(n, rng)
        lui = lui_coefficients(make_pair(psi, HamiltonianSpec.pauli_z_sum(n), 0.5, RE))
        diag = np.real(np.diag(lui_density(lui).matrix))
        grouped = np.zeros(1 << n)
        for x in range(1 << (2 * n)):
            a, b = x % (1 << n), x >> n
            mask = sum(1 << i for i in range(n) if ((a >> i) & 1) == ((b >> i) & 1))
            grouped[mask] += diag[x]
        dist = probs_dm(lui)
        assert np.allclose(dist.probs, grouped, atol=1e-10)

    def test_probs_match_dense_diagonal_qutrits(self, rng):
        n, d = 2, 3
        from framefree.tensor import QuditLayout, StateVector

        lay = QuditLayout(n, d, 1)
        amps = rng.standard_normal(lay.dim) + 1j * rng.standard_normal(lay.dim)
        gen = rng.standard_normal((lay.dim,) * 2) + 1j * rng.standard_normal((lay.dim,) * 2)
        pair = make_pair(StateVector(lay, amps / np.linalg.norm(amps)),
                         HamiltonianSpec.dense(lay, (gen + gen.conj().T) / 2), 0.5, RE)
        lui = lui_coefficients(pair)
        diag = np.real(np.diag(lui_density(lui).matrix))
        grouped = np.zeros(1 << n)
        dn = d**n
        for x in range(dn * dn):
            a, b = x % dn, x // dn
            mask = sum(1 << i for i in range(n)
                       if (a // d**i) % d == (b // d**i) % d)
            grouped[mask] += diag[x]
        assert np.allclose(probs_dm(lui).probs, grouped, atol=1e-10)

    def test_closed_form_peak_n2(self):
        # maximum of the overlap-driven closed form for the GHZ probe at N=2
        grid = np.linspace(1e-4, np.pi / 2, 4001)
        peak = max(cfi_dm_from_overlap(*ghz_overlap(2, t), 2) for t in grid)
        assert abs(peak - 0.990) <= 0.005
        assert abs(peak / 8.0 - 0.124) <= 0.005

    def test_zero_angle_no_information(self):
        s, ds = ghz_overlap(2, 0.0)
        assert cfi_dm_from_overlap(s, ds, 2) == 0.0

    def test_large_n_exponential_loss(self):
        n = 10
        grid = np.linspace(1e-3, np.pi / 2, 20001)
        peak = max(cfi_dm_from_overlap(*ghz_overlap(n, t), n) for t in grid)
        target = n * n / 2.0**n
        assert abs(peak - target) / target <= 0.15

    def test_pair_interface_matches_kernel(self):
        pair = ghz_pair(2, 0.4)
        s, ds = ghz_overlap(2, 0.4)
        assert abs(cfi_dm(pair, step=0.0) - cfi_dm_from_overlap(s, ds, 2)) < 1e-12


class TestGrmReadout:
    def test_peak_n2(self):
        grid = np.linspace(1e-4, np.pi / 2, 4001)
        peak = max(cfi_grm_from_overlap(*ghz_overlap(2, t), 2) for t in grid)
        assert abs(peak - 0.769) <= 0.005

    def test_zero_angle(self):
        assert cfi_grm_from_overlap(*ghz_overlap(2, 0.0), 2) == 0.0

    def test_large_n_exponential_loss(self):
        n = 10
        grid = np.linspace(1e-3, np.pi / 2, 20001)
        peak = max(cfi_grm_from_overlap(*ghz_overlap(n, t), n) for t in grid)
        target = (12.0 - 8.0 * math.sqrt(2.0)) * n * n / 2.0**n
        assert abs(peak - target) / target <= 0.15

    def test_pair_interface(self):
        pair = ghz_pair(3, 0.3)
        s, ds = ghz_overlap(3, 0.3)
        assert abs(cfi_grm(pair, step=0.0) - cfi_grm_from_overlap(s, ds, 3)) < 1e-12


class TestGlobalSwapTest:
    def test_probs_complete(self):
        dist = probs_gst(lui_coefficients(ghz_pair(2, 0.6)))
        assert np.isclose(dist.probs.sum(), 1.0, atol=1e-12)
        assert np.isclose(dist.probs[0], (1 + math.cos(1.2) ** 2) / 2, atol=1e-12)

    def test_twirl_keeps_the_full_swap(self, rng):
        # the full swap commutes with collective rotations, so the twirled
        # coefficients carry <S> = Tr(rho_+ rho_-) unchanged
        for n, d in ((1, 2), (3, 2), (1, 3), (2, 3)):
            lay = QuditLayout(n, d, 1)
            h = HamiltonianSpec.dense(lay, random_hermitian(lay.dim, rng))
            for mode in (RE, IE):
                pair = make_pair(random_state(n, rng, d), h, 0.7, mode)
                s = global_overlap(pair)
                dist = probs_gst(lui_coefficients(pair))
                assert np.allclose(dist.probs, [(1 + s) / 2, (1 - s) / 2], rtol=0, atol=1e-12)

    def test_equals_global_twirl_information(self):
        for theta in (0.15, 0.5, 1.0):
            got = cfi_gst(ghz_pair(2, theta), step=0.0)
            assert abs(got - qfi_gui_ghz_closed(2, theta)) < 1e-9

    def test_small_angle_recovers_ceiling(self):
        got = cfi_gst(ghz_pair(2, 1e-4), step=0.0)
        assert abs(got - 8.0) / 8.0 < 1e-3

    def test_stationary_guard(self):
        assert cfi_gst_from_overlap(1.0, 0.0, 0.0, limit=6.0) == 6.0
        with pytest.raises(RuntimeError, match="limit"):
            cfi_gst_from_overlap(1.0, 0.0, 0.0)
        with pytest.raises(RuntimeError, match="non-vanishing derivative"):
            cfi_gst_from_overlap(1.0, 0.0, 1.0, limit=2.0)


class TestLocalSwapTest:
    def test_ghz_probabilities(self):
        dist = probs_lst(ghz_lui(2, np.pi / 4))
        assert np.allclose(dist.probs, [0.5, 0.25, 0.25, 0.0], atol=1e-12)
        assert np.isclose(dist.probs.sum(), 1.0, atol=1e-9)

    def test_all_symmetric_at_zero(self):
        dist = probs_lst(product_lui(3, 0.0))
        expected = np.zeros(8)
        expected[0] = 1.0
        assert np.allclose(dist.probs, expected, atol=1e-12)

    def test_inconsistent_coefficients_rejected(self):
        from framefree.twirl import LuiState
        from framefree.tensor import QuditLayout

        bad = LuiState(QuditLayout(2, 2, 1), np.array([1.0, 1.0, 0.0, 1.0]), RE, 0.1)
        with pytest.raises(RuntimeError, match="inconsistent"):
            probs_lst(bad)

    def test_saturates_twirled_information(self):
        for n in (2, 3, 4):
            for theta in (0.2, 0.8, 1.3):
                c, dc, ddc = closed_overlaps("ghz", n, theta)[:, popcounts(n)]
                got = fisher_from_coefficients(c, dc, ddc)
                want = qfi_ghz_closed(n, theta)
                assert abs(got - want) <= 1e-9 * max(want, 1.0)

    def test_generic_helper_route(self):
        got = cfi(lambda t: probs_lst(ghz_lui(2, t)), 0.37)
        want = qfi_ghz_closed(2, 0.37)
        assert abs(got - want) < 1e-6


class TestLocalBellReadout:
    def test_requires_qubits(self):
        from framefree.twirl import LuiState
        from framefree.tensor import QuditLayout

        lui = LuiState(QuditLayout(1, 3, 1), np.array([1.0, 0.5]), RE, 0.1)
        with pytest.raises(ValueError, match="qubit"):
            probs_lbm(lui)

    def test_pattern_multiplicities(self):
        dist = probs_lbm(ghz_lui(2, 0.5))
        for label, mult in zip(dist.labels, dist.multiplicity):
            mask = int(label.split(":")[1], 2)
            assert mult == 3 ** (2 - hamming(mask))

    def test_all_patterns_sum_to_one(self):
        # classes carry the triplet choices; summing pattern probabilities over
        # all 4^N patterns gives 1
        dist = probs_lbm(ghz_lui(3, 0.8))
        per_pattern = dist.probs / dist.multiplicity
        assert np.isclose(np.sum(per_pattern * dist.multiplicity), 1.0, atol=1e-9)
        assert dist.multiplicity.sum() == 4**3

    def test_matches_swap_test_classes(self):
        lst = probs_lst(ghz_lui(2, 0.7))
        lbm = probs_lbm(ghz_lui(2, 0.7))
        assert np.allclose(lst.probs, lbm.probs, atol=1e-12)

    def test_saturates_twirled_information(self):
        for n in (2, 3, 4):
            for theta in (0.2, 0.8, 1.3):
                # the scan column: closed-form c, c' and c'' through the one sum
                got = _scan_columns("ghz", n, np.array([theta]), ("cfi_lbm",))["cfi_lbm"][0]
                want = qfi_ghz_closed(n, theta)
                assert abs(got - want) <= 1e-9 * max(want, 1.0)

    def test_generic_helper_route(self):
        got = cfi(lambda t: probs_lbm(ghz_lui(2, t)), 0.37)
        assert abs(got - qfi_ghz_closed(2, 0.37)) < 1e-6


class TestStrategyOrdering:
    def test_no_strategy_beats_twirled_information(self):
        # information chain: every readout <= twirled-state optimum
        n = 2
        for theta in np.linspace(0.05, 1.5, 30):
            s, ds = ghz_overlap(n, theta)
            ceiling = qfi_ghz_closed(n, theta) + 1e-6
            assert cfi_dm_from_overlap(s, ds, n) <= ceiling
            assert cfi_grm_from_overlap(s, ds, n) <= ceiling
            assert cfi_gst_from_overlap(s, 1.0 - s, ds, limit=8.0) <= ceiling
            c, dc, ddc = closed_overlaps("ghz", n, theta)[:, popcounts(n)]
            assert fisher_from_coefficients(c, dc, ddc) <= ceiling

    def test_probability_route_matches_general_path(self, rng):
        # dual route: outcome-model CFI vs coefficient-path information
        psi = random_state(2, rng)
        h = HamiltonianSpec.pauli_z_sum(2)
        lui_fn = lambda t: lui_coefficients(make_pair(psi, h, t, RE))
        for theta in (0.3, 0.9):
            a = cfi(lambda t: probs_lst(lui_fn(t)), theta)
            b = qfi_re_general(lambda t: make_pair(psi, h, t, RE), theta).value
            assert abs(a - b) <= 1e-6 * max(b, 1e-9)


class TestDistributionValidityOverGrid:
    def test_all_strategies_valid_distributions(self):
        # OutcomeDistribution construction enforces positivity and unit sum,
        # so building every strategy across a dense grid is itself the check
        grid = np.linspace(0.0, np.pi / 2, 200)
        for theta in grid:
            for lui in (ghz_lui(3, theta), product_lui(3, theta)):
                for dist in (probs_dm(lui), probs_lst(lui), probs_lbm(lui)):
                    assert np.isclose(dist.probs.sum(), 1.0, atol=1e-9)
            dist = probs_gst(lui_coefficients(ghz_pair(2, theta)))
            assert np.isclose(dist.probs.sum(), 1.0, atol=1e-9)


class TestSampling:
    def test_zero_shots_rejected(self, rng):
        dist = probs_gst(lui_coefficients(ghz_pair(2, 0.4)))
        with pytest.raises(ValueError, match="shots"):
            sample_outcomes(dist, 0, rng)

    def test_deterministic_distribution(self, rng):
        dist = OutcomeDistribution(("a", "b"), np.array([1.0, 0.0]), 0.1, "gst")
        counts = sample_outcomes(dist, 500, rng)
        assert counts[0] == 500 and counts[1] == 0

    def test_seed_determinism(self):
        dist = probs_lbm(ghz_lui(2, 0.4))
        c1 = sample_outcomes(dist, 1000, np.random.default_rng(5))
        c2 = sample_outcomes(dist, 1000, np.random.default_rng(5))
        assert np.array_equal(c1, c2)

    def test_multinomial_concentration(self):
        dist = probs_lbm(ghz_lui(2, 0.4))
        shots = 100_000
        counts = sample_outcomes(dist, shots, np.random.default_rng(33))
        for k, p in zip(counts, dist.probs):
            sigma = math.sqrt(max(shots * p * (1 - p), 1.0))
            assert abs(k - shots * p) <= 3 * sigma


class TestMle:
    def test_infinite_data_consistency(self):
        # counts proportional to the exact probabilities recover theta
        model = lambda t: probs_lbm(ghz_lui(2, t))
        true = 0.31
        counts = model(true).probs * 1_000_000
        est, flagged = mle_estimate(counts, model, (0.05, 0.6))
        assert not flagged
        assert abs(est - true) < 1e-6

    def test_boundary_flagged(self):
        model = lambda t: probs_lbm(ghz_lui(2, t))
        counts = model(0.75).probs * 10_000
        est, flagged = mle_estimate(counts, model, (0.05, 0.3))
        assert flagged

    def test_window_default_clamped(self):
        lo, hi = default_window(0.05)
        assert 0.0 < lo < hi < np.pi / 2


class TestEstimationExperiment:
    def test_crb_saturation_lbm(self):
        model = lambda t: probs_lbm(ghz_lui(2, t))
        run = estimation_experiment(model, 0.05, 100_000, 60, seed=2024)
        assert 0.7 <= run.variance / run.crb <= 1.3
        assert run.boundary_hits == 0

    def test_deterministic(self):
        model = lambda t: probs_gst(lui_coefficients(ghz_pair(2, t)))
        a = estimation_experiment(model, 0.1, 2_000, 8, seed=5)
        b = estimation_experiment(model, 0.1, 2_000, 8, seed=5)
        assert a.estimate == b.estimate and a.variance == b.variance

    def test_rejects_single_repetition(self):
        model = lambda t: probs_lbm(ghz_lui(2, t))
        with pytest.raises(ValueError, match="repetitions"):
            estimation_experiment(model, 0.1, 100, 1, seed=6)


def test_distribution_validation():
    with pytest.raises(ValueError, match="negative"):
        OutcomeDistribution(("a", "b"), np.array([1.1, -0.1]), 0.0, "dm")
    with pytest.raises(ValueError, match="sum"):
        OutcomeDistribution(("a", "b"), np.array([0.7, 0.7]), 0.0, "dm")


def test_cfi_requires_positive_step():
    with pytest.raises(ValueError, match="step"):
        cfi(lambda t: probs_lbm(ghz_lui(2, t)), 0.3, step=0.0)
