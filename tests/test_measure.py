import math

import numpy as np
import pytest

from framefree.cli import _closed_families, _scan_columns
from framefree.fisher import (
    f0,
    fisher_from_coefficients,
    fisher_from_weight_classes,
    qfi_from_spectrum,
    qfi_ghz_closed,
    qfi_gui_re,
    qfi_re_general,
)
from framefree.measure import (
    DM,
    LBM,
    LST,
    OutcomeDistribution,
    _golden_max,
    cfi,
    cfi_grm_from_overlap,
    default_window,
    estimation_experiment,
    mle_estimate,
    readout_kernel,
    sample_outcomes,
    weight_class_distribution,
)
from framefree.states import IE, RE, HamiltonianSpec, ghz_state, make_pair, product_plus_state
from framefree.tensor import QuditLayout, popcounts
from framefree.twirl import (
    closed_families,
    closed_lui,
    closed_overlaps,
    closed_swap,
    ghz_lui,
    global_overlap_series,
    lui_coefficients,
    lui_density,
    product_lui,
    swap_overlaps,
)

from reference import (
    cfi_grm,
    cfi_gst_from_overlap,
    probs_dm,
    probs_gst,
    probs_lbm,
    probs_lst,
    qfi_gui_ghz_closed,
)
from conftest import random_hermitian, random_state


def ghz_pair(n, theta):
    return make_pair(ghz_state(n), HamiltonianSpec.pauli_z_sum(n), theta, RE)


def ghz_overlap(n, theta):
    return math.cos(n * theta) ** 2, -n * math.sin(2 * n * theta)


def ghz_dm(n, theta):
    """Direct-readout information of the GHZ probe from its weight classes."""
    return fisher_from_weight_classes(closed_families("ghz", n, theta, readout_kernel(DM, 2)))


def stacked(model):
    """Elementwise form of a per-angle outcome model: the per-angle
    distributions stacked over an array of angles."""
    def batched(theta):
        t = np.asarray(theta, dtype=float)
        dists = [model(float(x)) for x in t.ravel()]
        probs = np.stack([dist.probs for dist in dists]).reshape(t.shape + (-1,))
        return OutcomeDistribution(probs)
    return batched


def scalar_golden_max(f, lo, hi, tol=1e-7):
    """Reference: the one-angle-at-a-time golden-section search."""
    invphi = (math.sqrt(5.0) - 1.0) / 2.0
    a, b = lo, hi
    c = b - invphi * (b - a)
    d = a + invphi * (b - a)
    fc, fd = f(c), f(d)
    while b - a > tol:
        if fc > fd:
            b, d, fd = d, c, fc
            c = b - invphi * (b - a)
            fc = f(c)
        else:
            a, c, fc = c, d, fd
            d = a + invphi * (b - a)
            fd = f(d)
    return 0.5 * (a + b)


def model_information(model, theta, h=1e-5):
    """Independent route: sum of (dp)^2 / p over an outcome model's classes,
    dp by central difference of its probabilities."""
    p = model(theta).probs
    dp = (model(theta + h).probs - model(theta - h).probs) / (2.0 * h)
    return float(np.sum(dp * dp / p))


def mp_class_information(mp, probe, n, theta, kernel=None):
    """60-digit reference: sum of (dp)^2 / p over the classes p = K c of the
    closed probe's overlaps c (K the dense Kronecker power of the 2x2
    `kernel`), or over the global swap test's classes (1 +/- s)/2 when
    `kernel` is None; c' and c'' by mpmath differentiation at the float
    angle, and a class at an exact zero takes its limit 2 p''."""
    mp.mp.dps = 60

    def overlap(w, t):
        if probe == "product":
            return mp.cos(t) ** (2 * w)
        return mp.mpf(1) if w == 0 else mp.cos(n * t) ** 2 if w == n else mp.mpf(1) / 2

    t = mp.mpf(theta)
    rows = [[mp.diff(lambda x: overlap(w, x), t, k) for w in range(n + 1)] for k in range(3)]
    if kernel is None:
        rows = [[(k == 0) + sign * row[n] for sign in (1, -1)] for k, row in enumerate(rows)]
        rows = [[v / 2 for v in row] for row in rows]
    else:
        k2 = [[mp.mpf(x) for x in r] for r in kernel]
        weights = popcounts(n)
        dense = [[mp.fprod(k2[(b >> i) & 1][(a >> i) & 1] for i in range(n))
                  for a in range(1 << n)] for b in range(1 << n)]
        rows = [[mp.fsum(dense[b][a] * row[weights[a]] for a in range(1 << n))
                 for b in range(1 << n)] for row in rows]
    total = mp.mpf(0)
    for p, dp, ddp in zip(*rows):
        total += 2 * ddp if abs(p) < mp.mpf(10) ** -45 else dp * dp / p
    return float(total)


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

    def test_information_matches_outcome_model_qutrits(self, rng):
        # the coincidence kernel for d = 3 on the exact overlaps vs the
        # central-difference information of the qutrit outcome model
        lay = QuditLayout(2, 3, 1)
        psi = random_state(2, rng, 3)
        h = HamiltonianSpec.dense(lay, random_hermitian(lay.dim, rng))
        pair_fn = lambda t: make_pair(psi, h, t, RE)
        for theta in (0.3, 0.9):
            got = cfi(DM, swap_overlaps(pair_fn(theta)), 3)
            want = model_information(lambda t: probs_dm(lui_coefficients(pair_fn(t))), theta)
            assert abs(got - want) <= 1e-6 * want, (theta, got, want)

    @pytest.mark.parametrize("probe", ["ghz", "product"])
    @pytest.mark.parametrize("n", range(1, 6))
    def test_weight_classes_match_dense_diagonal(self, probe, n):
        # oracle: the diagonal of the assembled state grouped by the number
        # of sites whose two copies coincide, differentiated centrally
        idx = np.arange(1 << (2 * n))
        weight = n - popcounts(n)[(idx & ((1 << n) - 1)) ^ (idx >> n)]

        def classes(t):
            diag = np.diag(lui_density(closed_lui(probe, n, t)).matrix)
            return np.bincount(weight, diag, minlength=n + 1)

        kernel = readout_kernel(DM, 2)
        h = 1e-5
        for theta in (0.3, 0.7, 1.2):
            p, dp = classes(theta), (classes(theta + h) - classes(theta - h)) / (2 * h)
            want = np.sum(dp * dp / p)
            got = fisher_from_weight_classes(closed_families(probe, n, theta, kernel))
            assert abs(got - want) <= 1e-6 * want, (theta, got, want)

    def test_closed_form_peak_n2(self):
        # maximum of the weight-class information for the GHZ probe at N=2,
        # where the mask route agrees
        grid = np.linspace(1e-4, np.pi / 2, 4001)
        values = ghz_dm(2, grid)
        peak = values.max()
        assert abs(peak - 0.8005) <= 0.005
        assert abs(peak / 8.0 - 0.100) <= 0.005
        at = grid[np.argmax(values)]
        assert abs(peak - cfi(DM, closed_overlaps("ghz", 2, at)[:, popcounts(2)], 2)) <= 1e-13 * 8

    def test_zero_angle_no_information(self):
        assert ghz_dm(2, 0.0) == 0.0

    def test_large_n_exponential_loss(self):
        # peak share of 2N^2 for N = 2..6 and 10; each N loses more than half
        grid = np.linspace(1e-3, np.pi / 2, 20001)
        targets = {2: 10.0, 3: 4.5, 4: 2.1, 5: 0.94, 6: 0.43, 10: 0.019}
        shares = {n: 100.0 * ghz_dm(n, grid).max() / (2.0 * n * n) for n in targets}
        for n, target in targets.items():
            assert abs(shares[n] - target) / target <= 0.15, (n, shares[n])
        for n in range(3, 7):
            assert shares[n] < shares[n - 1] / 2.0, (n, shares)


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
        assert abs(cfi_grm(pair) - cfi_grm_from_overlap(s, ds, 3)) < 1e-12


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
                s = global_overlap_series(pair)[0]
                dist = probs_gst(lui_coefficients(pair))
                assert np.allclose(dist.probs, [(1 + s) / 2, (1 - s) / 2], rtol=0, atol=1e-12)

    def test_equals_global_twirl_information(self):
        for theta in (0.15, 0.5, 1.0):
            got = qfi_gui_re(ghz_pair(2, theta))
            assert abs(got - qfi_gui_ghz_closed(2, theta)) < 1e-9

    def test_small_angle_recovers_ceiling(self):
        got = qfi_gui_re(ghz_pair(2, 1e-4))
        assert abs(got - 8.0) / 8.0 < 1e-3

    @pytest.mark.parametrize("probe", ["ghz", "product"])
    def test_pair_route_matches_mpmath_near_zero(self, probe):
        # 1 - s from the part of psi_- orthogonal to psi_+, not from the
        # rounded s, which put product N=3 at 3e-5 above its ceiling f0
        mp = pytest.importorskip("mpmath")
        for n in (1, 2, 3, 6, 10):
            psi = ghz_state(n) if probe == "ghz" else product_plus_state(n)
            h = HamiltonianSpec.pauli_z_sum(n)
            ceiling = f0(psi, h)
            for theta in (3e-5, 1e-4, 1e-3, 1e-2, 0.3):
                got = qfi_gui_re(make_pair(psi, h, theta, RE))
                want = mp_class_information(mp, probe, n, theta)
                assert abs(got - want) <= 1e-12 * want, (n, theta, got, want)
                assert got <= ceiling

    def test_stationary_guard(self):
        # at s = 1 the class 1 - s takes its limit -s'' (= f0 for a pure probe)
        assert cfi_gst_from_overlap(1.0, 0.0, 0.0, -6.0) == 6.0
        with pytest.raises(RuntimeError, match="non-vanishing numerator"):
            cfi_gst_from_overlap(1.0, 0.0, 1.0, -2.0)


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

        bad = LuiState(QuditLayout(2, 2, 1), np.array([1.0, 1.0, 0.0, 1.0]))
        with pytest.raises(ValueError, match="negative"):
            probs_lst(bad)

    def test_saturates_twirled_information(self):
        for n in (2, 3, 4):
            for theta in (0.2, 0.8, 1.3):
                c, dc, ddc = closed_overlaps("ghz", n, theta)[:, popcounts(n)]
                got = fisher_from_coefficients(c, dc, ddc)
                want = qfi_ghz_closed(n, theta)
                assert abs(got - want) <= 1e-9 * max(want, 1.0)

    def test_generic_helper_route(self):
        got = cfi(LST, closed_overlaps("ghz", 2, 0.37)[:, popcounts(2)], 2)
        want = model_information(lambda t: probs_lst(ghz_lui(2, t)), 0.37)
        assert abs(got - want) < 1e-6 * want
        assert abs(got - qfi_ghz_closed(2, 0.37)) < 1e-12 * got


class TestLocalBellReadout:
    def test_requires_qubits(self):
        from framefree.twirl import LuiState
        from framefree.tensor import QuditLayout

        lui = LuiState(QuditLayout(1, 3, 1), np.array([1.0, 0.5]))
        with pytest.raises(ValueError, match="qubit"):
            probs_lbm(lui)
        # the information of the same readout is refused alike
        with pytest.raises(ValueError, match="qubit"):
            cfi(LBM, [[1.0, 0.5], [0.0, 0.1], [0.0, 0.0]], 3)

    def test_all_patterns_sum_to_one(self):
        # one class per singlet mask, the triplet choices folded into it
        dist = probs_lbm(ghz_lui(3, 0.8))
        assert dist.probs.shape == (2**3,)
        assert np.isclose(dist.probs.sum(), 1.0, atol=1e-9)

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
        got = cfi(LBM, closed_overlaps("ghz", 2, 0.37)[:, popcounts(2)], 2)
        want = model_information(lambda t: probs_lbm(ghz_lui(2, t)), 0.37)
        assert abs(got - want) < 1e-6 * want
        assert abs(got - qfi_ghz_closed(2, 0.37)) < 1e-12 * got


class TestStrategyOrdering:
    def test_no_strategy_beats_twirled_information(self):
        # information chain: every readout <= twirled-state optimum
        n = 2
        for theta in np.linspace(0.05, 1.5, 30):
            s, ds = ghz_overlap(n, theta)
            ceiling = qfi_ghz_closed(n, theta) + 1e-6
            assert ghz_dm(n, theta) <= ceiling
            assert cfi_grm_from_overlap(s, ds, n) <= ceiling
            dds = -2.0 * n * n * math.cos(2 * n * theta)
            assert cfi_gst_from_overlap(s, closed_swap("ghz", n, theta)[1], ds, dds) <= ceiling
            c, dc, ddc = closed_overlaps("ghz", n, theta)[:, popcounts(n)]
            assert fisher_from_coefficients(c, dc, ddc) <= ceiling

    def test_probability_route_matches_general_path(self, rng):
        # dual route: each sampled outcome model's information, by central
        # difference of its probabilities, vs its kernel on the exact overlaps
        psi = random_state(2, rng)
        h = HamiltonianSpec.pauli_z_sum(2)
        pair_fn = lambda t: make_pair(psi, h, t, RE)
        for theta in (0.3, 0.9):
            rows = swap_overlaps(pair_fn(theta))
            for readout, probs in ((LST, probs_lst), (LBM, probs_lbm), (DM, probs_dm)):
                a = cfi(readout, rows, 2)
                b = model_information(lambda t: probs(lui_coefficients(pair_fn(t))), theta)
                assert abs(a - b) <= 1e-6 * max(b, 1e-9), (readout, theta, a, b)
            general = qfi_re_general(pair_fn, theta)
            assert abs(cfi(LST, rows, 2) - general) <= 1e-12 * general


class TestReadoutInformation:
    @pytest.mark.parametrize("probe", ["ghz", "product"])
    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_matches_mpmath_at_stationary_angles(self, probe, n):
        # every readout on the estimate model's overlaps (closed form, exact
        # c' and c''), at 0, every k pi/(2N) and two generic angles, where
        # the classes that vanish take their limit
        mp = pytest.importorskip("mpmath")
        ceiling = 2.0 * n * n if probe == "ghz" else 2.0 * n
        dm_kernel = [[mp.mpf(2) / 3, -mp.mpf(1) / 3], [mp.mpf(1) / 3, mp.mpf(1) / 3]]
        swap_kernel = [[0.5, 0.5], [0.5, -0.5]]
        for theta in list(np.arange(2 * n + 1) * np.pi / (2 * n)) + [0.3, 0.8]:
            series = closed_overlaps(probe, n, theta)[:, popcounts(n)]
            s, ds, dds = series[:, -1]
            swap = mp_class_information(mp, probe, n, theta, swap_kernel)
            got = {
                "dm": (cfi(DM, series, 2), mp_class_information(mp, probe, n, theta, dm_kernel)),
                "lst": (cfi(LST, series, 2), swap),
                "lbm": (cfi(LBM, series, 2), swap),
                "spectrum": (qfi_from_spectrum(series, 2), swap),
                "gst": (cfi_gst_from_overlap(s, closed_swap(probe, n, theta)[1], ds, dds),
                        mp_class_information(mp, probe, n, theta)),
            }
            for readout, (value, want) in got.items():
                assert abs(value - want) <= 1e-12 * ceiling, (readout, theta, value, want)


def weight_model(readout, probe, n):
    """The outcome model that `estimate` samples: the weight classes' den."""
    return lambda t: weight_class_distribution(_closed_families(readout, probe, n)(t, 0)[0])


MASK_MODELS = {DM: probs_dm, LST: probs_lst, LBM: probs_lbm, "gst": probs_gst}


def grouped_mask_model(readout, probe, n):
    """The 2^N mask route, its classes summed by mask weight (the global swap
    test's two classes as they are)."""
    weights = np.eye(n + 1)[popcounts(n)] if readout != "gst" else np.eye(2)
    return lambda t: MASK_MODELS[readout](closed_lui(probe, n, t)).probs @ weights


class TestWeightClassModel:
    @pytest.mark.parametrize("readout", [DM, LST, LBM, "gst"])
    @pytest.mark.parametrize("probe", ["ghz", "product"])
    def test_matches_grouped_mask_route(self, readout, probe):
        # at 0, just above it, every stationary angle k pi/(2N) and generic angles
        for n in range(1, 7):
            thetas = np.concatenate([[0.0, 1e-4, 0.3, 0.77, 1.2],
                                     np.arange(n + 1) * np.pi / (2 * n)])
            got = weight_model(readout, probe, n)(thetas).probs
            want = grouped_mask_model(readout, probe, n)(thetas)
            assert got.shape == want.shape == (thetas.size, 2 if readout == "gst" else n + 1)
            assert np.max(np.abs(got - want)) <= 1e-14, (n, readout)

    @pytest.mark.parametrize("readout, probe, n", [
        (LBM, "ghz", 3), (DM, "ghz", 2), (LST, "product", 4), (DM, "product", 5)])
    def test_weight_counts_estimate_as_mask_counts(self, readout, probe, n):
        # the weight counts are a sufficient statistic: the two log-likelihoods
        # differ by a constant, so both searches find one maximizer
        mask_model = lambda t: MASK_MODELS[readout](closed_lui(probe, n, t))
        dist = mask_model(0.3)
        counts = np.stack([sample_outcomes(dist, 5_000, np.random.default_rng([23, r]))
                           for r in range(20)])
        window = default_window(0.3, n if probe == "ghz" else 1)
        by_mask, _ = mle_estimate(counts, mask_model, window)
        by_weight, _ = mle_estimate(counts @ np.eye(n + 1)[popcounts(n)],
                                    weight_model(readout, probe, n), window)
        assert np.max(np.abs(by_mask - by_weight)) <= 1e-7

    def test_window_is_the_identifiable_cell(self):
        # GHZ N=6: theta = 0.05 lies in [0, pi/12], 0.6 in [pi/6, pi/4]
        width = np.pi / 12
        assert default_window(0.05, 6) == (1e-6, width - 1e-6)
        assert default_window(0.6, 6) == (2 * width + 1e-6, 3 * width - 1e-6)
        # angles outside the quadrant take its nearest cell
        assert default_window(-0.1, 6) == (1e-6, width - 1e-6)
        assert default_window(np.pi / 2, 6) == (5 * width + 1e-6, 6 * width - 1e-6)
        # one cell is the whole quadrant, cut to theta +/- 0.5
        assert default_window(0.3) == default_window(0.3, 1) == (1e-6, 0.8)
        assert default_window(1.4) == (1.4 - 0.5, np.pi / 2 - 1e-6)


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
        dist = OutcomeDistribution(np.array([1.0, 0.0]))
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
        assert np.ndim(est) == 0 and np.ndim(flagged) == 0 and isinstance(est, float)
        assert not flagged
        assert abs(est - true) < 1e-6

    def test_boundary_flagged(self):
        model = lambda t: probs_lbm(ghz_lui(2, t))
        counts = model(0.75).probs * 10_000
        est, flagged = mle_estimate(counts, model, (0.05, 0.3))
        assert flagged

    @pytest.mark.parametrize("reps, readout, probe, n", [
        (1, probs_gst, "product", 3), (9, probs_dm, "ghz", 2), (9, probs_lst, "product", 4),
        (200, probs_lbm, "ghz", 3)])
    def test_lockstep_matches_scalar_search(self, reps, readout, probe, n):
        model = lambda t: readout(closed_lui(probe, n, t))
        dist = model(0.3)
        counts = np.stack([sample_outcomes(dist, 5_000, np.random.default_rng([17, r]))
                           for r in range(reps)])
        window = default_window(0.3)

        def loglik(row):
            # the per-angle log-likelihood: a plain dot product with the counts
            return lambda t: float(row @ np.log(np.clip(model(t).probs, 1e-300, None)))

        want = np.array([scalar_golden_max(loglik(row), *window) for row in counts])
        est, flagged = mle_estimate(counts, model, window)
        assert est.shape == flagged.shape == (reps,)
        assert np.array_equal(est, want)
        assert np.array_equal(flagged, (want - window[0] < 1e-6) | (window[1] - want < 1e-6))

    def test_lockstep_elements_stop_on_their_own(self):
        # intervals of different widths need different step counts
        lo, hi = np.array([0.0, 0.0, 2.0]), np.array([1.0, 1e-3, 5.0])
        f = lambda t: -(t - 0.3) ** 2
        want = [scalar_golden_max(f, a, b) for a, b in zip(lo, hi)]
        assert np.array_equal(_golden_max(f, lo, hi), want)

    def test_window_default_clamped(self):
        lo, hi = default_window(0.05)
        assert 0.0 < lo < hi < np.pi / 2


class TestEstimationExperiment:
    def test_crb_saturation_lbm(self):
        model = lambda t: probs_lbm(ghz_lui(2, t))
        information = cfi(LBM, closed_overlaps("ghz", 2, 0.05)[:, popcounts(2)], 2)
        run = estimation_experiment(model, 0.05, information, 100_000, 60, seed=2024)
        assert run.crb == 1.0 / (100_000 * information)
        assert 0.7 <= run.variance / run.crb <= 1.3
        assert run.boundary_hits == 0

    def test_deterministic(self):
        model = stacked(lambda t: probs_gst(lui_coefficients(ghz_pair(2, t))))
        information = qfi_gui_re(ghz_pair(2, 0.1))
        a = estimation_experiment(model, 0.1, information, 2_000, 8, seed=5)
        b = estimation_experiment(model, 0.1, information, 2_000, 8, seed=5)
        assert a.estimate == b.estimate and a.variance == b.variance

    def test_rejects_single_repetition(self):
        model = lambda t: probs_lbm(ghz_lui(2, t))
        with pytest.raises(ValueError, match="repetitions"):
            estimation_experiment(model, 0.1, 8.0, 100, 1, seed=6)

    def test_blocks_match_per_repetition_estimates(self):
        # 2^17 classes hold 8 repetitions per 2^20-count block: 10 take two
        k = 1 << 17
        sign = np.where(np.arange(k) % 2 == 0, 1.0, -1.0)

        def model(t):
            t = np.asarray(t, dtype=float)
            probs = (1.0 + np.cos(t)[..., None] * sign) / k
            return OutcomeDistribution(probs)

        run = estimation_experiment(model, 0.6, 1.0, 20_000, 10, seed=3)
        counts = [sample_outcomes(model(0.6), 20_000, np.random.default_rng([3, r]))
                  for r in range(10)]
        est = np.array([mle_estimate(c, model, default_window(0.6))[0] for c in counts])
        assert run.estimate == float(est.mean()) and run.variance == float(est.var(ddof=1))

    @pytest.mark.parametrize("information", [0.0, -1.0, np.inf, np.nan])
    def test_rejects_information_not_finite_and_positive(self, information):
        model = lambda t: probs_lbm(ghz_lui(2, t))
        with pytest.raises(ValueError, match="finite and positive"):
            estimation_experiment(model, 0.1, information, 100, 2, seed=6)


def test_distribution_validation():
    with pytest.raises(ValueError, match="negative"):
        OutcomeDistribution(np.array([1.1, -0.1]))
    with pytest.raises(ValueError, match="sum"):
        OutcomeDistribution(np.array([0.7, 0.7]))
    with pytest.raises(ValueError, match="undefined"):
        OutcomeDistribution(np.array([np.nan, 1.0]))
    # rows are checked on their own
    with pytest.raises(ValueError, match="sum"):
        OutcomeDistribution(np.array([[0.5, 0.5], [0.7, 0.7]]))
    with pytest.raises(ValueError, match="undefined"):
        OutcomeDistribution(np.array([[0.5, 0.5], [np.nan, 1.0]]))


def test_nan_coefficient_rejected_by_readouts():
    # a coefficient corrupted after the state was validated
    lui = ghz_lui(2, 0.3)
    lui.coeffs[1] = np.nan
    with pytest.raises(ValueError, match="undefined"):
        probs_lbm(lui)
    with pytest.raises(ValueError, match="undefined"):
        probs_lst(lui)
    with pytest.raises(ValueError, match="undefined"):
        probs_dm(lui)
    lui.coeffs[-1] = np.nan
    with pytest.raises(ValueError, match="undefined"):
        probs_gst(lui)


def test_class_probability_below_floor_rejected():
    # class 1 of this tampered one-site state has probability (1 - c_1) / 2,
    # about -1e-11: below the -1e-12 floor of every outcome distribution
    from framefree.twirl import LuiState

    lui = LuiState(QuditLayout(1, 2, 1), np.array([1.0, 1.0 + 2e-11]))
    assert -1e-10 < (1.0 - lui.coeffs[1]) / 2 < -1e-12
    for readout in (probs_lst, probs_lbm):
        with pytest.raises(ValueError, match="negative"):
            readout(lui)


@pytest.mark.parametrize("probe, n", [("ghz", 3), ("product", 4)])
def test_angle_arrays_match_per_angle_objects(probe, n):
    thetas = np.array([[0.0, 0.21, math.pi / (2 * n)], [0.7, 1.1, math.pi / 2]])
    batched = closed_lui(probe, n, thetas)
    assert batched.coeffs.shape == thetas.shape + (1 << n,)
    for readout in (None, probs_dm, probs_lst, probs_lbm, probs_gst):
        rows = batched if readout is None else readout(batched)
        for i in np.ndindex(thetas.shape):
            one = closed_lui(probe, n, float(thetas[i]))
            if readout is None:
                assert np.array_equal(rows.coeffs[i], one.coeffs)
                continue
            one = readout(one)
            assert np.array_equal(rows.probs[i], one.probs)
