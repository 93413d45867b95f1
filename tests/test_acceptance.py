"""Acceptance suite: every promised number at its stated tolerance.

Run with ``pytest tests/test_acceptance.py -s`` to see one line per criterion.
"""

import math
import time

import numpy as np

from framefree.cli import _scan_columns
from framefree.fisher import (
    fisher_from_coefficients,
    lui_spectrum,
    qfi_from_spectrum,
    qfi_ghz_closed,
    qfi_gui_re,
    qfi_ie_general,
    qfi_product_closed,
    qfi_re_general,
)
from framefree.measure import (
    DM,
    LBM,
    cfi,
    cfi_grm_from_overlap,
    estimation_experiment,
)
from framefree.states import IE, RE, HamiltonianSpec, ghz_state, make_pair, product_plus_state
from framefree.tensor import QuditLayout, StateVector, popcounts
from framefree.twirl import (
    closed_overlaps,
    ghz_lui,
    lui_coefficients,
    lui_density,
    mc_local_twirl,
    swap_overlaps,
)
from framefree.verify import CommutantQuery, commutant_dimension, invariance_suite, trace_distance

from reference import probs_dm, probs_lbm, qfi_gui_ghz_closed

SEED = 0xC0FFEE

# interior grid over (0, pi/2); offsets keep it clear of the exact zeros of
# the signed coefficient sums, where the drop rule excludes 0/0 families
GRID = np.linspace(0.015, math.pi / 2 - 0.015, 50)


def _grid_with_margin(n_max: int, points: int, margin: float) -> np.ndarray:
    """Interior grid whose points stay `margin` away from every zero of the
    signed sums (multiples of pi/(2n), n <= n_max).  Near those zeros the
    smallest family denominator sits under the drop floor while its true
    contribution is not yet negligible, and float cancellation in the
    2^N-term sums dominates tight comparisons.  sin(theta)^(2n) clears the
    1e-10 floor for theta >= 0.06 at n <= 4, which pins the lower edge."""
    stationary = sorted({k * math.pi / (2 * n)
                         for n in range(1, n_max + 1)
                         for k in range(0, 2 * n + 1)})
    pool = np.linspace(0.06, math.pi / 2 - 0.02, 6 * points)
    keep = [t for t in pool if min(abs(t - s) for s in stationary) > margin]
    idx = np.linspace(0, len(keep) - 1, points).astype(int)
    return np.array([keep[i] for i in idx])


def _pair_fn(probe, mode=RE):
    h = HamiltonianSpec.pauli_z_sum(probe.layout.n_sites)
    return lambda t: make_pair(probe, h, t, mode)


def _random_probe(n, rng):
    lay = QuditLayout(n, 2, 1)
    amps = rng.standard_normal(lay.dim) + 1j * rng.standard_normal(lay.dim)
    return StateVector(lay, amps / np.linalg.norm(amps))


def _report(num, desc, ok, started, budget, detail=""):
    elapsed = time.time() - started
    tail = f" [{detail}, {elapsed:.1f}s]" if detail else f" [{elapsed:.1f}s]"
    print(f"[{'PASS' if ok else 'FAIL'}] criterion {num:02d}: {desc}{tail}")
    assert ok, f"criterion {num} failed: {desc} {detail}"
    assert elapsed < budget, f"criterion {num} exceeded {budget}s ({elapsed:.1f}s)"


def test_c01_ghz_heisenberg_limit():
    t0 = time.time()
    worst = 0.0
    for n in (1, 2, 3, 4):
        got = qfi_re_general(_pair_fn(ghz_state(n)), 1e-4)
        worst = max(worst, abs(got - 2 * n * n) / (2 * n * n))
    _report(1, "reversed encoding keeps 2N^2 for GHZ probes", worst <= 1e-3,
            t0, 5.0, f"max rel err {worst:.1e}")


def test_c02_product_standard_limit():
    t0 = time.time()
    worst = 0.0
    for n in (1, 2, 3, 4):
        got = qfi_re_general(_pair_fn(product_plus_state(n)), 1e-4)
        worst = max(worst, abs(got - 2 * n) / (2 * n))
    _report(2, "reversed encoding keeps 2N for product probes", worst <= 1e-3,
            t0, 5.0, f"max rel err {worst:.1e}")


def test_c03_closed_forms_match_pipeline():
    t0 = time.time()
    worst = 0.0
    for n in (1, 2, 3, 4):
        for probe, closed in ((ghz_state(n), qfi_ghz_closed),
                              (product_plus_state(n), qfi_product_closed)):
            fn = _pair_fn(probe)
            for theta in GRID:
                want = closed(n, theta)
                a = qfi_re_general(fn, theta)
                b = qfi_from_spectrum(swap_overlaps(fn(theta)), 2)
                worst = max(worst, abs(a - want) / want, abs(b - want) / want)
    _report(3, "coefficient and spectrum paths match the closed forms",
            worst <= 1e-4, t0, 30.0, f"max rel err {worst:.1e}")


def test_c04_identical_encoding_no_go():
    t0 = time.time()
    rng = np.random.default_rng(SEED)
    worst = 0.0
    probes = [ghz_state(2), ghz_state(3), product_plus_state(2), product_plus_state(3)]
    probes += [_random_probe(rng.integers(2, 4), rng) for _ in range(50)]
    for psi in probes:
        n = psi.layout.n_sites
        h = HamiltonianSpec(QuditLayout(n, 2, 1), site_weights=rng.uniform(0.2, 1.0, n))
        value = qfi_ie_general(lambda t: make_pair(psi, h, t, IE), 0.4)
        worst = max(worst, value)
    _report(4, "identical encoding with one-local generators carries nothing",
            worst <= 1e-8, t0, 30.0, f"max value {worst:.1e}")


def test_c05_swap_readouts_saturate():
    t0 = time.time()
    worst = 0.0
    grid = _grid_with_margin(4, 50, 0.012)
    for n in (1, 2, 3, 4):
        for probe, closed in (("ghz", qfi_ghz_closed), ("product", qfi_product_closed)):
            for theta in grid:
                c, dc, ddc = closed_overlaps(probe, n, theta)[:, popcounts(n)]
                want = closed(n, theta)
                lst = fisher_from_coefficients(c, dc, ddc)
                lbm = _scan_columns(probe, n, np.array([theta]), ("cfi_lbm",))["cfi_lbm"][0]
                scale = max(want, 1.0)
                worst = max(worst, abs(lst - want) / scale, abs(lbm - want) / scale)
    # same statement through the numeric pipeline on a random probe
    rng = np.random.default_rng(SEED + 5)
    psi = _random_probe(3, rng)
    fn = _pair_fn(psi)
    for theta in (0.2, 0.8):
        lst = fisher_from_coefficients(*swap_overlaps(fn(theta)))
        want = qfi_re_general(fn, theta)
        worst = max(worst, abs(lst - want) / max(want, 1.0))
    _report(5, "local swap test and Bell readout saturate the twirled optimum",
            worst <= 1e-9, t0, 10.0, f"max rel err {worst:.1e}")


def _dm_peak(n: int, grid: np.ndarray) -> tuple:
    """Peak of the GHZ direct-readout column over the grid (weight route),
    and the mask route's value at the same angle."""
    column = _scan_columns("ghz", n, grid, ("cfi_dm",))["cfi_dm"]
    at = grid[np.argmax(column)]
    return column.max(), cfi(DM, closed_overlaps("ghz", n, at)[:, popcounts(n)], 2)


def test_c06_direct_readout_inefficiency():
    t0 = time.time()
    grid = np.linspace(1e-4, math.pi / 2, 4001)
    peak, mask = _dm_peak(2, grid)
    ok = (abs(peak - 0.8005) <= 0.005 and abs(peak / 8.0 - 0.100) <= 0.005
          and abs(peak - mask) <= 1e-13 * 8.0)
    _report(6, "direct-basis readout peaks at 0.8005 (10.0% of the ceiling)",
            ok, t0, 5.0, f"peak {peak:.4f} = {peak / 8 * 100:.1f}%, mask route {mask:.4f}")


def test_c07_global_randomized_inefficiency():
    t0 = time.time()
    grid = np.linspace(1e-4, math.pi / 2, 4001)
    peak = max(cfi_grm_from_overlap(math.cos(2 * t) ** 2, -2 * math.sin(4 * t), 2)
               for t in grid)
    _report(7, "globally randomized readout peaks at 0.769",
            abs(peak - 0.769) <= 0.005, t0, 5.0, f"peak {peak:.4f}")


def test_c08_exponential_information_loss():
    t0 = time.time()
    n = 10
    grid = np.linspace(1e-3, math.pi / 2, 20001)
    dm, dm_mask = _dm_peak(n, grid)
    grm = max(cfi_grm_from_overlap(math.cos(n * t) ** 2, -n * math.sin(2 * n * t), n)
              for t in grid)
    dm_target = 0.0384  # 0.019% of 2N^2
    grm_target = (12.0 - 8.0 * math.sqrt(2.0)) * n * n / 2.0**n
    ok = (abs(dm - dm_target) / dm_target <= 0.15 and abs(dm - dm_mask) <= 1e-13 * 2 * n * n
          and abs(grm - grm_target) / grm_target <= 0.15)
    _report(8, "randomized readouts lose information exponentially at N=10",
            ok, t0, 5.0, f"dm {dm:.4f} vs {dm_target:.4f}; grm {grm:.4f} vs {grm_target:.4f}")


def test_c09_global_twirl_comparison():
    t0 = time.time()
    n = 2
    h = HamiltonianSpec.pauli_z_sum(n)
    worst = 0.0
    gui_vals, lui_vals = [], []
    for theta in GRID:
        pair = make_pair(ghz_state(n), h, theta, RE)
        got = qfi_gui_re(pair)
        want = qfi_gui_ghz_closed(n, theta)
        worst = max(worst, abs(got - want))
        gui_vals.append(got)
        lui_vals.append(qfi_ghz_closed(n, theta))
    ok = (worst <= 1e-6
          and min(gui_vals) < 2 * n        # global twirl dips below 2N
          and min(lui_vals) >= 2 * n - 1e-9)  # local twirl never does
    _report(9, "global twirl matches its closed form and dips below 2N",
            ok, t0, 5.0, f"max err {worst:.1e}, min gui {min(gui_vals):.3f}")


def test_c10_monte_carlo_twirl_oracle():
    t0 = time.time()
    pair = make_pair(ghz_state(2), HamiltonianSpec.pauli_z_sum(2), 0.3, RE)
    lui = lui_coefficients(pair)
    target = lui_density(lui)
    sampled = mc_local_twirl(pair, 20000, np.random.default_rng(SEED))
    dist = trace_distance(sampled, target)
    report = invariance_suite(lui, 100, seed=SEED)
    ok = dist <= 0.03 and report.trace_distance <= 1e-10
    _report(10, "sampled twirl converges and the fixed point is rotation-proof",
            ok, t0, 60.0, f"mc dist {dist:.4f}, drift {report.trace_distance:.1e}")


def test_c11_spectrum_consistency():
    t0 = time.time()
    rng = np.random.default_rng(SEED + 11)
    worst_val, worst_sum = 0.0, 0.0
    for n in (1, 2, 3):
        for _ in range(3):
            psi = _random_probe(n, rng)
            pair = make_pair(psi, HamiltonianSpec.pauli_z_sum(n), 0.52, RE)
            lui = lui_coefficients(pair)
            eigenvalues, degeneracies = lui_spectrum(lui)
            predicted = np.sort(np.repeat(eigenvalues, degeneracies))
            dense = np.sort(np.linalg.eigvalsh(lui_density(lui).matrix))
            worst_val = max(worst_val, float(np.max(np.abs(dense - predicted))))
            total = float(np.sum(degeneracies * eigenvalues))
            worst_sum = max(worst_sum, abs(total - 1.0))
    ok = worst_val <= 1e-9 and worst_sum <= 1e-9
    _report(11, "analytic spectrum reproduces the dense eigenvalues",
            ok, t0, 30.0, f"eig err {worst_val:.1e}, sum err {worst_sum:.1e}")


def test_c12_commutant_dimensions():
    t0 = time.time()
    dims = {}
    for i, n in enumerate((1, 2, 3)):
        res = commutant_dimension(CommutantQuery(n, 2, 2), np.random.default_rng([SEED, i]))
        dims[n] = (res.dimension, res.stable)
    single = commutant_dimension(CommutantQuery(2, 2, 1), np.random.default_rng([SEED, 9]))
    ok = (dims[1] == (2, True) and dims[2] == (4, True) and dims[3] == (8, True)
          and single.dimension == 1 and single.traceless_dimension == 0 and single.stable)
    _report(12, "commutant dimensions are 2^N per site and trivial for one copy",
            ok, t0, 60.0, f"dims {[dims[n][0] for n in (1, 2, 3)]}, k=1 traceless "
                          f"{single.traceless_dimension}")


def test_c13_crb_saturation():
    t0 = time.time()
    lbm_model = lambda t: probs_lbm(ghz_lui(2, t))
    dm_model = lambda t: probs_dm(ghz_lui(2, t))
    series = closed_overlaps("ghz", 2, 0.05)[:, popcounts(2)]
    lbm = estimation_experiment(lbm_model, 0.05, cfi(LBM, series, 2), 100_000, 200, seed=SEED)
    dm = estimation_experiment(dm_model, 0.05, cfi(DM, series, 2), 100_000, 200, seed=SEED + 1)
    ratio = lbm.variance / lbm.crb
    ok = 0.8 <= ratio <= 1.2 and dm.variance >= 5.0 * lbm.variance
    _report(13, "Bell readout saturates the bound; direct readout trails far behind",
            ok, t0, 120.0,
            f"var/crb {ratio:.3f}, dm/lbm variance {dm.variance / lbm.variance:.0f}x")
