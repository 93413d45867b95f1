import numpy as np
import pytest

from framefree.states import IE, RE, HamiltonianSpec, ghz_state, make_pair, product_plus_state
from framefree import verify
from framefree.fisher import lui_spectrum
from framefree.tensor import DensityOperator, QuditLayout, StateVector, _orbit_plan
from framefree.twirl import (
    LuiState,
    _lui_matrix,
    ghz_lui,
    gui_density,
    gui_state,
    lui_coefficients,
    lui_density,
    pair_product_density,
    product_lui,
)
from framefree.verify import (
    BLOCK_SLACK,
    GLOBAL,
    CommutantQuery,
    commutant_dimension,
    invariance_suite,
    lui_state_checks,
    mc_convergence,
    rotation_distance,
    trace_distance,
    untwirled_moves,
)

from reference import exact_eigen_checks, exact_rotation_distance
from conftest import random_hermitian, random_state


def ghz_pair(n, theta, mode=RE):
    return make_pair(ghz_state(n), HamiltonianSpec.pauli_z_sum(n), theta, mode)


def random_lui(n, d, rng):
    lay = QuditLayout(n, d, 1)
    amps = rng.standard_normal(lay.dim) + 1j * rng.standard_normal(lay.dim)
    psi = StateVector(lay, amps / np.linalg.norm(amps))
    h = HamiltonianSpec.dense(lay, random_hermitian(lay.dim, rng))
    return lui_coefficients(make_pair(psi, h, 0.4, RE))


INVARIANT_LABELS = ("ghz2", "ghz3", "ghz4", "ghz5", "product4", "random3", "qutrit2", "qutrit3")


def invariant_state(label):
    """Twirled states of every probe kind, up to dimension 1024."""
    if label.startswith("ghz"):
        n = int(label[3:])
        return ghz_lui(n, 0.2 + 0.3 * n)
    if label == "product4":
        return product_lui(4, 0.7)
    n, d = {"random3": (3, 2), "qutrit2": (2, 3), "qutrit3": (3, 3)}[label]
    return random_lui(n, d, np.random.default_rng([83, n, d]))


@pytest.fixture
def eigensolve_sizes(monkeypatch):
    """Dimensions of every `np.linalg.eigvalsh` input, in call order; a
    stack of blocks counts as its block size."""
    return _record_sizes(monkeypatch, "eigvalsh")


@pytest.fixture
def factor_sizes(monkeypatch):
    """Dimensions of every `np.linalg.cholesky` input, in call order."""
    return _record_sizes(monkeypatch, "cholesky")


def _record_sizes(monkeypatch, name):
    sizes = []
    solve = getattr(np.linalg, name)

    def record(a, *args, **kwargs):
        sizes.append(np.shape(a)[-1])
        return solve(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, name, record)
    return sizes


class TestCommutant:
    def test_per_site_two_copy_dimensions(self):
        # oracle: nullspace of stacked commutation constraints from Haar draws
        for i, (n, expected) in enumerate([(1, 2), (2, 4), (3, 8)]):
            res = commutant_dimension(CommutantQuery(n, 2, 2),
                                      np.random.default_rng([41, i]))
            assert res.dimension == expected
            assert res.stable

    def test_single_copy_trivial(self):
        for n in (1, 2, 3):
            res = commutant_dimension(CommutantQuery(n, 2, 1),
                                      np.random.default_rng([43, n]))
            assert res.dimension == 1
            assert res.traceless_dimension == 0
            assert res.stable

    def test_global_two_copy(self):
        res = commutant_dimension(CommutantQuery(2, 2, 2, locality=GLOBAL),
                                  np.random.default_rng(47))
        assert res.dimension == 2  # identity and the full swap

    def test_qutrit_site(self):
        for n, expected in ((1, 2), (2, 4)):
            res = commutant_dimension(CommutantQuery(n, 3, 2), np.random.default_rng(53))
            assert res.dimension == expected
            assert res.stable

    def test_dimension_limit(self):
        with pytest.raises(ValueError, match="exceeds"):
            CommutantQuery(5, 2, 2)

    def test_bad_locality(self):
        with pytest.raises(ValueError, match="locality"):
            CommutantQuery(2, 2, 2, locality="nope")


class TestTraceDistance:
    def test_self_distance_zero(self, rng):
        rho = random_state(2, rng).density()
        assert trace_distance(rho, rho) == 0.0

    def test_orthogonal_pure_states(self):
        lay = QuditLayout(1, 2, 1)
        zero = StateVector(lay, np.array([1.0, 0.0])).density()
        one = StateVector(lay, np.array([0.0, 1.0])).density()
        assert np.isclose(trace_distance(zero, one), 1.0, atol=1e-12)

    def test_mixture_halves_distance(self, rng):
        # oracle: eigenvalues of the 2x2 difference
        rho = random_state(1, rng).density()
        sigma = random_state(1, rng).density()
        mix = rho.matrix / 2 + sigma.matrix / 2
        lay = rho.layout
        from framefree.tensor import DensityOperator

        half = trace_distance(DensityOperator(lay, mix), rho)
        full = trace_distance(sigma, rho)
        assert np.isclose(half, full / 2, atol=1e-12)

    def test_layout_mismatch(self, rng):
        with pytest.raises(ValueError, match="layout"):
            trace_distance(random_state(1, rng).density(), random_state(2, rng).density())


class TestInvarianceSuite:
    def test_twirled_states_pass(self, rng):
        cases = [lui_coefficients(ghz_pair(2, 0.3)),
                 lui_coefficients(ghz_pair(3, 0.3)),
                 lui_coefficients(make_pair(product_plus_state(2),
                                            HamiltonianSpec.pauli_z_sum(2), 0.7, IE))]
        lay3 = QuditLayout(2, 3, 1)
        amps = rng.standard_normal(9) + 1j * rng.standard_normal(9)
        psi3 = StateVector(lay3, amps / np.linalg.norm(amps))
        h3 = HamiltonianSpec.dense(lay3, random_hermitian(9, rng))
        cases.append(lui_coefficients(make_pair(psi3, h3, 0.4, RE)))
        for lui in cases:
            report = invariance_suite(lui, 100, seed=11)
            assert report.trace_distance <= 1e-10
            assert report.samples == 100

    def test_qutrit_three_sites_full_draw_count(self, rng):
        # largest in-cap case (3^6 = 729 dense): still an exact fixed point
        lay = QuditLayout(3, 3, 1)
        amps = rng.standard_normal(lay.dim) + 1j * rng.standard_normal(lay.dim)
        psi = StateVector(lay, amps / np.linalg.norm(amps))
        h = HamiltonianSpec.dense(lay, random_hermitian(lay.dim, rng))
        lui = lui_coefficients(make_pair(psi, h, 0.4, RE))
        report = invariance_suite(lui, 100, seed=29)
        assert report.trace_distance <= 1e-10

    def test_gui_invariant_under_identical_rotations(self):
        dense = gui_density(gui_state(ghz_pair(2, 0.3)))
        moved = rotation_distance(dense, 100, np.random.default_rng(19),
                                  identical_sites=True)
        assert moved <= 1e-10

    def test_untwirled_product_moves(self):
        assert untwirled_moves(ghz_pair(2, 0.3), 20, seed=23) > 0.1

    def test_single_site_identity_rotations(self):
        lui = lui_coefficients(ghz_pair(1, 0.4))
        from framefree.twirl import g_twirl_apply, lui_density

        dense = lui_density(lui)
        out = g_twirl_apply(dense, [np.eye(2)])
        assert trace_distance(out, dense) == 0.0


class TestRealInput:
    """Real twirled states give the distances of their complex casts, bit for bit."""

    @staticmethod
    def as_complex(rho):
        return DensityOperator(rho.layout, rho.matrix.astype(complex))

    def test_rotation_distance(self):
        dense = lui_density(lui_coefficients(ghz_pair(3, 0.3)))
        assert dense.matrix.dtype == np.float64
        for identical in (False, True):
            got = [rotation_distance(rho, 5, np.random.default_rng(41), identical)
                   for rho in (dense, self.as_complex(dense))]
            assert got[0] == got[1]

    def test_invariance_suite_and_mc_convergence(self, monkeypatch):
        lui = lui_coefficients(ghz_pair(2, 0.3))
        pair = ghz_pair(2, 0.3)
        real = (invariance_suite(lui, 5, 43), mc_convergence(pair, (100, 400), 47))
        monkeypatch.setattr(verify, "lui_density", lambda s: self.as_complex(lui_density(s)))
        cast = (invariance_suite(lui, 5, 43), mc_convergence(pair, (100, 400), 47))
        assert real == cast

    def test_trace_distance_of_real_operands(self):
        a = lui_density(lui_coefficients(ghz_pair(2, 0.3)))
        b = lui_density(lui_coefficients(ghz_pair(2, 0.9)))
        # both real: a real eigensolve, equal to the complex one to rounding
        assert np.isclose(trace_distance(a, b), trace_distance(a, self.as_complex(b)),
                          rtol=0, atol=1e-14)


class TestSectorBracket:
    """Distances from the orbit blocks: never below the full
    eigensolve's and within BLOCK_SLACK of it, trial by trial."""

    @pytest.mark.parametrize("label", INVARIANT_LABELS)
    def test_invariant_states(self, label, eigensolve_sizes):
        dense = lui_density(invariant_state(label))
        trials = 2 if dense.layout.dim > 256 else 5
        exact = exact_rotation_distance(dense, trials, np.random.default_rng(7))
        eigensolve_sizes.clear()
        rng = np.random.default_rng(7)
        got = [rotation_distance(dense, 1, rng) for _ in range(trials)]
        assert max(eigensolve_sizes) < dense.layout.dim
        for g, e in zip(got, exact):
            assert e <= g <= e + BLOCK_SLACK

    def test_gui_state_under_identical_rotations(self, eigensolve_sizes):
        dense = gui_density(gui_state(ghz_pair(2, 0.3)))
        exact = exact_rotation_distance(dense, 20, np.random.default_rng(19), True)
        eigensolve_sizes.clear()
        rng = np.random.default_rng(19)
        got = [rotation_distance(dense, 1, rng, identical_sites=True) for _ in range(20)]
        assert max(eigensolve_sizes) < dense.layout.dim
        for g, e in zip(got, exact):
            assert e <= g <= e + BLOCK_SLACK

    def test_off_block_perturbation_falls_back(self, eigensolve_sizes):
        lay2 = QuditLayout(3, 2, 2)
        mixed = (lui_density(ghz_lui(3, 0.4)).matrix + np.eye(lay2.dim) / lay2.dim) / 2
        # |0...0> is alone in its orbit, basis state 1 shares one with its
        # copy exchange on site 0: the bump couples two orbits
        bump = np.zeros_like(mixed)
        bump[0, 1] = bump[1, 0] = 1e-9
        rho = DensityOperator(lay2, mixed + bump)
        got = rotation_distance(rho, 5, np.random.default_rng(3))
        assert eigensolve_sizes.count(lay2.dim) == 5
        assert got == max(exact_rotation_distance(rho, 5, np.random.default_rng(3)))

    def test_untwirled_products_take_full_eigensolves(self):
        pair = ghz_pair(2, 0.3)
        raw = pair_product_density(pair)
        assert untwirled_moves(pair, 20, seed=23) == max(
            exact_rotation_distance(raw, 20, np.random.default_rng(23)))
        assert rotation_distance(raw, 10, np.random.default_rng(5)) == max(
            exact_rotation_distance(raw, 10, np.random.default_rng(5)))


def pushed(lui, target):
    """Coefficients whose lowest eigenvalue is moved to `target`, keeping
    the trace: the difference goes to the full-mask eigenvalue."""
    kernel = np.stack([lui_spectrum(LuiState(lui.layout, e))[0]
                       for e in np.eye(lui.coeffs.size)], axis=1)
    vals, deg = lui_spectrum(lui)
    low = int(np.argmin(vals))
    shift = np.zeros_like(vals)
    shift[low] = target - vals[low]
    shift[-1] -= shift[low] * deg[low] / deg[-1]
    return LuiState(lui.layout, np.linalg.solve(kernel, vals + shift))


class TestOrbitGate:
    """Two-copy states are checked on their orbit blocks where those decide;
    every rejection comes from the full-matrix checks."""

    @pytest.mark.parametrize("label", ["ghz3", "qutrit2"])
    @pytest.mark.parametrize("lowest, accepted", [(-0.9e-10, True), (-1.1e-10, False)])
    def test_psd_gate_boundary(self, label, lowest, accepted, eigensolve_sizes):
        # as for one copy: no factor on either side of -PSD_ATOL, so the
        # full spectrum decides at the threshold
        lui = pushed(invariant_state(label), lowest)
        dim = lui.layout.two_copy().dim
        if accepted:
            DensityOperator(lui.layout.two_copy(), _lui_matrix(lui))
        else:
            with pytest.raises(ValueError, match=r"negative eigenvalue -1\.(1|09)"):
                DensityOperator(lui.layout.two_copy(), _lui_matrix(lui))
        assert eigensolve_sizes == [dim]

    def test_off_orbit_asymmetry_rejected(self):
        mat = _lui_matrix(ghz_lui(3, 0.4))
        # basis states 0 and 1 lie in different orbits
        mat[0, 1] += 1e-9
        with pytest.raises(ValueError, match="Hermitian"):
            DensityOperator(QuditLayout(3, 2, 2), mat)

    @pytest.mark.parametrize("inside", [True, False])
    def test_nan_entry_rejected(self, inside):
        lui = invariant_state("qutrit2")
        mat = _lui_matrix(lui)
        i, j = _orbit_plan(2, 3)[1][0] if inside else (0, 1)
        mat[i, j] = mat[j, i] = np.nan
        with pytest.raises(ValueError, match="Hermitian"):
            DensityOperator(lui.layout.two_copy(), mat)

    @pytest.mark.parametrize("label", ["ghz5", "qutrit3"])
    def test_invariant_states_factor_blocks_only(self, label, factor_sizes):
        lui = invariant_state(label)
        dim = lui.layout.two_copy().dim
        dense = lui_density(lui)
        invariance_suite(lui, 2, seed=5)
        # one factor per stack of blocks, n + 1 stacks: lui_density twice,
        # then one rotated copy per trial
        assert len(factor_sizes) == 4 * (lui.n_sites + 1)
        assert max(factor_sizes) < dim
        assert np.array_equal(dense.matrix, _lui_matrix(lui))

    def test_product_state_factors_in_full(self, factor_sizes):
        raw = pair_product_density(ghz_pair(2, 0.3))
        assert factor_sizes == [raw.layout.dim]


class TestValidityChecks:
    def test_honest_state_passes(self):
        checks = lui_state_checks(lui_coefficients(ghz_pair(2, 0.5)))
        assert all(checks.values())

    def test_honest_states_pass_on_blocks(self, eigensolve_sizes):
        for label in INVARIANT_LABELS:
            lui = invariant_state(label)
            eigensolve_sizes.clear()
            assert all(lui_state_checks(lui).values()), label
            assert max(eigensolve_sizes) < lui.layout.two_copy().dim, label

    def test_negative_eigenvalue_flagged_on_blocks(self, eigensolve_sizes):
        bad = pushed(ghz_lui(3, 0.5), -1e-8)
        checks = lui_state_checks(bad)
        assert not checks["positive"]
        assert checks["spectrum_consistent"]
        assert max(eigensolve_sizes) < 64

    def test_moved_spectrum_flagged_on_blocks(self, eigensolve_sizes, monkeypatch):
        lui = ghz_lui(3, 0.5)
        vals, deg = lui_spectrum(lui)
        moved = vals + 1e-8 * (np.arange(vals.size) == 3)
        monkeypatch.setattr(verify, "lui_spectrum", lambda state: (moved, deg))
        checks = lui_state_checks(lui)
        assert not checks["spectrum_consistent"]
        assert checks["positive"]
        assert max(eigensolve_sizes) < 64

    def test_off_block_content_falls_back(self, eigensolve_sizes, monkeypatch):
        lui = pushed(ghz_lui(2, 0.3), 0.0)
        bump = np.zeros((16, 16))
        bump[0, 1] = bump[1, 0] = 1e-9
        mat = _lui_matrix(lui) + bump
        monkeypatch.setattr(verify, "_lui_matrix", lambda state: mat)
        checks = lui_state_checks(lui)
        assert 16 in eigensolve_sizes
        assert {k: checks[k] for k in ("positive", "spectrum_consistent")} == \
            exact_eigen_checks(mat, lui)

    def test_tampered_coefficients_fail(self):
        lui = lui_coefficients(ghz_pair(2, 0.5))
        bad = LuiState(lui.layout, lui.coeffs.copy())
        bad.coeffs[0] = 0.9
        checks = lui_state_checks(bad)
        assert not checks["c0_is_one"]
        assert not all(checks.values())

    def test_out_of_range_coefficient_fails(self):
        lui = lui_coefficients(ghz_pair(2, 0.5))
        bad = LuiState(lui.layout, lui.coeffs.copy())
        bad.coeffs[3] = 1.4
        checks = lui_state_checks(bad)
        assert not checks["coeffs_in_range"]


class TestMcConvergence:
    def test_schedule_decreases_and_converges(self):
        reports = mc_convergence(ghz_pair(2, 0.3), (100, 1000, 20000), seed=61)
        dists = [r.trace_distance for r in reports]
        assert dists[0] > dists[-1]
        assert dists[-1] <= 0.03

    def test_single_site_budget(self):
        report = mc_convergence(ghz_pair(1, 0.3), (20000,), seed=67)[0]
        assert report.trace_distance <= 0.02

    def test_deterministic(self):
        a = mc_convergence(ghz_pair(1, 0.3), (500,), seed=71)[0]
        b = mc_convergence(ghz_pair(1, 0.3), (500,), seed=71)[0]
        assert a.trace_distance == b.trace_distance
        assert a.samples == 500 and a.seed == 71
