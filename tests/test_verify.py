import numpy as np
import pytest

from framefree.states import IE, RE, HamiltonianSpec, ghz_state, make_pair, product_plus_state
from framefree import verify
from framefree.tensor import DensityOperator, QuditLayout, StateVector
from framefree.twirl import LuiState, gui_density, gui_state, lui_coefficients, lui_density
from framefree.verify import (
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

from conftest import random_hermitian, random_state


def ghz_pair(n, theta, mode=RE):
    return make_pair(ghz_state(n), HamiltonianSpec.pauli_z_sum(n), theta, mode)


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


class TestValidityChecks:
    def test_honest_state_passes(self):
        checks = lui_state_checks(lui_coefficients(ghz_pair(2, 0.5)))
        assert all(checks.values())

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
