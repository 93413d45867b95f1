"""Tests of the benchmark's own reference code, on cases with known answers.

    python3 -m pytest perfbench -q
"""

import math
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import oracle as O  # noqa: E402
import workloads as W  # noqa: E402


def _haar(d, rng):
    z = (rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))) / math.sqrt(2)
    q, r = np.linalg.qr(z)
    return q * (np.diag(r) / np.abs(np.diag(r)))


def _swap(d):
    f = np.zeros((d * d, d * d))
    for a in range(d):
        for b in range(d):
            f[a * d + b, b * d + a] = 1.0
    return f


@pytest.mark.parametrize("d", [2, 3])
def test_single_site_twirl_lands_in_span_of_identity_and_swap(d):
    rng = np.random.default_rng(d)
    m = rng.standard_normal((d * d, d * d)) + 1j * rng.standard_normal((d * d, d * d))
    out = O.local_twirl(m, d, 1)
    f = _swap(d)
    basis = np.stack([np.eye(d * d).ravel(), f.ravel()], axis=1)
    coef, *_ = np.linalg.lstsq(basis, out.ravel(), rcond=None)
    assert np.allclose(basis @ coef, out.ravel(), atol=1e-13)
    assert np.isclose(np.trace(out), np.trace(m), atol=1e-12)
    assert np.isclose(np.trace(f @ out), np.trace(f @ m), atol=1e-12)
    assert np.allclose(O.local_twirl(out, d, 1), out, atol=1e-13)


def test_single_site_twirl_matches_haar_average():
    rng = np.random.default_rng(5)
    m = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
    acc = np.zeros((4, 4), dtype=complex)
    samples = 20000
    for _ in range(samples):
        u = _haar(2, rng)
        w = np.kron(u, u)
        acc += w @ m @ w.conj().T
    assert np.max(np.abs(acc / samples - O.local_twirl(m, 2, 1))) < 0.1


@pytest.mark.parametrize("d,n", [(2, 2), (2, 3), (3, 2)])
def test_twirled_state_is_invariant_under_collective_rotations(d, n):
    rng = np.random.default_rng(10 * d + n)
    dim = d ** n
    probe = O.Probe(O.random_vector(dim, rng), d, n, matrix=O.random_hermitian(dim, rng))
    rho = O.TwoCopy(probe, 0.4).rho
    for _ in range(3):
        # site 0 is the least significant digit, so kron runs from the last site
        single = np.eye(1)
        for _site in range(n):
            single = np.kron(_haar(d, rng), single)
        w = np.kron(single, single)
        assert np.max(np.abs(w @ rho @ w.conj().T - rho)) < 1e-12
    assert np.isclose(np.trace(rho).real, 1.0, atol=1e-12)
    assert np.linalg.eigvalsh(rho)[0] > -1e-12


@pytest.mark.parametrize("n", [1, 2, 3])
def test_qfi_at_zero_is_2n_squared_for_ghz_and_2n_for_product(n):
    assert O.TwoCopy(O.closed_probe("ghz", n), 0.0).qfi() == pytest.approx(2 * n * n, rel=1e-10)
    assert O.TwoCopy(O.closed_probe("product", n), 0.0).qfi() == pytest.approx(2 * n, rel=1e-10)
    assert O.qfi_re_ghz(n, 0.0) == 2 * n * n
    assert O.qfi_re_product(n, 0.0) == 2 * n


@pytest.mark.parametrize("probe", ["ghz", "product"])
@pytest.mark.parametrize("n", [2, 3])
@pytest.mark.parametrize("theta", [0.0, 0.13, 0.5, math.pi / 4, 1.2])
def test_oracle_reproduces_the_closed_forms(probe, n, theta):
    ref = O.closed_probe(probe, n)
    local = O.TwoCopy(ref, theta)
    qfi = O.qfi_re_closed(probe, n, theta)
    assert local.qfi() == pytest.approx(qfi, rel=1e-9, abs=1e-9)
    # local Bell readout saturates the reversed-encoding information
    assert local.cfi("bell") == pytest.approx(qfi, rel=1e-9, abs=1e-9)
    assert local.cfi("diag") <= qfi + 1e-9
    gui = O.TwoCopy(ref, theta, twirl="global").qfi()
    assert gui == pytest.approx(O.qfi_gui_closed(probe, n, theta), rel=1e-8, abs=1e-9)
    assert gui <= qfi + 1e-9 <= O.f0_closed(probe, n) + 2e-9


@pytest.mark.parametrize("n", [2, 3])
def test_identical_encoding_with_one_local_generator_carries_nothing(n):
    rng = np.random.default_rng(n)
    probe = O.Probe(O.random_vector(1 << n, rng), 2, n,
                    diag=O.z_sum_diagonal(rng.uniform(0.2, 1.0, n)))
    assert abs(O.TwoCopy(probe, 0.7, mode="ie").qfi()) < 1e-10


def test_closed_overlap_derivatives_match_finite_differences():
    h = 1e-5
    for probe, n in (("ghz", 3), ("product", 4)):
        ref = O.closed_probe(probe, n)
        for t in (0.2, 0.9):
            s, ds, dds = O.overlap_closed(probe, n, t)
            assert (s, ds, dds) == pytest.approx(ref.overlap(t), rel=1e-10, abs=1e-12)
            sp, sm = O.overlap_closed(probe, n, t + h)[0], O.overlap_closed(probe, n, t - h)[0]
            assert ds == pytest.approx((sp - sm) / (2 * h), rel=1e-6)
            assert dds == pytest.approx((sp - 2 * s + sm) / h**2, rel=1e-4)


def test_chi2_and_normal_quantiles():
    assert W.chi2_quantile_even(0.5, 2) == pytest.approx(2 * math.log(2), rel=1e-9)
    assert W.chi2_cdf_even(W.chi2_quantile_even(0.975, 8), 8) == pytest.approx(0.975, abs=1e-9)
    assert W.normal_quantile(0.975) == pytest.approx(1.959963984540054, rel=1e-9)


def test_scan_tolerance_allowance_is_bounded():
    assert W.tolerance(8.0, 1.0, 1e-9) == pytest.approx(8e-9)
    assert W.tolerance(8.0, 1.0 - 1e-16, 1e-9) <= 8.0 * (1e-9 + W.CANCEL_CAP)


@pytest.mark.parametrize("case", W.ESTIMATE_CASES, ids=lambda c: "-".join(map(str, c[:3])))
def test_estimation_angles_keep_the_search_window_clear(case):
    strategy, probe, n, lo, hi = case
    for theta in np.linspace(lo, hi, 41):
        assert W.estimable(strategy, probe, n, float(theta))
