"""The four workloads: one round of operations each, with their checks.

A round is a fixed list of operations built from the seed.  Every run
repeats whole rounds, so each round attempts the same operations and the
share of failed ones is the same in every run.  An operation is a closure
around one public framefree call (the timed part) and a check that compares
its output with `oracle` or with a property the method must have (untimed).

Seeded inputs never fail.  Operations that exercise one of the three named
program faults use inputs fixed independently of the seed and carry the
fault's number; such an operation is failed by that fault alone.
"""

import functools
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from framefree import cli, fisher, states, tensor, twirl, verify

import oracle as O

U = float(np.finfo(float).eps)
HALF_PI = math.pi / 2.0

# analytic columns agree with the closed forms to this share of the probe's
# ceiling f0, plus the rounding of formulas built from 1 - s (see tolerance)
ANALYTIC_RTOL = 1e-9
CANCEL_CAP = 1e-7
# general route: exact derivatives (step = 0) and central differences
EXACT_RTOL = 1e-8
FD_RTOL = 1e-6
# dense oracles: matrices built two ways agree entrywise to this
DENSE_ATOL = 1e-11
INVARIANT_ATOL = 1e-10
# Monte-Carlo twirl: trace distance * sqrt(samples) stays under this
# (measured mean 1.5, spread 0.2 at N = 2)
MC_SQRT_BOUND = 8.0
# statistical checks: false-alarm probability per operation
STAT_ALPHA = 1e-9

STEPS = (1e-5, 0.0)

# the column sets of the three scan configs shipped in configs/
SCAN_SETS = {
    "A": "qfi_re,qfi_gui,f0",           # local_vs_global_twirl_ghz_n2.json
    "B": "qfi_re,cfi_lst,cfi_gst,f0",   # product_probe_sql_n3.json
    "C": "qfi_re,cfi_lbm,cfi_dm",       # strategy_comparison_ghz_n2.json
}

# which check tags each named fault may fail
FAULT_TAGS = {
    "1": ("cfi_dm",),
    "2": ("stationary",),
    "3": ("cfi_lst", "cfi_lbm"),
}


@dataclass(eq=False)
class Op:
    """One timed call and the untimed check of its output.

    `check` returns a list of (tag, message) problems.  `fault` names the
    program fault that fails this operation, if any.
    """

    name: str
    run: object
    check: object
    fault: str | None = None


def tolerance(f0: float, s: float, rtol: float) -> float:
    """Absolute tolerance for a closed-form information value.

    The scale is the probe's ceiling f0.  Formulas of the form
    (ds)^2 / (1 - s^2) lose relative accuracy U / (1 - s) as the overlap s
    approaches 1 (theta -> 0), which double precision cannot avoid.  `s` is
    the exact closed-form overlap, 1 at theta = 0.  The allowance is capped
    at CANCEL_CAP; the grids' smallest nonzero angle (1e-4) stays under it.
    """
    cancel = 0.0 if s >= 1.0 else min(4.0 * U / (1.0 - s), CANCEL_CAP)
    return f0 * (rtol + cancel)


def _close(tag: str, got: float, want: float, tol: float) -> list:
    if abs(got - want) <= tol and math.isfinite(got):
        return []
    return [(tag, f"got {got:.12g}, expected {want:.12g} (tolerance {tol:.3g})")]


def _off_stationary(rng, n: int, lo: float, hi: float) -> float:
    """An angle at least 0.15/n away from the GHZ stationary angles k*pi/(2n)."""
    while True:
        t = float(rng.uniform(lo, hi))
        k = round(t * 2 * n / math.pi)
        if abs(t - k * math.pi / (2 * n)) >= 0.15 / n:
            return t


def _z_sum(n: int, weights=None):
    return states.HamiltonianSpec.pauli_z_sum(n, weights)


def _state(vec, d: int, n: int):
    return tensor.StateVector(tensor.QuditLayout(n, d, 1), vec)


def _closed_initial(probe: str, n: int):
    return states.ghz_state(n) if probe == "ghz" else states.product_plus_state(n)


# -- scan_grid


def _scan_reference(col: str, probe: str, n: int, theta: float) -> float:
    if col in ("qfi_re", "cfi_lst", "cfi_lbm"):
        return O.qfi_re_closed(probe, n, theta)
    if col in ("qfi_gui", "cfi_gst"):
        return O.qfi_gui_closed(probe, n, theta)
    if col == "f0":
        return O.f0_closed(probe, n)
    if col == "cfi_dm":
        return O.TwoCopy(O.closed_probe(probe, n), theta).cfi("diag")
    raise ValueError(col)


def scan_op(name, probe, n, lo, hi, points, cols, workdir: Path, seed, fault=None) -> Op:
    out = workdir / f"{name}.csv"
    cfg = {"probe": probe, "sites": n, "theta_min": lo, "theta_max": hi,
           "theta_points": points, "strategies": cols, "step": 1e-5,
           "seed": seed, "out": str(out)}
    names = cols.split(",")
    grid = np.linspace(lo, hi, points)

    @functools.cache
    def expected():
        ref = {c: np.array([_scan_reference(c, probe, n, float(t)) for t in grid]) for c in names}
        f0 = O.f0_closed(probe, n)
        tol = np.array([tolerance(f0, O.overlap_closed(probe, n, float(t))[0], ANALYTIC_RTOL)
                        for t in grid])
        return ref, tol

    def run():
        return cli.run_scan(cfg)

    def check(meta) -> list:
        ref, tol = expected()
        lines = out.read_text().splitlines()
        if lines[0] != "theta," + cols or len(lines) != points + 1:
            return [("format", f"unexpected CSV layout: {lines[0]!r}, {len(lines)} lines")]
        data = np.array([[float(x) for x in line.split(",")] for line in lines[1:]])
        problems = []
        if meta.get("sites") != n or meta.get("strategies") != names:
            problems.append(("format", "sidecar metadata disagrees with the request"))
        if np.max(np.abs(data[:, 0] - grid)) > 1e-11:
            problems.append(("format", "theta column is not the requested grid"))
        for j, c in enumerate(names):
            col = data[:, j + 1]
            excess = np.abs(col - ref[c]) - tol
            if not np.all(np.isfinite(col)) or excess.max() > 0:
                i = int(np.argmax(excess))
                problems.append((c, f"{c} at theta={grid[i]:.6g}: {col[i]:.12g}, "
                                    f"expected {ref[c][i]:.12g}"))
        qre = data[:, 1 + names.index("qfi_re")]
        for j, c in enumerate(names):
            if c.startswith("cfi_") or c == "qfi_gui":
                if np.any(data[:, j + 1] > qre + tol):
                    problems.append((c, f"{c} exceeds qfi_re"))
        if "f0" in names and np.any(qre > data[:, 1 + names.index("f0")] + tol):
            problems.append(("qfi_re", "qfi_re exceeds f0"))
        return problems

    return Op(name, run, check, fault)


def _stationary_gap(grid, probe: str, n: int) -> float:
    """Distance from the grid to the nearest stationary angle: k*pi/(2n) for
    GHZ probes, 0 for product probes."""
    if probe == "ghz":
        k = np.round(grid * 2 * n / math.pi)
        return float(np.min(np.abs(grid - k * math.pi / (2 * n))))
    return float(np.min(np.abs(grid)))


def build_scan_grid(rng, workdir: Path, seed: int) -> list:
    ops = []

    def seeded_grids(probe, n, points, window_points, clearance, lo=0.01, hi=0.7):
        """(lo, hi, points) of the quadrant, a window [0, w] at the stationary
        angle 0 whose smallest nonzero angle stays above 1e-4, and a random
        interval whose points keep `clearance` from the stationary angles
        (closer than that the closed-form floors misreport, see the FOUND
        entries in CHANGES.md)."""
        w = float(rng.uniform(0.05, 0.1))
        while True:
            a, b = float(rng.uniform(lo, hi)), float(rng.uniform(1.2, HALF_PI))
            if _stationary_gap(np.linspace(a, b, points), probe, n) >= clearance:
                break
        return {"quadrant": (0.0, HALF_PI, points), "window": (0.0, w, window_points),
                "interval": (a, b, points)}

    # set A is cheap per point; its larger grids keep CSV writing from
    # dominating the operation
    for probe in ("ghz", "product"):
        for n in (2, 4, 6, 8, 10):
            for kind, (lo, hi, pts) in seeded_grids(probe, n, 2001, 501, 1e-4).items():
                ops.append(scan_op(f"A_{probe}{n}_{kind}", probe, n, lo, hi, pts,
                                   SCAN_SETS["A"], workdir, seed))
    for n in (2, 4, 6, 8, 10):
        for kind, (lo, hi, pts) in seeded_grids("ghz", n, 201, 201, 1e-3).items():
            ops.append(scan_op(f"B_ghz{n}_{kind}", "ghz", n, lo, hi, pts,
                               SCAN_SETS["B"], workdir, seed))
    # below theta ~ 0.35 the product-probe lst/lbm columns meet fault 3,
    # which the fixed operations below cover
    for n in (3, 6, 9):
        lo, hi, pts = seeded_grids("product", n, 201, 201, 1e-3, 0.4, 0.7)["interval"]
        ops.append(scan_op(f"B_product{n}_interval", "product", n, lo, hi, pts,
                           SCAN_SETS["B"], workdir, seed))
    # fixed inputs: the three shipped configs and the fault reproductions
    ops.append(scan_op("config_local_vs_global_twirl_ghz_n2", "ghz", 2, 0.0, HALF_PI, 201,
                       SCAN_SETS["A"], workdir, seed))
    ops.append(scan_op("config_strategy_comparison_ghz_n2", "ghz", 2, 0.0, HALF_PI, 201,
                       SCAN_SETS["C"], workdir, seed, fault="1"))
    ops.append(scan_op("fault1_product_n3", "product", 3, 0.0, HALF_PI, 201,
                       SCAN_SETS["C"], workdir, seed, fault="1"))
    ops.append(scan_op("config_product_probe_sql_n3", "product", 3, 0.0, HALF_PI, 201,
                       SCAN_SETS["B"], workdir, seed, fault="3"))
    ops.append(scan_op("fault3_product_n10_window", "product", 10, 0.0, 0.05, 501,
                       SCAN_SETS["B"], workdir, seed, fault="3"))
    return ops


# -- general_route


class _Input:
    """A probe for the general route: program objects plus the oracle's copy."""

    def __init__(self, label, initial, ham, ref_probe: O.Probe):
        self.label = label
        self.initial, self.ham, self.ref = initial, ham, ref_probe
        self.f0 = ref_probe.f0()

    def pair_fn(self, mode: str):
        initial, ham = self.initial, self.ham
        return lambda t: states.make_pair(initial, ham, t, mode)


def _closed_input(probe: str, n: int) -> _Input:
    return _Input(f"{probe}{n}", _closed_initial(probe, n), _z_sum(n),
                  O.closed_probe(probe, n))


def _random_qubit_input(rng, n: int) -> _Input:
    vec = O.random_vector(1 << n, rng)
    weights = rng.uniform(0.2, 1.0, size=n)
    return _Input(f"random{n}", _state(vec, 2, n), _z_sum(n, weights),
                  O.Probe(vec, 2, n, diag=O.z_sum_diagonal(weights)))


def _random_qutrit_input(rng, n: int) -> _Input:
    dim = 3 ** n
    vec = O.random_vector(dim, rng)
    mat = O.random_hermitian(dim, rng)
    lay = tensor.QuditLayout(n, 3, 1)
    return _Input(f"qutrit{n}", _state(vec, 3, n), states.HamiltonianSpec.dense(lay, mat),
                  O.Probe(vec, 3, n, matrix=mat))


def _value_op(name, run, want, tol, fault=None, tag="value") -> Op:
    """An operation returning a FisherResult or a float checked against a
    lazily computed reference `want()`."""
    want = functools.cache(want)

    def check(out) -> list:
        got = float(getattr(out, "value", out))
        return _close(tag, got, want(), tol)

    return Op(name, run, check, fault)


def _route_tol(inp: _Input, step: float) -> float:
    return inp.f0 * (FD_RTOL if step else EXACT_RTOL)


def build_general_route(rng, workdir: Path, seed: int) -> list:
    ops = []

    def re_ops(inp: _Input, theta: float, want):
        fn = inp.pair_fn("re")
        for step in STEPS:
            ops.append(_value_op(
                f"qfi_re_general_{inp.label}_step{step:g}",
                lambda fn=fn, t=theta, st=step: fisher.qfi_re_general(fn, t, st),
                want, _route_tol(inp, step)))

    for n in (2, 4, 6, 8, 9):
        inp = _closed_input("ghz", n)
        t = _off_stationary(rng, n, 0.05, HALF_PI - 0.05)
        re_ops(inp, t, lambda n=n, t=t: O.qfi_re_ghz(n, t))
    for n in (3, 5, 7):
        inp = _closed_input("product", n)
        t = float(rng.uniform(0.2, 1.4))
        re_ops(inp, t, lambda n=n, t=t: O.qfi_re_product(n, t))
    for inp in [_random_qubit_input(rng, n) for n in (2, 3, 4)] + \
               [_random_qutrit_input(rng, n) for n in (2, 3)]:
        t = float(rng.uniform(0.3, 1.2))
        re_ops(inp, t, lambda inp=inp, t=t: O.TwoCopy(inp.ref, t).qfi())

    # identical encoding: zero for one-local generators (the no-go theorem),
    # the dense oracle for a generic qutrit generator
    for inp, one_local in ((_closed_input("product", 4), True),
                           (_random_qubit_input(rng, 3), True),
                           (_random_qutrit_input(rng, 2), False)):
        t = float(rng.uniform(0.3, 1.2))
        fn = inp.pair_fn("ie")
        want = (lambda: 0.0) if one_local else \
            (lambda inp=inp, t=t: O.TwoCopy(inp.ref, t, mode="ie").qfi())
        for step in STEPS:
            ops.append(_value_op(
                f"qfi_ie_general_{inp.label}_step{step:g}",
                lambda fn=fn, t=t, st=step: fisher.qfi_ie_general(fn, t, st),
                want, _route_tol(inp, step)))

    # restricted m-site sum: exact for a product probe encoded on m sites
    n, support = 6, 0
    while bin(support).count("1") != 3:
        support = int(rng.integers(1, 1 << n))
    weights = [0.5 if (support >> i) & 1 else 0.0 for i in range(n)]
    m_inputs = [
        (_Input("product6_m3", states.product_plus_state(n), _z_sum(n, weights),
                O.Probe(O.product_vector(n), 2, n, diag=O.z_sum_diagonal(weights))),
         float(rng.uniform(0.2, 1.4)), lambda t: O.qfi_re_product(3, t)),
        (_closed_input("ghz", 4), _off_stationary(rng, 4, 0.05, HALF_PI - 0.05),
         lambda t: O.qfi_re_ghz(4, t)),
    ]
    for inp, t, closed in m_inputs:
        pair = inp.pair_fn("re")(t)
        for step in STEPS:
            ops.append(_value_op(
                f"qfi_m_site_closed_{inp.label}_step{step:g}",
                lambda pair=pair, st=step: fisher.qfi_m_site_closed(pair, st),
                lambda closed=closed, t=t: closed(t), _route_tol(inp, step)))

    # global twirl: (ds)^2 / (1 - s^2) from the oracle's own overlap
    gui_inputs = [(_closed_input("ghz", 10), _off_stationary(rng, 10, 0.05, HALF_PI - 0.05)),
                  (_closed_input("product", 10), float(rng.uniform(0.1, 1.4))),
                  (_random_qubit_input(rng, 6), float(rng.uniform(0.3, 1.2)))]
    for inp, t in gui_inputs:
        pair = inp.pair_fn("re")(t)
        want = lambda inp=inp, t=t: O.global_swap_info(*inp.ref.overlap(t))
        for step in STEPS:
            ops.append(_value_op(
                f"qfi_gui_re_{inp.label}_step{step:g}",
                lambda pair=pair, st=step: fisher.qfi_gui_re(pair, st),
                want, _route_tol(inp, step)))

    # fault 2: stationary angles, fixed inputs
    for probe, n, t in (("ghz", 2, 0.0), ("ghz", 2, math.pi / 4),
                        ("ghz", 3, math.pi / 6), ("product", 3, 0.0)):
        inp = _closed_input(probe, n)
        fn = inp.pair_fn("re")
        for step in STEPS:
            ops.append(_value_op(
                f"fault2_qfi_re_general_{probe}{n}_at_{t:.4f}_step{step:g}",
                lambda fn=fn, t=t, st=step: fisher.qfi_re_general(fn, t, st),
                lambda probe=probe, n=n, t=t: O.qfi_re_closed(probe, n, t),
                _route_tol(inp, step), fault="2", tag="stationary"))
    return ops


# -- dense_oracle


def _twirled_reference(probe: O.Probe, theta: float) -> np.ndarray:
    return O.local_twirl(O.dense_probe_pair(probe, theta), probe.d, probe.n)


def _density(mat: np.ndarray, d: int, n: int, copies: int):
    return tensor.DensityOperator(tensor.QuditLayout(n, d, copies), mat)


def build_dense_oracle(rng, workdir: Path, seed: int) -> list:
    ops = []
    # program-side invariant states and the oracle probe each comes from
    cases = []
    for n in (2, 3, 4, 5):
        t = float(rng.uniform(0.1, 1.4))
        cases.append((f"ghz{n}", twirl.ghz_lui(n, t), O.closed_probe("ghz", n), t))
    t = float(rng.uniform(0.1, 1.4))
    cases.append(("product4", twirl.product_lui(4, t), O.closed_probe("product", 4), t))
    for inp in (_random_qubit_input(rng, 3), _random_qutrit_input(rng, 2),
                _random_qutrit_input(rng, 3)):
        t = float(rng.uniform(0.3, 1.2))
        lui = twirl.lui_coefficients(inp.pair_fn("re")(t))
        cases.append((inp.label, lui, inp.ref, t))
    by_label = {c[0]: c for c in cases}

    for label, lui, probe, t in cases:
        ref = functools.cache(lambda probe=probe, t=t: _twirled_reference(probe, t))

        def check(out, ref=ref) -> list:
            err = float(np.max(np.abs(out.matrix - ref())))
            return [] if err <= DENSE_ATOL else [("density", f"max entry error {err:.3g}")]

        ops.append(Op(f"lui_density_{label}", lambda lui=lui: twirl.lui_density(lui), check))

    for label in ("ghz4", "random3", "qutrit3"):
        lui = by_label[label][1]

        def check(out) -> list:
            bad = sorted(k for k, ok in out.items() if not ok)
            return [("validity", f"failed {bad}")] if bad or not out else []

        ops.append(Op(f"lui_state_checks_{label}",
                      lambda lui=lui: verify.lui_state_checks(lui), check))

    for label, trials in (("ghz3", 3), ("qutrit2", 3), ("qutrit3", 1)):
        lui = by_label[label][1]
        op_seed = int(rng.integers(1 << 31))

        def check(out, trials=trials) -> list:
            if out.samples != trials or not out.trace_distance <= INVARIANT_ATOL:
                return [("invariance", f"moved by {out.trace_distance:.3g}")]
            return []

        ops.append(Op(f"invariance_suite_{label}",
                      lambda lui=lui, tr=trials, s=op_seed: verify.invariance_suite(lui, tr, s),
                      check))

    # collective rotations leave the twirled state alone and move the raw product
    _, _, probe2, t2 = by_label["ghz2"]
    twirled2 = _density(_twirled_reference(probe2, t2), 2, 2, 2)
    raw2 = _density(O.dense_probe_pair(probe2, t2), 2, 2, 2)
    rot_seed = int(rng.integers(1 << 31))
    ops.append(Op("rotation_distance_twirled_ghz2",
                  lambda: verify.rotation_distance(twirled2, 20, np.random.default_rng(rot_seed)),
                  lambda d: [] if d <= INVARIANT_ATOL else [("invariance", f"moved by {d:.3g}")]))
    ops.append(Op("rotation_distance_raw_ghz2",
                  lambda: verify.rotation_distance(raw2, 10, np.random.default_rng(rot_seed)),
                  lambda d: [] if d > 0.05 else [("control", f"raw product moved only {d:.3g}")]))

    # Monte-Carlo twirl: distance to the exact twirl shrinks as 1/sqrt(samples)
    mc_cases = [("ghz2", _closed_input("ghz", 2), float(rng.uniform(0.1, 1.4)), 250),
                ("ghz2", _closed_input("ghz", 2), float(rng.uniform(0.1, 1.4)), 1000),
                ("product1", _closed_input("product", 1), float(rng.uniform(0.1, 1.4)), 1000)]
    for label, inp, t, samples in mc_cases:
        pair = inp.pair_fn("re")(t)
        ref = functools.cache(lambda inp=inp, t=t: _twirled_reference(inp.ref, t))
        mc_seed = int(rng.integers(1 << 31))

        def check(out, ref=ref, samples=samples) -> list:
            dist = O.trace_norm_distance(out.matrix, ref())
            if dist * math.sqrt(samples) > MC_SQRT_BOUND:
                return [("mc", f"distance {dist:.3g} at {samples} samples")]
            return []

        ops.append(Op(f"mc_local_twirl_{label}_{samples}",
                      lambda pair=pair, s=samples, sd=mc_seed:
                      twirl.mc_local_twirl(pair, s, np.random.default_rng(sd)),
                      check))
    inp = _random_qubit_input(rng, 2)
    t = float(rng.uniform(0.3, 1.2))
    pair = inp.pair_fn("re")(t)
    schedule = (100, 1600)
    conv_seed = int(rng.integers(1 << 31))

    def conv_check(reports) -> list:
        dists = [r.trace_distance for r in reports]
        if [r.samples for r in reports] != list(schedule) or not dists[1] < dists[0]:
            return [("mc", f"distances {dists} do not shrink")]
        if any(d * math.sqrt(s) > MC_SQRT_BOUND for d, s in zip(dists, schedule)):
            return [("mc", f"distances {dists} too large")]
        return []

    ops.append(Op("mc_convergence_random2",
                  lambda: verify.mc_convergence(pair, schedule, conv_seed), conv_check))

    # commutant dimensions: 2^N per site (Schur-Weyl), 2 for the global group,
    # 1 for a single copy
    for n, d, copies, locality, want in ((2, 2, 2, verify.PER_SITE, 4),
                                         (3, 2, 2, verify.PER_SITE, 8),
                                         (1, 3, 2, verify.PER_SITE, 2),
                                         (2, 2, 2, verify.GLOBAL, 2),
                                         (3, 2, 2, verify.GLOBAL, 2),
                                         (3, 2, 1, verify.PER_SITE, 1)):
        query = verify.CommutantQuery(n, d, copies, locality)
        c_seed = int(rng.integers(1 << 31))

        def check(out, want=want) -> list:
            if out.dimension != want or not out.stable:
                return [("commutant", f"dimension {out.dimension} (stable={out.stable}), "
                                      f"expected {want}")]
            return []

        ops.append(Op(f"commutant_{locality.split('_')[0]}_n{n}_d{d}_k{copies}",
                      lambda q=query, s=c_seed: verify.commutant_dimension(
                          q, np.random.default_rng(s)),
                      check))

    # trace distance of pure states: sqrt(1 - |<a|b>|^2).  Five sizes make
    # 31 operations, which puts the p50 and p90 positions inside runs of
    # samples of one operation rather than between two of different cost.
    for n, d, copies in ((6, 2, 1), (3, 3, 1), (4, 2, 2), (5, 2, 1), (2, 3, 2)):
        dim = d ** (n * copies)
        a, b = O.random_vector(dim, rng), O.random_vector(dim, rng)
        rho = _density(np.outer(a, a.conj()), d, n, copies)
        sigma = _density(np.outer(b, b.conj()), d, n, copies)
        want = math.sqrt(max(0.0, 1.0 - abs(np.vdot(a, b)) ** 2))
        ops.append(_value_op(f"trace_distance_dim{dim}",
                             lambda r=rho, s=sigma: verify.trace_distance(r, s),
                             lambda w=want: w, 1e-10, tag="distance"))
    return ops


# -- estimate_mle


def chi2_cdf_even(x: float, dof: int) -> float:
    """CDF of the chi-squared law for an even number of degrees of freedom."""
    if dof % 2 or dof < 2:
        raise ValueError("even dof expected")
    half = x / 2.0
    term, acc = 1.0, 1.0
    for j in range(1, dof // 2):
        term *= half / j
        acc += term
    return 1.0 - math.exp(-half) * acc


def _bisect(f, lo: float, hi: float, target: float) -> float:
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if f(mid) < target:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def chi2_quantile_even(p: float, dof: int) -> float:
    return _bisect(lambda x: chi2_cdf_even(x, dof), 0.0, 1e4, p)


def normal_quantile(p: float) -> float:
    return _bisect(lambda z: 0.5 * math.erfc(-z / math.sqrt(2.0)), -40.0, 40.0, p)


SHOTS = 100_000
REPS = 9  # eight degrees of freedom for the variance band
# variance / CRB band and the z-score bound on the mean
VAR_BAND = (chi2_quantile_even(STAT_ALPHA / 2, REPS - 1) / (REPS - 1),
            chi2_quantile_even(1.0 - STAT_ALPHA / 2, REPS - 1) / (REPS - 1))
MEAN_Z = normal_quantile(1.0 - STAT_ALPHA / 2)


def estimate_op(strategy, probe, n, theta, op_seed) -> Op:
    cfg = {"probe": probe, "sites": n, "strategy": strategy, "true_theta": theta,
           "shots": SHOTS, "reps": REPS, "seed": op_seed}

    @functools.cache
    def crb():
        return 1.0 / (SHOTS * _readout_information(strategy, probe, n, theta))

    def check(rep) -> list:
        problems = []
        crb_ref = crb()
        problems += _close("crb", rep["crb"], crb_ref, 1e-6 * crb_ref)
        ratio = rep["variance"] / crb_ref
        if not VAR_BAND[0] <= ratio <= VAR_BAND[1]:
            problems.append(("variance", f"variance/CRB {ratio:.3g} outside "
                                         f"[{VAR_BAND[0]:.3g}, {VAR_BAND[1]:.3g}]"))
        if abs(rep["estimate_mean"] - theta) > MEAN_Z * math.sqrt(crb_ref / REPS):
            problems.append(("bias", f"mean {rep['estimate_mean']:.6g} vs true {theta:.6g}"))
        if rep["boundary_hits"] != 0 or rep["repetitions"] != REPS:
            problems.append(("boundary", f"{rep['boundary_hits']} boundary hits"))
        return problems

    return Op(f"estimate_{strategy}_{probe}{n}", lambda: cli.run_estimate(cfg), check)


def _readout_information(strategy: str, probe: str, n: int, theta: float) -> float:
    if strategy == "lbm":
        return O.qfi_re_closed(probe, n, theta)
    if strategy == "gst":
        return O.qfi_gui_closed(probe, n, theta)
    return O.TwoCopy(O.closed_probe(probe, n), theta).cfi("diag")


def _ghz_hi(n: int) -> float:
    # GHZ outcome models depend on cos^2(n theta); below pi/(2n) - 0.25 the
    # +-0.5 search window holds no alias pi/n - theta of the true angle
    return math.pi / (2 * n) - 0.25


# (readout, probe, N, lowest and highest true angle).  On these ranges the
# Cramer-Rao width stays under 1/20 of the distance to the search window's
# edges (theta - 0.5 clamped at 0, theta + 0.5 clamped at pi/2), so no
# healthy repetition lands on an edge; test_oracle.py checks this.  The
# direct readout carries little information at small angles.
ESTIMATE_CASES = (
    [("lbm", "ghz", n, 0.05, _ghz_hi(n)) for n in (2, 3, 4)]
    + [("lbm", "product", n, 0.2, 1.0) for n in (2, 4, 8)]
    + [("dm", "ghz", 2, 0.17, _ghz_hi(2)), ("dm", "ghz", 3, 0.13, _ghz_hi(3)),
       ("dm", "ghz", 4, 0.115, _ghz_hi(4))]
    + [("dm", "product", n, 0.2, 1.0) for n in (2, 3, 4)]
    + [("gst", "ghz", n, 0.05, _ghz_hi(n)) for n in (2, 3)]
    + [("gst", "product", 3, 0.2, 1.0), ("gst", "product", 6, 0.2, 0.75)]
)


def estimable(strategy: str, probe: str, n: int, theta: float) -> bool:
    width = 1.0 / math.sqrt(SHOTS * _readout_information(strategy, probe, n, theta))
    return 20.0 * width <= min(theta, HALF_PI - theta, 0.5)


def build_estimate_mle(rng, workdir: Path, seed: int) -> list:
    return [estimate_op(s, p, n, float(rng.uniform(lo, hi)), int(rng.integers(1 << 31)))
            for s, p, n, lo, hi in ESTIMATE_CASES]


WORKLOADS = {
    "scan_grid": build_scan_grid,
    "general_route": build_general_route,
    "dense_oracle": build_dense_oracle,
    "estimate_mle": build_estimate_mle,
}
