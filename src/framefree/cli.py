"""Command-line front end.

Subcommands: ``scan`` (theta-grid Fisher information columns to CSV with a
JSON metadata sidecar), ``verify`` (self-check suites with nonzero exit on
failure), ``estimate`` (sample-and-estimate experiments against the
Cramer-Rao bound), and ``commutant`` (symmetry-commutant dimensions).

Options may come from flags or a JSON config file; flags win.  Exit codes:
0 ok, 1 check failure, 2 bad configuration.
"""

import argparse
import json
import math
import sys
from pathlib import Path

import numpy as np

from . import fisher, measure, twirl, verify
from .states import HamiltonianSpec, IE, RE, ghz_state, make_pair, product_plus_state
from .tensor import QuditLayout, StateVector, swap_operator, trace_product
from .twirl import PROBES

DEFAULT_SEED = 0xC0FFEE
MAX_SCAN_SITES = 64  # the range the closed-form scan columns are tested on
SCAN_STRATEGIES = ("qfi_re", "qfi_ie", "qfi_gui", "f0",
                   "cfi_dm", "cfi_grm", "cfi_gst", "cfi_lst", "cfi_lbm")
ESTIMATE_READOUTS = ("lbm", "dm", "gst")


# -- closed-form scan columns


# the global twirl's information is that of the global swap test
_READOUT_COLUMNS = {"qfi_gui": "gst", "cfi_gst": "gst", "cfi_dm": "dm", "cfi_lst": "lst",
                    "cfi_lbm": "lbm"}


def _closed_families(readout: str, probe: str, n: int):
    """Weight-class families (theta, order=2) of a readout of a closed probe:
    the N + 1 classes of its kernel, or the global swap test's two classes
    from s and its stable 1 - s.  `twirl` is looked up on every call."""
    if readout == "gst":
        return lambda theta, order=2: measure.gst_families(
            *twirl.closed_swap(probe, n, theta, order))
    kernel = measure.readout_kernel(readout, 2)
    return lambda theta, order=2: twirl.closed_families(probe, n, theta, kernel, order)


def _scan_columns(probe: str, n: int, grid: np.ndarray, strategies) -> dict:
    """Each requested column over the whole theta grid."""
    columns = {}
    for strategy in strategies:
        if strategy == "qfi_re":
            closed = fisher.qfi_ghz_closed if probe == "ghz" else fisher.qfi_product_closed
            columns[strategy] = closed(n, grid)
        elif strategy == "qfi_ie":
            # identical encoding with a one-local generator carries nothing
            columns[strategy] = np.zeros_like(grid)
        elif strategy == "f0":
            # for a pure probe s''(0) = -8 Var H = -f0
            columns[strategy] = np.full_like(grid, -twirl.closed_swap(probe, n, 0.0)[0][2])
        elif strategy == "cfi_grm":
            (s, ds), _ = twirl.closed_swap(probe, n, grid, 1)
            columns[strategy] = measure.cfi_grm_from_overlap(s, ds, n)
        elif strategy in _READOUT_COLUMNS:
            families = _closed_families(_READOUT_COLUMNS[strategy], probe, n)(grid)
            columns[strategy] = fisher.fisher_from_weight_classes(families)
        else:
            raise ValueError(f"unknown strategy {strategy!r}")
    return columns


def _closed_probe(cfg: dict, *angles: str) -> tuple:
    """The probe, the site count and the first and last of the named angles
    of `scan` and `estimate`.  The closed forms take sines and cosines of
    2 N theta, so the angles, their difference and 2 N theta must be finite."""
    probe, n = cfg["probe"], int(cfg["sites"])
    twirl.probe_factors(probe, n)  # turns away an unknown probe
    if not 1 <= n <= MAX_SCAN_SITES:
        raise ValueError(f"sites must be between 1 and {MAX_SCAN_SITES}")
    lo, hi = float(cfg[angles[0]]), float(cfg[angles[-1]])
    if not (math.isfinite(hi - lo) and math.isfinite(2.0 * n * max(-lo, hi))):
        span, got = ("their difference and ", f"{lo} and {hi}") if len(angles) > 1 else ("", lo)
        raise ValueError(f"{' and '.join(angles)} must be finite, as must {span}2 * sites * theta, "
                         f"got {got} at {n} sites")
    return probe, n, lo, hi


def run_scan(cfg: dict) -> dict:
    probe, n, lo, hi = _closed_probe(cfg, "theta_min", "theta_max")
    points = int(cfg["theta_points"])
    if points < 2:
        raise ValueError("theta_points must be at least 2")
    if not hi > lo:
        raise ValueError("theta grid must be strictly increasing")
    strategies = cfg["strategies"]
    if isinstance(strategies, str):
        strategies = tuple(s.strip() for s in strategies.split(",") if s.strip())
    for s in strategies:
        if s not in SCAN_STRATEGIES:
            raise ValueError(f"unknown strategy {s!r}; choose from {SCAN_STRATEGIES}")
    if not strategies:
        raise ValueError("no strategies requested")
    grid = np.linspace(lo, hi, points)
    columns = _scan_columns(probe, n, grid, strategies)
    table = np.column_stack([grid] + [columns[s] for s in strategies])
    row = ",".join(["%.12g"] * table.shape[1]) + "\n"
    out = Path(cfg["out"])
    with open(out, "w", newline="") as fh:
        fh.write("theta," + ",".join(strategies) + "\n")
        fh.write(row * points % tuple(table.ravel().tolist()))
    meta = {
        "probe": probe,
        "sites": n,
        "strategies": list(strategies),
        "theta_min": lo,
        "theta_max": hi,
        "theta_points": points,
        "f_max": 2.0 * n * n,
        "sql": 2.0 * n,
        "csv": str(out),
    }
    out.with_suffix(".json").write_text(json.dumps(meta, indent=2) + "\n")
    return meta


# -- verification suites


def _check(name: str, value: float, threshold: float, ok: bool) -> dict:
    return {"name": name, "value": value, "threshold": threshold, "passed": bool(ok)}


def _random_probe(n: int, rng: np.random.Generator) -> StateVector:
    layout = QuditLayout(n, 2, 1)
    amps = rng.standard_normal(layout.dim) + 1j * rng.standard_normal(layout.dim)
    return StateVector(layout, amps / np.linalg.norm(amps))


def _suite_twirl(seed: int) -> list:
    checks = []
    pair2 = make_pair(ghz_state(2), HamiltonianSpec.pauli_z_sum(2), 0.3, RE)
    reports = verify.mc_convergence(pair2, (100, 1000, 20000), seed)
    dists = [r.trace_distance for r in reports]
    checks.append(_check("mc_n2_20k_close", dists[-1], 0.03, dists[-1] <= 0.03))
    checks.append(_check("mc_n2_decreasing", dists[-1] - dists[0], 0.0, dists[-1] <= dists[0]))
    pair1 = make_pair(ghz_state(1), HamiltonianSpec.pauli_z_sum(1), 0.3, RE)
    rep1 = verify.mc_convergence(pair1, (20000,), seed + 1)[0]
    checks.append(_check("mc_n1_20k_close", rep1.trace_distance, 0.02, rep1.trace_distance <= 0.02))
    # sampled twirl preserves every swap-mask expectation of the input
    rng = np.random.default_rng([seed, 17])
    approx = twirl.mc_local_twirl(pair2, 20000, rng)
    coeffs = twirl.lui_coefficients(pair2).coeffs
    lay2 = pair2.layout.two_copy()
    worst = max(
        abs(trace_product(swap_operator(a, lay2), approx.matrix).real - coeffs[a])
        for a in range(len(coeffs))
    )
    checks.append(_check("mc_swap_expectations", worst, 0.05, worst <= 0.05))
    return checks


def _suite_invariance(seed: int) -> list:
    checks = []
    cases = [
        ("ghz_n2_re", twirl.lui_coefficients(make_pair(ghz_state(2), HamiltonianSpec.pauli_z_sum(2), 0.3, RE))),
        ("product_n2_ie", twirl.lui_coefficients(make_pair(product_plus_state(2), HamiltonianSpec.pauli_z_sum(2), 0.7, IE))),
    ]
    rng = np.random.default_rng([seed, 3])
    lay3 = QuditLayout(2, 3, 1)
    amps = rng.standard_normal(lay3.dim) + 1j * rng.standard_normal(lay3.dim)
    probe3 = StateVector(lay3, amps / np.linalg.norm(amps))
    mat = rng.standard_normal((lay3.dim, lay3.dim)) + 1j * rng.standard_normal((lay3.dim, lay3.dim))
    h3 = HamiltonianSpec.dense(lay3, (mat + mat.conj().T) / 2)
    cases.append(("qutrit_n2_re", twirl.lui_coefficients(make_pair(probe3, h3, 0.4, RE))))
    for name, lui in cases:
        validity = verify.lui_state_checks(lui)
        ok = all(validity.values())
        checks.append(_check(f"{name}_valid", float(ok), 1.0, ok))
        report = verify.invariance_suite(lui, 100, seed)
        checks.append(_check(f"{name}_invariant", report.trace_distance, 1e-10,
                             report.trace_distance <= 1e-10))
    pair = make_pair(ghz_state(2), HamiltonianSpec.pauli_z_sum(2), 0.3, RE)
    gui = twirl.gui_density(twirl.gui_state(pair))
    moved = verify.rotation_distance(gui, 100, np.random.default_rng([seed, 5]),
                                     identical_sites=True)
    checks.append(_check("gui_identical_rotations", moved, 1e-10, moved <= 1e-10))
    raw = verify.untwirled_moves(pair, 20, seed + 9)
    checks.append(_check("untwirled_moves", raw, 0.1, raw > 0.1))
    return checks


def _suite_commutant(seed: int) -> list:
    checks = []
    cases = [(1, 2, 2), (2, 2, 4), (3, 2, 8)]
    for i, (n, copies, expected) in enumerate(cases):
        res = verify.commutant_dimension(
            verify.CommutantQuery(n, 2, copies), np.random.default_rng([seed, i]))
        ok = res.dimension == expected and res.stable
        checks.append(_check(f"per_site_n{n}_k{copies}", res.dimension, expected, ok))
    res = verify.commutant_dimension(
        verify.CommutantQuery(2, 2, 1), np.random.default_rng([seed, 99]))
    ok = res.dimension == 1 and res.traceless_dimension == 0 and res.stable
    checks.append(_check("single_copy_traceless", res.traceless_dimension, 0, ok))
    return checks


def _suite_no_go(seed: int) -> list:
    checks = []
    worst = 0.0
    cases = [("ghz_n2", ghz_state(2)), ("ghz_n3", ghz_state(3)),
             ("product_n2", product_plus_state(2)), ("product_n3", product_plus_state(3))]
    rng = np.random.default_rng(seed)
    for i in range(10):
        cases.append((f"random_{i}", _random_probe(2, rng)))
    for name, probe in cases:
        n = probe.layout.n_sites
        weights = rng.uniform(0.2, 1.0, size=n)
        h = HamiltonianSpec(QuditLayout(n, 2, 1), site_weights=weights)
        value = fisher.qfi_ie_general(lambda t, p=probe, g=h: make_pair(p, g, t, IE), 0.4)
        worst = max(worst, value)
        checks.append(_check(f"ie_zero_{name}", value, 1e-8, value <= 1e-8))
    checks.append(_check("ie_zero_worst", worst, 1e-8, worst <= 1e-8))
    return checks


SUITES = {
    "twirl": _suite_twirl,
    "invariance": _suite_invariance,
    "commutant": _suite_commutant,
    "no_go": _suite_no_go,
}


def run_verify(suite: str, seed: int) -> dict:
    if suite not in SUITES:
        raise ValueError(f"unknown suite {suite!r}; choose from {tuple(SUITES)}")
    checks = SUITES[suite](seed)
    return {
        "suite": suite,
        "seed": seed,
        "checks": checks,
        "passed": all(c["passed"] for c in checks),
    }


# -- estimation


def run_estimate(cfg: dict) -> dict:
    probe, n, true_theta, _ = _closed_probe(cfg, "true_theta")
    strategy = cfg["strategy"]
    shots = int(cfg["shots"])
    reps = int(cfg["reps"])
    if shots < 1:
        raise ValueError("shots must be at least 1")
    if strategy not in ESTIMATE_READOUTS:  # a tuple also turns away unhashable values
        raise ValueError(f"estimate strategy must be one of {ESTIMATE_READOUTS}")

    families = _closed_families(strategy, probe, n)

    def model(t: np.ndarray) -> measure.OutcomeDistribution:
        return measure.weight_class_distribution(families(t, 0)[0])

    information = float(fisher.fisher_from_weight_classes(families(true_theta)))
    # the outcomes depend on theta through x = cos^2(m theta), so they fix it
    # only within one of m cells of the quadrant (m = N for GHZ, 1 for product)
    window = measure.default_window(true_theta, twirl.probe_factors(probe, n)[1])
    run = measure.estimation_experiment(model, true_theta, information, shots, reps,
                                        int(cfg["seed"]), window)
    return {
        "probe": probe,
        "sites": n,
        "strategy": strategy,
        "true_theta": true_theta,
        "shots": shots,
        "repetitions": reps,
        "seed": int(cfg["seed"]),
        "estimate_mean": run.estimate,
        "bias": run.estimate - true_theta,
        "variance": run.variance,
        "crb": run.crb,
        "variance_over_crb": run.variance / run.crb,
        "mse_over_crb": run.mse / run.crb,
        "boundary_hits": run.boundary_hits,
    }


def run_commutant(cfg: dict) -> dict:
    query = verify.CommutantQuery(int(cfg["sites"]), int(cfg["local_dim"]),
                                  int(cfg["copies"]), probe_count=int(cfg["probes"]))
    res = verify.commutant_dimension(query, np.random.default_rng(int(cfg["seed"])))
    return {
        "sites": query.n_sites,
        "local_dim": query.local_dim,
        "copies": query.copies,
        "probe_count": query.probe_count,
        "seed": int(cfg["seed"]),
        "dimension": res.dimension,
        "traceless_dimension": res.traceless_dimension,
        "stable": res.stable,
    }


# -- argument handling


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="framefree",
        description="Fisher information for two-copy twirled network states",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    scan = sub.add_parser("scan", help="theta-grid Fisher information columns to CSV")
    scan.add_argument("--probe", choices=PROBES)
    scan.add_argument("--sites", type=int)
    scan.add_argument("--theta-min", type=float, dest="theta_min")
    scan.add_argument("--theta-max", type=float, dest="theta_max")
    scan.add_argument("--theta-points", type=int, dest="theta_points")
    scan.add_argument("--strategies")
    scan.add_argument("--out")
    scan.add_argument("--config")

    ver = sub.add_parser("verify", help="run a self-check suite")
    ver.add_argument("--suite", choices=tuple(SUITES))
    ver.add_argument("--seed", type=int)
    ver.add_argument("--out")
    ver.add_argument("--config")

    est = sub.add_parser("estimate", help="sample-and-estimate against the CRB")
    est.add_argument("--probe", choices=PROBES)
    est.add_argument("--sites", type=int)
    est.add_argument("--strategies", dest="strategy", choices=ESTIMATE_READOUTS)
    est.add_argument("--true-theta", type=float, dest="true_theta")
    est.add_argument("--shots", type=int)
    est.add_argument("--reps", type=int)
    est.add_argument("--seed", type=int)
    est.add_argument("--out")
    est.add_argument("--config")

    com = sub.add_parser("commutant", help="symmetry-commutant dimensions")
    com.add_argument("--sites", type=int)
    com.add_argument("--local-dim", type=int, dest="local_dim")
    com.add_argument("--copies", type=int)
    com.add_argument("--probes", type=int)
    com.add_argument("--seed", type=int)
    com.add_argument("--out")
    com.add_argument("--config")

    return parser


_SCAN_DEFAULTS = {
    "probe": "ghz", "sites": 2, "theta_min": 0.0, "theta_max": math.pi / 2,
    "theta_points": 101, "strategies": "qfi_re,cfi_lbm,cfi_dm", "out": "scan.csv",
}
_VERIFY_DEFAULTS = {"suite": "no_go", "seed": DEFAULT_SEED, "out": None}
_ESTIMATE_DEFAULTS = {
    "probe": "ghz", "sites": 2, "strategy": "lbm", "true_theta": 0.05,
    "shots": 100000, "reps": 200, "seed": DEFAULT_SEED, "out": None,
}
_COMMUTANT_DEFAULTS = {
    "sites": 2, "local_dim": 2, "copies": 2, "probes": 8,
    "seed": DEFAULT_SEED, "out": None,
}


def _merged(args: argparse.Namespace, defaults: dict) -> dict:
    cfg = dict(defaults)
    config_path = getattr(args, "config", None)
    if config_path:
        loaded = json.loads(Path(config_path).read_text())
        unknown = set(loaded) - set(defaults)
        if unknown:
            raise ValueError(f"unknown config keys {sorted(unknown)}")
        cfg.update(loaded)
    for key in defaults:
        value = getattr(args, key, None)
        if value is not None:
            cfg[key] = value
    return cfg


def _emit(report: dict, out: str | None) -> None:
    text = json.dumps(report, indent=2)
    if out:
        Path(out).write_text(text + "\n")
    print(text)


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        if args.command == "scan":
            cfg = _merged(args, _SCAN_DEFAULTS)
            meta = run_scan(cfg)
            print(json.dumps(meta, indent=2))
            return 0
        if args.command == "verify":
            cfg = _merged(args, _VERIFY_DEFAULTS)
            report = run_verify(cfg["suite"], int(cfg["seed"]))
            _emit(report, cfg["out"])
            return 0 if report["passed"] else 1
        if args.command == "estimate":
            cfg = _merged(args, _ESTIMATE_DEFAULTS)
            report = run_estimate(cfg)
            _emit(report, cfg["out"])
            return 0
        cfg = _merged(args, _COMMUTANT_DEFAULTS)
        report = run_commutant(cfg)
        _emit(report, cfg["out"])
        return 0
    except (ValueError, OSError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
