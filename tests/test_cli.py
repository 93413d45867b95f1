import json
from pathlib import Path

import numpy as np
import pytest

from framefree import fisher, measure, twirl
from framefree.cli import SCAN_STRATEGIES, _scan_columns, main, run_estimate, run_verify
from framefree.fisher import qfi_ghz_closed, qfi_product_closed
from framefree.tensor import popcounts
from framefree.twirl import closed_overlaps

from reference import qfi_gui_ghz_closed, scan_csv_text

CONFIG_DIR = Path(__file__).resolve().parent.parent / "configs"


def read_csv(path):
    lines = Path(path).read_text().splitlines()
    header = lines[0].split(",")
    rows = np.array([[float(x) for x in line.split(",")] for line in lines[1:]])
    return header, rows


class TestScan:
    def test_lbm_column_saturates_qfi(self, tmp_path):
        out = tmp_path / "scan.csv"
        code = main(["scan", "--probe", "ghz", "--sites", "2",
                     "--theta-min", "0.0", "--theta-max", "1.5707963267948966",
                     "--theta-points", "41",
                     "--strategies", "qfi_re,cfi_lbm,cfi_dm", "--out", str(out)])
        assert code == 0
        header, rows = read_csv(out)
        assert header == ["theta", "qfi_re", "cfi_lbm", "cfi_dm"]
        qfi = rows[:, header.index("qfi_re")]
        lbm = rows[:, header.index("cfi_lbm")]
        assert np.max(np.abs(qfi - lbm)) <= 1e-9
        dm = rows[:, header.index("cfi_dm")]
        assert abs(dm.max() - 0.800) <= 0.005

    def test_product_zero_angle_value(self, tmp_path):
        out = tmp_path / "p.csv"
        assert main(["scan", "--probe", "product", "--sites", "3",
                     "--theta-min", "0.0", "--theta-max", "1.0",
                     "--theta-points", "5", "--strategies", "qfi_re",
                     "--out", str(out)]) == 0
        header, rows = read_csv(out)
        assert rows[0, 0] == 0.0
        assert np.isclose(rows[0, 1], 6.0, atol=1e-9)

    def test_identical_encoding_column_is_zero(self, tmp_path):
        out = tmp_path / "ie.csv"
        main(["scan", "--probe", "ghz", "--sites", "2", "--theta-points", "7",
              "--strategies", "qfi_ie", "--out", str(out)])
        _, rows = read_csv(out)
        assert np.allclose(rows[:, 1], 0.0)

    def test_sidecar_reference_lines(self, tmp_path):
        out = tmp_path / "s.csv"
        main(["scan", "--sites", "3", "--theta-points", "3", "--out", str(out)])
        meta = json.loads((tmp_path / "s.json").read_text())
        assert meta["f_max"] == 18.0
        assert meta["sql"] == 6.0

    def test_bit_identical_reruns(self, tmp_path):
        args = ["scan", "--probe", "ghz", "--sites", "2", "--theta-points", "25"]
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        main(args + ["--out", str(a)])
        main(args + ["--out", str(b)])
        assert a.read_bytes() == b.read_bytes()

    @pytest.mark.parametrize("probe", ["ghz", "product"])
    @pytest.mark.parametrize("n", [1, 13, 64])
    @pytest.mark.parametrize("grid", ["quadrant", "negative", "tiny"])
    def test_csv_bytes_match_per_value_writer(self, tmp_path, probe, n, grid):
        # the quadrant grid holds theta = 0 and every GHZ stationary angle
        # k pi/(2N); the others cross 0 from negative angles
        lo, hi, points = {"quadrant": (0.0, np.pi / 2, 16 * n + 1),
                          "negative": (-0.9, 0.4, 53),
                          "tiny": (-1e-160, 1e-160, 5)}[grid]
        out = tmp_path / "all.csv"
        assert main(["scan", "--probe", probe, "--sites", str(n), f"--theta-min={lo!r}",
                     f"--theta-max={hi!r}", "--theta-points", str(points),
                     "--strategies", ",".join(SCAN_STRATEGIES), "--out", str(out)]) == 0
        thetas = np.linspace(lo, hi, points)
        columns = _scan_columns(probe, n, thetas, SCAN_STRATEGIES)
        table = np.column_stack([thetas] + [columns[s] for s in SCAN_STRATEGIES])
        assert out.read_bytes() == scan_csv_text(SCAN_STRATEGIES, table).encode()

    def test_global_twirl_column_near_zero_angle(self, tmp_path):
        # GHZ N=10 within 1e-6 of the stationary angle 0: the overlap gate
        # must resolve the limit, not abort
        out = tmp_path / "gui.csv"
        code = main(["scan", "--probe", "ghz", "--sites", "10", "--theta-min", "0",
                     "--theta-max", "1e-6", "--theta-points", "21",
                     "--strategies", "qfi_gui", "--out", str(out)])
        assert code == 0
        _, rows = read_csv(out)
        c = np.cos(10 * rows[:, 0]) ** 2
        want = 400.0 * c / (1.0 + c)
        assert np.max(np.abs(rows[:, 1] - want) / want) <= 1e-3

    @pytest.mark.parametrize("theta_max, strategies", [
        ("0.39269928169872414", "qfi_re,cfi_lbm"),
        ("0.39270108169872414", "qfi_re,cfi_lst"),
    ])
    def test_ghz_stationary_window(self, tmp_path, theta_max, strategies):
        # GHZ N=4 within 2e-6 of the stationary angle pi/8, where the odd
        # families are double zeros: every column must read 28
        out = tmp_path / "pi8.csv"
        code = main(["scan", "--probe", "ghz", "--sites", "4",
                     "--theta-min", "0.39269908169872414", "--theta-max", theta_max,
                     "--theta-points", "3", "--strategies", strategies,
                     "--out", str(out)])
        assert code == 0
        _, rows = read_csv(out)
        assert np.max(np.abs(rows[:, 1:] - 28.0)) <= 28.0 * 1e-6

    def test_product_swap_columns_on_quadrant(self, tmp_path):
        # product N=3 across the quartic and double zeros at theta = 0:
        # closed-form rounding bound f0 (1e-9 + min(4 eps / (1 - s), 1e-7))
        out = tmp_path / "prod.csv"
        code = main(["scan", "--probe", "product", "--sites", "3",
                     "--theta-min", "0", "--theta-max", str(np.pi / 2),
                     "--theta-points", "201", "--strategies", "cfi_lst,cfi_lbm",
                     "--out", str(out)])
        assert code == 0
        _, rows = read_csv(out)
        c = np.cos(np.linspace(0.0, np.pi / 2, 201)) ** 2
        want = 12.0 * c / (1.0 + c)
        with np.errstate(divide="ignore"):
            rel = np.minimum(4.0 * np.finfo(float).eps / (1.0 - c**3), 1e-7)
        tol = 6.0 * (1e-9 + rel)
        for col in (1, 2):
            assert np.all(np.abs(rows[:, col] - want) <= tol)

    @pytest.mark.parametrize("probe, n", [("ghz", 4), ("product", 3)])
    def test_grid_columns_match_single_angles(self, probe, n):
        # the grid holds theta = 0 and the GHZ N=4 zeros k pi/8
        grid = np.linspace(0.0, np.pi / 2, 41)
        columns = _scan_columns(probe, n, grid, SCAN_STRATEGIES)
        for i in range(grid.size):
            alone = _scan_columns(probe, n, grid[i:i + 1], SCAN_STRATEGIES)
            for name, col in columns.items():
                np.testing.assert_allclose(col[i], alone[name][0], rtol=1e-12, atol=0,
                                           err_msg=f"{name} at {grid[i]}")

    def test_product_n10_window_swap_columns(self, tmp_path):
        # the product probe's quartic families near theta = 3e-4 sit at the
        # mask transform's rounding scale; the weight classes carry none
        out = tmp_path / "window.csv"
        code = main(["scan", "--probe", "product", "--sites", "10",
                     "--theta-min", "0", "--theta-max", "0.05", "--theta-points", "501",
                     "--strategies", "qfi_re,cfi_lst,cfi_lbm", "--out", str(out)])
        assert code == 0
        _, rows = read_csv(out)
        # the CSV keeps 12 significant digits
        for col in (2, 3):
            assert np.all(np.abs(rows[:, col] - rows[:, 1]) <= 1e-11 * rows[:, 1])
        grid = np.linspace(0.0, 0.05, 501)
        columns = _scan_columns("product", 10, grid, ("qfi_re", "cfi_lst", "cfi_lbm"))
        for name in ("cfi_lst", "cfi_lbm"):
            assert np.all(np.abs(columns[name] - columns["qfi_re"]) <= 1e-12 * columns["qfi_re"])

    @pytest.mark.parametrize("probe", ["ghz", "product"])
    def test_global_swap_columns_match_mpmath(self, probe):
        # (ds)^2 / (1 - s^2) near theta = 0, where 1 - s formed from the
        # rounded s lost up to 5e-9 relative
        mp = pytest.importorskip("mpmath")
        mp.mp.dps = 40
        grid = np.linspace(0.0, 0.05, 201)[1:]
        for n in range(1, 11):
            columns = _scan_columns(probe, n, grid, ("qfi_gui", "cfi_gst"))
            for theta, gui, gst in zip(grid, columns["qfi_gui"], columns["cfi_gst"]):
                t = mp.mpf(theta)
                if probe == "ghz":
                    s, ds = mp.cos(n * t) ** 2, -n * mp.sin(2 * n * t)
                else:
                    s, ds = mp.cos(t) ** (2 * n), -2 * n * mp.cos(t) ** (2 * n - 1) * mp.sin(t)
                want = ds * ds / (1 - s * s)
                assert gui == gst
                assert abs(gui - want) <= 1e-13 * want, (n, theta)
            # below sqrt(tiny) the class sums are subnormal or 0: the value at 0
            ceiling = 2.0 * n * n if probe == "ghz" else 2.0 * n
            tiny = _scan_columns(probe, n, np.array([0.0, 1e-155, 1e-160, 1e-170]), ("qfi_gui",))
            assert np.all(np.abs(tiny["qfi_gui"] - ceiling) <= 4e-16 * ceiling), tiny

    @pytest.mark.parametrize("sites", ["0", "65"])
    def test_sites_outside_scan_range_rejected(self, tmp_path, sites):
        code = main(["scan", "--sites", sites, "--strategies", "cfi_lst",
                     "--out", str(tmp_path / "x.csv")])
        assert code == 2
        assert not (tmp_path / "x.csv").exists()

    @pytest.mark.parametrize("probe", ["ghz", "product"])
    def test_largest_register_matches_closed_forms(self, tmp_path, probe):
        out = tmp_path / "n64.csv"
        strategies = "qfi_re,cfi_lst,cfi_lbm,qfi_gui" + (",cfi_dm" if probe == "product" else "")
        code = main(["scan", "--probe", probe, "--sites", "64", "--theta-min", "0",
                     "--theta-max", str(np.pi / 2), "--theta-points", "257",
                     "--strategies", strategies, "--out", str(out)])
        assert code == 0
        _, rows = read_csv(out)
        grid = np.linspace(0.0, np.pi / 2, 257)
        assert np.all(np.abs(rows[:, 0] - grid) <= 1e-11)
        closed, f0 = (qfi_ghz_closed, 2.0 * 64 * 64) if probe == "ghz" else (qfi_product_closed, 128.0)
        qfi = closed(64, grid)
        # the CSV keeps 12 significant digits; the closed forms carry eps f0
        for col in (1, 2, 3):
            assert np.all(np.abs(rows[:, col] - qfi) <= 1e-11 * qfi + 1e-14 * f0)
        if probe == "ghz":
            gui = np.array([qfi_gui_ghz_closed(64, t) for t in grid])
        else:
            mp = pytest.importorskip("mpmath")
            mp.mp.dps = 40
            gui = []
            for t in map(mp.mpf, grid):
                s, ds = mp.cos(t) ** 128, -128 * mp.cos(t) ** 127 * mp.sin(t)
                gui.append(float(ds * ds / (1 - s * s)) if s < 1 else f0)
            gui = np.array(gui)
            # sites read independently: N sin^2(2t) / ((1 + cos^2 t)(1 + sin^2 t))
            dm = 64 * np.sin(2 * grid) ** 2 / ((1 + np.cos(grid) ** 2) * (1 + np.sin(grid) ** 2))
            assert np.all(np.abs(rows[:, 5] - dm) <= 1e-11 * dm + 1e-14 * f0)
        assert np.all(np.abs(rows[:, 4] - gui) <= 1e-11 * gui + 1e-14 * f0)

    @pytest.mark.parametrize("flag", ["--step", "--seed"])
    def test_removed_flag_rejected(self, tmp_path, flag):
        with pytest.raises(SystemExit) as exc:
            main(["scan", flag, "3", "--out", str(tmp_path / "x.csv")])
        assert exc.value.code == 2

    @pytest.mark.parametrize("bound", ["--theta-min=inf", "--theta-min=-inf", "--theta-min=nan",
                                       "--theta-max=inf", "--theta-max=-inf", "--theta-max=nan"])
    def test_non_finite_angle_rejected(self, tmp_path, capsys, bound):
        code = main(["scan", bound, "--out", str(tmp_path / "x.csv")])
        assert code == 2
        assert "theta_min and theta_max must be finite" in capsys.readouterr().err
        assert not any(tmp_path.iterdir())

    @pytest.mark.parametrize("args", [
        ["--theta-min=-1e308", "--theta-max=1e308", "--theta-points", "3"],
        ["--sites", "64", "--theta-min=1e307", "--theta-max=1.5e307"],
        ["--sites", "1", "--theta-min=1e308", "--theta-max=1.7e308"],
    ])
    def test_overflowing_grid_rejected(self, tmp_path, capsys, args):
        # finite bounds whose span or 2 N theta overflows gave columns of nan
        code = main(["scan", *args, "--out", str(tmp_path / "x.csv")])
        assert code == 2
        assert "as must their difference and 2 * sites * theta" in capsys.readouterr().err
        assert not any(tmp_path.iterdir())

    @pytest.mark.parametrize("sites, theta", [("64", "1e307"), ("1", "-1.7e308")])
    def test_overflowing_true_theta_rejected(self, tmp_path, capsys, sites, theta):
        # estimate shares the check: 2 N theta overflowed into an OverflowError
        # traceback (exit 1) from the search window
        code = main(["estimate", "--sites", sites, f"--true-theta={theta}", "--shots", "10",
                     "--reps", "2", "--out", str(tmp_path / "r.json")])
        assert code == 2
        assert "as must 2 * sites * theta" in capsys.readouterr().err
        assert not any(tmp_path.iterdir())

    def test_degenerate_grid_rejected(self, tmp_path):
        code = main(["scan", "--theta-min", "0.0", "--theta-max", "0.0",
                     "--theta-points", "2", "--out", str(tmp_path / "x.csv")])
        assert code == 2

    def test_unknown_strategy_rejected(self, tmp_path):
        code = main(["scan", "--strategies", "qfi_re,bogus",
                     "--out", str(tmp_path / "x.csv")])
        assert code == 2

    def test_config_file_with_flag_override(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"probe": "ghz", "sites": 2, "theta_points": 11,
                                   "out": str(tmp_path / "from_config.csv")}))
        out = tmp_path / "override.csv"
        code = main(["scan", "--config", str(cfg), "--theta-points", "5",
                     "--out", str(out)])
        assert code == 0
        _, rows = read_csv(out)
        assert rows.shape[0] == 5  # flag wins over the config value

    def test_unknown_config_key_rejected(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"bogus_key": 1}))
        assert main(["scan", "--config", str(cfg), "--out", str(tmp_path / "x.csv")]) == 2

    @pytest.mark.parametrize("name", ["strategy_comparison_ghz_n2.json",
                                      "local_vs_global_twirl_ghz_n2.json",
                                      "product_probe_sql_n3.json"])
    def test_shipped_configs_run_reduced(self, tmp_path, name):
        out = tmp_path / "cfg_run.csv"
        code = main(["scan", "--config", str(CONFIG_DIR / name),
                     "--theta-points", "9", "--out", str(out)])
        assert code == 0
        header, rows = read_csv(out)
        assert rows.shape == (9, len(header))
        assert np.all(np.isfinite(rows))
        if "cfi_dm" in header:
            # the shipped direct-readout column against the mask route
            cfg = json.loads((CONFIG_DIR / name).read_text())
            n = cfg["sites"]
            ceiling = 2.0 * n * n if cfg["probe"] == "ghz" else 2.0 * n
            grid = np.linspace(cfg["theta_min"], cfg["theta_max"], 9)
            for theta, value in zip(grid, rows[:, header.index("cfi_dm")]):
                overlaps = closed_overlaps(cfg["probe"], n, theta)[:, popcounts(n)]
                want = measure.cfi(measure.DM, overlaps, 2)
                assert abs(value - want) <= 1e-11 * want + 1e-14 * ceiling, (theta, value, want)


class TestVerify:
    def test_commutant_suite(self, tmp_path):
        out = tmp_path / "report.json"
        code = main(["verify", "--suite", "commutant", "--seed", "3",
                     "--out", str(out)])
        assert code == 0
        report = json.loads(out.read_text())
        values = {c["name"]: c["value"] for c in report["checks"]}
        assert values["per_site_n1_k2"] == 2
        assert values["per_site_n2_k2"] == 4
        assert values["per_site_n3_k2"] == 8
        assert report["passed"]

    def test_no_go_suite(self):
        report = run_verify("no_go", seed=5)
        assert report["passed"]
        worst = [c for c in report["checks"] if c["name"] == "ie_zero_worst"][0]
        assert worst["value"] <= 1e-8

    def test_invariance_suite(self):
        report = run_verify("invariance", seed=5)
        assert report["passed"]

    def test_twirl_suite(self):
        report = run_verify("twirl", seed=5)
        assert report["passed"]
        names = {c["name"] for c in report["checks"]}
        assert {"mc_n2_20k_close", "mc_n1_20k_close", "mc_swap_expectations"} <= names

    def test_tampered_coefficients_fail(self):
        # negative control: hand-edited coefficients must break the validity leg
        from framefree.twirl import LuiState, ghz_lui
        from framefree.verify import lui_state_checks

        lui = ghz_lui(2, 0.3)
        bad = LuiState(lui.layout, lui.coeffs.copy())
        bad.coeffs[0] = 0.7
        assert not all(lui_state_checks(bad).values())

    def test_unknown_suite_exit_code(self):
        with pytest.raises(SystemExit) as exc:
            main(["verify", "--suite", "nope"])
        assert exc.value.code == 2


class TestEstimate:
    def test_deterministic_report(self, tmp_path):
        args = ["estimate", "--probe", "ghz", "--sites", "2", "--strategies", "gst",
                "--true-theta", "0.1", "--shots", "2000", "--reps", "8",
                "--seed", "11"]
        out1, out2 = tmp_path / "r1.json", tmp_path / "r2.json"
        assert main(args + ["--out", str(out1)]) == 0
        assert main(args + ["--out", str(out2)]) == 0
        assert out1.read_text() == out2.read_text()
        report = json.loads(out1.read_text())
        assert report["crb"] > 0
        assert report["seed"] == 11

    def test_zero_shots_rejected(self):
        assert main(["estimate", "--shots", "0"]) == 2

    @pytest.mark.parametrize("theta", ["inf", "-inf", "nan"])
    def test_non_finite_true_theta_rejected(self, tmp_path, capsys, theta):
        code = main(["estimate", f"--true-theta={theta}", "--shots", "10", "--reps", "2",
                     "--out", str(tmp_path / "r.json")])
        assert code == 2
        assert "true_theta must be finite" in capsys.readouterr().err
        assert not any(tmp_path.iterdir())

    def test_zero_information_rejected(self, capsys):
        # the direct readout carries no information at theta = 0
        assert main(["estimate", "--strategies", "dm", "--true-theta", "0",
                     "--shots", "10", "--reps", "2"]) == 2
        assert "not finite and positive" in capsys.readouterr().err

    def test_readout_looked_up_per_call(self, monkeypatch):
        # a wrapper installed on twirl.closed_families (a tracer, say) is the
        # one the model calls: the information once with every row, each
        # search step with den alone, and never the 2^N mask route
        cfg = {"probe": "ghz", "sites": 3, "strategy": "lbm", "true_theta": 0.4,
               "shots": 1000, "reps": 4, "seed": 5}
        plain = run_estimate(cfg)
        orders = []
        families = twirl.closed_families
        monkeypatch.setattr(twirl, "closed_families",
                            lambda *args: orders.append(args[-1]) or families(*args))

        def refuse(*args):
            raise AssertionError("the mask route was called")

        monkeypatch.setattr(twirl, "closed_lui", refuse)
        for module in (twirl, fisher):
            monkeypatch.setattr(module, "subset_transform", refuse)
        assert run_estimate(cfg) == plain
        assert orders.count(2) == 1 and orders.count(0) == len(orders) - 1 > 0

    @pytest.mark.parametrize("strategy, n", [
        ("lbm", 6), ("lbm", 8), ("lbm", 10), ("lbm", 12), ("gst", 8), ("gst", 10),
        ("gst", 12), ("dm", 8), ("dm", 10), ("dm", 12)])
    def test_ghz_estimates_do_not_alias(self, strategy, n):
        # the GHZ likelihood fixes N theta only modulo pi/(2N): searched over
        # theta +/- 0.5 these runs converged to the alias pi/N - theta
        report = run_estimate({"probe": "ghz", "sites": n, "strategy": strategy,
                               "true_theta": 0.05, "shots": 10_000, "reps": 50, "seed": 3})
        assert abs(report["bias"]) <= 3.0 * report["crb"] ** 0.5, report
        assert report["bias"] == report["estimate_mean"] - 0.05
        if strategy != "dm":
            # the direct readout's little information near the cell edge at
            # 0 still puts some of its estimates on that edge
            assert 0.5 <= report["mse_over_crb"] <= 2.0
            assert report["boundary_hits"] == 0

    @pytest.mark.parametrize("probe, sites, theta, code", [
        ("ghz", "13", "0.05", 0), ("product", "64", "0.4", 0), ("ghz", "65", "0.05", 2),
        ("product", "0", "0.4", 2)])
    def test_sites_share_the_scan_range(self, probe, sites, theta, code):
        # the weight-class model builds nothing dense, so no dense cap applies
        assert main(["estimate", "--probe", probe, "--sites", sites, "--strategies", "lbm",
                     "--true-theta", theta, "--shots", "10000", "--reps", "4"]) == code

    def test_lbm_short_run_reasonable(self, tmp_path):
        out = tmp_path / "lbm.json"
        assert main(["estimate", "--strategies", "lbm", "--true-theta", "0.05",
                     "--shots", "20000", "--reps", "24", "--seed", "2",
                     "--out", str(out)]) == 0
        report = json.loads(out.read_text())
        assert 0.5 <= report["variance_over_crb"] <= 2.0


class TestCommutantCommand:
    def test_report(self, tmp_path):
        out = tmp_path / "c.json"
        assert main(["commutant", "--sites", "2", "--copies", "2",
                     "--local-dim", "2", "--seed", "9", "--out", str(out)]) == 0
        report = json.loads(out.read_text())
        assert report["dimension"] == 4
        assert report["traceless_dimension"] == 3
        assert report["stable"]


def test_dim_cap_env_respected(tmp_path, monkeypatch):
    monkeypatch.setenv("FF_DIM_CAP", "8")
    code = main(["scan", "--probe", "ghz", "--sites", "2", "--theta-points", "3",
                 "--out", str(tmp_path / "x.csv")])
    # closed-form scans never build dense operators, so the cap does not bite
    assert code == 0
    monkeypatch.setenv("FF_DIM_CAP", "4")
    from framefree.tensor import QuditLayout

    with pytest.raises(ValueError, match="cap"):
        QuditLayout(2, 2, 2)
