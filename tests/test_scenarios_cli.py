"""Scenario parsing, artifact determinism, and the command-line surface."""

import csv
import json

import pytest

from cmra import Scenario, ScenarioError, export_figure_data, run_scenario
from cmra import cli, scenarios
from cmra.cli import main
from cmra.scenarios import bundled_scenario_path
from cmra.verify import ClaimResult


def pow_scenario(name="pow-test", **config):
    cfg = {"grid_n": 20, "eps": 0.005, "max_price": 2.0,
           "money_scale": 10 ** 6}
    cfg.update(config)
    return {
        "name": name,
        "mode": "single",
        "auction": "cmra",
        "environment": {
            "cap": 0.75, "family": "power", "alpha": 2.0,
            "thetas": [0.8, 0.5], "theta_support": [0.1, 1.0],
        },
        "strategies": ["cmra-truthful", "cmra-truthful"],
        "config": cfg,
    }


class TestScenarioParsing:
    def test_round_trip_idempotent(self):
        data = pow_scenario()
        once = Scenario.from_dict(data).to_dict()
        twice = Scenario.from_dict(once).to_dict()
        assert once == twice == data

    def test_bundled_scenarios_parse(self):
        for name in ("lots-example", "power-truthful", "quadratic-truthful",
                     "strategy-matrix"):
            Scenario.from_json(bundled_scenario_path(name))

    def test_empty_strategy_list_rejected(self):
        data = pow_scenario()
        data["strategies"] = []
        with pytest.raises(ScenarioError):
            Scenario.from_dict(data)

    def test_unknown_strategy_rejected(self):
        data = pow_scenario()
        data["strategies"] = ["cmra-truthful", "sniping"]
        with pytest.raises(ScenarioError):
            Scenario.from_dict(data)

    def test_unknown_family_rejected(self):
        data = pow_scenario()
        data["environment"]["family"] = "cubic-spline"
        with pytest.raises(ScenarioError):
            Scenario.from_dict(data)

    def test_unknown_mode_rejected(self):
        data = pow_scenario()
        data["mode"] = "fuzz"
        with pytest.raises(ScenarioError):
            Scenario.from_dict(data)

    @pytest.mark.parametrize("grid_n", [-3, 0, 20.9, True])
    def test_grid_size_must_be_an_integer_of_at_least_one(self, grid_n):
        # Not run on n = 4 or n = 20 in its place.
        with pytest.raises(ScenarioError, match="grid size"):
            Scenario.from_dict(pow_scenario(grid_n=grid_n))

    @pytest.mark.parametrize("money_scale", [2.5, True, 0, "1000000"])
    def test_money_scale_must_be_an_integer_of_at_least_one(self,
                                                            money_scale):
        # Not run at scale 2 or 1 in its place.
        with pytest.raises(ScenarioError, match="money_scale"):
            Scenario.from_dict(pow_scenario(money_scale=money_scale))

    @pytest.mark.parametrize("name", ["refine", "log_rounds"])
    @pytest.mark.parametrize("value", ["false", 0, 1, None])
    def test_flags_must_be_json_booleans(self, name, value):
        # "false" is not read as True, nor 0 as False.
        with pytest.raises(ScenarioError, match=f"config {name} "):
            Scenario.from_dict(pow_scenario(**{name: value}))

    @pytest.mark.parametrize("name", ["refine", "log_rounds"])
    def test_flags_are_taken_as_given(self, name):
        for value in (False, True):
            cfg = Scenario.from_dict(pow_scenario(**{name: value})).config
            assert getattr(cfg, name) is value

    @pytest.mark.parametrize("level, key, value, message", [
        ("config", "eps", True, "config eps must be a finite real"),
        ("config", "max_price", "2.0", "config max_price must be a finite"),
        ("config", "epsilon", 0.1, "config .*'epsilon'"),
        ("environment", "alpha", True, "alpha must be a finite real"),
        ("environment", "alfa", 2.0, "'alfa'"),
        ("environment", "thetas", [True, 0.5], "theta must be a finite real"),
        ("environment", "validate_regime", False, "'validate_regime'"),
        ("environment", "distribution", {"kind": "triangular"},
         "kind must be 'uniform', not 'triangular'"),
        ("environment", "distribution", {"points": [0.2]}, "'points'"),
        (None, "seed", 3, r"unknown single scenario keys \['seed'\]"),
        (None, "single", {}, r"unknown single scenario keys \['single'\]")])
    def test_each_key_is_taken_as_given_or_rejected(self, level, key,
                                                    value, message):
        # Not run with eps 1.0, max price 2.0 or the default eps in its
        # place, nor with a misspelt key dropped.
        data = pow_scenario()
        (data if level is None else data[level])[key] = value
        with pytest.raises(ScenarioError, match=message):
            Scenario.from_dict(data)

    @pytest.mark.parametrize("data", [
        {"mode": "verify", "verify": {"claim": "lots-example"},
         "config": {}},
        {"mode": "audit", "audit": {"record": "denmark-2016"},
         "strategies": []}])
    def test_verify_and_audit_read_no_run_keys(self, data):
        with pytest.raises(ScenarioError, match="unknown .* scenario keys"):
            Scenario.from_dict(data)

    def test_defaults(self):
        data = pow_scenario()
        data["config"] = {}
        del data["environment"]["thetas"], data["environment"]["theta_support"]
        scenario = Scenario.from_dict(data)
        cfg = scenario.config
        assert (cfg.grid.n, cfg.eps, cfg.max_price, cfg.start) == \
            (20, 1e-3, 10.0, 0.0)
        assert cfg.refine is cfg.log_rounds is True
        assert scenario.env.distribution.support == (1.0, 1.0)

    @pytest.mark.parametrize("theta_grid", [0, -3, 2.5, True, "3"])
    def test_sweep_type_grid_must_be_positive(self, theta_grid):
        # Not run on 2, 1 or 3 types in its place.
        data = pow_scenario()
        data["mode"] = "sweep"
        data["sweep"] = {"theta_grid": theta_grid}
        with pytest.raises(ScenarioError, match="theta_grid"):
            Scenario.from_dict(data)


class TestRunScenario:
    def test_single_run_artifacts(self, tmp_path):
        result = run_scenario(pow_scenario(), outdir=tmp_path)
        assert result["ok"]
        outcome = json.loads((tmp_path / "pow-test_outcome.json").read_text())
        assert outcome["termination"] == "closed"
        assert outcome["allocations"] == [0.75, 0.25]
        with open(tmp_path / "pow-test_rounds.csv") as fh:
            rows = list(csv.DictReader(fh))
        assert rows[0]["kind"] == "headline"
        assert {r["bidder"] for r in rows} == {"1", "2"}
        assert rows[-1]["closed_flag"] == "1"

    def test_byte_identical_reruns(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        run_scenario(pow_scenario(), outdir=a)
        run_scenario(pow_scenario(), outdir=b)
        for fname in ("pow-test_rounds.csv", "pow-test_outcome.json"):
            assert (a / fname).read_bytes() == (b / fname).read_bytes()

    def test_integer_values_are_taken_as_given(self, tmp_path):
        # JSON integers reach the constructors as ints, as they would from
        # Python: the run is the one of the equal floats, and only an
        # integer clock price is written as an integer.
        runs = {}
        for name, one in (("ints", 1), ("floats", 1.0)):
            data = pow_scenario(name, eps=one, max_price=2 * one,
                                start=0 * one)
            data["environment"].update(alpha=2 * one, thetas=[one, one],
                                       theta_support=[0 * one, one])
            assert run_scenario(data, outdir=tmp_path)["ok"]
            with open(tmp_path / f"{name}_rounds.csv") as fh:
                runs[name] = list(csv.reader(fh))
        assert (tmp_path / "ints_outcome.json").read_bytes() == \
            (tmp_path / "floats_outcome.json").read_bytes()
        ints, floats = runs["ints"], runs["floats"]
        assert [r[1] for r in ints[1:6]] == ["0", "0", "0", "0", "1"]
        assert [r[1] for r in floats[1:6]] == ["0.0"] * 4 + ["1.0"]
        assert [r[:1] + r[2:] for r in ints] == \
            [r[:1] + r[2:] for r in floats]

    def test_sweep_mode(self, tmp_path):
        data = pow_scenario("sweep-test")
        data["mode"] = "sweep"
        data["sweep"] = {"theta_grid": 3}
        result = run_scenario(data, outdir=tmp_path)
        assert result["ok"]
        with open(tmp_path / "sweep-test_summary.csv") as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 9
        assert all(r["termination"] == "closed" for r in rows)

    def test_verify_mode(self, tmp_path):
        data = {"name": "v", "mode": "verify",
                "verify": {"claim": "lots-example"}}
        result = run_scenario(data, outdir=tmp_path)
        assert result["ok"]
        report = json.loads((tmp_path / "v_report.json").read_text())
        assert report["passed"] is True

    def test_audit_mode_bundled(self, tmp_path):
        data = {"name": "aud", "mode": "audit",
                "audit": {"record": "denmark-2016"}}
        result = run_scenario(data, outdir=tmp_path)
        assert result["ok"]
        report = json.loads((tmp_path / "aud_audit.json").read_text())
        assert report["status"] == "feasible"
        assert report["prices"]["B1800"] == "125079743"


class TestExportFigureData:
    def test_layers_at_sampled_prices(self, tmp_path):
        data = pow_scenario("fig-test")
        prices = [0.1, 0.3, 0.5, 0.65]
        result = export_figure_data(data, prices, outdir=tmp_path)
        assert result["ok"]
        with open(tmp_path / "fig-test_bid_functions.csv") as fh:
            rows = list(csv.DictReader(fh))
        assert {r["clock_price"] for r in rows} == {repr(p) for p in prices}

    def test_zero_price_only_headline_layer(self, tmp_path):
        data = pow_scenario("fig-zero")
        export_figure_data(data, [0.0], outdir=tmp_path)
        with open(tmp_path / "fig-zero_bid_functions.csv") as fh:
            rows = list(csv.DictReader(fh))
        assert {r["quantity"] for r in rows} == {"0.75"}

    def test_revenue_curve_peaks_at_boundary_split(self, tmp_path):
        # At the weak bidder's final price the best split is (cap, 1-cap).
        data = pow_scenario("fig-close")
        pf_weak = 0.5 / 0.75
        export_figure_data(data, [pf_weak], outdir=tmp_path)
        with open(tmp_path / "fig-close_revenue_curves.csv") as fh:
            rows = [r for r in csv.DictReader(fh)
                    if r["both_bidders_revenue"]]
        best = max(rows, key=lambda r: float(r["both_bidders_revenue"]))
        assert float(best["x1"]) == 0.75

    def test_price_outside_range_rejected(self, tmp_path):
        with pytest.raises(ScenarioError):
            export_figure_data(pow_scenario(), [5.0], outdir=tmp_path)

    def test_clock_scenario_rejected(self, tmp_path):
        data = pow_scenario()
        data["auction"] = "clock"
        with pytest.raises(ScenarioError):
            export_figure_data(data, [0.1], outdir=tmp_path)


class TestCli:
    def test_run_bundled(self, tmp_path, capsys):
        assert main(["run", "lots-example", "--out", str(tmp_path)]) == 0
        assert "PASS" in capsys.readouterr().out

    def test_run_scenario_file(self, tmp_path):
        path = tmp_path / "s.json"
        path.write_text(json.dumps(pow_scenario()))
        assert main(["run", str(path), "--out", str(tmp_path)]) == 0
        assert (tmp_path / "pow-test_outcome.json").exists()

    def test_run_rejects_zero_refine_tol(self, tmp_path, capsys):
        """A zero tolerance would never end the refine bisection."""
        path = tmp_path / "s.json"
        path.write_text(json.dumps(pow_scenario(refine_tol=0)))
        assert main(["run", str(path), "--out", str(tmp_path)]) == 2
        assert "refine_tol must be positive and finite" in \
            capsys.readouterr().err
        assert not list(tmp_path.glob("pow-test_*"))

    def test_run_takes_no_seed(self, tmp_path, capsys):
        # No scenario mode reads a seed, so ``run`` offers none.
        with pytest.raises(SystemExit) as exc:
            main(["run", "lots-example", "--seed", "3",
                  "--out", str(tmp_path)])
        assert exc.value.code == 2
        assert "--seed" in capsys.readouterr().err
        assert not list(tmp_path.iterdir())

    def test_missing_scenario(self, tmp_path, capsys):
        assert main(["run", "no-such-scenario", "--out", str(tmp_path)]) == 2
        assert "error" in capsys.readouterr().err

    def test_audit_subcommand(self, tmp_path, capsys):
        assert main(["audit", "denmark-2016", "--out", str(tmp_path)]) == 0
        out = capsys.readouterr().out
        assert "feasible" in out and "125079743" in out

    def test_export_fig_subcommand(self, tmp_path):
        assert main(["export-fig", "power-truthful", "--prices", "0.2", "0.4",
                     "--out", str(tmp_path)]) == 0
        assert (tmp_path / "power-truthful_bid_functions.csv").exists()

    def test_export_fig_bad_price(self, tmp_path):
        assert main(["export-fig", "power-truthful", "--prices", "9.9",
                     "--out", str(tmp_path)]) == 2

    def test_verify_subcommand(self, tmp_path, capsys):
        assert main(["verify", "truthful-nondecreasing",
                     "--out", str(tmp_path)]) == 0
        assert (tmp_path / "truthful-nondecreasing_report.json").exists()

    def test_verify_report_writers_agree(self, tmp_path, monkeypatch):
        # The CLI and the scenario runner write the same report bytes.
        fixed = ClaimResult("lots-example", True,
                            lines=["[PASS] one", "[FAIL] two: detail"],
                            elapsed=1.23456)
        for module in (cli, scenarios):
            monkeypatch.setattr(module, "run_claim", lambda *a, **k: fixed)
        assert main(["verify", "lots-example", "--out",
                     str(tmp_path / "cli")]) == 0
        run_scenario({"name": "lots-example", "mode": "verify",
                      "verify": {"claim": "lots-example"}},
                     outdir=tmp_path / "scenario")
        got = [(tmp_path / d / "lots-example_report.json").read_bytes()
               for d in ("cli", "scenario")]
        assert got[0] == got[1]
        assert json.loads(got[0]) == {
            "claim": "lots-example", "passed": True, "elapsed_s": 1.235,
            "lines": ["[PASS] one", "[FAIL] two: detail"]}

    @pytest.mark.parametrize("flags, forwarded", [
        ([], {}),
        (["--theta-grid", "3"], {"theta_grid": 3}),
        (["--grid-n", "40"], {"grid_n": 40}),
        (["--theta-grid", "3", "--grid-n", "40", "--eps", "0.01",
          "--tol", "1e-05", "--seed", "9"],
         {"theta_grid": 3, "grid_n": 40, "eps": 0.01, "tol": 1e-05,
          "seed": 9}),
    ])
    def test_verify_forwards_each_option_by_name(self, tmp_path, monkeypatch,
                                                 flags, forwarded):
        calls = []

        def fake(name, **options):
            calls.append((name, options))
            return ClaimResult(name, True, elapsed=0.0)

        monkeypatch.setattr(cli, "run_claim", fake)
        assert main(["verify", "expost-battery", *flags,
                     "--out", str(tmp_path)]) == 0
        assert calls == [("expost-battery", forwarded)]

    @pytest.mark.parametrize("flags, note", [
        (["--grid-n", "1"],
         "[NOTE] quantity grid n = 10, not --grid-n 1: the grid puts the "
         "cap 0.9 and 1/2 on grid points"),
        ([], None),
    ], ids=["rounded up", "default"])
    def test_verify_names_the_grid_size_it_used(self, tmp_path, capsys,
                                                flags, note):
        """A ``--grid-n`` that the quantity grid rounds up gets one line
        naming both sizes; the default size is used as given."""
        main(["verify", "truthful-decreasing", *flags, "--out",
              str(tmp_path)])
        lines = capsys.readouterr().out.splitlines()
        notes = [line for line in lines if line.startswith("[NOTE]")]
        assert notes == ([note] if note else [])

    def test_verify_rejects_retired_grid_flag(self, tmp_path, monkeypatch,
                                              capsys):
        monkeypatch.setattr(cli, "run_claim", pytest.fail)
        with pytest.raises(SystemExit) as exc:
            main(["verify", "truthful-decreasing", "--grid", "40",
                  "--out", str(tmp_path)])
        assert exc.value.code == 2
        assert "--grid" in capsys.readouterr().err

    @pytest.mark.parametrize("value", ["0", "-3", "two"])
    def test_verify_rejects_a_type_grid_that_is_not_positive(
            self, tmp_path, monkeypatch, capsys, value):
        monkeypatch.setattr(cli, "run_claim", pytest.fail)
        with pytest.raises(SystemExit) as exc:
            main(["verify", "expost-battery", "--theta-grid", value,
                  "--out", str(tmp_path)])
        assert exc.value.code == 2
        assert "--theta-grid" in capsys.readouterr().err

    @pytest.mark.parametrize("option, value", [
        ("--grid-n", "0"), ("--grid-n", "-3"), ("--grid-n", "two"),
        ("--eps", "0"), ("--eps", "-1"), ("--eps", "nan"), ("--eps", "inf"),
        ("--eps", "fast"), ("--tol", "-1e-05"), ("--tol", "nan"),
        ("--tol", "inf"), ("--tol", "-inf"),
    ])
    def test_verify_rejects_a_bad_number(self, tmp_path, monkeypatch, capsys,
                                         option, value):
        """Each bad value exits with code 2 and names its option, before
        any claim runs (``AuctionConfig`` would raise on a bad eps)."""
        monkeypatch.setattr(cli, "run_claim", pytest.fail)
        with pytest.raises(SystemExit) as exc:
            main(["verify", "expost-battery", f"{option}={value}",
                  "--out", str(tmp_path)])
        assert exc.value.code == 2
        assert f"argument {option}:" in capsys.readouterr().err

    @pytest.mark.parametrize("flags, forwarded", [
        (["--eps", "1e-300"], {"eps": 1e-300}),
        (["--tol", "0"], {"tol": 0.0}),
        (["--tol", "0.5", "--grid-n", "1"], {"tol": 0.5, "grid_n": 1}),
    ])
    def test_verify_takes_edge_numbers(self, tmp_path, monkeypatch, flags,
                                       forwarded):
        calls = []

        def fake(name, **options):
            calls.append(options)
            return ClaimResult(name, True, elapsed=0.0)

        monkeypatch.setattr(cli, "run_claim", fake)
        assert main(["verify", "expost-battery", *flags,
                     "--out", str(tmp_path)]) == 0
        assert calls == [forwarded]

    def test_output_dir_env_var(self, tmp_path, monkeypatch):
        monkeypatch.setenv("CMRA_OUTPUT_DIR", str(tmp_path))
        path = tmp_path / "s.json"
        path.write_text(json.dumps(pow_scenario("env-test")))
        assert main(["run", str(path)]) == 0
        assert (tmp_path / "env-test_outcome.json").exists()
