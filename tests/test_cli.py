import json
import math
from pathlib import Path

import numpy as np
import pytest

import kspod.cli as cli
from kspod.design import read_design_csv
from kspod.snapshots import SnapshotSet, make_grid, make_times, read_dataset, write_dataset


def small_config(base: Path, **overrides) -> Path:
    cfg = {
        "seed": 3,
        "design": {
            "dims": 2,
            "slices": 2,
            "per_slice": 3,
            "ranges": [[0.0, 1.0], [10.0, 20.0]],
        },
        "synth": {
            "nx": 10, "nr": 8,
            "x_range": [0.0, 5.0], "r_range": [0.0, 2.0],
            "snapshots": 16, "dt": 1e-4,
        },
        "test": {"count": 2},
        "metrics": {"kde_bandwidth": 0.05},
    }
    cfg.update(overrides)
    path = base / "config.json"
    path.write_text(json.dumps(cfg), encoding="utf-8")
    return path


class TestDesignCommand:
    def test_writes_thirty_row_csv(self, tmp_path):
        out = tmp_path / "d.csv"
        code = cli.main([
            "design", "--dims", "3", "--slices", "5", "--per-slice", "6",
            "--seed", "0", "--out", str(out),
        ])
        assert code == 0
        lines = out.read_text(encoding="utf-8").strip().splitlines()
        assert len(lines) == 31
        design = read_design_csv(out)
        assert design.points.shape == (30, 3)

    def test_byte_identical_across_runs(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        argv = ["design", "--dims", "2", "--slices", "3", "--per-slice", "4",
                "--seed", "11"]
        assert cli.main(argv + ["--out", str(a)]) == 0
        assert cli.main(argv + ["--out", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_usage_error_exit_two(self):
        assert cli.main(["design", "--dims", "3"]) == 2

    def test_unknown_command_exit_two(self):
        assert cli.main(["frobnicate"]) == 2


class TestPredictErrors:
    def test_missing_model_exit_two(self, tmp_path, capsys):
        code = cli.main([
            "predict", "--model", str(tmp_path / "missing.ksem"),
            "--x", "0.5,12.0", "--out", str(tmp_path / "p.kspd"),
        ])
        assert code == 2
        assert "model not found" in capsys.readouterr().err


class TestEvalErrors:
    def test_bad_magic_exit_one(self, tmp_path, capsys):
        bad = tmp_path / "bad.kspd"
        bad.write_bytes(b"XXXX\n\x00" + b"\x00" * 64)
        code = cli.main([
            "eval", "--sim", str(bad), "--emu", str(bad),
            "--out", str(tmp_path / "r.json"),
        ])
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("kspod:") and err.strip()

    def test_non_finite_threshold_exit_one(self, tmp_path, capsys):
        grid = make_grid(4, 5, (0.0, 5.0), (0.0, 2.0))
        field = np.repeat(np.where(grid[:, 1:] >= 1.0, 1000.0, 100.0), 3, axis=1)
        sim = tmp_path / "sim.kspd"
        write_dataset(SnapshotSet("sim", [1.0], grid, make_times(3, 1e-3), field), sim)
        code = cli.main([
            "eval", "--sim", str(sim), "--emu", str(sim), "--threshold", "nan",
            "--bandwidth", "0.05", "--out", str(tmp_path / "r.json"),
        ])
        assert code == 1
        assert capsys.readouterr().err.strip() == "kspod: threshold must be finite"
        assert not (tmp_path / "r.json").exists()


class TestNegativeOptionValues:
    # a value starting with "-" parses the same given as "--opt value" or
    # "--opt=value", with the exit code the "=" form gives

    @pytest.fixture
    def trained(self, tmp_path):
        cfg = small_config(tmp_path)
        assert cli.main([
            "design", "--dims", "2", "--slices", "2", "--per-slice", "3",
            "--seed", "3", "--out", str(tmp_path / "design.csv"),
        ]) == 0
        assert cli.main(["synth", "--config", str(cfg)]) == 0
        assert cli.main(["train", "--config", str(cfg)]) == 0
        return tmp_path

    @staticmethod
    def both_forms(option, value):
        return [[option, value], [f"{option}={value}"]]

    def test_predict_x(self, trained):
        outputs = []
        for i, form in enumerate(self.both_forms("--x", "-0.5,12")):
            out = trained / f"p{i}.kspd"
            assert cli.main(["predict", "--model", str(trained / "model.ksem"),
                             "--out", str(out)] + form) == 0
            outputs.append(out.read_bytes())
        assert outputs[0] == outputs[1]

    @pytest.mark.parametrize("option, value, message", [
        ("--threshold", "-inf", "kspod: threshold must be finite"),
        ("--stations", "-1,2", "kspod: station -1.0 is not on the grid"),
    ])
    def test_eval(self, trained, capsys, option, value, message):
        case = str(trained / "data" / "train" / "case_000.kspd")
        for form in self.both_forms(option, value):
            code = cli.main(["eval", "--sim", case, "--emu", case, "--bandwidth",
                             "0.05", "--out", str(trained / "r.json")] + form)
            assert code == 1
            assert capsys.readouterr().err.strip() == message

    def test_missing_value_still_usage_error(self, tmp_path):
        assert cli.main(["predict", "--model", str(tmp_path / "m.ksem"),
                         "--x", "--out", str(tmp_path / "p.kspd")]) == 2


class TestStepwiseCommands:
    def test_synth_train_predict_eval(self, tmp_path):
        cfg = small_config(tmp_path)
        design_path = tmp_path / "design.csv"
        assert cli.main([
            "design", "--dims", "2", "--slices", "2", "--per-slice", "3",
            "--seed", "3", "--out", str(design_path),
        ]) == 0
        assert cli.main(["synth", "--config", str(cfg)]) == 0
        train_dir = tmp_path / "data" / "train"
        assert len(list(train_dir.glob("*.kspd"))) == 6

        assert cli.main(["train", "--config", str(cfg)]) == 0
        model_path = tmp_path / "model.ksem"
        assert model_path.is_file()

        pred_path = tmp_path / "pred.kspd"
        case0 = read_dataset(train_dir / "case_000.kspd")
        x_arg = ",".join(str(v) for v in case0.design)
        assert cli.main([
            "predict", "--model", str(model_path), "--x", x_arg,
            "--out", str(pred_path),
        ]) == 0

        report_path = tmp_path / "report.json"
        assert cli.main([
            "eval", "--sim", str(train_dir / "case_000.kspd"),
            "--emu", str(pred_path), "--out", str(report_path),
            "--bandwidth", "0.05",
        ]) == 0
        report = json.loads(report_path.read_text(encoding="utf-8"))
        entry = report["case_000"]
        assert entry["rel_l2_error"] < 0.01
        assert math.isfinite(entry["axial_eps_mean"])

    def test_times_subset(self, tmp_path):
        cfg = small_config(tmp_path)
        assert cli.main([
            "design", "--dims", "2", "--slices", "2", "--per-slice", "3",
            "--seed", "3", "--out", str(tmp_path / "design.csv"),
        ]) == 0
        assert cli.main(["synth", "--config", str(cfg)]) == 0
        assert cli.main(["train", "--config", str(cfg)]) == 0
        out = tmp_path / "p.kspd"
        assert cli.main([
            "predict", "--model", str(tmp_path / "model.ksem"),
            "--x", "0.4,14.0", "--times", "0,1,2", "--out", str(out),
        ]) == 0
        assert read_dataset(out).num_snapshots == 3

        # design vector from config, and flag-based station override on eval
        cfg2 = small_config(tmp_path, predict={"design": [0.4, 14.0],
                                               "time_indices": None})
        out2 = tmp_path / "p2.kspd"
        assert cli.main([
            "predict", "--model", str(tmp_path / "model.ksem"),
            "--config", str(cfg2), "--out", str(out2),
        ]) == 0
        sim_path = tmp_path / "data" / "train" / "case_000.kspd"
        xs = np.unique(read_dataset(sim_path).grid[:, 0])
        assert cli.main([
            "eval", "--sim", str(sim_path), "--emu", str(sim_path),
            "--out", str(tmp_path / "r2.json"),
            "--stations", f"{xs[1]},{xs[-1]}", "--bandwidth", "0.05",
        ]) == 0

        assert cli.main([
            "predict", "--model", str(tmp_path / "model.ksem"),
            "--x", "0.4,14.0", "--times", "a,b", "--out", str(out),
        ]) == 2

    def test_config_time_indices(self, tmp_path):
        cfg = small_config(tmp_path, predict={"design": [0.4, 14.0],
                                              "time_indices": [1, 3, 5, 7]})
        assert cli.main([
            "design", "--dims", "2", "--slices", "2", "--per-slice", "3",
            "--seed", "3", "--out", str(tmp_path / "design.csv"),
        ]) == 0
        assert cli.main(["synth", "--config", str(cfg)]) == 0
        assert cli.main(["train", "--config", str(cfg)]) == 0
        model = str(tmp_path / "model.ksem")
        out = tmp_path / "p.kspd"
        # the configured indices apply when --times is absent, with --x or not
        for extra in ([], ["--x", "0.4,14.0"]):
            assert cli.main(["predict", "--model", model, "--config", str(cfg),
                             "--out", str(out)] + extra) == 0
            pred = read_dataset(out)
            assert pred.num_snapshots == 4
            assert np.array_equal(pred.times, read_dataset(
                tmp_path / "data" / "train" / "case_000.kspd").times[[1, 3, 5, 7]])
        # --times overrides the config
        assert cli.main(["predict", "--model", model, "--config", str(cfg),
                         "--times", "0,2", "--out", str(out)]) == 0
        assert read_dataset(out).num_snapshots == 2


class TestPipeline:
    def test_end_to_end(self, tmp_path, monkeypatch):
        cfg = small_config(tmp_path)
        model_path = tmp_path / "model.ksem"

        # held-out datasets must not be read before the model exists
        real_read = cli.read_dataset
        violations = []

        def spy(path):
            p = Path(path)
            if p.parent.name == "test" and not model_path.exists():
                violations.append(str(p))
            return real_read(p)

        monkeypatch.setattr(cli, "read_dataset", spy)
        assert cli.main(["pipeline", "--config", str(cfg)]) == 0
        assert not violations

        report = json.loads((tmp_path / "report.json").read_text("utf-8"))
        assert report["summary"]["test_cases"] == 2
        for entry in report["cases"].values():
            assert math.isfinite(entry["axial_eps_mean"])
            assert math.isfinite(entry["rel_l2_error"])
        preds = list((tmp_path / "predictions").glob("*.kspd"))
        assert len(preds) == 2

    def test_workdir_and_seed_override(self, tmp_path):
        cfg = small_config(tmp_path)
        work = tmp_path / "elsewhere"
        code = cli.main([
            "pipeline", "--config", str(cfg), "--workdir", str(work),
            "--seed", "9",
        ])
        assert code == 0
        assert (work / "model.ksem").is_file()

    # every refused config value is a configuration error (exit 2) whose
    # message names its key and value, and nothing is written, not even
    # the workdir
    @pytest.mark.parametrize("threshold", [0, 1.5])
    def test_energy_threshold_out_of_range(self, tmp_path, capsys, threshold):
        cfg = small_config(tmp_path, pod={"energy_threshold": threshold})
        work = tmp_path / "work"
        assert cli.main(["pipeline", "--config", str(cfg), "--workdir", str(work)]) == 2
        assert f"pod.energy_threshold must lie in (0, 1], got {threshold!r}" \
            in capsys.readouterr().err
        assert sorted(p.name for p in tmp_path.iterdir()) == ["config.json"]

    @pytest.mark.parametrize("section, key", [("pod", "num_modes"),
                                              ("kriging", "restarts")])
    def test_non_integral_count_rejected_before_synthesis(self, tmp_path, capsys,
                                                          section, key):
        # a boolean is not a count either (true once trained a 1-mode model)
        for value in (2.5, True):
            cfg = small_config(tmp_path, **{section: {key: value}})
            assert cli.main(["pipeline", "--config", str(cfg)]) == 2
            assert f"{section}.{key} must be an integer, got {value!r}" \
                in capsys.readouterr().err
            assert sorted(p.name for p in tmp_path.iterdir()) == ["config.json"]

    @pytest.mark.parametrize("section, value, message", [
        ("pod", {"centering": "false"}, "pod.centering must be a boolean, got 'false'"),
        ("test", {"count": 2.5}, "test.count must be an integer, got 2.5"),
        ("test", {"count": True}, "test.count must be an integer, got True"),
        # a string once raised a TypeError traceback, and true read as 1.0
        ("pod", {"energy_threshold": "0.9"}, "pod.energy_threshold must be a number, got '0.9'"),
        ("pod", {"energy_threshold": True}, "pod.energy_threshold must be a number, got True"),
        ("kriging", {"nugget": True}, "kriging.nugget must be a number, got True"),
        ("kriging", {"nugget": None}, "kriging.nugget must be a number, got None"),
        ("pod", {"centering": 1}, "pod.centering must be a boolean, got 1"),
        ("pod", {"num_modes": 0}, "pod.num_modes must be at least 1, got 0"),
        ("kriging", {"log_theta_bounds": [-6.0, True]},
         "kriging.log_theta_bounds must be two numbers, got [-6.0, True]"),
        ("kriging", {"log_theta_bounds": ["-6", 6.0]},
         "kriging.log_theta_bounds must be two numbers, got ['-6', 6.0]"),
        ("kriging", {"log_theta_bounds": [-6.0]},
         "kriging.log_theta_bounds must be two numbers, got [-6.0]"),
        ("kriging", {"restarts": 0}, "kriging.restarts must be at least 1, got 0"),
        ("kriging", {"nugget": -1e-3}, "kriging.nugget must be finite and nonnegative, got -0.001"),
        ("kriging", {"log_theta_bounds": [3.0, -3.0]},
         "kriging.log_theta_bounds must be finite with lower < upper, got [3.0, -3.0]"),
    ])
    def test_mistyped_option_rejected_before_synthesis(self, tmp_path, capsys,
                                                     section, value, message):
        cfg = small_config(tmp_path, **{section: value})
        assert cli.main(["pipeline", "--config", str(cfg)]) == 2
        assert message in capsys.readouterr().err
        assert sorted(p.name for p in tmp_path.iterdir()) == ["config.json"]

    @pytest.mark.parametrize("shrink", [1.5, 0.0, -0.25, True, "0.5", None, float("nan")])
    def test_shrink_outside_unit_interval_rejected_before_synthesis(self, tmp_path, capsys,
                                                                    shrink):
        cfg = small_config(tmp_path, test={"count": 2, "shrink": shrink})
        assert cli.main(["pipeline", "--config", str(cfg)]) == 2
        assert f"test.shrink must be a number in (0, 1], got {shrink!r}" \
            in capsys.readouterr().err
        assert sorted(p.name for p in tmp_path.iterdir()) == ["config.json"]

    @pytest.mark.parametrize("shrink", [1, 0.5])
    def test_shrink_in_unit_interval_accepted(self, tmp_path, shrink):
        cfg = small_config(tmp_path, test={"count": 2, "shrink": shrink})
        assert cli.main(["pipeline", "--config", str(cfg)]) == 0
        designs = [read_dataset(p).design
                   for p in sorted((tmp_path / "data" / "test").glob("*.kspd"))]
        lo, hi = np.array([0.0, 10.0]), np.array([1.0, 20.0])
        margin = 0.5 * (1.0 - shrink) * (hi - lo)
        for x in designs:
            assert np.all(x >= lo + margin - 1e-12) and np.all(x <= hi - margin + 1e-12)

    def test_config_not_found(self, tmp_path):
        assert cli.main(["pipeline", "--config", str(tmp_path / "nope.json")]) == 2

    def test_unknown_config_key(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"seeed": 1}), encoding="utf-8")
        assert cli.main(["pipeline", "--config", str(path)]) == 2

    def test_removed_theta_mode_key(self, tmp_path, capsys):
        # the coefficient length-scale is always shared per mode, and the
        # indicator-weight parameter always fitted; the keys that once chose
        # them are now unknown
        for key, value in (("coeff_theta_mode", "shared"), ("weight_theta", 5.0)):
            cfg = small_config(tmp_path, kriging={key: value})
            assert cli.main(["pipeline", "--config", str(cfg)]) == 2
            assert f"unknown config key {key!r}" in capsys.readouterr().err
            assert sorted(p.name for p in tmp_path.iterdir()) == ["config.json"]

    def test_readme_config_is_the_defaults(self):
        # the README's example config lists every key, each at its default,
        # so a removed key cannot leave the example refused as unknown
        readme = (Path(__file__).parents[1] / "README.md").read_text("utf-8")
        block = readme.split("```json\n", 1)[1].split("```", 1)[0]
        assert json.loads(block) == cli._CONFIG_DEFAULTS

