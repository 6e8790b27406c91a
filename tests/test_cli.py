import json
import math

import numpy as np
import pytest
from click.testing import CliRunner

from ratmin.cli import cli, parse_interval, parse_taus


@pytest.fixture
def runner():
    return CliRunner()


class TestParsers:
    def test_interval(self):
        assert parse_interval("-1,1") == (-1.0, 1.0)
        assert parse_interval("0,2.5") == (0.0, 2.5)
        with pytest.raises(ValueError):
            parse_interval("1,1")
        with pytest.raises(ValueError):
            parse_interval("1")

    def test_taus(self):
        assert parse_taus("0,0.25pi,0.5pi,0.75pi") == (
            0.0,
            0.25 * math.pi,
            0.5 * math.pi,
            0.75 * math.pi,
        )
        assert parse_taus("pi") == (math.pi,)
        assert parse_taus("1.5") == (1.5,)
        with pytest.raises(ValueError):
            parse_taus(",")


class TestApprox:
    def test_named_function_writes_result_and_curve(self, runner, tmp_path):
        out = tmp_path / "result.json"
        curve = tmp_path / "curve.csv"
        result = runner.invoke(
            cli,
            ["--quiet", "approx", "--fn", "abs", "--n", "1", "--m", "0",
             "--nodes", "60", "--eps", "1e-8",
             "--out", str(out), "--error-curve", str(curve)],
        )
        assert result.exit_code == 0, result.output
        payload = json.loads(out.read_text())
        assert payload["kind"] == "rational"
        assert payload["n"] == 1 and payload["m"] == 0
        assert payload["B"] == [1.0]
        assert 0.4 < payload["z"] < 0.51
        lines = curve.read_text().splitlines()
        assert lines[0] == "t,error"
        assert len(lines) == 61

    def test_input_file(self, runner, tmp_path):
        data = tmp_path / "samples.txt"
        data.write_text("".join(f"{float(v)!r}\n" for v in np.linspace(0, 1, 40)))
        out = tmp_path / "r.json"
        result = runner.invoke(
            cli,
            ["--quiet", "approx", "--input", str(data), "--n", "1", "--m", "0",
             "--eps", "1e-8", "--out", str(out)],
        )
        assert result.exit_code == 0, result.output
        payload = json.loads(out.read_text())
        assert payload["z"] < 1e-7  # a line fits a line exactly
        assert payload["map"]["interval"] == [0.0, 39.0]

    def test_requires_exactly_one_target(self, runner, tmp_path):
        result = runner.invoke(cli, ["approx", "--n", "1", "--m", "0"])
        assert result.exit_code == 3
        assert "ERROR input-error" in result.output

    def test_missing_input_file(self, runner):
        result = runner.invoke(
            cli, ["approx", "--input", "/does/not/exist.txt", "--n", "0", "--m", "0"]
        )
        assert result.exit_code == 3
        assert "ERROR input-error" in result.output

    @pytest.mark.parametrize("command", ["approx", "sine-fit"])
    def test_bad_sample_line_named(self, runner, tmp_path, command):
        data = tmp_path / "samples.txt"
        data.write_text("1.0\nabc\n3.0\n")
        result = runner.invoke(
            cli, [command, "--input", str(data), "--n", "0", "--m", "0",
                  "--out", str(tmp_path / "r.json")],
        )
        assert result.exit_code == 3
        assert "ERROR input-error" in result.output
        assert "line 2" in result.output

    def test_solver_failure_exit_code(self, runner, tmp_path):
        result = runner.invoke(
            cli,
            ["approx", "--fn", "abs", "--n", "0", "--m", "1", "--nodes", "40",
             "--delta", "10", "--out", str(tmp_path / "r.json")],
        )
        assert result.exit_code == 4
        assert "ERROR solver-failure" in result.output

    def test_unknown_command_usage_error(self, runner):
        result = runner.invoke(cli, ["badcmd"])
        assert result.exit_code == 2
        assert "Usage" in result.output or "No such command" in result.output


class TestPoly:
    def test_degree_zero_analytic(self, runner, tmp_path):
        out = tmp_path / "poly.json"
        result = runner.invoke(
            cli,
            ["--quiet", "poly", "--fn", "exp", "--degree", "0", "--grid", "uniform",
             "--nodes", "21", "--out", str(out)],
        )
        assert result.exit_code == 0, result.output
        payload = json.loads(out.read_text())
        top, bottom = math.e, 1 / math.e
        assert payload["A"][0] == pytest.approx((top + bottom) / 2, rel=1e-9)
        assert payload["z"] == pytest.approx((top - bottom) / 2, rel=1e-9)
        assert payload["m"] == 0


class TestCheck:
    def test_pipeline_with_approx(self, runner, tmp_path):
        out = tmp_path / "r.json"
        curve = tmp_path / "c.csv"
        fit = runner.invoke(
            cli,
            ["--quiet", "approx", "--fn", "abs", "--n", "1", "--m", "0",
             "--nodes", "200", "--grid", "uniform", "--eps", "1e-9",
             "--out", str(out), "--error-curve", str(curve)],
        )
        assert fit.exit_code == 0, fit.output
        result = runner.invoke(
            cli, ["check", "--result", str(out), "--curve", str(curve), "--peak-tol", "0.1"]
        )
        assert result.exit_code == 0, result.output
        report = json.loads(result.output)
        assert report["required_count"] == 3
        assert report["alternation_count"] >= 3
        assert report["verdict"] == "CertifiedOptimal"

    def test_crude_fit_inconclusive(self, runner, tmp_path):
        out = tmp_path / "r.json"
        curve = tmp_path / "c.csv"
        runner.invoke(
            cli,
            ["--quiet", "approx", "--fn", "sqrt-abs-shift", "--n", "2", "--m", "2",
             "--nodes", "300", "--eps", "0.1", "--out", str(out),
             "--error-curve", str(curve)],
        )
        result = runner.invoke(cli, ["check", "--result", str(out), "--curve", str(curve)])
        assert result.exit_code == 0, result.output
        report = json.loads(result.output)
        assert report["verdict"] == "Inconclusive"

    def test_missing_result_file(self, runner, tmp_path):
        curve = tmp_path / "c.csv"
        curve.write_text("t,error\n0.0,0.1\n")
        result = runner.invoke(cli, ["check", "--result", "/absent.json", "--curve", str(curve)])
        assert result.exit_code == 3


class TestSineFit:
    def test_recovers_frequency(self, runner, tmp_path):
        data = tmp_path / "seg.txt"
        s = np.linspace(-1, 1, 61)
        data.write_text("".join(f"{float(v)!r}\n" for v in np.sin(4 * s)))
        out = tmp_path / "sf.json"
        result = runner.invoke(
            cli,
            ["--quiet", "sine-fit", "--input", str(data), "--n", "0", "--m", "0",
             "--omega-max", "6", "--taus", "0,0.5pi", "--out", str(out)],
        )
        assert result.exit_code == 0, result.output
        payload = json.loads(out.read_text())
        assert payload["omega"] == 4.0
        assert payload["tau"] == 0.0
        assert payload["z"] < 1e-6
        assert len(payload["z_grid"]) == 12


class TestFeaturesAndSmoke:
    def test_end_to_end(self, runner, tmp_path):
        rng = np.random.default_rng(1)
        for label, level in (("A", 1.0), ("B", 2.0)):
            directory = tmp_path / label
            directory.mkdir()
            for i in range(8):
                samples = np.full(25, level) + 0.01 * rng.normal(size=25)
                (directory / f"{label}{i:02d}.txt").write_text(
                    "".join(f"{float(v)!r}\n" for v in samples)
                )
        train = tmp_path / "train.csv"
        test = tmp_path / "test.csv"
        result = runner.invoke(
            cli,
            ["--quiet", "features",
             "--class", f"A={tmp_path / 'A'}", "--class", f"B={tmp_path / 'B'}",
             "--model", "m1", "--n", "0", "--m", "0", "--split", "0.75",
             "--seed", "0", "--out-train", str(train), "--out-test", str(test)],
        )
        assert result.exit_code == 0, result.output
        assert len(train.read_text().splitlines()) == 13  # header + 6 + 6
        assert len(test.read_text().splitlines()) == 5

        smoke = runner.invoke(cli, ["smoke", "--train", str(train), "--test", str(test)])
        assert smoke.exit_code == 0, smoke.output
        payload = json.loads(smoke.output)
        assert payload["accuracy"] == 1.0
        assert payload["classes"] == ["A", "B"]

    def test_bad_class_spec(self, runner):
        result = runner.invoke(cli, ["features", "--class", "nodirectory"])
        assert result.exit_code == 3
        assert "LABEL=DIR" in result.output

    def test_seed_changes_split(self, runner, tmp_path):
        rng = np.random.default_rng(2)
        for label in ("A", "B"):
            directory = tmp_path / label
            directory.mkdir()
            for i in range(8):
                samples = rng.normal(size=25)
                (directory / f"{label}{i:02d}.txt").write_text(
                    "".join(f"{float(v)!r}\n" for v in samples)
                )
        outputs = []
        for seed in ("0", "1"):
            train = tmp_path / f"train{seed}.csv"
            test = tmp_path / f"test{seed}.csv"
            result = runner.invoke(
                cli,
                ["--quiet", "features",
                 "--class", f"A={tmp_path / 'A'}", "--class", f"B={tmp_path / 'B'}",
                 "--model", "m1", "--n", "0", "--m", "0", "--seed", seed,
                 "--out-train", str(train), "--out-test", str(test)],
            )
            assert result.exit_code == 0, result.output
            outputs.append(train.read_text())
        assert outputs[0] != outputs[1]
