"""CLI tests: argument handling, output formats, presets, env overrides and
exit codes."""

import csv
import io
import json
import math

import pytest

from fracrelax import cli


def run_cli(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestSweep:
    def test_csv_output(self, capsys):
        code, out, _ = run_cli(
            capsys, "sweep", "--problem", "power", "--p", "4", "--alpha", "0.5",
            "--scheme", "A1", "--h-list", "0.05,0.025",
        )
        assert code == 0
        body = [l for l in out.splitlines() if not l.startswith("#")]
        rows = list(csv.DictReader(io.StringIO("\n".join(body))))
        assert len(rows) == 2
        order = float(rows[1]["order"])
        assert order == pytest.approx(1.5, abs=0.1)

    def test_json_output(self, capsys):
        code, out, _ = run_cli(
            capsys, "sweep", "--problem", "ml", "--m", "2", "--alpha", "0.75",
            "--scheme", "A1", "--h-list", "0.05,0.025", "--format", "json",
        )
        assert code == 0
        obj = json.loads(out)
        assert obj["scheme"] == "A1"
        assert len(obj["rows"]) == 2

    def test_deterministic(self, capsys):
        args = ("sweep", "--alpha", "0.5", "--scheme", "A2", "--h-list", "0.05,0.025")
        _, out1, _ = run_cli(capsys, *args)
        _, out2, _ = run_cli(capsys, *args)
        strip = lambda t: [l for l in t.splitlines() if not l.startswith("# timestamp")]
        assert strip(out1) == strip(out2)

    def test_bad_h_list(self, capsys):
        argv = ["sweep", "--h-list", "0.025,0.05"]
        with pytest.raises(ValueError):
            cli.main(argv)
        assert cli.console_main(argv) == 2
        assert capsys.readouterr().err.startswith("fracrelax: error: ")

    def test_large_p_power_problem(self, capsys):
        # Gamma(p+1) alone overflows past p = 170.6; the problem must still solve.
        assert cli.console_main(["sweep", "--p", "200"]) == 0
        body = [l for l in capsys.readouterr().out.splitlines() if not l.startswith("#")]
        rows = list(csv.DictReader(io.StringIO("\n".join(body))))
        assert len(rows) == 4
        assert all(math.isfinite(float(r["max_error"])) for r in rows)

    def test_out_file_and_env_dir(self, capsys, tmp_path, monkeypatch):
        monkeypatch.setenv("FRACRELAX_OUT_DIR", str(tmp_path))
        code, out, _ = run_cli(
            capsys, "sweep", "--h-list", "0.05,0.025", "--out", "sub/report.csv"
        )
        assert code == 0
        assert out == ""
        text = (tmp_path / "sub" / "report.csv").read_text()
        assert "h,max_error,order" in text

    def test_preset_file(self, capsys, tmp_path):
        preset = tmp_path / "sweep.preset"
        preset.write_text("# demo preset\nproblem=exp\nm=1\nalpha=0.5\nh_list=0.05,0.025\n")
        code, out, _ = run_cli(capsys, "sweep", "--preset", str(preset), "--scheme", "A1")
        assert code == 0
        assert "label=exp[m=1]" in out

    def test_explicit_flag_beats_preset(self, capsys, tmp_path):
        preset = tmp_path / "sweep.preset"
        preset.write_text("alpha=0.25\nh_list=0.05,0.025\n")
        code, out, _ = run_cli(capsys, "sweep", "--preset", str(preset), "--alpha", "0.75")
        assert code == 0
        assert "alpha=0.75" in out

    @pytest.mark.parametrize("flags", [("--alpha", "1.0"), ("--alpha", "2.5"), ("--X", "-1")])
    def test_out_of_range_input_exits_2(self, capsys, flags):
        with pytest.raises(SystemExit) as exc:
            run_cli(capsys, "sweep", *flags)
        assert exc.value.code == 2
        assert "error: " + flags[0] in capsys.readouterr().err

    def test_preset_value_is_range_checked(self, capsys, tmp_path):
        preset = tmp_path / "sweep.preset"
        preset.write_text("alpha=1.0\n")
        with pytest.raises(SystemExit) as exc:
            run_cli(capsys, "sweep", "--preset", str(preset))
        assert exc.value.code == 2

    def test_malformed_preset(self, capsys, tmp_path):
        preset = tmp_path / "bad.preset"
        preset.write_text("alpha 0.25\n")
        argv = ["sweep", "--preset", str(preset)]
        with pytest.raises(ValueError):
            cli.main(argv)
        assert cli.console_main(argv) == 2


class TestTable:
    def test_table1_passes(self, capsys):
        code, out, err = run_cli(capsys, "table", "1")
        assert code == 0
        assert "TOLERANCE FAILURE" not in err
        assert out.count("| h |") == 2

    def test_table_failure_exit_code(self, capsys, monkeypatch):
        monkeypatch.setattr(
            cli, "check_table", lambda tid: ([], ["synthetic failure"])
        )
        code, _, err = run_cli(capsys, "table", "6")
        assert code == 1
        assert "synthetic failure" in err

    def test_invalid_id_rejected(self, capsys):
        with pytest.raises(SystemExit):
            run_cli(capsys, "table", "11")


class TestCurve:
    def test_figure1_parameters(self, capsys):
        code, out, _ = run_cli(
            capsys, "curve", "--alpha", "0.5", "--h", "0.05", "--scheme", "A,A1"
        )
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "x,exact,u_A,u_A1"
        assert len(lines) == 22  # header + 21 nodes on [0, 1] at h = 0.05
        last = lines[-1].split(",")
        assert float(last[0]) == pytest.approx(1.0)
        assert float(last[1]) == pytest.approx(1.0)  # exact y = x^4 at x = 1

    def test_figure2_parameters(self, capsys):
        code, out, _ = run_cli(
            capsys, "curve", "--alpha", "1.05", "--h", "0.1", "--scheme", "A,A1"
        )
        assert code == 0
        last = out.strip().splitlines()[-1].split(",")
        # both schemes land near the exact value at x = 1
        assert float(last[2]) == pytest.approx(1.0, abs=0.05)
        assert float(last[3]) == pytest.approx(1.0, abs=0.01)

    def test_unresolvable_mittag_leffler_exits_2(self, capsys):
        # E_{1/2,1}(-x^(1/2)) on [0, 100]: the series cannot resolve it
        assert cli.console_main(["curve", "--problem", "ml", "--X", "100"]) == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1
        assert err.startswith("fracrelax: error: mittag_leffler series")

    def test_unknown_scheme_rejected(self, capsys):
        with pytest.raises(SystemExit):
            run_cli(capsys, "curve", "--scheme", "A,A9")
