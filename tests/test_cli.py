"""CLI tests: argument handling, output formats, presets, env overrides and
exit codes."""

import csv
import dataclasses
import io
import json
import math
import os
import re
import subprocess
import sys

import numpy as np
import pytest

from fracrelax import cli, solver
from fracrelax.problems import make_exp_problem, make_power_problem
from fracrelax.solver import convergence_sweep, solve
from fracrelax.tables import TABLE_IDS
from test_problems import make_case, residual_converges


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

    def test_orders_on_steps_that_do_not_halve(self, capsys):
        code, out, _ = run_cli(capsys, "sweep", "--p", "4", "--alpha", "0.5", "--scheme", "A1",
                               "--h-list", "0.02,0.015,0.01,0.0075,0.005", "--format", "json")
        assert code == 0
        orders = [row["order"] for row in json.loads(out)["rows"]]
        assert len(orders) == 5
        assert all(abs(order - 1.5) <= 0.05 for order in orders), orders

    def test_bad_h_list(self, capsys):
        argv = ["sweep", "--h-list", "0.025,0.05"]
        with pytest.raises(ValueError):
            cli.main(argv)
        assert cli.console_main(argv) == 2
        assert capsys.readouterr().err.startswith("fracrelax: error: ")

    @pytest.mark.filterwarnings("error")
    def test_overflowing_exp_problem_exits_2(self, capsys):
        assert cli.console_main(["sweep", "--problem", "exp", "--X", "1000"]) == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1
        assert err.startswith("fracrelax: error: exp problem requires X <= 708.78")

    @pytest.mark.filterwarnings("error")
    def test_vanishing_ml_forcing_exits_2(self, capsys):
        # the default alpha = 0.5 gives Gamma(1 + 2 alpha) = 1, so F = 0
        assert cli.console_main(["sweep", "--problem", "ml"]) == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1
        assert err.startswith("fracrelax: error: ml problem's forcing is 0")

    @pytest.mark.filterwarnings("error")
    def test_overflowing_solve_exits_2(self, capsys):
        # n = 28000: the scheme's sums for e^700 pass the largest double
        argv = ["sweep", "--problem", "exp", "--X", "700", "--h-list", "0.025"]
        assert cli.console_main(argv) == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1
        assert err.startswith("fracrelax: error: scheme solution overflows a double")

    @pytest.mark.filterwarnings("error")
    def test_exp_problem_at_X_600_solves(self, capsys):
        argv = ["sweep", "--problem", "exp", "--X", "600", "--h-list", "0.025"]
        assert cli.console_main(argv) == 0
        assert capsys.readouterr().err == ""

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("argv", [
        ("sweep", "--p", "400", "--X", "10"),
        ("sweep", "--X", "1e200", "--h-list", "1e195"),
        ("curve", "--p", "400", "--X", "10"),
        ("sweep", "--problem", "ml", "--m", "200", "--alpha", "1.9"),
        # x^p underflows to 0 on every node, and so does every error
        ("sweep", "--p", "1e20", "--X", "0.5"),
        ("sweep", "--problem", "exp", "--m", "12", "--X", "1e-300", "--h-list", "1e-301"),
        # as at p = 1e20; lgamma(p + 1) overflowed here before the Stirling form
        ("sweep", "--p", "3e305", "--X", "0.5"),
    ], ids=" ".join)
    def test_problem_past_the_double_range_exits_2(self, capsys, argv):
        assert cli.console_main(list(argv)) == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1
        assert err.startswith("fracrelax: error: ")

    @pytest.mark.parametrize("argv", [
        # y ~ x^(3 alpha) is barely smooth at 0
        ("--problem", "ml", "--alpha", "0.1", "--m", "2"),
        # y ~ x^0.5 on [0, 8]
        ("--problem", "power", "--p", "0.5", "--alpha", "0.85", "--X", "8"),
        # y is about e^50
        ("--problem", "exp", "--m", "0", "--X", "50"),
    ])
    def test_barely_smooth_or_large_problem_solves(self, capsys, argv):
        assert cli.console_main(["sweep", *argv]) == 0
        assert capsys.readouterr().err == ""

    def test_huge_p_sweeps_with_a_negligible_coefficient(self, capsys):
        # p + 1 and p + alpha + 1 round to the same double; the forcing's
        # coefficient Gamma(p+1)/Gamma(p+alpha+1) is about p^-alpha = 1e-150,
        # which vanishes next to x^p on every node.  So the errors equal those
        # of the forcing x^p alone: this separates a negligible coefficient
        # from the former 1.0, and test_specfun pins its value.
        p, alpha = 1e300, 0.5
        code, out, err = run_cli(capsys, "sweep", "--p", "1e300", "--X", "1", "--format", "json")
        assert (code, err) == (0, "")
        problem = dataclasses.replace(make_power_problem(p, alpha), forcing=lambda x: x**p)
        hs = [0.025, 0.0125, 0.00625, 0.003125]
        want = convergence_sweep(problem, "A1", hs, label=problem.label, alpha=alpha)
        assert [row["max_error"] for row in json.loads(out)["rows"]] == \
            [row.max_error for row in want.rows]

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

    def test_abbreviated_flag_beats_preset(self, capsys, tmp_path):
        preset = tmp_path / "sweep.preset"
        preset.write_text("alpha=0.25\nh_list=0.05,0.025\n")
        code, out, _ = run_cli(capsys, "sweep", "--preset", str(preset), "--alph", "0.75")
        assert code == 0
        assert "alpha=0.75" in out

    def test_keys_the_command_lacks_are_ignored(self, capsys, tmp_path):
        preset = tmp_path / "both.preset"
        preset.write_text("problem=exp\nh=0.1\nh_list=0.05,0.025\nscheme=A2\n")
        code, out, _ = run_cli(capsys, "sweep", "--preset", str(preset))
        assert code == 0
        assert "label=exp[m=2]" in out and "scheme=A2" in out
        code, out, _ = run_cli(capsys, "curve", "--preset", str(preset))
        assert code == 0
        assert out.splitlines()[0] == "x,exact,u_A2"
        assert len(out.splitlines()) == 1 + 11

    @pytest.mark.parametrize("line", ["scheme=A9", "command=curve", "format=xml"])
    def test_preset_value_is_parsed_as_a_flag(self, capsys, tmp_path, monkeypatch, line):
        def unreachable(args):
            raise AssertionError("problem built from an invalid preset")

        monkeypatch.setattr(cli, "_make_problem", unreachable)
        preset = tmp_path / "bad.preset"
        preset.write_text(line + "\n")
        with pytest.raises(SystemExit) as exc:
            run_cli(capsys, "sweep", "--preset", str(preset))
        assert exc.value.code == 2
        assert "Traceback" not in capsys.readouterr().err

    def test_missing_preset_exits_2(self, capsys, tmp_path):
        argv = ["sweep", "--preset", str(tmp_path / "missing.preset")]
        with pytest.raises(FileNotFoundError):
            cli.main(argv)
        assert cli.console_main(argv) == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1
        assert err.startswith("fracrelax: error: ")

    def test_out_path_under_a_file_exits_2(self, capsys, tmp_path):
        (tmp_path / "file").write_text("")
        argv = ["sweep", "--h-list", "0.05", "--out", str(tmp_path / "file" / "report.csv")]
        assert cli.console_main(argv) == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1
        assert err.startswith("fracrelax: error: ")

    def test_malformed_preset(self, capsys, tmp_path):
        preset = tmp_path / "bad.preset"
        preset.write_text("alpha 0.25\n")
        argv = ["sweep", "--preset", str(preset)]
        with pytest.raises(ValueError):
            cli.main(argv)
        assert cli.console_main(argv) == 2


class TestParser:
    """main parses with one parser per process, which no call changes."""

    H = ("--h-list", "0.05,0.025")

    def test_flag_does_not_outlive_its_call(self, capsys):
        code, out, _ = run_cli(capsys, "sweep", "--alpha", "0.3", *self.H)
        assert code == 0 and "alpha=0.3" in out
        code, out, _ = run_cli(capsys, "sweep", *self.H)
        assert code == 0 and "alpha=0.5" in out

    def test_preset_does_not_outlive_its_call(self, capsys, tmp_path):
        preset = tmp_path / "exp.preset"
        preset.write_text("problem=exp\nm=1\nalpha=0.25\nscheme=A2\n")
        code, out, _ = run_cli(capsys, "sweep", "--preset", str(preset), *self.H)
        assert code == 0 and "label=exp[m=1]" in out and "alpha=0.25" in out
        code, out, _ = run_cli(capsys, "sweep", *self.H)
        assert code == 0
        assert "label=power[p=4]" in out and "alpha=0.5" in out and "scheme=A1" in out

    def test_one_parser_for_main_and_a_fresh_one_from_build_parser(self):
        assert cli._main_parser() is cli._main_parser()
        assert cli.build_parser() is not cli.build_parser()

    def test_import_builds_no_parser(self):
        code = ("import fracrelax.cli as cli; "
                "assert cli._main_parser.cache_info().currsize == 0")
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)}
        subprocess.run([sys.executable, "-c", code], env=env, check=True)

    def test_a_run_leaves_numpy_ma_unimported(self, tmp_path):
        # np.unique imports numpy.ma on first use, about 10 ms of every process
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)}
        probe = "import sys, numpy; print('numpy.ma' in sys.modules)"
        bare = subprocess.run([sys.executable, "-c", probe], env=env, check=True,
                              capture_output=True, text=True)
        if bare.stdout.strip() == "True":
            pytest.skip("import numpy alone loads numpy.ma")
        out = tmp_path / "out.txt"
        runs = [["table", "4"], ["sweep", "--problem", "ml", "--alpha", "0.7"], ["curve"]]
        code = ("import sys; from fracrelax import cli\n"
                f"for argv in {runs!r}:\n"
                f"    assert cli.main([*argv, '--out', {str(out)!r}]) == 0\n"
                "print('numpy.ma' in sys.modules)")
        run = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                             capture_output=True, text=True)
        assert run.stdout.strip() == "False"

    def test_import_runs_only_the_package(self):
        # fractions, decimal and json serve only Bernoulli numbers and JSON
        # output, and a dataclass compiles its methods on every import
        code = ("import sys, numpy\n"
                "before = set(sys.modules)\n"
                "import fracrelax, fracrelax.cli\n"
                "print(sorted({'fractions', 'decimal', 'json'} & (set(sys.modules) - before)))\n"
                "import dataclasses\n"
                "print(sorted(f'{c.__module__}.{c.__name__}'\n"
                "             for name, mod in sys.modules.items() if name.startswith('fracrelax')\n"
                "             for c in vars(mod).values() if isinstance(c, type)\n"
                "             and c.__module__ == name and dataclasses.is_dataclass(c)))")
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)}
        run = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                             capture_output=True, text=True)
        assert run.stdout.splitlines() == ["[]", "['fracrelax.problems.BenchmarkProblem']"]

    @pytest.mark.parametrize("argv,line", [
        (("sweep", "--alpha", "3"), "fracrelax sweep: error: --alpha must lie in (0,1) or (1,2)"),
        (("table",), "fracrelax table: error: the following arguments are required: ID"),
        (("table", "1", "--format", "xml"),
         "fracrelax table: error: argument --format: invalid choice: 'xml'"),
        ((), "fracrelax: error: the following arguments are required: command"),
    ], ids=lambda v: " ".join(v) if isinstance(v, tuple) else "")
    def test_argument_errors_are_one_line(self, capsys, argv, line):
        with pytest.raises(SystemExit) as exc:
            cli.console_main(list(argv))
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1
        assert err.startswith(line)

    @pytest.mark.parametrize("argv", [("sweep", "--bogus"), ("table", "1", "--bogus")],
                             ids=" ".join)
    def test_unknown_flag_names_its_command(self, capsys, argv):
        with pytest.raises(SystemExit) as exc:
            cli.console_main(list(argv))
        assert exc.value.code == 2
        assert capsys.readouterr().err == (f"fracrelax {argv[0]}: error: "
                                           f"unrecognized arguments: --bogus\n")


def forbid_tabulation(monkeypatch):
    """Make a sweep's or a curve's tabulation of the problem fail the test."""
    def unreachable(problems, ns):
        raise AssertionError("problem tabulated before its input was checked")

    monkeypatch.setattr(solver, "tabulate", unreachable)
    monkeypatch.setattr(cli, "tabulate", unreachable)


class TestRejectedStepsAndSizes:
    """A step or size the runs cannot use exits 2 with one error line before
    any problem is built, and one the problem or the solver refuses before
    it is tabulated."""

    @pytest.mark.parametrize("argv", [
        ("curve", "--h", "0"),
        ("curve", "--h", "nan"),
        ("sweep", "--h-list", "0,-1"),
        ("sweep", "--X", "inf"),
        ("sweep", "--p", "inf"),
        ("sweep", "--h-list", "0.1,0.1"),
        ("sweep", "--h-list", "1e-9"),
    ], ids=" ".join)
    def test_exits_2_with_one_line(self, capsys, monkeypatch, argv):
        def unreachable(args):
            raise AssertionError("problem built before its input was checked")

        if argv == ("sweep", "--p", "inf"):
            # the power problem's own refusal
            forbid_tabulation(monkeypatch)
        else:
            monkeypatch.setattr(cli, "_make_problem", unreachable)
        assert cli.console_main(list(argv)) == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1
        assert err.startswith("fracrelax: error: ")

    def test_step_limit(self):
        cli._check_step(1.0 / cli.MAX_STEPS, 1.0)
        with pytest.raises(ValueError, match="more than 1048576"):
            cli._check_step(1.0 / cli.MAX_STEPS, 1.0 + 1e-9)

    @pytest.mark.parametrize("case", [
        (("curve", "--X", "1", "--h", "0.7"),
         "step 0.7 is too coarse for [0, 1]: it takes 1 step, and scheme A needs at least 2"),
        (("curve", "--h", "0.4", "--scheme", "A1,A4"),
         "step 0.4 is too coarse for [0, 1]: it takes 2 steps, and scheme A4 needs at least 4"),
        (("sweep", "--h-list", "0.5,0.25"),
         "step 0.5 is too coarse for [0, 1]: a sweep's first run, at 2h = 1, takes 1 step, "
         "and scheme A1 needs at least 2"),
        (("sweep", "--h-list", "0.3,0.2", "--scheme", "A3"),
         "step 0.3 is too coarse for [0, 1]: a sweep's first run, at 2h = 0.6, takes 2 steps, "
         "and scheme A3 needs at least 3"),
    ], ids=lambda case: " ".join(case[0]))
    def test_too_coarse_step_exits_2_with_one_line(self, capsys, monkeypatch, case):
        argv, message = case
        forbid_tabulation(monkeypatch)
        assert cli.console_main(list(argv)) == 2
        assert capsys.readouterr().err == f"fracrelax: error: {message}\n"

    @pytest.mark.parametrize("argv", [
        ("curve", "--X", "1", "--h", "0.5"),
        ("sweep", "--h-list", "0.25,0.125", "--scheme", "A2"),
        ("sweep", "--h-list", "0.5,0.25", "--scheme", "A4", "--X", "4"),
    ], ids=" ".join)
    def test_coarsest_step_a_scheme_takes_runs(self, capsys, argv):
        code, out, err = run_cli(capsys, *argv)
        assert code == 0 and err == ""


class TestResidualCheck:
    """The (forcing, exact) pairs that a wrong factory formula would give fail
    residual_converges, the property that checks every factory over the
    domain `sweep` accepts (test_problems), while the valid pairs pass it."""

    @pytest.mark.parametrize("case,perturb", [
        (("ml", 2, 0.1, 1.0), "scale"),
        (("ml", 2, 0.1, 1.0), "shift"),
        (("power", 0.5, 0.85, 8.0), "scale"),
        (("power", 0.5, 0.85, 8.0), "shift"),
        (("exp", 0, 0.5, 50.0), "scale"),
        (("exp", 2, 0.5, 1.0), "shift"),
        # |F| reaches 1.6e10, where the valid pair's rounding error is 6e-4
        (("ml", 2, 1.94, 100.0), "scale"),
    ], ids=lambda v: v if isinstance(v, str) else f"{make_case(*v)[0].label}-X{v[3]:g}")
    def test_perturbed_pair_is_rejected(self, case, perturb):
        problem, nu, cancelled = make_case(*case)
        forcing = problem.forcing
        if perturb == "scale":
            wrong = dataclasses.replace(problem, forcing=lambda x: forcing(x) * (1.0 + 1e-4))
        else:
            wrong = dataclasses.replace(
                problem, forcing=lambda x: forcing(x) + 1e-5 * np.asarray(x))
        assert not residual_converges(wrong, nu, cancelled)
        assert residual_converges(problem, nu, cancelled)


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

    @pytest.mark.parametrize("argv", [("11",), ("0",), ("2", "x"), ("all", "1.0")], ids=" ".join)
    def test_unknown_id_exits_2_with_one_line(self, capsys, argv):
        with pytest.raises(SystemExit) as exc:
            cli.console_main(["table", *argv])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1
        assert err.startswith(f"fracrelax table: error: no table '{argv[-1]}'")

    @pytest.mark.parametrize("fmt", ["csv", "md", "json"])
    def test_all_is_the_ten_single_runs(self, capsys, fmt):
        def strip(text):
            return [l for l in text.splitlines() if "timestamp" not in l]

        singles = []
        for table_id in TABLE_IDS:
            code, out, err = run_cli(capsys, "table", str(table_id), "--format", fmt)
            assert code == 0 and err == ""
            singles += strip(out)
        code, out, err = run_cli(capsys, "table", "all", "--format", fmt)
        assert code == 0 and err == ""
        assert strip(out) == singles

    def test_ids_run_in_order_into_one_out_file(self, capsys, monkeypatch, tmp_path):
        calls, check_table = [], cli.check_table
        monkeypatch.setattr(cli, "check_table", lambda tid: calls.append(tid) or check_table(tid))
        out = tmp_path / "tables.md"
        code, stdout, err = run_cli(capsys, "table", "9", "2", "5", "--out", str(out))
        assert (code, stdout, err) == (0, "", "")
        assert calls == [9, 2, 5]
        labels = [l.split(":")[0] for l in out.read_text().splitlines() if l.startswith("**")]
        assert labels == [f"**Table {t}" for t in (9, 2, 5) for _ in range(3)]

    def test_one_failing_table_fails_the_run(self, capsys, monkeypatch):
        monkeypatch.setattr(
            cli, "check_table", lambda tid: ([], ["synthetic failure"] if tid == 5 else []))
        code, _, err = run_cli(capsys, "table", "4", "5", "6")
        assert code == 1
        assert err == "table 5: TOLERANCE FAILURE: synthetic failure\n"


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

    def test_mittag_leffler_past_the_series_exits_0(self, capsys):
        # E_{0.45,1}(-x^0.45) on [0, 100]: the series cannot resolve it past
        # x = 15.3, and the contour takes those points
        argv = ["curve", "--problem", "ml", "--alpha", "0.45", "--X", "100"]
        assert cli.console_main(argv) == 0
        out, err = capsys.readouterr()
        assert err == ""
        assert len(out.splitlines()) == 2002  # header + 2001 nodes at h = 0.05

    @pytest.mark.parametrize("command", ["sweep", "curve"])
    @pytest.mark.parametrize("alpha", ["0.1", "0.45", "0.7", "1.25", "1.5", "1.94"])
    def test_ml_problem_up_to_x_100(self, capsys, command, alpha):
        argv = [command, "--problem", "ml", "--alpha", alpha, "--X", "100"]
        assert cli.console_main(argv) == 0
        assert capsys.readouterr().err == ""

    def test_two_schemes_evaluate_forcing_once(self):
        problem = make_exp_problem(2, 0.6, X=2.0)
        calls = []

        def forcing(x):
            calls.append(np.size(x))
            return problem.forcing(x)

        text = cli.emit_solution_curve(dataclasses.replace(problem, forcing=forcing),
                                       ["A", "A4"], 0.1)
        assert calls == [21]
        lines = [line.split(",") for line in text.splitlines()[1:]]
        for col, tag in ((2, "A"), (3, "A4")):
            u = solve(problem, tag, 20).values
            assert [line[col] for line in lines] == [f"{v:.10e}" for v in u]

    @pytest.mark.parametrize("fmt", ["json", "md"])
    def test_format_is_not_a_curve_option(self, capsys, fmt):
        with pytest.raises(SystemExit) as exc:
            run_cli(capsys, "curve", "--format", fmt)
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1
        assert err.startswith("fracrelax curve: error: ")

    def test_preset_format_is_ignored(self, capsys, tmp_path):
        preset = tmp_path / "json.preset"
        preset.write_text("format=json\n")
        code, out, _ = run_cli(capsys, "curve", "--preset", str(preset))
        assert code == 0
        assert out.splitlines()[0] == "x,exact,u_A,u_A1"

    @pytest.mark.parametrize("schemes,h,message", [
        (["A"], 0.0, "steps must be finite and positive, got 0"),
        (["A"], math.nan, "steps must be finite and positive, got nan"),
        (["A"], -0.1, "steps must be finite and positive, got -0.1"),
        (["A"], 0.7, "step 0.7 is too coarse for [0, 1]: it takes 1 step, "
                     "and scheme A needs at least 2"),
        (["A1", "A4", "A3"], 0.4, "step 0.4 is too coarse for [0, 1]: it takes 2 steps, "
                                  "and scheme A4 needs at least 4"),
        (["A", "A9"], 0.1, "order_tag must be one of ('A', 'A1', 'A2', 'A3', 'A4')"),
    ])
    def test_library_refuses_before_anything_is_evaluated(self, schemes, h, message):
        def unreachable(x):
            raise AssertionError("evaluated before the step and the schemes were checked")

        problem = dataclasses.replace(make_power_problem(4, 0.5), forcing=unreachable,
                                      exact=unreachable)
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            cli.emit_solution_curve(problem, schemes, h)

    def test_no_scheme_gives_the_exact_solution_alone(self):
        lines = cli.emit_solution_curve(make_power_problem(4, 0.5), [], 0.5).splitlines()
        assert [len(line.split(",")) for line in lines[1:]] == [2, 2, 2]

    def test_unknown_scheme_rejected(self, capsys):
        with pytest.raises(SystemExit):
            run_cli(capsys, "curve", "--scheme", "A,A9")

    def test_empty_scheme_list_rejected(self, capsys):
        with pytest.raises(SystemExit) as exc:
            run_cli(capsys, "curve", "--scheme", ",")
        assert exc.value.code == 2
        assert "unknown scheme tag ''" in capsys.readouterr().err
