"""Command-line interface: output formats, exit codes, determinism."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

from hypderiv import cli
from hypderiv.catalog import IdentityEntry
from hypderiv.cli import main
from hypderiv.core import HypSpec
from hypderiv.expressions import expr, hyp, powz, term

TABLE_EXPECTED = """c,f_L,f_R1,f_R2
1,16.2802578209098,,16.2802578209098
2,3.39340187542396,,3.39340187542396
3,2.04681438609744,,2.04681438609744
4,3.31081155003091,,3.31081155003091
5,27.4105535888826,27.4105535888826,27.4105535888826
6,42.6040520193532,42.6040520193532,
7,41.6637846070299,41.6637846070299,
"""


class TestEval:
    def test_log_two(self, capsys):
        code = main(["eval", "--upper", "1,1", "--lower", "2", "--z", "0.5"])
        out = capsys.readouterr().out
        assert code == 0
        assert out.splitlines()[0] == "1.38629436111989"
        assert "convergence: inside-unit-disk" in out

    def test_sum_past_the_largest_double_exit_0(self, capsys):
        # (1-z)^1000 with a modulus past the largest double prints its value
        code = main(["eval", "--upper=-1000", "--z=-1.0336993727558301-0.0015972640806892478i"])
        out = capsys.readouterr().out
        assert code == 0
        assert out.splitlines()[0] == "1.36890601335441e+308+1.36890601335441e+308i"

    def test_singular_lower_exit_2(self, capsys):
        code = main(["eval", "--upper", "0.5", "--lower", "-1", "--z", "0.1"])
        err = capsys.readouterr().err
        assert code == 2
        assert "SingularLowerParameter" in err

    def test_at_zero(self, capsys):
        code = main(["eval", "--upper", "0.77", "--lower", "2", "--z", "0"])
        out = capsys.readouterr().out
        assert code == 0
        assert out.splitlines()[0] == "1"

    def test_divergent_exit_3(self, capsys):
        code = main(["eval", "--upper", "0.5,0.7", "--lower", "1.2", "--z", "1.5"])
        assert code == 3

    def test_overflow_fails_fast_exit_3(self, capsys):
        # the terms of 1F1(1; 2; 800) pass the largest double at term 470;
        # the sum stops there instead of running all 10000 terms
        code = main(["eval", "--upper", "1", "--lower", "2", "--z", "800"])
        err = capsys.readouterr().err
        assert code == 3
        assert err == "error: NoConvergence: series term 470 overflowed: it is not finite\n"

    def test_terminating_overflow_exit_3(self, capsys):
        # a polynomial's terms overflow too: term 266 of this degree-1000 one
        code = main(["eval", "--upper=-1000,0.37", "--lower", "1.23", "--z", "1.7"])
        err = capsys.readouterr().err
        assert code == 3
        assert err == "error: NoConvergence: series term 266 overflowed: it is not finite\n"

    def test_modulus_overflow_exit_3(self, capsys):
        # a term with finite parts whose modulus passes the largest double
        code = main([
            "eval",
            "--upper=-1.7578212868566205-0.9537896754743135i,0.1587802271860932-0.12151611070839508i",
            "--lower=2.2329338363549835-1.2644216836529585i,1.6878564804728038+1.488454469905864i",
            "--z=907.0651684233964+231.64008844188933i",
        ])
        err = capsys.readouterr().err
        assert code == 3
        assert err == "error: NoConvergence: series term 409 overflowed: absolute value too large\n"

    def test_rerun_cancelled_past_its_digits_exit_3(self, capsys):
        # e^z as 0F0: the 38-digit rerun cancels past what it resolves
        for z in ("-383", "-37.9"):
            assert main(["eval", "--upper=", "--lower=", f"--z={z}"]) == 3
            err = capsys.readouterr().err
            want = "series coefficient 0 cancelled past the 1e21 that 38 digits resolve"
            assert err == f"error: NoConvergence: {want}\n"

    def test_terminating_series_past_the_disk_is_labelled_a_polynomial(self, capsys):
        # 2F1(-3, 1/2; 1; 2.5) is a cubic: its value, and the p > q+1 label
        assert main(["eval", "--upper=-3,0.5", "--lower=1", "--z=2.5"]) == 0
        out = capsys.readouterr().out
        assert out == "-0.6015625\nterms_used: 4\nconvergence: divergent-unless-terminating\n"

    def test_complex_input(self, capsys):
        code = main(["eval", "--upper", "0.5+0.5i", "--lower", "2", "--z", "0.3"])
        assert code == 0
        out = capsys.readouterr().out
        assert "i" in out.splitlines()[0]

    def test_bad_parameter_exit_2(self, capsys):
        assert main(["eval", "--upper", "zzz", "--lower", "2", "--z", "0"]) == 2

    def test_non_finite_input_exit_2(self, capsys):
        base = {"--upper": "0.5,0.6", "--lower": "1.5", "--z": "0.9"}
        for flag in ("--upper", "--lower", "--z"):
            # the last two are integers beyond the double range: exact input
            for bad in ("inf", "nan", "-inf", "1e400", "1" + "0" * 400, "-" + "9" * 401):
                args = dict(base, **{flag: bad})
                argv = ["eval"] + [f"{k}={v}" for k, v in args.items()]
                assert main(argv) == 2, (flag, bad)
                assert "error: ValueError: non-finite" in capsys.readouterr().err

    def test_non_finite_rel_tol_exit_2(self, capsys):
        # an infinite tolerance would stop the sum after a few terms
        argv = ["eval", "--upper", "0.5,0.6", "--lower", "1.5", "--z", "0.9"]
        assert main(argv + ["--rel-tol", "inf"]) == 2
        assert main(argv + ["--rel-tol", "nan"]) == 2
        assert main(argv + ["--rel-tol", "1"]) == 2
        assert main(argv + ["--rel-tol", "10"]) == 2
        assert main(argv) == 0


class TestTable1:
    def test_full_output(self, capsys):
        assert main(["table1"]) == 0
        assert capsys.readouterr().out == TABLE_EXPECTED

    def test_row_examples(self, capsys):
        main(["table1"])
        lines = capsys.readouterr().out.splitlines()
        assert lines[1] == "1,16.2802578209098,,16.2802578209098"
        c5 = lines[5].split(",")
        assert c5[1] == c5[2] == c5[3] == "27.4105535888826"
        assert lines[6].split(",")[3] == ""  # c=6: second line inapplicable

    def test_digits_flag(self, capsys):
        main(["table1", "--digits", "6"])
        out = capsys.readouterr().out
        assert out.splitlines()[1] == "1,16.2803,,16.2803"

    def test_bad_digits_exit_2(self, capsys):
        assert main(["table1", "--digits", "-1"]) == 2
        assert main(["table1", "--digits", "0"]) == 2
        assert capsys.readouterr().out == ""

    def test_deterministic(self, capsys):
        main(["table1"])
        a = capsys.readouterr().out
        main(["table1"])
        b = capsys.readouterr().out
        assert a == b


class TestFigure1:
    def test_csv_contents(self, tmp_path, capsys):
        out = tmp_path / "fig.csv"
        code = main(["figure1", "--out", str(out)])
        capsys.readouterr()
        assert code == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "c,f_L,f_R1,f_R2,f_R1-f_R2"
        rows = {}
        for line in lines[1:]:
            parts = line.split(",")
            rows[float(parts[0])] = parts
        # crossing of the two lines at c = 5
        assert abs(float(rows[5.0][4])) < 1e-10
        # within-table spot value
        assert abs(float(rows[2.0][1]) - 3.39340187542396) < 1e-12
        # non-integer c: derivative equals the regular line
        fl, fr1 = float(rows[4.5][1]), float(rows[4.5][2])
        assert abs(fl - fr1) <= 1e-10 * abs(fl)
        # pole cells are empty
        assert rows[2.0][2] == ""
        assert rows[6.0][3] == ""

    def test_empty_range_exit_2(self, capsys):
        assert main(["figure1", "--c-min", "2", "--c-max", "1", "--out", "-"]) == 2
        assert main(["figure1", "--step", "0", "--out", "-"]) == 2

    def test_non_finite_bounds_exit_2(self, capsys):
        for flag in ("--c-min", "--c-max", "--step"):
            for bad in ("inf", "nan"):
                assert main(["figure1", flag, bad, "--out", "-"]) == 2, (flag, bad)

    def test_row_cap_and_digits_exit_2(self, capsys):
        assert main(["figure1", "--step", "1e-9", "--out", "-"]) == 2
        assert main(["figure1", "--digits", "0", "--out", "-"]) == 2
        assert capsys.readouterr().out == ""

    def test_unwritable_out_exit_2(self, tmp_path, capsys):
        code = main(["figure1", "--out", str(tmp_path / "missing" / "x.csv")])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert captured.err.startswith("error: cannot write")

    def test_rejected_sweep_writes_no_file(self, tmp_path, capsys):
        out = tmp_path / "x.csv"
        assert main(["figure1", "--step", "-1", "--out", str(out)]) == 2
        assert capsys.readouterr().err.startswith("error:")
        assert not out.exists()

    def test_directory_out_exit_2(self, tmp_path, capsys):
        assert main(["figure1", "--out", str(tmp_path)]) == 2
        assert capsys.readouterr().err.startswith("error: cannot write")

    def test_stdout_mode_deterministic(self, capsys):
        main(["figure1", "--c-min", "1", "--c-max", "2", "--step", "0.25", "--out", "-"])
        a = capsys.readouterr().out
        main(["figure1", "--c-min", "1", "--c-max", "2", "--step", "0.25", "--out", "-"])
        b = capsys.readouterr().out
        assert a == b


class TestModuleRun:
    """``python -m hypderiv.cli`` runs the command, exit code included."""

    @staticmethod
    def _run(*args):
        src = str(Path(__file__).resolve().parent.parent / "src")
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join([src] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
        return subprocess.run(
            [sys.executable, "-m", "hypderiv.cli", *args],
            env=env, capture_output=True, text=True, timeout=120,
        )

    def test_verify_runs(self):
        done = self._run("verify", "--identity", "Th1-2", "--trials", "2")
        assert done.returncode == 0, done.stderr
        assert done.stdout.splitlines()[-1] == "all passed (1 entries)"

    def test_unknown_identity_exit_2(self):
        assert self._run("verify", "--identity", "nope").returncode == 2


class TestVerify:
    def test_single_entry_pass(self, capsys):
        code = main(["verify", "--identity", "Th1-2", "--trials", "10", "--seed", "0"])
        out = capsys.readouterr().out
        assert code == 0
        assert out.startswith("Th1-2: trials=10")
        assert "PASS" in out

    def test_unknown_identity_exit_2(self, capsys):
        assert main(["verify", "--identity", "nonsense"]) == 2

    def test_byte_identical_reports(self, capsys):
        args = ["verify", "--identity", "Co1-3", "--trials", "8", "--seed", "5"]
        main(args)
        a = capsys.readouterr().out
        main(args)
        b = capsys.readouterr().out
        assert a == b

    def test_csv_report(self, tmp_path, capsys):
        out = tmp_path / "report.csv"
        code = main(
            ["verify", "--identity", "Th1-3", "--trials", "5", "--csv", str(out)]
        )
        capsys.readouterr()
        assert code == 0
        text = out.read_text()
        assert text.startswith("id,trials,seed,tol,max_rel_err,failures,passed")
        assert "Th1-3,5,0," in text

    def test_interrupted_campaign_leaves_no_csv(self, tmp_path, monkeypatch):
        def interrupted(*args, **kwargs):
            raise KeyboardInterrupt

        monkeypatch.setattr(cli, "verify_entry", interrupted)
        out = tmp_path / "report.csv"
        with pytest.raises(KeyboardInterrupt):
            main(["verify", "--identity", "Th1-3", "--csv", str(out)])
        assert not out.exists()

    def test_unwritable_csv_exit_2_before_the_campaign(self, tmp_path, monkeypatch, capsys):
        def must_not_run(*args, **kwargs):
            raise AssertionError("the campaign ran before the --csv path was checked")

        monkeypatch.setattr(cli, "verify_entry", must_not_run)
        code = main(["verify", "--csv", str(tmp_path / "missing" / "report.csv")])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert captured.err.startswith("error: cannot write")

    def test_raising_point_is_a_failure(self, monkeypatch, capsys):
        # 1F0(1;;z) = 1/(1-z) converges too slowly this close to z = 1 to
        # stop within the default term budget: NoConvergence.  A NaN or an
        # infinite side gives a NaN error, which fails too (fails closed)
        for rhs in (
            expr(term(1, hyp(HypSpec.of([1], [])))),
            expr(term(complex("nan"))),
            expr(term(complex("inf"))),
        ):
            stub = IdentityEntry(
                id="stub",
                applicable=lambda p: True,
                lhs=lambda p: expr(term(1, powz(2))),
                rhs=lambda p, rhs=rhs: rhs,
                draw=lambda rng: {"n": 1},
                z_points=(1 - 1e-7,),
            )
            monkeypatch.setattr(cli, "entry", lambda name, stub=stub: stub)
            code = main(["verify", "--identity", "stub", "--trials", "2"])
            lines = capsys.readouterr().out.splitlines()
            assert code == 1, rhs
            assert lines == [
                "stub: trials=2 max_rel_err=inf FAIL (2 cases)",
                "FAILED: 1 of 1 entries",
            ], rhs

    def test_dump_expr(self, capsys):
        code = main(
            ["verify", "--identity", "Th1-2", "--trials", "1", "--dump-expr"]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "lhs:" in out and "rhs:" in out and "pfq 2 1" in out

    def test_zero_trials_exit_2(self, capsys):
        assert main(["verify", "--identity", "Th1-2", "--trials", "0"]) == 2

    def test_degenerate_tol_exit_2(self, capsys):
        # err > nan is always false, so a nan tolerance would pass everything
        for bad in ("nan", "inf", "-1", "0", "1", "2"):
            assert main(["verify", "--identity", "Th1-2", "--trials", "1", "--tol", bad]) == 2
        assert capsys.readouterr().out == ""
