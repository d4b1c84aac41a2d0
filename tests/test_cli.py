"""Command-line interface: output formats, exit codes, determinism."""

from hypderiv.cli import main

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
            for bad in ("inf", "nan", "-inf", "1e400"):
                args = dict(base, **{flag: bad})
                argv = ["eval"] + [f"{k}={v}" for k, v in args.items()]
                assert main(argv) == 2, (flag, bad)
        assert "non-finite" in capsys.readouterr().err

    def test_non_finite_rel_tol_exit_2(self, capsys):
        # an infinite tolerance would stop the sum after a few terms
        argv = ["eval", "--upper", "0.5,0.6", "--lower", "1.5", "--z", "0.9"]
        assert main(argv + ["--rel-tol", "inf"]) == 2
        assert main(argv + ["--rel-tol", "nan"]) == 2
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

    def test_stdout_mode_deterministic(self, capsys):
        main(["figure1", "--c-min", "1", "--c-max", "2", "--step", "0.25", "--out", "-"])
        a = capsys.readouterr().out
        main(["figure1", "--c-min", "1", "--c-max", "2", "--step", "0.25", "--out", "-"])
        b = capsys.readouterr().out
        assert a == b


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
        for bad in ("nan", "inf", "-1", "0"):
            assert main(["verify", "--identity", "Th1-2", "--trials", "1", "--tol", bad]) == 2
        assert capsys.readouterr().out == ""
