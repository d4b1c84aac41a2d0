"""Reference table and sweep: rational path, pole cells, grid hygiene."""

import math
from fractions import Fraction

import pytest

from hypderiv import catalog
from hypderiv.core import EvalControl, HypSpec, param
from hypderiv.expressions import Term, expr, hyp, nth_derivative, powz, term
from hypderiv.tables import (
    FIGURE1_MAX_ROWS,
    TABLE_A,
    TABLE_B,
    TABLE_N,
    TABLE_Z,
    figure1_rows,
    table1_csv,
    table1_values,
    table_params,
)

CTRL = EvalControl(rel_tol=1e-16)


class TestTableValues:
    def test_blank_pattern(self):
        # regular line applies for c >= 5, exceptional for c <= 5
        for c in range(1, 8):
            f_l, f_r1, f_r2 = table1_values(c)
            assert f_l is not None
            assert (f_r1 is not None) == (c >= 5)
            assert (f_r2 is not None) == (c <= 5)

    def test_triple_point(self):
        f_l, f_r1, f_r2 = table1_values(5)
        assert abs(f_r1 - f_l) <= 1e-12 * abs(f_l)
        assert abs(f_r2 - f_l) <= 1e-12 * abs(f_l)

    def test_rational_path_matches_double_oracle(self):
        # same quantity through two independent routes: exact Fractions vs
        # the double-precision jet pipeline
        for c in range(1, 8):
            f_l, _, _ = table1_values(c)
            e = expr(term(1, powz(param(c) - 1), hyp(HypSpec.of([0.5, 2 / 3], [c]))))
            oracle = nth_derivative(e, 4, 1 / 3, CTRL).real
            assert abs(oracle - f_l) <= 1e-12 * abs(f_l)

    def test_float_bits(self):
        want = {
            1: ("0x1.047bef9ff4184p+4", None, "0x1.047bef9ff4184p+4"),
            2: ("0x1.b25afe1e90c41p+1", None, "0x1.b25afe1e90c41p+1"),
            3: ("0x1.05fe0388a2aaep+1", None, "0x1.05fe0388a2aaep+1"),
            4: ("0x1.a7c8ac414d081p+1", None, "0x1.a7c8ac414d081p+1"),
            5: ("0x1.b691a0a3d818fp+4", "0x1.b691a0a3d818fp+4", "0x1.b691a0a3d818fp+4"),
            6: ("0x1.54d51939a1a35p+5", "0x1.54d51939a1a35p+5", None),
            7: ("0x1.4d4f6e4dd6406p+5", "0x1.4d4f6e4dd6406p+5", None),
        }
        for c, cells in want.items():
            got = tuple(None if x is None else x.hex() for x in table1_values(c))
            assert got == cells, c

    def test_csv_digits_configurable(self):
        lines = table1_csv(digits=8).splitlines()
        assert lines[1] == "1,16.280258,,16.280258"


class TestSweep:
    def test_rejects_empty_range(self):
        with pytest.raises(ValueError):
            figure1_rows(2.0, 1.0, 0.05)
        with pytest.raises(ValueError):
            figure1_rows(0.5, 7.5, 0.0)
        for bad in (math.inf, math.nan):
            with pytest.raises(ValueError):
                figure1_rows(0.5, bad, 0.05)
            with pytest.raises(ValueError):
                figure1_rows(0.5, 7.5, bad)
        with pytest.raises(ValueError):
            figure1_rows(0.5, 7.5, 7 / (FIGURE1_MAX_ROWS + 1))

    def test_grid_covers_endpoints(self):
        rows = figure1_rows(0.5, 7.5, 0.05)
        assert len(rows) == 141
        assert rows[0][0] == 0.5 and rows[-1][0] == 7.5

    def test_integer_poles_of_regular_line(self):
        rows = {r[0]: r for r in figure1_rows(0.5, 7.5, 0.25)}
        for c in (1.0, 2.0, 3.0, 4.0):
            assert rows[c][2] is None  # f_R1 pole
            assert rows[c][1] is not None and rows[c][3] is not None

    def test_gamma_ratio_poles_of_exceptional_line(self):
        # the continued factorials put poles at c = 5.5, 6.5, 7.5 as well as
        # at the integers >= 6
        rows = {r[0]: r for r in figure1_rows(0.5, 7.5, 0.25)}
        for c in (5.5, 6.0, 6.5, 7.0, 7.5):
            assert rows[c][3] is None
        assert rows[5.25][3] is not None

    def test_regular_line_equals_derivative_off_integers(self):
        rows = {r[0]: r for r in figure1_rows(4.25, 5.75, 0.25)}
        for c, row in rows.items():
            f_l, f_r1 = row[1], row[2]
            assert abs(f_l - f_r1) <= 1e-10 * abs(f_l)


def _check_th14_lines_exactly():
    """Each applicable Th1-4 line equals the derivative as Fractions, up to
    the 1e-34 series truncation, at the table's inputs."""
    regular, exceptional = catalog.entry("Th1-4-regular"), catalog.entry("Th1-4-exceptional")
    for c in range(1, 8):
        p = table_params(TABLE_A, TABLE_B, c)
        f_l = nth_derivative(regular.lhs(p), TABLE_N, TABLE_Z)
        lines = [e for e in (regular, exceptional) if e.applicable(p)]
        assert len(lines) == 1 + (c == 5)
        for e in lines:
            f_r = nth_derivative(e.rhs(p), 0, TABLE_Z)
            assert type(f_l) is type(f_r) is Fraction
            assert abs(f_r - f_l) <= Fraction(1, 10**30) * abs(f_l), (e.id, c)


class TestExactLines:
    def test_th14_lines_equal_the_derivative(self):
        _check_th14_lines_exactly()

    @pytest.mark.parametrize("builder", ["theorem4_regular_term", "theorem4_exceptional_term"])
    def test_a_line_off_by_1e_20_fails(self, monkeypatch, builder):
        # a relative error the 15-digit table cannot show
        table = table1_csv()
        original = getattr(catalog, builder)

        def perturbed(*args):
            t = original(*args)
            return Term(t.coeff * Fraction(10**20 + 1, 10**20), t.factors)

        monkeypatch.setattr(catalog, builder, perturbed)
        assert table1_csv() == table
        with pytest.raises(AssertionError):
            _check_th14_lines_exactly()
