"""Reference table and parameter sweep for the n=4, a=1/2, b=2/3, z=1/3 case.

``table1_csv`` reproduces the reference table for integer c = 1..7: the
derivative d^4/dz^4 [z^{c-1} 2F1(1/2,2/3;c;z)] at z=1/3 (column f_L) against
f_R1 = (c-4)_4 z^{c-5} 2F1(1/2,2/3;c-4;z) and f_R2 = 4!/(5-c)! (1/2)_{5-c}
(2/3)_{5-c}/(c)_{5-c} 2F1(..;6-c;z), blank where a line is inapplicable
(singular).  The columns and blanks are the LHS, the RHS and the
applicability of the catalog entries ``Th1-4-regular`` and
``Th1-4-exceptional``.

Every input of the table is rational, and one printed cell sits within one
double ulp of its 15-digit rounding boundary, so the entries are evaluated
at the exact parameters and the Fraction z = 1/3, where ``nth_derivative``
runs the jet algebra over exact Fractions, and rounded once at the end.
Only these two lines run exactly: ``verify`` checks the catalog in double
precision, and an exact run would need a new command-line option.  The
sweep over real c (``figure1_rows``) needs no digit-exact output and runs
in double precision.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Optional

from .catalog import entry
from .core import EvalControl, HypSpec, evaluate, param, pochhammer
from .errors import HypDerivError
from .expressions import eval_expr, expr, hyp, nth_derivative, powz, term

TABLE_N = 4
TABLE_A = Fraction(1, 2)
TABLE_B = Fraction(2, 3)
TABLE_Z = Fraction(1, 3)

_REGULAR, _EXCEPTIONAL = entry("Th1-4-regular"), entry("Th1-4-exceptional")


def table_params(a, b, c) -> dict:
    return {"a1": param(a), "a2": param(b), "c": param(c), "n": TABLE_N}


def table1_values(c: int) -> tuple[float, Optional[float], Optional[float]]:
    """(f_L, f_R1, f_R2) for integer c; None where the line is inapplicable.

    Computed as Fractions and rounded once, so correctly rounded.
    """
    p = table_params(TABLE_A, TABLE_B, c)
    f_l = float(nth_derivative(_REGULAR.lhs(p), TABLE_N, TABLE_Z))
    f_r1, f_r2 = (
        float(nth_derivative(e.rhs(p), 0, TABLE_Z)) if e.applicable(p) else None
        for e in (_REGULAR, _EXCEPTIONAL)
    )
    return f_l, f_r1, f_r2


def _fmt(x: Optional[float], digits: int) -> str:
    return "" if x is None else f"{x:.{digits}g}"


def table1_csv(digits: int = 15) -> str:
    lines = ["c,f_L,f_R1,f_R2"]
    for c in range(1, 8):
        f_l, f_r1, f_r2 = table1_values(c)
        lines.append(f"{c},{_fmt(f_l, digits)},{_fmt(f_r1, digits)},{_fmt(f_r2, digits)}")
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# sweep over real c (the two identity lines against the derivative)

_SWEEP_CTRL = EvalControl(rel_tol=1e-16)
FIGURE1_MAX_ROWS = 10_000  # the default grid has 141 rows
_A_F, _B_F, _Z_F = map(float, (TABLE_A, TABLE_B, TABLE_Z))


def _sweep_f_l(c: float) -> float:
    lhs = _REGULAR.lhs(table_params(_A_F, _B_F, c))
    return nth_derivative(lhs, TABLE_N, _Z_F, _SWEEP_CTRL).real


# f_R1 and f_R2 continue the catalog lines to real c (f_R2 by Gamma ratios);
# at float integer c <= 4 the sweep reports the pole of f_R1's series.


def _sweep_f_r1(c: float) -> float:
    n = TABLE_N
    e = expr(term(1, powz(param(c - n) - 1), hyp(HypSpec.of([_A_F, _B_F], [c - n]))))
    v = eval_expr(e, _Z_F, _SWEEP_CTRL).real
    return pochhammer(c - n, n).real * v


def _poch_gamma(x: float, s: float) -> float:
    return math.gamma(x + s) / math.gamma(x)


def _sweep_f_r2(c: float) -> float:
    n = TABLE_N
    s = n - c + 1
    pref = (
        math.factorial(n)
        / math.gamma(n - c + 2)
        * _poch_gamma(_A_F, s)
        * _poch_gamma(_B_F, s)
        / _poch_gamma(c, s)
    )
    f = evaluate(
        HypSpec.of([_A_F + s, _B_F + s], [n - c + 2]), _Z_F, _SWEEP_CTRL
    ).value.real
    return pref * f


def figure1_rows(
    c_min: float = 0.5, c_max: float = 7.5, step: float = 0.05
) -> list[tuple[float, Optional[float], Optional[float], Optional[float], Optional[float]]]:
    """Sweep (c, f_L, f_R1, f_R2, f_R1 - f_R2); pole cells are None.

    c runs on a snapped grid so that intended integer stops land exactly on
    the poles (which report empty rather than overflowing values).
    """
    if not all(math.isfinite(x) for x in (c_min, c_max, step)):
        raise ValueError("sweep bounds and step must be finite")
    if step <= 0 or c_max < c_min:
        raise ValueError("empty sweep range")
    count = int(math.floor((c_max - c_min) / step + 1e-9)) + 1
    if count > FIGURE1_MAX_ROWS:
        raise ValueError(f"sweep has {count} rows, more than {FIGURE1_MAX_ROWS}")
    rows = []
    for i in range(count):
        c = round(c_min + i * step, 12)
        cells: list[Optional[float]] = []
        for f in (_sweep_f_l, _sweep_f_r1, _sweep_f_r2):
            try:
                cells.append(f(c))
            except (HypDerivError, ValueError, ZeroDivisionError, OverflowError):
                cells.append(None)
        diff = None
        if cells[1] is not None and cells[2] is not None:
            diff = cells[1] - cells[2]
        rows.append((c, cells[0], cells[1], cells[2], diff))
    return rows


def figure1_csv(c_min: float = 0.5, c_max: float = 7.5, step: float = 0.05, digits: int = 15) -> str:
    lines = ["c,f_L,f_R1,f_R2,f_R1-f_R2"]
    for c, f_l, f_r1, f_r2, diff in figure1_rows(c_min, c_max, step):
        lines.append(
            f"{c:.10g},{_fmt(f_l, digits)},{_fmt(f_r1, digits)},"
            f"{_fmt(f_r2, digits)},{_fmt(diff, digits)}"
        )
    return "\n".join(lines) + "\n"
