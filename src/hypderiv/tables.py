"""Reference table and parameter sweep for the n=4, a=1/2, b=2/3, z=1/3 case.

``table1_csv`` reproduces the reference table: the derivative
d^4/dz^4 [z^{c-1} 2F1(1/2,2/3;c;z)] at z=1/3 (column f_L, via the jet
oracle) against the regular-line value f_R1 = (c-4)_4 z^{c-5}
2F1(1/2,2/3;c-4;z) and the exceptional-line value
f_R2 = 4!/(5-c)! (1/2)_{5-c}(2/3)_{5-c}/(c)_{5-c} 2F1(..;6-c;z) for
integer c = 1..7, with blanks where a line is inapplicable (singular).

Every input of the table is rational, and one printed cell sits within one
double ulp of its 15-digit rounding boundary, so the table path runs the jet
arithmetic over exact Fractions and converts once at the end; the float
results are correctly rounded.  The sweep over real c (``figure1_rows``)
needs no digit-exact output and uses the double-precision machinery, with
the exceptional-line factorials continued through the Gamma-function ratio.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Optional

from .catalog import entry
from .core import EvalControl, HypSpec, evaluate, param
from .errors import HypDerivError
from .expressions import eval_expr, expr, hyp, nth_derivative, powz, term

TABLE_N = 4
TABLE_A = Fraction(1, 2)
TABLE_B = Fraction(2, 3)
TABLE_Z = Fraction(1, 3)

# stop once a term falls this far (relatively) below the running sum; the
# discarded tail is then orders of magnitude below half an ulp of a double
_RAT_TOL = Fraction(1, 10**34)
_RAT_MAX_TERMS = 500


def _rat_series_scalar(upper: list[Fraction], lower: list[Fraction], z: Fraction) -> Fraction:
    """Sum of the series with positive rational parameters, exactly."""
    total = Fraction(0)
    t = Fraction(1)
    for k in range(_RAT_MAX_TERMS):
        total += t
        num = Fraction(1)
        for a in upper:
            num *= a + k
        den = Fraction(k + 1)
        for b in lower:
            den *= b + k
        t *= num / den * z
        if t < _RAT_TOL * total:
            break
    return total


def _rat_conv(a: list[Fraction], b: list[Fraction]) -> list[Fraction]:
    n = len(a)
    return [sum((a[j] * b[i - j] for j in range(i + 1)), Fraction(0)) for i in range(n)]


def _rat_series_jet(
    upper: list[Fraction], lower: list[Fraction], z: Fraction, order: int
) -> list[Fraction]:
    """Jet coefficients of the series at base point z, exactly."""
    width = order + 1
    var = [z, Fraction(1)] + [Fraction(0)] * (width - 2)
    pw = [Fraction(1)] + [Fraction(0)] * (width - 1)
    sums = [Fraction(0)] * width
    c = Fraction(1)
    for k in range(_RAT_MAX_TERMS):
        tmax = Fraction(0)
        smax = Fraction(0)
        for i in range(width):
            t = c * pw[i]
            sums[i] += t
            tmax = max(tmax, abs(t))
            smax = max(smax, abs(sums[i]))
        if tmax < _RAT_TOL * smax:
            break
        num = Fraction(1)
        for a in upper:
            num *= a + k
        den = Fraction(k + 1)
        for b in lower:
            den *= b + k
        c *= num / den
        pw = _rat_conv(pw, var)
    return sums


def _table_f_l(c: int) -> Fraction:
    fjet = _rat_series_jet([TABLE_A, TABLE_B], [Fraction(c)], TABLE_Z, TABLE_N)
    width = TABLE_N + 1
    zpow = [Fraction(1)] + [Fraction(0)] * (width - 1)
    var = [TABLE_Z, Fraction(1)] + [Fraction(0)] * (width - 2)
    for _ in range(c - 1):
        zpow = _rat_conv(zpow, var)
    prod = _rat_conv(zpow, fjet)
    return math.factorial(TABLE_N) * prod[TABLE_N]


def _rising(x: Fraction, k: int) -> Fraction:
    out = Fraction(1)
    for j in range(k):
        out *= x + j
    return out


def _table_f_r1(c: int) -> Fraction:
    n = TABLE_N
    pref = _rising(Fraction(c - n), n) * TABLE_Z ** (c - n - 1)
    return pref * _rat_series_scalar([TABLE_A, TABLE_B], [Fraction(c - n)], TABLE_Z)


def _table_f_r2(c: int) -> Fraction:
    n = TABLE_N
    s = n - c + 1
    pref = (
        Fraction(math.factorial(n), math.factorial(s))
        * _rising(TABLE_A, s)
        * _rising(TABLE_B, s)
        / _rising(Fraction(c), s)
    )
    return pref * _rat_series_scalar(
        [TABLE_A + s, TABLE_B + s], [Fraction(s + 1)], TABLE_Z
    )


def table1_values(c: int) -> tuple[float, Optional[float], Optional[float]]:
    """(f_L, f_R1, f_R2) for integer c; None where the line is inapplicable.

    Applicability comes from the Th1-4 catalog entries; values are exact
    rational computations converted to correctly rounded doubles.
    """
    p = {"a1": param(0.5), "a2": param(2 / 3), "c": param(c), "n": TABLE_N}
    f_l = float(_table_f_l(c))
    f_r1 = float(_table_f_r1(c)) if entry("Th1-4-regular").applicable(p) else None
    f_r2 = float(_table_f_r2(c)) if entry("Th1-4-exceptional").applicable(p) else None
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
_A_F = 0.5
_B_F = 2 / 3
_Z_F = 1 / 3


def _sweep_f_l(c: float) -> float:
    e = expr(
        term(
            1,
            powz(param(c) - 1),
            hyp(HypSpec.of([_A_F, _B_F], [c])),
        )
    )
    return nth_derivative(e, TABLE_N, _Z_F, _SWEEP_CTRL).real


def _sweep_f_r1(c: float) -> float:
    # the prefactor (c-4)_4 vanishes at integer c <= 4 while the series
    # factor is singular there; evaluate the series first so the pole is
    # reported rather than masked by the zero coefficient
    n = TABLE_N
    e = expr(
        term(
            1,
            powz(param(c - n) - 1),
            hyp(HypSpec.of([_A_F, _B_F], [c - n])),
        )
    )
    v = eval_expr(e, _Z_F, _SWEEP_CTRL).real
    pref = 1.0
    for j in range(n):
        pref *= c - n + j
    return pref * v


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
