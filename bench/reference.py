"""Extended-precision reference for pFq(a; b; z) with real parameters.

The series is summed in stdlib ``decimal`` arithmetic, z as an (re, im)
pair.  The working precision covers the measured cancellation: a first pass
at ``BASE_DIGITS`` measures kappa = sum|t_k| / |sum t_k|, and when kappa
would eat into the reference's own accuracy the sum is redone with that many
more digits.  Nothing here imports ``hypderiv`` or mpmath.
"""

from __future__ import annotations

import math
from decimal import Decimal, localcontext

BASE_DIGITS = 40
# stop once the geometric bound on the remaining tail is this many digits
# below the running sum
STOP_DIGITS = 28
TAIL_RATIO = 0.97
MAX_TERMS = 20000


def _sum_series(upper, lower, z, digits):
    """Return (sum as complex, sum of |t_k| as float)."""
    with localcontext() as cx:
        cx.prec = digits
        ups = [Decimal(a) for a in upper]
        los = [Decimal(b) for b in lower]
        zr, zi = Decimal(z.real), Decimal(z.imag)
        tr, ti = Decimal(1), Decimal(0)
        sr, si = Decimal(1), Decimal(0)
        t_abs = abs_sum = 1.0
        # the term ratio tends to |z| when p = q + 1 and to 0 when p < q + 1
        limit = abs(z) if len(upper) == len(lower) + 1 else 0.0
        eps = 10.0**-STOP_DIGITS
        for k in range(MAX_TERMS):
            kd = Decimal(k)
            num = Decimal(1)
            for a in ups:
                num *= a + kd
            if num == 0:
                # an upper parameter -k ends the series
                break
            den = kd + 1
            for b in los:
                den *= b + kd
            if den == 0:
                raise ZeroDivisionError("vanishing lower Pochhammer factor")
            q = num / den
            tr, ti = (tr * zr - ti * zi) * q, (tr * zi + ti * zr) * q
            sr += tr
            si += ti
            prev_abs, t_abs = t_abs, math.hypot(float(tr), float(ti))
            abs_sum += t_abs
            rho = max(t_abs / prev_abs, limit)
            # |sum| <= abs_sum, so the cheap test must pass first
            if rho < TAIL_RATIO and t_abs / (1 - rho) < eps * abs_sum:
                if t_abs / (1 - rho) < eps * math.hypot(float(sr), float(si)):
                    break
        else:
            raise ArithmeticError(f"reference series did not settle in {MAX_TERMS} terms")
        return complex(float(sr), float(si)), abs_sum


def reference_pfq(upper, lower, z) -> tuple[complex, float]:
    """pFq(upper; lower; z) to about 1e-25 relative, and its kappa.

    ``upper`` and ``lower`` are real parameter values; an upper value that
    is a nonpositive integer ends the series, as in the definition.
    """
    z = complex(z)
    value, abs_sum = _sum_series(upper, lower, z, BASE_DIGITS)
    kappa = abs_sum / abs(value) if value else math.inf
    lost = math.log10(kappa) if kappa > 1 else 0.0
    if value and lost > BASE_DIGITS - STOP_DIGITS - 2:
        value, abs_sum = _sum_series(upper, lower, z, BASE_DIGITS + int(lost) + 2)
        kappa = abs_sum / abs(value) if value else math.inf
    return value, kappa
