"""Truncated Taylor-series (jet) arithmetic at a complex base point.

A jet of order K stores the Taylor coefficients c_0..c_K of an analytic
function around ``base_point``; the n-th derivative is n! * c_n.  Composing
jets through products, powers, exponentials and hypergeometric series gives
an exact-in-structure oracle for high-order derivatives, where finite
differences would lose roughly half the significant digits per order.

The jet routines (product, division, exp, pow, integer power and the pFq
series with its stop rule) are methods of ``Field``, written once over three
scalar fields: ``COMPLEX``, complex doubles, the oracle's working field;
``_Fixed``, Gaussian integers scaled by 2^-P, each with an error bound
(``FX``), for the reruns, whose P ``rerun`` alone sets; and ``FRACTION``,
exact real ``Fraction``, for exact inputs such as the reference table's.
The leading values of exp and of a non-integer power are taken in double
precision and lifted; the recurrences are linear in them, so their rounding
scales the result instead of being amplified by cancellation.

``Field.pfq`` is the one place any pFq series is summed and ``Field.series``
its one entry, which checks the input first: ``core.evaluate`` runs it at
order 0, and ``jet_pfq`` on a jet of any field, at that field's
``series_tol``.  ``rerun`` holds the one cancellation guard, for a series
and for a term of an expression alike: a sum that cancelled is rerun in
fixed point, at a precision sized from the double pass's magnitude sums and
doubled while a coefficient's error bound is not 53 + _GUARD bits below it;
past _BUDGET bits it raises ``NoConvergence``.  The fixed-point rerun is the
only rerun.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import repeat
from operator import attrgetter
from operator import mul as _mul
from typing import Optional

from .core import (
    ConvergenceClass,
    DEFAULT_CONTROL,
    EvalControl,
    HypSpec,
    check_finite,
    classify_convergence,
    csum,
    validate_spec,
)
from .errors import (
    BasePointAtBranchPoint,
    DivisionByZeroJet,
    DomainError,
    NoConvergence,
    OrderTooLow,
    PoleCoefficient,
)


# where a nonterminating series is summed: a jet strictly inside its domain,
# a scalar also on the boundary points where it converges
_INSIDE = (ConvergenceClass.ENTIRE, ConvergenceClass.INSIDE_UNIT_DISK)
_CONVERGES = _INSIDE + (ConvergenceClass.AT_PLUS_ONE, ConvergenceClass.AT_MINUS_ONE)


def _lead(name: str, x: complex) -> complex:
    """exp(x), the leading value of exp or of a power, in double precision; a
    value past the largest double raises ``NoConvergence``, as the series
    kernel reports its own overflow."""
    try:
        return cmath.exp(x)
    except OverflowError:
        raise NoConvergence(f"{name} leading value overflowed: it is beyond the double range") from None


class Field:
    """The jet algebra over one scalar field, on coefficient sequences.

    Subclasses supply ``zero``, ``one``, ``lift``, ``lower``, ``param``,
    ``dot`` (the fused sum of products x_0 y_0 + x_1 y_1 + ..., in that
    order), ``mag`` and ``series_tol``, the stop tolerance ``jet_pfq`` sums
    at for a caller's ``rel_tol``.  Each operation keeps the operand order of
    its sums, so that the complex field reproduces the oracle's doubles bit
    for bit.  Only a field with a ``total``, which re-sums each coefficient's
    bucket of terms once, returns magnitude sums from ``pfq``: ``COMPLEX``'s
    are the one measure of cancellation, and ``series`` hands them to
    ``rerun`` in every field.

    Besides its arithmetic a field overrides three kernel steps, each for a
    reason measured on the hook: ``_Complex.total`` with its ``fold``, the
    stepped bucket loop (1.7x slower in ``FRACTION``); ``_Fixed.terms``
    (the generic term ratio reruns 3.5x slower, and some fail); and
    ``_Fixed.fold`` (the generic one runs ``kummer-deep`` at 0.8x).  Every
    other step is generic, the weighting and the composition's products too.
    """

    total = None

    def mul(self, a, b):
        """Cauchy product truncated at the common order."""
        dot = self.dot
        rb = b[::-1]
        top = len(a) - 1
        return [dot(a, rb[top - i :]) for i in range(top + 1)]

    def div(self, a, b):
        """Division by recursive deconvolution; requires b[0] != 0."""
        b0 = b[0]
        if not b0:
            raise DivisionByZeroJet("leading coefficient of divisor is zero")
        q = []
        for i in range(len(a)):
            q.append((a[i] - self.dot(b[1 : i + 1], q[::-1])) / b0)
        return q

    def exp(self, a, sign: int = 1):
        """exp(sign * f) via the recurrence g' = sign * f' * g."""
        if sign not in (1, -1):
            raise ValueError("sign must be +1 or -1")
        g = [self.lift(_lead("jet_exp", sign * self.lower(a[0])))]
        da = [j * a[j] for j in range(len(a))]
        for i in range(1, len(a)):
            g.append(sign * self.dot(da[1 : i + 1], g[::-1]) / i)
        return g

    def pow(self, a, alpha):
        """f**alpha on the principal branch via alpha * f' * g = f * g'.

        The leading value is taken in double precision, so a base value whose
        double is 0 (an exact one that underflows) is at the branch point too,
        and one past the largest double raises ``NoConvergence``; a rerun's
        base value is lowered to its correctly rounded double first.
        """
        c0 = a[0]
        if not c0:
            raise BasePointAtBranchPoint("jet_pow base point at branch point")
        base = self.lower(c0)
        if not base:
            raise BasePointAtBranchPoint("jet_pow base value underflows to 0 in double precision")
        al1 = self.lift(alpha) + 1
        g = [self.lift(_lead("jet_pow", complex(alpha) * cmath.log(base)))]
        for i in range(1, len(a)):
            acc = self.dot([(al1 * j - i) * a[j] for j in range(1, i + 1)], g[::-1])
            g.append(acc / (i * c0))
        return g

    def ipow(self, a, m: int):
        """Integer power by repeated multiplication (no branch cut)."""
        unit = [self.one] + [self.zero] * (len(a) - 1)
        out = unit
        for _ in range(abs(m)):
            out = self.mul(out, a)
        if m < 0:
            out = self.div(unit, out)
        return out

    def fold(self, sums, us, lo):
        """Adds C(k, i) us[k] for k >= lo to sums[i], in place and in order
        of k; row C(k, 0) = 1 is summed without multiplying."""
        n = len(us)
        sums[0] = sum(us[lo:], sums[0])
        for i in range(1, len(sums)):
            j = max(lo, i)
            sums[i] = sum(map(_mul, us[j:], map(math.comb, range(j, n), repeat(i))), sums[i])

    terms = None  # a field's own step of the scalar terms (``_Fixed.terms``)

    def weigh(self, sums, w0, w1):
        """Coefficient i of an affine jet from its binomial sum: sums[i] times
        (w1/w0)^i, one division, then the power stepped by one product each."""
        rho, power, out = w1 / w0, self.one, sums[:1]
        for s in sums[1:]:
            power = power * rho
            out.append(s * power)
        return out

    def series(self, spec: HypSpec, w, rel_tol, max_terms: int):
        """``pfq`` for ``spec`` after the input checks: the kernel's one entry.

        Validates the spec and rejects a value that is not finite
        (``ValueError``).  A nonterminating series raises ``DomainError``
        unless w0 lies strictly inside its domain, or for a scalar w = [z] on
        a boundary point where it converges.  A numeric lower parameter at a
        whole number -K <= 0 then raises ``PoleCoefficient`` (at the least
        such K) unless an exact upper -m with m <= K ends the series first,
        wherever the stop rule would land.  A sum past the double range
        raises ``NoConvergence``.  Returns ``pfq``'s result, its sums passed
        through ``rerun`` (``d_pfq`` on w in fixed point, with growth
        K C(K + 1, i + 1) max(1, |w1/w0|)^i for K terms), and the
        termination order.
        """
        m = validate_spec(spec)
        check_finite(spec, w)
        if m is None:
            cls = classify_convergence(spec, w[0])
            if len(w) == 1 and cls not in _CONVERGES:
                raise DomainError(f"series does not converge at z={w[0]} ({cls.value})")
            if len(w) > 1 and cls not in _INSIDE:
                msg = f"jet base value {w[0]} not strictly inside the convergence domain"
                raise DomainError(msg)
        lows = [b.value for b in spec.lower if b.exact is None]
        poles = [-x.real for x in lows if not x.imag and x.real <= 0 and x.real.is_integer()]
        if poles and (m is None or min(poles) < m):
            raise PoleCoefficient(f"vanishing lower Pochhammer factor at k={int(min(poles)) + 1}")
        param = self.param
        upper, lower = list(map(param, spec.upper)), list(map(param, spec.lower))
        try:
            sums, abs_sums, terms, tail = self.pfq(upper, lower, m, w, rel_tol, max_terms)
        except OverflowError as exc:
            raise NoConvergence(f"series sum overflowed: {exc}") from None

        def compute(f):
            return d_pfq(spec, d_pair_from_jet(Jet(w[0], tuple(w)), f), EvalControl(rel_tol, max_terms))

        def growth(i):
            rho = math.log2(max(1.0, abs(w[1] / w[0]))) if i and w[0] else 0.0
            return math.log2(terms * math.comb(terms + 1, i + 1)) + i * rho

        return rerun(compute, abs_sums, sums, growth), abs_sums, terms, tail, m

    def pfq(self, upper, lower, m, w, rel_tol, max_terms: int):
        """Coefficients of pFq(a; b; w), for w given by its coefficients.

        ``m`` is the termination order (None for a nonterminating series).
        A terminating series is summed to its last term; any other stops once
        the largest term coefficient has stayed below ``rel_tol`` times the
        largest running sum (both by ``mag``) for three terms, and raises
        ``NoConvergence`` at ``max_terms`` terms, as both do at a term that
        is not finite or overflows.  Returns the sums; with a ``total``, each
        coefficient's magnitude sum (or a bound above it), else None; the
        number of terms; and the largest magnitude in the last term.

        An affine w = w0 + w1 h has coefficient i = sum_k c_k C(k, i)
        w0^(k-i) w1^i.  With a ``total`` the term jet steps itself,
        t_(k+1),i = t_k,(i-1) (r_k w1) + t_k,i (r_k w0) for the term ratio
        r_k = c_(k+1)/c_k, into a bucket of terms per coefficient.  The other
        fields keep the scalar terms u_k = c_k w0^k (stepped by the field's
        own ``terms`` where it has them) and take coefficient i as
        (w1/w0)^i sum_k C(k, i) u_k (``fold``, ``weigh``); the stop test
        weighs term k by C(k, i) |w1/w0|^i at the i past which that falls.
        At w0 = 0 coefficient i is c_i w1^i.  The stop test is one: ``fold``
        forms the running sums, ``peak`` is their largest at the last fold
        and ``drift`` sums the largest term coefficients since, so only a
        term between rel_tol (peak -+ drift) folds; a term of magnitude 0
        meets it.  Any other w (the Pfaff map) is composed once: the series
        at w0 + h gives g_j = F^(j)(w0)/j!, and coefficient i is
        sum_(j<=i) g_j (d^j)_i for d = w - w0, with the magnitude bound
        sum_j A_j |(d^j)_i|.
        """
        mag, one, lift, steps = self.mag, self.one, self.lift, None
        if any(w[2:]):
            unit = [one] + [self.zero] * (len(w) - 1)
            g, abs_g, terms, tail = self.pfq(
                upper, lower, m, [w[0], one] + unit[2:], rel_tol, max_terms
            )
            d = [self.zero] + list(w[1:])
            powers = [unit, d]
            while len(powers) < len(w):
                # in every field through ``jet_mul``, the binding a tracer wraps
                powers.append(jet_mul(Jet(0j, powers[-1], self), Jet(0j, d, self)).coeffs)
            cols = [[p[i] for p in powers[: i + 1]] for i in range(len(w))]
            sums = [self.dot(g[: i + 1], col) for i, col in enumerate(cols)]
            if abs_g is not None:
                abs_g = [sum(map(_mul, abs_g, map(mag, col))) for col in cols]
            return sums, abs_g, terms, tail
        w0, top = w[0], len(w) - 1
        t = [one] + [self.zero] * top
        running = t[:]
        z, stop, end = w0, m is None, max_terms if m is None else m + 1
        t0, tmax = one, mag(one)
        peak = tmax
        # the stop test weighs running sum i by |w1/w0|^i in the binomial shape
        apow = [1] * (top + 1)
        if self.total:
            # each coefficient's terms, which ``total`` re-sums at the end
            buckets = kept = [[x] for x in t]
            w1, append0 = w[1] if top else None, buckets[0].append
        else:
            # the scalar terms u_k = c_k z^k, and |w1/w0|^i
            buckets, a, i_max = None, 0, 0
            us = kept = [one]
            if top and w0:
                a = mag(w[1] / w0)
                for i in range(top):
                    apow[i + 1] = apow[i] * a
            elif top:
                # F(w1 h): coefficient i is c_i w1^i, from term i alone
                z, stop = w[1], False
                if m is None:
                    end = top + 1
            steps = self.terms and self.terms(upper, lower, z)
        # running holds the sums over the terms before ``folded``, the largest
        # of them (weighed) is ``peak``, and the terms since moved each sum by
        # at most ``drift``
        small = k = drift = 0
        folded = 1
        inf = math.inf
        try:
            for k in range(1, end):
                if not steps:
                    # the term ratio c_k/c_(k-1)
                    j = k - 1
                    num, den = one, lift(k)
                    for x in upper:
                        num *= x + j
                    for x in lower:
                        den *= x + j
                    if not den:
                        raise PoleCoefficient(f"vanishing lower Pochhammer factor at k={k}")
                    r = num / den
                    rz = r * z
                if buckets:
                    # from the top, so that t_(i-1) is still term k - 1's
                    if top:
                        rw = r * w1
                        for i in range(top, 0, -1):
                            ti = t[i] = t[i - 1] * rw + t[i] * rz
                            buckets[i].append(ti)
                    t0 = t[0] = t0 * rz
                    append0(t0)
                    tmax = max(map(mag, t)) if top else mag(t0)
                else:
                    t0, tmax = next(steps) if steps else (t0 * rz, None)
                    tmax = mag(t0) if tmax is None else tmax
                    us.append(t0)
                    if a:
                        # term k's largest coefficient, C(k, i) u_k rho^i, at
                        # the i past which the binomial weights fall
                        while i_max < top and a * (k - i_max) > i_max + 1:
                            i_max += 1
                        tmax *= math.comb(k, i_max) * apow[i_max]
                if stop:
                    # the sums lie within peak -+ drift, which decides the test
                    # unless it straddles it: then they are folded in
                    drift += tmax
                    met = tmax < rel_tol * (peak + drift)
                    if met and not tmax < rel_tol * (peak - drift):
                        self.fold(running, kept, folded)
                        folded, drift = k + 1, 0
                        peak = max(map(_mul, apow, map(mag, running)))
                        met = tmax < rel_tol * peak
                    # a zero term is small also where rel_tol * peak is 0
                    if met or not tmax:
                        small += 1
                        if small == 3:
                            break
                        continue
                    small = 0
                # a small term is finite, so only the others are tested
                if not tmax < inf:
                    raise NoConvergence(f"series term {k} overflowed: it is not finite")
            else:
                if stop:
                    raise NoConvergence(f"no convergence within {max_terms} terms")
        except OverflowError as exc:
            raise NoConvergence(f"series term {k} overflowed: {exc}") from None
        if buckets:
            sums = list(map(self.total, buckets))
            return sums, [sum(map(mag, b)) for b in buckets], k + 1, tmax
        if top and not w0:
            # a term past the order adds nothing to the jet
            sums = us[: top + 1] + [self.zero] * (top + 1 - len(us))
            return sums, None, k + 1, tmax if k <= top else mag(self.zero)
        self.fold(running, us, folded)
        return (self.weigh(running, w0, w[1]) if top else running), None, k + 1, tmax


# A sum whose magnitude sum is over _KAPPA_LIMIT times its modulus reruns
# (``rerun``).  The rerun's precision in bits is at least _MIN_BITS, where a
# term rounded to nothing lies far below any stop tolerance, and is doubled
# while a coefficient keeps fewer than 53 + _GUARD bits above its error
# bound, up to _BUDGET.  Every term of a double pass is below 2^1024, and a
# coefficient resolves once its bound is 53 + _GUARD bits below
# max(|s|, 2^-1022), so an order-0 sum of up to 10^4 terms needs about 2200
# bits: _BUDGET leaves room for that.
_KAPPA_LIMIT = 1e4
_MIN_BITS = 128
_GUARD = 8
_BUDGET = 4096


def _cancelled(abs_sum, value) -> bool:
    """Whether a sum cancelled past _KAPPA_LIMIT: ``abs_sum``, its terms'
    magnitude sum (or a bound above it), against the sum ``value``; not
    where that is at most 1e-250 or ``value`` is past the double range."""
    try:
        return abs_sum > 1e-250 and abs_sum > _KAPPA_LIMIT * abs(value)
    except OverflowError:
        return False


def _bits(abs_sums, sums, growth) -> int:
    """A rerun's first precision: 64 bits past the largest log2(f_i max(1,
    A_i) / max(|s_i|, 2^-1022)) of a cancelled coefficient i with magnitude
    sum A_i, sum s_i and ``growth(i)`` = log2 f_i, how much its rounding
    grows.  2^-1022, the smallest normal double, is the floor ``_resolved``
    measures a sum against, so an exact zero starts near the bits it needs."""
    need = max(
        growth(i) + math.log2(max(1.0, a)) - math.log2(max(abs(s), 2.0**-1022))
        for i, (a, s) in enumerate(zip(abs_sums, sums))
        if _cancelled(a, s)
    )
    return _BUDGET if need > _BUDGET else 64 + math.ceil(need)


class _Complex(Field):
    zero = 0j
    one = 1 + 0j
    lift = lower = staticmethod(complex)
    param = staticmethod(attrgetter("value"))
    mag = staticmethod(abs)
    # the stepped bucket loop, this field's alone: in FRACTION it took
    # table1_csv 78 ms against 46 ms on the binomial fold (best of 5,
    # in-process CPU time on a 2-vCPU Xeon VM)
    total = staticmethod(csum)

    @staticmethod
    def series_tol(rel_tol: float) -> float:
        return rel_tol

    @staticmethod
    def dot(xs, ys):
        ps = list(map(_mul, xs, ys))
        # one product, rounded as csum rounds it: math.fsum([-0.0]) is 0.0
        return ps[0] + 0j if len(ps) == 1 else csum(ps)

    @staticmethod
    def fold(sums, buckets, lo):
        # each coefficient's terms from ``lo`` on, added left to right as
        # ``sums[i] += t`` would add them
        for i, b in enumerate(buckets):
            sums[i] = sum(b[lo:], sums[i])


# An error bound is kept in units of 2^-512 of the grid step 2^-p: a normal
# double from one step up to the 2^1100 steps a series can gather
_STEP = 2.0**-512


class FX:
    """(re + i im) 2^-p in the fixed-point field ``f``, ``err`` a bound on
    |value - exact| in units of _STEP 2^-p and ``m`` the cached modulus.  An
    operation adds its rounding to its operands' bounds; an int operand
    enters exactly, any other number lifted."""

    __slots__ = ("re", "im", "err", "f", "m")

    def __init__(self, re: int, im: int, err: float, f: _Fixed, m: Optional[float] = None):
        self.re, self.im, self.err, self.f, self.m = re, im, err, f, m

    def __add__(self, o):
        o = o if type(o) is FX else self.f.lift(o)
        return FX(self.re + o.re, self.im + o.im, self.err + o.err, self.f)

    __radd__ = __add__

    def __sub__(self, o):
        return self + o * -1

    def __mul__(self, o):
        if type(o) is int:
            return FX(self.re * o, self.im * o, self.err * abs(o), self.f)
        return self.f.dot((self,), (o if type(o) is FX else self.f.lift(o),))

    __rmul__ = __mul__

    def __truediv__(self, o):
        f = self.f
        o = o if type(o) is FX else f.lift(o)
        xr, xi, yr, yi = self.re << f.p, self.im << f.p, o.re, o.im
        d = yr * yr + yi * yi
        (qr, ar), (qi, ai) = divmod(xr * yr + xi * yi, d), divmod(xi * yr - xr * yi, d)
        q = FX(qr, qi, ((ar != 0) + (ai != 0)) * _STEP, f)
        if self.err or o.err:
            # |a/b - A/B| <= (|a - A| + |a/b| |b - B|) / |B|, and |a/b| lies
            # within 2 steps of |q|
            den = f.mag(o) - math.ldexp(o.err, 512 - f.p)
            num = self.err + (f.mag(q) + math.ldexp(2.0, -f.p)) * o.err
            q.err += num / den if den > 0 else math.inf
        return q

    def __bool__(self):
        return bool(self.re or self.im)

    def __complex__(self):
        return self.f.lower(self)


class _Fixed(Field):
    """``FX`` numbers at p bits: the field of the reruns, at the p that
    ``rerun`` sets.  A product or quotient is exact in Gaussian integers,
    then rounded down once, less than 2 steps."""

    def __init__(self, p: int):
        self.p, self.scale = p, 1 << p
        self.floor = self.scale >> 1022  # the smallest normal double, in steps
        self.zero, self.one = FX(0, 0, 0.0, self), FX(self.scale, 0, 0.0, self)

    def lift(self, x) -> FX:
        """An int, ``Fraction`` or finite complex, rounded down to the grid."""
        if isinstance(x, (int, Fraction)):
            parts = (x.as_integer_ratio(), (0, 1))
        elif cmath.isfinite(x := complex(x)):
            parts = (x.real.as_integer_ratio(), x.imag.as_integer_ratio())
        else:
            raise ValueError(f"non-finite value {x!r} for the fixed-point field")
        (re, xr), (im, xi) = (divmod(n << self.p, d) for n, d in parts)
        return FX(re, im, ((xr != 0) + (xi != 0)) * _STEP, self)

    @staticmethod
    def param(x):
        """A ``Parameter``, exactly, as the Gaussian rational (re + i im)/den."""
        v = x.value if x.exact is None else x.exact
        if not isinstance(v, complex):
            n, den = v.as_integer_ratio()
            return n, 0, den
        (a, b), (c, d) = v.real.as_integer_ratio(), v.imag.as_integer_ratio()
        return a * max(d // b, 1), c * max(b // d, 1), max(b, d)

    def lower(self, x: FX) -> complex:  # each part rounded once, and not -0
        return complex(x.re / self.scale + 0.0, x.im / self.scale + 0.0)

    def mag(self, x: FX) -> float:
        if x.m is None:
            x.m = math.hypot(x.re / self.scale, x.im / self.scale)
        return x.m

    @staticmethod
    def series_tol(rel_tol: float) -> float:
        # the tail is bounded by the largest coefficient, not a cancelled one
        return min(rel_tol, 1e-25)

    def dot(self, xs, ys) -> FX:
        p, mag, re, im, err = self.p, self.mag, 0, 0, 0.0
        for x, y in zip(xs, ys):
            re += x.re * y.re - x.im * y.im
            im += x.re * y.im + x.im * y.re
            if x.err or y.err:
                err += x.err * (mag(y) + math.ldexp(y.err, 512 - p)) + mag(x) * y.err
        low = self.scale - 1
        return FX(re >> p, im >> p, err + (((re & low) != 0) + ((im & low) != 0)) * _STEP, self)

    def fold(self, sums, us, lo):
        # ``Field.fold`` on the parts and bounds, one FX built per coefficient;
        # the generic fold ran kummer-deep at 0.8x (medians 82 against 101
        # ops/s, 3 interleaved in-process runs of seed 1, 2-vCPU Xeon VM)
        n, parts = len(us), [[getattr(x, k) for x in us[lo:]] for k in ("re", "im", "err")]
        for i, s in enumerate(sums):
            j = max(lo, i)
            row, cut = list(map(math.comb, range(j, n), repeat(i))), (xs[j - lo :] for xs in parts)
            sums[i] = FX(*(sum(map(_mul, xs, row), x0) for xs, x0 in zip(cut, (s.re, s.im, s.err))), self)

    def terms(self, upper, lower, z):
        """The scalar terms u_k and their magnitudes: r_k z, exact from the
        exact parameters and z's grid value, is rounded down once to R_k and
        t_k = t_(k-1) R_k rounded down, with the bound e_k = e_(k-1) (|R_k| +
        e(R_k)) + |t_(k-1)| e(R_k) + 2 steps.  A term within its bound of 0
        has magnitude 0, or rounding down would keep it from the stop test.
        With the generic in-loop term ratio on lifted parameters in its place,
        kummer-deep's reruns at seed 1 took 3.5x as long (5.0 s against 1.4 s
        CPU time on a 2-vCPU Xeon VM) and 8 of its 300 trios failed."""
        p, scale, hypot, ldexp = self.p, self.scale, math.hypot, math.ldexp
        low, ulp = scale - 1, ldexp(1.0, -p)
        # r_k z = prod(a + j) prod(den b) z / ((j + 1) prod(b + j) prod(den a)),
        # the two products' factors of two entering as a shift
        top, bot = math.prod(d for *_, d in lower), math.prod(d for *_, d in upper)
        two_top, two_bot = (top & -top).bit_length() - 1, (bot & -bot).bit_length() - 1
        top, bot, shift = top >> two_top, bot >> two_bot, two_top - two_bot
        zr, zi, ez = z.re * top, z.im * top, z.err / _STEP / self.mag(z) if z.err else 0.0
        tr, ti, e, mt, j = scale, 0, 0.0, 1.0, 0
        while True:
            xr, xi, yr, yi = zr, zi, (j + 1) * bot, 0
            for ar, ai, d in upper:
                ar += j * d
                xr, xi = xr * ar - xi * ai, xr * ai + xi * ar
            for br, bi, d in lower:
                br += j * d
                yr, yi = yr * br - yi * bi, yr * bi + yi * br
            j += 1
            if yi:
                xr, xi, yr = xr * yr + xi * yi, xi * yr - xr * yi, yr * yr + yi * yi
            elif not yr:
                raise PoleCoefficient(f"vanishing lower Pochhammer factor at k={j}")
            xr, xi, yr = xr << max(shift, 0), xi << max(shift, 0), yr << max(-shift, 0)
            (rr, xr), (ri, xi) = divmod(xr, yr), divmod(xi, yr)
            mr = hypot(rr / scale, ri / scale)
            er = (xr != 0) + (xi != 0) + mr * ez
            tr, ti = tr * rr - ti * ri, tr * ri + ti * rr
            e = e * (mr + er * ulp) + (mt * er + ((tr & low) != 0) + ((ti & low) != 0)) * _STEP
            tr, ti = tr >> p, ti >> p
            mt = hypot(tr / scale, ti / scale)
            yield FX(tr, ti, e, self, mt), mt if mt > ldexp(e, 512 - p) else 0.0


class _Fraction(Field):
    zero = Fraction(0)
    one = Fraction(1)
    mag = staticmethod(abs)

    @staticmethod
    def lift(x) -> Fraction:
        if isinstance(x, complex):
            if x.imag:
                raise ValueError("the Fraction field is real")
            x = x.real
        return Fraction(x)

    def param(self, x):
        return self.lift(x.value if x.exact is None else x.exact)

    @staticmethod
    def lower(x: Fraction) -> complex:
        return complex(float(x))

    @staticmethod
    def series_tol(rel_tol: float) -> Fraction:
        # three terms this far below the running sum leave a tail far below
        # half an ulp of the double the sum is rounded to
        return Fraction(1, 10**34)

    @staticmethod
    def dot(xs, ys) -> Fraction:
        # start from the first product: adding Fraction(0) costs as much as
        # any other exact addition
        ps = list(map(_mul, xs, ys))
        return sum(ps[1:], ps[0]) if ps else Fraction(0)


COMPLEX = _Complex()
FRACTION = _Fraction()


@dataclass(frozen=True)
class Jet:
    base_point: complex
    coeffs: tuple
    field: Field = COMPLEX

    @property
    def order(self) -> int:
        return len(self.coeffs) - 1

    def __post_init__(self):
        if not self.coeffs:
            raise ValueError("a jet needs at least the order-0 coefficient")


def jet_variable(z0, order: int, field: Field = COMPLEX) -> Jet:
    """The identity function f(z) = z as a jet at z0; an exact z0 beyond the
    double range raises ``ValueError``, as a non-finite input does."""
    if order < 0:
        raise ValueError("order must be >= 0")
    try:
        base = complex(z0)
    except OverflowError:
        raise ValueError(f"base point {z0} is beyond the double range") from None
    c = [field.lift(z0)] + [field.zero] * order
    if order >= 1:
        c[1] = field.one
    return Jet(base, tuple(c), field)


def jet_constant(value, z0, order: int, field: Field = COMPLEX) -> Jet:
    return Jet(complex(z0), (field.lift(value),) + (field.zero,) * order, field)


def _check_compatible(a: Jet, b: Jet) -> None:
    if a.base_point != b.base_point or a.order != b.order or a.field is not b.field:
        raise ValueError("jets must share base point, order and field")


def jet_add(a: Jet, b: Jet) -> Jet:
    _check_compatible(a, b)
    return Jet(a.base_point, tuple(x + y for x, y in zip(a.coeffs, b.coeffs)), a.field)


def jet_scale(a: Jet, s) -> Jet:
    s = a.field.lift(s)
    return Jet(a.base_point, tuple(s * x for x in a.coeffs), a.field)


def jet_mul(a: Jet, b: Jet) -> Jet:
    """Cauchy product truncated at the common order."""
    _check_compatible(a, b)
    return Jet(a.base_point, tuple(a.field.mul(a.coeffs, b.coeffs)), a.field)


def jet_div(a: Jet, b: Jet) -> Jet:
    """Division by recursive deconvolution; requires b.coeffs[0] != 0."""
    _check_compatible(a, b)
    return Jet(a.base_point, tuple(a.field.div(a.coeffs, b.coeffs)), a.field)


def jet_exp(a: Jet, sign: int = 1) -> Jet:
    """exp(sign * f) via the recurrence g' = sign * f' * g."""
    return Jet(a.base_point, tuple(a.field.exp(a.coeffs, sign)), a.field)


def jet_pow(a: Jet, alpha: complex | Fraction) -> Jet:
    """f**alpha on the principal branch via alpha * f' * g = f * g'; a
    ``Fraction`` alpha enters ``FRACTION``'s recurrence exactly."""
    return Jet(a.base_point, tuple(a.field.pow(a.coeffs, alpha)), a.field)


def jet_ipow(a: Jet, m: int) -> Jet:
    """Integer power by repeated multiplication (no branch cut)."""
    return Jet(a.base_point, tuple(a.field.ipow(a.coeffs, m)), a.field)


def jet_pfq(spec: HypSpec, arg: Jet, ctrl: Optional[EvalControl] = None) -> Jet:
    """pFq(a; b; w) with w an analytic argument given as a jet, in its
    field: the field's ``series`` at its ``series_tol`` of ``rel_tol``, with
    its input checks (at order >= 1 the base value must lie strictly inside
    the convergence domain).  In the complex field a cancelled coefficient
    reruns the series, and a coefficient that is not finite (a power of the
    Pfaff composition past the double range) raises ``NoConvergence``.
    """
    ctrl = ctrl or DEFAULT_CONTROL
    field = arg.field
    vals = field.series(spec, arg.coeffs, field.series_tol(ctrl.rel_tol), ctrl.max_terms)[0]
    if field is COMPLEX and not all(map(cmath.isfinite, vals)):
        raise NoConvergence("jet_pfq coefficient overflowed: it is not finite")
    return Jet(arg.base_point, tuple(vals), field)


# ---------------------------------------------------------------------------
# the reruns: ``rerun`` sets their precision


def _resolved(x: FX) -> bool:
    """Whether x's error bound lies 53 + _GUARD bits below |re| + |im|, or
    below the smallest normal double: then its double is faithful."""
    size, bits = max(abs(x.re) + abs(x.im), x.f.floor), 53 + _GUARD + 512
    return math.ldexp(x.err, bits) <= size if x.err < 2.0**400 else x.err <= size >> bits


def rerun(compute, abs_sums, sums, growth):
    """``sums`` unchanged unless one of them cancelled (``_cancelled``
    against its magnitude sum in ``abs_sums``, None in a field that measures
    none); then ``compute(field)``, a fixed-point jet, rounded to complex
    doubles.  The one cancellation guard and extended-precision entry, for
    the series and the term rerun alike, and the one that sets the
    precision: from ``_bits`` with ``growth(i)``, doubled until each
    coefficient is ``_resolved``; past _BUDGET bits, or the double range, it
    raises ``NoConvergence``."""
    if abs_sums is None or not any(map(_cancelled, abs_sums, sums)):
        return sums
    p = max(_bits(abs_sums, sums, growth), _MIN_BITS)
    try:
        while True:
            p = min(p, _BUDGET)
            jet = compute(_Fixed(p))
            loose = [i for i, x in enumerate(jet.coeffs) if not _resolved(x)]
            if not loose:
                return d_pair_to_complexes(jet)
            if p == _BUDGET:
                raise NoConvergence(f"rerun coefficient {loose[0]} is not resolved within {_BUDGET} bits")
            p *= 2
    except OverflowError:
        raise NoConvergence("rerun overflowed: a value is beyond the double range") from None


def d_pair_from_jet(j: Jet, field: _Fixed) -> Jet:
    """A complex jet lifted into the fixed-point field ``field``."""
    return Jet(j.base_point, tuple(map(field.lift, j.coeffs)), field)


def d_pair_to_complexes(j: Jet) -> list[complex]:
    """The coefficients of a fixed-point jet, rounded to complex doubles."""
    return list(map(j.field.lower, j.coeffs))


def d_variable(z0: complex, order: int, field: _Fixed) -> Jet:
    """The variable jet in the fixed-point field: the start of a term rerun."""
    return jet_variable(z0, order, field)


# the series rerun's binding, which a tracer wraps to count the reruns
d_pfq = jet_pfq


def derivative(a: Jet, n: int) -> complex:
    """n-th derivative of the represented function: n! * coeffs[n]."""
    if n < 0:
        raise ValueError("n must be >= 0")
    if n > a.order:
        raise OrderTooLow(f"jet of order {a.order} cannot give derivative {n}")
    return math.factorial(n) * a.coeffs[n]
