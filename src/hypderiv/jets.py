"""Truncated Taylor-series (jet) arithmetic at a complex base point.

A jet of order K stores the Taylor coefficients c_0..c_K of an analytic
function around ``base_point``; the n-th derivative is n! * c_n.  Composing
jets through products, powers, exponentials and hypergeometric series gives
an exact-in-structure oracle for high-order derivatives, where finite
differences would lose roughly half the significant digits per order.

The jet routines (product, division, exp, pow, integer power and the pFq
series with its stop rule) are written once, as methods of ``Field``, and
run over three scalar fields:

* ``COMPLEX`` -- complex doubles, the oracle's working field; products sum
  exactly rounded (``csum``);
* ``DECIMAL`` -- complex numbers as a pair of ``Decimal`` (``DC``) at the
  precision of the active decimal context, 38 digits when the oracle reruns
  an ill-conditioned series or term; ``rerun`` is the one place that sets
  it, for both reruns;
* ``FRACTION`` -- exact real ``Fraction``, for exact rational inputs such
  as the reference table's, and for the exact rerun of an ill-conditioned
  real terminating series.

A field supplies lift from complex and lower to complex, a fused sum of
products (``dot``) and a magnitude for the stop rule; the complex field
also re-sums each coefficient's bucket of terms exactly rounded
(``total``) and sums its terms' magnitudes, the one measure of
cancellation.
The leading values of exp and of a non-integer power are transcendental;
they are taken in double precision and lifted, and since the recurrences
are linear in that value its rounding scales the whole result instead of
being amplified by cancellation.

The series kernel ``Field.pfq`` is the one place any pFq series is summed,
and ``Field.series`` its one entry, which checks the input first:
``core.evaluate`` runs it at order 0, and ``jet_pfq`` on a jet of any field,
in that field and at that field's ``series_tol`` (the caller's rel_tol in
``COMPLEX``, at most 1e-25 in ``DECIMAL``, 1e-34 in ``FRACTION``).  The
complex field's entry also holds the one cancellation guard: a sum that
cancelled is rerun, a real terminating series exactly and any other in
38-digit decimal arithmetic, so a complex series is guarded wherever it is
summed.  The same magnitude sums tell whether 38 digits resolve the sum, in
that decimal rerun or in a term's (``check_decimal_resum``): a coefficient
that cancelled past that raises ``NoConvergence``.
``Field.pfq`` describes its loops, one per kind of field for an affine
argument, and its composition for any other (the Pfaff map z/(z-1)).
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from decimal import Decimal, localcontext
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

    Subclasses supply ``zero``, ``one``, ``lift``, ``lower``, ``dot`` (the
    fused sum of products x_0 y_0 + x_1 y_1 + ..., in that order), ``mag``
    and ``series_tol``, the stop tolerance ``jet_pfq`` sums at for a
    caller's ``rel_tol``.  The operations take and return lists of
    coefficients, and each keeps the operand order of its sums, so that the
    complex field reproduces the oracle's doubles bit for bit.

    In the series kernel ``pfq``, ``fold`` adds the terms since the last
    fold to the running sums that the one stop test reads: in ``COMPLEX`` a
    ``sum`` over each coefficient's bucket of terms, in ``DECIMAL`` a C-level
    ``sum`` over each part and in ``FRACTION`` an exact ``sum``.  Only the
    field with a ``total`` returns its terms' magnitude sums, the one
    measure of cancellation; the decimal and exact kernels keep none.
    """

    # The series kernel returns its running sums, unless the field re-sums
    # each coefficient's bucket of terms with ``total`` to round it once.
    total = None

    def param(self, x):
        """A ``Parameter`` in this field: its double, lifted."""
        return self.lift(x.value)

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
        and one past the largest double raises ``NoConvergence``.  The decimal
        rerun also lowers its base value c0 to a double first: where c0 is a
        binary midpoint, such as 1 - 0.2 formed exactly from the double 0.2,
        the decimal precision decides which neighbour it rounds to (0.8 at 40
        digits, the double below at 38).
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

    def power_mul(self, a, b):
        """The product that steps the powers of a composition: ``mul``."""
        return self.mul(a, b)

    def fold(self, sums, us, lo):
        """Adds the binomial-weighted terms ``us[lo:]`` to ``sums``, in place:
        ``sums[i]`` gains C(k, i) u_k for each k >= lo, in order of k, with
        the weights from ``math.comb``; row C(k, 0) = 1 is summed without
        multiplying."""
        n = len(us)
        sums[0] = sum(us[lo:], sums[0])
        for i in range(1, len(sums)):
            j = max(lo, i)
            sums[i] = sum(map(_mul, us[j:], map(math.comb, range(j, n), repeat(i))), sums[i])

    def series(self, spec: HypSpec, w, rel_tol, max_terms: int):
        """``pfq`` for ``spec`` after the input checks: the kernel's one entry.

        Validates the spec, and rejects a parameter or coefficient of w that
        is not finite (``ValueError``).  A nonterminating series raises
        ``DomainError`` unless w0 lies strictly inside its domain, or for a
        scalar w = [z] (an order-0 jet too) on a boundary point where it
        converges.  A numeric lower parameter at a whole number -K <= 0 then
        raises ``PoleCoefficient`` (at the least such K), unless an exact
        upper -m with m <= K ends the series first: the rule ``validate_spec``
        applies to an exact lower, so the pole is reported wherever the stop
        rule would land.  Parameters enter through ``param``, exactly in
        ``FRACTION``.  Returns ``pfq``'s result and the termination order.
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
        return (*self.pfq(upper, lower, m, w, rel_tol, max_terms), m)

    def pfq(self, upper, lower, m, w, rel_tol, max_terms: int):
        """Coefficients of pFq(a; b; w), for w given by its coefficients.

        ``upper`` and ``lower`` are the parameters in this field and ``m`` the
        termination order (None for a nonterminating series); ``series`` is
        the entry that checks them.  A terminating series is summed to its
        last term.  Otherwise the sum stops once the largest term coefficient
        has stayed below ``rel_tol`` times the largest running sum (both by
        ``mag``) for three terms in a row, and raises ``NoConvergence`` at
        ``max_terms`` terms.  Either sum raises ``NoConvergence`` at the first
        term with a coefficient that is not finite, and where a term or a sum
        overflows (``OverflowError``) with finite parts.  Returns the sums;
        in the field with a ``total`` (``COMPLEX``) per coefficient the sum
        of its terms' magnitudes, or a bound above it, for the cancellation
        guard and the check of its decimal rerun, and None in the others;
        the number of terms summed; and the largest magnitude among the last
        term's coefficients.
        At order 0 (w = [z]) this is the scalar series that ``evaluate`` sums:
        the K = 0 case of each field's loop below.

        An affine w = w0 + w1 h (w[2:] all zero: a scalar, the identity and
        negate maps) has coefficient i = sum_k c_k C(k, i) w0^(k-i) w1^i,
        formed by one loop per kind of field at every order K >= 0, with the
        term ratio r_k = c_(k+1)/c_k formed in the loop:

        * a field with a ``total`` (``COMPLEX``) steps the term jet
          t_k = c_k w^k itself, t_(k+1),i = t_k,(i-1) (r_k w1) + t_k,i (r_k w0),
          two products per coefficient, so a term overflows only where it,
          not w^k, passes the largest double; t_(k+1),i goes to coefficient
          i's bucket, which ``total`` re-sums at the end;
        * the other fields run the scalar pass on z = w0 and keep its terms
          u_k = c_k w0^k.  Coefficient i is then
          (w1/w0)^i sum_k C(k, i) u_k: the series differentiated term by
          term, one binomial-weighted sum per coefficient (``fold``), with
          the weights from ``math.comb``.  Term k's largest coefficient,
          max_i C(k, i) |w1/w0|^i mag(u_k), takes the i past which the
          weights fall.  At w0 = 0 and K >= 1 coefficient i is c_i w1^i,
          the scalar pass on z = w1 to term K, exactly.

        Both loops share one stop test.  The running sums are formed only in
        ``fold``, which adds the terms since the last fold left to right, as
        adding each term as it is formed would.  ``peak`` is their largest
        at the last fold, by ``mag`` in ``COMPLEX`` and as |w1/w0|^i mag(x)
        in the binomial shape (``mag`` of the coefficient for a real w1/w0,
        within a factor sqrt(2) of it otherwise), and ``drift`` sums the
        largest term coefficients since, so each running sum lies within
        peak -+ drift.  A term below rel_tol (peak - drift) meets the test and
        one not below rel_tol (peak + drift) fails it, without a fold; only
        a term between the two folds the sums in and is tested against their
        largest.  So every series stops on the same term as with the largest
        running sum taken at every term, save where a term lies within the
        rounding of peak -+ drift.
        Any other w (the Pfaff map) is composed once: the series summed at
        the affine jet w0 + h gives g_j = F^(j)(w0)/j!, and with d = w - w0
        coefficient i of the result is sum_(j<=i) g_j (d^j)_i, from the K-1
        products d^2..d^K of ``power_mul`` however many terms the series
        takes.  The stop rule so runs on the g_j.  The magnitude bound is
        B_i = sum_j A_j |(d^j)_i|, with A_j that of g_j; by the binomial
        expansion of w^k = (w0 + d)^k, it is at least the sum of the
        magnitudes of the terms c_k (w^k)_i.
        """
        mag, one, lift = self.mag, self.one, self.lift
        if any(w[2:]):
            unit = [one] + [self.zero] * (len(w) - 1)
            g, abs_g, terms, tail = self.pfq(
                upper, lower, m, [w[0], one] + unit[2:], rel_tol, max_terms
            )
            d = [self.zero] + list(w[1:])
            powers = [unit, d]
            while len(powers) < len(w):
                powers.append(self.power_mul(powers[-1], d))
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
            # the scalar terms u_k = c_k z^k and (w1/w0)^i
            buckets, ps, a, i_max = None, [one], 0, 0
            us = kept = [one]
            if top and w0:
                rho = w[1] / w0
                a = abs(rho)
                for i in range(top):
                    apow[i + 1] = apow[i] * a
                    ps.append(ps[i] * rho)
            elif top:
                # F(w1 h): coefficient i is c_i w1^i, from term i alone
                z, stop = w[1], False
                if m is None:
                    end = top + 1
        # running holds the sums over the terms before ``folded``, the largest
        # of them (weighed) is ``peak``, and the terms since moved each sum by
        # at most ``drift``
        small = k = drift = 0
        folded = 1
        inf = math.inf
        try:
            for k in range(1, end):
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
                    t0 = t0 * rz
                    us.append(t0)
                    tmax = mag(t0)
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
                    if met:
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
        # a jet's sums times (w1/w0)^i, added to zero as a running sum is, so
        # that no part is -0
        sums = [self.zero + s * p for s, p in zip(running, ps)] if top else running
        return sums, None, k + 1, tmax


# Taylor coefficients of a series at z0 can cancel heavily (peak term far
# above the sum, e.g. lower parameters with negative real part at |z0| near
# the disk boundary).  When the measured peak-to-sum ratio of any jet
# coefficient exceeds this, the series is rerun (``_Complex.series``) so the
# returned doubles stay accurate to ~1 ulp: a real terminating series
# exactly, any other in 38-digit decimal arithmetic.  libmpdec keeps
# 19 digits in a 64-bit word, so 38 is the largest precision whose operands
# fit two words; at 39-57 digits they take three, and a product costs about
# twice as much (timeit, Python 3.11 on a 2-vCPU Xeon VM: 100-115 ns at 38
# digits, 205-270 ns at 39-57).  A 38-digit sum keeps the 17 digits that
# round to a double only up to kappa = 10^(38 - 17), so a decimal rerun
# whose double pass measured more raises (``_Complex.series``).
_KAPPA_LIMIT = 1e4
_DEC_PREC = 38
_DEC_KAPPA_LIMIT = 10.0 ** (_DEC_PREC - 17)


def _cancelled(abs_sum, value, limit: float = _KAPPA_LIMIT) -> bool:
    """Whether a sum cancelled past ``limit``: ``abs_sum``, the sum of its
    terms' magnitudes (or a bound above it), against the sum ``value``.
    A magnitude sum at or below 1e-250 counts as nothing to lose, and a sum
    whose modulus is past the largest double as not cancelled."""
    try:
        return abs_sum > 1e-250 and abs_sum > limit * abs(value)
    except OverflowError:
        return False


class _Complex(Field):
    zero = 0j
    one = 1 + 0j
    lift = lower = staticmethod(complex)
    param = staticmethod(attrgetter("value"))
    mag = staticmethod(abs)
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

    def power_mul(self, a, b):
        # through the module's ``jet_mul`` binding, so that a tracer wrapping
        # it sees the composition's products
        return jet_mul(Jet(0j, a), Jet(0j, b)).coeffs

    def series(self, spec: HypSpec, w, rel_tol, max_terms: int):
        """``Field.series`` with the one cancellation guard.

        A sum that cancelled (``_cancelled``) reruns the series, and only the
        sums are replaced: a real terminating series (no parameter or
        coefficient of w with an imaginary part), a finite sum of rationals,
        exactly in ``FRACTION``, each sum rounded once; any other through
        ``rerun``, as ``d_pfq`` (``jet_pfq``) on the lifted w, so at the
        decimal field's ``series_tol``, ``min(rel_tol, 1e-25)``.  The double
        pass's magnitude sums (term moduli added to ``rel_tol``, or a bound
        on the Pfaff map) then check the decimal rerun: a rounded sum they
        exceed by more than 10^(38 - 17) keeps fewer than 17 correct digits,
        too few to round to a double, and raises ``NoConvergence``
        (``_check_resolved``; ``check_decimal_resum`` for a term rerun).
        """
        out = Field.series(self, spec, w, rel_tol, max_terms)
        sums, abs_sums, terms, tail, m = out
        if not any(map(_cancelled, abs_sums, sums)):
            return out
        if _exact_rerun(spec, w, m):
            exact = FRACTION.series(spec, list(map(FRACTION.lift, w)), rel_tol, max_terms)[0]
            sums = list(map(FRACTION.lower, exact))
        else:
            ctrl = EvalControl(rel_tol, max_terms)
            sums = rerun(lambda: d_pfq(spec, d_pair_from_jet(Jet(w[0], tuple(w))), ctrl))
            _check_resolved(abs_sums, sums)
        return sums, abs_sums, terms, tail, m


def _exact_rerun(spec: HypSpec, w, m) -> bool:
    """Whether a cancelled series reruns exactly: a real terminating one."""
    return m is not None and not any(x.imag for x in (*w, *(a.value for a in spec.upper + spec.lower)))


def _check_resolved(abs_sums, sums) -> None:
    resolved = f"1e{_DEC_PREC - 17} that {_DEC_PREC} digits resolve"
    for i, (a, s) in enumerate(zip(abs_sums, sums)):
        if _cancelled(a, s, _DEC_KAPPA_LIMIT):
            raise NoConvergence(f"series coefficient {i} cancelled past the {resolved}")


def check_decimal_resum(spec: HypSpec, w, sums, ctrl: EvalControl) -> None:
    """``_check_resolved`` for a series with coefficients ``sums`` at the
    complex w that a term rerun sums again at 38 digits.  ``_Complex.series``
    checked any it reran in decimal, so only one it may rerun exactly, such
    as 2F1(-200, 1; 1; 2) = 1 from terms up to 1e95, is summed again in
    double precision for its magnitude sums."""
    if _exact_rerun(spec, w, validate_spec(spec)):
        _check_resolved(Field.series(COMPLEX, spec, w, ctrl.rel_tol, ctrl.max_terms)[1], sums)


class DC:
    """A complex number as a pair of Decimals, rounded by the active context.

    The other operand may also be real (an int or a Decimal): on either side
    of a product, on the right of the other operations.
    """

    __slots__ = ("re", "im")

    def __init__(self, re: Decimal, im: Decimal):
        self.re = re
        self.im = im

    def __add__(self, o):
        if type(o) is DC:
            return DC(self.re + o.re, self.im + o.im)
        return DC(self.re + o, self.im)

    def __sub__(self, o):
        if type(o) is DC:
            return DC(self.re - o.re, self.im - o.im)
        return DC(self.re - o, self.im)

    def __mul__(self, o):
        if type(o) is DC:
            return DC(self.re * o.re - self.im * o.im, self.re * o.im + self.im * o.re)
        return DC(self.re * o, self.im * o)

    __rmul__ = __mul__

    def __truediv__(self, o):
        if type(o) is DC:
            dr, di = o.re, o.im
            dd = dr * dr + di * di
            return DC((self.re * dr + self.im * di) / dd, (self.im * dr - self.re * di) / dd)
        return DC(self.re / o, self.im / o)

    def __bool__(self):
        return bool(self.re) or bool(self.im)

    def __abs__(self) -> Decimal:
        return (self.re * self.re + self.im * self.im).sqrt()

    def __complex__(self):
        return complex(float(self.re), float(self.im))

    def __repr__(self):
        return f"DC({self.re}, {self.im})"


_D0 = Decimal(0)
_re, _im = attrgetter("re"), attrgetter("im")


class _Decimal(Field):
    zero = DC(_D0, _D0)
    one = DC(Decimal(1), _D0)

    @staticmethod
    def lift(x) -> DC:
        if type(x) is int:
            return DC(Decimal(x), _D0)
        z = complex(x)
        return DC(Decimal(z.real), Decimal(z.imag))

    lower = staticmethod(complex)

    @staticmethod
    def series_tol(rel_tol: float) -> Decimal:
        # a rerun's truncation tail is bounded relative to the dominant
        # coefficient, not to a cancelled one, so it runs at least 1e-25 deep
        return Decimal(min(rel_tol, 1e-25))

    @staticmethod
    def dot(xs, ys) -> DC:
        re = im = _D0
        for x, y in zip(xs, ys):
            re += x.re * y.re - x.im * y.im
            im += x.re * y.im + x.im * y.re
        return DC(re, im)

    @staticmethod
    def mag(x: DC) -> Decimal:
        return abs(x.re) + abs(x.im)

    @staticmethod
    def fold(sums, us, lo):
        # ``Field.fold`` on the parts: the same products and sums in the same
        # order, with one DC built per coefficient
        n = len(us)
        re, im = list(map(_re, us[lo:])), list(map(_im, us[lo:]))
        s = sums[0]
        sums[0] = DC(sum(re, s.re), sum(im, s.im))
        for i in range(1, len(sums)):
            s, j = sums[i], max(lo, i)
            row = list(map(math.comb, range(j, n), repeat(i)))
            re_i = sum(map(_mul, re[j - lo :], row), s.re)
            sums[i] = DC(re_i, sum(map(_mul, im[j - lo :], row), s.im))


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
DECIMAL = _Decimal()
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
    """The identity function f(z) = z as a jet at z0.

    An exact z0 beyond the double range raises ``ValueError``, the error of a
    non-finite input."""
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
    """pFq(a; b; w) with w an analytic argument given as a jet, in its field.

    The field's ``series`` (``evaluate`` runs the complex one at order 0),
    with its input checks (at order >= 1 the base value must lie strictly
    inside the convergence domain): terminating series are summed to the
    end; otherwise the sum stops once the largest term coefficient stays
    below the field's ``series_tol`` of ``rel_tol`` times the largest
    coefficient of the running jet for three terms.  In the complex field
    a cancelled coefficient reruns the series.
    """
    ctrl = ctrl or DEFAULT_CONTROL
    field = arg.field
    vals = field.series(spec, arg.coeffs, field.series_tol(ctrl.rel_tol), ctrl.max_terms)[0]
    return Jet(arg.base_point, tuple(vals), field)


# ---------------------------------------------------------------------------
# the decimal reruns: ``rerun`` holds their one decimal context


def rerun(compute) -> list[complex]:
    """``compute()``, a decimal jet, at ``_DEC_PREC`` digits, each
    coefficient rounded to a complex double: the one extended-precision
    entry, for the series rerun and the term rerun alike."""
    with localcontext() as cx:
        cx.prec = _DEC_PREC
        return d_pair_to_complexes(compute())


def d_pair_from_jet(j: Jet) -> Jet:
    """A complex jet lifted into the decimal field."""
    return Jet(j.base_point, tuple(map(DECIMAL.lift, j.coeffs)), DECIMAL)


def d_pair_to_complexes(j: Jet) -> list[complex]:
    """The coefficients of a decimal jet, each rounded to a complex double."""
    return list(map(DECIMAL.lower, j.coeffs))


def d_variable(z0: complex, order: int) -> Jet:
    """The variable jet in the decimal field: the start of a term rerun."""
    return jet_variable(z0, order, DECIMAL)


# the series rerun's binding, which a tracer wraps to count the reruns
d_pfq = jet_pfq


def derivative(a: Jet, n: int) -> complex:
    """n-th derivative of the represented function: n! * coeffs[n]."""
    if n < 0:
        raise ValueError("n must be >= 0")
    if n > a.order:
        raise OrderTooLow(f"jet of order {a.order} cannot give derivative {n}")
    return math.factorial(n) * a.coeffs[n]
