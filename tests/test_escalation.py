"""Accuracy of the 38-digit decimal reruns against an independent reference.

The oracle reruns an ill-conditioned pFq series (series level, in the
complex field's ``series``) or an ill-conditioned product of factor jets
(term level, in ``expressions._term_jet``) in decimal arithmetic.  Each case
here is chosen so that the rerun happens, the test counts the entries into
it, and the derivative is compared with mpmath at 50 digits.  The stated
bound is a relative error of 1e-12; the reruns reach about 1e-14.  A last
case shows the margin of the 38 digits: a series that cancels by kappa ~
1e16 still comes out within 1e-15.  ``evaluate`` takes the same series
guard: cancelling scalar sums come out within 1e-15 of mpmath.
"""

from fractions import Fraction

import pytest

mpmath = pytest.importorskip("mpmath")

from hypderiv import expressions as ex  # noqa: E402
from hypderiv import jets  # noqa: E402
from hypderiv.core import HypSpec, evaluate  # noqa: E402

BOUND = 1e-12

S11 = HypSpec.of([0.5], [1.5])
S21 = HypSpec.of([0.5, 2 / 3], [-3.4])
S11_TERM = HypSpec.of([1.0], [1.5])


def _mp_1f1(z):
    return mpmath.hyp1f1(0.5, 1.5, z)


def _mp_2f1(z):
    # the same doubles the library is given, so only the arithmetic differs
    return mpmath.hyp2f1(0.5, 2 / 3, -3.4, z)


def _mp_term(z):
    return z**0.5 * (1 - z) ** 1.5 * mpmath.exp(z) * mpmath.hyp1f1(1.0, 1.5, -z)


# (name, expression, n, z0, reference f, series-level reruns, term-level reruns)
CASES = [
    ("1F1 negate", ex.expr(ex.term(1, ex.hyp(S11, ex.ArgMap.NEGATE))), 2, 15.0,
     lambda z: _mp_1f1(-z), 1, 0),
    # at z0 = +0.7 this series needs no rerun; at -0.7 it cancels
    ("2F1 identity", ex.expr(ex.term(1, ex.hyp(S21))), 10, -0.7, _mp_2f1, 1, 0),
    ("2F1 Pfaff", ex.expr(ex.term(1, ex.hyp(S21, ex.ArgMap.PFAFF))), 8, 0.3,
     lambda z: _mp_2f1(z / (z - 1)), 1, 0),
    # e^z 1F1(1; 3/2; -z) is small where both factors are large, so the
    # Leibniz sums of the product cancel and the whole term is rerun
    ("term powz pow1mz exp", ex.expr(ex.term(
        1, ex.powz(0.5), ex.pow1mz(1.5), ex.expz(1), ex.hyp(S11_TERM, ex.ArgMap.NEGATE)
    )), 4, -10 + 1j, _mp_term, 0, 1),
]


def _counting(monkeypatch, module, attr, counts):
    original = getattr(module, attr)

    def wrapper(*args, **kwargs):
        counts[attr] += 1
        return original(*args, **kwargs)

    monkeypatch.setattr(module, attr, wrapper)


@pytest.mark.parametrize("name,e,n,z0,ref,series_reruns,term_reruns", CASES, ids=[c[0] for c in CASES])
def test_rerun_matches_mpmath(monkeypatch, name, e, n, z0, ref, series_reruns, term_reruns):
    counts = {"d_pfq": 0, "d_variable": 0}
    _counting(monkeypatch, jets, "d_pfq", counts)
    _counting(monkeypatch, ex, "d_variable", counts)
    got = ex.nth_derivative(e, n, z0)
    assert counts == {"d_pfq": series_reruns, "d_variable": term_reruns}
    with mpmath.workdps(50):
        want = complex(mpmath.diff(ref, mpmath.mpmathify(z0), n))
    assert abs(got - want) <= BOUND * abs(want), (got, want)


def test_rerun_margin_at_kappa_1e16(monkeypatch):
    # 1F1(1/2; 3/2; z) at z0 = -40: the magnitude sum of each coefficient's
    # terms is 3e16-3e17 times the coefficient, so a double sum keeps no
    # correct digit and a 38-digit one about 21
    counts = {"d_pfq": 0, "d_variable": 0}
    _counting(monkeypatch, jets, "d_pfq", counts)
    _counting(monkeypatch, ex, "d_variable", counts)
    got = ex.nth_derivative(ex.expr(ex.term(1, ex.hyp(S11))), 3, -40.0)
    assert counts == {"d_pfq": 1, "d_variable": 0}
    with mpmath.workdps(50):
        want = complex(mpmath.diff(_mp_1f1, mpmath.mpf(-40), 3))
    assert abs(got - want) <= 1e-15 * abs(want), (got, want)


# (upper, lower, z) of scalar sums that cancel by kappa ~ 5e6-6e14: a double
# sum keeps 2-10 correct digits of these, the decimal rerun all of them
SCALAR = [
    ([Fraction(1, 2)], [Fraction(3, 2)], -30),
    ([0.3], [1.7], -35.0),
    ([-0.25 + 0.5j], [2.5], -25.0),
    ([0.5], [1.5], -18 + 3j),
    ([], [1.5], -200.0),
    ([], [0.75 + 0.25j], -150 + 20j),
    ([], [2.25], -300.0),
]


@pytest.mark.parametrize("upper,lower,z", SCALAR, ids=[f"{len(c[0])}F1 at {c[2]}" for c in SCALAR])
def test_evaluate_matches_mpmath(monkeypatch, upper, lower, z):
    counts = {"d_pfq": 0}
    _counting(monkeypatch, jets, "d_pfq", counts)
    got = evaluate(HypSpec.of(upper, lower), z).value
    assert counts["d_pfq"] == 1
    with mpmath.workdps(50):
        a, b = ([mpmath.mpf(x.numerator) / x.denominator if isinstance(x, Fraction) else x
                 for x in v] for v in (upper, lower))
        want = complex(mpmath.hyper(a, b, z))
    assert abs(got - want) <= 1e-15 * abs(want), (got, want)
