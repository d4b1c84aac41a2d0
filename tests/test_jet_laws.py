"""Property tests of the jet algebra, run once per scalar field.

The same routines serve the complex-double, 40-digit decimal and exact
Fraction fields, so the laws are checked in each: exactly in the Fraction
field, to a relative 1e-30 in the decimal field and to 1e-9 in the complex
field, relative to the largest coefficient involved (division and powers
amplify rounding by up to (sum |f_i| / |f_0|)^order, a few thousand here).

The leading values of exp and of a non-integer power are the one step taken
in double precision.  The exact and decimal fields therefore check the exp
law on jets with f_0 = 0 and the pow law on jets with f_0 = 1, where that
leading value is exactly 1; the complex field checks any f_0.
"""

from decimal import Decimal, localcontext
from fractions import Fraction

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import assume, given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from hypderiv.jets import _DEC_PREC, COMPLEX, DC, DECIMAL, FRACTION, Field  # noqa: E402

TOL = {COMPLEX: 1e-9, DECIMAL: Decimal("1e-30"), FRACTION: 0}
FIELDS = pytest.mark.parametrize("F", [COMPLEX, DECIMAL, FRACTION], ids=["complex", "decimal", "fraction"])
LAWS = settings(max_examples=40, deadline=None)

small = st.fractions(min_value=-2, max_value=2, max_denominator=8)


@st.composite
def jets(draw, order, lead=None):
    """Coefficients (re, im) of a jet of the given order; ``lead`` fixes f_0."""
    re = [draw(small) for _ in range(order + 1)]
    im = [draw(small) for _ in range(order + 1)]
    if lead is not None:
        re[0], im[0] = Fraction(lead), Fraction(0)
    return re, im


def lift(F, jet):
    re, im = jet
    if F is FRACTION:
        return list(re)
    return [F.lift(complex(float(r), float(i))) for r, i in zip(re, im)]


def assert_close(F, xs, ys):
    assert len(xs) == len(ys)
    if F is FRACTION:
        assert xs == ys
        return
    if F is DECIMAL:
        # compare in decimal: lowering to doubles would hide the 40 digits
        diff = max(F.mag(x - y) for x, y in zip(xs, ys))
        scale = max([F.mag(x) for x in xs + ys] + [1])
        assert diff <= TOL[F] * scale, (xs, ys)
        return
    scale = max([abs(x) for x in xs + ys] + [1.0])
    assert max(abs(x - y) for x, y in zip(xs, ys)) <= TOL[F] * scale, (xs, ys)


def unit(F, order):
    return [F.one] + [F.zero] * order


def well_led(jet):
    """f_0 away from 0, so division and powers stay well conditioned."""
    re, im = jet
    return abs(complex(float(re[0]), float(im[0]))) >= 0.5


orders = st.integers(min_value=0, max_value=6)


@FIELDS
@LAWS
@given(data=st.data())
def test_product_commutes_and_associates(F, data):
    order = data.draw(orders)
    a, b, c = (lift(F, data.draw(jets(order))) for _ in range(3))
    with localcontext() as cx:
        cx.prec = 40
        assert_close(F, F.mul(a, b), F.mul(b, a))
        assert_close(F, F.mul(F.mul(a, b), c), F.mul(a, F.mul(b, c)))


@FIELDS
@LAWS
@given(data=st.data())
def test_division_undoes_product(F, data):
    order = data.draw(orders)
    a = lift(F, data.draw(jets(order)))
    bj = data.draw(jets(order))
    assume(well_led(bj) if F is not FRACTION else bj[0][0] != 0)
    b = lift(F, bj)
    with localcontext() as cx:
        cx.prec = 40
        assert_close(F, F.div(F.mul(a, b), b), a)


@FIELDS
@LAWS
@given(data=st.data())
def test_exp_of_negation_is_reciprocal(F, data):
    order = data.draw(orders)
    a = lift(F, data.draw(jets(order, lead=None if F is COMPLEX else 0)))
    with localcontext() as cx:
        cx.prec = 40
        assert_close(F, F.mul(F.exp(a, 1), F.exp(a, -1)), unit(F, order))


@FIELDS
@LAWS
@given(data=st.data(), alpha=small)
def test_pow_of_negated_exponent_is_reciprocal(F, data, alpha):
    order = data.draw(orders)
    fj = data.draw(jets(order, lead=None if F is COMPLEX else 1))
    assume(well_led(fj))
    f = lift(F, fj)
    al = alpha if F is FRACTION else complex(float(alpha), 0.25)
    with localcontext() as cx:
        cx.prec = 40
        assert_close(F, F.mul(F.pow(f, al), F.pow(f, -al)), unit(F, order))


@FIELDS
@LAWS
@given(data=st.data(), m=st.integers(min_value=-4, max_value=4))
def test_integer_power_is_repeated_product(F, data, m):
    order = data.draw(orders)
    fj = data.draw(jets(order))
    assume(well_led(fj) if F is not FRACTION else fj[0][0] != 0)
    f = lift(F, fj)
    with localcontext() as cx:
        cx.prec = 40
        want = unit(F, order)
        for _ in range(abs(m)):
            want = F.mul(f, want)
        if m < 0:
            want = F.div(unit(F, order), want)
        assert_close(F, F.ipow(f, m), want)
        # and powers add: f^m f^2 = f^(m+2)
        assert_close(F, F.mul(F.ipow(f, m), F.ipow(f, 2)), F.ipow(f, m + 2))


def deriv(a):
    """Coefficients of f' from those of f (one order fewer)."""
    return [i * a[i] for i in range(1, len(a))]


@FIELDS
@LAWS
@given(data=st.data(), alpha=small)
def test_exp_and_pow_solve_their_differential_equations(F, data, alpha):
    # the reciprocal laws above hold for any weights of the form
    # i g_i = sum w_j f_j g_(i-j); these pin the weights down:
    # (e^f)' = f' e^f and f (f^alpha)' = alpha f' f^alpha.  Both sides are
    # linear in the leading value, so its rounding cannot break them.
    order = data.draw(st.integers(min_value=1, max_value=6))
    f = lift(F, data.draw(jets(order)))
    fj = data.draw(jets(order, lead=None if F is COMPLEX else 1))
    assume(well_led(fj))
    g = lift(F, fj)
    al = alpha if F is FRACTION else complex(float(alpha), 0.25)
    with localcontext() as cx:
        cx.prec = 40
        e = F.exp(f, 1)
        assert_close(F, deriv(e), F.mul(deriv(f), e[:-1]))
        p = F.pow(g, al)
        alpha_f = F.lift(al)
        assert_close(F, F.mul(g[:-1], deriv(p)), [alpha_f * x for x in F.mul(deriv(g), p[:-1])])


def series_terms(F, upper, lower, m, w):
    """Per coefficient, terms 0..m of pFq(a; b; w), with the powers of w
    from ``F.mul``."""
    pw = unit(F, len(w) - 1)
    buckets = [[] for _ in w]
    c = F.one
    for k in range(m + 1):
        for i, x in enumerate(pw):
            buckets[i].append(c * x)
        num = F.one
        for a in upper:
            num *= a + k
        den = F.lift(k + 1)
        for b in lower:
            den *= b + k
        c *= num / den
        pw = F.mul(pw, w)
    return buckets


def series_by_products(F, upper, lower, m, w):
    buckets = series_terms(F, upper, lower, m, w)
    if F.total is not None:
        return [F.total(b) for b in buckets]
    sums = []
    for b in buckets:
        s = F.zero
        for t in b:
            s += t
        sums.append(s)
    return sums


def check_series_composed(F, data, m, dense):
    # the series kernel gives sum_k c_k w^k for an argument of either shape.
    # Exact in the Fraction field; in the complex field the sums round
    # differently, each by a few ulps of the magnitudes it adds up, so the gap
    # is bounded relative to the sum of the terms' magnitudes.
    order = data.draw(st.integers(min_value=2 if dense else 0, max_value=6))
    re, im = data.draw(jets(order))
    if dense:
        assume(any(re[2:]) or any(im[2:]))
    else:
        re[2:] = im[2:] = [Fraction(0)] * (order - 1)
    w = lift(F, (re, im))
    params = [lift(F, data.draw(jets(0)))[0] for _ in range(3)]
    upper, lower = params[:2], [params[2] + 3]
    with localcontext() as cx:
        cx.prec = 40
        # a terminating sum of m + 1 terms: the stop rule does not apply
        got, bound, n, _ = F.pfq(upper, lower, m, w, rel_tol=0, max_terms=m + 1)
        terms = series_terms(F, upper, lower, m, w)
        want = series_by_products(F, upper, lower, m, w)
    assert n == m + 1
    if F is not COMPLEX:
        # only the complex field measures cancellation
        assert_close(F, got, want)
        assert bound is None
        return
    for g, x, b, ts in zip(got, want, bound, terms):
        magnitude = sum(map(abs, ts))
        assert abs(g - x) <= 1e-13 * magnitude, (got, want)
        # the cancellation guard's bound covers the moduli of the terms
        # c_k (w^k)_i, up to rounding
        assert b >= magnitude - magnitude / 10**12, (bound, terms)


@FIELDS
@LAWS
@given(data=st.data(), m=st.integers(min_value=0, max_value=12))
def test_affine_powers_match_full_products(F, data, m):
    # the identity and negate maps give w = w0 + w1 h, whose term jet the
    # series kernel steps by the term ratio with two products per coefficient
    check_series_composed(F, data, m, dense=False)


@FIELDS
@LAWS
@given(data=st.data(), m=st.integers(min_value=0, max_value=12))
def test_dense_argument_is_the_series_composed(F, data, m):
    # any other w (the Pfaff map) is summed at w0 + h and composed with the
    # powers of w - w0
    check_series_composed(F, data, m, dense=True)


# Decimal parts: exact zeros of either sign and exponent, and values equal
# but for their exponent (0.5 and 0.50), so that a sum's exponent shows;
# small integers scaled by a few powers of ten; and integers of more digits
# than the rerun's context keeps, so that every operation rounds
parts = st.one_of(
    st.sampled_from([Decimal(x) for x in ("0", "-0", "0E-7", "0.5", "0.50", "-0.500", "1", "1.0")]),
    st.builds(lambda m, e: Decimal(f"{m}E{e}"), st.integers(-50, 50), st.integers(-2, 0)),
    st.builds(lambda m, e: Decimal(f"{m}E{e}"), st.integers(-(10**45), 10**45), st.integers(-45, 0)),
)
dcs = st.builds(DC, parts, parts)


@LAWS
@given(
    sums=st.lists(dcs, min_size=1, max_size=13),
    us=st.lists(dcs, min_size=1, max_size=30),
    data=st.data(),
)
def test_decimal_fold_is_the_generic_fold(sums, us, data):
    # the decimal field's binomial fold forms the same products and sums as
    # ``Field.fold``, so every digit and exponent agrees
    lo = data.draw(st.integers(min_value=0, max_value=len(us)))
    text = lambda xs: [f"{x.re} {x.im}" for x in xs]  # noqa: E731
    with localcontext() as cx:
        cx.prec = _DEC_PREC
        got, want = sums[:], sums[:]
        DECIMAL.fold(got, us, lo)
        Field.fold(DECIMAL, want, us, lo)
    assert text(got) == text(want)


finite = dict(allow_nan=False, allow_infinity=False)


@LAWS
@given(
    x=st.complex_numbers(max_magnitude=1e3, **finite),
    y=st.complex_numbers(min_magnitude=1e-3, max_magnitude=1e3, **finite),
)
def test_decimal_scalars_agree_with_complex(x, y):
    D = DECIMAL
    a, b = D.lift(x), D.lift(y)
    with localcontext() as cx:
        cx.prec = 40
        for got, want, scale in (
            (a + b, x + y, abs(x) + abs(y)),
            (a - b, x - y, abs(x) + abs(y)),
            (a * b, x * y, abs(x) * abs(y)),
            (a / b, x / y, abs(x) / abs(y)),
        ):
            assert abs(D.lower(got) - want) <= 1e-15 * scale, (got, want)
