"""Property tests of the jet algebra, run once per scalar field.

The same routines serve the complex-double, 200-bit fixed-point and exact
Fraction fields, so the laws are checked in each: exactly in the Fraction
field, to a relative 1e-45 in the fixed-point field and to 1e-9 in the
complex field, relative to the largest coefficient involved (division and
powers amplify rounding by up to (sum |f_i| / |f_0|)^order, a few thousand
here).  In the fixed-point field each side also lies within its own error
bound of the exact value, so the two sides lie within the sum of their
bounds: the bounds the reruns' self-check reads are checked here.

The laws are properties of the generic ``Field`` routines, not of any one
field's arithmetic, so they are also checked, to a relative 1e-30, in a
40-digit decimal field defined here (``DECIMAL``) that the package itself
does not use: its rounding is neither binary nor fixed-point.

The leading values of exp and of a non-integer power are the one step taken
in double precision.  The exact, fixed-point and decimal fields therefore
check the exp law on jets with f_0 = 0 and the pow law on jets with
f_0 = 1, where that leading value is exactly 1; the complex field checks
any f_0.
"""
import math
from decimal import Context, Decimal
from fractions import Fraction

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import assume, given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from hypderiv.core import param  # noqa: E402
from hypderiv.jets import _STEP, COMPLEX, FRACTION, FX, Field, _Fixed  # noqa: E402

_CX = Context(prec=40)


class DC:
    """A complex number as a pair of Decimals, each operation rounded to 40
    digits.  The other operand may also be an int."""

    __slots__ = ("re", "im")

    def __init__(self, re: Decimal, im: Decimal):
        self.re = re
        self.im = im

    def __add__(self, o):
        o = _dc(o)
        return DC(_CX.add(self.re, o.re), _CX.add(self.im, o.im))

    __radd__ = __add__

    def __sub__(self, o):
        o = _dc(o)
        return DC(_CX.subtract(self.re, o.re), _CX.subtract(self.im, o.im))

    def __mul__(self, o):
        o, m = _dc(o), _CX.multiply
        re = _CX.subtract(m(self.re, o.re), m(self.im, o.im))
        return DC(re, _CX.add(m(self.re, o.im), m(self.im, o.re)))

    __rmul__ = __mul__

    def __truediv__(self, o):
        o, m = _dc(o), _CX.multiply
        dd = _CX.add(m(o.re, o.re), m(o.im, o.im))
        re = _CX.add(m(self.re, o.re), m(self.im, o.im))
        im = _CX.subtract(m(self.im, o.re), m(self.re, o.im))
        return DC(_CX.divide(re, dd), _CX.divide(im, dd))

    def __pow__(self, n: int):
        out = DECIMAL.one
        for _ in range(n):
            out = out * self
        return out

    def __bool__(self):
        return bool(self.re) or bool(self.im)

    def __complex__(self):
        return complex(float(self.re), float(self.im))

    def __repr__(self):
        return f"DC({self.re}, {self.im})"


def _dc(x) -> DC:
    return x if type(x) is DC else DC(Decimal(x), Decimal(0))


class _Decimal(Field):
    zero = DC(Decimal(0), Decimal(0))
    one = DC(Decimal(1), Decimal(0))
    lower = staticmethod(complex)

    @staticmethod
    def lift(x) -> DC:
        if type(x) is int:
            return _dc(x)
        z = complex(x)
        return DC(Decimal(z.real), Decimal(z.imag))

    @staticmethod
    def mag(x: DC) -> Decimal:
        return _CX.add(x.re.copy_abs(), x.im.copy_abs())

    def dot(self, xs, ys) -> DC:
        acc = self.zero
        for x, y in zip(xs, ys):
            acc = acc + x * y
        return acc


DECIMAL = _Decimal()
FIXED = _Fixed(200)
TOL = {COMPLEX: 1e-9, DECIMAL: Decimal("1e-30"), FIXED: 1e-45, FRACTION: 0}
FIELDS = pytest.mark.parametrize(
    "F", [COMPLEX, DECIMAL, FIXED, FRACTION], ids=["complex", "decimal", "fixed", "fraction"]
)
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
    if F is FIXED:
        # compare on the grid: lowering to doubles would hide the 200 bits
        for x, y in zip(xs, ys):
            assert distance(x, y) <= (x.err + y.err) / _STEP, (x, y)
        diff = max(F.mag(x - y) for x, y in zip(xs, ys))
        scale = max([F.mag(x) for x in xs + ys] + [1])
        assert diff <= TOL[F] * scale, (xs, ys)
        return
    scale = max([abs(x) for x in xs + ys] + [1.0])
    assert max(abs(x - y) for x, y in zip(xs, ys)) <= TOL[F] * scale, (xs, ys)


def distance(x, y):
    """|x - y| of two fixed-point values, in grid steps, exactly."""
    d2 = (x.re - y.re) ** 2 + (x.im - y.im) ** 2
    return math.isqrt(d2) + (math.isqrt(d2) ** 2 != d2)


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
    assert_close(F, F.div(F.mul(a, b), b), a)


@FIELDS
@LAWS
@given(data=st.data())
def test_exp_of_negation_is_reciprocal(F, data):
    order = data.draw(orders)
    a = lift(F, data.draw(jets(order, lead=None if F is COMPLEX else 0)))
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
    assert_close(F, F.mul(F.pow(f, al), F.pow(f, -al)), unit(F, order))


@FIELDS
@LAWS
@given(data=st.data(), m=st.integers(min_value=-4, max_value=4))
def test_integer_power_is_repeated_product(F, data, m):
    order = data.draw(orders)
    fj = data.draw(jets(order))
    assume(well_led(fj) if F is not FRACTION else fj[0][0] != 0)
    f = lift(F, fj)
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
    raw = [data.draw(jets(0)) for _ in range(3)]
    params = [lift(F, r)[0] for r in raw]
    upper, lower = params[:2], [params[2] + 3]
    kernel_upper, kernel_lower = upper, lower
    if F is FIXED:
        # the fixed-point kernel takes the same parameters exactly, as
        # Gaussian rationals (``param``)
        exact = [F.param(param(complex(float(r[0][0]), float(r[1][0])))) for r in raw]
        (a, b, d), kernel_upper = exact[2], exact[:2]
        kernel_lower = [(a + 3 * d, b, d)]
    # a terminating sum of m + 1 terms: the stop rule does not apply
    got, bound, n, _ = F.pfq(kernel_upper, kernel_lower, m, w, rel_tol=0, max_terms=m + 1)
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


# Grid values: zeros, small integers and integers of more bits than the
# field's 200, with error bounds of zero or up to a thousand steps
parts = st.one_of(st.sampled_from([0, 1, -1]), st.integers(-50, 50), st.integers(-(2**260), 2**260))
fxs = st.builds(lambda re, im, err: FX(re, im, err, FIXED), parts, parts, st.floats(0, 1e3 * _STEP))


@LAWS
@given(
    sums=st.lists(fxs, min_size=1, max_size=13),
    us=st.lists(fxs, min_size=1, max_size=30),
    data=st.data(),
)
def test_fixed_fold_is_the_generic_fold(sums, us, data):
    # the fixed-point field's binomial fold forms the same products and sums
    # as ``Field.fold``, parts and error bounds alike, so every bit agrees
    lo = data.draw(st.integers(min_value=0, max_value=len(us)))
    bits = lambda xs: [(x.re, x.im, x.err) for x in xs]  # noqa: E731
    got, want = sums[:], sums[:]
    FIXED.fold(got, us, lo)
    Field.fold(FIXED, want, us, lo)
    assert bits(got) == bits(want)


finite = dict(allow_nan=False, allow_infinity=False)


def exact(x):
    """A complex double or a fixed-point value as an exact (re, im) pair."""
    if isinstance(x, FX):
        return Fraction(x.re, FIXED.scale), Fraction(x.im, FIXED.scale)
    return Fraction(x.real), Fraction(x.imag)


@LAWS
@given(
    x=st.complex_numbers(max_magnitude=1e3, **finite),
    y=st.complex_numbers(min_magnitude=1e-3, max_magnitude=1e3, **finite),
)
def test_fixed_scalars_agree_with_complex(x, y):
    # each operation lies within its own error bound of the exact result of
    # the doubles it was given, and so within 1e-15 of the complex result,
    # but for the 2^-200 grid, which a subnormal double lies below
    D = FIXED
    a, b = D.lift(x), D.lift(y)
    (xr, xi), (yr, yi) = exact(x), exact(y)
    dd = yr * yr + yi * yi
    for got, want, (er, ei), scale in (
        (a + b, x + y, (xr + yr, xi + yi), abs(x) + abs(y)),
        (a - b, x - y, (xr - yr, xi - yi), abs(x) + abs(y)),
        (a * b, x * y, (xr * yr - xi * yi, xr * yi + xi * yr), abs(x) * abs(y)),
        (a / b, x / y, ((xr * yr + xi * yi) / dd, (xi * yr - xr * yi) / dd), abs(x) / abs(y)),
    ):
        gr, gi = exact(got)
        off = (gr - er) ** 2 + (gi - ei) ** 2
        assert off <= (Fraction(got.err) / Fraction(_STEP) / D.scale) ** 2, (got, want)
        assert abs(D.lower(got) - want) <= 1e-15 * scale + math.ldexp(got.err / _STEP + 2, -D.p), (got, want)
