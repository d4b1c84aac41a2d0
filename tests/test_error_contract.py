"""The oracle's error contract, fuzzed over random expressions.

``eval_expr`` and ``nth_derivative`` return a finite value, or raise a
``HypDerivError`` (or a ``ValueError``, for invalid input).  A value they
return is not a sum that cancelled silently: on a subsample it lies within
BOUND of mpmath at 40 digits, relative to its modulus.  Two guards may
each let a sum through below kappa 1e4 (a series' coefficient, then the
expression's sum over its terms' majorants), over terms rounded to about
1e-14, so BOUND is 1e4 * 1e4 * 1e-14.

The expressions are sums of random terms (coefficient, powers of z and of
1 - z, e^{+-z}, one pFq at z, -z or z/(z-1)) at points 1e-12 <= |z| <= 0.45,
and orders up to 4.  Two shapes cancel across terms: a term beside its
negation scaled by 1 + 10^-k, and e^{+-z} less its Taylor polynomial, the
shape of e^z - 1 - z.  A double sum of either is off by up to its kappa in
ulps, which the expression guard must rerun or refuse.

The other public entries keep the same contract on finite inputs of any
size, from 1e-320 to 1e308: each ``jet_*`` operation returns a jet whose
coefficients are finite, and ``evaluate`` a finite value, or they raise.
"""

import cmath
import math
from fractions import Fraction

import mpmath
from hypothesis import given, settings
from hypothesis import strategies as st

from hypderiv.core import HypSpec, evaluate
from hypderiv.errors import HypDerivError
from hypderiv.expressions import (
    ArgMap,
    ExpZ,
    Hyp,
    PowOneMinusZ,
    PowZ,
    eval_expr,
    expr,
    expz,
    hyp,
    nth_derivative,
    pow1mz,
    powz,
    term,
)
from hypderiv.jets import (
    Jet,
    jet_add,
    jet_constant,
    jet_div,
    jet_exp,
    jet_ipow,
    jet_mul,
    jet_pfq,
    jet_pow,
    jet_scale,
    jet_variable,
)

BOUND = 1e-6


def _dyadic(lo: float, hi: float, bits: int = 10):
    return st.integers(int(lo * 2**bits), int(hi * 2**bits)).map(lambda k: k / 2**bits)


alphas = st.one_of(st.integers(-2, 3), _dyadic(-2.5, 2.5))
specs = st.integers(0, 2).flatmap(
    lambda q: st.builds(
        HypSpec.of,
        st.lists(_dyadic(-2.5, 2.5), max_size=q + 1),
        st.lists(_dyadic(0.25, 3.5), min_size=q, max_size=q),
    )
)
factors = st.one_of(
    st.builds(powz, alphas),
    st.builds(pow1mz, alphas),
    st.builds(expz, st.sampled_from([1, -1])),
)
coeffs = st.builds(complex, _dyadic(-4, 4, 6), _dyadic(-4, 4, 6))


@st.composite
def terms(draw):
    fs = draw(st.lists(factors, max_size=2))
    if draw(st.booleans()):
        fs.append(draw(st.builds(hyp, specs, st.sampled_from(list(ArgMap)))))
    return term(draw(coeffs), *draw(st.permutations(fs)))


@st.composite
def expressions(draw):
    # random terms, beside one of two shapes that cancel or alone
    shape = draw(st.sampled_from(["pair", "taylor", None]))
    ts = draw(st.lists(terms(), min_size=shape != "taylor", max_size=2 if shape else 3))
    if shape == "pair":
        # a term and its negation scaled by 1 + 10^-k
        t, k = ts[0], draw(st.integers(1, 15))
        ts.append(term(-(1 + 10.0**-k) * complex(t.coeff), *t.factors))
    elif shape == "taylor":
        # e^{sz} less its Taylor polynomial of degree m - 1
        s, m = draw(st.sampled_from([1, -1])), draw(st.integers(1, 3))
        ts += [term(1, expz(s))] + [term(Fraction(-(s**j), math.factorial(j)), powz(j)) for j in range(m)]
    return expr(*draw(st.permutations(ts)))


# off the negative real axis, where z^alpha has its cut, and inside the
# disk where every argument map's series converges
points = st.builds(
    cmath.rect,
    st.floats(0.35, 12).map(lambda u: 10**-u),
    st.one_of(st.just(0.0), st.floats(-3, 3)),
)


def _mp(x):
    x = x.value if x.exact is None else x.exact
    return mpmath.mpf(x.numerator) / x.denominator if isinstance(x, (int, Fraction)) else mpmath.mpmathify(x)


def _mp_factor(f, z):
    if isinstance(f, PowZ):
        return z ** _mp(f.alpha)
    if isinstance(f, PowOneMinusZ):
        return (1 - z) ** _mp(f.alpha)
    if isinstance(f, ExpZ):
        return mpmath.exp(f.sign * z)
    w = {ArgMap.IDENTITY: z, ArgMap.NEGATE: -z, ArgMap.PFAFF: z / (z - 1)}[f.map]
    return mpmath.hyper([_mp(a) for a in f.spec.upper], [_mp(b) for b in f.spec.lower], w)


def _mp_term(t, z):
    c = t.coeff
    out = mpmath.mpf(c.numerator) / c.denominator if isinstance(c, (int, Fraction)) else mpmath.mpmathify(c)
    for f in t.factors:
        out *= _mp_factor(f, z)
    return out


def _reference(e, z0, n):
    """d^n/dz^n of ``e`` at z0 by mpmath at 40 digits, and the sum of its
    terms' moduli at z0, which scales the reference's own error."""
    with mpmath.workdps(40):
        z = mpmath.mpmathify(z0)
        want = mpmath.diff(lambda x: mpmath.fsum(_mp_term(t, x) for t in e.terms), z, n)
        return complex(want), float(sum(abs(_mp_term(t, z)) for t in e.terms))


@settings(max_examples=300, deadline=None, derandomize=True)
@given(e=expressions(), z0=points, n=st.integers(0, 4), check=st.booleans())
def test_finite_or_raises_and_within_bound(e, z0, n, check):
    try:
        got = nth_derivative(e, n, z0) if n else eval_expr(e, z0)
    except (HypDerivError, ValueError):
        return
    assert cmath.isfinite(got)
    if check:
        want, scale = _reference(e, z0, n)
        assert abs(got - want) <= BOUND * abs(want) + 1e-30 * scale, (got, want)


# finite doubles of any size, among moderate ones
sizes = st.one_of(
    st.floats(-4, 4),
    st.builds(lambda m, e: m * 10.0**e, st.floats(-1, 1), st.integers(-320, 308)),
)
scalars = st.builds(complex, sizes, sizes)

JET_OPS = {
    "jet_add": lambda a, b, s, k, spec: jet_add(a, b),
    "jet_scale": lambda a, b, s, k, spec: jet_scale(a, s),
    "jet_mul": lambda a, b, s, k, spec: jet_mul(a, b),
    "jet_div": lambda a, b, s, k, spec: jet_div(a, b),
    "jet_exp": lambda a, b, s, k, spec: jet_exp(a, 1 if k >= 0 else -1),
    "jet_pow": lambda a, b, s, k, spec: jet_pow(a, s),
    "jet_ipow": lambda a, b, s, k, spec: jet_ipow(a, k),
    "jet_pfq": lambda a, b, s, k, spec: jet_pfq(spec, a),
    "jet_constant": lambda a, b, s, k, spec: jet_constant(s, a.base_point, a.order),
    "jet_variable": lambda a, b, s, k, spec: jet_variable(s, a.order),
}


@st.composite
def jet_pairs(draw):
    order, z0 = draw(st.integers(0, 4)), draw(scalars)
    coeffs = st.lists(scalars, min_size=order + 1, max_size=order + 1)
    return Jet(z0, tuple(draw(coeffs))), Jet(z0, tuple(draw(coeffs)))


@settings(max_examples=500, deadline=None, derandomize=True)
@given(op=st.sampled_from(sorted(JET_OPS)), ab=jet_pairs(), s=scalars, k=st.integers(-4, 6), spec=specs)
def test_jet_operations_finite_or_raise(op, ab, s, k, spec):
    try:
        got = JET_OPS[op](*ab, s, k, spec)
    except (HypDerivError, ValueError):
        return
    assert all(map(cmath.isfinite, got.coeffs)), (op, got)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(spec=specs, z=scalars)
def test_evaluate_finite_or_raises(spec, z):
    try:
        got = evaluate(spec, z)
    except (HypDerivError, ValueError):
        return
    assert cmath.isfinite(got.value), got
