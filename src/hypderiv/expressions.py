"""Symbolic expression model for prefactored hypergeometric terms.

An Expr is a sum of terms; each term is a scalar coefficient times factors
drawn from z^alpha, (1-z)^alpha, e^{+-z} and a single pFq whose argument is
z, -z or z/(z-1).  This covers every side of the differentiation identities
handled by this package.  Expressions evaluate as Taylor jets, which is how
n-th derivatives are obtained.  There is one term path: ``_term_jet`` forms a
term's product jet in the field of the variable jet (complex, exact Fraction,
or the fixed point of its own rerun, which ``jets.rerun`` runs and checks),
each pFq factor by ``jet_pfq`` in that field, and ``_expr_jet`` sums the
terms with each coefficient rounded once.  The value at a point,
``eval_expr``, is the order-0 coefficient of that sum.
"""

from __future__ import annotations

import cmath
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from operator import mul
from typing import Optional, Union

from .core import (
    DEFAULT_CONTROL,
    EvalControl,
    Exact,
    HypSpec,
    ParamLike,
    Parameter,
    evaluate,  # not called here; kept for bench/tracing.HOOKS, which wraps this binding
    param,
)
from .errors import BranchPointEvaluation, NoConvergence
from .jets import (
    COMPLEX,
    FRACTION,
    Jet,
    d_variable,
    derivative,
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
    rerun,
)


class ArgMap(Enum):
    """Inner argument of a pFq factor as a function of z."""

    IDENTITY = "identity"
    NEGATE = "negate"
    PFAFF = "pfaff"  # w = z/(z-1); requires z != 1


def map_jet(m: ArgMap, var: Jet) -> Jet:
    if m is ArgMap.IDENTITY:
        return var
    if m is ArgMap.NEGATE:
        return jet_scale(var, -1)
    if var.base_point == 1:
        raise BranchPointEvaluation("Pfaff argument z/(z-1) undefined at z=1")
    den = jet_add(var, jet_constant(-1, var.base_point, var.order, var.field))
    return jet_div(var, den)


@dataclass(frozen=True)
class PowZ:
    alpha: Parameter


@dataclass(frozen=True)
class PowOneMinusZ:
    alpha: Parameter


@dataclass(frozen=True)
class ExpZ:
    sign: int


@dataclass(frozen=True)
class Hyp:
    spec: HypSpec
    map: ArgMap = ArgMap.IDENTITY


Factor = Union[PowZ, PowOneMinusZ, ExpZ, Hyp]
Point = Union[complex, Fraction]


@dataclass(frozen=True)
class Term:
    coeff: Union[Exact, complex]
    factors: tuple[Factor, ...]


@dataclass(frozen=True)
class Expr:
    terms: tuple[Term, ...]


def powz(alpha: ParamLike) -> PowZ:
    return PowZ(param(alpha))


def pow1mz(alpha: ParamLike) -> PowOneMinusZ:
    return PowOneMinusZ(param(alpha))


def expz(sign: int) -> ExpZ:
    if sign not in (1, -1):
        raise ValueError("sign must be +1 or -1")
    return ExpZ(sign)


def hyp(spec: HypSpec, m: ArgMap = ArgMap.IDENTITY) -> Hyp:
    return Hyp(spec, m)


def term(coeff: Union[Exact, complex], *factors: Factor) -> Term:
    """A term; an int or Fraction coefficient stays exact."""
    return Term(coeff if type(coeff) in (int, Fraction) else complex(coeff), tuple(factors))


def expr(*terms: Term) -> Expr:
    return Expr(tuple(terms))


def _jet_cpow(base: Jet, alpha: Parameter) -> Jet:
    """base**alpha: an exact integer power by products, any other on the
    principal branch.  At a base value of 0 a negative integer or non-integer
    power raises ``BranchPointEvaluation``, in every field and at every order."""
    k = alpha.integer
    if not base.coeffs[0] and (k is None or k < 0):
        raise BranchPointEvaluation(f"power {alpha} at its branch point, a base value of 0")
    if k is not None:
        return jet_ipow(base, k)
    return jet_pow(base, alpha.value if alpha.exact is None else alpha.exact)


def _factor_jet(f: Factor, var: Jet, ctrl: EvalControl) -> Jet:
    """Jet of one factor over the field of ``var``, the variable jet."""
    if isinstance(f, PowZ):
        return _jet_cpow(var, f.alpha)
    if isinstance(f, PowOneMinusZ):
        one = jet_constant(1, var.base_point, var.order, var.field)
        return _jet_cpow(jet_add(one, jet_scale(var, -1)), f.alpha)
    if isinstance(f, ExpZ):
        return jet_exp(var, f.sign)
    return jet_pfq(f.spec, map_jet(f.map, var), ctrl)


def _term_jet(t: Term, var: Jet, ctrl: EvalControl) -> Jet:
    """Product jet of one term over the field of ``var``, the variable jet.

    In the complex field at order >= 1 a nonnegative magnitude convolution
    is carried alongside the product and handed to ``rerun`` with it: if its
    bound dwarfs a coefficient of the result, the Leibniz sums cancelled
    heavily and the term is rerun from the fixed-point variable jet, its pFq
    factors too.  A product of scalars (order 0) cannot cancel, and the
    other fields are the reruns and exact jets, so they carry no magnitudes.
    """
    order = var.order
    guard = order and var.field is COMPLEX
    acc = jet_constant(t.coeff, var.base_point, order, var.field)
    mags = [abs(complex(t.coeff))] + [0.0] * order if guard else None
    for f in t.factors:
        fj = _factor_jet(f, var, ctrl)
        acc = jet_mul(acc, fj)
        if guard:
            fm = [abs(x) for x in fj.coeffs]
            mags = [sum(map(mul, mags[: i + 1], fm[i::-1])) for i in range(order + 1)]
    compute = lambda f: _term_jet(t, d_variable(var.base_point, order, f), ctrl)  # noqa: E731
    vals = rerun(compute, mags, acc.coeffs, lambda i: 0.0)
    return acc if vals is acc.coeffs else Jet(var.base_point, tuple(vals))


def _expr_jet(e: Expr, var: Jet, ctrl: EvalControl) -> Jet:
    """Sum of the term jets over the field of ``var``, each coefficient
    rounded once (``csum`` in ``COMPLEX``, exact in ``FRACTION``).  A term
    with coefficient 0 is skipped unevaluated; no term gives the zero jet.

    A product or sum that overflows, or in ``COMPLEX`` a term coefficient
    that is not finite (checked before the sum), raises ``NoConvergence``:
    the oracle returns a finite value or none.
    """
    field = var.field
    total = field.total or (lambda col: sum(col, field.zero))
    try:
        jets = [_term_jet(t, var, ctrl).coeffs for t in e.terms if t.coeff != 0]
        if field is COMPLEX and not all(all(map(cmath.isfinite, j)) for j in jets):
            raise NoConvergence("expression term overflowed: a coefficient is not finite")
        cols = zip(*jets) if jets else [()] * (var.order + 1)
        sums = tuple(map(total, cols))
    except OverflowError as exc:
        raise NoConvergence(f"expression overflowed: {exc}") from None
    return Jet(var.base_point, sums, field)


def eval_expr(e: Expr, z: Point, ctrl: Optional[EvalControl] = None) -> complex:
    """Numeric value of the expression at z: the order-0 coefficient of its
    complex jet, as ``eval_expr_jet`` sums it, so a complex also at a
    ``Fraction`` z (one beyond the double range raises ``ValueError``).
    """
    return _expr_jet(e, jet_variable(z, 0), ctrl or DEFAULT_CONTROL).coeffs[0]


def eval_expr_jet(e: Expr, z0: Point, order: int, ctrl: Optional[EvalControl] = None) -> Jet:
    """Taylor jet of the expression around z0, truncated at ``order``.

    At a ``Fraction`` z0 it is exact, in ``FRACTION``, for real terms: up to
    series truncated 1e-34 below their sums, and non-integer powers, whose
    leading value is a double.
    """
    var = jet_variable(z0, order, FRACTION if isinstance(z0, Fraction) else COMPLEX)
    return _expr_jet(e, var, ctrl or DEFAULT_CONTROL)


def nth_derivative(e: Expr, n: int, z0: Point, ctrl: Optional[EvalControl] = None) -> Point:
    """d^n/dz^n of the expression at z0, computed through jet arithmetic
    (a ``Fraction`` at a ``Fraction`` z0, exact).  A complex n! c_n past the
    double range raises ``NoConvergence``, as a coefficient past it does."""
    jet = eval_expr_jet(e, z0, n, ctrl)
    try:
        d = derivative(jet, n)
        if jet.field is FRACTION or cmath.isfinite(d):
            return d
    except OverflowError:
        pass
    raise NoConvergence(f"derivative {n} overflowed: it is beyond the double range")


def format_expr(e: Expr) -> str:
    """Plain-text serialization, one term per line.

    Grammar (space-separated tokens)::

        line   := coeff factor*
        factor := 'powz' param | 'pow1mz' param | 'exp' ('+'|'-')
                | 'pfq' p q param*p ';' param*q map
        map    := 'identity' | 'negate' | 'pfaff'

    Exact parameters print as bare integers or as p/q, numeric ones as
    floats (or re+imj for complex values).  A coefficient prints as its
    complex double, exact or not.
    """
    lines = []
    for t in e.terms:
        toks = [str(param(complex(t.coeff)))]
        for f in t.factors:
            if isinstance(f, PowZ):
                toks += ["powz", str(f.alpha)]
            elif isinstance(f, PowOneMinusZ):
                toks += ["pow1mz", str(f.alpha)]
            elif isinstance(f, ExpZ):
                toks += ["exp", "+" if f.sign > 0 else "-"]
            else:
                toks += ["pfq", str(f.spec.p), str(f.spec.q)]
                toks += [str(x) for x in f.spec.upper]
                toks.append(";")
                toks += [str(x) for x in f.spec.lower]
                toks.append(f.map.value)
        lines.append(" ".join(toks))
    return "\n".join(lines)
