"""Symbolic expression model for prefactored hypergeometric terms.

An Expr is a sum of terms; each term is a scalar coefficient times factors
drawn from z^alpha, (1-z)^alpha, e^{+-z} and a single pFq whose argument is
z, -z or z/(z-1).  This covers every side of the differentiation identities
handled by this package.  Expressions evaluate as Taylor jets, which is how
n-th derivatives are obtained; the value at a point is the order-0 jet.
"""

from __future__ import annotations

from dataclasses import dataclass
from decimal import localcontext
from enum import Enum
from fractions import Fraction
from typing import Optional, Union

from .core import (
    DEFAULT_CONTROL,
    EvalControl,
    Exact,
    HypSpec,
    ParamLike,
    Parameter,
    csum,
    evaluate,  # not called here; kept for bench/tracing.HOOKS, which wraps this binding
    param,
)
from .errors import BranchPointEvaluation
from .jets import (
    _DEC_PREC,
    _cancelled,
    DECIMAL,
    FRACTION,
    Jet,
    d_pair_to_complexes,
    d_pfq,
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
    return jet_pow(base, alpha.value)


# For the extended-precision rerun of a poorly conditioned term the series
# truncation error is amplified by the same cancellation, so the stop rule
# runs much deeper than the double-precision default.
_DEC_REL_TOL = 1e-30

# An exact series stops once three terms in a row fall this far below the
# running sum, so that the tail is far below half an ulp of the double it is
# rounded to.
_EXACT_REL_TOL = Fraction(1, 10**34)


def _factor_jet(f: Factor, var: Jet, ctrl: EvalControl) -> Jet:
    """Jet of one factor over the field of ``var``, the variable jet."""
    if isinstance(f, PowZ):
        return _jet_cpow(var, f.alpha)
    if isinstance(f, PowOneMinusZ):
        one = jet_constant(1, var.base_point, var.order, var.field)
        return _jet_cpow(jet_add(one, jet_scale(var, -1)), f.alpha)
    if isinstance(f, ExpZ):
        return jet_exp(var, f.sign)
    arg = map_jet(f.map, var)
    if var.field is DECIMAL:
        return d_pfq(f.spec, arg, ctrl, _DEC_REL_TOL)
    if var.field is FRACTION:
        vals = FRACTION.series(f.spec, arg.coeffs, _EXACT_REL_TOL, ctrl.max_terms)[0]
        return Jet(arg.base_point, tuple(vals), FRACTION)
    return jet_pfq(f.spec, arg, ctrl)


def _term_product(t: Term, var: Jet, ctrl: EvalControl) -> Jet:
    """Unguarded product jet of one term over the field of ``var``: the
    exact path, the decimal rerun and, at order 0, ``eval_expr``."""
    acc = jet_constant(t.coeff, var.base_point, var.order, var.field)
    for f in t.factors:
        acc = jet_mul(acc, _factor_jet(f, var, ctrl))
    return acc


def _term_jet_decimal(t: Term, z0: complex, order: int, ctrl: EvalControl) -> Jet:
    with localcontext() as cx:
        cx.prec = _DEC_PREC
        return Jet(z0, tuple(d_pair_to_complexes(_term_product(t, d_variable(z0, order), ctrl))))


def _term_jet(t: Term, var: Jet, ctrl: EvalControl) -> Jet:
    """Product jet for one term, with a cancellation guard.

    Alongside the product a nonnegative magnitude convolution is carried;
    if its bound dwarfs a coefficient of the result, the Leibniz sums
    cancelled heavily and the term is recomputed in extended precision.
    """
    order = var.order
    j = jet_constant(t.coeff, var.base_point, order)
    mags = [abs(complex(t.coeff))] + [0.0] * order
    for f in t.factors:
        fj = _factor_jet(f, var, ctrl)
        j = jet_mul(j, fj)
        fm = [abs(x) for x in fj.coeffs]
        mags = [
            sum(mags[k] * fm[i - k] for k in range(i + 1)) for i in range(order + 1)
        ]
    for i in range(order + 1):
        if _cancelled(mags[i], j.coeffs[i]):
            return _term_jet_decimal(t, var.base_point, order, ctrl)
    return j


def eval_expr(e: Expr, z: complex, ctrl: Optional[EvalControl] = None) -> complex:
    """Numeric value of the expression at z: its order-0 jet, so each factor
    is computed as ``eval_expr_jet`` computes it (a pFq through ``jet_pfq``,
    with its cancellation guard and rerun).  A product of scalars cannot
    cancel, so a term takes no product guard.  An empty expression gives 0.
    """
    ctrl = ctrl or DEFAULT_CONTROL
    var = jet_variable(z, 0)
    return csum([_term_product(t, var, ctrl).coeffs[0] for t in e.terms if t.coeff != 0])


def eval_expr_jet(e: Expr, z0: Point, order: int, ctrl: Optional[EvalControl] = None) -> Jet:
    """Taylor jet of the expression around z0, truncated at ``order``.

    At a ``Fraction`` z0 it is exact, in ``FRACTION``, for real terms: up to
    series truncated 1e-34 below their sums, and non-integer powers, whose
    leading value is a double.
    """
    ctrl = ctrl or DEFAULT_CONTROL
    if isinstance(z0, Fraction):
        var, term_jet = jet_variable(z0, order, FRACTION), _term_product
    else:
        var, term_jet = jet_variable(complex(z0), order), _term_jet
    acc = jet_constant(0, var.base_point, order, var.field)
    for t in e.terms:
        if t.coeff == 0:
            continue
        acc = jet_add(acc, term_jet(t, var, ctrl))
    return acc


def nth_derivative(e: Expr, n: int, z0: Point, ctrl: Optional[EvalControl] = None) -> Point:
    """d^n/dz^n of the expression at z0, computed through jet arithmetic
    (a ``Fraction`` at a ``Fraction`` z0)."""
    return derivative(eval_expr_jet(e, z0, n, ctrl), n)


def _fmt_complex(x: complex) -> str:
    if x.imag == 0:
        return repr(x.real)
    return repr(x).strip("()")


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
        toks = [_fmt_complex(complex(t.coeff))]
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
