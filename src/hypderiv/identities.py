"""Engine for the n-th derivative of z^r pFq(a; b; z).

Builds the right-hand side expression for each of the three branches of the
master identity (generic r, exact r in 0..n, exact negative r), applies the
cancellation reduction that removes equal upper/lower parameter pairs, and
names the specialized form it lands on.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from typing import Callable, Optional

from .core import (
    HypSpec,
    ParamLike,
    Parameter,
    param,
    pochhammer,
    pochhammer_vec,
    validate_spec,
    values_equal,
)
from .errors import SingularCoefficient
from .expressions import Expr, Hyp, Term, hyp, powz, term


class RBranch(Enum):
    GENERAL = "general"  # r not an exact integer below n
    EXCEPTIONAL = "exceptional"  # r exactly 0..n (r = n reported general)
    NEGATIVE_INTEGER = "negative-integer"


@dataclass(frozen=True)
class IdentityForm:
    name: str
    rhs: Expr
    branch: RBranch


def branch_holds(branch: RBranch, r: Parameter, n: int) -> bool:
    """Whether the case line of ``branch`` holds at the power exponent r.

    The general line holds unless r is an exact integer below n, the
    exceptional line at exact r = 0..n, the negative-integer line at exact
    r < 0.  The general and exceptional lines overlap at r = n, where both
    give the same value; at r = c-1 this is the overlap of the two Th1-4
    lines at c = n+1.
    """
    k = r.integer
    if branch is RBranch.GENERAL:
        return k is None or k >= n
    if branch is RBranch.EXCEPTIONAL:
        return k is not None and 0 <= k <= n
    return k is not None and k < 0


def classify_r(r: ParamLike, n: int) -> RBranch:
    """Branch of the master identity for the power exponent r.

    The first line that holds, so the overlap r = n reports general.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    r = param(r)
    return next(b for b in RBranch if branch_holds(b, r, n))


def _shift_vec(v: tuple[Parameter, ...], k: int) -> tuple[Parameter, ...]:
    return tuple(x + k for x in v)


def theorem_general_term(
    upper: tuple[Parameter, ...],
    lower: tuple[Parameter, ...],
    r: Parameter,
    n: int,
    *,
    upper0: Optional[Parameter] = None,
    lower0: Optional[Parameter] = None,
) -> Optional[Term]:
    """(r-n+1)_n z^{r-n} F(r+1, a; r-n+1, b; z) as a Term.

    ``upper0``/``lower0`` override the derived slots r+1 and r-n+1 with a
    source parameter (same value) so that a later cancellation matches the
    source bitwise.  Returns None when the prefactor vanishes exactly.
    """
    up0 = upper0 if upper0 is not None else r + 1
    low0 = lower0 if lower0 is not None else r + (1 - n)
    coeff = pochhammer(low0, n)
    if coeff == 0:
        return None
    spec = HypSpec((up0,) + upper, (low0,) + lower)
    validate_spec(spec)
    return term(coeff, powz(low0 - 1), hyp(spec))


def theorem_exceptional_term(
    upper: tuple[Parameter, ...],
    lower: tuple[Parameter, ...],
    r_int: int,
    n: int,
) -> Optional[Term]:
    """n!/(n-r)! (a)_{n-r}/(b)_{n-r} F(n+1, a+n-r; n-r+1, b+n-r; z).

    The factorial ratio is computed as the Pochhammer product (n-r+1)_r,
    which also covers negative r through the reciprocal extension.  An
    exact upper parameter 1 is the Th1-5 case: its shifted slot n-r+1
    cancels the lower n-r+1, and (n-r+1)_r (1)_{n-r} = n! is folded exactly,
    leaving n! (a')_{n-r}/(b)_{n-r} F(n+1, a'+n-r; b+n-r; z) over the other
    upper parameters a'.  Returns None when the prefactor vanishes exactly.
    """
    s = n - r_int
    den = pochhammer_vec(lower, s)
    if den == 0:
        raise SingularCoefficient(f"(b)_{s} vanishes in the exceptional prefactor")
    one = next((i for i, a in enumerate(upper) if a.exact == 1), None)
    if one is None:
        coeff = pochhammer(s + 1, r_int) * pochhammer_vec(upper, s) / den
        lower0: tuple[Parameter, ...] = (param(s + 1),)
    else:
        upper = upper[:one] + upper[one + 1 :]
        coeff = math.factorial(n) * pochhammer_vec(upper, s) / den
        lower0 = ()
    if coeff == 0:
        return None
    spec = HypSpec(
        (param(n + 1),) + _shift_vec(upper, s),
        lower0 + _shift_vec(lower, s),
    )
    validate_spec(spec)
    return term(coeff, hyp(spec))


def line_terms(
    branch: RBranch,
    general: Callable[[], Optional[Term]],
    exceptional: Callable[[], Optional[Term]],
) -> tuple[Term, ...]:
    """The terms of the case line of ``branch``, general term first.

    The general and negative-integer lines carry the general term, the
    exceptional and negative-integer lines the exceptional one.  Each
    builder is called only on a line that carries its term and may return
    None for a prefactor that vanishes exactly.
    """
    terms: list[Optional[Term]] = []
    if branch in (RBranch.GENERAL, RBranch.NEGATIVE_INTEGER):
        terms.append(general())
    if branch in (RBranch.EXCEPTIONAL, RBranch.NEGATIVE_INTEGER):
        terms.append(exceptional())
    return tuple(t for t in terms if t is not None)


def _branch_terms(
    spec: HypSpec,
    r: Parameter,
    n: int,
    branch: RBranch,
    *,
    upper0: Optional[Parameter] = None,
    lower0: Optional[Parameter] = None,
) -> tuple[Term, ...]:
    return line_terms(
        branch,
        lambda: theorem_general_term(spec.upper, spec.lower, r, n, upper0=upper0, lower0=lower0),
        lambda: theorem_exceptional_term(spec.upper, spec.lower, r.exact, n),  # type: ignore[arg-type]
    )


def theorem1_rhs(spec: HypSpec, r: ParamLike, n: int) -> IdentityForm:
    """Right-hand side of d^n/dz^n [z^r pFq(a; b; z)] for the branch of r."""
    r = param(r)
    validate_spec(spec)
    branch = classify_r(r, n)
    return IdentityForm("Th1-1", Expr(_branch_terms(spec, r, n, branch)), branch)


def reduce_cancellation(spec: HypSpec) -> HypSpec:
    """Repeatedly drop the first upper/lower pair with equal values.

    Equal exact integers and bitwise-equal numerics (as produced from a
    shared source parameter) cancel; the reduction is idempotent once no
    pair remains.
    """
    upper = list(spec.upper)
    lower = list(spec.lower)
    changed = True
    while changed:
        changed = False
        for i, a in enumerate(upper):
            for j, b in enumerate(lower):
                if values_equal(a, b):
                    del upper[i]
                    del lower[j]
                    changed = True
                    break
            if changed:
                break
    return HypSpec(tuple(upper), tuple(lower))


def _reduce_expr(e: Expr) -> Expr:
    out = []
    for t in e.terms:
        factors = tuple(
            Hyp(reduce_cancellation(f.spec), f.map) if isinstance(f, Hyp) else f
            for f in t.factors
        )
        out.append(Term(t.coeff, factors))
    return Expr(tuple(out))


def specialize(spec: HypSpec, r: ParamLike, n: int) -> IdentityForm:
    """Build the branch RHS, cancel, and name the specialized identity.

    Detected relations (r = b_j - 1, r = a_j + n - 1, r = 0, an exact upper
    parameter 1) select the name; for numeric sources the derived parameter
    slot is aliased to the source parameter so the cancellation fires even
    when float shift arithmetic does not round-trip.
    """
    r = param(r)
    validate_spec(spec)
    branch = classify_r(r, n)

    b_idx = next(
        (j for j, b in enumerate(spec.lower) if (b + (-1)).value == r.value), None
    )
    a_idx = next(
        (j for j, a in enumerate(spec.upper) if (a + (n - 1)).value == r.value), None
    )
    has_one = any(a.exact == 1 for a in spec.upper)

    name = "Th1-1"
    upper0 = lower0 = None
    if b_idx is not None and branch is RBranch.GENERAL:
        name = "Th1-4-regular"
        upper0 = spec.lower[b_idx]
        lower0 = spec.lower[b_idx] + (-n)
    elif b_idx is not None and branch is RBranch.EXCEPTIONAL:
        name = "Th1-4-exceptional"
    elif branch is RBranch.EXCEPTIONAL and r.exact == 0:
        name = "Th1-2"
    elif a_idx is not None and branch in (RBranch.GENERAL, RBranch.NEGATIVE_INTEGER):
        name = "Th1-3"
        lower0 = spec.upper[a_idx]
    elif has_one and branch is RBranch.EXCEPTIONAL:
        name = "Th1-5-exceptional"
    elif has_one and branch is RBranch.NEGATIVE_INTEGER:
        name = "Th1-5-negative"

    terms = _branch_terms(spec, r, n, branch, upper0=upper0, lower0=lower0)
    return IdentityForm(name, _reduce_expr(Expr(terms)), branch)
