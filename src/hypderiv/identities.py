"""Engine for the n-th derivative of z^r pFq(a; b; z).

Holds one builder per theorem line: the general and exceptional terms of
the master identity Th1-1 (Th1-5 is the same two at a leading upper
parameter 1), and the single terms of Th1-2, Th1-3 and the regular and
exceptional Th1-4 lines.  Each returns its Term, or None when the prefactor
is exactly 0; a vanishing Pochhammer denominator raises
SingularCoefficient.  ``line_terms`` is the one rule for which terms a case
line carries across the three branches of r (generic, exact 0..n, exact
negative).

One ``Theorem`` record per theorem (``TH11`` .. ``TH15``) owns its builders,
the branches that have a line, the id of each line and the LHS power of z.
Only the records call the builders: ``theorem1_rhs``, ``specialize`` and the
catalog build and name every theorem line through them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
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
from .expressions import Expr, Term, hyp, powz, term


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


Vec = tuple[Parameter, ...]


def _shift_vec(v: Vec, k: int) -> Vec:
    return tuple(x + k for x in v)


def theorem_general_term(upper: Vec, lower: Vec, r: Parameter, n: int) -> Optional[Term]:
    """Th1-1 general: (r-n+1)_n z^{r-n} F(r+1, a; r-n+1, b; z).

    At a numeric r a vanishing prefactor sits on a pole of the series (a
    lower r-n+1 at a whole number <= 0), where 0 times the pole is not known
    to be 0, so it raises SingularCoefficient.
    """
    low0 = r + (1 - n)
    coeff = pochhammer(low0, n)
    if coeff == 0:
        if r.exact is None:
            raise SingularCoefficient("(r-n+1)_n vanishes at a pole of the general series")
        return None
    spec = HypSpec((r + 1,) + upper, (low0,) + lower)
    validate_spec(spec)
    return term(coeff, powz(low0 - 1), hyp(spec))


def theorem_exceptional_term(upper: Vec, lower: Vec, r_int: int, n: int) -> Optional[Term]:
    """Th1-1 exceptional: n!/(n-r)! (a)_{n-r}/(b)_{n-r} F(n+1, a+n-r; n-r+1, b+n-r; z).

    The factorial ratio is computed as the Pochhammer product (n-r+1)_r,
    which also covers negative r through the reciprocal extension.  An
    exact upper parameter 1 is the Th1-5 case: its shifted slot n-r+1
    cancels the lower n-r+1, and (n-r+1)_r (1)_{n-r} = n! is folded exactly,
    leaving n! (a')_{n-r}/(b)_{n-r} F(n+1, a'+n-r; b+n-r; z) over the other
    upper parameters a'.
    """
    s = n - r_int
    den = pochhammer_vec(lower, s)
    if den == 0:
        raise SingularCoefficient(f"(b)_{s} vanishes in the exceptional prefactor")
    one = next((i for i, a in enumerate(upper) if a.exact == 1), None)
    if one is None:
        coeff = pochhammer(s + 1, r_int) * pochhammer_vec(upper, s) / den
        lower0: Vec = (param(s + 1),)
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


def theorem2_term(upper: Vec, lower: Vec, n: int) -> Optional[Term]:
    """Th1-2, at r = 0: (a)_n/(b)_n F(a+n; b+n; z)."""
    den = pochhammer_vec(lower, n)
    if den == 0:
        raise SingularCoefficient("(b)_n vanishes")
    coeff = pochhammer_vec(upper, n) / den
    if coeff == 0:
        return None
    spec = HypSpec(_shift_vec(upper, n), _shift_vec(lower, n))
    validate_spec(spec)
    return term(coeff, hyp(spec))


def theorem3_term(upper: Vec, lower: Vec, n: int) -> Optional[Term]:
    """Th1-3, at r = a1+n-1 for the leading upper a1: (a1)_n z^{a1-1} F(a1+n, a'; b; z)."""
    a1 = upper[0]
    coeff = pochhammer(a1, n)
    if coeff == 0:
        return None
    spec = HypSpec((a1 + n,) + upper[1:], lower)
    validate_spec(spec)
    return term(coeff, powz(a1 - 1), hyp(spec))


def theorem4_regular_term(upper: Vec, lower: Vec, n: int) -> Optional[Term]:
    """Th1-4 regular, at r = c-1 for the leading lower c: (c-n)_n z^{c-n-1} F(a; c-n, b'; z).

    The spec is checked first: at an exact c <= n the series has a pole and
    the line is singular, not zero.  At a numeric c a vanishing prefactor
    sits on the same pole and raises SingularCoefficient.
    """
    c = lower[0]
    c0 = c - n
    spec = HypSpec(upper, (c0,) + lower[1:])
    validate_spec(spec)
    coeff = pochhammer(c0, n)
    if coeff == 0:
        if c.exact is None:
            raise SingularCoefficient("(c-n)_n vanishes at a pole of the regular series")
        return None
    return term(coeff, powz(c0 - 1), hyp(spec))


def theorem4_exceptional_term(upper: Vec, lower: Vec, n: int) -> Optional[Term]:
    """Th1-4 exceptional, at an exact leading lower c, with s = n-c+1:
    (s+1)_{c-1} (a)_s/(b)_s F(a+s; s+1, b'+s; z).

    The spec is checked first: at an exact c >= n+2 the lower s+1 is an
    integer <= 0 and the line is singular.
    """
    c = lower[0].exact
    s = n - c + 1  # type: ignore[operator]
    spec = HypSpec(_shift_vec(upper, s), (param(s + 1),) + _shift_vec(lower[1:], s))
    validate_spec(spec)
    den = pochhammer_vec(lower, s)
    if den == 0:
        raise SingularCoefficient("(b)_{n-c+1} vanishes")
    coeff = pochhammer(s + 1, c - 1) * pochhammer_vec(upper, s) / den  # type: ignore[operator]
    if coeff == 0:
        return None
    return term(coeff, hyp(spec))


def line_terms(
    branch: Optional[RBranch],
    general: Callable[[], Optional[Term]],
    exceptional: Callable[[], Optional[Term]],
) -> tuple[Term, ...]:
    """The terms of the case line of ``branch``, general term first.

    The general and negative-integer lines carry the general term, the
    exceptional and negative-integer lines the exceptional one; the one line
    of a single-line family (Th1-2, Th1-3), keyed None, carries its general
    term.  Each builder is called only on a line that carries its term.
    """
    terms: list[Optional[Term]] = []
    if branch in (None, RBranch.GENERAL, RBranch.NEGATIVE_INTEGER):
        terms.append(general())
    if branch in (RBranch.EXCEPTIONAL, RBranch.NEGATIVE_INTEGER):
        terms.append(exceptional())
    return tuple(t for t in terms if t is not None)


TermBuilder = Callable[[Vec, Vec, dict], Optional[Term]]

_SUFFIX = {
    RBranch.GENERAL: "general",
    RBranch.EXCEPTIONAL: "exceptional",
    RBranch.NEGATIVE_INTEGER: "negative",
}


@dataclass(frozen=True)
class Theorem:
    """One theorem's case lines over its (upper, lower) vectors and the
    params n and r.

    The builders look up this module's functions when called, so they can
    be swapped in tests.
    """

    id: str
    var: Optional[str]  # 'r', 'c' or None: the parameter the lines branch on
    branches: tuple[Optional[RBranch], ...]  # (None,) for a single line
    # the LHS power of z at the vectors (None for none); a theorem with more
    # than one line branches on it
    power: Callable[[Vec, Vec, dict], Optional[Parameter]]
    # the term of the general line (the regular line of the Th1-4 shape, or
    # the one line of a single-line theorem) and of the exceptional line
    general: TermBuilder
    exceptional: Optional[TermBuilder] = None

    def line_id(self, branch: Optional[RBranch], family: Optional[str] = None) -> str:
        """The id of the line of ``branch`` of ``family`` (this theorem by
        default); the general line of the Th1-4 shape is its regular line."""
        stem = family or self.id
        if branch is None:
            return stem
        if self.var == "c" and branch is RBranch.GENERAL:
            return f"{stem}-regular"
        return f"{stem}-{_SUFFIX[branch]}"

    def line(self, branch: Optional[RBranch], upper: Vec, lower: Vec, p: dict) -> Expr:
        """The case line of ``branch``, as ``line_terms`` assembles it."""
        general, exceptional = self.general, self.exceptional
        return Expr(
            line_terms(
                branch,
                lambda: general(upper, lower, p),
                lambda: exceptional(upper, lower, p),  # type: ignore[misc]
            )
        )


TH11 = Theorem(
    "Th1-1", "r", tuple(RBranch),
    lambda up, lo, p: p["r"],
    lambda up, lo, p: theorem_general_term(up, lo, p["r"], p["n"]),
    lambda up, lo, p: theorem_exceptional_term(up, lo, p["r"].exact, p["n"]),
)
TH12 = Theorem(
    "Th1-2", None, (None,),
    lambda up, lo, p: None,
    lambda up, lo, p: theorem2_term(up, lo, p["n"]),
)
TH13 = Theorem(
    "Th1-3", None, (None,),
    lambda up, lo, p: up[0] + (p["n"] - 1),
    lambda up, lo, p: theorem3_term(up, lo, p["n"]),
)
TH14 = Theorem(
    "Th1-4", "c", (RBranch.GENERAL, RBranch.EXCEPTIONAL),
    lambda up, lo, p: lo[0] - 1,
    lambda up, lo, p: theorem4_regular_term(up, lo, p["n"]),
    lambda up, lo, p: theorem4_exceptional_term(up, lo, p["n"]),
)
# the Th1-1 lines at upper vectors that lead with the parameter 1
TH15 = replace(TH11, id="Th1-5", branches=(RBranch.EXCEPTIONAL, RBranch.NEGATIVE_INTEGER))


def theorem1_rhs(spec: HypSpec, r: ParamLike, n: int) -> IdentityForm:
    """Right-hand side of d^n/dz^n [z^r pFq(a; b; z)] for the branch of r."""
    r = param(r)
    validate_spec(spec)
    branch = classify_r(r, n)
    rhs = TH11.line(branch, spec.upper, spec.lower, {"r": r, "n": n})
    return IdentityForm("Th1-1", rhs, branch)


def reduce_cancellation(spec: HypSpec) -> HypSpec:
    """Drop each upper parameter, in order, with the first remaining lower
    parameter of equal value.

    Equal exact integers and bitwise-equal numerics cancel.  Dropping a lower
    parameter matches no upper one already passed, so no pair remains and
    the reduction is idempotent.
    """
    upper: list[Parameter] = []
    lower = list(spec.lower)
    for a in spec.upper:
        j = next((j for j, b in enumerate(lower) if values_equal(a, b)), None)
        if j is None:
            upper.append(a)
        else:
            del lower[j]
    return HypSpec(tuple(upper), tuple(lower))


def _to_front(v: Vec, i: int) -> Vec:
    return (v[i],) + v[:i] + v[i + 1 :]


def specialize(spec: HypSpec, r: ParamLike, n: int) -> IdentityForm:
    """Name the identity line that (spec, r, n) lands on, and build it.

    The relations are tried in this order, each on the branches of r its
    line covers: r = b_j - 1 (Th1-4, regular for a general r, exceptional
    for an exact r = 0..n-1), r = 0 (Th1-2), r = a_j + n - 1 (Th1-3) and an
    exact upper parameter 1 (Th1-5, exceptional or negative).  With none,
    the line is Th1-1's for the branch of r, named "Th1-1" on every branch.
    The matched parameter moves to the front, and the line is built and
    named by its theorem's record, as the catalog builds and names it.  An
    upper/lower pair already equal in ``spec`` is kept.
    """
    r = param(r)
    validate_spec(spec)
    branch = classify_r(r, n)
    upper, lower = spec.upper, spec.lower

    b_idx = next((j for j, b in enumerate(lower) if (b + (-1)).value == r.value), None)
    a_idx = next((j for j, a in enumerate(upper) if (a + (n - 1)).value == r.value), None)
    one_idx = next((j for j, a in enumerate(upper) if a.exact == 1), None)

    th, line = TH11, branch
    if b_idx is not None and branch is not RBranch.NEGATIVE_INTEGER:
        th = TH14
        lower = _to_front(lower, b_idx)
        if branch is RBranch.EXCEPTIONAL:  # a numeric b = r+1 becomes the exact c
            lower = (param(r.integer + 1),) + lower[1:]  # type: ignore[operator]
    elif branch is RBranch.EXCEPTIONAL and r.exact == 0:
        th, line = TH12, None
    elif a_idx is not None and branch is not RBranch.EXCEPTIONAL:
        th, line = TH13, None
        upper = _to_front(upper, a_idx)
    elif one_idx is not None and branch is not RBranch.GENERAL:
        th = TH15
        upper = _to_front(upper, one_idx)
    name = "Th1-1" if th is TH11 else th.line_id(line)
    return IdentityForm(name, th.line(line, upper, lower, {"r": r, "n": n}), branch)
