"""Catalog of differentiation identities with a random-draw verifier.

Each displayed case line of the identity family (Th1-1..Th1-5 for general
pFq, Co1-1..Co1-5 for 1F1 with an e^{-z} prefactor, Co2-1..Co2-10 for 2F1
with power prefactors) is one catalog entry: an applicability predicate plus
literal LHS/RHS expression builders.  ``verify_entry`` draws admissible
random parameters and checks the RHS against the jet-oracle n-th derivative
of the LHS.

The entries are generated from ``_TABLE``, one row per identity family.  A
row gives the family's parameters, its LHS, its literal RHS and, for a
corollary, the theorem family and Kummer-type transform it comes from.  Its
case lines are keyed by ``RBranch`` and take their applicability from
``identities.branch_holds``.

The Kummer-type rewrites (exponential, Euler, Pfaff) are provided both as
expression transforms and as the composition machinery that rebuilds each
corollary RHS mechanically from its theorem-line source.  No literal
corollary RHS is built by the theorem-line builders the composition uses,
so comparing the two is a check of the corollary.
"""

from __future__ import annotations

import cmath
import math
import random
from dataclasses import dataclass
from typing import Callable, Optional, Sequence

from .core import (
    DEFAULT_CONTROL,
    EvalControl,
    HypSpec,
    Parameter,
    param,
    pochhammer,
    pochhammer_vec,
    validate_spec,
)
from .errors import NotApplicable, SingularCoefficient
from .expressions import (
    ArgMap,
    ExpZ,
    Expr,
    Factor,
    Hyp,
    PowOneMinusZ,
    PowZ,
    Term,
    eval_expr,
    expr,
    expz,
    hyp,
    nth_derivative,
    pow1mz,
    powz,
    term,
)
from .identities import (
    RBranch,
    _branch_terms,
    _shift_vec,
    branch_holds,
    line_terms,
    theorem_exceptional_term,
    theorem_general_term,
)

Z_POINTS = (0.2, 1 / 3, 0.7)
# z/(z-1) leaves the unit disk for z > 1/2, so Pfaff-argument entries are
# verified on the first two sample points only.
Z_POINTS_PFAFF = (0.2, 1 / 3)

_ONE = param(1)


@dataclass(frozen=True)
class IdentityEntry:
    """One displayed identity line: predicate plus LHS/RHS builders."""

    id: str
    applicable: Callable[[dict], bool]
    lhs: Callable[[dict], Expr]
    rhs: Callable[[dict], Expr]
    draw: Callable[[random.Random], dict]
    z_points: tuple[float, ...] = Z_POINTS


@dataclass(frozen=True)
class VerifyReport:
    id: str
    trials: int
    max_rel_err: float
    failures: tuple
    seed: int
    tol: float

    @property
    def passed(self) -> bool:
        return not self.failures


# ---------------------------------------------------------------------------
# random parameter draws

_BAND = 1e-3  # half-width of the excluded band around integers


def _off_integers(x: complex) -> bool:
    xc = complex(x)
    return abs(xc - round(xc.real)) > _BAND


def _cplx(rng: random.Random) -> complex:
    return complex(rng.uniform(-2.0, 2.0), rng.uniform(-2.0, 2.0))


def _draw_complexes(rng: random.Random, names: Sequence[str], derived=None) -> dict[str, Parameter]:
    """Draw the complex parameters ``names``, all integer-banded, and keep
    any ``derived`` combinations of their values off the integers as well."""
    while True:
        xs = {k: _cplx(rng) for k in names}
        checks = list(xs.values())
        if derived is not None:
            checks += derived(xs)
        if all(_off_integers(v) for v in checks):
            return {k: param(x) for k, x in xs.items()}


def _draw_real_nonint(rng: random.Random) -> Parameter:
    while True:
        x = rng.uniform(-2.0, 2.0)
        if abs(x - round(x)) > _BAND:
            return param(x)


def _draw_n(rng: random.Random) -> int:
    return rng.randint(1, 5)


def _draw_exponent(rng: random.Random, branch: RBranch, n: int, r_min: int = 0) -> Parameter:
    """A power exponent r on the case line of ``branch``: a generic real,
    an exact integer in r_min..n, or an exact negative integer."""
    if branch is RBranch.GENERAL:
        return _draw_real_nonint(rng)
    if branch is RBranch.EXCEPTIONAL:
        return param(rng.randint(r_min, n))
    return param(rng.randint(-3, -1))


# ---------------------------------------------------------------------------
# theorem-line RHS builders over explicit parameter vectors
#
# These take raw upper/lower vectors so the corollary composition can reuse
# them at substituted parameters.  Terms whose prefactor vanishes exactly are
# dropped (degenerate cases where the line loses a term); a vanishing
# Pochhammer denominator raises SingularCoefficient.

Vec = tuple[Parameter, ...]


def _nonzero(den: complex, name: str) -> complex:
    if den == 0:
        raise SingularCoefficient(f"{name} vanishes")
    return den


def _terms_th12(upper: Vec, lower: Vec, n: int) -> tuple[Term, ...]:
    den = _nonzero(pochhammer_vec(lower, n), "(b)_n")
    coeff = pochhammer_vec(upper, n) / den
    if coeff == 0:
        return ()
    hs = HypSpec(_shift_vec(upper, n), _shift_vec(lower, n))
    validate_spec(hs)
    return (term(coeff, hyp(hs)),)


def _terms_th13(a1: Parameter, rest_upper: Vec, lower: Vec, n: int) -> tuple[Term, ...]:
    coeff = pochhammer(a1, n)
    if coeff == 0:
        return ()
    hs = HypSpec((a1 + n,) + rest_upper, lower)
    validate_spec(hs)
    return (term(coeff, powz(a1 - 1), hyp(hs)),)


def _terms_th14_regular(upper: Vec, lower: Vec, n: int) -> tuple[Term, ...]:
    # validate before the zero-coefficient drop: at exact b1 <= n the line is
    # singular (a pole of the series), not zero
    b1, rest = lower[0], lower[1:]
    c0 = b1 - n
    hs = HypSpec(upper, (c0,) + rest)
    validate_spec(hs)
    coeff = pochhammer(c0, n)
    if coeff == 0:
        return ()
    return (term(coeff, powz(c0 - 1), hyp(hs)),)


def _terms_th14_exceptional(upper: Vec, lower: Vec, n: int) -> tuple[Term, ...]:
    # as above: at exact b1 >= n+2 the lower parameter n-b1+2 is a
    # nonpositive integer and the line is singular
    b1 = lower[0]
    s = n - b1.exact + 1  # type: ignore[operator]
    hs = HypSpec(_shift_vec(upper, s), (param(s + 1),) + _shift_vec(lower[1:], s))
    validate_spec(hs)
    den = _nonzero(pochhammer_vec(lower, s), "(b)_{n-b1+1}")
    coeff = pochhammer(s + 1, b1.exact - 1) * pochhammer_vec(upper, s) / den  # type: ignore[operator]
    if coeff == 0:
        return ()
    return (term(coeff, hyp(hs)),)


def _terms_th15_main(rest_upper: Vec, lower: Vec, r_int: int, n: int) -> tuple[Term, ...]:
    # the Th1-1 exceptional term at a1 = 1, which cancels its n-r+1 pair
    t = theorem_exceptional_term((_ONE,) + rest_upper, lower, r_int, n)
    return () if t is None else (t,)


def _terms_th15_negative(rest_upper: Vec, lower: Vec, r_int: int, n: int) -> tuple[Term, ...]:
    out = list(_terms_th15_main(rest_upper, lower, r_int, n))
    g = theorem_general_term((_ONE,) + rest_upper, lower, param(r_int), n)
    if g is not None:
        out.append(g)
    return tuple(out)


# ---------------------------------------------------------------------------
# literal corollary RHS builders
#
# Written out at the corollary's own parameters, independently of the
# theorem-line builders above.  Every corollary has the single lower
# parameter c.


def _kummer_general(amap: ArgMap, upper: Vec, p: dict) -> Optional[Term]:
    """(r-n+1)_n z^{r-n} F(r+1, upper; r-n+1, c) at the argument ``amap``.

    At z/(z-1) the line carries the prefactor (1-z)^{-r-1}.
    """
    r, n, c = p["r"], p["n"], p["c"]
    low0 = r + (1 - n)
    coeff = pochhammer(low0, n)
    if coeff == 0:
        return None
    hs = HypSpec((r + 1,) + upper, (low0, c))
    validate_spec(hs)
    pre = (pow1mz(-(r + 1)),) if amap is ArgMap.PFAFF else ()
    return term(coeff, powz(r - n), *pre, hyp(hs, amap))


def _kummer_exceptional(amap: ArgMap, upper: Vec, p: dict) -> Optional[Term]:
    """(+-1) (s+1)_r (upper)_s / (c)_s F(n+1, upper+s; s+1, c+s) at ``amap``, s = n-r.

    The sign (-1)^s and, at z/(z-1), the prefactor (1-z)^{-n-1} come from
    the substituted argument; at z itself there is neither.
    """
    r, n, c = p["r"].exact, p["n"], p["c"]
    s = n - r
    den = _nonzero(pochhammer(c, s), "(c)_{n-r}")
    coeff = pochhammer(s + 1, r)
    if amap is not ArgMap.IDENTITY:
        coeff = (-1) ** (s % 2) * coeff
    for x in upper:
        coeff = coeff * pochhammer(x, s)
    coeff = coeff / den
    if coeff == 0:
        return None
    hs = HypSpec((param(n + 1),) + _shift_vec(upper, s), (param(s + 1), c + s))
    validate_spec(hs)
    pre = (pow1mz(-(n + 1)),) if amap is ArgMap.PFAFF else ()
    return term(coeff, *pre, hyp(hs, amap))


def _kummer_terms(amap: ArgMap, upper: Vec, p: dict, branch: RBranch) -> tuple[Term, ...]:
    """The Th1-1-shape case line of ``branch`` at the argument ``amap``."""
    return line_terms(
        branch,
        lambda: _kummer_general(amap, upper, p),
        lambda: _kummer_exceptional(amap, upper, p),
    )


def _th15_terms(
    main: Callable[[dict], Term], amap: ArgMap, upper: Vec, p: dict, branch: RBranch
) -> tuple[Term, ...]:
    """A Th1-5-shape case line: the main term, plus on the negative line the
    general term at ``amap``."""
    terms = [main(p)]
    if branch is RBranch.NEGATIVE_INTEGER:
        terms.append(_kummer_general(amap, upper, p))
    return tuple(t for t in terms if t is not None)


def _co14_exceptional(p: dict) -> Term:
    n, a, c = p["n"], p["a"], p["c"].exact
    s = n - c + 1
    den = _nonzero(pochhammer(p["c"], s), "(c)_{n-c+1}")
    coeff = (
        (-1) ** ((1 - c - n) % 2)
        * pochhammer(s + 1, c - 1)
        * pochhammer(p["c"] - a, s)
        / den
    )
    return term(coeff, expz(-1), hyp(HypSpec((a + (1 - c),), (param(s + 1),))))


def _co15_main(p: dict) -> Term:
    r, n, c = p["r"].exact, p["n"], p["c"]
    s = n - r
    den = _nonzero(pochhammer(c, s), "(c)_{n-r}")
    coeff = (-1) ** (s % 2) * math.factorial(n) / den
    return term(coeff, expz(-1), hyp(HypSpec((c - (r + 1),), (c + s,))))


def _co26_exceptional(p: dict) -> Term:
    n, a, b, c = p["n"], p["a"], p["b"], p["c"].exact
    s = n - c + 1
    den = _nonzero(pochhammer(p["c"], n - 2 * c + 2), "(c)_{n-2c+2}")
    coeff = pochhammer(p["c"] - a, s) * pochhammer(p["c"] - b, s) / den
    return term(
        coeff,
        pow1mz(((a + b) - p["c"]) - n),
        hyp(HypSpec((a + (1 - c), b + (1 - c)), (param(s + 1),))),
    )


def _co27_exceptional(p: dict) -> Term:
    n, a, b, c = p["n"], p["a"], p["b"], p["c"].exact
    s = n - c + 1
    den = _nonzero(pochhammer(n + 1, 1 - c) * pochhammer(p["c"], s), "(n+1)_{1-c} (c)_{n-c+1}")
    coeff = (-1) ** (s % 2) * pochhammer(a, s) * pochhammer(p["c"] - b, s) / den
    return term(
        coeff,
        pow1mz(a - p["c"]),
        hyp(HypSpec((a + (n + 1 - c), b + (1 - c)), (param(s + 1),))),
    )


def _co28_main(p: dict) -> Term:
    r, n, a, c = p["r"].exact, p["n"], p["a"], p["c"]
    s = n - r
    den = _nonzero(pochhammer(c, s), "(c)_{n-r}")
    coeff = math.factorial(n) * pochhammer(c - a, s) / den
    return term(coeff, pow1mz(a - (n + 1)), hyp(HypSpec((a, c - (r + 1)), (c + s,))))


def _co29_main(p: dict) -> Term:
    r, n, a, c = p["r"].exact, p["n"], p["a"], p["c"]
    s = n - r
    den = _nonzero(pochhammer(c, s), "(c)_{n-r}")
    coeff = (-1) ** (s % 2) * math.factorial(n) * pochhammer(a, s) / den
    return term(coeff, pow1mz(a - (r + 1)), hyp(HypSpec((a + s, c - (r + 1)), (c + s,))))


def _co210_main(p: dict) -> Term:
    r, n, a, c = p["r"].exact, p["n"], p["a"], p["c"]
    s = n - r
    den = _nonzero(pochhammer(c, s), "(c)_{n-r}")
    coeff = (-1) ** (s % 2) * math.factorial(n) * pochhammer(c - a, s) / den
    return term(coeff, hyp(HypSpec((param(n + 1), a), (c + s,))))


# ---------------------------------------------------------------------------
# Kummer-type rewrites on expressions


def _rewrite_hyps(e: Expr, match, rewrite) -> Expr:
    hit = False
    new_terms = []
    for t in e.terms:
        fs: list[Factor] = []
        for f in t.factors:
            if isinstance(f, Hyp) and match(f):
                fs.extend(rewrite(f))
                hit = True
            else:
                fs.append(f)
        new_terms.append(Term(t.coeff, tuple(fs)))
    if not hit:
        raise NotApplicable("no hypergeometric factor matches the transform")
    return Expr(tuple(new_terms))


def kummer1(e: Expr) -> Expr:
    """1F1(a;c;z) -> e^z 1F1(c-a;c;-z) (and the mirrored form at -z)."""

    def match(f: Hyp) -> bool:
        return f.spec.p == 1 and f.spec.q == 1 and f.map in (ArgMap.IDENTITY, ArgMap.NEGATE)

    def rewrite(f: Hyp):
        (a,), (c,) = f.spec.upper, f.spec.lower
        flipped = HypSpec((c - a,), (c,))
        if f.map is ArgMap.IDENTITY:
            return [expz(1), Hyp(flipped, ArgMap.NEGATE)]
        return [expz(-1), Hyp(flipped, ArgMap.IDENTITY)]

    return _rewrite_hyps(e, match, rewrite)


def kummer2(e: Expr) -> Expr:
    """Euler: 2F1(a,b;c;z) -> (1-z)^{c-a-b} 2F1(c-a,c-b;c;z)."""

    def match(f: Hyp) -> bool:
        return f.spec.p == 2 and f.spec.q == 1 and f.map is ArgMap.IDENTITY

    def rewrite(f: Hyp):
        (a, b), (c,) = f.spec.upper, f.spec.lower
        return [pow1mz(c - a - b), Hyp(HypSpec((c - a, c - b), (c,)), ArgMap.IDENTITY)]

    return _rewrite_hyps(e, match, rewrite)


def kummer3(e: Expr) -> Expr:
    """Pfaff: 2F1(a,b;c;z) -> (1-z)^{-a} 2F1(a,c-b;c;z/(z-1)).

    Applied to a Pfaff-argument factor it maps back (the transform is an
    involution of the argument).
    """

    def match(f: Hyp) -> bool:
        return f.spec.p == 2 and f.spec.q == 1 and f.map in (ArgMap.IDENTITY, ArgMap.PFAFF)

    def rewrite(f: Hyp):
        (a, b), (c,) = f.spec.upper, f.spec.lower
        flipped = HypSpec((a, c - b), (c,))
        if f.map is ArgMap.IDENTITY:
            return [pow1mz(-a), Hyp(flipped, ArgMap.PFAFF)]
        return [pow1mz(a), Hyp(flipped, ArgMap.IDENTITY)]

    return _rewrite_hyps(e, match, rewrite)


# ---------------------------------------------------------------------------
# mechanical composition: corollary RHS from the theorem-line RHS
#
# Substituting z -> -z (exponential transform) multiplies each term by
# (-1)^{n - r + alpha} where alpha is the term's z-power; the Pfaff
# substitution z -> z/(z-1) contributes (-1)^{n + r - alpha}, turns z^alpha
# into z^alpha (1-z)^{-alpha}, and adds a global (1-z)^{-n-1}.  The exponents
# are integers in every case line (up to float noise), so the phase is taken
# as an exact parity.


def _phase(x: complex) -> complex:
    xc = complex(x)
    k = round(xc.real)
    if abs(xc - k) < 1e-9:
        return complex(1.0 if k % 2 == 0 else -1.0)
    return cmath.exp(1j * math.pi * xc)


def _powz_exponent(t: Term) -> complex:
    return sum((f.alpha.value for f in t.factors if isinstance(f, PowZ)), 0j)


def _transform_k1(e: Expr, r: Parameter, n: int) -> Expr:
    out = []
    for t in e.terms:
        coeff = t.coeff * _phase(n - r.value + _powz_exponent(t))
        fs: list[Factor] = []
        for f in t.factors:
            if isinstance(f, Hyp):
                flip = ArgMap.NEGATE if f.map is ArgMap.IDENTITY else ArgMap.IDENTITY
                fs.append(Hyp(f.spec, flip))
            elif isinstance(f, ExpZ):
                fs.append(ExpZ(-f.sign))
            else:
                fs.append(f)
        out.append(Term(coeff, tuple(fs)))
    return Expr(tuple(out))


def _transform_k3(e: Expr, r: Parameter, n: int) -> Expr:
    out = []
    for t in e.terms:
        coeff = t.coeff * _phase(n + r.value - _powz_exponent(t))
        fs: list[Factor] = []
        for f in t.factors:
            if isinstance(f, PowZ):
                fs.append(f)
                fs.append(PowOneMinusZ(-f.alpha))
            elif isinstance(f, Hyp):
                if f.map is not ArgMap.IDENTITY:
                    raise NotApplicable("Pfaff substitution needs an identity-argument factor")
                fs.append(Hyp(f.spec, ArgMap.PFAFF))
            else:
                fs.append(f)
        fs.append(pow1mz(-(n + 1)))
        out.append(Term(coeff, tuple(fs)))
    return Expr(tuple(out))


# ---------------------------------------------------------------------------
# the family table
#
# A theorem family is a function of its (upper, lower) vectors: the z-power
# of its LHS (the r of the Kummer phases) and the terms of its case lines.
# Its lines branch on the exponent r, or on r = c-1 for the Th1-4 shape,
# whose lines are named regular (the general rule) and exceptional.  The
# builders are looked up when called, so they can be swapped in tests.


@dataclass(frozen=True)
class _Theorem:
    var: Optional[str]  # 'r', 'c' or None: the parameter the lines branch on
    branches: tuple[Optional[RBranch], ...]
    power: Callable[[Vec, Vec, dict], Parameter]
    terms: Callable[[Vec, Vec, dict, Optional[RBranch]], tuple[Term, ...]]


_ALL = tuple(RBranch)

_TH11 = _Theorem(
    "r", _ALL,
    lambda up, lo, p: p["r"],
    lambda up, lo, p, b: _branch_terms(HypSpec(up, lo), p["r"], p["n"], b),
)
_TH12 = _Theorem(
    None, (None,),
    lambda up, lo, p: param(0),
    lambda up, lo, p, b: _terms_th12(up, lo, p["n"]),
)
_TH13 = _Theorem(
    None, (None,),
    lambda up, lo, p: up[0] + (p["n"] - 1),
    lambda up, lo, p, b: _terms_th13(up[0], up[1:], lo, p["n"]),
)
_TH14 = _Theorem(
    "c", (RBranch.GENERAL, RBranch.EXCEPTIONAL),
    lambda up, lo, p: lo[0] - 1,
    lambda up, lo, p, b: (
        _terms_th14_regular if b is RBranch.GENERAL else _terms_th14_exceptional
    )(up, lo, p["n"]),
)
# upper vectors exclude the leading parameter 1
_TH15 = _Theorem(
    "r", (RBranch.EXCEPTIONAL, RBranch.NEGATIVE_INTEGER),
    lambda up, lo, p: p["r"],
    lambda up, lo, p, b: (
        _terms_th15_main if b is RBranch.EXCEPTIONAL else _terms_th15_negative
    )(up, lo, p["r"].exact, p["n"]),
)


@dataclass(frozen=True)
class _Params:
    """Complex parameters drawn together, with the combinations of their
    values that must stay off the integers too."""

    names: tuple[str, ...]
    derived: Optional[Callable[[dict], list]] = None
    r_always: bool = False  # draw r on a single line too (left unused there)


_TH = _Params(("a1", "a2", "b1"), r_always=True)
_CO1 = _Params(("a", "c"), lambda v: [v["c"] - v["a"]])
_CO2 = _Params(("a", "b", "c"), lambda v: [v["c"] - v["a"], v["c"] - v["b"]])


@dataclass(frozen=True)
class _Family:
    """One table row: the identity family whose case lines are entries."""

    id: str
    theorem: _Theorem
    params: _Params
    # the theorem's (upper, lower) vectors at the family's parameters
    vectors: Callable[[dict], tuple[Vec, Vec]]
    lhs: Callable[[dict], Expr]
    # literal corollary RHS; a theorem line is its own theorem's terms
    rhs: Optional[Callable[[dict, Optional[RBranch]], tuple[Term, ...]]] = None
    kind: Optional[str] = None  # corollary transform: 'k1', 'k2' or 'k3'
    r_min: int = 0  # least exact r of the exceptional line
    pfaff: tuple[RBranch, ...] = ()  # lines with a Pfaff-argument series


def _th_vectors(p: dict) -> tuple[Vec, Vec]:
    return (p["a1"], p["a2"]), (p["b1"],)


def _k1_vectors(p: dict) -> tuple[Vec, Vec]:
    return (p["c"] - p["a"],), (p["c"],)


def _k2_vectors(p: dict) -> tuple[Vec, Vec]:
    return (p["c"] - p["a"], p["c"] - p["b"]), (p["c"],)


def _k3_vectors(p: dict) -> tuple[Vec, Vec]:
    return (p["a"], p["c"] - p["b"]), (p["c"],)


def _spec11(p: dict) -> HypSpec:
    return HypSpec((p["a"],), (p["c"],))


def _spec2f1(p: dict) -> HypSpec:
    return HypSpec((p["a"], p["b"]), (p["c"],))


def _by_c(regular: Callable[[dict], Term], exceptional: Callable[[dict], Term]):
    """Literal RHS of a Th1-4-shape family: one term per line."""
    return lambda p, b: ((regular if b is RBranch.GENERAL else exceptional)(p),)


_TABLE = (
    # ---- theorem lines (pFq exercised as 2F1 shapes) ----
    _Family(
        "Th1-1", _TH11, _TH, _th_vectors,
        lambda p: expr(term(1, powz(p["r"]), hyp(HypSpec(*_th_vectors(p))))),
    ),
    _Family(
        "Th1-2", _TH12, _TH, _th_vectors,
        lambda p: expr(term(1, hyp(HypSpec(*_th_vectors(p))))),
    ),
    _Family(
        "Th1-3", _TH13, _TH, _th_vectors,
        lambda p: expr(term(1, powz(p["a1"] + (p["n"] - 1)), hyp(HypSpec(*_th_vectors(p))))),
    ),
    _Family(
        "Th1-4", _TH14, _Params(("a1", "a2")),
        lambda p: ((p["a1"], p["a2"]), (p["c"],)),
        lambda p: expr(term(1, powz(p["c"] - 1), hyp(HypSpec((p["a1"], p["a2"]), (p["c"],))))),
    ),
    _Family(
        "Th1-5", _TH15, _Params(("a2", "b1")),
        lambda p: ((p["a2"],), (p["b1"],)),
        lambda p: expr(term(1, powz(p["r"]), hyp(HypSpec((_ONE, p["a2"]), (p["b1"],))))),
    ),
    # ---- corollary lines for e^{-z} 1F1(a;c;z) ----
    _Family(
        "Co1-1", _TH11, _CO1, _k1_vectors,
        lambda p: expr(term(1, powz(p["r"]), expz(-1), hyp(_spec11(p)))),
        lambda p, b: _kummer_terms(ArgMap.NEGATE, (p["c"] - p["a"],), p, b),
        kind="k1",
    ),
    _Family(
        "Co1-2", _TH12, _CO1, _k1_vectors,
        lambda p: expr(term(1, expz(-1), hyp(_spec11(p)))),
        lambda p, b: (
            term(
                (-1) ** (p["n"] % 2)
                * pochhammer(p["c"] - p["a"], p["n"])
                / pochhammer(p["c"], p["n"]),
                expz(-1),
                hyp(HypSpec((p["a"],), (p["c"] + p["n"],))),
            ),
        ),
        kind="k1",
    ),
    _Family(
        "Co1-3", _TH13, _CO1, _k1_vectors,
        lambda p: expr(
            term(1, powz((p["c"] - p["a"]) + (p["n"] - 1)), expz(-1), hyp(_spec11(p)))
        ),
        lambda p, b: (
            term(
                pochhammer(p["c"] - p["a"], p["n"]),
                powz((p["c"] - p["a"]) - 1),
                expz(-1),
                hyp(HypSpec((p["a"] - p["n"],), (p["c"],))),
            ),
        ),
        kind="k1",
    ),
    _Family(
        "Co1-4", _TH14, _CO1, _k1_vectors,
        lambda p: expr(term(1, powz(p["c"] - 1), expz(-1), hyp(_spec11(p)))),
        _by_c(
            lambda p: term(
                pochhammer(p["c"] - p["n"], p["n"]),
                powz(p["c"] - (p["n"] + 1)),
                expz(-1),
                hyp(HypSpec((p["a"] - p["n"],), (p["c"] - p["n"],))),
            ),
            _co14_exceptional,
        ),
        kind="k1",
    ),
    _Family(
        "Co1-5", _TH15, _CO1, lambda p: ((), (p["c"],)),
        lambda p: expr(term(1, powz(p["r"]), expz(-1), hyp(HypSpec((p["c"] - 1,), (p["c"],))))),
        lambda p, b: _th15_terms(_co15_main, ArgMap.NEGATE, (_ONE,), p, b),
        kind="k1", r_min=1,
    ),
    # ---- corollary lines for prefactored 2F1 ----
    # Co2-1 and Co2-2 sit in one tuple: their entries alternate, line by line
    (
        _Family(
            "Co2-1", _TH11, _CO2, _k2_vectors,
            lambda p: expr(
                term(1, powz(p["r"]), pow1mz((p["a"] + p["b"]) - p["c"]), hyp(_spec2f1(p)))
            ),
            lambda p, b: _kummer_terms(ArgMap.IDENTITY, (p["c"] - p["a"], p["c"] - p["b"]), p, b),
            kind="k2",
        ),
        _Family(
            "Co2-2", _TH11, _CO2, _k3_vectors,
            lambda p: expr(
                term(1, powz(p["r"]), pow1mz((p["a"] - p["r"]) + (p["n"] - 1)), hyp(_spec2f1(p)))
            ),
            lambda p, b: _kummer_terms(ArgMap.PFAFF, (p["a"], p["c"] - p["b"]), p, b),
            kind="k3", pfaff=_ALL,
        ),
    ),
    _Family(
        "Co2-3", _TH13, _CO2, _k2_vectors,
        lambda p: expr(
            term(
                1,
                powz((p["c"] - p["a"]) + (p["n"] - 1)),
                pow1mz((p["a"] + p["b"]) - p["c"]),
                hyp(_spec2f1(p)),
            )
        ),
        lambda p, b: (
            term(
                pochhammer(p["c"] - p["a"], p["n"]),
                powz((p["c"] - p["a"]) - 1),
                pow1mz(((p["a"] + p["b"]) - p["c"]) - p["n"]),
                hyp(HypSpec((p["a"] - p["n"], p["b"]), (p["c"],))),
            ),
        ),
        kind="k2",
    ),
    _Family(
        "Co2-4", _TH12, _CO2, _k2_vectors,
        lambda p: expr(term(1, pow1mz((p["a"] + p["b"]) - p["c"]), hyp(_spec2f1(p)))),
        lambda p, b: (
            term(
                pochhammer(p["c"] - p["a"], p["n"])
                * pochhammer(p["c"] - p["b"], p["n"])
                / pochhammer(p["c"], p["n"]),
                pow1mz(((p["a"] + p["b"]) - p["c"]) - p["n"]),
                hyp(HypSpec((p["a"], p["b"]), (p["c"] + p["n"],))),
            ),
        ),
        kind="k2",
    ),
    _Family(
        "Co2-5", _TH12, _CO2, _k3_vectors,
        lambda p: expr(term(1, pow1mz(p["a"] + (p["n"] - 1)), hyp(_spec2f1(p)))),
        lambda p, b: (
            term(
                (-1) ** (p["n"] % 2)
                * pochhammer(p["a"], p["n"])
                * pochhammer(p["c"] - p["b"], p["n"])
                / pochhammer(p["c"], p["n"]),
                pow1mz(p["a"] - 1),
                hyp(HypSpec((p["a"] + p["n"], p["b"]), (p["c"] + p["n"],))),
            ),
        ),
        kind="k3",
    ),
    _Family(
        "Co2-6", _TH14, _CO2, _k2_vectors,
        lambda p: expr(
            term(1, powz(p["c"] - 1), pow1mz((p["a"] + p["b"]) - p["c"]), hyp(_spec2f1(p)))
        ),
        _by_c(
            lambda p: term(
                pochhammer(p["c"] - p["n"], p["n"]),
                powz(p["c"] - (p["n"] + 1)),
                pow1mz(((p["a"] + p["b"]) - p["c"]) - p["n"]),
                hyp(HypSpec((p["a"] - p["n"], p["b"] - p["n"]), (p["c"] - p["n"],))),
            ),
            _co26_exceptional,
        ),
        kind="k2",
    ),
    _Family(
        "Co2-7", _TH14, _CO2, _k3_vectors,
        lambda p: expr(
            term(1, powz(p["c"] - 1), pow1mz((p["a"] - p["c"]) + p["n"]), hyp(_spec2f1(p)))
        ),
        _by_c(
            lambda p: term(
                pochhammer(p["c"] - p["n"], p["n"]),
                powz(p["c"] - (p["n"] + 1)),
                pow1mz(p["a"] - p["c"]),
                hyp(HypSpec((p["a"], p["b"] - p["n"]), (p["c"] - p["n"],))),
            ),
            _co27_exceptional,
        ),
        kind="k3",
    ),
    # Co2-8..Co2-10: 2F1 with one parameter pinned (b = c-1 or a1 = 1)
    _Family(
        "Co2-8", _TH15, _CO1, lambda p: ((p["c"] - p["a"],), (p["c"],)),
        lambda p: expr(
            term(1, powz(p["r"]), pow1mz(p["a"] - 1), hyp(HypSpec((p["a"], p["c"] - 1), (p["c"],))))
        ),
        lambda p, b: _th15_terms(_co28_main, ArgMap.IDENTITY, (_ONE, p["c"] - p["a"]), p, b),
        kind="k2", r_min=1,
    ),
    _Family(
        "Co2-9", _TH15, _CO1, lambda p: ((p["a"],), (p["c"],)),
        lambda p: expr(
            term(
                1,
                powz(p["r"]),
                pow1mz((p["a"] - p["r"]) + (p["n"] - 1)),
                hyp(HypSpec((p["a"], p["c"] - 1), (p["c"],))),
            )
        ),
        lambda p, b: _th15_terms(_co29_main, ArgMap.PFAFF, (_ONE, p["a"]), p, b),
        kind="k3", r_min=1, pfaff=(RBranch.NEGATIVE_INTEGER,),
    ),
    _Family(
        "Co2-10", _TH15, _CO1, lambda p: ((p["c"] - p["a"],), (p["c"],)),
        lambda p: expr(
            term(
                1,
                powz(p["r"]),
                pow1mz(param(p["n"]) - p["r"]),
                hyp(HypSpec((_ONE, p["a"]), (p["c"],))),
            )
        ),
        lambda p, b: _th15_terms(_co210_main, ArgMap.PFAFF, (_ONE, p["c"] - p["a"]), p, b),
        kind="k3", r_min=1, pfaff=(RBranch.NEGATIVE_INTEGER,),
    ),
)


# ---------------------------------------------------------------------------
# entries generated from the table

_SUFFIX = {
    RBranch.GENERAL: "general",
    RBranch.EXCEPTIONAL: "exceptional",
    RBranch.NEGATIVE_INTEGER: "negative",
}


def _line_id(fam: _Family, branch: Optional[RBranch]) -> str:
    if branch is None:
        return fam.id
    if fam.theorem.var == "c" and branch is RBranch.GENERAL:
        return f"{fam.id}-regular"
    return f"{fam.id}-{_SUFFIX[branch]}"


def _applies(fam: _Family, branch: Optional[RBranch], p: dict) -> bool:
    if branch is None:
        return True
    r = p["c"] - 1 if fam.theorem.var == "c" else p["r"]
    return branch_holds(branch, r, p["n"]) and (
        branch is not RBranch.EXCEPTIONAL or r.exact >= fam.r_min  # type: ignore[operator]
    )


def _draw(fam: _Family, branch: Optional[RBranch], rng: random.Random) -> dict:
    n = _draw_n(rng)
    p: dict = {"n": n}
    names, derived = fam.params.names, fam.params.derived
    if fam.theorem.var == "c" and branch is RBranch.EXCEPTIONAL:
        # c = r+1 exact: draw the other parameters, then keep the
        # combinations with c off the integers
        while True:
            p.update(_draw_complexes(rng, [k for k in names if k != "c"]))
            p["c"] = _draw_exponent(rng, branch, n) + 1
            if derived is None or all(
                _off_integers(v) for v in derived({k: p[k].value for k in names})
            ):
                return p
    p.update(_draw_complexes(rng, names, derived))
    if fam.theorem.var == "c" and "c" not in p:
        p.update(_draw_complexes(rng, ["c"]))
    elif fam.theorem.var == "r" or fam.params.r_always:
        p["r"] = _draw_exponent(rng, branch or RBranch.NEGATIVE_INTEGER, n, fam.r_min)
    return p


def _literal(fam: _Family, branch: Optional[RBranch], p: dict) -> Expr:
    if fam.rhs is not None:
        return Expr(fam.rhs(p, branch))
    return Expr(fam.theorem.terms(*fam.vectors(p), p, branch))


def _entry(fam: _Family, branch: Optional[RBranch]) -> IdentityEntry:
    return IdentityEntry(
        id=_line_id(fam, branch),
        applicable=lambda p: _applies(fam, branch, p),
        lhs=fam.lhs,
        rhs=lambda p: _literal(fam, branch, p),
        draw=lambda rng: _draw(fam, branch, rng),
        z_points=Z_POINTS_PFAFF if branch in fam.pfaff else Z_POINTS,
    )


def _lines():
    for row in _TABLE:
        group = row if isinstance(row, tuple) else (row,)
        for branch in group[0].theorem.branches:
            for fam in group:
                yield fam, branch


_LINES = tuple(_lines())
_ENTRIES = tuple(_entry(fam, branch) for fam, branch in _LINES)
_BY_ID = {e.id: e for e in _ENTRIES}
_SOURCES = {e.id: line for e, line in zip(_ENTRIES, _LINES) if line[0].kind is not None}


def catalog_entries() -> tuple[IdentityEntry, ...]:
    return _ENTRIES


def entry(entry_id: str) -> IdentityEntry:
    return _BY_ID[entry_id]


def corollary_sources() -> dict[str, str]:
    """Map corollary entry id -> transform kind ('k1'|'k2'|'k3')."""
    return {cid: fam.kind for cid, (fam, _) in _SOURCES.items()}  # type: ignore[misc]


def theorem_composition(entry_id: str, params: dict) -> Expr:
    """Corollary RHS rebuilt mechanically from its theorem-line source."""
    source = _SOURCES.get(entry_id)
    if source is None:
        raise KeyError(f"no composition recorded for {entry_id}")
    fam, branch = source
    up, lo = fam.vectors(params)
    base = Expr(fam.theorem.terms(up, lo, params, branch))
    # the Euler substitution keeps the argument; the other two need the
    # theorem's z-power r for the phase
    if fam.kind == "k2":
        return base
    transform = _transform_k1 if fam.kind == "k1" else _transform_k3
    return transform(base, fam.theorem.power(up, lo, params), params["n"])


# ---------------------------------------------------------------------------
# verification driver


def rel_err(x: complex, y: complex) -> float:
    scale = max(abs(x), abs(y))
    if scale == 0:
        return 0.0
    return abs(x - y) / scale


def verify_entry(
    e: IdentityEntry,
    trials: int = 50,
    seed: int = 0,
    tol: float = 1e-8,
    ctrl: Optional[EvalControl] = None,
) -> VerifyReport:
    """Compare the RHS against the jet-oracle derivative on seeded draws."""
    if trials < 1:
        raise ValueError("trials must be >= 1")
    ctrl = ctrl or DEFAULT_CONTROL
    rng = random.Random(f"{seed}:{e.id}")
    max_err = 0.0
    failures = []
    for _ in range(trials):
        p = e.draw(rng)
        lhs_e = e.lhs(p)
        rhs_e = e.rhs(p)
        for z0 in e.z_points:
            lv = nth_derivative(lhs_e, p["n"], z0, ctrl)
            rv = eval_expr(rhs_e, z0, ctrl)
            err = rel_err(lv, rv)
            if err > max_err:
                max_err = err
            if err > tol:
                failures.append((p, z0, lv, rv))
    return VerifyReport(e.id, trials, max_err, tuple(failures), seed, tol)


def format_report(r: VerifyReport) -> str:
    status = "PASS" if r.passed else f"FAIL ({len(r.failures)} cases)"
    return f"{r.id}: trials={r.trials} max_rel_err={r.max_rel_err:.3e} {status}"


def reports_to_csv(reports: Sequence[VerifyReport]) -> str:
    lines = ["id,trials,seed,tol,max_rel_err,failures,passed"]
    for r in reports:
        lines.append(
            f"{r.id},{r.trials},{r.seed},{r.tol:g},{r.max_rel_err:.6e},"
            f"{len(r.failures)},{int(r.passed)}"
        )
    return "\n".join(lines) + "\n"
