"""Catalog of differentiation identities with a random-draw verifier.

Each displayed case line of the identity family (Th1-1..Th1-5 for general
pFq, Co1-1..Co1-5 for 1F1 with an e^{-z} prefactor, Co2-1..Co2-10 for 2F1
with power prefactors) is one catalog entry: an applicability predicate plus
LHS/RHS expression builders.  ``verify_entry`` draws admissible random
parameters and checks the RHS against the jet-oracle n-th derivative of the
LHS.

The entries are generated from ``_TABLE``, one row per identity family.  A
row names the theorem record it is or derives from (``identities.TH11`` ..
``TH15``), which owns the lines' term builders, the branches that have a
line, each line's id and the LHS power of z; it also gives the family's
parameters and the theorem's vectors at them.  A corollary row adds only its
LHS prefactor and series, its Kummer-type transform and its literal terms.
Each LHS is z^(the theorem's power at the row's vectors), the prefactor and
the series; each case line is keyed by ``RBranch``, assembled by
``identities.line_terms`` and takes its applicability from
``identities.branch_holds``.

The Kummer-type rewrites (exponential, Euler, Pfaff) are provided both as
expression transforms and as the composition machinery that rebuilds each
corollary RHS mechanically from its theorem-line source.  No literal
corollary term is built by the theorem records the composition uses, so
comparing the two is a check of the corollary.
"""

from __future__ import annotations

import cmath
import math
import random
from dataclasses import dataclass
from typing import Callable, Optional, Sequence

from .core import (
    DEFAULT_CONTROL,
    HypSpec,
    Parameter,
    param,
    pochhammer,
    validate_spec,
)
from .errors import HypDerivError, NotApplicable, SingularCoefficient
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
    TH11,
    TH12,
    TH13,
    TH14,
    TH15,
    RBranch,
    Theorem,
    Vec,
    _shift_vec,
    branch_holds,
    line_terms,
    # not called here; kept for bench/tracing.HOOKS, which wraps these bindings
    theorem_exceptional_term,
    theorem_general_term,
)

Z_POINTS = (0.2, 1 / 3, 0.7)
# z/(z-1) leaves the unit disk for z > 1/2, so Pfaff-argument entries are
# verified on the sample points it keeps inside.
Z_POINTS_PFAFF = tuple(z for z in Z_POINTS if abs(z / (z - 1)) < 1)

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
    # (params, z0, LHS derivative, RHS value) per failed point; a point that
    # raised carries the error and None, and makes max_rel_err infinite
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
# literal corollary RHS builders
#
# Written out at the corollary's own parameters, independently of the
# theorem-line builders in ``identities``.  Every corollary has the single
# lower parameter c.  Terms whose prefactor vanishes exactly are dropped (the
# line loses a term), but where it vanishes on a pole of its own series (at a
# numeric whole-number r or c) it raises SingularCoefficient, as a vanishing
# Pochhammer denominator does.


def _nonzero(den: complex, name: str) -> complex:
    if den == 0:
        raise SingularCoefficient(f"{name} vanishes")
    return den


def _kummer_general(amap: ArgMap, upper: Vec, p: dict) -> Optional[Term]:
    """(r-n+1)_n z^{r-n} F(r+1, upper; r-n+1, c) at the argument ``amap``.

    At z/(z-1) the line carries the prefactor (1-z)^{-r-1}.
    """
    r, n, c = p["r"], p["n"], p["c"]
    low0 = r + (1 - n)
    coeff = pochhammer(low0, n)
    if coeff == 0:
        if r.exact is None:
            raise SingularCoefficient("(r-n+1)_n vanishes at a pole of the general series")
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


def _regular(p: dict, upper: Vec, *pre: Factor) -> Term:
    """(c-n)_n z^{c-n-1} (pre) F(upper; c-n; z): the regular line of a
    Th1-4-shape corollary.  The spec is checked first; a prefactor that
    vanishes sits on a pole of the series."""
    n, c = p["n"], p["c"]
    hs = HypSpec(upper, (c - n,))
    validate_spec(hs)
    coeff = _nonzero(pochhammer(c - n, n), "(c-n)_n")
    return term(coeff, powz(c - (n + 1)), *pre, hyp(hs))


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


def _transform_k1(e: Expr, r: complex, n: int) -> Expr:
    out = []
    for t in e.terms:
        coeff = t.coeff * _phase(n - r + _powz_exponent(t))
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


def _transform_k3(e: Expr, r: complex, n: int) -> Expr:
    out = []
    for t in e.terms:
        coeff = t.coeff * _phase(n + r - _powz_exponent(t))
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
# A row is one identity family: the theorem record (``identities.TH11`` ..
# ``TH15``) it is or derives from, which owns the lines' builders, branches,
# ids and LHS power of z; the parameters it draws; and the theorem's
# (upper, lower) vectors at them.  A corollary row adds its LHS prefactor and
# series, its transform, and its literal line terms; a row without a literal
# term of its own takes the Kummer-type term at its transform's argument map
# over the upper vector.

LiteralTerm = Callable[[dict], Optional[Term]]


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
    theorem: Theorem
    params: _Params
    # the theorem's (upper, lower) vectors at the family's parameters
    vectors: Callable[[dict], tuple[Vec, Vec]]
    # a corollary's LHS prefactor and series; a theorem family's LHS has no
    # prefactor and the series of its vectors
    prefactor: Optional[Callable[[dict], Factor]] = None
    series: Optional[Callable[[dict], HypSpec]] = None
    # a corollary's literal terms of its general and exceptional lines, over
    # the params; None takes the Kummer-type term of its transform
    general: Optional[LiteralTerm] = None
    exceptional: Optional[LiteralTerm] = None
    kind: Optional[str] = None  # corollary transform: 'k1', 'k2' or 'k3'
    r_min: int = 0  # least exact r of the exceptional line


# the argument map each transform gives the theorem's series
_MAPS = {"k1": ArgMap.NEGATE, "k2": ArgMap.IDENTITY, "k3": ArgMap.PFAFF}


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


def _exp_minus(p: dict) -> Factor:
    return expz(-1)


def _euler(p: dict) -> Factor:
    return pow1mz((p["a"] + p["b"]) - p["c"])


def _pfaff_r(p: dict) -> Factor:
    return pow1mz((p["a"] - p["r"]) + (p["n"] - 1))


_TABLE = (
    # ---- theorem lines (pFq exercised as 2F1 shapes) ----
    _Family("Th1-1", TH11, _TH, _th_vectors),
    _Family("Th1-2", TH12, _TH, _th_vectors),
    _Family("Th1-3", TH13, _TH, _th_vectors),
    _Family("Th1-4", TH14, _Params(("a1", "a2")), lambda p: ((p["a1"], p["a2"]), (p["c"],))),
    _Family("Th1-5", TH15, _Params(("a2", "b1")), lambda p: ((_ONE, p["a2"]), (p["b1"],))),
    # ---- corollary lines for e^{-z} 1F1(a;c;z) ----
    _Family("Co1-1", TH11, _CO1, _k1_vectors, _exp_minus, _spec11, kind="k1"),
    _Family(
        "Co1-2", TH12, _CO1, _k1_vectors, _exp_minus, _spec11,
        lambda p: term(
            (-1) ** (p["n"] % 2)
            * pochhammer(p["c"] - p["a"], p["n"])
            / _nonzero(pochhammer(p["c"], p["n"]), "(c)_n"),
            expz(-1),
            hyp(HypSpec((p["a"],), (p["c"] + p["n"],))),
        ),
        kind="k1",
    ),
    _Family(
        "Co1-3", TH13, _CO1, _k1_vectors, _exp_minus, _spec11,
        lambda p: term(
            pochhammer(p["c"] - p["a"], p["n"]),
            powz((p["c"] - p["a"]) - 1),
            expz(-1),
            hyp(HypSpec((p["a"] - p["n"],), (p["c"],))),
        ),
        kind="k1",
    ),
    _Family(
        "Co1-4", TH14, _CO1, _k1_vectors, _exp_minus, _spec11,
        lambda p: _regular(p, (p["a"] - p["n"],), expz(-1)),
        _co14_exceptional,
        kind="k1",
    ),
    _Family(
        "Co1-5", TH15, _CO1, lambda p: ((_ONE,), (p["c"],)),
        _exp_minus, lambda p: HypSpec((p["c"] - 1,), (p["c"],)),
        exceptional=_co15_main,
        kind="k1", r_min=1,
    ),
    # ---- corollary lines for prefactored 2F1 ----
    # Co2-1 and Co2-2 sit in one tuple: their entries alternate, line by line
    (
        _Family("Co2-1", TH11, _CO2, _k2_vectors, _euler, _spec2f1, kind="k2"),
        _Family("Co2-2", TH11, _CO2, _k3_vectors, _pfaff_r, _spec2f1, kind="k3"),
    ),
    _Family(
        "Co2-3", TH13, _CO2, _k2_vectors, _euler, _spec2f1,
        lambda p: term(
            pochhammer(p["c"] - p["a"], p["n"]),
            powz((p["c"] - p["a"]) - 1),
            pow1mz(((p["a"] + p["b"]) - p["c"]) - p["n"]),
            hyp(HypSpec((p["a"] - p["n"], p["b"]), (p["c"],))),
        ),
        kind="k2",
    ),
    _Family(
        "Co2-4", TH12, _CO2, _k2_vectors, _euler, _spec2f1,
        lambda p: term(
            pochhammer(p["c"] - p["a"], p["n"])
            * pochhammer(p["c"] - p["b"], p["n"])
            / _nonzero(pochhammer(p["c"], p["n"]), "(c)_n"),
            pow1mz(((p["a"] + p["b"]) - p["c"]) - p["n"]),
            hyp(HypSpec((p["a"], p["b"]), (p["c"] + p["n"],))),
        ),
        kind="k2",
    ),
    _Family(
        "Co2-5", TH12, _CO2, _k3_vectors, lambda p: pow1mz(p["a"] + (p["n"] - 1)), _spec2f1,
        lambda p: term(
            (-1) ** (p["n"] % 2)
            * pochhammer(p["a"], p["n"])
            * pochhammer(p["c"] - p["b"], p["n"])
            / _nonzero(pochhammer(p["c"], p["n"]), "(c)_n"),
            pow1mz(p["a"] - 1),
            hyp(HypSpec((p["a"] + p["n"], p["b"]), (p["c"] + p["n"],))),
        ),
        kind="k3",
    ),
    _Family(
        "Co2-6", TH14, _CO2, _k2_vectors, _euler, _spec2f1,
        lambda p: _regular(
            p, (p["a"] - p["n"], p["b"] - p["n"]), pow1mz(((p["a"] + p["b"]) - p["c"]) - p["n"])
        ),
        _co26_exceptional,
        kind="k2",
    ),
    _Family(
        "Co2-7", TH14, _CO2, _k3_vectors, lambda p: pow1mz((p["a"] - p["c"]) + p["n"]), _spec2f1,
        lambda p: _regular(p, (p["a"], p["b"] - p["n"]), pow1mz(p["a"] - p["c"])),
        _co27_exceptional,
        kind="k3",
    ),
    # Co2-8..Co2-10: 2F1 with one parameter pinned (b = c-1 or a1 = 1)
    _Family(
        "Co2-8", TH15, _CO1, lambda p: ((_ONE, p["c"] - p["a"]), (p["c"],)),
        lambda p: pow1mz(p["a"] - 1), lambda p: HypSpec((p["a"], p["c"] - 1), (p["c"],)),
        exceptional=_co28_main,
        kind="k2", r_min=1,
    ),
    _Family(
        "Co2-9", TH15, _CO1, lambda p: ((_ONE, p["a"]), (p["c"],)),
        _pfaff_r, lambda p: HypSpec((p["a"], p["c"] - 1), (p["c"],)),
        exceptional=_co29_main,
        kind="k3", r_min=1,
    ),
    _Family(
        "Co2-10", TH15, _CO1, lambda p: ((_ONE, p["c"] - p["a"]), (p["c"],)),
        lambda p: pow1mz(param(p["n"]) - p["r"]), lambda p: HypSpec((_ONE, p["a"]), (p["c"],)),
        exceptional=_co210_main,
        kind="k3", r_min=1,
    ),
)


# ---------------------------------------------------------------------------
# entries generated from the table


def _applies(fam: _Family, branch: Optional[RBranch], p: dict) -> bool:
    if branch is None:
        return True
    r = fam.theorem.power(*fam.vectors(p), p)
    return branch_holds(branch, r, p["n"]) and (  # type: ignore[arg-type]
        branch is not RBranch.EXCEPTIONAL or r.exact >= fam.r_min  # type: ignore[union-attr]
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


def _lhs(fam: _Family, p: dict) -> Expr:
    """z^(the theorem's power at the row's vectors), the row's prefactor and
    the row's series."""
    upper, lower = fam.vectors(p)
    power = fam.theorem.power(upper, lower, p)
    factors = () if power is None else (powz(power),)
    if fam.prefactor is not None:
        factors += (fam.prefactor(p),)
    series = HypSpec(upper, lower) if fam.series is None else fam.series(p)
    return expr(term(1, *factors, hyp(series)))


def _literal(fam: _Family, branch: Optional[RBranch], p: dict) -> Expr:
    upper, lower = fam.vectors(p)
    if fam.kind is None:
        return fam.theorem.line(branch, upper, lower, p)
    amap = _MAPS[fam.kind]
    general = fam.general or (lambda p: _kummer_general(amap, upper, p))
    exceptional = fam.exceptional or (lambda p: _kummer_exceptional(amap, upper, p))
    return Expr(line_terms(branch, lambda: general(p), lambda: exceptional(p)))


def _entry(fam: _Family, branch: Optional[RBranch]) -> IdentityEntry:
    # a line that carries a Kummer-type term at the Pfaff map (a k3 row's term
    # with no literal builder) is sampled where z/(z-1) stays in the disk
    kummer = line_terms(branch, lambda: fam.general is None, lambda: fam.exceptional is None)
    pfaff = fam.kind == "k3" and any(kummer)
    return IdentityEntry(
        id=fam.theorem.line_id(branch, fam.id),
        applicable=lambda p: _applies(fam, branch, p),
        lhs=lambda p: _lhs(fam, p),
        rhs=lambda p: _literal(fam, branch, p),
        draw=lambda rng: _draw(fam, branch, rng),
        z_points=Z_POINTS_PFAFF if pfaff else Z_POINTS,
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
    upper, lower = fam.vectors(params)
    base = fam.theorem.line(branch, upper, lower, params)
    # the Euler substitution keeps the argument; the other two need the
    # LHS power r of z for the phase
    if fam.kind == "k2":
        return base
    r = fam.theorem.power(upper, lower, params)
    transform = _transform_k1 if fam.kind == "k1" else _transform_k3
    return transform(base, 0j if r is None else r.value, params["n"])


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
) -> VerifyReport:
    """Compare the RHS against the jet-oracle derivative on seeded draws.

    ``tol`` lies in (0, 1): a relative error of 1 is a side compared with 0.
    """
    if trials < 1:
        raise ValueError("trials must be >= 1")
    if not 0 < tol < 1:
        raise ValueError("tol must lie in (0, 1)")
    rng = random.Random(f"{seed}:{e.id}")
    max_err = 0.0
    failures = []
    for _ in range(trials):
        p = e.draw(rng)
        lhs_e = e.lhs(p)
        for z0 in e.z_points:
            try:
                lv = nth_derivative(lhs_e, p["n"], z0, DEFAULT_CONTROL)
                rv = eval_expr(e.rhs(p), z0, DEFAULT_CONTROL)
                err = rel_err(lv, rv)
            except HypDerivError as exc:
                # a point either side cannot build or evaluate fails, with the error
                # in place of the two values
                lv, rv, err = exc, None, math.inf
            # a point fails unless its error is known to be within tol: a
            # NaN error (a side that is NaN or infinite) fails as infinite
            if not err <= tol:
                failures.append((p, z0, lv, rv))
                if math.isnan(err):
                    err = math.inf
            if err > max_err:
                max_err = err
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
