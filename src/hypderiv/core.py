"""Generalized hypergeometric series with exact-aware parameters.

The series is pFq(a; b; z) = sum_k c_k z^k with

    c_k = (a_1)_k ... (a_p)_k / ((b_1)_k ... (b_q)_k k!),

where (a)_k is the Pochhammer symbol (rising factorial).  Termination,
singular lower parameters and identity branch selection all hinge on whether
a parameter is *exactly* an integer, so parameters carry exactness as a tag
instead of inferring it from floats.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from operator import attrgetter
from typing import Iterable, Optional, Sequence, Union

from .errors import PoleCoefficient, PolePochhammer, SingularLowerParameter

ParamLike = Union["Parameter", int, Fraction, float, complex]
Exact = Union[int, Fraction]


@dataclass(frozen=True)
class Parameter:
    """A scalar parameter: exact rational or complex double.

    ``exact`` is the value (an ``int``, else a ``Fraction``) of a parameter
    built from an integer or a Fraction, else ``None``.  Only exact integers
    (``integer``) participate in integrality-based branching; a numeric 2.0
    is *not* treated as the integer 2 even though it compares equal
    numerically.  Outside an exact field a parameter computes with ``value``.
    """

    value: complex
    exact: Optional[Exact] = None

    @property
    def is_exact(self) -> bool:
        return self.exact is not None

    @property
    def integer(self) -> Optional[int]:
        """The exact value if it is an integer, else None."""
        return self.exact if type(self.exact) is int else None

    def is_nonpositive_int(self) -> bool:
        return type(self.exact) is int and self.exact <= 0

    def __complex__(self) -> complex:
        return self.value

    def __add__(self, other: ParamLike) -> "Parameter":
        o = param(other)
        if self.exact is not None and o.exact is not None:
            return param(self.exact + o.exact)
        return Parameter(self.value + o.value, None)

    def __sub__(self, other: ParamLike) -> "Parameter":
        return self + (-param(other))

    def __neg__(self) -> "Parameter":
        if self.exact is not None:
            return Parameter(complex(-self.exact), -self.exact)
        return Parameter(-self.value, None)

    def __str__(self) -> str:
        if self.exact is not None:
            return str(self.exact)
        if self.value.imag == 0:
            return repr(self.value.real)
        return repr(self.value).strip("()")


def param(x: ParamLike) -> Parameter:
    """Coerce to Parameter.  Integers and Fractions become exact; one beyond
    the double range raises ``ValueError``, as a non-finite value does where
    it is summed."""
    if isinstance(x, Parameter):
        return x
    if isinstance(x, bool):
        raise TypeError("bool is not a valid parameter")
    try:
        if isinstance(x, int):
            return Parameter(complex(x), x)
        if isinstance(x, (float, complex)):
            return Parameter(complex(x), None)
        if isinstance(x, Fraction):
            return Parameter(complex(x), x.numerator if x.denominator == 1 else x)
    except OverflowError:
        raise ValueError(f"parameter {x} is beyond the double range") from None
    raise TypeError(f"cannot interpret {x!r} as a parameter")


def values_equal(a: Parameter, b: Parameter) -> bool:
    """Numeric equality of parameter values (exactness-agnostic)."""
    return a.value == b.value


@dataclass(frozen=True)
class HypSpec:
    """Upper/lower parameter vectors (a; b) of a pFq symbol.

    Empty vectors are allowed (p = 0 or q = 0), read as empty products.
    """

    upper: tuple[Parameter, ...]
    lower: tuple[Parameter, ...]

    @classmethod
    def of(cls, upper: Iterable[ParamLike], lower: Iterable[ParamLike]) -> "HypSpec":
        return cls(tuple(param(x) for x in upper), tuple(param(x) for x in lower))

    @property
    def p(self) -> int:
        return len(self.upper)

    @property
    def q(self) -> int:
        return len(self.lower)


@dataclass(frozen=True)
class EvalControl:
    """Truncation controls for series summation.

    A nonterminating series stops once three terms in a row fall below
    ``rel_tol`` times the partial sum, and raises ``NoConvergence`` at
    ``max_terms`` terms.  ``rel_tol`` lies in (0, 1) and ``max_terms`` is at
    least 1; other values raise ``ValueError``.
    """

    rel_tol: float = 1e-14
    max_terms: int = 10000

    def __post_init__(self):
        # at 1 or more, terms as large as the sum itself would stop it
        if not 0 < self.rel_tol < 1:
            raise ValueError("rel_tol must lie in (0, 1)")
        if self.max_terms < 1:
            raise ValueError("max_terms must be >= 1")


DEFAULT_CONTROL = EvalControl()


@dataclass(frozen=True)
class EvalResult:
    value: complex
    terms_used: int
    terminated: bool
    tail_estimate: float


class ConvergenceClass(Enum):
    ENTIRE = "entire"
    INSIDE_UNIT_DISK = "inside-unit-disk"
    AT_PLUS_ONE = "at-plus-one"
    AT_MINUS_ONE = "at-minus-one"
    UNIT_DISK_BOUNDARY_DIVERGENT = "unit-disk-boundary-divergent"
    DIVERGENT_UNLESS_TERMINATING = "divergent-unless-terminating"


_real, _imag = attrgetter("real"), attrgetter("imag")


def csum(terms: Sequence[complex]) -> complex:
    """Exactly-rounded complex sum (componentwise math.fsum)."""
    return complex(math.fsum(map(_real, terms)), math.fsum(map(_imag, terms)))


def pochhammer(a: ParamLike, k: int) -> Union[complex, Fraction]:
    """Pochhammer symbol (a)_k = a(a+1)...(a+k-1).

    k = 0 gives 1; negative order uses the reciprocal product
    (a)_{-m} = 1 / ((a-m)(a-m+1)...(a-1)), the Gamma-ratio extension.  An
    exact parameter gives an exact ``Fraction``, a numeric one a complex.
    """
    a = param(a)
    # the factors of an exact p/q are (p + j q)/q: integers over one q^|k|
    e = a.exact
    x, q, one = (a.value, 1, 1 + 0j) if e is None else (e.numerator, e.denominator, 1)
    out = one
    if k >= 0:
        for j in range(k):
            out *= x + j * q
        return out if e is None else Fraction(out, q**k)
    m = -k
    for j in range(m):
        f = x - m * q + j * q
        if f == 0:
            raise PolePochhammer(f"({a})_{k} has a zero factor")
        out *= f
    return one / out if e is None else Fraction(q**m, out)


def pochhammer_vec(v: Sequence[ParamLike], k: int) -> Union[complex, Exact]:
    """Product of Pochhammer symbols over a parameter vector; empty -> 1."""
    out = 1
    for x in v:
        out *= pochhammer(x, k)
    return out


def termination_order(spec: HypSpec) -> Optional[int]:
    """Smallest m >= 0 with some upper parameter exactly -m, else None.

    c_k vanishes first at k = m + 1, so the series is a degree-m polynomial.
    """
    orders = [-a.exact for a in spec.upper if a.is_nonpositive_int()]
    return min(orders) if orders else None


def validate_spec(spec: HypSpec) -> Optional[int]:
    """Reject lower parameters that make the coefficients singular, and
    return the termination order (``termination_order``).

    Nonterminating series: no lower parameter may be an exact nonpositive
    integer.  Terminating at order m: exact lower -k is allowed for k >= m
    (the iterated-limit reading of the doubly-integer case), rejected for
    k < m.
    """
    m = termination_order(spec)
    for idx, b in enumerate(spec.lower):
        if b.is_nonpositive_int():
            k = -b.exact  # type: ignore[operator]
            if m is None or k < m:
                raise SingularLowerParameter(idx)
    return m


def coefficient(spec: HypSpec, k: int) -> Union[complex, Fraction]:
    """Series coefficient c_k = (a)_k / ((b)_k k!), from its definition.

    Exact parameters give an exact ``Fraction``; otherwise each Pochhammer
    symbol is a product in doubles, which stays finite for k up to about
    170.  A lower factor b + j that vanishes for some j < k raises
    ``PoleCoefficient``.  In the doubly-integer regime (upper -m with lower
    -m-l) the value for k <= m is the finite ratio of nonvanishing
    products; for k > m the iterated limit gives an exact 0.
    """
    if k < 0:
        raise ValueError("k must be nonnegative")
    m = validate_spec(spec)
    if m is not None and k > m:
        return Fraction(0)
    den = pochhammer_vec(spec.lower, k) * Fraction(math.factorial(k))
    if not den:
        raise PoleCoefficient(f"vanishing lower Pochhammer factor in c_{k}")
    return pochhammer_vec(spec.upper, k) / den


def classify_convergence(spec: HypSpec, z: complex) -> ConvergenceClass:
    """Convergence class of the series at z, from (p, q, parameter sums, z).

    p < q+1: entire.  p > q+1: divergent unless terminating.  p = q+1:
    converges inside the unit disk; on the boundary only at z = 1 when
    Re(sum b - sum a) > 0 and at z = -1 when Re(sum b - sum a) + 1 > 0.
    Where it diverges, a terminating series (a polynomial) is divergent
    unless terminating, as for p > q+1.
    """
    zc = complex(z)
    if spec.p < spec.q + 1:
        return ConvergenceClass.ENTIRE
    if spec.p > spec.q + 1:
        return ConvergenceClass.DIVERGENT_UNLESS_TERMINATING
    if abs(zc) < 1:
        return ConvergenceClass.INSIDE_UNIT_DISK
    s = sum(b.value for b in spec.lower) - sum(a.value for a in spec.upper)
    if zc == 1:
        if s.real > 0:
            return ConvergenceClass.AT_PLUS_ONE
    elif zc == -1:
        if s.real + 1 > 0:
            return ConvergenceClass.AT_MINUS_ONE
    if termination_order(spec) is not None:
        return ConvergenceClass.DIVERGENT_UNLESS_TERMINATING
    return ConvergenceClass.UNIT_DISK_BOUNDARY_DIVERGENT


def check_finite(spec: HypSpec, args: Iterable[complex]) -> None:
    """Reject a parameter or argument value that is not finite, with
    ``ValueError`` before any term is summed.

    Summed, such a value would fail only later and as something else: as
    an overflowed term, or after the whole term budget.
    """
    for x in (*(a.value for a in spec.upper), *(b.value for b in spec.lower), *args):
        if not cmath.isfinite(x):
            raise ValueError(f"non-finite parameter or argument {x!r}")


def evaluate(spec: HypSpec, z: complex, ctrl: Optional[EvalControl] = None) -> EvalResult:
    """Evaluate pFq(a; b; z) by summing its series.

    This is the series kernel of the jet algebra at order 0: the complex
    field's ``series`` at w = [z], with its input checks (z may sit on a
    boundary point where the series converges) and its cancellation guard,
    stepping each term by the term ratio.  Terminating series are summed to
    the end (m+1 terms).  Otherwise terms are accumulated until three
    successive terms fall below rel_tol * |partial sum|; the value is an
    fsum of all terms and ``tail_estimate`` the last term's modulus.  A sum
    that cancelled is rerun as ``jet_pfq`` reruns it, in self-checked fixed
    point (exactly for a real polynomial that no precision in the budget
    resolves); ``terms_used`` and ``tail_estimate`` stay the double sum's.
    A term that overflows raises ``NoConvergence`` at once.
    """
    from .jets import COMPLEX  # jets imports this module

    ctrl = ctrl or DEFAULT_CONTROL
    sums, _, terms, tail, m = COMPLEX.series(spec, [complex(z)], ctrl.rel_tol, ctrl.max_terms)
    if m is not None:
        return EvalResult(sums[0], terms, True, 0.0)
    return EvalResult(sums[0], terms, False, tail)
