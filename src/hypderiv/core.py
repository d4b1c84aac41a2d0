"""Generalized hypergeometric series with exact-aware parameters.

The series is pFq(a; b; z) = sum_k c_k z^k with

    c_k = (a_1)_k ... (a_p)_k / ((b_1)_k ... (b_q)_k k!),

where (a)_k is the Pochhammer symbol (rising factorial).  Termination,
singular lower parameters and identity branch selection all hinge on whether
a parameter is *exactly* an integer, so parameters carry exactness as a tag
instead of inferring it from floats.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from typing import Iterable, Optional, Sequence, Union

from .errors import (
    DomainError,
    NoConvergence,
    PoleCoefficient,
    PolePochhammer,
    SingularLowerParameter,
)

ParamLike = Union["Parameter", int, float, complex]


@dataclass(frozen=True)
class Parameter:
    """A scalar parameter: exact integer or complex double.

    ``exact`` is the integer value when the parameter was built from an
    integer literal, else ``None``.  Only exact integers participate in
    integrality-based branching; a Numeric 2.0 is *not* treated as the
    integer 2 even though it compares equal numerically.
    """

    value: complex
    exact: Optional[int] = None

    @property
    def is_exact(self) -> bool:
        return self.exact is not None

    def is_nonpositive_int(self) -> bool:
        return self.exact is not None and self.exact <= 0

    def __complex__(self) -> complex:
        return self.value

    def __add__(self, other: ParamLike) -> "Parameter":
        o = param(other)
        if self.exact is not None and o.exact is not None:
            k = self.exact + o.exact
            return Parameter(complex(k), k)
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
    """Coerce to Parameter. Integer literals become exact integers."""
    if isinstance(x, Parameter):
        return x
    if isinstance(x, bool):
        raise TypeError("bool is not a valid parameter")
    if isinstance(x, int):
        return Parameter(complex(x), x)
    if isinstance(x, (float, complex)):
        return Parameter(complex(x), None)
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
    """Truncation controls for direct series summation."""

    rel_tol: float = 1e-14
    consecutive_small: int = 3
    max_terms: int = 10000

    def __post_init__(self):
        if not (math.isfinite(self.rel_tol) and self.rel_tol > 0):
            raise ValueError("rel_tol must be finite and positive")
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


def csum(terms: Sequence[complex]) -> complex:
    """Exactly-rounded complex sum (componentwise math.fsum)."""
    if not terms:
        return 0j
    return complex(math.fsum(t.real for t in terms), math.fsum(t.imag for t in terms))


def pochhammer(a: ParamLike, k: int) -> complex:
    """Pochhammer symbol (a)_k = a(a+1)...(a+k-1).

    k = 0 gives 1; negative order uses the reciprocal product
    (a)_{-m} = 1 / ((a-m)(a-m+1)...(a-1)), the Gamma-ratio extension.
    """
    a = param(a)
    if k == 0:
        return 1 + 0j
    if k > 0:
        if a.exact is not None:
            prod = 1
            for j in range(k):
                prod *= a.exact + j
            return complex(prod)
        out = 1 + 0j
        for j in range(k):
            out *= a.value + j
        return out
    m = -k
    if a.exact is not None:
        prod = 1
        for j in range(m):
            f = a.exact - m + j
            if f == 0:
                raise PolePochhammer(f"({a})_{k} has a zero factor")
            prod *= f
        return 1 / complex(prod)
    out = 1 + 0j
    for j in range(m):
        f = a.value - m + j
        if f == 0:
            raise PolePochhammer(f"({a})_{k} has a zero factor")
        out *= f
    return 1 / out


def pochhammer_vec(v: Sequence[ParamLike], k: int) -> complex:
    """Product of Pochhammer symbols over a parameter vector; empty -> 1."""
    out = 1 + 0j
    for x in v:
        out *= pochhammer(x, k)
    return out


def termination_order(spec: HypSpec) -> Optional[int]:
    """Smallest m >= 0 with some upper parameter exactly -m, else None.

    c_k vanishes first at k = m + 1, so the series is a degree-m polynomial.
    """
    orders = [-a.exact for a in spec.upper if a.is_nonpositive_int()]
    return min(orders) if orders else None


def validate_spec(spec: HypSpec) -> None:
    """Reject lower parameters that make the coefficients singular.

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


def _term_ratio_parts(spec: HypSpec, j: int) -> tuple[complex, complex]:
    """Numerator/denominator of c_{j+1}/c_j (without the z factor)."""
    num = 1 + 0j
    for a in spec.upper:
        num *= a.value + j
    den = complex(j + 1)
    for b in spec.lower:
        den *= b.value + j
    return num, den


def coefficient(spec: HypSpec, k: int) -> complex:
    """Series coefficient c_k = (a)_k / ((b)_k k!).

    In the doubly-integer regime (upper -m with lower -m-l) the value for
    k <= m is the finite ratio of nonvanishing products; for k > m the
    iterated limit gives 0.
    """
    if k < 0:
        raise ValueError("k must be nonnegative")
    validate_spec(spec)
    m = termination_order(spec)
    if m is not None and k > m:
        return 0j
    c = 1 + 0j
    for j in range(k):
        num, den = _term_ratio_parts(spec, j)
        if den == 0:
            raise PoleCoefficient(f"vanishing lower Pochhammer factor at k={j + 1}")
        c *= num / den
    return c


def classify_convergence(spec: HypSpec, z: complex) -> ConvergenceClass:
    """Convergence class of the series at z, from (p, q, parameter sums, z).

    p < q+1: entire.  p > q+1: divergent unless terminating.  p = q+1:
    converges inside the unit disk; on the boundary only at z = 1 when
    Re(sum b - sum a) > 0 and at z = -1 when Re(sum b - sum a) + 1 > 0.
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
    return ConvergenceClass.UNIT_DISK_BOUNDARY_DIVERGENT


_PERMITTED = (
    ConvergenceClass.ENTIRE,
    ConvergenceClass.INSIDE_UNIT_DISK,
    ConvergenceClass.AT_PLUS_ONE,
    ConvergenceClass.AT_MINUS_ONE,
)


def evaluate(spec: HypSpec, z: complex, ctrl: Optional[EvalControl] = None) -> EvalResult:
    """Evaluate pFq(a; b; z) by direct summation.

    Terminating series are summed exactly (m+1 terms).  Otherwise terms are
    accumulated until ``consecutive_small`` successive terms fall below
    rel_tol * |partial sum|; the final value is an fsum of all terms.
    """
    ctrl = ctrl or DEFAULT_CONTROL
    validate_spec(spec)
    zc = complex(z)
    m = termination_order(spec)

    if m is not None:
        terms = []
        t = 1 + 0j
        for k in range(m + 1):
            terms.append(t)
            if k == m:
                break
            num, den = _term_ratio_parts(spec, k)
            if den == 0:
                raise PoleCoefficient(f"vanishing lower Pochhammer factor at k={k + 1}")
            t *= (num / den) * zc
        return EvalResult(csum(terms), m + 1, True, 0.0)

    cls = classify_convergence(spec, zc)
    if cls not in _PERMITTED:
        raise DomainError(f"series does not converge at z={zc} ({cls.value})")

    terms = [1 + 0j]
    partial = 1 + 0j
    t = 1 + 0j
    small = 0
    for k in range(1, ctrl.max_terms):
        num, den = _term_ratio_parts(spec, k - 1)
        if den == 0:
            raise PoleCoefficient(f"vanishing lower Pochhammer factor at k={k}")
        t *= (num / den) * zc
        terms.append(t)
        partial += t
        if abs(t) < ctrl.rel_tol * abs(partial):
            small += 1
            if small >= ctrl.consecutive_small:
                return EvalResult(csum(terms), len(terms), False, abs(t))
        else:
            small = 0
    raise NoConvergence(f"no convergence within {ctrl.max_terms} terms")
