"""Parameters, Pochhammer symbols, series evaluation, convergence."""

import cmath
import hashlib
import math
import random
from collections import Counter
from fractions import Fraction
from itertools import product

import pytest

from hypderiv.core import (
    ConvergenceClass,
    EvalControl,
    HypSpec,
    classify_convergence,
    coefficient,
    evaluate,
    param,
    pochhammer,
    pochhammer_vec,
    termination_order,
    validate_spec,
    values_equal,
)
from hypderiv.expressions import eval_expr, expr, hyp, nth_derivative, term
from hypderiv.jets import FRACTION, jet_pfq, jet_variable
from hypderiv.errors import (
    DomainError,
    HypDerivError,
    NoConvergence,
    PoleCoefficient,
    PolePochhammer,
    SingularLowerParameter,
)


def rel(x, y):
    return abs(x - y) / max(abs(x), abs(y), 1e-300)


class TestParameter:
    def test_int_literal_is_exact(self):
        assert param(3).exact == 3
        assert param(-2).exact == -2

    def test_float_is_numeric_even_when_integral(self):
        assert param(3.0).exact is None
        assert param(2 / 3).exact is None
        assert param(1 + 2j).exact is None

    def test_numeric_comparison_vs_branching(self):
        # equal numerically, but only the exact one can drive branching
        assert values_equal(param(5), param(5.0))
        assert param(5).is_exact and not param(5.0).is_exact

    def test_arithmetic_preserves_exactness(self):
        assert (param(2) + 3).exact == 5
        assert (param(2) - param(5)).exact == -3
        assert (-param(2)).exact == -2
        assert (param(2) + param(0.5)).exact is None
        assert (param(Fraction(1, 3)) + Fraction(2, 3)) == param(1)
        assert (param(Fraction(1, 2)) - 2).exact == Fraction(-3, 2)
        assert (param(Fraction(1, 2)) + 0.5).exact is None

    def test_fraction_is_exact_but_not_an_integer(self):
        assert param(Fraction(3)) == param(3)
        assert type(param(Fraction(-6, 2)).exact) is int
        x = param(Fraction(2, 3))
        assert x.exact == Fraction(2, 3) and x.integer is None and x.is_exact
        assert x.value == 2 / 3
        assert str(x) == "2/3"

    def test_fraction_never_terminates_or_is_singular(self):
        for v in (Fraction(2, 3), Fraction(-2, 3), Fraction(-7, 2)):
            assert not param(v).is_nonpositive_int()
            spec = HypSpec.of([v, 0.5], [v - 1])
            assert termination_order(spec) is None
            validate_spec(spec)
            # summed like the doubles of the same values
            got = evaluate(HypSpec.of([v], [v - 1]), 0.3)
            assert got == evaluate(HypSpec.of([float(v)], [float(v - 1)]), 0.3)

    def test_exact_value_beyond_the_double_range_is_invalid(self):
        # ValueError, as for a non-finite value, not a bare OverflowError
        for x in (10**400, -(10**400), Fraction(10**400), Fraction(10**400, 3)):
            with pytest.raises(ValueError, match="beyond the double range"):
                param(x)
        with pytest.raises(ValueError, match="beyond the double range"):
            HypSpec.of([10**400], [2])

    def test_exact_sum_beyond_the_double_range_is_invalid(self):
        # each operand is valid; the sum is checked as param() checks a value
        for a, b in ((10**308, 10**308), (-(10**308), -(10**308))):
            with pytest.raises(ValueError, match="beyond the double range"):
                param(a) + param(b)
            with pytest.raises(ValueError, match="beyond the double range"):
                param(a) - param(-b)
        assert (param(10**308) + param(-(10**308))).exact == 0

    def test_bool_rejected(self):
        with pytest.raises(TypeError):
            param(True)


class TestPochhammer:
    def test_order_zero(self):
        assert pochhammer(0.7 + 0.2j, 0) == 1

    def test_factorial(self):
        assert pochhammer(1, 5) == 120

    def test_exact_input_gives_exact_value(self):
        for a, k, want in (
            (1, 5, 120),
            (Fraction(1, 2), 3, Fraction(15, 8)),
            (Fraction(2, 3), -2, Fraction(9, 4)),
            (3, -2, Fraction(1, 2)),
        ):
            got = pochhammer(a, k)
            assert type(got) is Fraction and got == want
        assert pochhammer_vec((Fraction(1, 2), 2), 2) == Fraction(3, 4) * 6
        assert type(pochhammer_vec((Fraction(1, 2), 0.5), 2)) is complex

    def test_numeric_input_fingerprint(self):
        # float and complex input give the bits they gave when exact input
        # was also computed in complex doubles
        rng = random.Random("pochhammer-floats")
        h = hashlib.sha256()
        for _ in range(400):
            v = []
            for _ in range(rng.randint(1, 3)):
                u = rng.random()
                if u < 0.2:
                    v.append(float(rng.randint(-6, 6)))
                elif u < 0.6:
                    v.append(rng.uniform(-6, 6))
                else:
                    v.append(complex(rng.uniform(-6, 6), rng.uniform(-3, 3)))
            k = rng.randint(-6, 9)
            for f, arg in ((pochhammer, v[0]), (pochhammer_vec, v)):
                try:
                    line = repr(f(arg, k))
                except HypDerivError as e:
                    line = f"{type(e).__name__}: {e}"
                h.update(line.encode() + b"\n")
        assert h.hexdigest() == "796043bbdfa5bf301eb937492f02d9d20551e737aa0a90bf5c02bd391786ec26"

    def test_half(self):
        assert pochhammer(0.5, 3) == pytest.approx(1.875, rel=1e-15)

    def test_negative_order(self):
        # (3)_{-2} = 1/((1)(2)), needed by negative-order coefficients
        assert pochhammer(3, -2) == pytest.approx(0.5, rel=1e-15)

    def test_negative_order_pole(self):
        with pytest.raises(PolePochhammer):
            pochhammer(2, -3)

    def test_vec(self):
        assert pochhammer_vec((param(2), param(3)), 2) == 72
        assert pochhammer_vec((), 7) == 1
        assert pochhammer_vec((param(1), param(1)), 3) == 36

    def test_recurrence_exact_integers(self):
        for k in range(8):
            assert pochhammer(3, k + 1) == pochhammer(3, k) * (3 + k)

    def test_recurrence_numeric(self):
        rng = random.Random(0)
        for _ in range(50):
            a = complex(rng.uniform(-2, 2), rng.uniform(-2, 2))
            k = rng.randint(0, 9)
            assert rel(pochhammer(a, k + 1), pochhammer(a, k) * (a + k)) < 1e-14

    def test_shift_identity(self):
        # (a+k)_n (a)_k = (a+n)_k (a)_n
        rng = random.Random(1)
        for _ in range(200):
            a = complex(rng.uniform(-2, 2), rng.uniform(-2, 2))
            k, n = rng.randint(0, 8), rng.randint(0, 8)
            lhs = pochhammer(param(a) + k, n) * pochhammer(a, k)
            rhs = pochhammer(param(a) + n, k) * pochhammer(a, n)
            assert rel(lhs, rhs) < 1e-12

    def test_split_identity(self):
        # (a)_{k+s} = (a)_s (a+s)_k
        rng = random.Random(2)
        for _ in range(200):
            a = complex(rng.uniform(-2, 2), rng.uniform(-2, 2))
            k, s = rng.randint(0, 8), rng.randint(0, 8)
            lhs = pochhammer(a, k + s)
            rhs = pochhammer(a, s) * pochhammer(param(a) + s, k)
            assert rel(lhs, rhs) < 1e-12

    def test_negative_order_consistency(self):
        rng = random.Random(3)
        for _ in range(50):
            a = complex(rng.uniform(-2, 2), rng.uniform(-2, 2))
            k = rng.randint(1, 6)
            prod = pochhammer(a, -k) * pochhammer(param(a) - k, k)
            assert rel(prod, 1) < 1e-13


class TestSpecRules:
    def test_termination_order(self):
        assert termination_order(HypSpec.of([-3, 0.5], [2])) == 3
        assert termination_order(HypSpec.of([0.5, 2 / 3], [2])) is None
        # c_k vanishes first at k = m+1, so the smallest magnitude wins
        assert termination_order(HypSpec.of([-5, -2], [2])) == 2
        # a numeric -3.0 does not terminate
        assert termination_order(HypSpec.of([-3.0], [2])) is None

    def test_validate_nonterminating_rejects_nonpositive_lower(self):
        with pytest.raises(SingularLowerParameter) as ei:
            validate_spec(HypSpec.of([0.5], [-1]))
        assert ei.value.index == 0

    def test_validate_doubly_integer_regime(self):
        validate_spec(HypSpec.of([-2], [-2]))  # k = m allowed
        with pytest.raises(SingularLowerParameter):
            validate_spec(HypSpec.of([-2], [-1]))  # k < m rejected

    def test_validate_numeric_lower_allowed(self):
        validate_spec(HypSpec.of([0.5], [-1.0]))  # exactness not inferred


class TestCoefficient:
    def test_k0(self):
        assert coefficient(HypSpec.of([0.4, 1.1], [0.9]), 0) == 1

    def test_first_coefficient(self):
        c = coefficient(HypSpec.of([0.5, 2 / 3], [2]), 1)
        assert c == pytest.approx(1 / 6, rel=1e-15)

    def test_doubly_integer_finite_ratio(self):
        assert coefficient(HypSpec.of([-2], [-2]), 2) == pytest.approx(0.5, rel=1e-15)

    def test_beyond_termination_is_zero(self):
        assert coefficient(HypSpec.of([-2], [-2]), 5) == 0

    def test_numeric_lower_pole(self):
        with pytest.raises(PoleCoefficient):
            coefficient(HypSpec.of([0.5], [-1.0]), 3)

    @staticmethod
    def _specs(rng, exact):
        """Seeded convergent-at-0 specs, p <= q + 1: real or complex
        doubles, or small rationals."""
        for _ in range(50):
            q = rng.randint(0, 2)
            p = rng.randint(0, q + 1)
            if exact:
                d = rng.choice((3, 4, 8))
                par = lambda: Fraction(rng.randint(-5 * d // 2, 5 * d // 2), d)  # noqa: E731
            elif rng.random() < 0.5:
                par = lambda: rng.uniform(-2.5, 2.5)  # noqa: E731
            else:
                par = lambda: complex(rng.uniform(-2.5, 2.5), rng.uniform(-1.5, 1.5))  # noqa: E731
            yield HypSpec.of([par() for _ in range(p)], [par() + 3 for _ in range(q)])

    def test_agrees_with_the_kernel(self):
        # the definition against the kernel's product of term ratios: at w0 = 0
        # coefficient k of the jet is c_k itself; exactly in the exact field
        rng = random.Random("coefficient-vs-kernel")
        for spec in self._specs(rng, exact=False):
            cs = jet_pfq(spec, jet_variable(0, 6)).coeffs
            for k, c in enumerate(cs):
                assert rel(coefficient(spec, k), c) <= 1e-15, (spec, k)
        for spec in self._specs(rng, exact=True):
            w = [Fraction(0), Fraction(1)] + [Fraction(0)] * 5
            cs = FRACTION.series(spec, w, Fraction(1, 10**20), 100)[0]
            for k, c in enumerate(cs):
                got = coefficient(spec, k)
                assert type(got) is Fraction and got == c, (spec, k)

    def test_matches_mpmath_rf(self):
        mpmath = pytest.importorskip("mpmath")
        rng = random.Random("coefficient-vs-mpmath")
        with mpmath.workdps(30):
            for spec in self._specs(rng, exact=False):
                for k in range(7):
                    want = mpmath.mpf(1) / mpmath.factorial(k)
                    for a in spec.upper:
                        want *= mpmath.rf(mpmath.mpc(a.value), k)
                    for b in spec.lower:
                        want /= mpmath.rf(mpmath.mpc(b.value), k)
                    assert rel(coefficient(spec, k), complex(want)) <= 1e-15, (spec, k)


class TestEvaluate:
    def test_log_value(self):
        # 2F1(1,1;2;z) = -log(1-z)/z
        r = evaluate(HypSpec.of([1, 1], [2]), 0.5)
        assert rel(r.value, 2 * math.log(2)) < 1e-13
        assert not r.terminated
        assert r.tail_estimate > 0

    def test_at_zero(self):
        r = evaluate(HypSpec.of([0.3 + 0.1j, 1.7], [0.9]), 0)
        assert r.value == 1

    def test_terminating_at_unit_argument(self):
        r = evaluate(HypSpec.of([-1, 3], [2]), 1)
        assert r.value == pytest.approx(-0.5, rel=1e-15)
        assert r.terminated and r.tail_estimate == 0.0
        assert r.terms_used == 2

    def test_terminating_matches_fraction_brute_force_exactly(self):
        # dyadic argument and integer parameters keep every float step exact
        def brute(upper, lower, z, kmax=60):
            total = Fraction(0)
            for k in range(kmax):
                num = Fraction(1)
                den = Fraction(math.factorial(k))
                for a in upper:
                    for j in range(k):
                        num *= a + j
                for b in lower:
                    for j in range(k):
                        den *= b + j
                total += Fraction(num, den) * z**k
            return total

        for z in (Fraction(1, 2), Fraction(1, 4), Fraction(3, 4)):
            got = evaluate(HypSpec.of([-3, 2], [1]), float(z)).value
            want = brute([Fraction(-3), Fraction(2)], [Fraction(1)], z)
            assert got.real == float(want) and got.imag == 0.0

    def test_cancelled_terminating_series_is_exact(self):
        # the double sums of these polynomials cancel by kappa ~ 3e26 and
        # 2e36, so they are rerun exactly: the Fraction sum of the defining
        # series, rounded once
        for upper, lower, z in (([-60], [Fraction(1, 2)], 40), ([-80], [Fraction(3, 2)], 60)):
            spec = HypSpec.of(upper, lower)
            exact = sum(coefficient(spec, k) * Fraction(z) ** k for k in range(-upper[0] + 1))
            assert evaluate(spec, z).value == complex(float(exact))

    def test_rerun_cancelled_past_its_digits_raises(self):
        # e^z as 0F0 at z = -383 and -37.9: the 38-digit rerun's terms add up
        # to ~e^|z| for a sum of e^z, a cancellation past the 1e21 that 38
        # digits resolve, and their sums are off by 3.8e293 and 1.9e-6
        # relative; at z = -20 (kappa 2e17) the rerun is exact to the double
        for z in (-383.0, -37.9):
            with pytest.raises(NoConvergence, match="^series coefficient 0 cancelled past the 1e21"):
                evaluate(HypSpec.of([], []), z)
            with pytest.raises(NoConvergence, match="cancelled past"):
                eval_expr(expr(term(1, hyp(HypSpec.of([], [])))), z)
        assert evaluate(HypSpec.of([], []), -20.0).value == cmath.exp(-20.0)

    def test_rerun_check_limit_is_on_the_double_pass_moduli(self):
        # the double pass's terms of e^z as 0F0 add up in modulus to e^|z|,
        # kappa = e^(|z| - Re z); the rerun resolves it to the double at
        # kappa 0.9e21 and raises at 1.1e21, in every direction
        for turn, kappa in product((1.0, 0.75, 0.6), (0.9e21, 1.1e21)):
            angle = turn * math.pi
            z = cmath.rect(math.log(kappa) / (1 - math.cos(angle)), angle)
            if kappa < 1e21:
                assert abs(evaluate(HypSpec.of([], []), z).value / cmath.exp(z) - 1) < 1e-15
            else:
                with pytest.raises(NoConvergence, match="^series coefficient 0 cancelled past the 1e21"):
                    evaluate(HypSpec.of([], []), z)

    def test_terminating_overflow_fails_as_no_convergence(self):
        # the terms of this degree-1000 polynomial pass the largest double at
        # term 266, before its sum could be formed
        spec = HypSpec.of([-1000, 0.37], [1.23])
        e = expr(term(1, hyp(spec)))
        with pytest.raises(NoConvergence, match="^series term 266 overflowed"):
            evaluate(spec, 1.7)
        with pytest.raises(NoConvergence, match="^series term 266 overflowed"):
            eval_expr(e, 1.7)
        with pytest.raises(NoConvergence, match="overflowed"):
            nth_derivative(e, 2, 1.7)

    def test_permutation_invariance(self):
        rng = random.Random(4)
        for _ in range(20):
            ups = [complex(rng.uniform(-2, 2), rng.uniform(-2, 2)) for _ in range(3)]
            lows = [complex(rng.uniform(0.5, 3), rng.uniform(-1, 1)) for _ in range(2)]
            z = 0.4
            base = evaluate(HypSpec.of(ups, lows), z).value
            perm = evaluate(HypSpec.of([ups[2], ups[0], ups[1]], [lows[1], lows[0]]), z).value
            assert rel(base, perm) < 1e-13

    def test_domain_error_outside_disk(self):
        with pytest.raises(DomainError):
            evaluate(HypSpec.of([0.5, 0.7], [1.2]), 1.5)

    def test_domain_error_above_disk_line(self):
        with pytest.raises(DomainError):
            evaluate(HypSpec.of([0.5, 0.7, 0.9], [1.2]), 0.5)

    def test_terminating_wins_over_divergence(self):
        r = evaluate(HypSpec.of([-2, 0.7, 0.9], [1.2]), 0.5)
        assert r.terminated

    def test_no_convergence_budget(self):
        with pytest.raises(NoConvergence):
            evaluate(HypSpec.of([1, 1], [2]), 0.999, EvalControl(max_terms=10))
        # max_terms counts term 0: a sum that stops at its 26th term needs 26
        spec = HypSpec.of([0.5, 1.5], [2.5])
        assert evaluate(spec, 0.3, EvalControl(max_terms=26)).terms_used == 26
        with pytest.raises(NoConvergence, match="^no convergence within 25 terms$"):
            evaluate(spec, 0.3, EvalControl(max_terms=25))

    def test_not_a_number_term_fails_fast(self):
        # r_0 z = (1e200 + 1e200i)^2 overflows to (nan, inf), which makes
        # term 1 (nan, nan): a term whose modulus is not even infinite
        with pytest.raises(NoConvergence, match="^series term 1 overflowed"):
            evaluate(HypSpec.of([1e200 + 1e200j], [1]), 1e200 + 1e200j)

    def test_empty_vectors_give_exponential(self):
        # p = q = 0: every coefficient is 1/k!
        r = evaluate(HypSpec.of([], []), 1.3)
        assert rel(r.value, math.exp(1.3)) < 1e-14

    def test_complex_argument(self):
        # 2F1(1,1;2;z) = -log(1-z)/z holds off the real axis too
        z = 0.3 + 0.4j
        r = evaluate(HypSpec.of([1, 1], [2]), z)
        assert rel(r.value, -cmath.log(1 - z) / z) < 1e-13

    def test_control_validation(self):
        for bad in (0.0, -1e-14, math.inf, math.nan, 1.0, 10.0):
            with pytest.raises(ValueError):
                EvalControl(rel_tol=bad)
        with pytest.raises(ValueError):
            EvalControl(max_terms=0)


class TestClassify:
    def test_entire(self):
        assert (
            classify_convergence(HypSpec.of([0.5], [1.3]), 100 + 5j)
            is ConvergenceClass.ENTIRE
        )

    def test_inside_disk(self):
        assert (
            classify_convergence(HypSpec.of([0.5, 2 / 3], [2]), 0.9j)
            is ConvergenceClass.INSIDE_UNIT_DISK
        )

    def test_at_plus_one(self):
        # Re(sum b - sum a) = 2 - 1/2 - 2/3 = 5/6 > 0
        assert (
            classify_convergence(HypSpec.of([0.5, 2 / 3], [2]), 1)
            is ConvergenceClass.AT_PLUS_ONE
        )

    def test_at_minus_one(self):
        # Re(sum b - sum a) = -0.5, condition  -0.5 + 1 > 0
        assert (
            classify_convergence(HypSpec.of([1, 1], [1.5]), -1)
            is ConvergenceClass.AT_MINUS_ONE
        )

    def test_boundary_sum_zero_divergent(self):
        assert (
            classify_convergence(HypSpec.of([1, 1], [2]), 1)
            is ConvergenceClass.UNIT_DISK_BOUNDARY_DIVERGENT
        )

    def test_minus_one_boundary_divergent(self):
        assert (
            classify_convergence(HypSpec.of([1.5, 1.5], [2]), -1)
            is ConvergenceClass.UNIT_DISK_BOUNDARY_DIVERGENT
        )

    def test_above_line(self):
        assert (
            classify_convergence(HypSpec.of([0.5, 1 / 3, 0.25], [1.1]), 0.5)
            is ConvergenceClass.DIVERGENT_UNLESS_TERMINATING
        )

    def test_terminating_where_the_series_diverges(self):
        # p = q+1 polynomials past the unit disk and at z = 1 with
        # Re(sum b - sum a) = -1: labelled as p > q+1 labels them
        for spec, z in ((HypSpec.of([-3, 0.5], [1]), 2.5), (HypSpec.of([-3, 5], [1]), 1)):
            assert classify_convergence(spec, z) is ConvergenceClass.DIVERGENT_UNLESS_TERMINATING


# sha256 of evaluate's results over _evaluate_cases(): repr of the value,
# terms used, terminated and the tail estimate, or the error's class and text.
# Only library errors are caught, so a bare OverflowError (a modulus past the
# largest double with both parts finite) fails the test.
EVALUATE_FINGERPRINT = "d1c75172def4f0b85dba437db22d2d7a211cfb7d8ae876d37e72194d682a4340"


def _evaluate_cases():
    """Seeded (spec, z, ctrl) inputs with p <= 3 and q <= 2, real or complex:
    terminating series, entire series up to |z| = 40 (and a few at 1000),
    |z| < 0.99 inside the unit disk, and the boundary, divergent and
    singular inputs that ``evaluate`` rejects; a fifth of them under a looser stop rule or a small
    term budget."""
    rng = random.Random("evaluate-fingerprint")
    controls = (EvalControl(rel_tol=1e-8), EvalControl(max_terms=60))
    for _ in range(2000):
        p, q = rng.randint(0, 3), rng.randint(0, 2)
        real = rng.random() < 0.5

        def par():
            x = rng.uniform(-2.5, 2.5)
            return x if real else complex(x, rng.uniform(-1.5, 1.5))

        upper = [par() for _ in range(p)]
        lower = [par() + 3 for _ in range(q)]
        u = rng.random()
        if p and u < 0.3:
            upper[rng.randrange(p)] = -rng.randint(0, 8)
        elif q and u < 0.34:
            lower[0] = rng.choice([-rng.randint(0, 3), -float(rng.randint(0, 3))])
        if termination_order(HypSpec.of(upper, lower)) is not None:
            radius = 5.0
        elif p <= q:
            # now and then far enough out for a term to overflow
            radius = rng.choice([40.0] * 24 + [1000.0])
        elif p == q + 1:
            radius = rng.choice([0.99] * 8 + [1.5])
        else:
            radius = 0.5
        if p == q + 1 and rng.random() < 0.05:
            z = rng.choice([1.0, -1.0])
        elif real:
            z = rng.uniform(-radius, radius)
        else:
            z = cmath.rect(rng.uniform(0, radius), rng.uniform(-math.pi, math.pi))
        ctrl = rng.choice(controls) if rng.random() < 0.2 else None
        yield HypSpec.of(upper, lower), z, ctrl


def _evaluate_fingerprint():
    h = hashlib.sha256()
    outcomes = Counter()
    for spec, z, ctrl in _evaluate_cases():
        try:
            r = evaluate(spec, z, ctrl)
        except HypDerivError as e:
            line = f"{type(e).__name__}: {e}"
            outcomes[type(e).__name__] += 1
        else:
            line = f"{r.value!r} {r.terms_used} {r.terminated} {r.tail_estimate!r}"
            outcomes["terminated" if r.terminated else "summed"] += 1
        h.update(line.encode() + b"\n")
    return h.hexdigest(), outcomes


class TestEvaluateFingerprint:
    """``evaluate`` bit for bit: values, term counts, tail estimates and
    error messages over a seeded sweep of finite inputs."""

    def test_fingerprint(self):
        got, outcomes = _evaluate_fingerprint()
        assert sum(outcomes.values()) == 2000
        for kind in ("summed", "terminated", "DomainError", "NoConvergence", "PoleCoefficient"):
            assert outcomes[kind] >= 10, outcomes
        assert got == EVALUATE_FINGERPRINT
