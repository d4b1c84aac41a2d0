"""The derivative-identity engine: branches, cancellation, specialization."""

import math
import random
from fractions import Fraction

import pytest

from hypderiv.core import (
    EvalControl,
    HypSpec,
    coefficient,
    param,
    pochhammer,
    pochhammer_vec,
    validate_spec,
)
from hypderiv.errors import SingularCoefficient, SingularLowerParameter
from hypderiv.expressions import (
    Hyp,
    eval_expr,
    expr,
    format_expr,
    hyp,
    nth_derivative,
    powz,
    term,
)
from hypderiv.identities import (
    RBranch,
    branch_holds,
    classify_r,
    reduce_cancellation,
    specialize,
    theorem1_rhs,
    theorem_exceptional_term,
)

CTRL = EvalControl(rel_tol=1e-16)
A, B = param(0.5), param(2 / 3)


def rel(x, y):
    return abs(x - y) / max(abs(x), abs(y), 1e-300)


def rand_complex(rng, lo=-2.0, hi=2.0):
    while True:
        x = complex(rng.uniform(lo, hi), rng.uniform(lo, hi))
        if abs(x - round(x.real)) > 1e-3:
            return x


class TestClassify:
    def test_numeric_is_general(self):
        assert classify_r(param(0.5), 4) is RBranch.GENERAL

    def test_small_exact_is_exceptional(self):
        assert classify_r(param(3), 4) is RBranch.EXCEPTIONAL

    def test_negative_exact(self):
        assert classify_r(param(-2), 4) is RBranch.NEGATIVE_INTEGER

    def test_equal_n_reports_general(self):
        assert classify_r(param(4), 4) is RBranch.GENERAL

    def test_n_positive_required(self):
        with pytest.raises(ValueError):
            classify_r(param(1), 0)

    def test_lines_overlap_only_at_r_equals_n(self):
        n = 4
        for k in (-3, -1, 0, 2, n, n + 1):
            held = [b for b in RBranch if branch_holds(b, param(k), n)]
            want = [RBranch.GENERAL, RBranch.EXCEPTIONAL] if k == n else [classify_r(k, n)]
            assert held == want, k
        assert [b for b in RBranch if branch_holds(b, param(2.0), n)] == [RBranch.GENERAL]
        # an exact rational is never an integer, unless its denominator is 1
        for x in (Fraction(2, 3), Fraction(-1, 2), Fraction(9, 2)):
            assert [b for b in RBranch if branch_holds(b, param(x), n)] == [RBranch.GENERAL]
        assert classify_r(Fraction(6, 2), n) is classify_r(3, n) is RBranch.EXCEPTIONAL
        assert classify_r(Fraction(-4, 2), n) is RBranch.NEGATIVE_INTEGER


class TestTheorem1Rhs:
    def test_general_value(self):
        # 2F1(1/2,2/3;5), r = 4 = n, z = 1/3
        f = theorem1_rhs(HypSpec((A, B), (param(5),)), param(4), 4)
        assert f.branch is RBranch.GENERAL
        assert rel(eval_expr(f.rhs, 1 / 3, CTRL), 27.4105535888826) < 1e-14

    def test_exceptional_value(self):
        f = theorem1_rhs(HypSpec((A, B), (param(2),)), param(1), 4)
        assert f.branch is RBranch.EXCEPTIONAL
        assert rel(eval_expr(f.rhs, 1 / 3, CTRL), 3.39340187542396) < 1e-14

    def test_exact_rational_exponent(self):
        # the general line, with exact slots r+1 = 5/3 and r-n+1 = -4/3, an
        # exact coefficient (-4/3)_3 = 8/27, and the value of the double r
        spec = HypSpec((param(Fraction(1, 2)),), (param(Fraction(5, 2)),))
        f = theorem1_rhs(spec, Fraction(2, 3), 3)
        assert f.branch is RBranch.GENERAL
        assert f.rhs.terms[0].coeff == Fraction(8, 27)
        assert format_expr(f.rhs) == (
            f"{8 / 27!r} powz -7/3 pfq 2 2 5/3 1/2 ; -4/3 5/2 identity"
        )
        numeric = theorem1_rhs(HypSpec.of([0.5], [2.5]), 2 / 3, 3)
        assert rel(eval_expr(f.rhs, 0.3), eval_expr(numeric.rhs, 0.3)) < 1e-14

    def test_exact_rational_power_computes_like_the_double(self):
        def lhs(half, rest):
            return expr(term(1, powz(half), hyp(HypSpec.of([half], [rest]))))

        exact, numeric = lhs(Fraction(1, 2), Fraction(5, 2)), lhs(0.5, 2.5)
        for z0 in (0.3, 1 / 3, 0.2 + 0.1j):
            assert repr(eval_expr(exact, z0)) == repr(eval_expr(numeric, z0))
            assert repr(nth_derivative(exact, 3, z0)) == repr(nth_derivative(numeric, 3, z0))

    def test_negative_branch_first_term_is_polynomial(self):
        spec = HypSpec.of([0.3, 1.1], [1.7])
        f = theorem1_rhs(spec, param(-2), 3)
        assert f.branch is RBranch.NEGATIVE_INTEGER
        assert len(f.rhs.terms) == 2
        first_hyp = next(x for x in f.rhs.terms[0].factors if isinstance(x, Hyp))
        # upper contains r+1 = -1 exact: a degree-1 polynomial under the
        # iterated-limit rule despite the exact nonpositive lower parameter
        assert first_hyp.spec.upper[0].exact == -1
        assert first_hyp.spec.lower[0].exact == -4
        validate_spec(first_hyp.spec)
        assert coefficient(first_hyp.spec, 2) == 0

    def test_oracle_equivalence_all_branches(self):
        rng = random.Random(42)
        for branch in ("general", "exceptional", "negative"):
            for _ in range(20):
                n = rng.randint(1, 5)
                spec = HypSpec.of(
                    [rand_complex(rng), rand_complex(rng)],
                    [rand_complex(rng)],
                )
                if branch == "general":
                    while True:
                        rv = rng.uniform(-2, 2)
                        if abs(rv - round(rv)) > 1e-3:
                            break
                    r = param(rv)
                elif branch == "exceptional":
                    r = param(rng.randint(0, n))
                else:
                    r = param(rng.randint(-3, -1))
                lhs = expr(term(1, powz(r), hyp(spec)))
                f = theorem1_rhs(spec, r, n)
                for z0 in (0.2, 1 / 3, 0.7):
                    lv = nth_derivative(lhs, n, z0)
                    rv_ = eval_expr(f.rhs, z0)
                    assert rel(lv, rv_) < 1e-8, (branch, n, z0)

    def test_overlap_at_r_equals_n(self):
        # the general and exceptional lines coincide for r = n
        from hypderiv.identities import theorem_exceptional_term
        from hypderiv.expressions import Expr

        rng = random.Random(9)
        for _ in range(10):
            n = rng.randint(1, 5)
            spec = HypSpec.of([rand_complex(rng), rand_complex(rng)], [rand_complex(rng)])
            gen = theorem1_rhs(spec, param(n), n).rhs
            exc = Expr((theorem_exceptional_term(spec.upper, spec.lower, n, n),))
            for z0 in (0.2, 0.7):
                assert rel(eval_expr(gen, z0), eval_expr(exc, z0)) < 1e-10


class TestExactUpperOne:
    def test_pair_cancels_and_value_is_kept(self):
        # an exact upper 1 drops the lower n-r+1 (the Th1-5 form); a numeric
        # 1.0 keeps the pair, and both give the same value
        n = 3
        for r in (0, 2, -2):
            folded = theorem_exceptional_term((param(1), param(0.8)), (param(1.9),), r, n)
            kept = theorem_exceptional_term((param(1.0), param(0.8)), (param(1.9),), r, n)
            h = next(f for f in folded.factors if isinstance(f, Hyp))
            assert (h.spec.p, h.spec.q) == (2, 1)
            assert h.spec.upper[0].exact == n + 1
            v, w = (eval_expr(expr(t), 0.3, CTRL) for t in (folded, kept))
            assert rel(v, w) < 1e-12, r


class TestCoefficientDecomposition:
    """The two normalized coefficient identities behind the negative branch."""

    def test_built_series_carry_the_normalized_coefficients(self):
        # the constructed two-term RHS must have series coefficients equal to
        # the normalized low/high parts of the original series
        rng = random.Random(8)
        m, n = 3, 2
        for _ in range(10):
            spec = HypSpec.of(
                [rand_complex(rng), rand_complex(rng)], [rand_complex(rng)]
            )
            f = theorem1_rhs(spec, param(-m), n)
            h1, h2 = (
                next(x for x in t.factors if isinstance(x, Hyp)) for t in f.rhs.terms
            )
            # the first series is the low part: a degree m-1 polynomial
            for k in range(m):
                low = (
                    pochhammer(param(-m - n + 1) + k, n)
                    / pochhammer(param(-m - n + 1), n)
                    * coefficient(spec, k)
                )
                assert rel(coefficient(h1.spec, k), low) < 1e-12
            assert coefficient(h1.spec, m) == 0
            # the second series is the normalized high tail
            for k in range(6):
                high = (
                    pochhammer(param(k + 1), n)
                    / math.factorial(n)
                    * coefficient(spec, m + n + k)
                    / coefficient(spec, m + n)
                )
                assert rel(coefficient(h2.spec, k), high) < 1e-12

    def test_low_part(self):
        # ((-m-n+1+k)_n / (-m-n+1)_n) c_k = (1/k!) (-m+1, a)_k / (-m-n+1, b)_k
        rng = random.Random(10)
        m, n = 6, 3
        for _ in range(20):
            a1, a2, b1 = (rand_complex(rng) for _ in range(3))
            spec = HypSpec.of([a1, a2], [b1])
            for k in range(6):
                lhs = (
                    pochhammer(param(-m - n + 1) + k, n)
                    / pochhammer(param(-m - n + 1), n)
                    * coefficient(spec, k)
                )
                rhs = (
                    pochhammer_vec((param(-m + 1), param(a1), param(a2)), k)
                    / pochhammer_vec((param(-m - n + 1), param(b1)), k)
                    / math.factorial(k)
                )
                assert rel(lhs, rhs) < 1e-12

    def test_high_part(self):
        # ((k+1)_n / (1)_n) c_{m+n+k}/c_{m+n} = (1/k!) (n+1, a+m+n)_k / (m+n+1, b+m+n)_k
        rng = random.Random(11)
        m, n = 2, 3
        for _ in range(20):
            a1, a2, b1 = (rand_complex(rng) for _ in range(3))
            spec = HypSpec.of([a1, a2], [b1])
            cmn = coefficient(spec, m + n)
            for k in range(6):
                lhs = (
                    pochhammer(param(k + 1), n)
                    / math.factorial(n)
                    * coefficient(spec, m + n + k)
                    / cmn
                )
                rhs = (
                    pochhammer_vec(
                        (param(n + 1), param(a1) + (m + n), param(a2) + (m + n)), k
                    )
                    / pochhammer_vec((param(m + n + 1), param(b1) + (m + n)), k)
                    / math.factorial(k)
                )
                assert rel(lhs, rhs) < 1e-12


class TestReduceCancellation:
    def test_example(self):
        s = reduce_cancellation(HypSpec.of([5, 0.5, 2 / 3], [5, 2]))
        assert [x.value for x in s.upper] == [0.5, 2 / 3]
        assert [x.value for x in s.lower] == [2]

    def test_no_pair(self):
        s0 = HypSpec.of([0.4, 1.1], [0.9])
        assert reduce_cancellation(s0) == s0

    def test_single_pair_of_duplicates(self):
        s = reduce_cancellation(HypSpec.of([3, 3], [3]))
        assert [x.value for x in s.upper] == [3]
        assert s.q == 0

    def test_idempotent(self):
        s = reduce_cancellation(HypSpec.of([5, 0.5], [5, 2]))
        assert reduce_cancellation(s) == s


class TestSpecialize:
    def test_th14_regular_table_value(self):
        f = specialize(HypSpec((A, B), (param(7),)), param(6), 4)
        assert f.name == "Th1-4-regular"
        assert rel(eval_expr(f.rhs, 1 / 3, CTRL), 41.6637846070299) < 1e-14
        # cancellation happened: back to a 2F1
        h = next(x for x in f.rhs.terms[0].factors if isinstance(x, Hyp))
        assert h.spec.p == 2 and h.spec.q == 1

    def test_th14_exceptional_at_c1(self):
        f = specialize(HypSpec((A, B), (param(1),)), param(0), 4)
        assert f.name == "Th1-4-exceptional"
        assert rel(eval_expr(f.rhs, 1 / 3, CTRL), 16.2802578209098) < 1e-14

    def test_th12_name_and_shape(self):
        f = specialize(HypSpec.of([0.3, 0.8], [1.9]), param(0), 3)
        assert f.name == "Th1-2"
        h = next(x for x in f.rhs.terms[0].factors if isinstance(x, Hyp))
        assert h.spec.p == 2 and h.spec.q == 1

    def test_th13_negative_integer_route(self):
        # a1 = -m-n+1 exact, r = -m: single polynomial term survives
        m, n = 2, 3
        spec = HypSpec.of([-m - n + 1, 0.4], [1.3])
        f = specialize(spec, param(-m), n)
        assert f.name == "Th1-3"
        assert len(f.rhs.terms) == 1
        lhs = expr(term(1, powz(param(-m)), hyp(spec)))
        lv = nth_derivative(lhs, n, 0.4)
        assert rel(lv, eval_expr(f.rhs, 0.4)) < 1e-12

    def test_th13_numeric_source_cancels(self):
        # float shift arithmetic does not round-trip for a1 = 2/3; the line
        # is built from a1 itself, so no shifted pair is left to cancel
        a1 = param(2 / 3)
        spec = HypSpec((a1, param(0.25)), (param(1.6),))
        r = a1 + 3
        f = specialize(spec, r, 4)
        assert f.name == "Th1-3"
        h = next(x for x in f.rhs.terms[0].factors if isinstance(x, Hyp))
        assert h.spec.p == 2 and h.spec.q == 1
        lhs = expr(term(1, powz(r), hyp(spec)))
        assert rel(nth_derivative(lhs, 4, 0.3), eval_expr(f.rhs, 0.3)) < 1e-10

    def test_th14_numeric_source_cancels(self):
        c = param(1.75)
        f = specialize(HypSpec((A, B), (c,)), c - 1, 4)
        assert f.name == "Th1-4-regular"
        h = next(x for x in f.rhs.terms[0].factors if isinstance(x, Hyp))
        assert h.spec.p == 2 and h.spec.q == 1

    def test_th14_exceptional_numeric_lower(self):
        # a numeric lower 3.0 at the exact r = 2 reads as the exact c = 3
        spec = HypSpec.of([0.3, 0.8], [3.0])
        f = specialize(spec, param(2), 4)
        assert f.name == "Th1-4-exceptional"
        lhs = expr(term(1, powz(param(2)), hyp(spec)))
        for z0 in (0.2, 0.7):
            assert rel(nth_derivative(lhs, 4, z0, CTRL), eval_expr(f.rhs, z0, CTRL)) < 1e-12

    def test_pair_in_spec_is_kept(self):
        spec = HypSpec.of([0.3, 0.8], [0.8])
        f = specialize(spec, param(0.45), 3)
        h = next(x for x in f.rhs.terms[0].factors if isinstance(x, Hyp))
        assert h.spec.p == 3 and h.spec.q == 2
        reduced = reduce_cancellation(h.spec)
        assert reduced.p == 2 and reduced.q == 1

    def test_th15_names(self):
        f = specialize(HypSpec.of([1, 0.8], [1.9]), param(2), 3)
        assert f.name == "Th1-5-exceptional"
        f = specialize(HypSpec.of([1, 0.8], [1.9]), param(-2), 3)
        assert f.name == "Th1-5-negative"
        assert len(f.rhs.terms) == 2

    def test_unspecialized_name(self):
        f = specialize(HypSpec.of([0.3, 0.8], [1.9]), param(0.45), 3)
        assert f.name == "Th1-1"

    def test_values_match_theorem(self):
        rng = random.Random(12)
        for _ in range(10):
            n = rng.randint(1, 4)
            spec = HypSpec.of([rand_complex(rng), rand_complex(rng)], [rand_complex(rng)])
            r = param(rng.randint(0, n))
            th = theorem1_rhs(spec, r, n)
            sp = specialize(spec, r, n)
            for z0 in (0.2, 0.7):
                assert rel(eval_expr(th.rhs, z0), eval_expr(sp.rhs, z0)) < 1e-12


class TestVanishingGeneralPrefactor:
    """At a numeric whole-number r the general prefactor (r-n+1)_n, or
    (c-n)_n at r = c-1, vanishes where its series has a pole: the line
    raises instead of dropping its one term, which read as a derivative 0."""

    def test_theorem1_rhs(self):
        spec = HypSpec.of([0.5], [2.5])
        lhs = expr(term(1, powz(2.0), hyp(spec)))
        assert abs(nth_derivative(lhs, 4, 0.3)) > 1
        with pytest.raises(SingularCoefficient):
            theorem1_rhs(spec, 2.0, 4)

    def test_specialize_th14_regular(self):
        spec = HypSpec.of([0.5, 0.7], [2.0])
        lhs = expr(term(1, powz(1.0), hyp(spec)))
        assert abs(nth_derivative(lhs, 4, 0.3)) > 1
        with pytest.raises(SingularCoefficient):
            specialize(spec, 1.0, 4)


class TestSingularRegularBranch:
    def test_exceptional_routes_around_singularity(self):
        # at exact c in 1..n the regular line is singular but specialize
        # lands on the exceptional form, which matches the oracle
        for c in (1, 2, 3, 4):
            spec = HypSpec((A, B), (param(c),))
            f = specialize(spec, param(c - 1), 4)
            assert f.name in ("Th1-4-exceptional", "Th1-2")
            lhs = expr(term(1, powz(param(c - 1)), hyp(spec)))
            lv = nth_derivative(lhs, 4, 1 / 3, CTRL)
            assert rel(lv, eval_expr(f.rhs, 1 / 3, CTRL)) < 1e-12

    def test_regular_form_raises_structured_error(self):
        from hypderiv.catalog import entry

        p = {"a1": A, "a2": B, "c": param(2), "n": 4}
        e = entry("Th1-4-regular")
        assert not e.applicable(p)
        with pytest.raises(SingularLowerParameter):
            e.rhs(p)


THEOREM_BUILDERS = (
    "theorem_general_term",
    "theorem_exceptional_term",
    "theorem2_term",
    "theorem3_term",
    "theorem4_regular_term",
    "theorem4_exceptional_term",
)


class TestOneRecordPerTheorem:
    def test_only_the_theorem_records_call_the_builders(self):
        # each theorem-line builder is called once, in its record at module
        # level in identities: not by theorem1_rhs, specialize or the catalog
        from test_jets import _calls, _scopes_where

        for name in THEOREM_BUILDERS:
            assert _scopes_where(_calls(name)) == ["identities"], name
