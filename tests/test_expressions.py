"""Expression model: pointwise and jet evaluation, serialization."""

import cmath
import math
import random
from collections import Counter
from fractions import Fraction

import mpmath
import pytest

from hypderiv import jets
from hypderiv.catalog import entry
from hypderiv.core import EvalControl, HypSpec, evaluate, param, termination_order
from hypderiv.errors import BranchPointEvaluation, NoConvergence
from hypderiv.expressions import (
    ArgMap,
    Expr,
    Hyp,
    eval_expr,
    eval_expr_jet,
    expr,
    expz,
    format_expr,
    hyp,
    map_jet,
    nth_derivative,
    pow1mz,
    powz,
    term,
)
from hypderiv.identities import reduce_cancellation
from hypderiv.jets import jet_variable

CTRL = EvalControl(rel_tol=1e-16)


def rel(x, y):
    return abs(x - y) / max(abs(x), abs(y), 1e-300)


def table_lhs(c):
    """z^{c-1} 2F1(1/2, 2/3; c; z)"""
    return expr(
        term(1, powz(param(c) - 1), hyp(HypSpec.of([0.5, 2 / 3], [c])))
    )


class TestEvalExpr:
    def test_power(self):
        assert eval_expr(expr(term(1, powz(2))), 3) == 9

    def test_empty(self):
        assert eval_expr(Expr(()), 0.4) == 0

    def test_zero_coeff_term_skipped(self):
        # a vanishing coefficient must not force evaluation of its factors
        bad = Hyp(HypSpec.of([0.5], [-1.0]), ArgMap.IDENTITY)
        assert eval_expr(Expr((term(0, bad), term(2, powz(1)))), 0.5) == 1

    def test_exceptional_line_value(self):
        # n=4, a=1/2, b=2/3, c=2 at z=1/3
        p = {"a1": param(0.5), "a2": param(2 / 3), "c": param(2), "n": 4}
        v = eval_expr(entry("Th1-4-exceptional").rhs(p), 1 / 3, CTRL)
        assert rel(v, 3.39340187542396) < 1e-14

    def test_exp_factors(self):
        e = expr(term(1, expz(1), expz(-1)))
        assert rel(eval_expr(e, 0.37), 1) < 1e-15

    def test_branch_points(self):
        # a power at a base value of 0 and the Pfaff map at z = 1 raise one
        # error, for the value and every derivative, at a complex and at an
        # exact base point
        at_zero = [expr(term(1, powz(a))) for a in (0.5, -1, -2)]
        at_one = [expr(term(1, pow1mz(a))) for a in (0.5, -1, -2)]
        at_one.append(expr(term(1, hyp(HypSpec.of([0.5, 0.6], [2]), ArgMap.PFAFF))))
        for z, cases in ((0, at_zero), (1, at_one)):
            for e in cases:
                with pytest.raises(BranchPointEvaluation):
                    eval_expr(e, z)
                for n in (0, 1, 3):
                    for z0 in (z, Fraction(z)):
                        with pytest.raises(BranchPointEvaluation):
                            nth_derivative(e, n, z0)
        # a nonnegative integer power has no branch point
        assert eval_expr(expr(term(1, powz(0))), 0) == 1
        assert nth_derivative(expr(term(1, powz(2))), 2, 0) == 2

    def test_pfq_factor_is_guarded(self):
        # 1F1(1/2; 3/2; w) = sqrt(pi) erf(sqrt(-w)) / (2 sqrt(-w)) at w = -20
        # and -15: the series cancels, so the factor reruns in fixed point
        spec = HypSpec.of([Fraction(1, 2)], [Fraction(3, 2)])
        for m, z, w in ((ArgMap.IDENTITY, -20, -20), (ArgMap.NEGATE, 15, -15)):
            with mpmath.workdps(40):
                want = complex(mpmath.hyper([0.5], [1.5], w))
            assert rel(eval_expr(expr(term(1, hyp(spec, m))), z), want) <= 1e-14

    def test_evaluate_is_the_order_0_expression(self, monkeypatch):
        # evaluate and eval_expr sum every series through the complex field's
        # one guarded entry: the same value bit for bit, also where the double
        # sum cancels and is rerun, and the same NoConvergence where the
        # rerun cannot resolve it
        def outcome(f, *args):
            try:
                return f(*args)
            except NoConvergence as exc:
                raised.append(1)
                return str(exc)

        raised = []
        reruns = Counter()
        for module, attr in ((jets, "d_pfq"), (jets.FRACTION, "series")):
            original = getattr(module, attr)

            def counting(*args, original=original, attr=attr):
                reruns[attr] += 1
                return original(*args)

            monkeypatch.setattr(module, attr, counting)
        rng = random.Random("evaluate-is-eval-expr")
        for _ in range(300):
            q = rng.randint(0, 2)
            p = rng.randint(0, q + 1)
            real = rng.random() < 0.5

            def par():
                x = rng.uniform(-2.5, 2.5)
                return x if real else complex(x, rng.uniform(-1.5, 1.5))

            upper, lower = [par() for _ in range(p)], [par() + 3 for _ in range(q)]
            if p and rng.random() < 0.3:
                upper[0] = -rng.randint(0, 40)
            spec = HypSpec.of(upper, lower)
            radius = 0.95 if p == q + 1 and termination_order(spec) is None else 40.0
            z = rng.uniform(-radius, radius)
            if not real:
                z = cmath.rect(abs(z), rng.uniform(-math.pi, math.pi))
            got = outcome(lambda: evaluate(spec, z).value)
            assert got == outcome(eval_expr, expr(term(1, hyp(spec))), z), (spec, z)
        # every cancelled sum reruns in fixed point, a real polynomial too,
        # and none in the exact field
        assert reruns["d_pfq"] >= 120 and not reruns["series"], reruns
        # none of the 300 raises at this seed (13 did at 38 digits)
        assert not raised, len(raised)


class TestEvalExprJet:
    def test_order_zero_agreement(self):
        rng = random.Random(6)
        for _ in range(10):
            a = complex(rng.uniform(-1.5, 1.5), rng.uniform(-1.5, 1.5))
            b = complex(rng.uniform(0.5, 2.5), rng.uniform(-1, 1))
            e = expr(
                term(
                    complex(rng.uniform(-1, 1), rng.uniform(-1, 1)),
                    powz(rng.uniform(-1.5, 1.5)),
                    pow1mz(rng.uniform(-1.5, 1.5)),
                    hyp(HypSpec.of([a, 1.2], [b])),
                )
            )
            z0 = rng.choice([0.2, 1 / 3, 0.7])
            j = eval_expr_jet(e, z0, 3)
            assert rel(j.coeffs[0], eval_expr(e, z0)) < 1e-12
            assert eval_expr(e, z0) == eval_expr_jet(e, z0, 0).coeffs[0]

    def test_table_first_row_derivative(self):
        j = eval_expr_jet(table_lhs(1), 1 / 3, 4, CTRL)
        v = math.factorial(4) * j.coeffs[4]
        assert rel(v, 16.2802578209098) < 1e-14

    def test_exp_product_unit_jet(self):
        j = eval_expr_jet(expr(term(1, expz(1), expz(-1))), 0.4, 4)
        assert rel(j.coeffs[0], 1) < 1e-13
        assert all(abs(c) < 1e-13 for c in j.coeffs[1:])


class TestOneTermPath:
    """``eval_expr`` and ``eval_expr_jet`` build each term and sum the terms
    one way: every coefficient is the exactly rounded sum of the terms'."""

    def test_value_is_the_order_0_jet_bit_for_bit(self):
        rng = random.Random("one-term-path")
        for _ in range(200):
            terms = [
                term(
                    complex(rng.uniform(-1, 1), rng.uniform(-1, 1)) * 10.0 ** rng.randint(-8, 16),
                    *rng.sample(
                        [powz(rng.uniform(-1.5, 1.5)), pow1mz(rng.uniform(-1.5, 1.5)), expz(-1),
                         hyp(HypSpec.of([rng.uniform(-2, 2), 1.2], [rng.uniform(0.5, 2.5)]))],
                        rng.randint(0, 3),
                    ),
                )
                for _ in range(rng.randint(0, 5))
            ]
            e = Expr(tuple(terms))
            z = rng.choice([0.2, 1 / 3, 0.7, Fraction(1, 3)])
            assert eval_expr(e, z) == eval_expr_jet(e, complex(z), 0).coeffs[0], (e, z)

    def test_terms_sum_exactly_rounded(self):
        # the jet_add chain 1e16 z + z - 1e16 z lost the middle term: the
        # derivative came out 0
        e = expr(term(1e16, powz(1)), term(1, powz(1)), term(-1e16, powz(1)))
        assert eval_expr(e, 0.5) == 0.5
        assert eval_expr_jet(e, 0.5, 0).coeffs[0] == 0.5
        assert nth_derivative(e, 1, 0.5) == 1
        assert nth_derivative(e, 1, Fraction(1, 2)) == 1

    def test_exact_exponent_in_the_fraction_field(self):
        # (1-z)^(2/5) at z = 1/3: c_i/c_0 = (-1)^i binom(2/5, i) (3/2)^i,
        # exact with the exponent 2/5 itself, not its double
        j = eval_expr_jet(expr(term(1, pow1mz(Fraction(2, 5)))), Fraction(1, 3), 4)
        ratios = [c / j.coeffs[0] for c in j.coeffs]
        want = [1, Fraction(-3, 5), Fraction(-27, 100), Fraction(-27, 125), Fraction(-1053, 5000)]
        assert ratios == want


class TestFiniteOrNoConvergence:
    """The oracle returns a finite value or raises ``NoConvergence``."""

    def test_overflow_raises_no_convergence(self):
        twice = expr(term(1e308, powz(1)), term(1e308, powz(1)))
        cases = (
            lambda: eval_expr(twice, 1.0),  # the column sum: OverflowError
            lambda: nth_derivative(twice, 1, 1.0),
            # a term's product z * z at 1e308: OverflowError in its dot
            lambda: nth_derivative(expr(term(1, powz(1), powz(1))), 1, 1e308),
            lambda: nth_derivative(expr(term(1e308, powz(2))), 1, 1.5),  # inf+nanj
            lambda: nth_derivative(expr(term(1e96, powz(-0.578))), 1, 1e-242),  # nan+nanj
            # the coefficient 1e300 is finite, 20! times it is not: inf+0j
            lambda: nth_derivative(expr(term(1e300, powz(20))), 20, 1.0),
            # an exact coefficient past the double range, in the complex field
            lambda: nth_derivative(expr(term(10**400, powz(1))), 1, 1.0),
        )
        for case in cases:
            with pytest.raises(NoConvergence):
                case()

    def test_opposite_infinite_terms_raise_no_convergence(self):
        # each term is +-1e320 at z = 1e10, and their sum inf - inf, which
        # csum raises as an overflow, at orders 0 and 1
        e = expr(term(1e300, powz(2)), term(-1e300, powz(2)))
        with pytest.raises(NoConvergence):
            eval_expr(e, 1e10)
        with pytest.raises(NoConvergence):
            nth_derivative(e, 1, 1e10)

    def test_derivative_past_the_double_range_raises(self):
        # 171! is past the largest double, so n! c_n overflows whatever c_n
        for e in (expr(term(1, powz(1))), expr(term(1, expz(1)))):
            with pytest.raises(NoConvergence, match="^derivative 171 overflowed"):
                nth_derivative(e, 171, 0.5)

    def test_values_just_inside_the_range_are_returned(self):
        # the same shapes, scaled into the double range, are finite values
        assert eval_expr(expr(term(1e307, powz(1)), term(1e307, powz(1))), 1.0) == 2e307
        assert nth_derivative(expr(term(1, powz(1), powz(1))), 1, 1e154) == 2e154
        assert nth_derivative(expr(term(1e280, powz(20))), 20, 1.0) == math.factorial(20) * 1e280
        # a Fraction result is exact, and exempt: no double can overflow
        assert nth_derivative(expr(term(10**400, powz(1))), 1, Fraction(1)) == 10**400


class TestNthDerivative:
    def test_linear(self):
        assert rel(nth_derivative(expr(term(1, powz(1))), 1, 0.37), 1) < 1e-15

    def test_table_values(self):
        assert rel(nth_derivative(table_lhs(4), 4, 1 / 3, CTRL), 3.31081155003091) < 1e-14
        assert rel(nth_derivative(table_lhs(7), 4, 1 / 3, CTRL), 41.6637846070299) < 1e-14

    def test_linearity(self):
        rng = random.Random(7)
        s1 = HypSpec.of([0.3, 1.1], [1.7])
        s2 = HypSpec.of([0.9], [2.1])
        t1 = term(1.3 - 0.2j, powz(0.7), hyp(s1))
        t2 = term(-0.4 + 1j, pow1mz(1.2), hyp(s2))
        for n in (1, 3, 5):
            both = nth_derivative(Expr((t1, t2)), n, 0.4)
            split = nth_derivative(Expr((t1,)), n, 0.4) + nth_derivative(
                Expr((t2,)), n, 0.4
            )
            assert rel(both, split) < 1e-12


class TestArgMap:
    def test_pfaff_involution_on_rationals(self):
        for z in (Fraction(1, 3), Fraction(2, 7), Fraction(-3, 5)):
            w = z / (z - 1)
            assert w / (w - 1) == z

    def test_map_point(self):
        def at(m, z):
            return map_jet(m, jet_variable(z, 0)).coeffs[0]

        assert at(ArgMap.IDENTITY, 0.3) == 0.3
        assert at(ArgMap.NEGATE, 0.3) == -0.3
        assert at(ArgMap.PFAFF, 1 / 3) == pytest.approx(-0.5, rel=1e-15)


class TestCancellationTransparency:
    def test_value_unchanged(self):
        full = HypSpec.of([5, 0.5, 2 / 3], [5, 2])
        reduced = reduce_cancellation(full)
        assert reduced.p == 2 and reduced.q == 1
        e_full = expr(term(1, hyp(full)))
        e_red = expr(term(1, hyp(reduced)))
        for z in (0.2, 1 / 3, 0.7):
            assert rel(eval_expr(e_full, z), eval_expr(e_red, z)) < 1e-12


class TestSerialization:
    def test_format(self):
        e = expr(
            term(
                2.5,
                powz(param(3)),
                pow1mz(param(-0.5)),
                expz(-1),
                hyp(HypSpec.of([0.5, 2], [3]), ArgMap.NEGATE),
            )
        )
        assert format_expr(e) == "2.5 powz 3 pow1mz -0.5 exp - pfq 2 1 0.5 2 ; 3 negate"

    def test_exact_vs_numeric_params_distinguished(self):
        line = format_expr(expr(term(1, powz(param(3)))))
        assert line == "1.0 powz 3"
        line = format_expr(expr(term(1, powz(param(3.0)))))
        assert line == "1.0 powz 3.0"

    def test_one_term_per_line(self):
        e = Expr((term(1, powz(1)), term(2, expz(1))))
        assert format_expr(e).splitlines() == ["1.0 powz 1", "2.0 exp +"]
