"""Jet arithmetic and the derivative oracle."""

import ast
import cmath
import hashlib
import inspect
import math
import random
import struct
from fractions import Fraction
from itertools import product
from pathlib import Path

import mpmath
import pytest

from hypderiv import expressions as ex
from hypderiv import jets
from hypderiv.core import EvalControl, HypSpec, coefficient, csum, evaluate, termination_order
from hypderiv.errors import (
    BasePointAtBranchPoint,
    DivisionByZeroJet,
    DomainError,
    NoConvergence,
    OrderTooLow,
    PoleCoefficient,
)
from hypderiv.expressions import (
    ArgMap,
    eval_expr,
    expr,
    expz,
    hyp,
    map_jet,
    nth_derivative,
    pow1mz,
    powz,
    term,
)
from hypderiv.jets import (
    _STEP,
    COMPLEX,
    FRACTION,
    FX,
    Field,
    Jet,
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


# a fixed-point field of the reruns' kind, at a precision of its own
FIXED = jets._Fixed(160)


def rel(x, y):
    return abs(x - y) / max(abs(x), abs(y), 1e-300)


def _scopes_where(match) -> list[str]:
    """The scope (module.Class.function) of each AST node in the package
    that satisfies ``match``, sorted."""
    found = []

    def walk(node, scope):
        if match(node):
            found.append(".".join(scope))
        if isinstance(node, (ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            scope = scope + [node.name]
        for child in ast.iter_child_nodes(node):
            walk(child, scope)

    for path in sorted(Path(jets.__file__).parent.glob("*.py")):
        walk(ast.parse(path.read_text()), [path.stem])
    return sorted(found)


def _calls(name):
    """A match for a call of ``name``, bare or as an attribute."""

    def match(node):
        f = getattr(node, "func", None) if isinstance(node, ast.Call) else None
        return getattr(f, "id", None) == name or getattr(f, "attr", None) == name

    return match


def rand_jet(rng, z0, order):
    return Jet(
        complex(z0),
        tuple(complex(rng.uniform(-1, 1), rng.uniform(-1, 1)) for _ in range(order + 1)),
    )


class TestBasics:
    def test_variable(self):
        assert jet_variable(2, 3).coeffs == (2, 1, 0, 0)
        assert jet_variable(0, 0).coeffs == (0,)
        assert jet_variable(1j, 1).coeffs == (1j, 1)

    def test_cube(self):
        v = jet_variable(2, 3)
        assert jet_mul(jet_mul(v, v), v).coeffs == (8, 12, 6, 1)

    def test_add_identity(self):
        rng = random.Random(0)
        j = rand_jet(rng, 0.3, 4)
        z = jet_constant(0, 0.3, 4)
        assert jet_add(j, z).coeffs == j.coeffs

    def test_complex_dot_is_csum_of_the_products(self):
        # bit for bit, signed zeros too: a single product is returned as
        # math.fsum would round it, and math.fsum([-0.0]) is 0.0
        rng = random.Random(2)
        signed = [complex(x, y) for x in (0.0, -0.0) for y in (0.0, -0.0)]
        values = signed + [complex(rng.uniform(-1, 1), rng.uniform(-1, 1)) for _ in range(4)]
        for x in values:
            for y in values:
                for n in (1, 2, 3):
                    xs, ys = [x] * n, [y] * n
                    want = csum([a * b for a, b in zip(xs, ys)])
                    assert repr(COMPLEX.dot(xs, ys)) == repr(want), (x, y, n)

    def test_div_self(self):
        rng = random.Random(1)
        j = rand_jet(rng, 0.3, 4)
        q = jet_div(j, j)
        assert q.coeffs[0] == 1
        assert all(abs(c) < 1e-15 for c in q.coeffs[1:])

    def test_div_by_zero_lead(self):
        with pytest.raises(DivisionByZeroJet):
            jet_div(jet_constant(1, 0.0, 2), jet_variable(0, 2))

    def test_mismatched_operands(self):
        with pytest.raises(ValueError):
            jet_add(jet_variable(0, 2), jet_variable(1, 2))

    def test_sum_past_the_double_range_raises(self):
        # in the complex field a jet_* result is finite or raises: 1e308 +
        # 1e308 is not a double
        big = Jet(0.5, (1e308, 1e308))
        with pytest.raises(NoConvergence, match="^jet_add coefficient overflowed: it is not finite$"):
            jet_add(big, big)
        assert jet_add(big, jet_constant(-1e308, 0.5, 1)).coeffs == (0, 1e308)

    @pytest.mark.parametrize(
        "name, run",
        [
            ("jet_exp", lambda: jet_exp(Jet(0.5, (1.0, 1e200, 1e200)))),  # was nan+nanj
            ("jet_ipow", lambda: jet_ipow(Jet(0.5, (1e200, 1.0)), 3)),  # was inf+nanj
            ("jet_scale", lambda: jet_scale(Jet(0.5, (1e308, 1.0)), 10)),  # was inf
            ("jet_div", lambda: jet_div(Jet(0.5, (1.0, 1.0)), Jet(0.5, (1e-300, 1.0)))),  # was -inf
        ],
        ids=["jet_exp", "jet_ipow", "jet_scale", "jet_div"],
    )
    def test_result_past_the_double_range_raises(self, name, run):
        with pytest.raises(NoConvergence, match=f"^{name} coefficient overflowed: it is not finite$"):
            run()

    def test_product_of_opposite_infinities_raises(self):
        # coefficient 1 sums 1e308 * 1e308 and -1e308 * 1e308, inf - inf,
        # which was a bare OverflowError
        a, b = Jet(0.5, (1e308, -1e308, 1e308)), Jet(0.5, (1e308, 1e308, 1e308))
        with pytest.raises(NoConvergence, match=r"^jet_mul overflowed: -inf \+ inf in fsum$"):
            jet_mul(a, b)

    def test_constant_at_a_base_point_past_the_double_range(self):
        # as jet_variable: a ValueError, where it was a bare OverflowError
        for make in (jet_constant, lambda z0, order: jet_variable(z0, order)):
            args = (1, Fraction(10**400), 2) if make is jet_constant else (Fraction(10**400), 2)
            with pytest.raises(ValueError, match="beyond the double range"):
                make(*args)

    def test_ipow_is_the_product_from_the_unit_jet(self):
        # ipow starts from a itself, rounded as the unit jet's product would
        # round it: bit for bit, signed zeros too, in every field
        rng = random.Random(4)
        signed = [complex(x, y) for x in (0.0, -0.0) for y in (0.0, -0.0, 0.5)]
        values = {
            COMPLEX: signed + [complex(rng.uniform(-2, 2), rng.uniform(-2, 2)) for _ in range(5)],
            FRACTION: [Fraction(rng.randint(-9, 9), rng.randint(1, 9)) for _ in range(6)],
            FIXED: [FIXED.lift(1 / 3 + 0.25j) * FIXED.lift(rng.uniform(-2, 2)) for _ in range(6)],
        }
        for field, pool in values.items():
            show = (lambda xs: [(x.re, x.im, x.err) for x in xs]) if field is FIXED else repr
            for order in (0, 1, 3):
                a = [rng.choice(pool) for _ in range(order + 1)]
                unit = [field.one] + [field.zero] * order
                for m in range(-3 if a[0] else 0, 5):
                    want = unit
                    for _ in range(abs(m)):
                        want = field.mul(want, a)
                    if m < 0:
                        want = field.div(unit, want)
                    assert show(field.ipow(a, m)) == show(want), (field, a, m)


class TestExp:
    def test_series_at_zero(self):
        j = jet_exp(jet_variable(0, 4))
        assert j.coeffs == (1, 1, 0.5, 1 / 6, 1 / 24)

    def test_constant(self):
        j = jet_exp(jet_constant(0.4, 0.0, 3))
        assert j.coeffs[0] == pytest.approx(math.exp(0.4), rel=1e-15)
        assert j.coeffs[1:] == (0, 0, 0)

    def test_product_of_opposite_signs_is_unit(self):
        rng = random.Random(2)
        j = rand_jet(rng, 0.3, 5)
        prod = jet_mul(jet_exp(j, 1), jet_exp(j, -1))
        assert rel(prod.coeffs[0], 1) < 1e-14
        assert all(abs(c) < 1e-14 for c in prod.coeffs[1:])


class TestPow:
    def test_sqrt_at_one(self):
        j = jet_pow(jet_variable(1, 2), 0.5)
        assert j.coeffs[0] == pytest.approx(1, rel=1e-15)
        assert j.coeffs[1] == pytest.approx(0.5, rel=1e-15)
        assert j.coeffs[2] == pytest.approx(-0.125, rel=1e-15)
        assert derivative(j, 2) == pytest.approx(-0.25, rel=1e-14)

    def test_alpha_one_identity(self):
        v = jet_variable(0.7, 4)
        j = jet_pow(v, 1)
        assert all(rel(a, b) < 1e-14 or abs(a - b) < 1e-15 for a, b in zip(j.coeffs, v.coeffs))

    def test_alpha_zero_unit(self):
        j = jet_pow(jet_variable(0.7, 4), 0)
        assert j.coeffs[0] == pytest.approx(1, rel=1e-15)
        assert all(abs(c) < 1e-16 for c in j.coeffs[1:])

    def test_branch_point(self):
        with pytest.raises(BasePointAtBranchPoint):
            jet_pow(jet_variable(0, 3), 0.5)

    def test_coefficient_past_the_double_range_raises(self):
        # z^-0.578 at 1e-242: the leading value, about 1e140, is a double,
        # but the recurrence divides by z, and coefficient 1 is -5.8e381
        with pytest.raises(NoConvergence, match="^jet_pow coefficient overflowed: it is not finite$"):
            jet_pow(jet_variable(1e-242, 1), -0.578)
        assert math.isfinite(jet_pow(jet_variable(1e-242, 0), -0.578).coeffs[0].real)

    def test_base_value_underflowing_to_zero(self):
        # the exact base value 1e-400 is not 0, but the double that the
        # leading value is taken from is
        e = expr(term(1, pow1mz(Fraction(1, 2))))
        with pytest.raises(BasePointAtBranchPoint, match="underflows to 0"):
            nth_derivative(e, 1, 1 - Fraction(1, 10**400))

    def test_leading_value_beyond_the_double_range(self):
        # 1e-300 ** -150.5 is about 1e45150, e^1000 about 1e434: reported as
        # the series kernel reports its own overflow, not as a bare
        # OverflowError
        e = expr(term(1, powz(-150.5)))
        for run in (
            lambda: nth_derivative(e, 1, 1e-300),
            lambda: eval_expr(e, 1e-300),
            lambda: nth_derivative(expr(term(1, powz(Fraction(-301, 2)))), 0, Fraction(1, 10**300)),
            lambda: jet_exp(jet_variable(1000, 2)),
        ):
            with pytest.raises(NoConvergence, match="leading value overflowed"):
                run()

    def test_composition(self):
        # (f^alpha)^beta = f^{alpha beta} on the positive real axis
        rng = random.Random(3)
        for _ in range(20):
            j = rand_jet(rng, 0.6, 5)
            j = Jet(j.base_point, (abs(j.coeffs[0]) + 1,) + j.coeffs[1:])
            al, be = rng.uniform(-1.5, 1.5), rng.uniform(-1.5, 1.5)
            a = jet_pow(jet_pow(j, al), be)
            b = jet_pow(j, al * be)
            assert all(rel(x, y) < 1e-12 or abs(x - y) < 1e-13 for x, y in zip(a.coeffs, b.coeffs))

    def test_ipow_negative(self):
        v = jet_variable(2, 3)
        j = jet_ipow(v, -2)
        # 1/z^2 at 2: derivatives -2 z^-3, 6 z^-4
        assert j.coeffs[0] == pytest.approx(0.25, rel=1e-14)
        assert derivative(j, 1) == pytest.approx(-2 / 8, rel=1e-14)
        assert derivative(j, 2) == pytest.approx(6 / 16, rel=1e-14)


class TestLeibniz:
    def test_binomial_convolution(self):
        rng = random.Random(4)
        for _ in range(30):
            a = rand_jet(rng, 0.3, 5)
            b = rand_jet(rng, 0.3, 5)
            prod = jet_mul(a, b)
            for n in range(6):
                want = sum(
                    math.comb(n, k) * derivative(a, k) * derivative(b, n - k)
                    for k in range(n + 1)
                )
                assert rel(derivative(prod, n), want) < 1e-12


class TestPfqJet:
    def test_cancellation_gives_exp(self):
        spec = HypSpec.of([0.7], [0.7])
        j = jet_pfq(spec, jet_variable(0, 5))
        e = jet_exp(jet_variable(0, 5))
        assert all(rel(a, b) < 1e-13 for a, b in zip(j.coeffs, e.coeffs))

    def test_constant_zero_arg(self):
        j = jet_pfq(HypSpec.of([0.4, 1.2], [0.8]), jet_constant(0, 0.0, 3))
        assert j.coeffs == (1, 0, 0, 0)

    def test_order_zero_matches_scalar(self):
        spec = HypSpec.of([1, 1], [2])
        j = jet_pfq(spec, jet_variable(0.5, 4))
        assert rel(j.coeffs[0], 2 * math.log(2)) < 1e-13

    def test_scalar_agreement_random(self):
        rng = random.Random(5)
        for _ in range(10):
            spec = HypSpec.of(
                [complex(rng.uniform(-2, 2), rng.uniform(-2, 2)) for _ in range(2)],
                [complex(rng.uniform(0.5, 3), rng.uniform(-1, 1))],
            )
            z0 = rng.choice([0.2, 1 / 3, 0.7])
            j = jet_pfq(spec, jet_variable(z0, 3))
            s = evaluate(spec, z0).value
            assert rel(j.coeffs[0], s) < 1e-12

    def test_domain_error_on_boundary(self):
        # 2F1(1/2, 2/3; 2) converges at z = 1 (Re(c - a - b) = 5/6 > 0), too
        # slowly to stop within the term budget.  A scalar, an order-0 jet
        # too, may sit there; a jet of order >= 1 must lie strictly inside
        spec = HypSpec.of([0.5, 2 / 3], [2])
        msg = "^no convergence within 10000 terms$"
        with pytest.raises(NoConvergence, match=msg):
            evaluate(spec, 1)
        with pytest.raises(NoConvergence, match=msg):
            jet_pfq(spec, jet_variable(1.0, 0))
        for order in (2, 3):
            with pytest.raises(DomainError, match="^jet base value"):
                jet_pfq(spec, jet_variable(1.0, order))

    def test_overflow_fails_fast(self):
        # the kernel steps the term jet itself, so it overflows at the term
        # where the scalar series does (470 at w0 = 800, either affine map;
        # 71 at w0 = 800^2, a dense argument), not where w^k would
        spec = HypSpec.of([1], [2])
        var = jet_variable(800, 3)
        negated = map_jet(ArgMap.NEGATE, jet_variable(-800, 3))
        for arg, k in ((var, 470), (negated, 470), (jet_mul(var, var), 71)):
            for run, x in ((evaluate, arg.coeffs[0]), (jet_pfq, arg)):
                with pytest.raises(NoConvergence, match=f"^series term {k} overflowed"):
                    run(spec, x)

    def test_sum_overflow_fails_as_no_convergence(self):
        # finite terms whose sum passes the largest double: e^709.9 as 0F0 at
        # orders 0-2, and a Pfaff-shaped composition at w0 = 709.5 whose
        # coefficient 2, 1.5 e^709.5, is past it though every g_j is not
        spec = HypSpec.of([], [])
        args = [jet_variable(709.9, order) for order in (0, 1, 2)]
        args.append(Jet(709.5, (709.5 + 0j, 1 + 0j, 1 + 0j)))
        for arg in args:
            with pytest.raises(NoConvergence, match="^series sum overflowed"):
                jet_pfq(spec, arg)

    def test_modulus_overflow_fails_fast(self):
        # both parts of term 409 stay finite, but its modulus passes the
        # largest double: abs() raises OverflowError in the stop test
        spec = HypSpec.of(
            [-1.7578212868566205 - 0.9537896754743135j, 0.1587802271860932 - 0.12151611070839508j],
            [2.2329338363549835 - 1.2644216836529585j, 1.6878564804728038 + 1.488454469905864j],
        )
        z0 = 907.0651684233964 + 231.64008844188933j
        msg = "^series term 409 overflowed: absolute value too large$"
        with pytest.raises(NoConvergence, match=msg):
            evaluate(spec, z0)
        for order in (1, 4):
            with pytest.raises(NoConvergence, match=msg):
                jet_pfq(spec, jet_variable(z0, order))

    def test_large_terms_do_not_overflow_the_power(self):
        # w^k overflows past term 72 at w0 = 2e4, the terms c_k w^k never do
        spec = HypSpec.of([], [1.5])
        coeffs = jet_pfq(spec, jet_variable(2e4, 2)).coeffs
        assert coeffs[0] == evaluate(spec, 2e4).value == 1.2146587558307586e120
        with mpmath.workdps(40):
            want = mpmath.taylor(lambda z: mpmath.hyper([], [1.5], z), 20000, 2)
        for g, w in zip(coeffs[1:], want[1:]):
            assert abs(g - complex(w)) <= 1e-12 * abs(complex(w))

    def test_non_finite_input_fails_before_summing(self):
        nan, inf = math.nan, math.inf
        tight = EvalControl(max_terms=1)
        for upper, lower, z0 in (
            ([1], [2], nan),
            ([1], [2], inf),
            ([1], [2], complex(0.5, nan)),
            ([nan], [2], 0.5),
            ([1], [complex(2, inf)], 0.5),
        ):
            spec = HypSpec.of(upper, lower)
            for ctrl in (None, tight):
                with pytest.raises(ValueError, match="^non-finite"):
                    evaluate(spec, z0, ctrl)
                with pytest.raises(ValueError, match="^non-finite"):
                    jet_pfq(spec, jet_variable(z0, 2), ctrl)
        # a non-finite coefficient past the base value is rejected too
        with pytest.raises(ValueError, match="^non-finite"):
            jet_pfq(HypSpec.of([1], [2]), Jet(0.5, (0.5, nan)))
        # the fixed-point and the exact entries run the same checks; a
        # fixed-point jet cannot hold a value that is not finite at all
        for coeffs in ((nan, 1), (0.5, complex(1, inf))):
            with pytest.raises(ValueError, match="^non-finite"):
                jets.d_pfq(HypSpec.of([1], [2]), jets.d_pair_from_jet(Jet(0.5, coeffs), FIXED), tight)
        for upper, lower in (([nan], [2]), ([1], [complex(2, inf)])):
            spec = HypSpec.of(upper, lower)
            with pytest.raises(ValueError, match="^non-finite"):
                jets.d_pfq(spec, jets.d_variable(0.5, 2, FIXED), tight)
            with pytest.raises(ValueError, match="^non-finite"):
                nth_derivative(expr(term(1, hyp(spec))), 2, Fraction(1, 2))
        # an exact base point beyond the double range is rejected as invalid
        # input, before any factor is computed
        spec = HypSpec.of([Fraction(1, 2)], [Fraction(3, 2)])
        for e in (expr(term(1, powz(2))), expr(term(1, hyp(spec)))):
            for z0 in (Fraction(10**400), Fraction(-(10**401), 7)):
                with pytest.raises(ValueError, match="beyond the double range"):
                    nth_derivative(e, 2, z0)
                with pytest.raises(ValueError, match="beyond the double range"):
                    eval_expr(e, z0)

    def test_numeric_whole_number_lower_is_a_pole_in_every_field(self):
        # the pole is reported whatever term the stop rule lands on: here the
        # sum would stop long before it (the first three after three zero
        # terms of the numeric upper 0.0), the rule an exact lower follows
        cases = (
            (([1.0], [-50.0]), 0.01, 51),
            (([1.0], [-5.0]), 0.5, 6),
            (([0.0, 0.5, 0.7], [-3.0, 1.3]), 0.3, 4),
            (([0.5], [-0.0]), 0.25, 1),
            (([0.5], [2.0, -7.0, -2.0]), 0.25, 3),
            # an exact upper -m ends the series at term m, before the pole at K+1
            (([-4, 0.5], [-2.0]), 0.3, 3),
        )
        for (upper, lower), z0, k in cases:
            spec = HypSpec.of(upper, lower)
            msg = f"at k={k}$"
            with pytest.raises(PoleCoefficient, match=msg):
                evaluate(spec, z0)
            for field in (COMPLEX, FIXED, FRACTION):
                with pytest.raises(PoleCoefficient, match=msg):
                    field.series(spec, [field.lift(z0), field.one], 1e-14, 10000)
        # K >= m: the series ends first and is summed, as at an exact lower
        for lower in (-2.0, -3.0, -2, -3):
            spec = HypSpec.of([-2, 0.5], [lower])
            want = 1 + (-2 * 0.5 / lower) * 0.3 + (-2 * -1 * 0.5 * 1.5) / (lower * (lower + 1) * 2) * 0.09
            assert rel(evaluate(spec, 0.3).value, want) < 1e-15
        # a numeric lower off the whole numbers, or complex, is no pole
        for lower in (-2.5, complex(-2.0, 1e-9)):
            evaluate(HypSpec.of([0.5], [lower]), 0.3)
        # the domain checks come first
        with pytest.raises(DomainError):
            evaluate(HypSpec.of([0.5, 1.5], [-2.0]), 1.5)
        # a denominator product that underflows to 0 is still caught per term
        with pytest.raises(PoleCoefficient, match="at k=1$"):
            evaluate(HypSpec.of([1.0], [1e-200, 1e-200]), 0.5)

    def test_series_is_the_one_entry_of_the_kernel(self):
        # in the package, only Field.series and the kernel's own Pfaff step
        # name Field.pfq: every series goes through one set of input checks
        found = _scopes_where(lambda node: isinstance(node, ast.Attribute) and node.attr == "pfq")
        assert found == ["jets.Field.pfq", "jets.Field.series"]

    def test_rerun_is_the_one_extended_precision_entry(self):
        # no module of the package imports decimal, and jets.rerun is the one
        # scope that builds a fixed-point field, so the one that sets its
        # precision, for the series and the expression rerun alike, from no
        # guess of the caller's: it takes no growth model, and jets has no
        # _bits.  The series entry and the expression sum are its only
        # callers (no term reruns on its own), rerun alone
        # names _cancelled, and jets makes no exact rerun
        for path in sorted(Path(jets.__file__).parent.glob("*.py")):
            imported = [
                node.module if isinstance(node, ast.ImportFrom) else alias.name
                for node in ast.walk(ast.parse(path.read_text()))
                if isinstance(node, (ast.Import, ast.ImportFrom))
                for alias in node.names
            ]
            assert "decimal" not in imported, path.name
        assert _scopes_where(_calls("_Fixed")) == ["jets.rerun"]
        assert not hasattr(jets, "_bits")
        assert list(inspect.signature(jets.rerun).parameters) == ["compute", "abs_sums", "sums"]
        assert _scopes_where(_calls("rerun")) == ["expressions._expr_jet", "jets.Field.series"]
        named = _scopes_where(lambda node: isinstance(node, ast.Name) and node.id == "_cancelled")
        assert named == ["jets.rerun"]
        fraction_series = _scopes_where(
            lambda node: _calls("series")(node) and getattr(node.func.value, "id", None) == "FRACTION"
        )
        assert not [scope for scope in fraction_series if scope.startswith("jets")], fraction_series
        # the series rerun's binding is jet_pfq itself
        assert jets.d_pfq is jet_pfq

    def test_only_the_complex_field_measures_cancellation(self):
        # one cancellation measure: no field overrides Field.series, which
        # hands every field's magnitude sums to rerun, and the fixed-point
        # and exact kernels return none, at order 0, on every argument map
        # and at w0 = 0, so their sums pass through
        assert Field.__subclasses__() and not [c for c in Field.__subclasses__() if "series" in vars(c)]
        spec = HypSpec.of([0.5, Fraction(2, 3)], [Fraction(7, 4)])
        for field, z0 in ((FIXED, 0.3 + 0.2j), (FRACTION, Fraction(1, 3))):
            for x0, order, amap in product((z0, 0), (0, 3), ArgMap):
                w = map_jet(amap, jet_variable(x0, order, field)).coeffs
                abs_sums = field.series(spec, w, field.series_tol(1e-14), 5000)[1]
                assert abs_sums is None, (field, x0, order, amap)

    def test_each_field_overrides_only_its_measured_hooks(self):
        # one kernel: a field overrides Field's steps only where a measurement
        # says it pays, the complex field's stepped buckets (fold, total),
        # the fixed-point scalar terms (fold, terms) and the exact ones
        # (fold, terms: the generic steps took table1_csv 45 ms against
        # 22 ms), whose stop test runs in doubles (exact: on exact
        # magnitudes it took table1_csv 24.8 ms against 11.1 ms); the weighting,
        # the division, the stop test's one loop and the composition's
        # products are the generic ones
        kernel = {name for name in vars(Field) if not name.startswith("__")}
        fields = [c for c in Field.__subclasses__() if c.__module__ == jets.__name__]
        overrides = {c.__name__: set(vars(c)) & kernel for c in fields}
        want = {"_Complex": {"fold", "total"}, "_Fixed": {"fold", "terms"}, "_Fraction": {"exact", "fold", "terms"}}
        assert overrides == want
        assert not [name for name in ("power_mul", "_divide") if hasattr(jets, name) or hasattr(Field, name)]
        assert "weigh" not in vars(jets._Fixed) and "power_mul" not in vars(jets._Complex)

    def test_rerun_past_its_digits_raises_inside_a_term(self, monkeypatch, rerun_precisions):
        # e^z as 0F0, bare and times e^z, at orders 1-2.  At z = -383 and
        # -700 the series rerun within the term resolves e^z from terms up
        # to e^383 and 1e302 (past the 2048 bits that once were the budget):
        # within 1e-15 of mpmath, or of the smallest subnormal for the
        # 2^n e^(2z) that underflows; so at -709 at order 0.  With a budget
        # of 512 bits the rerun at -383 raises
        f = hyp(HypSpec.of([], []))
        bare, times_exp = (expr(term(1, f)), 1), (expr(term(1, expz(1), f)), 2)
        cases = [(*es, n, z) for es, n, z in product((bare, times_exp), (1, 2), (-383.0, -700.0))]
        for e, s, n, z in cases + [(*bare, 0, -709.0)]:
            with mpmath.workdps(40):
                want = complex(s**n * mpmath.exp(s * mpmath.mpf(z)))
            assert abs(nth_derivative(e, n, z) - want) <= 1e-15 * abs(want) + 5e-324, (s, n, z)
        monkeypatch.setattr(jets, "_BUDGET", 512)
        for (e, _), n in product((bare, times_exp), (1, 2)):
            rerun_precisions.clear()
            with pytest.raises(NoConvergence, match="^rerun coefficient 0 is not resolved within 512 bits$"):
                nth_derivative(e, n, -383.0)
            assert rerun_precisions == [192, 384, 512], rerun_precisions

    def test_rerun_raises_an_overflow_as_no_convergence(self):
        # a value past the double range in the fixed-point jet, or in its
        # rounding to doubles: the rerun returns no value
        def compute(field):
            raise OverflowError("int too large to convert to float")

        with pytest.raises(NoConvergence, match="^rerun overflowed"):
            jets.rerun(compute, [1.0], [0j])

    def test_term_rerun_resolves_an_exact_zero(self, monkeypatch):
        # 2F1(-200, 1; 1; w) = (1 - w)^200 at w = 2 sums to 1 from terms up to
        # 1e95; times (1 - z)^-200 (or, on the Pfaff map, (1 - z)^200) the
        # Leibniz sums cancel to 0 at orders 1-2, and the expression of this
        # one term reruns.  The rerun resolves each coefficient to below the
        # smallest normal double, so the derivative is n! times at most one
        # subnormal step
        reruns = []
        d_variable = jets.d_variable
        monkeypatch.setattr(ex, "d_variable", lambda *a: reruns.append(a[2].p) or d_variable(*a))
        f = HypSpec.of([-200, 1], [1])
        for e in (expr(term(1, pow1mz(-200), hyp(f))), expr(term(1, pow1mz(200), hyp(f, ArgMap.PFAFF)))):
            assert nth_derivative(e, 0, 2.0) == 1
            for n in (1, 2):
                reruns.clear()
                assert abs(nth_derivative(e, n, 2.0)) <= math.factorial(n) * 5e-324
                # resolved only at a precision past 1022 + 61 bits
                assert reruns and reruns[-1] > 1083, reruns

    def test_term_rerun_resolves_at_its_first_precision(self, rerun_precisions):
        # two order-12 terms whose Leibniz sums cancel: each, an expression
        # of its own, reruns once, at 192 bits, where a start sized from the
        # double pass (128 and 150 bits) doubled, and returns the same doubles
        cases = (
            (
                0.5613545127064852 + 0.19076969139749717j,
                term(
                    1.0,
                    powz(0.0185656669838572),
                    pow1mz(1.066107586594156 - 0.9661939927242125j),
                    hyp(
                        HypSpec.of(
                            [-0.8259066933589985 - 1.5938942906023945j, 1.6242381666671375 - 0.3703872720438832j],
                            [-0.267776113286017 - 0.9980875699220653j],
                        )
                    ),
                ),
                -5652770723.858411 - 4544938559.8473835j,
            ),
            (
                -0.4763011936505627 - 0.4293930857821061j,
                term(
                    1.0,
                    powz(-0.48731725991293295),
                    pow1mz(-4.795527356873728 + 1.0776929517821814j),
                    hyp(
                        HypSpec.of(
                            [-3.4752713797907218 + 1.3925761894664939j, -3.1899855756226376 + 0.4206622859888143j],
                            [-1.8697295985396316 + 0.7355455236731268j],
                        )
                    ),
                ),
                4322649810.63323 - 18420612218.83666j,
            ),
        )
        for z0, t, want in cases:
            rerun_precisions.clear()
            assert nth_derivative(expr(t), 12, z0) == want, z0
            assert rerun_precisions == [192], (z0, rerun_precisions)

    def test_only_the_eval_command_calls_the_scalar_entry(self):
        # every other value, figure1's f_R2 included, is an expression's
        assert _scopes_where(_calls("evaluate")) == ["cli._cmd_eval"]

    def test_runs_over_its_jets_field(self):
        # a fixed-point or exact argument jet is summed in its own field, at
        # the field's series_tol, as that field's series entry sums it, and
        # agrees with the complex jet
        ctrl = EvalControl(rel_tol=1e-14, max_terms=5000)
        spec = HypSpec.of([0.5, Fraction(2, 3)], [Fraction(7, 4)])
        digits = {FIXED: lambda x: (x.re, x.im, x.err), FRACTION: lambda x: x}
        assert COMPLEX.series_tol(1e-14) == 1e-14
        assert FIXED.series_tol(1e-14) == 1e-25
        assert FIXED.series_tol(1e-30) == 1e-30
        assert FRACTION.series_tol(1e-14) == Fraction(1, 10**34)
        for field, z0 in ((FIXED, 0.3 + 0.2j), (FIXED, -0.4), (FRACTION, Fraction(1, 3))):
            for amap in ArgMap:
                arg = map_jet(amap, jet_variable(z0, 4, field))
                got = jet_pfq(spec, arg, ctrl)
                assert got.field is field and got.base_point == arg.base_point
                tol = field.series_tol(ctrl.rel_tol)
                want = field.series(spec, arg.coeffs, tol, ctrl.max_terms)[0]
                assert list(map(digits[field], got.coeffs)) == list(map(digits[field], want))
                ref = jet_pfq(spec, map_jet(amap, jet_variable(complex(z0), 4)), ctrl)
                for x, y in zip(got.coeffs, ref.coeffs):
                    assert rel(field.lower(x), y) < 1e-12, (field, z0, amap)

    def test_powers_of_affine_arguments_skip_the_product(self, monkeypatch):
        # the identity and negate maps step their term jets with two products per
        # coefficient and call no jet_mul; a dense argument (the Pfaff map) is
        # composed once, with the products d^2..d^K of d = w - w0: K - 1 calls
        # at order K, however many terms the series takes, also when it ends
        # at term 0, and in every field
        calls = []
        monkeypatch.setattr(jets, "jet_mul", lambda a, b: calls.append(1) or jet_mul(a, b))
        spec = HypSpec.of([0.5, 1.5], [2.5])
        cases = (  # spec, map, z0, order, jet_mul calls
            (spec, ArgMap.IDENTITY, 0.3, 3, 0),
            (spec, ArgMap.NEGATE, 0.3, 3, 0),
            (spec, ArgMap.PFAFF, -0.05, 3, 2),
            (spec, ArgMap.PFAFF, -3.0, 3, 2),
            (spec, ArgMap.PFAFF, -3.0, 6, 5),
            (HypSpec.of([0, 0.5], [1.5]), ArgMap.PFAFF, 0.2, 3, 2),
        )
        for s, amap, z0, order, want in cases:
            calls.clear()
            jet_pfq(s, map_jet(amap, jet_variable(z0, order)))
            assert len(calls) == want, (amap, z0, order)
        for field, z0 in ((FIXED, -0.05), (FIXED, 0.3 + 0.2j), (FRACTION, Fraction(-1, 20))):
            for order in (1, 3, 6):
                calls.clear()
                jet_pfq(spec, map_jet(ArgMap.PFAFF, jet_variable(z0, order, field)))
                assert len(calls) == order - 1, (field, z0, order)
        # the two nonterminating Pfaff inputs differ sixfold in their terms
        w = [evaluate(spec, z0 / (z0 - 1)).terms_used for z0 in (-0.05, -3.0)]
        assert 6 * w[0] < w[1], w

    def test_overflowed_composition_raises_no_convergence(self):
        # the Pfaff composition's power d^2 passes the double range, and its
        # coefficient 2 is not finite (inf+nanj): in the complex field
        # jet_pfq, and the jet_mul that forms the power, return a finite jet
        # or raise.  At order 4 the power's coefficients overflow to
        # infinities of opposite signs, which csum, like fsum's own overflow,
        # raises as OverflowError, so jet_mul reports an overflow, not a
        # bare ValueError
        with pytest.raises(NoConvergence, match="not finite"):
            jet_pfq(HypSpec.of([], []), Jet(0.5, (0.5, 1e200, 1e200)))
        with pytest.raises(NoConvergence, match=r"^jet_mul overflowed: -inf \+ inf in fsum$"):
            jet_pfq(HypSpec.of([], []), Jet(0.5, (0.5, 1e200, 1e200, -1e200, 1e200)))
        with pytest.raises(OverflowError):
            csum([math.inf, -math.inf])
        assert all(map(cmath.isfinite, jet_pfq(HypSpec.of([], []), Jet(0.5, (0.5, 1e100, 1e100))).coeffs))

    def test_terminating(self):
        # (-2)F at any base: a degree-2 polynomial, jet is exact
        spec = HypSpec.of([-2, 1.5], [1.25])
        j = jet_pfq(spec, jet_variable(0.4, 4))
        c0 = evaluate(spec, 0.4).value
        assert rel(j.coeffs[0], c0) < 1e-15
        assert j.coeffs[3] == 0 and j.coeffs[4] == 0


class TestDerivative:
    def test_cube(self):
        v = jet_variable(2, 3)
        assert derivative(jet_mul(jet_mul(v, v), v), 2) == 12

    def test_order_zero(self):
        assert derivative(jet_variable(0.3, 2), 0) == 0.3

    def test_exp_fourth(self):
        assert derivative(jet_exp(jet_variable(0, 4)), 4) == pytest.approx(1, rel=1e-15)

    def test_order_too_low(self):
        with pytest.raises(OrderTooLow):
            derivative(jet_variable(0, 2), 3)


class TestPolynomialExactness:
    def test_random_polynomials(self):
        rng = random.Random(11)
        for _ in range(50):
            deg = rng.randint(1, 8)
            coeffs = [complex(rng.uniform(-1, 1), rng.uniform(-1, 1)) for _ in range(deg + 1)]
            z0 = rng.choice([0.2, 1 / 3, 0.7])
            var = jet_variable(z0, deg)
            j = jet_constant(coeffs[-1], z0, deg)
            for c in reversed(coeffs[:-1]):
                j = jet_add(jet_mul(j, var), jet_constant(c, z0, deg))
            for n in range(deg + 1):
                want = sum(
                    coeffs[k] * (math.factorial(k) // math.factorial(k - n)) * z0 ** (k - n)
                    for k in range(n, deg + 1)
                )
                assert rel(derivative(j, n), want) < 1e-13


# sha256 of the jets' bits, identity and negate maps apart from the Pfaff map
JET_PFQ_FINGERPRINT = {
    "affine": "94734a52357c40e8b37080fc1c00fab464339a11ccf27baa054e77bc1ceaa81d",
    "pfaff": "a4f7f5430d6c70cda0477887a4e302120e84e928753cbe2b7c12b932a7447c52",
}

# 1F1(1/2; 3/2) on the negate map at |z0| = 15 cancels and is rerun
S11_DEEP = HypSpec.of([0.5], [1.5])


def _z0(rng, amap, radius, real):
    """A base point whose mapped argument lies within ``radius`` of 0."""
    while True:
        if real:
            z0 = complex(rng.uniform(-radius, radius))
        else:
            z0 = cmath.rect(rng.uniform(0, radius), rng.uniform(-math.pi, math.pi))
        if amap is not ArgMap.PFAFF or abs(z0 / (z0 - 1)) <= radius:
            return z0


def _param(rng, real):
    x = rng.uniform(-2.5, 2.5)
    return x if real else complex(x, rng.uniform(-1.5, 1.5))


def _fingerprint_cases():
    """Seeded (spec, map, z0, order) inputs of every kind the oracle meets:
    2F1 (|w0| < 0.9), 1F1 and 0F1 (|w0| < 8), terminating 2F1 and the
    fixed-point rerun, each at a real and a complex base point, per map and
    order."""
    rng = random.Random("jet-pfq-fingerprint")
    for order in range(13):
        for amap in ArgMap:
            for real in (True, False, True, False):
                p = lambda: _param(rng, real)  # noqa: E731
                yield HypSpec.of([p(), p()], [p() + 3]), amap, _z0(rng, amap, 0.9, real), order
                yield HypSpec.of([p()], [p() + 3]), amap, _z0(rng, amap, 8, real), order
                yield HypSpec.of([], [p() + 3]), amap, _z0(rng, amap, 8, real), order
                m = -rng.randint(0, 6)
                yield HypSpec.of([m, p()], [p() + 3]), amap, _z0(rng, amap, 3, real), order
        for deep in (15, cmath.rect(15, rng.uniform(-0.3, 0.3))):
            yield S11_DEEP, ArgMap.NEGATE, deep, order


def _jet_pfq_fingerprint():
    h = {"affine": hashlib.sha256(), "pfaff": hashlib.sha256()}
    n = 0
    for spec, amap, z0, order in _fingerprint_cases():
        coeffs = jet_pfq(spec, map_jet(amap, jet_variable(z0, order))).coeffs
        key = "pfaff" if amap is ArgMap.PFAFF else "affine"
        h[key].update(b"".join(struct.pack("<dd", c.real, c.imag) for c in coeffs))
        n += 1
    return {key: x.hexdigest() for key, x in h.items()}, n


class TestJetPfqFingerprint:
    """``jet_pfq`` bit for bit, over every argument map and orders 0-12.

    The identity and negate maps are the kernel's term jets stepped by the
    term ratio; the Pfaff map is a composition of the series summed at w0
    with the powers of w - w0, and is hashed apart.  The accuracy of both
    is checked against mpmath below.
    """

    def test_fingerprint(self, monkeypatch):
        reruns = []
        d_pfq = jets.d_pfq
        monkeypatch.setattr(jets, "d_pfq", lambda *a: reruns.append(1) or d_pfq(*a))
        got, n = _jet_pfq_fingerprint()
        assert n >= 400
        assert len(reruns) >= 26
        assert got == JET_PFQ_FINGERPRINT


def _pfaff_accuracy_cases():
    """The nonterminating 2F1 inputs of the fingerprint on the Pfaff map
    (|w0| < 0.9): real parameters and base points at orders 7-12, complex
    ones at orders 7 and 8 (mpmath expands those more slowly)."""
    for spec, amap, z0, order in _fingerprint_cases():
        if amap is ArgMap.PFAFF and spec.p == 2 and termination_order(spec) is None:
            if order in (7, 8) or (order > 8 and not z0.imag):
                yield spec, z0, order


def test_pfaff_map_jets_match_mpmath():
    # every coefficient of 2F1(a, b; c; z/(z-1)) to 1e-12 relative, against
    # mpmath's Taylor expansion of the same function at 40 digits
    n = 0
    with mpmath.workdps(40):
        for spec, z0, order in _pfaff_accuracy_cases():
            got = jet_pfq(spec, map_jet(ArgMap.PFAFF, jet_variable(z0, order))).coeffs
            up = [mpmath.mpc(a.value) for a in spec.upper]
            lo = [mpmath.mpc(b.value) for b in spec.lower]
            want = mpmath.taylor(lambda z: mpmath.hyper(up, lo, z / (z - 1)), mpmath.mpc(z0), order)
            for i, (g, w) in enumerate(zip(got, want)):
                assert abs(g - complex(w)) <= 1e-12 * abs(complex(w)), (spec, z0, order, i)
            n += 1
    assert n == 16


def test_affine_map_jets_match_mpmath():
    # every nonterminating identity- and negate-map input of the fingerprint
    # at orders 7-12, to 1e-12 relative to the jet's largest coefficient (the
    # stop rule bounds the tail by that coefficient, not by each one).  At 40
    # digits, coefficient j of pFq(a; b; s z) at z0 (s = +-1) is
    # s^j (a)_j / ((b)_j j!) pFq(a + j; b + j; s z0) (DLMF 16.3.1), one
    # mpmath series per coefficient in place of a numerical expansion.
    n = {ArgMap.IDENTITY: 0, ArgMap.NEGATE: 0}
    with mpmath.workdps(40):
        for spec, amap, z0, order in _fingerprint_cases():
            if amap not in n or order < 7 or termination_order(spec) is not None:
                continue
            got = jet_pfq(spec, map_jet(amap, jet_variable(z0, order))).coeffs
            s = 1 if amap is ArgMap.IDENTITY else -1
            up = [mpmath.mpc(a.value) for a in spec.upper]
            lo = [mpmath.mpc(b.value) for b in spec.lower]
            want = []
            for j in range(order + 1):
                c = mpmath.mpf(s) ** j / mpmath.factorial(j)
                for a in up:
                    c *= mpmath.rf(a, j)
                for b in lo:
                    c /= mpmath.rf(b, j)
                w = mpmath.hyper([a + j for a in up], [b + j for b in lo], s * mpmath.mpc(z0))
                want.append(complex(c * w))
            err = max(abs(g - w) for g, w in zip(got, want))
            assert err <= 1e-12 * max(map(abs, want)), (spec, amap, z0, order)
            n[amap] += 1
    assert n == {ArgMap.IDENTITY: 72, ArgMap.NEGATE: 84}


# sha256 of the fixed-point kernel at 160 bits (each part and error bound)
# and of the exact kernel (reprs), each with the terms summed and the last
# term's size.  What the pins hold is bounded below: each fixed-point sum
# against a 60-digit mpmath value, within its own error bound
# (test_field_series_fixed_sums_match_mpmath), each exact sum as the exact
# sum of its first ``terms`` terms
# (test_field_series_exact_sums_are_partial_sums)
FIELD_SERIES_FINGERPRINT = {
    "fixed": "d93fffbd6e8ed864cc51dd43abe0310971bbd9bcae9ff25c7419ebefa7ff366f",
    "fraction": "9ecd25d3312cae38729a3c30d11e7a5eed47ad66ca5f9e38ef81e322a2e35a61",
}


def _field_series_cases(rng, field):
    """Seeded (spec, w) inputs of ``field``'s kernel: 2F1, 1F1, 0F1 and a
    terminating 2F1 on every argument map at orders 0-9, and order-0 series
    of positive real terms, where the running sum is its terms' magnitude
    sum and the stop test is met with the least slack.  Fixed-point inputs
    take real or complex doubles; exact ones small rationals."""
    if field is FRACTION:

        def num(lo, hi, real=True):
            d = rng.choice((3, 4, 8))
            return Fraction(rng.randint(math.ceil(lo * d), math.floor(hi * d)), d)

        def variable(z0, order):
            return jet_variable(z0, order, FRACTION)

    else:

        def num(lo, hi, real=True):
            x = rng.uniform(lo, hi)
            return x if real else complex(x, rng.uniform(-1, 1))

        def variable(z0, order):
            return jets.d_variable(complex(z0), order, FIXED)

    for order in range(10):
        for amap in ArgMap:
            for real in (True, False) if field is FIXED else (True,):
                p = lambda: num(-2.5, 2.5, real)  # noqa: E731
                for spec, radius in (
                    (HypSpec.of([p(), p()], [p() + 3]), 0.6),
                    (HypSpec.of([p()], [p() + 3]), 4),
                    (HypSpec.of([], [p() + 3]), 4),
                    (HypSpec.of([-rng.randint(0, 5), p()], [p() + 3]), 2),
                ):
                    while True:
                        z0 = num(-radius, radius)
                        if not real:
                            z0 = cmath.rect(abs(z0), rng.uniform(-math.pi, math.pi))
                        if amap is not ArgMap.PFAFF or abs(z0 / (z0 - 1)) <= radius:
                            break
                    yield spec, map_jet(amap, variable(z0, order)).coeffs
    for _ in range(12):
        p = lambda: num(0.125, 3)  # noqa: E731
        yield HypSpec.of([p(), p()], [p()]), variable(num(0.125, 0.6), 0).coeffs
        yield HypSpec.of([p()], [p()]), variable(num(0.125, 4), 0).coeffs
        yield HypSpec.of([], [p()]), variable(num(0.125, 4), 0).coeffs


def _field_series_runs(field):
    """(spec, w, ``field.series`` output) over ``_field_series_cases``, at
    rel_tol 1e-25 in ``FIXED``, 1e-20 in ``FRACTION``."""
    rng = random.Random(f"field-series-fingerprint-{'fraction' if field is FRACTION else 'fixed'}")
    rel_tol = Fraction(1, 10**20) if field is FRACTION else 1e-25
    cases = list(_field_series_cases(rng, field))
    return [(spec, w, field.series(spec, w, rel_tol, 10000)) for spec, w in cases]


def _field_series_fingerprint(field):
    text = repr if field is FRACTION else lambda x: f"{x.re} {x.im} {x.err!r}"
    h = hashlib.sha256()
    runs = _field_series_runs(field)
    for _, _, (sums, _, terms, tail, _) in runs:
        h.update(f"{' '.join(map(text, sums))} {terms} {tail}\n".encode())
    return h.hexdigest(), len(runs)


@pytest.mark.parametrize("field", [FIXED, FRACTION], ids=["fixed", "fraction"])
def test_field_series_fingerprint(field):
    # the fixed-point and exact kernels bit for bit, as the jet_pfq
    # fingerprint pins the complex one; the two tests below bound what the
    # pins hold
    got, n = _field_series_fingerprint(field)
    assert n == (10 * 3 * (8 if field is FIXED else 4) + 36)
    assert got == FIELD_SERIES_FINGERPRINT["fixed" if field is FIXED else "fraction"]


def _mp_jet(mpmath, spec, w):
    """Coefficients of pFq(a; b; w) for a jet w of mpmath numbers: at w0,
    coefficient j of pFq(a; b; w0 + h) is (a)_j/((b)_j j!) pFq(a + j; b + j; w0)
    (DLMF 16.3.1), composed with the powers of w - w0."""
    up = [mpmath.mpc(a.value) for a in spec.upper]
    lo = [mpmath.mpc(b.value) for b in spec.lower]
    top = len(w) - 1
    d = [0] + list(w[1:])
    power = [mpmath.mpc(1)] + [mpmath.mpc(0)] * top
    out = [mpmath.mpc(0)] * (top + 1)
    for j in range(top + 1):
        c = mpmath.mpf(1) / mpmath.factorial(j)
        for a in up:
            c *= mpmath.rf(a, j)
        for b in lo:
            c /= mpmath.rf(b, j)
        if c:
            g = c * mpmath.hyper([a + j for a in up], [b + j for b in lo], w[0])
            out = [x + g * y for x, y in zip(out, power)]
        power = [mpmath.fsum(power[i] * d[n - i] for i in range(n + 1)) for n in range(top + 1)]
    return out


def _mp_fx(mpmath, x):
    """A fixed-point value as an mpmath number, exactly at 60 digits."""
    p = x.f.p
    return mpmath.mpc(mpmath.ldexp(mpmath.mpf(x.re), -p), mpmath.ldexp(mpmath.mpf(x.im), -p))


def _complex_magnitudes(spec, w):
    """The complex field's magnitude sums of the series at w, its one
    measure of cancellation, from the double pass without its rerun."""
    return Field.series(COMPLEX, spec, [complex(x) for x in w], 1e-14, 10000)[1]


def _assert_within_bounds(mpmath, spec, w, sums, abs_sums, m, rounding):
    """Each sum within twice its own error bound, plus for a nonterminating
    series 1e-24 times the jet's largest magnitude sum, of the 60-digit value
    at w: the bound covers the distance to the series at the exact argument,
    and the argument's own bounds cover the distance from there to its grid
    values, while the stop rule bounds the tail against the largest running
    sum.  Each also lies within ``rounding`` times its magnitude sum, plus
    that tail, of the value, and each bound below 1e-24 times the largest
    magnitude sum, so that no bound is vacuous."""
    with mpmath.workdps(60):
        ref = _mp_jet(mpmath, spec, [_mp_fx(mpmath, x) for x in w])
        largest = max(abs_sums)
        tail = mpmath.mpf("1e-24") * largest if m is None else 0
        for i, (s, a, r) in enumerate(zip(sums, abs_sums, ref)):
            bound = mpmath.ldexp(mpmath.mpf(s.err / _STEP), -s.f.p)
            assert bound <= 1e-24 * largest, (spec, w[0], i)
            err = abs(_mp_fx(mpmath, s) - r)
            assert err <= 2 * bound + tail and err <= rounding * a + tail, (spec, w[0], i)


def test_field_series_fixed_sums_match_mpmath():
    # the fixed-point fingerprint's sums at 160 bits, each within its error
    # bound and within 1e-37 (what the 38-digit decimal rerun kept) of the
    # complex field's magnitude sum of the same series
    runs = _field_series_runs(FIXED)
    for spec, w, (sums, _, _, _, m) in runs:
        _assert_within_bounds(mpmath, spec, w, sums, _complex_magnitudes(spec, w), m, 1e-37)
    assert sum(m is not None for *_, (*_, m) in runs) >= 60


def test_exact_stop_folds_where_the_exact_test_folds():
    # the exact field's doubles decide every stop test that exact magnitudes
    # decide without a fold: on the fraction fingerprint's inputs (81 of the
    # 156 fold before their last term) it folds its running sums at the same
    # terms as the generic exact stop test
    folds = []

    class Recording(type(FRACTION)):
        def fold(self, sums, us, lo):
            folds.append((lo, len(us)))
            super().fold(sums, us, lo)

    class GenericRecording(Recording):
        terms = None
        exact = False

    rng = random.Random("field-series-fingerprint-fraction")
    n = 0
    for spec, w in _field_series_cases(rng, FRACTION):
        seen = []
        for field in (Recording(), GenericRecording()):
            folds.clear()
            field.series(spec, w, Fraction(1, 10**20), 10000)
            seen.append(folds[:])
        assert seen[0] == seen[1], (spec, w)
        n += len(seen[0]) > 1
    assert n > 60, n


def test_field_series_exact_sums_are_partial_sums():
    # each exact sum of the fraction fingerprint's inputs is the sum of the
    # series' first ``terms`` terms, sum_(k < terms) c_k (w^k)_i, with the
    # powers of w from ``FRACTION.mul``: no term is lost or changed, and a
    # different pin can only be a different count of terms
    F = FRACTION
    for spec, w, (sums, _, terms, _, _) in _field_series_runs(F):
        upper, lower = [F.param(a) for a in spec.upper], [F.param(b) for b in spec.lower]
        want, power, c = [F.zero] * len(w), [F.one] + [F.zero] * (len(w) - 1), F.one
        for k in range(terms):
            want = [x + c * y for x, y in zip(want, power)]
            c *= math.prod(a + k for a in upper) / (math.prod(b + k for b in lower) * (k + 1))
            power = F.mul(power, w)
        assert sums == want, (spec, w)


def _k0_cases(rng, field):
    """Seeded (spec, w0) inputs: 2F1, 1F1 and 0F1, terminating (an upper -m)
    and not, at a nonzero w0 strictly inside the domain; complex values
    where the field has them, small rationals in ``FRACTION``."""
    if field is FRACTION:

        def num(lo, hi):
            d = rng.choice((2, 3, 4, 8))
            return Fraction(rng.randint(math.ceil(lo * d), math.floor(hi * d)), d)

        lift = FRACTION.lift
    else:

        def num(lo, hi):
            return complex(rng.uniform(lo, hi), rng.uniform(lo, hi))

        lift = field.lift
    for _ in range(4):
        m = -rng.randint(0, 8)
        for upper, radius in (([num(-2, 2), num(-2, 2)], 0.5), ([num(-2, 2)], 2), ([], 2)):
            lower = [num(-1, 1) + 3]
            yield HypSpec.of(upper, lower), lift(num(-radius, radius) or Fraction(1, 3))
            if upper:
                yield HypSpec.of([m] + upper[1:], lower), lift(num(-radius, radius) or Fraction(1, 3))


@pytest.mark.parametrize("field", [COMPLEX, FIXED, FRACTION], ids=["complex", "fixed", "fraction"])
def test_order_0_is_the_k0_case_of_each_loop(field):
    # a jet w0 + 0 h + ... of any order K sums the order-0 series: the same
    # coefficient 0, term count and tail, and zero in every higher coefficient
    rng = random.Random(f"order-0-is-k0-{field.__class__.__name__}")
    rel_tol = Fraction(1, 10**12) if field is FRACTION else field.series_tol(1e-14)

    def key(x):
        return (x.re, x.im, x.err) if field is FIXED else x

    for spec, w0 in _k0_cases(rng, field):
        sums, _, terms, tail, _ = field.series(spec, [w0], rel_tol, 10000)
        for k in range(1, 7):
            got, _, got_terms, got_tail, _ = field.series(spec, [w0] + [field.zero] * k, rel_tol, 10000)
            assert key(got[0]) == key(sums[0]) and (got_terms, got_tail) == (terms, tail), (spec, w0, k)
            assert not any(got[1:]), (spec, w0, k)


class TestBinomialKernel:
    """The kernel of the fields without a total: one scalar pass records
    u_k = c_k w0^k, and coefficient i of an affine jet is
    (w1/w0)^i sum_k C(k, i) u_k."""

    def test_fixed_jet_builds_o_terms_fxs(self, monkeypatch):
        # an order-12 jet builds about as many FXs per term as the scalar
        # series (order 0), not an FX per coefficient per term
        built = [0]
        init = FX.__init__

        def counting(self, *args):
            built[0] += 1
            init(self, *args)

        monkeypatch.setattr(FX, "__init__", counting)
        per_term = {}
        for order in (0, 12):
            w = jets.d_variable(0.8, order, FIXED).coeffs
            built[0] = 0
            terms = FIXED.series(HypSpec.of([0.5, 1.25], [2.75]), w, 1e-25, 10000)[2]
            assert terms >= 200
            per_term[order] = built[0] / terms
        assert per_term[12] <= per_term[0] + 1, per_term

    def test_exact_jet_is_the_polynomial_expansion(self):
        # a terminating series in FRACTION at orders 1-9, also at w0 = 0,
        # equals sum_k c_k (w0 + w1 h)^k from ``ipow`` and ``mul``, exactly
        F = FRACTION
        rng = random.Random("binomial-kernel-exact")
        fraction = lambda lo, hi: Fraction(rng.randint(lo, hi), rng.choice((1, 2, 3, 7)))  # noqa: E731
        for order in range(1, 10):
            for w0 in (fraction(-9, 9) or Fraction(1, 5), Fraction(0)):
                m = rng.randint(0, 12)
                spec = HypSpec.of([-m, fraction(-9, 9) + Fraction(1, 11)], [fraction(1, 20)])
                w = [w0, fraction(-5, 5) or F.one] + [F.zero] * (order - 1)
                got, abs_sums, terms, _, _ = F.series(spec, w, F.series_tol(1e-14), 100)
                upper, lower = [F.param(a) for a in spec.upper], [F.param(b) for b in spec.lower]
                want, c = [F.zero] * (order + 1), F.one
                for k in range(m + 1):
                    want = [x + y for x, y in zip(want, F.mul([c] + [F.zero] * order, F.ipow(w, k)))]
                    c *= math.prod(a + k for a in upper) / (math.prod(b + k for b in lower) * (k + 1))
                assert got == want and terms == m + 1 and abs_sums is None, (spec, w)

    def test_exact_sums_follow_the_definition(self):
        # the exact kernel against the series' definition: coefficient i of
        # pFq(w0 + w1 h) is sum_(k < N) C(k, i) c_k w0^(k-i) w1^i, with c_k
        # from core.coefficient and N the kernel's own term count, on the
        # identity and negate maps at orders 0-6, also at w0 = 0
        F = FRACTION
        cases = (
            (HypSpec.of([], [Fraction(5, 3)]), Fraction(7, 2)),
            (HypSpec.of([Fraction(-3, 4)], [Fraction(5, 2)]), Fraction(-9, 4)),
            (HypSpec.of([Fraction(1, 3), Fraction(5, 7)], [Fraction(11, 4)]), Fraction(2, 5)),
            (
                HypSpec.of([Fraction(1, 2), Fraction(-2, 3), Fraction(7, 5)], [Fraction(3, 2), Fraction(9, 4)]),
                Fraction(-1, 2),
            ),
            (HypSpec.of([-7, Fraction(3, 4)], [Fraction(5, 3)]), Fraction(3, 2)),
        )
        for spec, z0 in cases:
            c = []
            for order, amap, x0 in product(range(7), (ArgMap.IDENTITY, ArgMap.NEGATE), (z0, F.zero)):
                w = map_jet(amap, jet_variable(x0, order, F)).coeffs
                sums, _, n, _, _ = F.series(spec, w, F.series_tol(1e-14), 10000)
                c += [coefficient(spec, k) for k in range(len(c), n)]
                w0, w1 = w[0], w[1] if order else F.zero
                powers = [w0**k for k in range(n)]
                want = [
                    sum(math.comb(k, i) * c[k] * powers[k - i] for k in range(i, n)) * w1**i for i in range(order + 1)
                ]
                assert sums == want, (spec, order, amap, x0)

    def test_exact_series_past_the_double_range(self):
        # e^800 as 0F0 at Fraction(800): its terms pass 1e347 and its sum
        # 1e348, beyond any double, and the stop test takes them exactly once
        # they pass the doubles' range, so it sums 1171 terms,
        # sum_(k < 1171) 800^k/k!, here by Horner's rule
        # num_k = k num_(k-1) + 800^k, with sum_(j <= k) 800^j/j! = num_k/k!
        F = FRACTION
        sums, _, n, _, _ = F.series(HypSpec.of([], []), [Fraction(800)], F.series_tol(1e-14), 10000)
        num = 1
        for k in range(1, n):
            num = k * num + 800**k
        assert n == 1171 and sums == [Fraction(num, math.factorial(n - 1))]

    def test_fixed_jets_match_mpmath(self):
        # 160-bit jets at orders 8-12 on every argument map, each coefficient
        # within its error bound and within 1e-33 (what the 38-digit decimal
        # rerun kept here) of its magnitude sum in the complex field, plus the
        # stop rule's 1e-24 of the largest, of 60-digit mpmath values; the
        # 1F1 with Re c < 0 cancel
        rng = random.Random("binomial-kernel-fixed")
        kappa = 0
        for order in range(8, 13):
            for amap in ArgMap:
                for real in (True, False):

                    def num(lo, hi):
                        return complex(rng.uniform(lo, hi), 0 if real else rng.uniform(-1, 1))

                    def base(radius):
                        # |w0| <= radius on the Pfaff map too: |z0/(z0 - 1)| <= r/(1 - r)
                        r = rng.uniform(0.2, radius / (1 + radius) if amap is ArgMap.PFAFF else radius)
                        return cmath.rect(r, rng.choice((0, math.pi)) if real else rng.uniform(-math.pi, math.pi))

                    cases = (
                        (HypSpec.of([num(-2, 2)], [num(-3.5, -0.2)]), base(4)),
                        (HypSpec.of([num(-2, 2), num(-2, 2)], [num(1, 3)]), base(0.8)),
                    )
                    for spec, z0 in cases:
                        w = map_jet(amap, jets.d_variable(z0, order, FIXED)).coeffs
                        sums = FIXED.series(spec, w, FIXED.series_tol(1e-14), 10000)[0]
                        abs_sums = _complex_magnitudes(spec, w)
                        _assert_within_bounds(mpmath, spec, w, sums, abs_sums, None, 1e-33)
                        kappa = max([kappa] + [a / abs(complex(s)) for s, a in zip(sums, abs_sums)])
        assert kappa >= 1e6, kappa
