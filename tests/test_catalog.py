"""Identity catalog, Kummer-type rewrites, and the verification driver."""

import dataclasses
import hashlib
import math
import random
from fractions import Fraction

import pytest

from hypderiv import catalog, identities
from hypderiv.catalog import (
    catalog_entries,
    corollary_sources,
    entry,
    format_report,
    kummer1,
    kummer2,
    kummer3,
    rel_err,
    reports_to_csv,
    theorem_composition,
    verify_entry,
)
from hypderiv.core import EvalControl, HypSpec, param
from hypderiv.errors import (
    HypDerivError,
    NoConvergence,
    NotApplicable,
    SingularCoefficient,
    SingularLowerParameter,
)
from hypderiv.expressions import (
    ArgMap,
    Expr,
    Hyp,
    PowOneMinusZ,
    PowZ,
    Term,
    eval_expr,
    expr,
    format_expr,
    hyp,
    nth_derivative,
    powz,
    term,
)
from hypderiv.identities import reduce_cancellation, specialize, theorem1_rhs

CTRL = EvalControl(rel_tol=1e-16)
A, B = param(0.5), param(2 / 3)


class TestCatalogShape:
    def test_entry_count(self):
        # every displayed case line is its own entry
        assert len(catalog_entries()) == 37

    def test_unique_ids(self):
        ids = [e.id for e in catalog_entries()]
        assert len(set(ids)) == len(ids)

    def test_known_ids_present(self):
        ids = {e.id for e in catalog_entries()}
        for want in (
            "Th1-1-general",
            "Th1-4-regular",
            "Th1-4-exceptional",
            "Co1-5-negative",
            "Co2-6-exceptional",
            "Co2-10-negative",
        ):
            assert want in ids

    def test_draws_are_applicable(self):
        rng = random.Random(0)
        for e in catalog_entries():
            for _ in range(5):
                assert e.applicable(e.draw(rng))


class TestKummer1:
    def test_parameter_collapse_gives_exp(self):
        # 1F1(a;a;z) -> e^z 1F1(0;a;-z) = e^z
        e = expr(term(1, hyp(HypSpec.of([param(0.7)], [param(0.7)]))))
        k = kummer1(e)
        h = next(f for f in k.terms[0].factors if isinstance(f, Hyp))
        assert h.spec.upper[0].value == 0
        assert h.map is ArgMap.NEGATE
        v = eval_expr(k, 0.3)
        assert rel_err(v, math.exp(0.3)) < 1e-14

    def test_value_preserved(self):
        e = expr(term(1, hyp(HypSpec.of([0.5], [2.0]))))
        assert rel_err(eval_expr(e, 0.3), eval_expr(kummer1(e), 0.3)) < 1e-12

    def test_double_application_restores_value(self):
        e = expr(term(1, hyp(HypSpec.of([0.5], [2.0]))))
        twice = kummer1(kummer1(e))
        assert rel_err(eval_expr(e, 0.3), eval_expr(twice, 0.3)) < 1e-12

    def test_not_applicable(self):
        with pytest.raises(NotApplicable):
            kummer1(expr(term(1, hyp(HypSpec.of([0.5, 0.6], [2.0])))))


class TestKummer2:
    def test_zero_exponent_when_sum_matches(self):
        e = expr(term(1, hyp(HypSpec.of([0.5, 1.5], [2.0]))))
        k = kummer2(e)
        p = next(f for f in k.terms[0].factors if isinstance(f, PowOneMinusZ))
        assert p.alpha.value == 0

    def test_value_preserved(self):
        e = expr(term(1, hyp(HypSpec.of([0.5, 2 / 3], [2.0]))))
        assert rel_err(eval_expr(e, 1 / 3), eval_expr(kummer2(e), 1 / 3)) < 1e-12

    def test_double_application_restores_parameters(self):
        # dyadic parameters so that c-(c-a) is exact in floats
        e = expr(term(1, hyp(HypSpec.of([0.5, 0.25], [2.0]))))
        twice = kummer2(kummer2(e))
        h = next(f for f in twice.terms[0].factors if isinstance(f, Hyp))
        assert h.spec.upper[0].value == 0.5
        assert h.spec.upper[1].value == 0.25


class TestKummer3:
    def test_at_zero(self):
        e = expr(term(1, hyp(HypSpec.of([0.5, 2 / 3], [2.0]))))
        assert rel_err(eval_expr(kummer3(e), 0.0), 1) < 1e-15

    def test_value_preserved(self):
        e = expr(term(1, hyp(HypSpec.of([0.5, 2 / 3], [2.0]))))
        # mapped argument (1/3)/(1/3-1) = -1/2, inside the disk
        assert rel_err(eval_expr(e, 1 / 3), eval_expr(kummer3(e), 1 / 3)) < 1e-12

    def test_b_equals_c_collapses_to_binomial(self):
        # 2F1(a,c;c;z) = (1-z)^{-a}
        a = 0.5
        e = expr(term(1, hyp(HypSpec.of([a, 2.0], [2.0]))))
        k = kummer3(e)
        h = next(f for f in k.terms[0].factors if isinstance(f, Hyp))
        assert h.spec.upper[1].value == 0
        for z in (0.2, 1 / 3):
            assert rel_err(eval_expr(e, z), (1 - z) ** (-a)) < 1e-13

    def test_double_application_restores_parameters(self):
        e = expr(term(1, hyp(HypSpec.of([0.5, 0.25], [2.0]))))
        twice = kummer3(kummer3(e))
        h = next(f for f in twice.terms[0].factors if isinstance(f, Hyp))
        assert h.map is ArgMap.IDENTITY
        assert h.spec.upper[1].value == 0.25


class TestEntryValues:
    def test_exceptional_line_c3(self):
        p = {"a1": A, "a2": B, "c": param(3), "n": 4}
        v = eval_expr(entry("Th1-4-exceptional").rhs(p), 1 / 3, CTRL)
        assert rel_err(v, 2.04681438609744) < 1e-14

    def test_general_equals_exceptional_at_r_n(self):
        rng = random.Random(13)
        for _ in range(10):
            p = entry("Th1-1-exceptional").draw(rng)
            p["r"] = param(p["n"])
            g = eval_expr(entry("Th1-1-general").rhs(p), 0.4)
            x = eval_expr(entry("Th1-1-exceptional").rhs(p), 0.4)
            assert rel_err(g, x) < 1e-10

    def test_th14_lines_agree_at_c_n_plus_1(self):
        rng = random.Random(14)
        for _ in range(10):
            p = entry("Th1-4-exceptional").draw(rng)
            p["c"] = param(p["n"] + 1)
            reg = eval_expr(entry("Th1-4-regular").rhs(p), 0.4)
            exc = eval_expr(entry("Th1-4-exceptional").rhs(p), 0.4)
            assert rel_err(reg, exc) < 1e-10

    def test_th15_lines_agree_at_r_zero(self):
        # the extra term of the negative line carries (1-n)_n = 0
        from hypderiv.core import pochhammer

        rng = random.Random(15)
        for _ in range(10):
            p = entry("Th1-5-exceptional").draw(rng)
            p["r"] = param(0)
            n = p["n"]
            assert pochhammer(1 - n, n) == 0
            main = entry("Th1-5-exceptional").rhs(p)
            neg = entry("Th1-5-negative").rhs(p)
            assert rel_err(eval_expr(main, 0.4), eval_expr(neg, 0.4)) < 1e-12

    @pytest.mark.parametrize(
        "entry_id, p",
        [
            ("Th1-1-general", {"a1": A, "a2": B, "b1": param(1.5), "r": param(2.0), "n": 4}),
            ("Th1-4-regular", {"a1": A, "a2": B, "c": param(2.0), "n": 4}),
        ],
    )
    def test_vanishing_general_prefactor_raises(self, entry_id, p):
        # at a numeric whole-number r (or c) the general prefactor vanishes
        # where its series has a pole; the derivative is not 0
        e = entry(entry_id)
        assert e.applicable(p)
        assert abs(nth_derivative(e.lhs(p), p["n"], 0.3)) > 1
        with pytest.raises(SingularCoefficient):
            e.rhs(p)

    @pytest.mark.parametrize(
        "entry_id, p, want",
        [
            ("Co1-1-general", {"c": 1.5, "r": 2.0}, 4.1419),
            ("Co2-1-general", {"b": 0.3, "c": 1.7, "r": 2.0}, 133.10),
            ("Co2-2-general", {"b": 0.3, "c": 1.7, "r": 2.0}, 10.234),
            ("Co1-4-regular", {"c": 2.0}, -1.5588),
            ("Co2-6-regular", {"b": 0.3, "c": 2.0}, 243.65),
            ("Co2-7-regular", {"b": 0.3, "c": 2.0}, -7.3197),
        ],
    )
    def test_vanishing_corollary_prefactor_raises(self, entry_id, p, want):
        # the literal corollary lines drop no term at a numeric whole-number
        # r or c: the prefactor vanishes on a pole of its series
        p = {"a": param(0.5), "n": 4, **{k: param(v) for k, v in p.items()}}
        e = entry(entry_id)
        assert e.applicable(p)
        assert rel_err(nth_derivative(e.lhs(p), 4, 0.3), want) < 1e-4
        with pytest.raises(SingularCoefficient):
            e.rhs(p)

    @pytest.mark.parametrize("entry_id, c", [("Co1-2", -1.0), ("Co2-4", -2.0), ("Co2-5", -1.0)])
    def test_vanishing_corollary_denominator_raises(self, entry_id, c):
        p = {"a": param(0.5), "b": param(0.3), "c": param(c), "n": 3}
        assert entry(entry_id).applicable(p)
        with pytest.raises(SingularCoefficient, match=r"\(c\)_n vanishes"):
            entry(entry_id).rhs(p)

    def test_numeric_whole_number_sweep(self):
        # r (or c) at every whole number -3..n+2, as a double: an applicable
        # line whose LHS derivative evaluates gives the same value or raises
        # a HypDerivError, never a wrong value or a bare Python error
        wrong, compared = {}, 0
        for e in catalog_entries():
            rng = random.Random(f"sweep:{e.id}")
            for _ in range(3):
                p = e.draw(rng)
                key = "r" if "r" in p else "c"
                for v in range(-3, p["n"] + 3):
                    q = {**p, key: param(float(v))}
                    if not e.applicable(q):
                        continue
                    for z0 in e.z_points:
                        try:
                            want = nth_derivative(e.lhs(q), q["n"], z0)
                        except HypDerivError:
                            continue
                        try:
                            got = eval_expr(e.rhs(q), z0)
                        except HypDerivError:
                            continue
                        compared += 1
                        if rel_err(got, want) > 1e-8:
                            wrong.setdefault(e.id, (key, v, z0, want, got))
        assert wrong == {}
        assert compared >= 500

    def test_co2_5_closed_form(self):
        # d/dz[(1-z) 2F1(1,1;2;z)] = d/dz[-(1-z)log(1-z)/z] = 2 - 4 log 2 at z=1/2
        p = {"n": 1, "a": param(1.0), "b": param(1.0), "c": param(2.0)}
        e = entry("Co2-5")
        want = 2 - 4 * math.log(2)
        assert rel_err(nth_derivative(e.lhs(p), 1, 0.5), want) < 1e-13
        assert rel_err(eval_expr(e.rhs(p), 0.5), want) < 1e-13


class TestVerifyDriver:
    def test_trials_must_be_positive(self):
        with pytest.raises(ValueError):
            verify_entry(entry("Th1-2"), trials=0)

    def test_tol_of_one_raises(self):
        # a relative error of 1 is a side compared against 0: a tolerance of
        # 1 would pass it
        with pytest.raises(ValueError):
            verify_entry(entry("Th1-2"), trials=1, tol=1.0)

    def test_deterministic(self):
        r1 = verify_entry(entry("Co1-2"), trials=10, seed=3)
        r2 = verify_entry(entry("Co1-2"), trials=10, seed=3)
        assert r1.max_rel_err == r2.max_rel_err
        assert format_report(r1) == format_report(r2)

    def test_co1_2_random_draws(self):
        r = verify_entry(entry("Co1-2"), trials=50, seed=0)
        assert r.passed and r.max_rel_err < 1e-8

    def test_report_invariant(self):
        r = verify_entry(entry("Th1-3"), trials=10, seed=1)
        assert (not r.failures) == (r.max_rel_err <= r.tol)

    def test_overflowing_power_fails_the_point(self):
        # z0 ** -5000.5 passes the largest double at every point: each point
        # fails with the error in place of the LHS derivative, and the run
        # goes on
        e = dataclasses.replace(entry("Co1-2"), lhs=lambda p: expr(term(1, powz(-5000.5))))
        r = verify_entry(e, trials=2, seed=0)
        assert not r.passed and r.max_rel_err == math.inf
        assert len(r.failures) == 2 * len(e.z_points)
        assert all(isinstance(f[2], NoConvergence) and f[3] is None for f in r.failures)

    def test_unbuildable_rhs_fails_the_draw(self):
        # at a numeric whole-number r the general line raises
        # SingularCoefficient: every point of the draw fails, and the run
        # goes on
        def draw(rng):
            return {"n": 4, "a1": param(0.5), "a2": param(0.7), "b1": param(1.3), "r": param(2.0)}

        e = dataclasses.replace(entry("Th1-1-general"), draw=draw)
        r = verify_entry(e, trials=2, seed=0)
        assert not r.passed and r.max_rel_err == math.inf
        assert len(r.failures) == 2 * len(e.z_points)
        assert all(isinstance(f[2], SingularCoefficient) and f[3] is None for f in r.failures)

    def test_csv_shape(self):
        reports = [verify_entry(entry("Th1-2"), trials=5, seed=0)]
        text = reports_to_csv(reports)
        lines = text.strip().splitlines()
        assert lines[0] == "id,trials,seed,tol,max_rel_err,failures,passed"
        assert lines[1].startswith("Th1-2,5,0,")


class TestBranchComplementarity:
    """Exactly one of the regular/exceptional lines applies away from the
    overlap, and the applicable one matches the derivative."""

    def test_small_exact_c(self):
        n = 4
        for c in (1, 2, 3, 4):
            p = {"a1": A, "a2": B, "c": param(c), "n": n}
            reg, exc = entry("Th1-4-regular"), entry("Th1-4-exceptional")
            assert not reg.applicable(p)
            with pytest.raises(SingularLowerParameter):
                reg.rhs(p)
            assert exc.applicable(p)
            lv = nth_derivative(exc.lhs(p), n, 1 / 3, CTRL)
            rv = eval_expr(exc.rhs(p), 1 / 3, CTRL)
            assert rel_err(lv, rv) < 1e-10

    def test_large_exact_c(self):
        n = 4
        for c in (6, 7, 8):
            p = {"a1": A, "a2": B, "c": param(c), "n": n}
            reg, exc = entry("Th1-4-regular"), entry("Th1-4-exceptional")
            assert not exc.applicable(p)
            with pytest.raises(SingularLowerParameter):
                exc.rhs(p)
            assert reg.applicable(p)
            lv = nth_derivative(reg.lhs(p), n, 1 / 3, CTRL)
            rv = eval_expr(reg.rhs(p), 1 / 3, CTRL)
            assert rel_err(lv, rv) < 1e-10


class TestCorollaryComposition:
    def test_spot_compositions(self):
        # full 20-draw sweep lives in the acceptance suite
        sources = corollary_sources()
        rng = random.Random(21)
        for cid in ("Co1-2", "Co2-1-negative", "Co2-7-exceptional", "Co2-10-exceptional"):
            e = entry(cid)
            zpts = (0.2, 1 / 3) if sources[cid] == "k3" else e.z_points
            for _ in range(5):
                p = e.draw(rng)
                co = e.rhs(p)
                th = theorem_composition(cid, p)
                for z0 in zpts:
                    assert rel_err(eval_expr(co, z0), eval_expr(th, z0)) < 1e-10


CATALOG_FINGERPRINT = "dbc6f26d066f763ea35ce7e2165ea88b97d2f3bbceb5ccd0fc66564c4d392201"
CO2_1_RHS_FINGERPRINT = "147b04606bbee9d64bf67833a0ebcc7a4b793fcd39bb594f07b52f4480ed324a"


def _fingerprint(include) -> str:
    """sha256 over 20 seed-0 draws of every entry: the draw and the
    ``format_expr`` text of its LHS, RHS and (for a corollary) composition.
    A part is hashed when ``include(entry_id, part)`` holds."""
    sources = corollary_sources()
    h = hashlib.sha256()
    for e in catalog_entries():
        rng = random.Random(f"0:{e.id}")
        for i in range(20):
            p = e.draw(rng)
            parts = {
                "draw": " ".join(f"{k}={p[k]!r}" for k in sorted(p)),
                "lhs": format_expr(e.lhs(p)),
                "rhs": format_expr(e.rhs(p)),
            }
            if e.id in sources:
                parts["composition"] = format_expr(theorem_composition(e.id, p))
            for part, text in parts.items():
                if include(e.id, part):
                    h.update(f"{e.id} {i} {part}: {text}\n".encode())
    return h.hexdigest()


def _co2_1_rhs(entry_id, part):
    return entry_id.startswith("Co2-1-") and part == "rhs"


class TestFingerprint:
    """Draws and built expressions, bit for bit.

    The literal Co2-1 RHS is hashed on its own: it multiplies its Pochhammer
    factors in a different order from the Th1-1 builder its composition
    uses, so its coefficients differ from that builder's in the last bits.
    Everything else hashes as it did when the catalog listed every case line
    by hand, but for term order: the five Th1-5-shape negative lines list the
    general term first, as ``line_terms`` does.
    """

    def test_catalog_fingerprint(self):
        got = _fingerprint(lambda eid, part: not _co2_1_rhs(eid, part))
        assert got == CATALOG_FINGERPRINT

    def test_co2_1_rhs_fingerprint(self):
        assert _fingerprint(_co2_1_rhs) == CO2_1_RHS_FINGERPRINT


def _composition_error(cid: str) -> float:
    """Worst relative gap between a corollary's literal RHS and its composed
    theorem line, over the draws and points of acceptance criterion 4."""
    e = entry(cid)
    z_points = (0.2, 1 / 3) if corollary_sources()[cid] == "k3" else e.z_points
    rng = random.Random(f"compose:{cid}")
    worst = 0.0
    for _ in range(20):
        p = e.draw(rng)
        co, th = e.rhs(p), theorem_composition(cid, p)
        for z0 in z_points:
            worst = max(worst, rel_err(eval_expr(co, z0), eval_expr(th, z0)))
    return worst


def _scaled(builder):
    def scaled(*args, **kwargs):
        out = builder(*args, **kwargs)
        if out is None:
            return None
        return Term(out.coeff * 1.5, out.factors)

    return scaled


# every theorem-line builder a composition can reach
THEOREM_BUILDERS = (
    (identities, "theorem_general_term"),
    (identities, "theorem_exceptional_term"),
    (catalog, "theorem_general_term"),
    (catalog, "theorem_exceptional_term"),
    (catalog, "theorem2_term"),
    (catalog, "theorem3_term"),
    (catalog, "theorem4_regular_term"),
    (catalog, "theorem4_exceptional_term"),
)


class TestCompositionIsIndependent:
    """Criterion 4 can fail: the literal corollary RHS does not go through
    the theorem-line builders behind ``theorem_composition``."""

    def test_every_corollary_sees_scaled_theorem_builders(self, monkeypatch):
        ids = list(corollary_sources())
        assert len(ids) == 28
        assert all(_composition_error(cid) <= 1e-10 for cid in ids)
        for module, name in THEOREM_BUILDERS:
            monkeypatch.setattr(module, name, _scaled(getattr(module, name)))
        unaffected = [cid for cid in ids if _composition_error(cid) <= 1e-10]
        assert unaffected == []


def _reduced_th11(spec: HypSpec, r, n: int) -> str:
    """The Th1-1 line at r with every series reduced, as text."""
    terms = theorem1_rhs(spec, r, n).rhs.terms
    return format_expr(
        Expr(
            tuple(
                Term(
                    t.coeff,
                    tuple(
                        Hyp(reduce_cancellation(f.spec), f.map) if isinstance(f, Hyp) else f
                        for f in t.factors
                    ),
                )
                for t in terms
            )
        )
    )


def _theorem_line_mismatches() -> set[str]:
    """Ids of the literal theorem lines that differ from Th1-1 reduced at
    their r, at exact parameters and n = 1..5.  The Th1-4 lines skip
    c = n+1, the r = n overlap where Th1-1 gives the general line."""
    a1, a2 = param(Fraction(1, 3)), param(Fraction(-5, 7))
    b, c = param(Fraction(2, 5)), param(Fraction(11, 3))
    cases = []
    for n in range(1, 6):
        th = {"a1": a1, "a2": a2, "b1": b, "n": n}
        cases += [("Th1-2", th, (b,), param(0)), ("Th1-3", th, (b,), a1 + (n - 1))]
        cases.append(("Th1-4-regular", {"a1": a1, "a2": a2, "c": c, "n": n}, (c,), c - 1))
        for ci in range(1, n + 1):
            p = {"a1": a1, "a2": a2, "c": param(ci), "n": n}
            cases.append(("Th1-4-exceptional", p, (param(ci),), param(ci - 1)))
    return {
        eid
        for eid, p, lower, r in cases
        if format_expr(entry(eid).rhs(p)) != _reduced_th11(HypSpec((a1, a2), lower), r, p["n"])
    }


_LINE_BUILDERS = {
    "theorem2_term": "Th1-2",
    "theorem3_term": "Th1-3",
    "theorem4_regular_term": "Th1-4-regular",
    "theorem4_exceptional_term": "Th1-4-exceptional",
}


class TestTheoremLinesAgainstTh11:
    """Each literal theorem line is Th1-1 at its r with the equal
    upper/lower pairs cancelled, exactly."""

    def test_lines_equal_reduced_th11(self):
        assert _theorem_line_mismatches() == set()

    @pytest.mark.parametrize("builder", sorted(_LINE_BUILDERS))
    def test_a_scaled_builder_fails(self, monkeypatch, builder):
        monkeypatch.setattr(catalog, builder, _scaled(getattr(catalog, builder)))
        assert _theorem_line_mismatches() == {_LINE_BUILDERS[builder]}


# where specialize names another line than the entry's, the parameters sit
# on an overlap of two lines: (entry id, specialize's line) -> the overlap
_OVERLAPS = {
    ("Th1-1-exceptional", "Th1-1-general"): lambda r, n: r.exact == n,
    ("Th1-1-exceptional", "Th1-2"): lambda r, n: r.exact == 0,
    ("Th1-4-exceptional", "Th1-4-regular"): lambda r, n: r.exact == n,  # c = n+1
    ("Th1-5-exceptional", "Th1-2"): lambda r, n: r.exact == 0,
    ("Th1-5-exceptional", "Th1-3"): lambda r, n: r.exact == n,  # upper 1 = r-n+1
}


class TestSpecializeAgainstCatalog:
    """``specialize`` at the spec and r of each theorem-line LHS builds the
    entry's own RHS wherever it names the entry's line."""

    def test_named_lines_match_the_catalog(self):
        matched = 0
        for e in catalog_entries()[:9]:
            assert e.id.startswith("Th1-")
            rng = random.Random(f"0:{e.id}")
            for _ in range(200):
                p = e.draw(rng)
                n = p["n"]
                factors = e.lhs(p).terms[0].factors
                spec = next(f.spec for f in factors if isinstance(f, Hyp))
                r = next((f.alpha for f in factors if isinstance(f, PowZ)), param(0))
                form = specialize(spec, r, n)
                line = f"Th1-1-{form.branch.value}" if form.name == "Th1-1" else form.name
                line = line.replace("negative-integer", "negative")
                if line == e.id:
                    matched += 1
                    assert format_expr(form.rhs) == format_expr(e.rhs(p)), (e.id, p)
                    continue
                assert _OVERLAPS[(e.id, line)](r, n), (e.id, line, p)
                for z0 in e.z_points:
                    got, want = eval_expr(form.rhs, z0), eval_expr(e.rhs(p), z0)
                    assert rel_err(got, want) < 1e-10, (e.id, line, p, z0)
        assert matched > 1400
