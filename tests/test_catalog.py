"""Identity catalog, Kummer-type rewrites, and the verification driver."""

import hashlib
import math
import random

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
from hypderiv.errors import NotApplicable, SingularLowerParameter
from hypderiv.expressions import (
    ArgMap,
    Hyp,
    PowOneMinusZ,
    Term,
    eval_expr,
    expr,
    format_expr,
    hyp,
    nth_derivative,
    term,
)

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
        from hypderiv.catalog import _terms_th15_main, _terms_th15_negative
        from hypderiv.core import pochhammer
        from hypderiv.expressions import Expr

        rng = random.Random(15)
        for _ in range(10):
            p = entry("Th1-5-exceptional").draw(rng)
            n = p["n"]
            assert pochhammer(1 - n, n) == 0
            main = Expr(_terms_th15_main((p["a2"],), (p["b1"],), 0, n))
            neg = Expr(_terms_th15_negative((p["a2"],), (p["b1"],), 0, n))
            assert rel_err(eval_expr(main, 0.4), eval_expr(neg, 0.4)) < 1e-12

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


CATALOG_FINGERPRINT = "7d5442e6dba0144339ecc727086e19839543041ad57e72fc408942609e2ab981"
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
    by hand.
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
        if isinstance(out, Term):
            return Term(out.coeff * 1.5, out.factors)
        return tuple(Term(t.coeff * 1.5, t.factors) for t in out)

    return scaled


# every theorem-line builder a composition can reach
THEOREM_BUILDERS = (
    (identities, "theorem_general_term"),
    (identities, "theorem_exceptional_term"),
    (catalog, "theorem_general_term"),
    (catalog, "theorem_exceptional_term"),
    (catalog, "_terms_th12"),
    (catalog, "_terms_th13"),
    (catalog, "_terms_th14_regular"),
    (catalog, "_terms_th14_exceptional"),
    (catalog, "_terms_th15_main"),
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
