"""Acceptance criteria, one test per criterion.

Run with ``pytest -s tests/test_acceptance.py`` to see the per-criterion
pass/fail lines and timings.
"""

import math
import random
import subprocess
import sys
import time
from pathlib import Path

from hypderiv.catalog import (
    catalog_entries,
    corollary_sources,
    entry,
    rel_err,
    theorem_composition,
    verify_entry,
)
from hypderiv.core import (
    ConvergenceClass,
    EvalControl,
    HypSpec,
    classify_convergence,
    param,
    pochhammer,
)
from hypderiv.errors import SingularLowerParameter
from hypderiv.expressions import eval_expr, nth_derivative
from hypderiv.jets import derivative, jet_add, jet_constant, jet_mul, jet_variable
from hypderiv.tables import table1_csv, table1_values

CTRL = EvalControl(rel_tol=1e-16)
A, B = param(0.5), param(2 / 3)

TABLE_EXPECTED = """c,f_L,f_R1,f_R2
1,16.2802578209098,,16.2802578209098
2,3.39340187542396,,3.39340187542396
3,2.04681438609744,,2.04681438609744
4,3.31081155003091,,3.31081155003091
5,27.4105535888826,27.4105535888826,27.4105535888826
6,42.6040520193532,42.6040520193532,
7,41.6637846070299,41.6637846070299,
"""


def report(name, ok, detail=""):
    print(f"[{'PASS' if ok else 'FAIL'}] {name}{': ' + detail if detail else ''}")
    assert ok, f"{name} {detail}"


def test_criterion_1_table_reproduction():
    """All populated table cells to 15 printed significant digits."""
    t0 = time.time()
    out = table1_csv(digits=15)
    elapsed = time.time() - t0
    ok = out == TABLE_EXPECTED and elapsed < 1.0
    report(
        "criterion 1: table digits and blank cells",
        ok,
        f"{elapsed * 1000:.0f} ms",
    )


def test_no_runtime_dependencies():
    """The package, its CLI and the table need the standard library alone:
    a child interpreter without site-packages (``-S``, and ``-E`` so that no
    PYTHONPATH adds them back) imports both and prints the table."""
    src = str(Path(__file__).resolve().parent.parent / "src")
    code = (
        "import sys\n"
        f"sys.path.insert(0, {src!r})\n"
        "if any(p.endswith(('site-packages', 'dist-packages')) for p in sys.path):\n"
        "    sys.exit(f'site-packages on the path: {sys.path}')\n"
        "import hypderiv, hypderiv.cli\n"
        "from hypderiv.tables import table1_csv\n"
        "sys.stdout.write(table1_csv())\n"
    )
    done = subprocess.run(
        [sys.executable, "-S", "-E", "-c", code], capture_output=True, text=True, timeout=60
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout == TABLE_EXPECTED


def test_criterion_2_intersection_at_c5():
    """f_L, f_R1 and f_R2 all equal 27.4105535888826 at c = 5."""
    f_l, f_r1, f_r2 = table1_values(5)
    want = 27.4105535888826
    worst = max(rel_err(v, want) for v in (f_l, f_r1, f_r2))
    report("criterion 2: three-way value at c=5", worst <= 1e-12, f"worst {worst:.2e}")


def test_criterion_3_full_identity_suite():
    """Every catalog case line passes 50 seeded draws at 1e-8."""
    t0 = time.time()
    failures = []
    worst = 0.0
    for e in catalog_entries():
        r = verify_entry(e, trials=50, seed=0, tol=1e-8)
        worst = max(worst, r.max_rel_err)
        if not r.passed:
            failures.append(e.id)
    elapsed = time.time() - t0
    ok = not failures and elapsed < 30.0
    report(
        "criterion 3: 37-entry verification campaign",
        ok,
        f"worst {worst:.2e}, {elapsed:.1f} s" + (f", failures {failures}" if failures else ""),
    )


def test_criterion_4_corollary_derivability():
    """Each corollary RHS equals the transform-composed theorem RHS."""
    sources = corollary_sources()
    worst = 0.0
    for cid, kind in sources.items():
        e = entry(cid)
        z_points = (0.2, 1 / 3) if kind == "k3" else e.z_points
        rng = random.Random(f"compose:{cid}")
        for _ in range(20):
            p = e.draw(rng)
            co = e.rhs(p)
            th = theorem_composition(cid, p)
            for z0 in z_points:
                worst = max(worst, rel_err(eval_expr(co, z0), eval_expr(th, z0)))
    report(
        "criterion 4: corollaries from theorem lines via transforms",
        worst <= 1e-10,
        f"{len(sources)} corollary lines, worst {worst:.2e}",
    )


def test_criterion_5_pochhammer_identities():
    """Shift and split identities over 1000 random (a, k, n)."""
    rng = random.Random(5)
    worst = 0.0
    for _ in range(1000):
        a = complex(rng.uniform(-2, 2), rng.uniform(-2, 2))
        k, n = rng.randint(0, 8), rng.randint(0, 8)
        lhs = pochhammer(param(a) + k, n) * pochhammer(a, k)
        rhs = pochhammer(param(a) + n, k) * pochhammer(a, n)
        worst = max(worst, rel_err(lhs, rhs))
        s = rng.randint(0, 8)
        lhs = pochhammer(a, k + s)
        rhs = pochhammer(a, s) * pochhammer(param(a) + s, k)
        worst = max(worst, rel_err(lhs, rhs))
    report("criterion 5: Pochhammer identity suite", worst <= 1e-12, f"worst {worst:.2e}")


def test_criterion_6_oracle_exactness_on_polynomials():
    """Jet derivatives of 50 random polynomials match symbolic ones."""
    rng = random.Random(11)
    worst = 0.0
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
            worst = max(worst, rel_err(derivative(j, n), want))
    report("criterion 6: polynomial jet exactness", worst <= 1e-13, f"worst {worst:.2e}")


def test_criterion_7_branch_complementarity():
    """For n=4: exact c in 1..4 only the exceptional line applies, exact
    c in 6..8 only the regular line; the applicable one matches the oracle."""
    n = 4
    reg, exc = entry("Th1-4-regular"), entry("Th1-4-exceptional")
    ok = True
    detail = []
    for c in (1, 2, 3, 4):
        p = {"a1": A, "a2": B, "c": param(c), "n": n}
        singular = False
        try:
            reg.rhs(p)
        except SingularLowerParameter:
            singular = True
        lv = nth_derivative(exc.lhs(p), n, 1 / 3, CTRL)
        rv = eval_expr(exc.rhs(p), 1 / 3, CTRL)
        good = (not reg.applicable(p)) and singular and exc.applicable(p) and rel_err(lv, rv) < 1e-10
        ok = ok and good
        if not good:
            detail.append(f"c={c}")
    for c in (6, 7, 8):
        p = {"a1": A, "a2": B, "c": param(c), "n": n}
        singular = False
        try:
            exc.rhs(p)
        except SingularLowerParameter:
            singular = True
        lv = nth_derivative(reg.lhs(p), n, 1 / 3, CTRL)
        rv = eval_expr(reg.rhs(p), 1 / 3, CTRL)
        good = (not exc.applicable(p)) and singular and reg.applicable(p) and rel_err(lv, rv) < 1e-10
        ok = ok and good
        if not good:
            detail.append(f"c={c}")
    report("criterion 7: regular/exceptional complementarity", ok, ",".join(detail))


def test_criterion_8_convergence_classifier():
    """Twelve specs covering all six classes, including the boundary cases."""
    C = ConvergenceClass
    cases = [
        (HypSpec.of([0.5], [1.3]), 3.7, C.ENTIRE),  # one over two
        (HypSpec.of([], []), 100j, C.ENTIRE),  # bare exponential shape
        (HypSpec.of([0.5, 0.7], [1.1, 2.2]), -50, C.ENTIRE),  # two over two
        (HypSpec.of([0.5, 2 / 3], [2]), 0.5, C.INSIDE_UNIT_DISK),
        (HypSpec.of([1, 1], [2]), 0.999j, C.INSIDE_UNIT_DISK),
        (HypSpec.of([0.5, 2 / 3], [2]), 1, C.AT_PLUS_ONE),  # Re = 5/6 > 0
        (HypSpec.of([1, 1], [1.5]), -1, C.AT_MINUS_ONE),  # Re + 1 = 1/2 > 0
        (HypSpec.of([1, 1], [2]), 1, C.UNIT_DISK_BOUNDARY_DIVERGENT),  # Re = 0
        (HypSpec.of([1.5, 1.5], [2]), -1, C.UNIT_DISK_BOUNDARY_DIVERGENT),  # Re + 1 = 0
        (HypSpec.of([1, 1], [2]), 1j, C.UNIT_DISK_BOUNDARY_DIVERGENT),  # |z| = 1 generic
        (HypSpec.of([0.5, 1 / 3, 0.25], [1.1]), 0.5, C.DIVERGENT_UNLESS_TERMINATING),
        (HypSpec.of([0.4, 0.6], []), 0.01, C.DIVERGENT_UNLESS_TERMINATING),
    ]
    wrong = [
        (i, classify_convergence(s, z).value, want.value)
        for i, (s, z, want) in enumerate(cases)
        if classify_convergence(s, z) is not want
    ]
    report(
        "criterion 8: convergence classification",
        not wrong,
        f"12 specs, 6 classes{'; wrong: ' + str(wrong) if wrong else ''}",
    )
