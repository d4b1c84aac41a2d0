"""The three branches of d^n/dz^n [z^r pFq(a; b; z)].

Generic r keeps every series term alive; exact r in 0..n kills the first
n-r terms; exact negative r splits the series into a polynomial part and a
shifted tail, giving a two-term right-hand side.  Where the master form
would cancel an upper/lower pair, ``specialize`` names the identity line
the parameters land on and builds it with that line's own builder.
"""

from hypderiv import (
    HypSpec,
    classify_r,
    eval_expr,
    expr,
    format_expr,
    hyp,
    nth_derivative,
    param,
    powz,
    specialize,
    term,
    theorem1_rhs,
)

spec = HypSpec.of([0.5, 2 / 3], [1.9])
n, z0 = 3, 0.4

for r in (param(0.45), param(2), param(-2)):
    branch = classify_r(r, n)
    form = theorem1_rhs(spec, r, n)
    lhs = expr(term(1, powz(r), hyp(spec)))
    lv = nth_derivative(lhs, n, z0)
    rv = eval_expr(form.rhs, z0)
    print(f"r = {r} -> {branch.value}")
    print("  rhs:")
    for line in format_expr(form.rhs).splitlines():
        print("   ", line)
    print(f"  oracle {lv.real:+.12e}  identity {rv.real:+.12e}")
    print()

# cancellations give the named special forms
print("specializations:")
print("  r=0:          ", specialize(spec, param(0), n).name)
print("  r=a1+n-1:     ", specialize(spec, param(0.5) + (n - 1), n).name)
print("  r=b1-1:       ", specialize(spec, param(1.9) - 1, n).name)
one_spec = HypSpec.of([1, 0.7], [1.9])
print("  upper 1, r=2: ", specialize(one_spec, param(2), n).name)
print("  upper 1, r=-2:", specialize(one_spec, param(-2), n).name)
