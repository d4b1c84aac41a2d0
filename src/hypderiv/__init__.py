"""Generalized hypergeometric series, their differentiation identities, and
a truncated-Taylor-jet oracle for high-order derivatives.

Every public name, and every submodule, resolves on first access and
imports only the module that defines it (PEP 562): a script that sums one
series, such as ``hypderiv eval``, never loads the identity catalog.
"""

import importlib

__version__ = "0.1.0"

_MODULES = ("catalog", "core", "errors", "expressions", "identities", "jets", "tables")

# each public name -> the module that defines it
_EXPORTS = {
    name: module
    for module, names in {
        "catalog": """IdentityEntry VerifyReport catalog_entries corollary_sources entry format_report
            kummer1 kummer2 kummer3 reports_to_csv theorem_composition verify_entry""",
        "core": """ConvergenceClass DEFAULT_CONTROL EvalControl EvalResult HypSpec Parameter
            classify_convergence coefficient evaluate param pochhammer pochhammer_vec
            termination_order validate_spec values_equal""",
        "expressions": """ArgMap ExpZ Expr Hyp PowOneMinusZ PowZ Term eval_expr eval_expr_jet expr
            expz format_expr hyp nth_derivative pow1mz powz term""",
        "identities": """IdentityForm RBranch branch_holds classify_r reduce_cancellation specialize
            theorem1_rhs""",
        "jets": """Jet derivative jet_add jet_constant jet_div jet_exp jet_ipow jet_mul jet_pfq
            jet_pow jet_scale jet_variable""",
        "tables": "figure1_csv figure1_rows table1_csv table1_values",
    }.items()
    for name in names.split()
}

__all__ = [*_MODULES, *_EXPORTS]


def __getattr__(name: str):
    if name in _MODULES:
        # importing a submodule also binds it here
        return importlib.import_module(f"{__name__}.{name}")
    if name not in _EXPORTS:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f"{__name__}.{_EXPORTS[name]}"), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted({*globals(), *__all__})
