"""Generalized hypergeometric series, their differentiation identities, and
a truncated-Taylor-jet oracle for high-order derivatives."""

from . import errors
from .catalog import (
    IdentityEntry,
    VerifyReport,
    catalog_entries,
    corollary_sources,
    entry,
    format_report,
    kummer1,
    kummer2,
    kummer3,
    reports_to_csv,
    theorem_composition,
    verify_entry,
)
from .core import (
    ConvergenceClass,
    DEFAULT_CONTROL,
    EvalControl,
    EvalResult,
    HypSpec,
    Parameter,
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
from .expressions import (
    ArgMap,
    ExpZ,
    Expr,
    Hyp,
    PowOneMinusZ,
    PowZ,
    Term,
    eval_expr,
    eval_expr_jet,
    expr,
    expz,
    format_expr,
    hyp,
    nth_derivative,
    pow1mz,
    powz,
    term,
)
from .identities import (
    IdentityForm,
    RBranch,
    branch_holds,
    classify_r,
    reduce_cancellation,
    specialize,
    theorem1_rhs,
)
from .jets import (
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
from .tables import figure1_csv, figure1_rows, table1_csv, table1_values

__version__ = "0.1.0"
