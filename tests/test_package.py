"""The package namespace: what a cold ``hypderiv eval`` loads, and the names
``hypderiv`` re-exports, each resolved on first access."""

import json
import os
import subprocess
import sys
from pathlib import Path

SRC = str(Path(__file__).resolve().parent.parent / "src")

# every name the package re-exports, by the module that defines it
EXPORTS = {
    "catalog": """IdentityEntry VerifyReport catalog_entries corollary_sources entry format_report
        kummer1 kummer2 kummer3 reports_to_csv theorem_composition verify_entry""",
    "core": """ConvergenceClass DEFAULT_CONTROL EvalControl EvalResult HypSpec Parameter
        classify_convergence coefficient evaluate param pochhammer pochhammer_vec
        termination_order validate_spec values_equal""",
    "errors": "",
    "expressions": """ArgMap ExpZ Expr Hyp PowOneMinusZ PowZ Term eval_expr eval_expr_jet expr
        expz format_expr hyp nth_derivative pow1mz powz term""",
    "identities": """IdentityForm RBranch branch_holds classify_r reduce_cancellation specialize
        theorem1_rhs""",
    "jets": """Jet derivative jet_add jet_constant jet_div jet_exp jet_ipow jet_mul jet_pfq
        jet_pow jet_scale jet_variable""",
    "tables": "figure1_csv figure1_rows table1_csv table1_values",
}


def _fresh(code: str):
    """Run ``code`` in a fresh interpreter on this checkout's src/ and return
    the JSON object its last stdout line holds."""
    env = dict(os.environ, PYTHONPATH=SRC)
    done = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=60
    )
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout.splitlines()[-1])


def _loaded() -> str:
    return "sorted(m for m in sys.modules if m.split('.')[0] == 'hypderiv')"


def test_cold_eval_imports_only_the_series_kernel():
    code = (
        "import json, sys\n"
        "from hypderiv.cli import main\n"
        "code = main(['eval', '--upper', '0.5,0.6666666666666666', '--lower', '2.5', '--z', '0.7'])\n"
        f"print(json.dumps([code, {_loaded()}]))\n"
    )
    code, loaded = _fresh(code)
    assert code == 0
    assert loaded == ["hypderiv", "hypderiv.cli", "hypderiv.core", "hypderiv.errors", "hypderiv.jets"]


def test_every_reexport_imports_as_its_modules_own():
    # a bare `import hypderiv` loads no submodule; each name then resolves
    # to the object its module defines, and so does each module name
    code = (
        "import importlib, json, sys\n"
        "import hypderiv\n"
        f"bare = {_loaded()}\n"
        f"exports = {EXPORTS!r}\n"
        "wrong = []\n"
        "for mod, names in exports.items():\n"
        "    module = getattr(hypderiv, mod)\n"
        "    if module is not importlib.import_module('hypderiv.' + mod):\n"
        "        wrong.append(mod)\n"
        "    for name in names.split():\n"
        "        scope = {}\n"
        "        exec(f'from hypderiv import {name} as value', scope)\n"
        "        if scope['value'] is not getattr(module, name):\n"
        "            wrong.append(name)\n"
        "listed = set(dir(hypderiv))\n"
        "missing = [n for mod, names in exports.items() for n in [mod, *names.split()] if n not in listed]\n"
        "star = {}\n"
        "exec('from hypderiv import *', star)\n"
        "unstarred = [n for mod, names in exports.items() for n in [mod, *names.split()] if n not in star]\n"
        "try:\n"
        "    hypderiv.no_such_name\n"
        "    unknown = 'resolved'\n"
        "except AttributeError as exc:\n"
        "    unknown = str(exc)\n"
        "print(json.dumps([bare, wrong, missing, unstarred, unknown]))\n"
    )
    bare, wrong, missing, unstarred, unknown = _fresh(code)
    assert bare == ["hypderiv"]
    assert wrong == [] and missing == [] and unstarred == []
    assert unknown == "module 'hypderiv' has no attribute 'no_such_name'"
