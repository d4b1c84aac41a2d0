"""Self-test of the benchmark's tracing hooks.

Checks that every per-layer wrapper fires on a tiny input, that the wrappers
sit on every binding a caller inside the library uses, and that the original
attributes are back after a traced run.  A rename in the library that a hook
no longer matches fails here instead of silently zeroing a layer metric.

Run with ``python3 bench/test_hooks.py`` or through pytest.
"""

from __future__ import annotations

import importlib
import os
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path[:0] = [os.path.join(os.path.dirname(HERE), "src"), HERE]

from hypderiv import core, expressions  # noqa: E402

import tracing  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

# modules whose functions call each other by imported name; the package
# __init__ and the CLI only re-export, and the benchmark never calls them
LIBRARY_MODULES = ("core", "jets", "expressions", "identities", "catalog", "tables")
OPS_PER_WORKLOAD = {"campaign": 40, "scalar": 50, "kummer-deep": 3, "reference": 1}


def _all_hooks():
    return tracing.HOOKS + tuple(tracing.decimal_hooks())


def _probes():
    """Inputs that escalate to decimal whatever the seeded draws do."""
    ex = expressions
    # the factors multiply to exactly 1, so every Leibniz sum of order >= 1
    # cancels and the term is rerun in decimal, through every factor kind
    one = ex.expr(
        ex.term(
            1,
            ex.expz(-1), ex.expz(1),
            ex.powz(0.5), ex.powz(-0.5), ex.powz(2), ex.powz(-2),
            ex.pow1mz(1), ex.pow1mz(-1),
            # upper parameter 0: the series is the constant 1
            ex.hyp(core.HypSpec.of([0, 0.5], [1.5]), ex.ArgMap.PFAFF),
        )
    )
    # 1F1(1/2; 3/2; -15): the series cancels, which forces the series-level rerun
    deep = ex.expr(ex.term(1, ex.hyp(core.HypSpec.of([0.5], [1.5]), ex.ArgMap.NEGATE)))
    return [(one, 3, 0.2), (deep, 2, 15.0)]


def _snapshot():
    out = {}
    for mod_name, attr, _, _ in _all_hooks():
        mod = importlib.import_module(f"hypderiv.{mod_name}")
        out[(mod_name, attr)] = getattr(mod, attr)
    return out


class HookTest(unittest.TestCase):
    def test_every_wrapper_fires(self):
        before = _snapshot()
        tracer = tracing.Tracer()
        with tracing.installed(tracer):
            for name, w in WORKLOADS.items():
                ops = w.prepare(0, lambda e: tracing.wrap_entry(tracer, e))
                for op in ops[: OPS_PER_WORKLOAD[name]]:
                    self.assertTrue(w.check(op, w.run(op)).ok or name == "scalar")
            for e, n, z0 in _probes():
                expressions.nth_derivative(e, n, z0)
        expected = {name for _, _, name, kind in _all_hooks() if kind != "pfq"}
        expected |= {f"jets.jet_pfq.{m}" for m in ("identity", "negate", "pfaff")}
        expected |= {"catalog.draw", "catalog.lhs", "catalog.rhs"}
        missing = sorted(n for n in expected if tracer.calls(n) == 0)
        self.assertEqual(missing, [], "hooks that never fired")
        self.assertEqual(_snapshot(), before, "wrappers left in place after the run")

    def test_wrappers_cover_every_caller_binding(self):
        hooked = _snapshot()
        by_object = {}
        for key, fn in hooked.items():
            by_object.setdefault(id(fn), set()).add(key)
        unhooked = []
        for mod_name in LIBRARY_MODULES:
            mod = importlib.import_module(f"hypderiv.{mod_name}")
            for attr, value in vars(mod).items():
                # the decimal algebra calling itself inside jets runs within
                # one of the hooked decimal spans
                internal = mod_name == "jets" and attr.startswith("d_")
                if id(value) in by_object and (mod_name, attr) not in hooked and not internal:
                    unhooked.append(f"{mod_name}.{attr}")
        self.assertEqual(unhooked, [], "bindings of hooked functions left unwrapped")

    def test_pfq_map_read_off_the_argument(self):
        tracer = tracing.Tracer()
        spec = core.HypSpec.of([0.5, 1.5], [2.5])
        with tracing.installed(tracer):
            for amap in expressions.ArgMap:
                e = expressions.expr(expressions.term(1, expressions.hyp(spec, amap)))
                expressions.nth_derivative(e, 1, 0.2)
        for m in ("identity", "negate", "pfaff"):
            self.assertEqual(tracer.calls(f"jets.jet_pfq.{m}"), 1, m)

    def test_wrappers_removed_after_run(self):
        before = _snapshot()
        tracer = tracing.Tracer()
        with self.assertRaises(RuntimeError):
            with tracing.installed(tracer) as wrapped:
                self.assertEqual(len(wrapped), len(before))
                for (mod_name, attr), fn in before.items():
                    mod = importlib.import_module(f"hypderiv.{mod_name}")
                    self.assertIsNot(getattr(mod, attr), fn)
                raise RuntimeError("leave the block early")
        after = _snapshot()
        for key, fn in before.items():
            self.assertIs(after[key], fn, key)


if __name__ == "__main__":
    unittest.main()
