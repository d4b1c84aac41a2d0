"""Span tracing from outside the library, by wrapping module attributes.

Every hook replaces one module attribute of ``hypderiv`` (one *binding*) with
a wrapper that records a span: id, parent span id, op id, name, start and end
in ``perf_counter_ns``.  The binding matters: ``expressions`` calls the
``jet_pfq`` it imported, so wrapping ``jets.jet_pfq`` alone would miss every
call the oracle makes.  ``HOOKS`` therefore names each binding a caller uses.

Self time is computed online: when a span ends, its duration is added to its
parent's child time, and self time = duration - child time.  So a layer's
self time is the part of its spans not covered by the spans of other hooked
calls made inside them.

Spans stay in memory (a flat ``array`` of int64, up to ``MAX_SPANS``) and are
written out by ``Tracer.write`` when the run ends; per-name totals are kept
for every span, also past the cap.
"""

from __future__ import annotations

import contextlib
import dataclasses
import functools
import importlib
import time
from array import array

MAX_SPANS = 300_000
_FIELDS = 6  # id, parent, op, name index, start_ns, end_ns
_ZERO = (0, 0, 0, 0)


def _pfq_map(spec, arg, *rest, **kw):
    """Argument map of a jet_pfq call, read off the argument jet.

    The identity map passes the variable jet (z0, 1, 0, ...), the negate map
    its negation (-z0, -1, 0, ...); the Pfaff map z/(z-1) gives any other
    first coefficient and nonzero higher ones.  An order-0 jet reads as the
    identity map.
    """
    tail = arg.coeffs[1:]
    if any(tail[1:]) or (tail and tail[0] not in (1, -1)):
        return "pfaff"
    return "negate" if tail and tail[0] == -1 else "identity"


# (module, attribute, span name, kind).  kind "pfq" names the span by the
# argument map; kind "evaluate" also sums terms_used.
HOOKS: tuple[tuple[str, str, str, str], ...] = (
    ("core", "evaluate", "core.evaluate", "evaluate"),
    ("expressions", "evaluate", "core.evaluate", "evaluate"),
    ("tables", "evaluate", "core.evaluate", "evaluate"),
    ("jets", "jet_pfq", "jets.jet_pfq", "pfq"),
    ("expressions", "jet_pfq", "jets.jet_pfq", "pfq"),
    ("jets", "jet_mul", "jets.jet_mul", ""),
    ("expressions", "jet_mul", "expressions.jet_mul", ""),
    ("expressions", "nth_derivative", "expressions.nth_derivative", ""),
    ("catalog", "nth_derivative", "expressions.nth_derivative", ""),
    ("tables", "nth_derivative", "expressions.nth_derivative", ""),
    ("expressions", "eval_expr", "expressions.eval_expr", ""),
    ("catalog", "eval_expr", "expressions.eval_expr", ""),
    ("tables", "eval_expr", "expressions.eval_expr", ""),
    ("catalog", "theorem_general_term", "identities.theorem_general_term", ""),
    ("identities", "theorem_general_term", "identities.theorem_general_term", ""),
    ("catalog", "theorem_exceptional_term", "identities.theorem_exceptional_term", ""),
    ("identities", "theorem_exceptional_term", "identities.theorem_exceptional_term", ""),
    ("tables", "table1_csv", "tables.table1", ""),
    ("tables", "figure1_csv", "tables.figure1", ""),
)

# The 40-digit decimal work, at the two places it is entered: the d_* calls
# jet_pfq makes (series-level escalation) and every d_* that expressions
# imports (term-level rerun).  The decimal algebra's calls to itself inside
# jets stay unwrapped; they run inside one of these spans.
JETS_DECIMAL = ("d_pair_from_jet", "d_pfq", "d_pair_to_complexes")
DECIMAL_PREFIXES = ("jets.d_", "expressions.d_")


def decimal_hooks() -> list[tuple[str, str, str, str]]:
    out = [("jets", attr, f"jets.{attr}", "") for attr in JETS_DECIMAL]
    mod = importlib.import_module("hypderiv.expressions")
    for attr in sorted(vars(mod)):
        if attr.startswith("d_") and callable(getattr(mod, attr)):
            out.append(("expressions", attr, f"expressions.{attr}", ""))
    return out


class Tracer:
    """In-memory span recorder with per-name call, busy and self totals."""

    def __init__(self):
        self.spans = array("q")
        self.dropped = 0
        self.names: list[str] = []
        self._name_idx: dict[str, int] = {}
        # name -> [calls, busy_ns, self_ns, raised]
        self.totals: dict[str, list[int]] = {}
        self.counters: dict[str, int] = {}
        self.op = 0
        self._next_id = 1
        # open spans: [id, child_ns]
        self._stack: list[list[int]] = []

    def _index(self, name: str) -> int:
        idx = self._name_idx.get(name)
        if idx is None:
            idx = self._name_idx[name] = len(self.names)
            self.names.append(name)
            self.totals[name] = [0, 0, 0, 0]
        return idx

    def count(self, name: str, n: int) -> None:
        self.counters[name] = self.counters.get(name, 0) + n

    def wrap(self, fn, name: str, kind: str = ""):
        """Return a wrapper of ``fn`` that records one span per call."""
        tracer = self
        fixed_idx = None if kind == "pfq" else self._index(name)
        terms_key = f"{name}.terms" if kind == "evaluate" else None
        if kind == "pfq":
            by_map = {m: self._index(f"{name}.{m}") for m in ("identity", "negate", "pfaff")}

        def wrapper(*args, **kwargs):
            idx = by_map[_pfq_map(*args, **kwargs)] if fixed_idx is None else fixed_idx
            stack = tracer._stack
            sid = tracer._next_id
            tracer._next_id = sid + 1
            parent = stack[-1][0] if stack else 0
            frame = [sid, 0]
            stack.append(frame)
            raised = 1
            t0 = time.perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
                raised = 0
            finally:
                t1 = time.perf_counter_ns()
                stack.pop()
                dur = t1 - t0
                if stack:
                    stack[-1][1] += dur
                tot = tracer.totals[tracer.names[idx]]
                tot[0] += 1
                tot[1] += dur
                tot[2] += dur - frame[1]
                tot[3] += raised
                if len(tracer.spans) < MAX_SPANS * _FIELDS:
                    tracer.spans.extend((sid, parent, tracer.op, idx, t0, t1))
                else:
                    tracer.dropped += 1
            if terms_key is not None:
                tracer.count(terms_key, result.terms_used)
            return result

        return functools.wraps(fn)(wrapper)

    def calls(self, name: str) -> int:
        return self.totals.get(name, _ZERO)[0]

    def busy_s(self, name: str) -> float:
        return self.totals.get(name, _ZERO)[1] / 1e9

    def self_s(self, name: str) -> float:
        return self.totals.get(name, _ZERO)[2] / 1e9

    def raised(self, name: str) -> int:
        return self.totals.get(name, _ZERO)[3]

    @property
    def kept(self) -> int:
        return len(self.spans) // _FIELDS

    def decimal_busy_s(self) -> float:
        return sum(self.busy_s(n) for n in self.names if n.startswith(DECIMAL_PREFIXES))

    def write(self, path: str) -> None:
        """Write the kept spans as CSV: one row per span, times in ns."""
        with open(path, "w") as fh:
            fh.write(f"# spans={self.kept} dropped={self.dropped}\n")
            fh.write("id,parent,op,name,start_ns,end_ns\n")
            names = self.names
            s = self.spans
            for i in range(0, len(s), _FIELDS):
                fh.write(f"{s[i]},{s[i + 1]},{s[i + 2]},{names[s[i + 3]]},{s[i + 4]},{s[i + 5]}\n")


@contextlib.contextmanager
def installed(tracer: Tracer):
    """Wrap every hooked binding for the duration of the block.

    The original attributes are put back on exit, also when the block
    raises.  Yields the list of (module, attribute) pairs that were wrapped.
    """
    saved = []
    try:
        for mod_name, attr, name, kind in HOOKS + tuple(decimal_hooks()):
            mod = importlib.import_module(f"hypderiv.{mod_name}")
            original = getattr(mod, attr)
            setattr(mod, attr, tracer.wrap(original, name, kind))
            saved.append((mod, attr, original))
        yield [(m.__name__, a) for m, a, _ in saved]
    finally:
        for mod, attr, original in reversed(saved):
            setattr(mod, attr, original)


def wrap_entry(tracer: Tracer, entry):
    """A copy of a frozen catalog entry whose draw, lhs and rhs are traced."""
    return dataclasses.replace(
        entry,
        draw=tracer.wrap(entry.draw, "catalog.draw"),
        lhs=tracer.wrap(entry.lhs, "catalog.lhs"),
        rhs=tracer.wrap(entry.rhs, "catalog.rhs"),
    )
