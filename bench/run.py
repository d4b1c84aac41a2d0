"""Benchmark of hypderiv: four seeded, single-process, closed-loop workloads.

Run from the root of a checkout (the directory holding ``src/hypderiv``):

    python3 bench/run.py --workload campaign --seed 1 --seconds 38 --trace 0

Workloads (see bench/workloads.py for why each was chosen):
  campaign     the verification campaign: jet oracle vs catalog RHS
  scalar       core.evaluate on seeded 2F1/1F1/0F1/terminating draws
               (run by hand; not in BENCHMARK.json, see bench/README.md)
  kummer-deep  order 8-12 oracle derivatives against their Kummer rewrite
  reference    table1_csv() and the default figure1_csv()

One caller runs ops back to back (a closed loop, no threads): the next op
starts when the previous one returns.  Inputs are built from --seed before
timing starts.  Ops run until their summed latency reaches --seconds,
cycling over the inputs if needed, and until every input has run once.
Every output is checked (untimed) after its op, repeats too; a repeat that
comes out otherwise than its first run makes the run incorrect.

--trace 0 (untraced) prints the end-to-end metrics:
  setup_s      median wall time of several cold `hypderiv eval` launches
               on a fixed 2F1 (fresh interpreter, import, catalog build)
  ops_per_s    ops completed per second of measured time
  op_p50_ms    median op latency
  op_tail_ms   highest percentile with at least 10 distinct inputs beyond it
  peak_rss_mb  peak resident set size of this process as the loop ends
and, as checks of the outputs rather than timings, failed_share (distinct
inputs that raised or failed their check, over distinct inputs run) and
max_rel_err (worst relative error among the checks).

--trace 1 runs a fixed number of ops untraced (--seconds / 2 times the
workload's TRACE_RATE, so the same --seconds always traces the same work),
then the same ops again with every hooked library binding wrapped
(bench/tracing.py), and prints the per-layer metrics and the tracing
overhead: traced over untraced time for the same ops.  Spans (id, parent id, op id, name, start and end in
ns) are kept in memory and written at the end to
.bench_out/trace-<workload>-seed<seed>.csv under the checkout.  A span's
self time is its duration minus the time covered by the hooked spans called
inside it.

The last line of stdout is one JSON object:
  {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
``attempted`` counts the distinct inputs run and ``failed`` those among them
that raised or failed their check, so both depend only on the seed (and
on --seconds with --trace 1), not on the host's speed.  ``correct`` is false
when any op raised or came back wrong for a reason other than the workload's
documented known defect (see Scalar in bench/workloads.py).
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from array import array
from collections import Counter

from reference import reference_pfq

ROOT = os.getcwd()
SRC = os.path.join(ROOT, "src")
TRACE_DIR = os.path.join(ROOT, ".bench_out")

SETUP_LAUNCHES = 9
SETUP_ARGV = ["eval", "--upper", "0.5,0.6666666666666666", "--lower", "2.5", "--z", "0.7"]
SETUP_CODE = "import sys\nfrom hypderiv.cli import main\nsys.exit(main(sys.argv[1:]))"
TAIL_LADDER = (99.9, 99.0, 95.0, 90.0, 80.0, 75.0, 50.0)
LATENCY_CAPACITY = 1_000_000
MAPS = ("identity", "negate", "pfaff")
OK, FAILED = 1, 2


def fail(msg: str) -> None:
    print(f"error: {msg}", file=sys.stderr)
    raise SystemExit(2)


def import_library():
    """Import hypderiv from this checkout's src/ and nowhere else."""
    if not os.path.isfile(os.path.join(SRC, "hypderiv", "__init__.py")):
        fail(f"no src/hypderiv under {ROOT}; run from the root of a checkout")
    sys.path.insert(0, SRC)
    import hypderiv

    if os.path.dirname(os.path.dirname(os.path.abspath(hypderiv.__file__))) != SRC:
        fail(f"imported hypderiv from {hypderiv.__file__}, not from {SRC}")


def machine() -> dict:
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "loadavg": [round(x, 2) for x in os.getloadavg()],
    }


def cold_eval(extra_flags=()) -> tuple[float, str]:
    """Launch `hypderiv eval` in a fresh interpreter; return (seconds, stderr)."""
    cmd = [sys.executable, *extra_flags, "-c", SETUP_CODE, *SETUP_ARGV]
    env = dict(os.environ, PYTHONPATH=SRC)
    t0 = time.perf_counter()
    proc = subprocess.run(cmd, env=env, cwd=ROOT, capture_output=True, text=True, timeout=120)
    elapsed = time.perf_counter() - t0
    if proc.returncode != 0:
        fail(f"cold eval exited {proc.returncode}: {proc.stderr.strip()[-500:]}")
    want, _ = reference_pfq([0.5, 0.6666666666666666], [2.5], 0.7)
    printed = proc.stdout.split()[:1]
    if not printed or abs(float(printed[0]) - want.real) > 1e-12 * abs(want):
        fail(f"cold eval printed {proc.stdout[:80]!r}, expected {want.real!r}")
    return elapsed, proc.stderr


def measure_setup() -> float:
    cold_eval()  # writes bytecode caches on a fresh checkout; not counted
    return statistics.median(cold_eval()[0] for _ in range(SETUP_LAUNCHES))


def import_times() -> dict:
    """hypderiv import cost from `-X importtime` in a fresh interpreter, ms."""
    _, err = cold_eval(("-X", "importtime"))
    out = {"import.hypderiv_ms": 0.0, "import.catalog_self_ms": 0.0}
    for line in err.splitlines():
        if not line.startswith("import time:") or "|" not in line:
            continue
        self_us, cum_us, mod = (x.strip() for x in line[len("import time:"):].split("|"))
        if mod == "hypderiv":
            out["import.hypderiv_ms"] = int(cum_us) / 1e3
        elif mod == "hypderiv.catalog":
            out["import.catalog_self_ms"] = int(self_us) / 1e3
    return out


class Loop:
    """Closed-loop runner: one op at a time, each output checked after it.

    Latencies go to a preallocated int64 array, so that the benchmark's own
    bookkeeping does not grow with the op count and show in peak_rss_mb; the
    peak is read as the loop ends, before any post-processing.
    """

    def __init__(self, workload, ops):
        self.workload = workload
        self.ops = ops
        self._lat = array("q", bytes(8 * LATENCY_CAPACITY))
        self.ran = 0
        # per distinct input: 0 not run yet, else OK or FAILED as it first came out
        self._outcome = bytearray(len(ops) if ops else 0)
        self.unstable = 0
        self.raised: Counter = Counter()
        self.wrong = 0
        self.known_defect = 0
        self.max_rel_err = 0.0
        self.peak_rss_mb = 0.0

    def run(self, budget_s: float = math.inf, count: int | None = None, run_op=None,
            min_count: int = 0) -> None:
        """Run ops until budget_s of measured time or ``count`` more ops, and
        at least ``min_count`` more, continuing from where the previous call
        stopped."""
        run_op = run_op or self.workload.run
        check = self.workload.check
        if len(self._outcome) != len(self.ops):
            self._outcome = bytearray(len(self.ops))
        budget_ns = budget_s * 1e9
        spent = 0
        i = self.ran
        end = math.inf if count is None else i + count
        least = i + min_count
        while (spent < budget_ns or i < least) and i < end:
            j = i % len(self.ops)
            op = self.ops[j]
            t0 = time.perf_counter_ns()
            try:
                out = run_op(op)
            except Exception as exc:  # a raising op is a failed op; the loop goes on
                out = exc
            dt = time.perf_counter_ns() - t0
            spent += dt
            if i < LATENCY_CAPACITY:
                self._lat[i] = dt
            else:
                self._lat.append(dt)
            i += 1
            self.ran = i
            if isinstance(out, Exception):
                self.raised[type(out).__name__] += 1
                ok = False
            else:
                c = check(op, out)
                self.max_rel_err = max(self.max_rel_err, c.rel_err)
                ok = c.ok
                if not ok:
                    self.wrong += 1
                    self.known_defect += c.known_defect
            status = OK if ok else FAILED
            if self._outcome[j] not in (0, status):
                self.unstable += 1
            self._outcome[j] = status
        self.peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    @property
    def latencies_ns(self) -> array:
        return self._lat[: self.ran]

    @property
    def attempted(self) -> int:
        """Distinct inputs run.  A repeat of an input is timed and checked
        again, but counted once, so that the count depends on the seed and
        not on how many ops fit in the time."""
        return len(self._outcome) - self._outcome.count(0)

    @property
    def failed(self) -> int:
        """Distinct inputs that raised or failed their check."""
        return self._outcome.count(FAILED)

    @property
    def correct(self) -> bool:
        # a repeat that comes out otherwise than its first run is a wrong answer
        return not self.raised and self.wrong == self.known_defect and not self.unstable

    def total_s(self) -> float:
        return sum(self.latencies_ns) / 1e9

    def tail(self) -> tuple[float, float, int]:
        """(percentile, latency ms, samples beyond) for the highest percentile
        on TAIL_LADDER with at least 10 distinct inputs beyond it.

        When a run cycles through its inputs, the repeats of one slow input
        are not independent samples of the input mix, so the ladder is
        climbed on the number of distinct inputs run; a workload with a
        single fixed input counts every op.
        """
        lat = sorted(self.latencies_ns)
        n = len(lat)
        distinct = n if len(self.ops) == 1 else self.attempted
        for p in TAIL_LADDER:
            if distinct - math.ceil(p / 100 * distinct) >= 10:
                rank = math.ceil(p / 100 * n)
                return p, lat[rank - 1] / 1e6, n - rank
        return 100.0, lat[-1] / 1e6, 0


def end_to_end(loop: Loop, setup_s: float) -> tuple[dict, list[str]]:
    pct, tail_ms, beyond = loop.tail()
    metrics = {
        "setup_s": (setup_s, "s", f"median of {SETUP_LAUNCHES} cold `hypderiv eval` launches"),
        "ops_per_s": (loop.ran / loop.total_s(), "1/s", f"{loop.ran} ops"),
        "op_p50_ms": (statistics.median(loop.latencies_ns) / 1e6, "ms", ""),
        "op_tail_ms": (tail_ms, "ms", f"p{pct:g}, {beyond} of {loop.ran} samples beyond"),
        "peak_rss_mb": (loop.peak_rss_mb, "MB", "read as the timed loop ends"),
    }
    checks = {
        "failed_share": (loop.failed / loop.attempted, "1",
                         f"{loop.failed} of {loop.attempted} distinct inputs; over all "
                         f"{loop.ran} ops: known defect {loop.known_defect}, "
                         f"raised {dict(loop.raised)}, unstable {loop.unstable}"),
        "max_rel_err": (loop.max_rel_err, "1", "worst relative error among the checks"),
    }
    lines = [f"{k:<14} {v:<24.10g} {u:<4} {note}".rstrip()
             for k, (v, u, note) in {**metrics, **checks}.items()]
    return {k: {"value": v, "unit": u} for k, (v, u, _) in metrics.items()}, lines


def per_layer(tracer, overhead_pct: float, imports: dict) -> dict:
    t = tracer
    pfq_calls = sum(t.calls(f"jets.jet_pfq.{m}") for m in MAPS)
    escalated = t.calls("jets.d_pfq")
    m = {
        "core.evaluate.calls": (t.calls("core.evaluate"), "count"),
        "core.evaluate.busy_s": (t.busy_s("core.evaluate"), "s"),
        "core.evaluate.terms": (t.counters.get("core.evaluate.terms", 0), "count"),
        "core.evaluate.failed": (t.raised("core.evaluate"), "count"),
    }
    for name in MAPS:
        m[f"jets.jet_pfq.calls.{name}"] = (t.calls(f"jets.jet_pfq.{name}"), "count")
    for name in MAPS:
        m[f"jets.jet_pfq.busy_s.{name}"] = (t.busy_s(f"jets.jet_pfq.{name}"), "s")
    m["jets.jet_pfq.self_s"] = (sum(t.self_s(f"jets.jet_pfq.{n}") for n in MAPS), "s")
    m.update({
        "jets.jet_mul.calls": (t.calls("jets.jet_mul"), "count"),
        "jets.jet_mul.busy_s": (t.busy_s("jets.jet_mul"), "s"),
        "jets.escalated": (escalated, "count"),
        "jets.escalation_rate": (escalated / pfq_calls if pfq_calls else 0.0, "ratio"),
        "jets.decimal.busy_s": (t.decimal_busy_s(), "s"),
        "expressions.nth_derivative.calls": (t.calls("expressions.nth_derivative"), "count"),
        "expressions.nth_derivative.self_s": (t.self_s("expressions.nth_derivative"), "s"),
        "expressions.eval_expr.calls": (t.calls("expressions.eval_expr"), "count"),
        "expressions.eval_expr.self_s": (t.self_s("expressions.eval_expr"), "s"),
        "expressions.jet_mul.calls": (t.calls("expressions.jet_mul"), "count"),
        "expressions.term_escalated": (t.calls("expressions.d_variable"), "count"),
        "catalog.build_s": (sum(t.busy_s(f"catalog.{f}") for f in ("draw", "lhs", "rhs")), "s"),
        "identities.build_s": (
            t.busy_s("identities.theorem_general_term")
            + t.busy_s("identities.theorem_exceptional_term"), "s"),
        "tables.table1.busy_s": (t.busy_s("tables.table1"), "s"),
        "tables.figure1.busy_s": (t.busy_s("tables.figure1"), "s"),
        "tables.fraction_s": (t.self_s("tables.table1"), "s"),
        "import.hypderiv_ms": (imports["import.hypderiv_ms"], "ms"),
        "import.catalog_self_ms": (imports["import.catalog_self_ms"], "ms"),
        "trace.overhead_pct": (overhead_pct, "%"),
        "trace.spans": (t.kept + t.dropped, "count"),
    })
    return {k: {"value": v, "unit": u} for k, (v, u) in m.items()}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(
        prog="bench/run.py", description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    ap.add_argument("--workload", required=True,
                    choices=("campaign", "scalar", "kummer-deep", "reference"))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True, help="measured time per run")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (math.isfinite(args.seconds) and args.seconds > 0):
        ap.error("--seconds must be finite and positive")

    import_library()
    from workloads import WORKLOADS
    import tracing

    info = machine()
    print(f"# workload={args.workload} seed={args.seed} seconds={args.seconds:g} trace={args.trace}")
    print(f"# machine: {json.dumps(info)}")
    workload = WORKLOADS[args.workload]
    setup_s = measure_setup()
    loop = Loop(workload, workload.prepare(args.seed))

    if not args.trace:
        # every input of the pool runs at least once, so that attempted and
        # failed are the same for the same seed however fast the host is
        loop.run(budget_s=args.seconds, min_count=len(loop.ops))
        metrics, lines = end_to_end(loop, setup_s)
        print(*lines, sep="\n")
        print(json.dumps({"correct": loop.correct, "attempted": loop.attempted,
                          "failed": loop.failed, "metrics": metrics}))
        return 0

    imports = import_times()
    # a fixed op count for a given --seconds, so that layer counts compare
    # across versions of the library; the untraced ops run in two halves,
    # before and after the traced run, so that a drift in the host's speed
    # cancels out of the overhead
    count = max(2, round(args.seconds / 2 * workload.TRACE_RATE))
    loop.run(count=count // 2)
    tracer = tracing.Tracer()
    traced = Loop(workload, None)
    with tracing.installed(tracer):
        traced.ops = workload.prepare(args.seed, lambda e: tracing.wrap_entry(tracer, e))

        def run_op(op, run=tracer.wrap(workload.run, f"op.{workload.name}")):
            tracer.op += 1
            return run(op)

        traced.run(count=count, run_op=run_op)
    loop.run(count=count - count // 2)
    overhead = (traced.total_s() / loop.total_s() - 1) * 100
    os.makedirs(TRACE_DIR, exist_ok=True)
    trace_path = os.path.join(TRACE_DIR, f"trace-{args.workload}-seed{args.seed}.csv")
    tracer.write(trace_path)
    metrics = per_layer(tracer, overhead, imports)
    print(f"# trace: {tracer.kept} spans kept, {tracer.dropped} dropped, "
          f"written to {os.path.relpath(trace_path, ROOT)}")
    print(f"# untraced {loop.ran} ops in {loop.total_s():.3f} s, "
          f"traced {traced.ran} ops in {traced.total_s():.3f} s")
    for name, mv in metrics.items():
        print(f"{name:<36} {mv['value']:<24.10g} {mv['unit']}")
    both = [loop, traced]
    print(json.dumps({
        "correct": all(x.correct for x in both),
        "attempted": sum(x.attempted for x in both),
        "failed": sum(x.failed for x in both),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
