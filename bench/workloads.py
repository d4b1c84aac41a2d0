"""The four workloads: seeded inputs, one library call per op, and a check.

A workload's ``prepare(seed, wrap_entry)`` builds every input before timing
starts.  ``run(op)`` is the only code inside the timed region; it calls the
library through module attributes (``expressions.nth_derivative``, not a
name imported here), so the tracing wrappers see the call.  ``check(op, out)``
runs after the op, untimed, and returns a ``Check``.

Why these four (each stresses a layer the others barely touch):

* ``campaign``    the paper's verification campaign; double-precision
                  ``jet_pfq`` does most of the work.
* ``scalar``      ``core.evaluate`` alone, no jets: the row that should not
                  move under a jet optimisation, and the one that shows the
                  scalar path's missing cancellation guard.
* ``kummer-deep`` high-order jets through all three argument maps, with
                  lower parameters of negative real part, so 40-digit decimal
                  escalation does much of the work.
* ``reference``   ``table1_csv`` and ``figure1_csv``; the exact-Fraction
                  table path runs only here.
"""

from __future__ import annotations

import cmath
import math
import random
from dataclasses import dataclass

from hypderiv import catalog, core, expressions, tables

from reference import reference_pfq

EPS = 2.0**-52


@dataclass
class Check:
    ok: bool
    rel_err: float
    # a wrong output that the known, documented defect of the workload
    # explains (see Scalar and KummerDeep); anything else wrong makes the run
    # incorrect
    known_defect: bool = False


def rel_err(x: complex, y: complex) -> float:
    scale = max(abs(x), abs(y))
    return abs(x - y) / scale if scale else 0.0


class Campaign:
    """37 catalog entries x 50 draws x their 2-3 sample points.

    The draws are the ones ``verify_entry`` makes, with the workload seed in
    place of verify's seed.  Draws are shuffled as whole units so that any
    prefix of the op list is a fair sample of the catalog; an op is one
    sample point: the oracle derivative of the LHS and the RHS value.  The
    first point of a draw also builds the draw's LHS and RHS expressions.
    """

    name = "campaign"
    TRACE_RATE = 800  # ops/s at the baseline; sizes the traced run
    TRIALS = 50
    TOL = 1e-8  # the catalog's verification tolerance

    def prepare(self, seed: int, wrap_entry=None):
        units = []
        for e in catalog.catalog_entries():
            e = wrap_entry(e) if wrap_entry else e
            rng = random.Random(f"{seed}:{e.id}")
            for _ in range(self.TRIALS):
                units.append([e, e.draw(rng), None])
        random.Random(f"{seed}:order").shuffle(units)
        return [(u, i) for u in units for i in range(len(u[0].z_points))]

    def run(self, op):
        unit, i = op
        e, p = unit[0], unit[1]
        if i == 0:
            # cleared first, so that a build that raises fails the draw's
            # later points too instead of leaving a previous pass's build
            unit[2] = None
            unit[2] = (e.lhs(p), e.rhs(p))
        lhs, rhs = unit[2]
        z0 = e.z_points[i]
        return expressions.nth_derivative(lhs, p["n"], z0), expressions.eval_expr(rhs, z0)

    def check(self, op, out) -> Check:
        err = rel_err(*out)
        return Check(err <= self.TOL, err)


def strata(rng: random.Random, block: int) -> list[float]:
    """``block`` values in [0, 1), one in each of ``block`` equal strata, shuffled.

    Drawing every parameter this way, block by block, makes each block a
    balanced sample of the parameter ranges.  An op's cost grows steeply in
    some of them (|z| above all), so this keeps the mean cost of a run, and
    with it the run-to-run spread, far steadier than independent draws do.
    """
    return [(j + rng.random()) / block for j in rng.sample(range(block), block)]


def _between(u: float, lo: float, hi: float) -> float:
    return lo + (hi - lo) * u


def _lower(u: float) -> float:
    """A lower parameter in [-5, 5], moved 0.05 off the poles 0, -1, -2, ..."""
    x = _between(u, -5, 5)
    k = round(x)
    if k <= 0 and abs(x - k) < 0.05:
        x = k + (0.05 if x >= k else -0.05)
    return x


class Scalar:
    """Direct series evaluation, ``core.evaluate``, on seeded draws.

    The pool has fixed shares: 60% 2F1 with real |params| <= 5 and |z| < 0.95,
    20% 1F1 at 5 <= |z| <= 15, 10% 0F1 at 10 <= |z| <= 60, 10% terminating
    2F1(-m, b; c; z) with m <= 30 and |z| <= 2, each drawn in stratified
    blocks.  Each draw is checked against an extended-precision value
    computed here in stdlib decimal.

    Known defect: ``core.evaluate`` has no cancellation guard, so a draw
    with a large kappa = sum|t_k| / |sum t_k| comes back wrong.  Such draws
    stay in the pool and count as failed ops; a wrong output counts as the
    known defect only when kappa explains it, err <= KAPPA_SLACK * kappa *
    eps.
    """

    name = "scalar"
    TRACE_RATE = 10000
    POOL = 2000
    BLOCK = 20
    TOL = 1e-10
    KAPPA_SLACK = 64.0
    SHARES = (("2F1", 0.6), ("1F1", 0.2), ("0F1", 0.1), ("terminating", 0.1))

    @staticmethod
    def _draw(kind: str, u: list[float]):
        z_angle = math.pi * (2 * u[4] - 1)
        if kind == "2F1":
            upper = [_between(u[0], -5, 5), _between(u[1], -5, 5)]
            return upper, [_lower(u[2])], cmath.rect(0.95 * u[3], z_angle)
        if kind == "1F1":
            return [_between(u[0], -5, 5)], [_lower(u[2])], cmath.rect(_between(u[3], 5, 15), z_angle)
        if kind == "0F1":
            return [], [_lower(u[2])], cmath.rect(_between(u[3], 10, 60), z_angle)
        upper = [-1 - int(30 * u[0]), _between(u[1], -5, 5)]
        return upper, [_lower(u[2])], cmath.rect(2 * u[3], z_angle)

    def prepare(self, seed: int, wrap_entry=None):
        rng = random.Random(f"{seed}:scalar")
        ops = []
        for kind, share in self.SHARES:
            for _ in range(round(share * self.POOL / self.BLOCK)):
                dims = [strata(rng, self.BLOCK) for _ in range(5)]
                for u in zip(*dims):
                    upper, lower, z = self._draw(kind, u)
                    ref = reference_pfq([float(a) for a in upper], lower, z)
                    ops.append((core.HypSpec.of(upper, lower), z, ref))
        rng.shuffle(ops)
        return ops

    def run(self, op):
        spec, z, _ = op
        return core.evaluate(spec, z).value

    def check(self, op, out) -> Check:
        ref, kappa = op[2]
        err = rel_err(out, ref)
        if err <= self.TOL:
            return Check(True, err)
        return Check(False, err, err <= self.KAPPA_SLACK * kappa * EPS)


class KummerDeep:
    """Order 8-12 derivatives of z^r pFq(w) against their Kummer rewrite.

    An op is a trio of draws, one per argument map: the identity map (2F1,
    checked through the Euler transform ``kummer2``), the negate map (1F1,
    through ``kummer1``) and the Pfaff map (2F1, through ``kummer3``).  For
    each draw it takes the oracle derivative of the draw and of its rewrite;
    the check is that every pair agrees to TOL.  Lower parameters have
    negative real part, which makes the jet coefficients cancel and
    escalate.  A single draw would not do as the op: negate-map draws cost a
    few ms, escalated ones a hundred, and the median of that mixture falls
    in the gap between them, where it jumps from run to run.

    The cost of an op grows steeply with the radius |w0| of the series
    argument (more terms, and more escalation), so the draws come in blocks
    of BLOCK per map, drawn with ``strata``: |w0|, arg(w0), the order and
    Re(c) each take every one of BLOCK strata once in a block.

    Known defect: ``jet_pfq`` stops summing once the largest jet coefficient
    has converged, so a much smaller high-order coefficient can stop short.
    Seen: 2e-7 on a negate-map draw at |z0| = 3.7, order 11, where the
    rewritten side matched a 60-digit value.  A pair that still agrees to
    KNOWN_DEFECT_TOL counts as that defect; a larger disagreement is a wrong
    answer.
    """

    name = "kummer-deep"
    TRACE_RATE = 10
    POOL = 300  # trios
    BLOCK = 10
    RADIUS = (0.3, 0.7)  # range of |w0| for the identity and Pfaff maps
    TOL = 1e-8
    KNOWN_DEFECT_TOL = 1e-4
    MAPS = (
        (expressions.ArgMap.IDENTITY, "kummer2"),
        (expressions.ArgMap.NEGATE, "kummer1"),
        (expressions.ArgMap.PFAFF, "kummer3"),
    )

    def _block(self, rng: random.Random, amap) -> list:
        Map = expressions.ArgMap
        radius, angle, order, re_c = (strata(rng, self.BLOCK) for _ in range(4))
        out = []
        for j in range(self.BLOCK):
            n = 8 + int(order[j] * 5)
            r = rng.uniform(-2, 2)
            while True:
                c = complex(_between(re_c[j], -3.5, -0.2), rng.uniform(-1, 1))
                if abs(c - round(c.real)) > 0.05:
                    break
            cx = lambda: complex(rng.uniform(-2, 2), rng.uniform(-1, 1))
            if amap is Map.NEGATE:
                upper = [cx()]
                z0 = cmath.rect(_between(radius[j], 1, 4), math.pi * (2 * angle[j] - 1))
            else:
                upper = [cx(), cx()]
                phase = math.pi * (2 * angle[j] - 1)
                while True:
                    w0 = cmath.rect(_between(radius[j], *self.RADIUS), phase)
                    # the Pfaff map is an involution: z0 = w0/(w0-1), and the
                    # rewritten side sums at z0, so |z0| < 1 as well
                    z0 = w0 if amap is Map.IDENTITY else w0 / (w0 - 1)
                    if abs(z0) < 0.85:
                        break
                    phase = rng.uniform(-math.pi, math.pi)
            hyp = expressions.hyp(core.HypSpec.of(upper, [c]), amap)
            out.append((expressions.expr(expressions.term(1, expressions.powz(r), hyp)), n, z0))
        return out

    def prepare(self, seed: int, wrap_entry=None):
        rng = random.Random(f"{seed}:kummer-deep")
        ops = []
        for _ in range(self.POOL // self.BLOCK):
            blocks = [
                [draw + (rewrite,) for draw in self._block(rng, amap)]
                for amap, rewrite in self.MAPS
            ]
            ops.extend(zip(*blocks))
        return ops

    def run(self, op):
        out = []
        for e, n, z0, rewrite in op:
            lhs = expressions.nth_derivative(e, n, z0)
            out.append((lhs, expressions.nth_derivative(getattr(catalog, rewrite)(e), n, z0)))
        return out

    def check(self, op, out) -> Check:
        err = max(rel_err(*pair) for pair in out)
        return Check(err <= self.TOL, err, err <= self.KNOWN_DEFECT_TOL)


# the acceptance output of table1_csv(), byte for byte
TABLE_EXPECTED = """c,f_L,f_R1,f_R2
1,16.2802578209098,,16.2802578209098
2,3.39340187542396,,3.39340187542396
3,2.04681438609744,,2.04681438609744
4,3.31081155003091,,3.31081155003091
5,27.4105535888826,27.4105535888826,27.4105535888826
6,42.6040520193532,42.6040520193532,
7,41.6637846070299,41.6637846070299,
"""


class Reference:
    """One op is ``table1_csv()`` plus the default ``figure1_csv()``.

    The inputs are fixed by the paper, so the seed changes nothing here.
    Checks: the table is byte-identical to the acceptance table.  In the
    figure, f_L agrees with f_R1 wherever f_R1 is present and with f_R2 at
    integer c, where the exceptional line holds (off the integers f_R2 is its
    Gamma continuation, not an identity); and the blank cells are exactly
    the poles: f_R1 at integer c <= 4, f_R2 at c >= 5.5 on the half-integer
    grid, f_R1-f_R2 wherever either is blank, f_L nowhere.
    """

    name = "reference"
    TRACE_RATE = 4
    TOL = 1e-12

    def prepare(self, seed: int, wrap_entry=None):
        return [None]

    def run(self, op):
        return tables.table1_csv(), tables.figure1_csv()

    def check(self, op, out) -> Check:
        table, figure = out
        ok = table == TABLE_EXPECTED
        worst = 0.0
        for line in figure.splitlines()[1:]:
            cells = line.split(",")
            c = float(cells[0])
            f_l, f_r1, f_r2, diff = (float(x) if x else None for x in cells[1:])
            blank_r1 = c == round(c) and c <= 4
            blank_r2 = c >= 5.5 and 2 * c == round(2 * c)
            ok &= f_l is not None
            ok &= (f_r1 is None) == blank_r1 and (f_r2 is None) == blank_r2
            ok &= (diff is None) == (blank_r1 or blank_r2)
            if f_l is None:
                continue
            pairs = [f_r1] + ([f_r2] if c == round(c) else [])
            for v in pairs:
                if v is not None:
                    worst = max(worst, rel_err(f_l, v))
        return Check(ok and worst <= self.TOL, worst)


WORKLOADS = {w.name: w for w in (Campaign(), Scalar(), KummerDeep(), Reference())}
