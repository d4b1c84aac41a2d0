"""Command-line front end.

Subcommands:

* ``eval``    -- evaluate pFq(a; b; z) by its series, a cancelled sum rerun
  in self-checked fixed point (a real polynomial past its budget exactly)
* ``table1``  -- CSV of the reference derivative table (n=4, a=1/2, b=2/3, z=1/3)
* ``figure1`` -- CSV sweep of the same quantities over real c
* ``verify``  -- run the identity catalog against the jet oracle

Exit codes: 0 success, 1 verification failure, 2 invalid input/spec,
3 series did not converge.
"""

from __future__ import annotations

import argparse
import cmath
import os
import sys
from typing import Optional, Sequence

from .catalog import (
    catalog_entries,
    entry,
    format_report,
    reports_to_csv,
    verify_entry,
)
from .core import (
    EvalControl,
    HypSpec,
    classify_convergence,
    evaluate,
)
from .errors import (
    DomainError,
    HypDerivError,
    NoConvergence,
)
from .expressions import format_expr
from .tables import figure1_csv, table1_csv

EXIT_OK = 0
EXIT_VERIFY_FAILED = 1
EXIT_INVALID = 2
EXIT_NO_CONVERGENCE = 3


def _parse_scalar(tok: str):
    """Integer literals become exact parameters; floats and re+imi stay numeric."""
    tok = tok.strip()
    if not tok:
        raise ValueError("empty parameter")
    for parse in (int, float, lambda t: complex(t.replace("i", "j").replace(" ", ""))):
        try:
            x = parse(tok)
        except ValueError:
            continue
        try:
            finite = cmath.isfinite(x)
        except OverflowError:  # an integer beyond the double range
            finite = False
        if not finite:
            raise ValueError(f"non-finite parameter {tok!r}")
        return x
    raise ValueError(f"cannot parse parameter {tok!r}")


def _parse_vector(text: str) -> list:
    text = text.strip()
    if not text:
        return []
    return [_parse_scalar(tok) for tok in text.split(",")]


def _fmt_value(v: complex, digits: int = 15) -> str:
    if v.imag == 0:
        return f"{v.real:.{digits}g}"
    return f"{v.real:.{digits}g}{v.imag:+.{digits}g}i"


def _cmd_eval(args) -> int:
    try:
        upper = _parse_vector(args.upper)
        lower = _parse_vector(args.lower)
        z = _parse_scalar(args.z)
        spec = HypSpec.of(upper, lower)
        ctrl = EvalControl(rel_tol=args.rel_tol, max_terms=args.max_terms)
        res = evaluate(spec, complex(z), ctrl)
    except (NoConvergence, DomainError) as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_NO_CONVERGENCE
    except (HypDerivError, ValueError) as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_INVALID
    cls = classify_convergence(spec, complex(z))
    print(_fmt_value(res.value))
    print(f"terms_used: {res.terms_used}")
    print(f"convergence: {cls.value}")
    return EXIT_OK


def _invalid(message: str) -> int:
    print(f"error: {message}", file=sys.stderr)
    return EXIT_INVALID


def _unwritable(path: str) -> Optional[str]:
    """Why ``path`` cannot be written, or None; checked before any work.

    Creates nothing: an existing file must be writable, a new one needs a
    writable directory.
    """
    if os.path.isdir(path):
        return f"cannot write {path}: is a directory"
    if os.path.exists(path):
        target = path
    else:
        target = os.path.dirname(path) or "."
        if not os.path.isdir(target):
            return f"cannot write {path}: no directory {target}"
    if not os.access(target, os.W_OK):
        return f"cannot write {path}: permission denied"
    return None


def _cmd_table1(args) -> int:
    if args.digits < 1:
        return _invalid("--digits must be >= 1")
    sys.stdout.write(table1_csv(digits=args.digits))
    return EXIT_OK


def _cmd_figure1(args) -> int:
    if args.digits < 1:
        return _invalid("--digits must be >= 1")
    reason = _unwritable(args.out) if args.out != "-" else None
    if reason:
        return _invalid(reason)
    try:
        csv_text = figure1_csv(args.c_min, args.c_max, args.step, digits=args.digits)
    except ValueError as exc:
        return _invalid(str(exc))
    if args.out == "-":
        sys.stdout.write(csv_text)
    else:
        with open(args.out, "w") as fh:
            fh.write(csv_text)
        print(f"wrote {args.out}")
    return EXIT_OK


def _cmd_verify(args) -> int:
    if args.identity == "all":
        selected = list(catalog_entries())
    else:
        try:
            selected = [entry(args.identity)]
        except KeyError:
            return _invalid(f"unknown identity {args.identity!r}")
    if args.trials < 1:
        return _invalid("--trials must be >= 1")
    if not 0 < args.tol < 1:
        return _invalid("--tol must lie in (0, 1)")
    reason = _unwritable(args.csv) if args.csv else None
    if reason:
        return _invalid(reason)
    reports = []
    for e in selected:
        if args.dump_expr:
            import random

            p = e.draw(random.Random(f"{args.seed}:{e.id}"))
            print(f"# {e.id} sample draw")
            print("lhs:")
            print(format_expr(e.lhs(p)))
            print("rhs:")
            print(format_expr(e.rhs(p)))
        r = verify_entry(e, trials=args.trials, seed=args.seed, tol=args.tol)
        reports.append(r)
        print(format_report(r))
    n_fail = sum(1 for r in reports if not r.passed)
    if n_fail:
        print(f"FAILED: {n_fail} of {len(reports)} entries")
    else:
        print(f"all passed ({len(reports)} entries)")
    if args.csv:
        with open(args.csv, "w") as fh:
            fh.write(reports_to_csv(reports))
    return EXIT_VERIFY_FAILED if n_fail else EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="hypderiv",
        description="Generalized hypergeometric series and differentiation identities",
    )
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("eval", help="evaluate pFq(a; b; z) by its series, with the cancellation guard")
    p.add_argument("--upper", default="", help="comma-separated upper parameters")
    p.add_argument("--lower", default="", help="comma-separated lower parameters")
    p.add_argument("--z", required=True, help="argument (real or re+imi)")
    p.add_argument("--rel-tol", type=float, default=1e-14)
    p.add_argument("--max-terms", type=int, default=10000)
    p.set_defaults(func=_cmd_eval)

    p = sub.add_parser("table1", help="reference derivative table as CSV")
    p.add_argument("--digits", type=int, default=15)
    p.set_defaults(func=_cmd_table1)

    p = sub.add_parser("figure1", help="sweep f_L, f_R1, f_R2 over real c")
    p.add_argument("--c-min", type=float, default=0.5)
    p.add_argument("--c-max", type=float, default=7.5)
    p.add_argument("--step", type=float, default=0.05)
    p.add_argument("--digits", type=int, default=15)
    p.add_argument("--out", default="figure1.csv", help="output path ('-' for stdout)")
    p.set_defaults(func=_cmd_figure1)

    p = sub.add_parser("verify", help="verify catalog identities against the jet oracle")
    p.add_argument("--identity", default="all", help="entry id or 'all'")
    p.add_argument("--trials", type=int, default=50)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--tol", type=float, default=1e-8)
    p.add_argument("--csv", default=None, help="also write a CSV report")
    p.add_argument("--dump-expr", action="store_true", help="print sample LHS/RHS expressions")
    p.set_defaults(func=_cmd_verify)

    return ap


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    return args.func(args)


def entry_point() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    entry_point()
