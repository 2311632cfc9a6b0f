"""Command-line surface: build algebras, emit matrices, run exact checks.

Commands
    taft             Taft Hopf algebra reports, and R-matrices of its double
    uqsl2            spin-1/2 / spin-1 R-matrices
    double           algebraic Yang-Baxter checks inside D(T_N)
    baxterize        graded decomposition of the canonical element, with mu
    verify           re-check a serialized matrix (JSON) exactly
    all-regressions  the full twelve-item acceptance ladder

Exit codes: 0 all checks passed, 1 a verification failed, 2 usage error.
Matrices go to stdout or --output (resolved against $HOPFBAX_OUTPUT_DIR
when relative); check reports go to stderr so JSON output stays clean.
double has no matrix: its --output file gets its reports, in JSON as one
list.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from .algebra import tensor_str
from .baxterize import baxterize, baxterize_zn, decompose_graded
from .double import build_double, canonical_r, check_constant_ybe_algebraic, \
    check_parametric_ybe_algebraic, double_grading
from .hopf import check_coproduct_grading, check_grading, check_hopf_axioms
from .matrices import ParametricMatrix
from .scalars import cyclotomic, laurent_by_key, parse_scalar
from .taft import build_taft, canonical_r_mu, rep_indecomposable, \
    rep_irreducible, taft_r_matrix, x_degree_grading
from .uqsl2 import spin_half, spin_one, uqsl2_r_matrix
from .ybe import braid_check, check_constant_ybe, check_parametric_ybe

OUTPUT_DIR_ENV = "HOPFBAX_OUTPUT_DIR"
# largest --N: D(T_N), which --rep, --indecomposable, double and baxterize
# build, has N^4 basis elements, and "double --N 8 --parametric" (both
# algebraic YBE checks) took 0.78-1.07 s and 35 MB peak RSS in ten runs on
# a 2-vCPU host with Python 3.11.7
MAX_N = 8


class UsageError(ValueError):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):   # one "error:" line, like every usage error
        raise UsageError(message)


def _parse_rep(text: str) -> tuple:
    parts = text.split(",")
    if len(parts) != 2:
        raise UsageError(f"--rep expects 'n,l', got {text!r}")
    try:
        return int(parts[0]), int(parts[1])
    except ValueError:
        raise UsageError(f"--rep expects two integers, got {text!r}") from None


def _emit(text: str, args):
    if args.output:
        path = args.output
        base = os.environ.get(OUTPUT_DIR_ENV)
        if base and not os.path.isabs(path):
            path = os.path.join(base, path)
        os.makedirs(os.path.dirname(path) or ".", exist_ok=True)
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text if text.endswith("\n") else text + "\n")
    else:
        print(text)


def _emit_matrix(m: ParametricMatrix, args):
    if args.fmt == "json":
        _emit(m.to_json().rstrip("\n"), args)
    elif args.fmt == "latex":
        _emit(m.to_latex(), args)
    else:
        _emit(m.to_text(), args)


def _report_out(report, args) -> int:
    text = json.dumps(report.to_dict(), indent=2, sort_keys=True) \
        if args.fmt == "json" else report.summary()
    print(text, file=sys.stderr)
    return 0 if report.passed else 1


def _emit_family(m: ParametricMatrix, args) -> int:
    _emit_matrix(m, args)
    if args.verify:
        report = check_parametric_ybe(m) if args.parametric \
            else check_constant_ybe(m)
        return _report_out(report, args)
    return 0


def _scalar_arg(text: str, domain):
    """A scalar given on the command line; domain errors are usage errors."""
    try:
        return parse_scalar(text, domain)
    except ArithmeticError as exc:
        raise UsageError(f"bad scalar {text!r}: {exc}") from exc


def _taft(args):
    if args.N < 2:
        raise UsageError("--N must be at least 2")
    if args.N > MAX_N:
        raise UsageError(f"--N must be at most {MAX_N}")
    domain = cyclotomic(args.N)
    q = domain.q() if args.q is None else _scalar_arg(args.q, domain)
    return build_taft(args.N, q)


def run_taft(args) -> int:
    rep = None if args.rep is None else _parse_rep(args.rep)
    if rep is not None and args.alpha is not None:
        raise UsageError("--rep and --indecomposable are mutually exclusive")
    if args.l is not None and args.alpha is None:
        raise UsageError("--l needs --indecomposable")
    if args.alpha is not None and args.l is None:
        raise UsageError("--indecomposable needs --l")
    if rep is None and args.alpha is None and (args.parametric or args.verify):
        raise UsageError("--parametric and --verify need --rep or "
                         "--indecomposable")
    if rep is None and args.alpha is None and (args.output or args.fmt == "latex"):
        raise UsageError("--output and --format latex need --rep or "
                         "--indecomposable")
    h = _taft(args)
    if rep is None and args.alpha is None:
        grading = x_degree_grading(h)
        reports = [check_hopf_axioms(h), check_grading(h.algebra, grading),
                   check_coproduct_grading(h, grading)]
        return max(_report_out(r, args) for r in reports)
    d = build_double(h)
    if rep is not None:
        module = rep_irreducible(d, *rep)
    else:
        alpha = _scalar_arg(args.alpha, h.domain)
        module = rep_indecomposable(d, alpha, args.l)
    return _emit_family(taft_r_matrix(module, parametric=args.parametric,
                                      normalize=rep is not None), args)


def run_uqsl2(args) -> int:
    if args.spin not in ("1/2", "1"):
        raise UsageError("--spin must be 1/2 or 1")
    rep = spin_half() if args.spin == "1/2" else spin_one()
    return _emit_family(uqsl2_r_matrix(rep, parametric=args.parametric),
                        args)


def run_double(args) -> int:
    d = build_double(_taft(args))
    reports = [check_constant_ybe_algebraic(d, canonical_r(d).tensor())]
    status = _report_out(reports[0], args)
    if args.parametric:
        reports.append(check_parametric_ybe_algebraic(d, canonical_r_mu(d)))
        status |= _report_out(reports[1], args)
    if args.output:   # the reports as stderr has them, JSON as one list
        _emit(json.dumps([r.to_dict() for r in reports], indent=2,
                         sort_keys=True) if args.fmt == "json" else
              "\n".join(r.summary() for r in reports), args)
    return status


def run_baxterize(args) -> int:
    d = build_double(_taft(args))
    r = canonical_r(d).tensor()
    grading = double_grading(d, x_degree_grading(d.h))
    if args.zn:
        grading = grading.lift_zn(lambda j: (j, 0))
    graded = decompose_graded(r, grading, grading)
    r_mu = baxterize_zn(graded, (1, 1)) if args.zn else baxterize(graded)
    # no R(1) = r check: the blocks split r's terms, and R(mu) adds them all
    # R(mu) prints as one element with a Laurent coefficient per key
    text = tensor_str(r.algebras, laurent_by_key(
        {(k, e, 0): c for e, t in r_mu.items() for k, c in t.terms.items()}))
    if args.fmt == "json":
        payload = {"degrees": [str(k) for k in sorted(graded)], "terms": text}
        _emit(json.dumps(payload, indent=2, sort_keys=True), args)
    else:
        _emit(text, args)
    return 0


def run_verify(args) -> int:
    try:
        with open(args.input_path, encoding="utf-8") as fh:
            m = ParametricMatrix.from_json(fh.read())
    except (OSError, ValueError, LookupError, TypeError,
            ArithmeticError, RecursionError) as exc:
        # unreadable file, malformed or too deeply nested JSON, bad scalar
        # or out-of-range index
        raise UsageError(f"cannot load matrix: {exc}") from exc
    kind = args.kind
    if kind == "auto":
        kind = "parametric" if m.uses_parameters() else "constant"
    if kind == "parametric":
        report = check_parametric_ybe(m)
    elif kind == "braid":
        report = braid_check(m.at_one())
    else:
        report = check_constant_ybe(m.at_one())
    return _report_out(report, args)


def run_regressions(args) -> int:
    from .regressions import run_all
    results = run_all()
    if args.fmt == "json":
        _emit(json.dumps([r.to_dict() for r in results], indent=2,
                         sort_keys=True), args)
    else:
        _emit("\n".join(r.line() for r in results), args)
    return 0 if all(r.passed for r in results) else 1


def _build_parser() -> argparse.ArgumentParser:
    p = _Parser(
        prog="hopfbax",
        description="Exact Yang-Baxter solutions from graded Hopf algebras")
    sub = p.add_subparsers(dest="command", required=True)

    def common(sp, run, formats=("json", "latex", "text"), output=True):
        """--format offers only the formats the command writes, and --output
        exists only where a matrix or a result text can go to a file."""
        sp.set_defaults(run=run)
        sp.add_argument("--format", choices=formats, default="text", dest="fmt")
        if output:
            sp.add_argument("--output", default=None,
                            help=f"file path; relative paths resolve against "
                                 f"${OUTPUT_DIR_ENV} when it is set")

    sp = sub.add_parser("taft", help="Taft algebra checks and R-matrices")
    sp.add_argument("--N", type=int, required=True)
    sp.add_argument("--q", default=None,
                    help="primitive N-th root as a scalar string "
                         "(default: the canonical generator)")
    sp.add_argument("--rep", type=str, default=None, metavar="n,l",
                    help="irreducible module indices")
    sp.add_argument("--indecomposable", dest="alpha", default=None,
                    metavar="ALPHA", help="wrap parameter (scalar string)")
    sp.add_argument("--l", type=int, default=None)
    sp.add_argument("--parametric", action="store_true")
    sp.add_argument("--verify", action="store_true")
    common(sp, run_taft)

    sp = sub.add_parser("uqsl2", help="spin-1/2 and spin-1 R-matrices")
    sp.add_argument("--spin", required=True)
    sp.add_argument("--parametric", action="store_true")
    sp.add_argument("--verify", action="store_true")
    common(sp, run_uqsl2)

    sp = sub.add_parser("double", help="algebraic YBE checks in D(T_N)")
    sp.add_argument("--N", type=int, required=True)
    sp.add_argument("--q", default=None)
    sp.add_argument("--parametric", action="store_true",
                    help="also check the mu,nu identity")
    common(sp, run_double, ("json", "text"))

    sp = sub.add_parser("baxterize",
                        help="graded decomposition of the canonical element")
    sp.add_argument("--N", type=int, required=True)
    sp.add_argument("--q", default=None)
    sp.add_argument("--zn", action="store_true",
                    help="route through the Z^2 lift with coordinate-sum tau")
    common(sp, run_baxterize, ("json", "text"))

    sp = sub.add_parser("verify", help="re-check a serialized matrix")
    sp.add_argument("--input", required=True, dest="input_path")
    sp.add_argument("--kind", choices=("auto", "constant", "parametric",
                                       "braid"), default="auto")
    common(sp, run_verify, ("json", "text"), output=False)

    sp = sub.add_parser("all-regressions", help="run the acceptance ladder")
    common(sp, run_regressions, ("json", "text"))
    return p


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        return args.run(args)
    except SystemExit as exc:              # --help
        return int(exc.code or 0)
    except (ValueError, OSError) as exc:   # UsageError is a ValueError
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
