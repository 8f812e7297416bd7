"""Command-line front end.

Matrices travel as text files (see matio), results as JSON reports with a
stable schema.  Exit codes: 0 success, 1 precondition failure, 2 theorem
violation, 64 usage error.
"""

from __future__ import annotations

import argparse
import functools
import hashlib
import json
import sys
import time
from dataclasses import asdict

import numpy as np

from . import __version__
from .linalg import (
    DEFAULT_TOL,
    ConvergenceError,
    LinalgError,
    Tolerances,
    _JACOBI_TOL,
    _band,
    _ldexp,
    as_matrix,
    cartesian_parts,
    classify,
    fro,
    hermitian_eigvals,
    operator_norm,
)
from .matio import MatrixFormatError, parse_matrix, save_matrix
from .roots import _signdef_chain, nth_root, spectral_sqrt
from .theoremlab import (
    SylvesterProblem,
    _classify_own_square,
    _commutators,
    check_zero_square,
    classify_root_of_selfadjoint,
    exp_periodicity_residual,
    numerical_range_contains_zero,
    sample_nilpotent,
    sylvester_solve,
    volterra_matrix,
)

EXIT_OK = 0
EXIT_PRECONDITION = 1
EXIT_VIOLATION = 2
EXIT_USAGE = 64

SCHEMA_VERSION = 1


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")


def _json_default(value):
    """json.dump hook: complex as [re, im], arrays as nested lists, numpy
    scalars as Python ones."""
    if isinstance(value, complex):
        return [value.real, value.imag]
    if isinstance(value, np.ndarray):
        return value.tolist()
    if isinstance(value, np.generic):
        return value.item()
    raise TypeError(f"{type(value).__name__} is not JSON serializable")


def _load(path: str, inputs: dict) -> np.ndarray:
    """The matrix in the file at path, read once (a pipe such as /dev/stdin
    cannot be read twice); records the sha256 of the bytes parsed in inputs."""
    with open(path, "rb") as fh:
        data = fh.read()
    inputs[path] = hashlib.sha256(data).hexdigest()
    return parse_matrix(data, name=path)


def _certificate_dict(cert) -> dict:
    return {
        "order": cert.order,
        "branch": cert.branch,
        "power_residual": cert.power_residual,
        "normality_defect": cert.normality_defect,
    }


def _add_common(sub, tolerances=("structural",)):
    """--json, and a --tol-<name> flag for each tolerance the command reads;
    an unread one is not accepted and keeps its default in the report."""
    sub.add_argument("--json", metavar="PATH", help="write the JSON report here")
    sub.set_defaults(tol_structural=DEFAULT_TOL.structural, tol_residual=DEFAULT_TOL.residual)
    for name in tolerances:
        sub.add_argument(f"--tol-{name}", type=float)


@functools.cache
def build_parser() -> _Parser:
    """The command-line parser, built once per process: parsing leaves no
    state in it, and main would otherwise rebuild twelve subparsers a call."""
    parser = _Parser(prog="normalroots", description=__doc__)
    parser.add_argument("--version", action="version", version=__version__)
    subs = parser.add_subparsers(dest="command", required=True)

    p = subs.add_parser("decompose", help="Cartesian parts and structural flags")
    p.add_argument("matrix")
    p.add_argument("--out-re", metavar="PATH")
    p.add_argument("--out-im", metavar="PATH")
    _add_common(p)

    for name, text in (("sqrt", "normal square root (sign-definite imaginary part)"),
                       ("spectral-sqrt", "principal spectral square root")):
        p = subs.add_parser(name, help=text)
        p.add_argument("matrix")
        p.add_argument("--out", metavar="PATH")
        _add_common(p)

    p = subs.add_parser("root", help="nth root via the polar decomposition")
    p.add_argument("matrix")
    p.add_argument("--n", type=int, required=True)
    branch = p.add_mutually_exclusive_group()
    branch.add_argument("--k", type=int, help="branch integer (default 0)")
    branch.add_argument("--all-branches", action="store_true", help="enumerate k = 0..n-1")
    p.add_argument("--out", metavar="PATH", help="root matrix (branch k, or k=0 with --all-branches)")
    _add_common(p)

    p = subs.add_parser("sylvester", help="solve a X - X b = s")
    p.add_argument("--a", required=True)
    p.add_argument("--b", required=True)
    p.add_argument("--s", required=True)
    p.add_argument("--out", metavar="PATH")
    _add_common(p, ("structural", "residual"))

    p = subs.add_parser("classify", help="classify a square root of a Hermitian matrix")
    p.add_argument("matrix", help="the root T")
    p.add_argument("--target", help="the Hermitian C with T^2 = C (default: T^2)")
    _add_common(p, ("structural", "residual"))

    p = subs.add_parser("zero-square", help="nilpotent (T^2 = 0) sign checks")
    p.add_argument("matrix")
    _add_common(p, ("structural", "residual"))

    p = subs.add_parser("range", help="is 0 in the numerical range?")
    p.add_argument("matrix")
    _add_common(p)

    p = subs.add_parser("commutators", help="commutator identities for T and T^2")
    p.add_argument("matrix")
    _add_common(p, ())

    p = subs.add_parser("volterra", help="discretized Volterra operator facts")
    p.add_argument("--n", type=int, required=True)
    _add_common(p)

    p = subs.add_parser("nilpotent-search", help="randomized nilpotent falsification campaign")
    p.add_argument("--trials", type=int, default=1000)
    p.add_argument("--dim", type=int, default=4)
    p.add_argument("--seed", type=int, default=0)
    _add_common(p, ("structural", "residual"))

    p = subs.add_parser("exp-periodicity", help="residual of e^{i(A+2k pi I)} = e^{iA}")
    p.add_argument("matrix")
    p.add_argument("--k", type=int, required=True)
    _add_common(p)

    return parser


def _run_decompose(args, tol, inputs):
    M = _load(args.matrix, inputs)
    pair = cartesian_parts(M)
    if args.out_re:
        save_matrix(args.out_re, pair.re)
    if args.out_im:
        save_matrix(args.out_im, pair.im)
    flags = classify(M, tol)
    return EXIT_OK, {
        "dim": M.shape[0],
        "flags": asdict(flags),
        "re_norm": fro(pair.re),
        "im_norm": fro(pair.im),
    }


def _run_sqrt(args, tol, inputs, spectral: bool):
    N = _load(args.matrix, inputs)
    if spectral:
        cert = spectral_sqrt(N, tol)
        results = _certificate_dict(cert)
    else:
        case, cert = _signdef_chain(N, 1, tol)
        results = _certificate_dict(cert)
        results["sign_case"] = case
    if args.out:
        save_matrix(args.out, cert.root)
    return EXIT_OK, results


def _run_root(args, tol, inputs):
    N = _load(args.matrix, inputs)
    if args.n < 1:
        raise LinalgError("--n must be a positive integer")
    branches = range(args.n) if args.all_branches else [args.k or 0]
    certs = [nth_root(N, args.n, k, tol) for k in branches]
    if args.out:
        save_matrix(args.out, certs[0].root)
    return EXIT_OK, {"certificates": [_certificate_dict(c) for c in certs]}


def _run_sylvester(args, tol, inputs):
    a, b, s = (_load(path, inputs) for path in (args.a, args.b, args.s))
    X = sylvester_solve(SylvesterProblem(a=a, b=b, s=s), tol)
    if args.out:
        save_matrix(args.out, X)
    return EXIT_OK, {
        "residual": fro(a @ X - X @ b - s),
        "solution_norm": fro(X),
    }


def _run_classify(args, tol, inputs):
    T = as_matrix(_load(args.matrix, inputs), "T")
    if args.target:
        verdict = classify_root_of_selfadjoint(T, _load(args.target, inputs), tol)
    else:
        verdict = _classify_own_square(T, tol)
    return EXIT_VIOLATION if verdict.violation else EXIT_OK, asdict(verdict)


def _run_zero_square(args, tol, inputs):
    T = _load(args.matrix, inputs)
    report = check_zero_square(T, tol)
    return EXIT_VIOLATION if report.violation else EXIT_OK, asdict(report)


def _run_range(args, tol, inputs):
    M = _load(args.matrix, inputs)
    return EXIT_OK, asdict(numerical_range_contains_zero(M, tol))


def _run_commutators(args, tol, inputs):
    # Compared on T / 2^e, reported scaled back by 2^(3e).
    r1, r2, norm, e = _commutators(_load(args.matrix, inputs))
    bound = _band(norm, 1e-11, 3)
    return EXIT_OK, {
        "residual_bc_ad": _ldexp(r1, 3 * e),
        "residual_ac_bd": _ldexp(r2, 3 * e),
        "bound": _ldexp(bound, 3 * e),
        "within_bound": bool(max(r1, r2) <= bound),
    }


def _run_volterra(args, tol, inputs):
    if args.n < 1:
        raise LinalgError("--n must be a positive integer")
    V = volterra_matrix(args.n)
    re_part = cartesian_parts(V).re
    lam_min = float(hermitian_eigvals(re_part, tol)[0])
    return EXIT_OK, {
        "n": args.n,
        "norm": operator_norm(V, tol),
        "spectral_radius": 1.0 / (2.0 * args.n),
        "re_lambda_min": lam_min,
        "two_over_pi": 2.0 / np.pi,
    }


def _run_nilpotent_search(args, tol, inputs):
    if args.trials < 1 or args.dim < 1:
        raise LinalgError("--trials and --dim must be positive")
    if args.seed < 0:
        raise LinalgError("--seed must be non-negative")
    violations = []
    nonzero = 0
    # Worst case over the campaign: how close any nonzero sample came to
    # having a sign-definite Cartesian part.
    re_lo = im_lo = -np.inf
    re_hi = im_hi = np.inf
    for trial in range(args.trials):
        T = sample_nilpotent(args.dim, seed=args.seed + trial)
        report = check_zero_square(T, tol)
        if report.violation:
            violations.append({"trial": trial, "message": report.violation})
        if report.norm_t > 0.0:
            nonzero += 1
            re_lo, re_hi = max(re_lo, report.re_margins[0]), min(re_hi, report.re_margins[1])
            im_lo, im_hi = max(im_lo, report.im_margins[0]), min(im_hi, report.im_margins[1])
    return EXIT_VIOLATION if violations else EXIT_OK, {
        "trials": args.trials,
        "dim": args.dim,
        "seed": args.seed,
        "nonzero_samples": nonzero,
        "violations": violations,
        "least_positive_re_margin": re_hi if nonzero else None,
        "least_negative_re_margin": re_lo if nonzero else None,
        "least_positive_im_margin": im_hi if nonzero else None,
        "least_negative_im_margin": im_lo if nonzero else None,
    }


def _run_exp_periodicity(args, tol, inputs):
    A = _load(args.matrix, inputs)
    residual = exp_periodicity_residual(A, args.k, tol)
    bound = 1e-11 * A.shape[0]
    return EXIT_OK, {
        "k": args.k,
        "residual": residual,
        "bound": bound,
        "within_bound": bool(residual <= bound),
    }


_HANDLERS = {
    "decompose": _run_decompose,
    "sqrt": lambda a, t, i: _run_sqrt(a, t, i, spectral=False),
    "spectral-sqrt": lambda a, t, i: _run_sqrt(a, t, i, spectral=True),
    "root": _run_root,
    "sylvester": _run_sylvester,
    "classify": _run_classify,
    "zero-square": _run_zero_square,
    "range": _run_range,
    "commutators": _run_commutators,
    "volterra": _run_volterra,
    "nilpotent-search": _run_nilpotent_search,
    "exp-periodicity": _run_exp_periodicity,
}


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        tol = Tolerances(structural=args.tol_structural, residual=args.tol_residual)
    except ValueError as exc:
        print(f"normalroots: error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    inputs: dict = {}
    start = time.perf_counter()
    try:
        code, results = _HANDLERS[args.command](args, tol, inputs)
        elapsed = time.perf_counter() - start
        report = {
            "schema": SCHEMA_VERSION,
            "command": args.command,
            "argv": argv,
            "inputs": inputs,
            "tolerances": {
                "structural": tol.structural,
                "residual": tol.residual,
                "sweep": _JACOBI_TOL,
            },
            "results": results,
            "exit_code": code,
            "wall_time_s": elapsed,
        }
        text = json.dumps(report, indent=2, sort_keys=True, default=_json_default) + "\n"
        if args.json:
            with open(args.json, "w", encoding="ascii") as fh:
                fh.write(text)
        else:
            sys.stdout.write(text)
    except (LinalgError, ConvergenceError, MatrixFormatError, OSError, MemoryError) as exc:
        # numpy's MemoryError names the array it failed to allocate; a bare one is empty.
        print(f"normalroots: {str(exc) or type(exc).__name__}", file=sys.stderr)
        return EXIT_PRECONDITION
    if code == EXIT_VIOLATION:
        print("normalroots: THEOREM VIOLATION reported", file=sys.stderr)
    return code


if __name__ == "__main__":
    sys.exit(main())
