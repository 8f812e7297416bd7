"""Command-line front end.

Matrices travel as text files (see matio), results as JSON reports with a
stable schema.  Exit codes: 0 success, 1 precondition failure, 2 theorem
violation, 64 usage error.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
import time

import numpy as np

from . import __version__
from .linalg import (
    DEFAULT_TOL,
    ConvergenceError,
    LinalgError,
    Tolerances,
    cartesian_parts,
    classify,
    fro,
    operator_norm,
)
from .matio import MatrixFormatError, load_matrix, save_matrix
from .roots import nth_root, spectral_sqrt, sqrt_signdef, sign_case
from .theoremlab import (
    SylvesterProblem,
    check_zero_square,
    classify_root_of_selfadjoint,
    commutator_identities,
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


def _jsonable(value):
    if isinstance(value, dict):
        return {k: _jsonable(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_jsonable(v) for v in value]
    if isinstance(value, complex):
        return [value.real, value.imag]
    if isinstance(value, np.ndarray):
        return _jsonable(value.tolist())
    if isinstance(value, (np.floating, np.integer, np.bool_)):
        return value.item()
    return value


def _digest(path: str) -> str:
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def _certificate_dict(cert) -> dict:
    return {
        "order": cert.order,
        "branch": cert.branch,
        "power_residual": cert.power_residual,
        "normality_defect": cert.normality_defect,
    }


def _add_common(sub):
    sub.add_argument("--json", metavar="PATH", help="write the JSON report here")
    sub.add_argument("--tol-structural", type=float, default=None)
    sub.add_argument("--tol-residual", type=float, default=None)


def _tolerances(args) -> Tolerances:
    """Tolerances from the flags; ValueError unless each is strictly positive."""
    structural, residual = args.tol_structural, args.tol_residual
    return Tolerances(
        structural=DEFAULT_TOL.structural if structural is None else structural,
        residual=DEFAULT_TOL.residual if residual is None else residual,
        sweep=DEFAULT_TOL.sweep,
    )


def build_parser() -> _Parser:
    parser = _Parser(prog="normalroots", description=__doc__)
    parser.add_argument("--version", action="version", version=__version__)
    subs = parser.add_subparsers(dest="command", required=True)

    p = subs.add_parser("decompose", help="Cartesian parts and structural flags")
    p.add_argument("matrix")
    p.add_argument("--out-re", metavar="PATH")
    p.add_argument("--out-im", metavar="PATH")
    _add_common(p)

    p = subs.add_parser("sqrt", help="normal square root (sign-definite imaginary part)")
    p.add_argument("matrix")
    p.add_argument("--out", metavar="PATH")
    _add_common(p)

    p = subs.add_parser("spectral-sqrt", help="principal spectral square root")
    p.add_argument("matrix")
    p.add_argument("--out", metavar="PATH")
    _add_common(p)

    p = subs.add_parser("root", help="nth root via the polar decomposition")
    p.add_argument("matrix")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--k", type=int, default=0, help="branch integer (default 0)")
    p.add_argument("--all-branches", action="store_true", help="enumerate k = 0..n-1")
    p.add_argument("--out", metavar="PATH", help="root matrix (branch k, or k=0 with --all-branches)")
    _add_common(p)

    p = subs.add_parser("sylvester", help="solve a X - X b = s")
    p.add_argument("--a", required=True)
    p.add_argument("--b", required=True)
    p.add_argument("--s", required=True)
    p.add_argument("--out", metavar="PATH")
    _add_common(p)

    p = subs.add_parser("classify", help="classify a square root of a Hermitian matrix")
    p.add_argument("matrix", help="the root T")
    p.add_argument("--target", help="the Hermitian C with T^2 = C (default: T^2)")
    _add_common(p)

    p = subs.add_parser("zero-square", help="nilpotent (T^2 = 0) sign checks")
    p.add_argument("matrix")
    _add_common(p)

    p = subs.add_parser("range", help="is 0 in the numerical range?")
    p.add_argument("matrix")
    _add_common(p)

    p = subs.add_parser("commutators", help="commutator identities for T and T^2")
    p.add_argument("matrix")
    _add_common(p)

    p = subs.add_parser("volterra", help="discretized Volterra operator facts")
    p.add_argument("--n", type=int, required=True)
    _add_common(p)

    p = subs.add_parser("nilpotent-search", help="randomized nilpotent falsification campaign")
    p.add_argument("--trials", type=int, default=1000)
    p.add_argument("--dim", type=int, default=4)
    p.add_argument("--seed", type=int, default=0)
    _add_common(p)

    p = subs.add_parser("exp-periodicity", help="residual of e^{i(A+2k pi I)} = e^{iA}")
    p.add_argument("matrix")
    p.add_argument("--k", type=int, required=True)
    _add_common(p)

    return parser


def _run_decompose(args, tol, inputs):
    M = load_matrix(args.matrix)
    inputs[args.matrix] = _digest(args.matrix)
    pair = cartesian_parts(M, tol)
    if args.out_re:
        save_matrix(args.out_re, pair.re)
    if args.out_im:
        save_matrix(args.out_im, pair.im)
    flags = classify(M, tol)
    return EXIT_OK, {
        "dim": M.shape[0],
        "flags": flags.to_dict(),
        "re_norm": fro(pair.re),
        "im_norm": fro(pair.im),
    }


def _run_sqrt(args, tol, inputs, spectral: bool):
    N = load_matrix(args.matrix)
    inputs[args.matrix] = _digest(args.matrix)
    if spectral:
        cert = spectral_sqrt(N, tol)
        results = _certificate_dict(cert)
    else:
        case = sign_case(cartesian_parts(N, tol).im, tol)
        cert = sqrt_signdef(N, tol)
        results = _certificate_dict(cert)
        results["sign_case"] = case
    if args.out:
        save_matrix(args.out, cert.root)
    return EXIT_OK, results


def _run_root(args, tol, inputs):
    N = load_matrix(args.matrix)
    inputs[args.matrix] = _digest(args.matrix)
    if args.n < 1:
        raise LinalgError("--n must be a positive integer")
    branches = list(range(args.n)) if args.all_branches else [args.k]
    certs = [nth_root(N, args.n, k, tol) for k in branches]
    if args.out:
        save_matrix(args.out, certs[0].root)
    return EXIT_OK, {"certificates": [_certificate_dict(c) for c in certs]}


def _run_sylvester(args, tol, inputs):
    a = load_matrix(args.a)
    b = load_matrix(args.b)
    s = load_matrix(args.s)
    for path in (args.a, args.b, args.s):
        inputs[path] = _digest(path)
    X = sylvester_solve(SylvesterProblem(a=a, b=b, s=s), tol)
    if args.out:
        save_matrix(args.out, X)
    return EXIT_OK, {
        "residual": fro(a @ X - X @ b - s),
        "solution_norm": fro(X),
    }


def _run_classify(args, tol, inputs):
    T = load_matrix(args.matrix)
    inputs[args.matrix] = _digest(args.matrix)
    if args.target:
        C = load_matrix(args.target)
        inputs[args.target] = _digest(args.target)
    else:
        C = T @ T
    verdict = classify_root_of_selfadjoint(T, C, tol)
    results = {
        "case": verdict.case,
        "evidence": verdict.evidence,
        "residual": verdict.residual,
        "system_residuals": list(verdict.system_residuals),
        "violation": verdict.violation,
    }
    code = EXIT_VIOLATION if verdict.violation else EXIT_OK
    return code, results


def _run_zero_square(args, tol, inputs):
    T = load_matrix(args.matrix)
    inputs[args.matrix] = _digest(args.matrix)
    report = check_zero_square(T, tol)
    results = {
        "norm_t": report.norm_t,
        "square_norm": report.square_norm,
        "hypotheses": report.hypotheses,
        "conclusion_zero": report.conclusion_zero,
        "re_margins": list(report.re_margins),
        "im_margins": list(report.im_margins),
        "re_indefinite": report.re_indefinite,
        "im_indefinite": report.im_indefinite,
        "violation": report.violation,
    }
    code = EXIT_VIOLATION if report.violation else EXIT_OK
    return code, results


def _run_range(args, tol, inputs):
    M = load_matrix(args.matrix)
    inputs[args.matrix] = _digest(args.matrix)
    rc = numerical_range_contains_zero(M, tol)
    return EXIT_OK, {
        "contains_zero": rc.contains_zero,
        "margin": rc.margin,
        "witness_angle": rc.witness_angle,
        "witness_vector": rc.witness_vector,
        "witness_value": rc.witness_value,
        "indeterminate": rc.indeterminate,
    }


def _run_commutators(args, tol, inputs):
    T = load_matrix(args.matrix)
    inputs[args.matrix] = _digest(args.matrix)
    r1, r2 = commutator_identities(T, tol)
    bound = 1e-11 * (1.0 + fro(T) ** 3)
    return EXIT_OK, {
        "residual_bc_ad": r1,
        "residual_ac_bd": r2,
        "bound": bound,
        "within_bound": bool(max(r1, r2) <= bound),
    }


def _run_volterra(args, tol, inputs):
    if args.n < 1:
        raise LinalgError("--n must be a positive integer")
    V = volterra_matrix(args.n)
    from .linalg import hermitian_eigen

    re_part = cartesian_parts(V, tol).re
    lam_min = float(hermitian_eigen(re_part, tol).eigenvalues[0])
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
    violations = []
    margins = {"re_min": [], "re_max": [], "im_min": [], "im_max": []}
    nonzero = 0
    for trial in range(args.trials):
        T = sample_nilpotent(args.dim, seed=args.seed + trial)
        report = check_zero_square(T, tol)
        if report.violation:
            violations.append({"trial": trial, "message": report.violation})
        if report.norm_t > tol.structural:
            nonzero += 1
            margins["re_min"].append(report.re_margins[0])
            margins["re_max"].append(report.re_margins[1])
            margins["im_min"].append(report.im_margins[0])
            margins["im_max"].append(report.im_margins[1])
    summary = {
        "trials": args.trials,
        "dim": args.dim,
        "seed": args.seed,
        "nonzero_samples": nonzero,
        "violations": violations,
        # Worst case over the campaign: how close any nonzero sample came to
        # having a sign-definite Cartesian part.
        "least_positive_re_margin": min(margins["re_max"]) if margins["re_max"] else None,
        "least_negative_re_margin": max(margins["re_min"]) if margins["re_min"] else None,
        "least_positive_im_margin": min(margins["im_max"]) if margins["im_max"] else None,
        "least_negative_im_margin": max(margins["im_min"]) if margins["im_min"] else None,
    }
    code = EXIT_VIOLATION if violations else EXIT_OK
    return code, summary


def _run_exp_periodicity(args, tol, inputs):
    A = load_matrix(args.matrix)
    inputs[args.matrix] = _digest(args.matrix)
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
        tol = _tolerances(args)
    except ValueError as exc:
        print(f"normalroots: error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    inputs: dict = {}
    start = time.perf_counter()
    try:
        code, results = _HANDLERS[args.command](args, tol, inputs)
    except (LinalgError, ConvergenceError, MatrixFormatError, FileNotFoundError) as exc:
        print(f"normalroots: {exc}", file=sys.stderr)
        return EXIT_PRECONDITION
    elapsed = time.perf_counter() - start
    report = {
        "schema": SCHEMA_VERSION,
        "command": args.command,
        "argv": argv,
        "inputs": inputs,
        "tolerances": {
            "structural": tol.structural,
            "residual": tol.residual,
            "sweep": tol.sweep,
        },
        "results": _jsonable(results),
        "exit_code": code,
        "wall_time_s": elapsed,
    }
    if args.json:
        with open(args.json, "w", encoding="ascii") as fh:
            json.dump(report, fh, indent=2, sort_keys=True)
            fh.write("\n")
    else:
        json.dump(report, sys.stdout, indent=2, sort_keys=True)
        print()
    if code == EXIT_VIOLATION:
        print("normalroots: THEOREM VIOLATION reported", file=sys.stderr)
    return code


if __name__ == "__main__":
    sys.exit(main())
