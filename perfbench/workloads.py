"""The benchmark's workloads: seeded inputs, op cycles and independent oracles.

A workload is a cycle of op slots.  Each slot fixes an op kind and a matrix
dimension, so every cycle runs the same op mix; the matrix entries differ
between the cycles of a pool, and the pool repeats when a run outlasts it.
All inputs are generated and written before the timed phase.  The library
sees only arrays and matrix files.

Oracles never use the library's own certificates.  They compare against the
spectrum the benchmark built the input from, LAPACK (numpy.linalg), a
closed-form limit, or a verdict known by construction.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
from dataclasses import dataclass
from typing import Callable

import numpy as np

from normalroots import cli, linalg, roots, sampling, theoremlab

# An op's check returns (passed, relative error or None, reason).
Outcome = tuple[bool, "float | None", str]


@dataclass
class Op:
    kind: str
    run: Callable[[], object]
    check: Callable[[object], Outcome]
    # Exponent e of the 2^e factor for ops of the roots-small scale slice.
    scale_exp: int | None = None


@dataclass
class Workload:
    cycles: list  # pool of cycles; each a list of Op with the same kinds
    warmup: list  # one small op per kind, run during set-up
    cal_dim: int  # dimension of the timing calibration kernel (see run.py)
    cal_ref_s: float  # kernel time that defines a scaled second (see run.py)


# --------------------------------------------------------------------------
# Matrix files, written and read by the benchmark's own code, so that the
# library's reader and writer are measured only where the CLI uses them.
# --------------------------------------------------------------------------


def write_matrix(path: str, M: np.ndarray) -> None:
    rows = [str(M.shape[0])]
    rows += ["  ".join(f"{z.real:.17g} {z.imag:.17g}" for z in row) for row in M]
    with open(path, "w", encoding="ascii") as fh:
        fh.write("\n".join(rows) + "\n")


def parse_matrix(text: bytes) -> np.ndarray:
    lines = text.decode("ascii").split("\n")
    n = int(lines[0])
    vals = np.array(" ".join(lines[1:n + 1]).split(), dtype=float).reshape(n, n, 2)
    return vals[..., 0] + 1j * vals[..., 1]


def _read(path: str) -> bytes | None:
    try:
        with open(path, "rb") as fh:
            return fh.read()
    except FileNotFoundError:
        return None


@dataclass
class CliOutput:
    """What an in-process CLI run leaves: exit code, --json report, the
    files it was asked to write, and its stderr."""

    code: int
    report: bytes | None
    files: list
    stderr: str

    def canonical(self):
        """The output without the report's wall-clock field."""
        report = None
        if self.report is not None:
            data = json.loads(self.report)
            data.pop("wall_time_s", None)
            report = json.dumps(data, sort_keys=True)
        return self.code, report, self.files, self.stderr


def cli_op(kind: str, argv: list, report: str, outs: tuple, check, scale_exp=None) -> Op:
    """An in-process `normalroots` invocation whose output files are read
    back as soon as it returns."""

    def run():
        err = io.StringIO()
        with contextlib.redirect_stderr(err):
            code = cli.main(argv)
        return CliOutput(code, _read(report), [_read(p) for p in outs], err.getvalue())

    return Op(kind, run, check, scale_exp)


def _cli_results(out: CliOutput):
    """Results and output files of a CLI op that exited 0, or a failure Outcome."""
    if out.code != 0:
        return None, None, (False, None, f"exit {out.code}: {out.stderr.strip()[:120]}")
    if out.report is None:
        return None, None, (False, None, "no --json report written")
    return json.loads(out.report)["results"], out.files, None


# --------------------------------------------------------------------------
# Reference errors
# --------------------------------------------------------------------------


def spectrum_error(T: np.ndarray, expected: np.ndarray) -> float:
    """Hausdorff distance between eig(T) and the expected spectrum, relative
    to the expected spectral radius."""
    got = np.linalg.eigvals(T)
    d = np.abs(got[:, None] - expected[None, :])
    return float(max(d.min(0).max(), d.min(1).max()) / np.abs(expected).max())


def power_error(T: np.ndarray, N: np.ndarray, order: int) -> float:
    """||T^order - N|| / ||N||, evaluated on copies scaled to unit size."""
    s = np.abs(N).max()
    t = np.abs(s) ** (1.0 / order)
    return float(np.linalg.norm(np.linalg.matrix_power(T / t, order) - N / s)
                 / np.linalg.norm(N / s))


def branch_root(mu: np.ndarray, order: int, k: int = 0) -> np.ndarray:
    """Eigenvalues of the branch-k root: |mu|^(1/n) e^{i(arg mu + 2 k pi)/n}."""
    return np.abs(mu) ** (1.0 / order) * np.exp(1j * (np.angle(mu) + 2 * np.pi * k) / order)


ROOT_TOL = 1e-6  # relative; the Cartesian formula loses ~sqrt(eps) near the real axis


def root_outcome(T, N, mu, order, k=0) -> Outcome:
    if T is None:
        return False, None, "no root"
    err = max(spectrum_error(T, branch_root(mu, order, k)), power_error(T, N, order))
    return err <= ROOT_TOL, err, f"root error {err:.2e}"


def _gauss(rng, d: int) -> np.ndarray:
    return rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))


def _with_spectrum(rng, values: np.ndarray) -> np.ndarray:
    U = sampling.random_unitary(rng, len(values))
    return (U * values) @ U.conj().T


def _cycle_order(slots: list) -> list:
    """Interleave (kind, dim) slots of different kinds round-robin, in the
    order kinds first appear; each becomes (kind, dim, index within kind)."""
    by_kind: dict = {}
    for kind, d in slots:
        queue = by_kind.setdefault(kind, [])
        queue.append((kind, d, len(queue)))
    out = []
    while any(by_kind.values()):
        for queue in by_kind.values():
            if queue:
                out.append(queue.pop(0))
    return out


# --------------------------------------------------------------------------
# roots-small
# --------------------------------------------------------------------------
# Why: many small normal inputs through the CLI and the 2^n-root API.  Each
# op makes 1-25 small eigensolves, so per-call overhead, the number of
# factorizations, and matrix-file reads and writes dominate.  A tenth of the
# ops form the scale slice: inputs multiplied by exact powers of two from
# 1e-150 to 1e150.  At the seed commit most of those give wrong roots or are
# rejected; they are run and checked like every other op.

# The root ops, the costliest (25 eigensolves each), share one dimension and
# are a sixth of the ops, so op_p90_s falls inside that one class.
ROOTS_SLOTS = (
    [("sqrt", d) for d in (3, 4, 5, 6, 7, 8, 5)]
    + [("spectral-sqrt", d) for d in (3, 4, 5, 6, 7, 8)]
    + [("root", 6)] * 6
    + [("decompose", d) for d in (3, 4, 5, 6, 8)]
    + [("commutators", d) for d in (3, 5, 6, 8)]
    + [("exp-periodicity", d) for d in (3, 4, 6, 8)]
    + [("pow2n", d) for d in (3, 4, 5, 6, 7)]
)
# One scaled op per root kind in each cycle.
ROOTS_SCALED = (("sqrt", 4), ("spectral-sqrt", 5), ("root", 6), ("pow2n", 4))
# Exponents of two: 2^-498 ~ 1e-150 ... 2^498 ~ 1e150.  Cycle c scales the
# j-th scaled slot by SCALE_EXPONENTS[(c + 2j) % 8]: each cycle takes every
# other exponent, and each kind meets all eight over eight cycles.
SCALE_EXPONENTS = (-498, -332, -166, -40, 40, 166, 332, 498)
EXP_K = (-11, -3, 2, 7)
NO_CUT = (-np.pi + 0.1, np.pi - 0.1)  # keep eigenvalues off the branch cut


def _roots_op(rng, work: str, tag: str, kind: str, d: int, j: int, exponent=None) -> Op:
    path = os.path.join(work, f"{tag}.mat")
    report = os.path.join(work, f"{tag}.json")
    out = os.path.join(work, f"{tag}.out.mat")
    scale = 1.0 if exponent is None else 2.0 ** exponent

    if kind in ("sqrt", "pow2n"):
        sign = ("nonneg", "nonpos")[j % 2]
        N, mu = sampling.random_normal_signdef(rng, d, sign)
        N, mu = N * scale, mu * scale
    elif kind in ("spectral-sqrt", "root"):
        N, mu = sampling.random_normal(rng, d, arg_range=NO_CUT)
        N, mu = N * scale, mu * scale

    if kind == "pow2n":
        def run():
            return roots.root_pow2n(N, 3).root

        return Op(kind, run, lambda T: root_outcome(T, N, mu, 8), exponent)

    if kind in ("sqrt", "spectral-sqrt"):
        write_matrix(path, N)

        def check(o):
            res, files, fail = _cli_results(o)
            if fail:
                return fail
            if kind == "sqrt" and res["sign_case"] != sign:
                return False, None, f"sign_case {res['sign_case']} != {sign}"
            T = None if files[0] is None else parse_matrix(files[0])
            return root_outcome(T, N, mu, 2)

        argv = [kind, path, "--out", out, "--json", report]
        return cli_op(kind, argv, report, (out,), check, exponent)

    if kind == "root":
        write_matrix(path, N)

        def check(o):
            res, files, fail = _cli_results(o)
            if fail:
                return fail
            certs = res["certificates"]
            if [(c["order"], c["branch"]) for c in certs] != [(5, k) for k in range(5)]:
                return False, None, "wrong branch list"
            T = None if files[0] is None else parse_matrix(files[0])
            return root_outcome(T, N, mu, 5, 0)

        argv = ["root", path, "--n", "5", "--all-branches", "--out", out, "--json", report]
        return cli_op(kind, argv, report, (out,), check, exponent)

    if kind == "decompose":
        N, _ = sampling.random_normal(rng, d)
        write_matrix(path, N)
        out_im = os.path.join(work, f"{tag}.im.mat")
        re_ref = 0.5 * (N + N.conj().T)
        im_ref = (N - N.conj().T) / 2j
        flags = {"hermitian": False, "normal": True, "psd": False, "nsd": False,
                 "unitary": False, "zero": False}

        def check(o):
            res, files, fail = _cli_results(o)
            if fail:
                return fail
            if res["flags"] != flags:
                return False, None, f"flags {res['flags']}"
            if None in files:
                return False, None, "missing --out-re/--out-im"
            err = max(np.abs(parse_matrix(files[0]) - re_ref).max(),
                      np.abs(parse_matrix(files[1]) - im_ref).max()) / np.abs(N).max()
            return err <= 1e-15, None, f"parts error {err:.2e}"

        argv = ["decompose", path, "--out-re", out, "--out-im", out_im, "--json", report]
        return cli_op(kind, argv, report, (out, out_im), check)

    if kind == "commutators":
        T = _gauss(rng, d)
        write_matrix(path, T)
        bound = 1e-12 * (1.0 + np.linalg.norm(T) ** 3)

        def check(o):
            res, _, fail = _cli_results(o)
            if fail:
                return fail
            worst = max(res["residual_bc_ad"], res["residual_ac_bd"])
            return worst <= bound and res["within_bound"], None, f"residual {worst:.2e}"

        return cli_op(kind, ["commutators", path, "--json", report], report, (), check)

    if kind == "exp-periodicity":
        A = sampling.random_hermitian(rng, d)
        write_matrix(path, A)
        k = EXP_K[j % len(EXP_K)]
        bound = 1e-10 * d

        def check(o):
            res, _, fail = _cli_results(o)
            if fail:
                return fail
            ok = res["k"] == k and res["residual"] <= bound
            return ok, None, f"residual {res['residual']:.2e}"

        argv = ["exp-periodicity", path, "--k", str(k), "--json", report]
        return cli_op(kind, argv, report, (), check)

    raise ValueError(kind)


def roots_small(rng, work: str, pool: int = 12) -> Workload:
    slots = [slot + (None,) for slot in _cycle_order(ROOTS_SLOTS)]
    # Spread the scaled slots evenly through the cycle.
    step = len(slots) // len(ROOTS_SCALED)
    for s, (kind, d) in enumerate(ROOTS_SCALED):
        slots.insert(s * (step + 1) + step // 2, (kind, d, 0, s))
    cycles = []
    for c in range(pool):
        ops = []
        for i, (kind, d, j, s) in enumerate(slots):
            exponent = None
            if s is not None:
                exponent = SCALE_EXPONENTS[(c + 2 * s) % len(SCALE_EXPONENTS)]
            ops.append(_roots_op(rng, work, f"r{c}_{i}", kind, d, j, exponent))
        cycles.append(ops)
    kinds = list(dict.fromkeys(k for k, _ in ROOTS_SLOTS))
    warm = [_roots_op(rng, work, f"rw{i}", k, 3, 0) for i, k in enumerate(kinds)]
    return Workload(cycles, warm, cal_dim=6, cal_ref_s=0.0033)


# --------------------------------------------------------------------------
# lab-campaign
# --------------------------------------------------------------------------
# Why: the theorem lab on small matrices.  Most ops are cheap checks with
# verdicts known by construction; six in 35 are numerical-range tests on
# non-Hermitian d3-6 inputs, each making 780 eigensolves, so they are a
# sixth of the ops but most of the time and they set op_p90_s.  Three of
# the six are d4, so that the 90th percentile falls inside the d4 class.
# The d32 Kronecker Sylvester solve (a 1024 x 1024 system) sets peak memory.

LAB_SLOTS = (
    [("range", d) for d in (3, 4, 4, 5, 6, 4)]
    + [("zero-square", d) for d in (2, 3, 4, 5, 6, 4)]
    + [("commutator", d) for d in (3, 4, 5, 6, 5)]
    + [("normality", d) for d in (3, 4, 5, 6, 3, 4)]
    + [("classify", d) for d in (3, 4, 5, 6, 3, 4)]
    + [("sylvester", d) for d in (8, 16, 24, 32, 8, 16)]
)


def _lab_op(rng, kind: str, d: int, j: int) -> Op:
    if kind == "range":
        G = _gauss(rng, d)
        if j % 2 == 0:
            # Trace zero: 0 = tr(M)/d lies in W(M).
            M = G - np.trace(G) / d * np.eye(d)

            def check(rc):
                x = rc.witness_vector
                if not rc.contains_zero or rc.indeterminate or x is None:
                    return False, None, f"verdict {rc.contains_zero}/{rc.indeterminate}"
                val = abs(x.conj() @ M @ x) / np.linalg.norm(M, 2)
                ok = val <= 1e-9 and abs(np.linalg.norm(x) - 1.0) <= 1e-12
                return ok, None, f"witness value {val:.2e}"
        else:
            # Shifted past ||G||_2: W(M) lies in a disc that excludes 0.
            phi = rng.uniform(-np.pi, np.pi)
            M = G + 1.5 * np.linalg.norm(G, 2) * np.exp(1j * phi) * np.eye(d)

            def check(rc):
                th = rc.witness_angle
                if rc.contains_zero or rc.indeterminate or th is None:
                    return False, None, f"verdict {rc.contains_zero}/{rc.indeterminate}"
                R = np.exp(1j * th) * M
                ref = np.linalg.eigvalsh(0.5 * (R + R.conj().T))[0]
                err = abs(rc.margin - ref) / np.linalg.norm(M, 2)
                return ref > 0 and err <= 1e-9, err, f"margin {rc.margin} vs {ref}"

        return Op(kind, lambda: theoremlab.numerical_range_contains_zero(M), check)

    if kind == "zero-square":
        T = theoremlab.sample_nilpotent(d, seed=int(rng.integers(2**31)))
        nt = np.linalg.norm(T, 2)
        la = np.linalg.eigvalsh(0.5 * (T + T.conj().T))
        lb = np.linalg.eigvalsh((T - T.conj().T) / 2j)

        def check(rep):
            if rep.violation or rep.conclusion_zero:
                return False, None, "verdict"
            if not (rep.re_indefinite and rep.im_indefinite):
                return False, None, "a Cartesian part reported definite"
            if set(rep.hypotheses.values()) != {"fails"}:
                return False, None, f"hypotheses {rep.hypotheses}"
            got = np.array(rep.re_margins + rep.im_margins)
            err = np.abs(got - [la[0], la[-1], lb[0], lb[-1]]).max() / nt
            return err <= 1e-9, err, f"margin error {err:.2e}"

        return Op(kind, lambda: theoremlab.check_zero_square(T), check)

    if kind == "commutator":
        T = _gauss(rng, d)
        bound = 1e-12 * (1.0 + np.linalg.norm(T) ** 3)

        def check(r):
            return max(r) <= bound, None, f"residuals {r}"

        return Op(kind, lambda: theoremlab.commutator_identities(T), check)

    if kind == "normality":
        if j % 2 == 0:
            # Normal with positive-definite real part.
            T, _ = sampling.random_normal(rng, d, arg_range=(-1.4, 1.4))
            want = (True, True)
        else:
            # P + iK with P positive definite and K Hermitian not commuting
            # with it: not normal, and P does not commute with Im T^2.
            T = sampling.random_psd(rng, d) + np.eye(d) + 1j * sampling.random_hermitian(rng, d)
            want = (False, False)

        def check(rep):
            got = (rep.normal, rep.commutes)
            ok = (rep.applicable == "re" and got == want and rep.agree is True
                  and rep.violation is None)
            return ok, None, f"report {rep.applicable} {got} {rep.agree}"

        return Op(kind, lambda: theoremlab.normality_equivalence(T), check)

    if kind == "classify":
        lam = rng.uniform(0.5, 2.0, d) * rng.choice([-1.0, 1.0])
        H = _with_spectrum(rng, lam)
        # A sign-definite Hermitian root is self-adjoint; i times it is skew.
        T, case = (H, "selfadjoint_invertible") if j % 2 == 0 else (1j * H, "skew_invertible")
        C = T @ T

        def check(v):
            ok = v.case == case and v.violation is None
            return ok, None, f"case {v.case} violation {v.violation}"

        return Op(kind, lambda: theoremlab.classify_root_of_selfadjoint(T, C), check)

    if kind == "sylvester":
        # Spectra in [1, 2] and [-2, -1]: a certified gap of at least 2.
        a = _with_spectrum(rng, rng.uniform(1.0, 2.0, d))
        b = _with_spectrum(rng, rng.uniform(-2.0, -1.0, d))
        X0 = _gauss(rng, d)
        problem = theoremlab.SylvesterProblem(a=a, b=b, s=a @ X0 - X0 @ b)

        def check(X):
            err = np.linalg.norm(X - X0) / np.linalg.norm(X0)
            return err <= 1e-9, err, f"solution error {err:.2e}"

        return Op(kind, lambda: theoremlab.sylvester_solve(problem), check)

    raise ValueError(kind)


def lab_campaign(rng, work: str, pool: int = 8) -> Workload:
    slots = _cycle_order(LAB_SLOTS)
    cycles = [[_lab_op(rng, k, d, j) for k, d, j in slots] for _ in range(pool)]
    kinds = list(dict.fromkeys(k for k, _ in LAB_SLOTS))
    warm = [_lab_op(rng, k, 4 if k == "sylvester" else 3, 0) for k in kinds]
    return Workload(cycles, warm, cal_dim=5, cal_ref_s=0.0033)


# --------------------------------------------------------------------------
# eigen-large
# --------------------------------------------------------------------------
# Why: a few large single problems, one eigensolve each with O(n^2)
# rotations per sweep, so per-call overhead does not matter.  An engine that
# batches small problems must not slow this workload; a values-only engine
# should show its gain here.

EIGEN_SLOTS = (("herm", 128), ("volterra", 48), ("spectral_sqrt", 96),
               ("herm", 64), ("volterra", 80))


def volterra_reference(n: int) -> tuple[float, float]:
    """||V_n||_2 and lambda_min(Re V_n) from LAPACK, V_n built here."""
    V = np.tril(np.full((n, n), 1.0 / n), -1)
    np.fill_diagonal(V, 0.5 / n)
    return (float(np.sqrt(np.linalg.eigvalsh(V.T @ V)[-1])),
            float(np.linalg.eigvalsh(0.5 * (V + V.T))[0]))


def _eigen_op(rng, work: str, tag: str, kind: str, n: int) -> Op:
    if kind == "herm":
        H = sampling.random_hermitian(rng, n)

        def check(eig):
            ref = np.linalg.eigvalsh(H)
            V = eig.vectors
            err = max(np.abs(eig.eigenvalues - ref).max() / np.abs(ref).max(),
                      np.linalg.norm(H @ V - V * eig.eigenvalues) / np.linalg.norm(H),
                      np.linalg.norm(V.conj().T @ V - np.eye(n)) / np.sqrt(n))
            return err <= 1e-9, err, f"eigen error {err:.2e}"

        return Op(kind, lambda: linalg.hermitian_eigen(H), check)

    if kind == "spectral_sqrt":
        N, mu = sampling.random_normal(rng, n, arg_range=NO_CUT)
        return Op(kind, lambda: roots.spectral_sqrt(N).root,
                  lambda T: root_outcome(T, N, mu, 2))

    if kind == "volterra":
        report = os.path.join(work, f"{tag}.json")

        def check(o):
            res, _, fail = _cli_results(o)
            if fail:
                return fail
            ref, ref_min = volterra_reference(n)
            err = abs(res["norm"] - ref) / ref
            # ||V_n|| rises to 2/pi from below, with gap ~ pi / (24 n^2).
            gap = 2.0 / np.pi - res["norm"]
            ok = (err <= 1e-10 and 0.0 < gap <= 0.14 / n**2
                  and res["spectral_radius"] == 1.0 / (2.0 * n)
                  and abs(res["re_lambda_min"] - ref_min) <= 1e-10)
            return ok, err, f"norm {res['norm']} vs {ref}"

        argv = ["volterra", "--n", str(n), "--json", report]
        return cli_op(kind, argv, report, (), check)

    raise ValueError(kind)


def eigen_large(rng, work: str, pool: int = 4) -> Workload:
    cycles = [[_eigen_op(rng, work, f"e{c}_{i}", k, n) for i, (k, n) in enumerate(EIGEN_SLOTS)]
              for c in range(pool)]
    kinds = list(dict.fromkeys(k for k, _ in EIGEN_SLOTS))
    warm = [_eigen_op(rng, work, f"ew{i}", k, 8) for i, k in enumerate(kinds)]
    return Workload(cycles, warm, cal_dim=96, cal_ref_s=0.0036)


BUILDERS = {
    "roots-small": roots_small,
    "lab-campaign": lab_campaign,
    "eigen-large": eigen_large,
}
