"""Every structural and residual verdict is relative to the norm of the
matrix it is given and taken on that matrix scaled by a power of two, so
2^k X gets the verdicts of X wherever 2^k X keeps the bits of X.
Hypothesis draws X at unit scale and k in [-1000, 1000]; Hermitian and
skew-Hermitian X are exactly so, because parts that are rounding noise
(1e-17) would fall below the normal float range at 2^-1000 and lose it."""

import json
import os
import tempfile
from dataclasses import asdict

import numpy as np
from hypothesis import given, settings, strategies as st

from normalroots.cli import main
from normalroots.linalg import LinalgError, cartesian_parts, classify, fro
from normalroots.matio import save_matrix
from normalroots.roots import sign_case
from normalroots.sampling import random_hermitian, random_normal, random_psd, random_unitary
from normalroots.theoremlab import (
    SylvesterProblem,
    check_zero_square,
    classify_root_of_selfadjoint,
    normality_equivalence,
    sample_nilpotent,
    spectra_disjoint,
    sylvester_solve,
)

KINDS = ("psd", "nsd", "singular_psd", "hermitian", "skew", "normal", "dense", "nilpotent",
         "zero")


def _hermitian(M: np.ndarray) -> np.ndarray:
    return 0.5 * (M + M.conj().T)


def _matrix(kind: str, n: int, seed: int) -> np.ndarray:
    rng = np.random.default_rng(seed)
    if kind in ("psd", "nsd"):
        return (1.0 if kind == "psd" else -1.0) * _hermitian(random_psd(rng, n))
    if kind == "singular_psd":
        lam = rng.uniform(0.5, 2.0, n)
        lam[0] = 0.0
        U = random_unitary(rng, n)
        return _hermitian((U * lam) @ U.conj().T)
    if kind in ("hermitian", "skew"):
        return (1.0 if kind == "hermitian" else 1j) * random_hermitian(rng, n)
    if kind == "normal":
        return random_normal(rng, n)[0]
    if kind == "dense":
        return rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    if kind == "nilpotent":
        return sample_nilpotent(n, seed)
    return np.zeros((n, n), dtype=complex)


def _up(M: np.ndarray, k: int) -> np.ndarray:
    return np.ldexp(M.real, k) + 1j * np.ldexp(M.imag, k)


def _outcome(f, *args):
    """f(*args), or the name of the LinalgError it raised."""
    try:
        return f(*args)
    except LinalgError as exc:
        return type(exc).__name__


def _verdicts(X: np.ndarray, k: int, workdir: str) -> dict:
    """Every verdict on inputs built from X at unit scale, then scaled by
    2^k (2^(2j) for the target C = T^2 of a root T at 2^j, j = k // 2, which
    keeps C inside the float range)."""
    A, B = cartesian_parts(X).re, cartesian_parts(X).im
    shift = (2.0 * fro(X) + 1.0) * np.eye(len(X))
    flags = asdict(classify(_up(X, k)))
    del flags["unitary"]
    path, report = os.path.join(workdir, "X.mat"), os.path.join(workdir, "r.json")
    save_matrix(path, _up(X, k))
    assert main(["decompose", path, "--json", report]) == 0
    with open(report) as fh:
        cli_flags = json.load(fh)["results"]["flags"]
    del cli_flags["unitary"]

    def raises(a, b, s):
        problem = SylvesterProblem(_up(a, k), _up(b, k), _up(s, k))
        return isinstance(_outcome(sylvester_solve, problem), str)

    def zero_square(T):
        r = check_zero_square(T)
        return (r.hypotheses, r.conclusion_zero, r.re_indefinite, r.im_indefinite,
                r.violation is None)

    def normality(T):
        r = asdict(normality_equivalence(T))
        return {key: r[key] for key in ("applicable", "normal", "commutes", "agree",
                                        "indeterminate", "selfadjoint_clause_checked")} | {
            "violation": r["violation"] is None}

    def root_case(T):
        C = T @ T
        C = 0.5 * (C + C.conj().T)
        v = classify_root_of_selfadjoint(_up(T, k // 2), _up(C, 2 * (k // 2)))
        return v.case, v.evidence, v.violation is None

    return {
        "classify": flags,
        "decompose": cli_flags,
        "sign_case": [_outcome(sign_case, _up(H, k)) for H in (A, B)],
        "disjoint": [_outcome(lambda a, b: spectra_disjoint(_up(a, k), _up(b, k))[0], a, b)
                     for a, b in ((A, B), (A, -A), (A, A), (A + shift, -A - shift))],
        "sylvester": [raises(A, B, X), raises(A, A, X), raises(A + shift, B - shift, X),
                      raises(X + shift, X - shift, A), raises(X, X, X)],
        "zero_square": _outcome(zero_square, _up(X, k)),
        "normality": [_outcome(normality, _up(T, k)) for T in (X, X + shift, X - 1j * shift)],
        "root": [_outcome(root_case, T) for T in (X, A, 1j * B)],
    }


@settings(max_examples=40, deadline=None)
@given(st.sampled_from(KINDS), st.integers(1, 4), st.integers(0, 2**16),
       st.integers(-1000, 1000))
def test_every_verdict_is_the_same_at_every_power_of_two_scale(kind, n, seed, k):
    X = _matrix(kind, n, seed)
    with tempfile.TemporaryDirectory() as workdir, np.errstate(over="raise", invalid="raise"):
        assert _verdicts(X, k, workdir) == _verdicts(X, 0, workdir)
