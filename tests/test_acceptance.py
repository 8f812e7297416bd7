"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -v -s`.  The Volterra anchor
takes the eigenvalues of 512x512 matrices (values only, no Jacobi) in about
a second.
"""

import time

import numpy as np

from normalroots.linalg import (
    cartesian_parts,
    fro,
    hermitian_eigen,
    hermitian_eigvals,
    operator_norm,
)
from normalroots.roots import (
    nth_root,
    root_pow2n,
    spectral_sqrt,
    sqrt_signdef,
    verify_root,
)
from normalroots.sampling import (
    random_hermitian,
    random_normal,
    random_normal_signdef,
    random_unitary,
)
from normalroots.theoremlab import (
    SingularSylvesterError,
    SylvesterProblem,
    check_zero_square,
    classify_root_of_selfadjoint,
    commutator_identities,
    exp_periodicity_residual,
    normality_equivalence,
    sample_nilpotent,
    sylvester_solve,
    volterra_matrix,
)


def _report(name: str, ok: bool, detail: str) -> None:
    print(f"ACCEPTANCE {name}: {'PASS' if ok else 'FAIL'} ({detail})")
    assert ok, detail


def _signdef_corpus(seed: int, count_per_sign: int = 200):
    rng = np.random.default_rng(seed)
    corpus = []
    for sign in ("nonneg", "nonpos"):
        for _ in range(count_per_sign):
            dim = int(rng.integers(2, 9))
            N, mu = random_normal_signdef(rng, dim, sign)
            corpus.append((N, sign))
    return corpus


def test_criterion_1_sqrt_roundtrip():
    start = time.perf_counter()
    worst_res = worst_def = 0.0
    for N, _ in _signdef_corpus(101):
        cert = sqrt_signdef(N)
        worst_res = max(worst_res, cert.power_residual)
        worst_def = max(worst_def, cert.normality_defect)
    elapsed = time.perf_counter() - start
    ok = worst_res <= 1e-9 and worst_def <= 1e-10 and elapsed < 10.0
    _report(
        "1 sqrt roundtrip",
        ok,
        f"worst residual {worst_res:.2e}, worst defect {worst_def:.2e}, {elapsed:.1f}s",
    )


def test_criterion_2_oracle_equivalence():
    worst = 0.0
    exceptions = 0
    for N, _ in _signdef_corpus(101):
        a = sqrt_signdef(N).root
        b = spectral_sqrt(N).root
        gap = fro(a - b) / (1.0 + fro(N))
        worst = max(worst, gap)
        if gap > 1e-8:
            exceptions += 1
    ok = worst <= 1e-8 and exceptions == 0
    _report("2 oracle equivalence", ok, f"worst disagreement {worst:.2e}, exceptions {exceptions}")


def test_criterion_3_pow2n_roots():
    rng = np.random.default_rng(103)
    worst = 0.0
    for i in range(50):
        dim = int(rng.integers(2, 7))
        N, _ = random_normal_signdef(rng, dim, "nonneg" if i % 2 else "nonpos")
        scale = 1.0 + fro(N)
        for n in (1, 2, 3, 4):
            cert = root_pow2n(N, n)
            power = np.linalg.matrix_power(cert.root, 2**n)
            worst = max(worst, fro(power - N) / scale)
    ok = worst <= 1e-8
    _report("3 2^n-th roots", ok, f"worst scaled residual {worst:.2e}")


def test_criterion_4_nth_roots_all_branches():
    rng = np.random.default_rng(104)
    worst_res = worst_def = 0.0
    min_dist = np.inf
    for _ in range(50):
        dim = int(rng.integers(2, 7))
        N, _ = random_normal(rng, dim, modulus_range=(0.3, 2.5))  # invertible
        scale = 1.0 + fro(N)
        for n in (2, 3, 5, 7):
            certs = [nth_root(N, n, k) for k in range(n)]
            for cert in certs:
                worst_res = max(worst_res, cert.power_residual)
                worst_def = max(worst_def, cert.normality_defect)
            for i in range(n):
                for j in range(i + 1, n):
                    min_dist = min(min_dist, fro(certs[i].root - certs[j].root) / scale)
    ok = worst_res <= 1e-9 and worst_def <= 1e-10 and min_dist > 1e-6
    _report(
        "4 nth roots",
        ok,
        f"worst residual {worst_res:.2e}, worst defect {worst_def:.2e}, "
        f"min branch distance {min_dist:.2e}",
    )


def test_criterion_5_sylvester():
    rng = np.random.default_rng(105)
    worst = 0.0
    for _ in range(100):
        dim = int(rng.integers(2, 9))
        la = np.sort(rng.uniform(0.0, 1.0, dim))
        lb = np.sort(rng.uniform(2.0, 3.0, dim))  # certified gap >= 1
        Qa, Qb = random_unitary(rng, dim), random_unitary(rng, dim)
        A = (Qa * la) @ Qa.conj().T
        B = (Qb * lb) @ Qb.conj().T
        S = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
        X = sylvester_solve(SylvesterProblem(A, B, S))
        worst = max(worst, fro(A @ X - X @ B - S) / (1.0 + fro(S)))
    # diagonal closed-form oracle
    A = np.diag([1.0, 2.0]).astype(complex)
    B = np.diag([3.0, 4.0]).astype(complex)
    S = np.ones((2, 2), dtype=complex)
    X = sylvester_solve(SylvesterProblem(A, B, S))
    oracle = S / (np.diag(A)[:, None] - np.diag(B)[None, :])
    oracle_gap = fro(X - oracle)
    overlap_raises = False
    try:
        sylvester_solve(SylvesterProblem(np.eye(2), np.eye(2), S))
    except SingularSylvesterError:
        overlap_raises = True
    ok = worst <= 1e-9 and oracle_gap <= 1e-11 and overlap_raises
    _report(
        "5 Sylvester",
        ok,
        f"worst residual {worst:.2e}, oracle gap {oracle_gap:.2e}, "
        f"overlap raises {overlap_raises}",
    )


def test_criterion_6_classification_campaign():
    rng = np.random.default_rng(106)
    violations = 0
    wrong = 0
    for _ in range(500):
        dim = int(rng.integers(2, 7))
        lam = rng.uniform(0.5, 3.0, dim) * (1.0 if rng.random() < 0.5 else -1.0)
        U = random_unitary(rng, dim)
        T = (U * lam) @ U.conj().T
        T = 0.5 * (T + T.conj().T)
        v = classify_root_of_selfadjoint(T, T @ T)
        violations += v.violation is not None
        wrong += v.case != "selfadjoint_invertible"
    for _ in range(500):
        dim = int(rng.integers(2, 7))
        lam = rng.uniform(0.5, 3.0, dim) * (1.0 if rng.random() < 0.5 else -1.0)
        U = random_unitary(rng, dim)
        B = (U * lam) @ U.conj().T
        B = 0.5 * (B + B.conj().T)
        T = 1j * B
        v = classify_root_of_selfadjoint(T, T @ T)
        violations += v.violation is not None
        wrong += v.case != "skew_invertible"
    ok = violations == 0 and wrong == 0
    _report("6 classification", ok, f"violations {violations}, misclassified {wrong}")


def test_criterion_7_nilpotent_search():
    rng = np.random.default_rng(107)
    violations = 0
    not_indefinite = 0
    for trial in range(1000):
        dim = int(rng.integers(2, 7))
        T = sample_nilpotent(dim, seed=int(rng.integers(0, 2**31)))
        report = check_zero_square(T)
        violations += report.violation is not None
        if report.norm_t > 1e-9 and not (report.re_indefinite and report.im_indefinite):
            not_indefinite += 1
    ok = violations == 0 and not_indefinite == 0
    _report(
        "7 nilpotents",
        ok,
        f"violations {violations}, non-indefinite nonzero samples {not_indefinite}",
    )


def test_criterion_8_commutators_and_equivalence():
    rng = np.random.default_rng(108)
    worst = 0.0
    for _ in range(500):
        dim = int(rng.integers(2, 9))
        T = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
        r1, r2 = commutator_identities(T)
        bound = 1e-11 * (1.0 + fro(T) ** 3)
        worst = max(worst, max(r1, r2) / bound)
    disagreements = 0
    for _ in range(200):
        dim = int(rng.integers(2, 7))
        T = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
        re = cartesian_parts(T).re
        shift = abs(float(hermitian_eigen(re).eigenvalues[0])) + 0.5
        T = T + shift * np.eye(dim)  # sign-definite real part
        rep = normality_equivalence(T)
        disagreements += rep.agree is False
    ok = worst <= 1.0 and disagreements == 0
    _report(
        "8 commutators",
        ok,
        f"worst residual/bound {worst:.3f}, equivalence disagreements {disagreements}",
    )


def test_criterion_9_volterra_anchor():
    target = 2.0 / np.pi
    norms = {}
    for n in (128, 256, 512):
        norms[n] = operator_norm(volterra_matrix(n))
    errors = [abs(norms[n] - target) for n in (128, 256, 512)]
    in_window = 0.624 <= norms[512] <= 0.650
    monotone = errors[0] > errors[1] > errors[2]
    V = volterra_matrix(512)
    triangular = np.allclose(np.triu(V, 1), 0.0) and np.allclose(np.diag(V), 1.0 / 1024.0)
    re_min = float(hermitian_eigvals(cartesian_parts(V).re)[0])
    re_psd = re_min >= -1e-12
    ok = in_window and monotone and triangular and re_psd
    _report(
        "9 Volterra",
        ok,
        f"norm(512) {norms[512]:.6f} (2/pi {target:.6f}), errors {errors[0]:.1e} > "
        f"{errors[1]:.1e} > {errors[2]:.1e}, spectral radius exact {triangular}, "
        f"lambda_min(Re V) {re_min:.1e}",
    )


def test_criterion_10_exp_periodicity():
    rng = np.random.default_rng(110)
    worst = 0.0
    for _ in range(100):
        dim = int(rng.integers(1, 9))
        A = random_hermitian(rng, dim, scale=rng.uniform(0.5, 4.0))
        for k in range(-16, 17):
            worst = max(worst, exp_periodicity_residual(A, k) / (1e-11 * dim))
    ok = worst <= 1.0
    _report("10 exp periodicity", ok, f"worst residual/bound {worst:.3f}")


def test_criterion_11_selfadjoint_root_family():
    worst = 0.0
    for x in (-1.0, -0.5, 0.0, 0.3, 1.0):
        s = np.sqrt(1.0 - x * x)
        A = np.array([[x, s], [s, -x]])
        cert = verify_root(A, np.eye(2), 2)
        worst = max(worst, cert.power_residual)
    ok = worst <= 1e-12
    _report("11 root family of I", ok, f"worst residual {worst:.2e}")
