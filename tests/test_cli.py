import hashlib
import json
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

from normalroots.cli import main
from normalroots.linalg import fro
from normalroots.matio import (
    MatrixFormatError,
    format_matrix,
    load_matrix,
    parse_matrix,
    save_matrix,
)
from normalroots.sampling import random_normal_signdef


# --- matrix file format ------------------------------------------------------


def test_parse_scalar():
    assert np.array_equal(parse_matrix("1\n2.0 0.0\n"), [[2.0]])


def test_parse_identity():
    M = parse_matrix("2\n1 0  0 0\n0 0  1 0\n")
    assert np.array_equal(M, np.eye(2))


def test_parse_tab_separated():
    M = parse_matrix("2\n1 0\t0 0\n0 0\t1 0\n")
    assert np.array_equal(M, np.eye(2))


def test_parse_missing_row():
    with pytest.raises(MatrixFormatError, match="expected 2 rows"):
        parse_matrix("2\n1 0\n")


def test_parse_bad_header():
    with pytest.raises(MatrixFormatError, match="header"):
        parse_matrix("x\n1 0\n")


def test_parse_bad_number():
    with pytest.raises(MatrixFormatError, match="line 2"):
        parse_matrix("1\nfoo bar\n")


def test_parse_wrong_entry_count():
    with pytest.raises(MatrixFormatError, match="entries"):
        parse_matrix("2\n1 0  0 0  1 0\n0 0  1 0\n")


def test_parse_single_spaces_and_tabs():
    # A row is 2 * dim numbers in any whitespace, paired re/im in order.
    assert np.array_equal(parse_matrix("2\n1 0 0 0\n0 0 1 0\n"), np.eye(2))
    assert np.array_equal(parse_matrix("2\n1\t0\t0\t-1\n0\t1\t3.5\t0\n"),
                          [[1, -1j], [1j, 3.5]])


def test_parse_pairs_may_straddle_two_space_gaps():
    assert np.array_equal(parse_matrix("2\n1 0 0  0\n0  0 1 0\n"), np.eye(2))


def test_parse_extra_number_names_line_and_entries():
    with pytest.raises(MatrixFormatError, match=r"line 3: expected 2 entries \(4 numbers\), found 5"):
        parse_matrix("2\n1 0  0 0\n0 0  1 0  7\n")


def test_parse_non_number_names_line_and_entry():
    with pytest.raises(MatrixFormatError, match=r"line 3, entry 2: unparseable number in '1 x'"):
        parse_matrix("2\n1 0  0 0\n0 0  1 x\n")


@pytest.mark.parametrize("dim", [1, 8])
def test_format_parse_roundtrip_d1_d8(dim):
    rng = np.random.default_rng(dim)
    M = np.pi * (rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim)))
    assert np.array_equal(parse_matrix(format_matrix(M)), M)


def test_format_parse_roundtrip_exact():
    rng = np.random.default_rng(3)
    M = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
    M *= np.pi  # irrational entries: full 17-digit serialization exercised
    assert np.array_equal(parse_matrix(format_matrix(M)), M)


def test_save_load_roundtrip(tmp_path):
    rng = np.random.default_rng(4)
    M, _ = random_normal_signdef(rng, 5)
    path = tmp_path / "m.mat"
    save_matrix(path, M)
    assert np.array_equal(load_matrix(path), M)


# --- CLI ----------------------------------------------------------------------


def _write(tmp_path, name, M):
    path = tmp_path / name
    save_matrix(path, M)
    return str(path)


def _read_report(path):
    with open(path) as fh:
        return json.load(fh)


def test_cli_sqrt_end_to_end(tmp_path):
    rng = np.random.default_rng(5)
    N, _ = random_normal_signdef(rng, 4)
    n_path = _write(tmp_path, "N.mat", N)
    out = tmp_path / "T.mat"
    rpt = tmp_path / "r.json"
    assert main(["sqrt", n_path, "--out", str(out), "--json", str(rpt)]) == 0
    report = _read_report(rpt)
    assert report["schema"] == 1
    assert report["results"]["power_residual"] <= 1e-9
    T = load_matrix(out)
    assert np.linalg.norm(T @ T - N) <= 1e-9 * (1 + np.linalg.norm(N))


def test_cli_root_all_branches(tmp_path):
    n_path = _write(tmp_path, "N.mat", np.eye(2, dtype=complex))
    rpt = tmp_path / "r.json"
    assert main(["root", n_path, "--n", "3", "--all-branches", "--json", str(rpt)]) == 0
    report = _read_report(rpt)
    certs = report["results"]["certificates"]
    assert [c["branch"] for c in certs] == [0, 1, 2]
    assert all(c["power_residual"] <= 1e-9 for c in certs)


def test_cli_root_out_holds_the_requested_branch(tmp_path):
    from normalroots.roots import nth_root

    N, _ = random_normal_signdef(np.random.default_rng(8), 3)
    n_path = _write(tmp_path, "N.mat", N)
    out = tmp_path / "R.mat"
    assert main(["root", n_path, "--n", "3", "--k", "2", "--out", str(out)]) == 0
    assert np.array_equal(load_matrix(out), nth_root(N, 3, 2).root)
    assert main(["root", n_path, "--n", "3", "--all-branches", "--out", str(out)]) == 0
    assert np.array_equal(load_matrix(out), nth_root(N, 3, 0).root)


def test_cli_volterra_report(tmp_path):
    rpt = tmp_path / "r.json"
    assert main(["volterra", "--n", "64", "--json", str(rpt)]) == 0
    report = _read_report(rpt)
    assert report["results"]["norm"] == pytest.approx(2 / np.pi, abs=1e-3)
    assert report["results"]["spectral_radius"] == 1.0 / 128.0
    assert report["results"]["re_lambda_min"] >= -1e-12


def test_cli_sylvester(tmp_path):
    a = _write(tmp_path, "a.mat", np.diag([1.0, 2.0]).astype(complex))
    b = _write(tmp_path, "b.mat", np.diag([3.0, 4.0]).astype(complex))
    s = _write(tmp_path, "s.mat", np.ones((2, 2), dtype=complex))
    out = tmp_path / "x.mat"
    assert main(["sylvester", "--a", a, "--b", b, "--s", s, "--out", str(out)]) == 0
    X = load_matrix(out)
    assert np.allclose(X, [[-0.5, -1 / 3], [-1.0, -0.5]], atol=1e-11)


def test_cli_sylvester_singular_exits_1(tmp_path):
    a = _write(tmp_path, "a.mat", np.eye(2, dtype=complex))
    s = _write(tmp_path, "s.mat", np.ones((2, 2), dtype=complex))
    assert main(["sylvester", "--a", a, "--b", a, "--s", s]) == 1


@pytest.mark.parametrize("k", [-1000, 1020])
def test_cli_sylvester_residual_scales_exactly(tmp_path, k):
    # The residual is taken on the problem sylvester_solve scales, so 2^k a,
    # 2^k b, 2^k s report 2^k times the residual of a, b, s, rounded once.
    a, b, s = np.diag([1.5, 1.7]), np.diag([1.0, 1.2]), np.array([[1.0, 0.3], [0.7, 1.0]])
    reports = []
    for scale in (0, k):
        paths = [_write(tmp_path, f"{name}{scale}.mat", np.ldexp(M, scale))
                 for name, M in zip("abs", (a, b, s))]
        rpt = tmp_path / f"r{scale}.json"
        assert main(["sylvester", "--a", paths[0], "--b", paths[1], "--s", paths[2],
                     "--json", str(rpt)]) == 0
        reports.append(_read_report(rpt)["results"])
    base, scaled = reports
    assert base["residual"] > 0.0
    assert scaled["residual"] == float(np.ldexp(base["residual"], k))
    assert scaled["solution_norm"] == base["solution_norm"]


def test_cli_precondition_failure_exits_1(tmp_path):
    # sqrt of a non-normal matrix
    n_path = _write(tmp_path, "J.mat", np.array([[0.0, 1.0], [0.0, 0.0]]))
    assert main(["sqrt", n_path]) == 1


@pytest.mark.parametrize("argv", [
    ["root", "N.mat", "--n", "0"],
    ["volterra", "--n", "0"],
    ["nilpotent-search", "--trials", "0"],
    ["nilpotent-search", "--dim", "0"],
    ["nilpotent-search", "--seed", "-1"],
])
def test_cli_nonpositive_count_exits_1(tmp_path, capsys, argv):
    path = _write(tmp_path, "N.mat", np.eye(2))
    assert main([path if a == "N.mat" else a for a in argv]) == 1
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and "must be" in err and "Traceback" not in err


def test_cli_corrupted_fixture_exits_1(tmp_path):
    bad = tmp_path / "bad.mat"
    bad.write_text("2\n1 0\n")
    assert main(["sqrt", str(bad)]) == 1
    missing = tmp_path / "missing.mat"
    assert main(["sqrt", str(missing)]) == 1


def test_cli_usage_error_exits_64():
    with pytest.raises(SystemExit) as exc:
        main(["no-such-command"])
    assert exc.value.code == 64
    with pytest.raises(SystemExit) as exc:
        main(["root", "x.mat"])  # missing required --n
    assert exc.value.code == 64


def test_cli_classify_and_zero_square(tmp_path):
    t_path = _write(tmp_path, "T.mat", np.diag([1.0, 2.0]).astype(complex))
    c_path = _write(tmp_path, "C.mat", np.diag([1.0, 4.0]).astype(complex))
    rpt = tmp_path / "r.json"
    assert main(["classify", t_path, "--target", c_path, "--json", str(rpt)]) == 0
    assert _read_report(rpt)["results"]["case"] == "selfadjoint_invertible"

    j_path = _write(tmp_path, "J.mat", np.array([[0.0, 1.0], [0.0, 0.0]]))
    assert main(["zero-square", j_path, "--json", str(rpt)]) == 0
    results = _read_report(rpt)["results"]
    assert results["re_indefinite"] and results["im_indefinite"]


def test_cli_classify_shape_mismatch_exits_1(tmp_path, capsys):
    t_path = _write(tmp_path, "T.mat", np.eye(3, dtype=complex))
    c_path = _write(tmp_path, "C.mat", np.eye(2, dtype=complex))
    assert main(["classify", t_path, "--target", c_path]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "normalroots: T and C must share one square dimension\n"


def test_cli_range_and_commutators(tmp_path):
    m_path = _write(tmp_path, "M.mat", np.diag([1.0, 2.0]).astype(complex))
    rpt = tmp_path / "r.json"
    assert main(["range", m_path, "--json", str(rpt)]) == 0
    assert _read_report(rpt)["results"]["contains_zero"] is False

    rng = np.random.default_rng(6)
    t_path = _write(tmp_path, "T.mat", rng.standard_normal((3, 3)) + 0j)
    assert main(["commutators", t_path, "--json", str(rpt)]) == 0
    assert _read_report(rpt)["results"]["within_bound"] is True


def test_cli_decompose(tmp_path):
    rng = np.random.default_rng(7)
    T = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
    t_path = _write(tmp_path, "T.mat", T)
    out_re = tmp_path / "re.mat"
    out_im = tmp_path / "im.mat"
    assert main(["decompose", t_path, "--out-re", str(out_re), "--out-im", str(out_im)]) == 0
    re = load_matrix(out_re)
    im = load_matrix(out_im)
    assert np.allclose(re + 1j * im, T)


def test_cli_nilpotent_search(tmp_path):
    rpt = tmp_path / "r.json"
    code = main(["nilpotent-search", "--trials", "50", "--dim", "3", "--seed", "1",
                 "--json", str(rpt)])
    assert code == 0
    results = _read_report(rpt)["results"]
    assert results["violations"] == []
    assert results["nonzero_samples"] == 50


def test_cli_exp_periodicity(tmp_path):
    a_path = _write(tmp_path, "A.mat", np.diag([np.pi / 2]).astype(complex))
    rpt = tmp_path / "r.json"
    assert main(["exp-periodicity", a_path, "--k", "-3", "--json", str(rpt)]) == 0
    assert _read_report(rpt)["results"]["within_bound"] is True


@pytest.mark.parametrize("argv, name", [
    (["exp-periodicity", "A.mat", "--k"], "k"),
    (["root", "A.mat", "--n"], "n"),
    (["root", "A.mat", "--all-branches", "--n"], "n"),
], ids=["exp-periodicity", "root", "root-all-branches"])
def test_cli_exp_periodicity_beyond_the_float_range_exits_1(tmp_path, capsys, argv, name):
    a_path = _write(tmp_path, "A.mat", np.eye(2, dtype=complex))
    argv = [a_path if a == "A.mat" else a for a in argv] + ["1" + "0" * 400]
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and f"{name} of 401 digits" in err and "Traceback" not in err


@pytest.mark.parametrize("error, line", [
    (MemoryError("Unable to allocate 74.5 GiB for an array with shape (100000, 100000)"),
     "Unable to allocate 74.5 GiB for an array with shape (100000, 100000)"),
    (MemoryError(), "MemoryError"),  # as Python raises it, without a message
], ids=["numpy", "bare"])
def test_cli_out_of_memory_exits_1(capsys, monkeypatch, error, line):
    # Stands in for the allocation of a huge --n; no large array is made.
    from normalroots import cli

    def volterra_matrix(n):
        raise error

    monkeypatch.setattr(cli, "volterra_matrix", volterra_matrix)
    assert main(["volterra", "--n", "100000"]) == 1
    assert capsys.readouterr().err == f"normalroots: {line}\n"


def test_cli_determinism(tmp_path):
    rng = np.random.default_rng(8)
    N, _ = random_normal_signdef(rng, 3)
    n_path = _write(tmp_path, "N.mat", N)
    rpt = tmp_path / "r.json"
    reports = []
    for _ in range(2):
        assert main(["sqrt", n_path, "--json", str(rpt)]) == 0
        report = _read_report(rpt)
        report.pop("wall_time_s")
        reports.append(json.dumps(report, sort_keys=True))
    assert reports[0] == reports[1]


def test_cli_tolerance_flags_recorded(tmp_path):
    t_path = _write(tmp_path, "J.mat", np.array([[0.0, 1.0], [0.0, 0.0]]))
    rpt = tmp_path / "r.json"
    assert main(["zero-square", t_path, "--tol-residual", "1e-8", "--json", str(rpt)]) == 0
    assert _read_report(rpt)["tolerances"]["residual"] == 1e-8
    # A command that reads no tolerance still records both defaults.
    assert main(["commutators", t_path, "--json", str(rpt)]) == 0
    tolerances = _read_report(rpt)["tolerances"]
    assert (tolerances["structural"], tolerances["residual"]) == (1e-10, 1e-9)


@pytest.mark.parametrize("argv", [
    ["commutators", "--tol-structural", "1e-8"],
    ["commutators", "--tol-residual", "1e-8"],
    ["sqrt", "--tol-residual", "1e-8"],
    ["spectral-sqrt", "--tol-residual", "1e-8"],
    ["range", "--tol-residual", "1e-8"],
    ["exp-periodicity", "--k", "1", "--tol-residual", "1e-8"],
])
def test_cli_unread_tolerance_flag_exits_64(tmp_path, capsys, argv):
    # A flag the command would ignore is a usage error, not a silent no-op.
    n_path = _write(tmp_path, "N.mat", np.eye(2, dtype=complex))
    with pytest.raises(SystemExit) as exc:
        main([argv[0], n_path, *argv[1:]])
    assert exc.value.code == 64
    assert f"unrecognized arguments: {argv[-2]} 1e-8" in capsys.readouterr().err


@pytest.mark.parametrize("flag", ["--tol-structural", "--tol-residual"])
@pytest.mark.parametrize("value", ["0", "-1", "nan", "inf"])
def test_cli_nonpositive_tolerance_exits_64(tmp_path, capsys, flag, value):
    n_path = _write(tmp_path, "N.mat", np.eye(2, dtype=complex))
    assert main(["classify", n_path, flag, value]) == 64
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.count("\n") == 1 and "strictly positive" in captured.err


def test_cli_sqrt_indefinite_message_quotes_the_input(tmp_path, capsys):
    # The sign test runs on N / 4; the message gives the eigenvalues of
    # Im N = diag(4, -4), not those of Im(N / 4).
    n_path = _write(tmp_path, "N.mat", np.diag([4.0 + 4.0j, 4.0 - 4.0j]))
    assert main(["sqrt", n_path]) == 1
    assert capsys.readouterr().err == (
        "normalroots: imaginary part is indefinite: lambda_min=-4.000e+00, lambda_max=4.000e+00\n"
    )


def test_cli_spectral_sqrt_defect_message_quotes_the_input(tmp_path, capsys):
    # Normality is decided on N / 2^e, whose defect (0.707) is not N's.
    from normalroots.linalg import normality_defect

    N = 1024.0 * np.array([[0.0, 1.0], [0.0, 0.0]])
    n_path = _write(tmp_path, "N.mat", N)
    assert main(["spectral-sqrt", n_path]) == 1
    assert f"{normality_defect(N):.3e}" == "1.414e+00"
    assert capsys.readouterr().err == "normalroots: N is not normal: defect 1.414e+00\n"


def test_cli_convergence_error_exits_1(tmp_path, capsys, monkeypatch):
    from normalroots import cli
    from normalroots.linalg import ConvergenceError

    def stalled(args, tol, inputs):
        raise ConvergenceError("Jacobi did not converge in 64 sweeps")

    monkeypatch.setitem(cli._HANDLERS, "range", stalled)
    n_path = _write(tmp_path, "N.mat", np.eye(2, dtype=complex))
    assert main(["range", n_path]) == 1
    err = capsys.readouterr().err
    assert err == "normalroots: Jacobi did not converge in 64 sweeps\n"


def test_cli_range_large_scale(tmp_path):
    m_path = _write(tmp_path, "M.mat", 1e200 * np.eye(3, dtype=complex))
    rpt = tmp_path / "r.json"
    assert main(["range", m_path, "--json", str(rpt)]) == 0
    results = _read_report(rpt)["results"]
    assert results["contains_zero"] is False and results["indeterminate"] is False
    assert results["witness_angle"] == 0.0


@pytest.mark.parametrize("argv", [["spectral-sqrt"], ["root", "--n", "3"]])
def test_cli_normal_input_at_1e160(tmp_path, capsys, argv):
    # ||N||_F^2 overflows a float; the normality test must not.
    n_path = _write(tmp_path, "N.mat", np.diag([1e160, 1e160j]))
    rpt = tmp_path / "r.json"
    assert main([argv[0], n_path, *argv[1:], "--json", str(rpt)]) == 0
    results = _read_report(rpt)["results"]
    certs = results.get("certificates", [results])
    assert all(c["power_residual"] <= 1e-12 for c in certs)
    assert "Traceback" not in capsys.readouterr().err


def test_cli_non_normal_input_at_1e160_exits_1(tmp_path, capsys):
    n_path = _write(tmp_path, "J.mat", 1e160 * np.array([[0.0, 1.0], [0.0, 0.0]]))
    assert main(["spectral-sqrt", n_path]) == 1
    err = capsys.readouterr().err
    assert "not normal" in err and "Traceback" not in err


def test_cli_non_ascii_matrix_exits_1(tmp_path, capsys):
    bad = tmp_path / "bad.mat"
    bad.write_bytes(b"1\n1 0\xe9\n")
    with pytest.raises(MatrixFormatError, match=r"bad\.mat: non-ASCII byte 0xe9 at offset 5"):
        load_matrix(bad)
    assert main(["sqrt", str(bad)]) == 1
    err = capsys.readouterr().err
    assert err == f"normalroots: {bad}: non-ASCII byte 0xe9 at offset 5\n"


@pytest.mark.skipif(not os.path.exists("/dev/stdin"), reason="needs /dev/stdin")
def test_cli_records_the_digest_of_piped_input(tmp_path):
    # A pipe can be read only once: the recorded digest is that of the bytes
    # the matrix was parsed from, not of a second, empty read.
    data = format_matrix(np.diag([4.0, 1j])).encode("ascii")
    rpt = tmp_path / "r.json"
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run(
        [sys.executable, "-m", "normalroots.cli", "sqrt", "/dev/stdin", "--json", str(rpt)],
        input=data, capture_output=True, env=env, check=False,
    )
    assert proc.returncode == 0, proc.stderr
    assert _read_report(rpt)["inputs"] == {"/dev/stdin": hashlib.sha256(data).hexdigest()}


def test_cli_directory_as_matrix_exits_1(tmp_path, capsys):
    assert main(["sqrt", str(tmp_path)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.count("\n") == 1
    assert captured.err.startswith("normalroots: ") and str(tmp_path) in captured.err


def test_cli_unwritable_json_report_exits_1(tmp_path, capsys):
    n_path = _write(tmp_path, "N.mat", np.eye(2, dtype=complex))
    rpt = tmp_path / "nodir" / "r.json"
    assert main(["sqrt", n_path, "--json", str(rpt)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.count("\n") == 1
    assert captured.err.startswith("normalroots: ") and str(rpt) in captured.err


def test_cli_branch_and_all_branches_exit_64(tmp_path):
    n_path = _write(tmp_path, "N.mat", np.eye(2, dtype=complex))
    for k in ("0", "2"):
        with pytest.raises(SystemExit) as exc:
            main(["root", n_path, "--n", "3", "--k", k, "--all-branches"])
        assert exc.value.code == 64


_CERTIFICATE_KEYS = {"order", "branch", "power_residual", "normality_defect"}


@pytest.mark.parametrize(
    "argv, keys",
    [
        (["decompose", "@T"], {"dim", "flags", "re_norm", "im_norm"}),
        (["sqrt", "@N"], _CERTIFICATE_KEYS | {"sign_case"}),
        (["spectral-sqrt", "@N"], _CERTIFICATE_KEYS),
        (["root", "@N", "--n", "3", "--all-branches"], {"certificates"}),
        (["sylvester", "--a", "@a", "--b", "@b", "--s", "@s"], {"residual", "solution_norm"}),
        (["classify", "@D"], {"case", "evidence", "residual", "system_residuals", "violation"}),
        (["zero-square", "@J"], {
            "norm_t", "square_norm", "hypotheses", "conclusion_zero", "re_margins",
            "im_margins", "re_indefinite", "im_indefinite", "violation",
        }),
        (["range", "@T"], {
            "contains_zero", "margin", "witness_angle", "witness_vector", "witness_value",
            "indeterminate",
        }),
        (["commutators", "@T"], {"residual_bc_ad", "residual_ac_bd", "bound", "within_bound"}),
        (["volterra", "--n", "4"], {
            "n", "norm", "spectral_radius", "re_lambda_min", "two_over_pi",
        }),
        (["nilpotent-search", "--trials", "3", "--dim", "2"], {
            "trials", "dim", "seed", "nonzero_samples", "violations",
            "least_positive_re_margin", "least_negative_re_margin",
            "least_positive_im_margin", "least_negative_im_margin",
        }),
        (["exp-periodicity", "@D", "--k", "2"], {"k", "residual", "bound", "within_bound"}),
    ],
)
def test_cli_results_schema(tmp_path, argv, keys):
    fixtures = {
        "@T": np.array([[1.0, 2.0], [0.5j, -1.0]]),
        "@N": np.diag([4.0, 1j]),
        "@a": np.diag([1.0, 2.0]).astype(complex),
        "@b": np.diag([3.0, 4.0]).astype(complex),
        "@s": np.ones((2, 2), dtype=complex),
        "@D": np.diag([1.0, 2.0]).astype(complex),
        "@J": np.array([[0.0, 1.0], [0.0, 0.0]]),
    }
    argv = [_write(tmp_path, a[1:] + ".mat", fixtures[a]) if a in fixtures else a for a in argv]
    rpt = tmp_path / "r.json"
    assert main(argv + ["--json", str(rpt)]) == 0
    results = _read_report(rpt)["results"]
    assert set(results) == keys
    if argv[0] == "decompose":
        assert set(results["flags"]) == {"hermitian", "normal", "psd", "nsd", "unitary", "zero"}
    if argv[0] == "root":
        assert [set(c) for c in results["certificates"]] == [_CERTIFICATE_KEYS] * 3


def test_cli_json_encodes_complex_vectors_and_flags(tmp_path):
    T = np.array([[1.0, 2.0], [0.5j, -1.0]])  # trace 0, so 0 is in W(T)
    t_path = _write(tmp_path, "T.mat", T)
    rpt = tmp_path / "r.json"
    assert main(["range", t_path, "--json", str(rpt)]) == 0
    results = _read_report(rpt)["results"]
    assert results["contains_zero"] is True
    pairs = results["witness_vector"]
    assert len(pairs) == 2
    assert all(len(p) == 2 and all(type(v) is float for v in p) for p in pairs)
    x = np.array([complex(re, im) for re, im in pairs])
    assert abs(np.linalg.norm(x) - 1.0) <= 1e-12
    assert abs(x.conj() @ T @ x) <= 1e-12 * np.linalg.norm(T, 2)

    assert main(["decompose", t_path, "--json", str(rpt)]) == 0
    results = _read_report(rpt)["results"]
    assert all(type(v) is bool for v in results["flags"].values())
    assert type(results["dim"]) is int and type(results["re_norm"]) is float


def test_cli_parser_is_built_once():
    from normalroots.cli import build_parser

    assert build_parser() is build_parser()


def test_cli_repeated_main_calls_match_fresh_processes(tmp_path, capsys, monkeypatch):
    # One process, one parser: successive calls, a usage error among them,
    # give the reports, exit codes and stderr of fresh processes.
    import os
    import subprocess
    import sys
    from pathlib import Path

    monkeypatch.setenv("COLUMNS", "80")  # argparse wraps usage text to it
    n_path = _write(tmp_path, "N.mat", np.diag([4.0, 1j]))
    t_path = _write(tmp_path, "T.mat", np.array([[1.0, 2.0], [0.5j, -1.0]]))
    runs = [
        ["root", n_path, "--n", "3", "--k", "1"],
        ["sqrt", n_path, "--tol-structural", "1e-8"],
        ["root", n_path, "--n"],  # usage error: --n without a value
        ["root", n_path, "--n", "3"],  # --k back to its default
        ["commutators", t_path],
        ["sqrt", n_path],
    ]

    def outcome(code, err, rpt):
        report = _read_report(rpt) if rpt.exists() else None
        if report is not None:
            report.pop("wall_time_s")
            rpt.unlink()
        return code, err, report

    in_process = []
    for i, argv in enumerate(runs):
        rpt = tmp_path / f"r{i}.json"
        try:
            code = main(argv + ["--json", str(rpt)])
        except SystemExit as exc:
            code = exc.code
        in_process.append(outcome(code, capsys.readouterr().err, rpt))

    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    fresh = []
    for i, argv in enumerate(runs):
        rpt = tmp_path / f"r{i}.json"
        proc = subprocess.run(
            [sys.executable, "-m", "normalroots.cli", *argv, "--json", str(rpt)],
            capture_output=True, text=True, env=env, check=False,
        )
        fresh.append(outcome(proc.returncode, proc.stderr, rpt))

    assert [o[0] for o in in_process] == [0, 0, 64, 0, 0, 0]
    assert in_process == fresh


@pytest.mark.parametrize("scale", [1e110, 1e160])
def test_cli_zero_square_and_commutators_at_large_scale(tmp_path, capsys, scale):
    # ||T||^2 and ||T||^3 overflow a float; the bounds built on them must not.
    t_path = _write(tmp_path, "J.mat", scale * np.array([[0.0, 1.0], [0.0, 0.0]]))
    rpt = tmp_path / "r.json"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(["zero-square", t_path, "--json", str(rpt)]) == 0
        results = _read_report(rpt)["results"]
        assert results["norm_t"] == scale and results["square_norm"] == 0.0
        assert results["violation"] is None
        assert results["re_indefinite"] and results["im_indefinite"]
        assert results["re_margins"] == pytest.approx([-scale / 2, scale / 2], rel=1e-15)
        assert main(["commutators", t_path, "--json", str(rpt)]) == 0
        assert _read_report(rpt)["results"]["within_bound"] is True
    assert capsys.readouterr().err == ""


def test_cli_sqrt_and_decompose_at_1e160(tmp_path, capsys):
    # N* N overflows; |N| is taken on N / 2^e, and the unitary test of
    # decompose fails the overflowing product without a warning.
    n_path = _write(tmp_path, "N.mat", np.diag([1e160, 1e160j]))
    out = tmp_path / "T.mat"
    rpt = tmp_path / "r.json"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(["sqrt", n_path, "--out", str(out), "--json", str(rpt)]) == 0
        expected = np.diag([1e80, 1e80 * np.exp(0.25j * np.pi)])
        assert fro(load_matrix(out) - expected) <= 1e-12 * fro(expected)
        assert _read_report(rpt)["results"]["sign_case"] == "nonneg"
        assert main(["decompose", n_path, "--json", str(rpt)]) == 0
        flags = _read_report(rpt)["results"]["flags"]
        assert flags["normal"] and not flags["unitary"] and not flags["hermitian"]
    assert capsys.readouterr().err == ""


@pytest.mark.parametrize("k", [-40, -498])
def test_cli_sqrt_reports_the_sign_case_it_used_at_small_scale(tmp_path, capsys, k):
    # The case comes from the normalised input the construction uses; the
    # band of the unscaled imaginary part would call this input nonneg.
    N, _ = random_normal_signdef(np.random.default_rng(7), 4, "nonpos")
    Nk = np.ldexp(N.real, k) + 1j * np.ldexp(N.imag, k)
    n_path = _write(tmp_path, "N.mat", Nk)
    out = tmp_path / "T.mat"
    rpt = tmp_path / "r.json"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(["sqrt", n_path, "--out", str(out), "--json", str(rpt)]) == 0
    assert _read_report(rpt)["results"]["sign_case"] == "nonpos"
    T = load_matrix(out)
    T = np.ldexp(T.real, -(k // 2)) + 1j * np.ldexp(T.imag, -(k // 2))
    assert fro(T @ T - N) <= 1e-12 * fro(N)
    assert np.all(np.linalg.eigvals(T).imag <= 1e-12)
    assert capsys.readouterr().err == ""


def test_cli_decompose_and_zero_square_at_small_scale(tmp_path):
    # fro rescales sums of squares that underflow, and every verdict is
    # relative: a 1e-10 Jordan block reads as the unit one, not as zero.
    n_path = _write(tmp_path, "N.mat", 1e-170 * (1.0 + 1.0j) * np.eye(2))
    rpt = tmp_path / "r.json"
    assert main(["decompose", n_path, "--json", str(rpt)]) == 0
    results = _read_report(rpt)["results"]
    assert results["re_norm"] == pytest.approx(np.sqrt(2.0) * 1e-170, rel=1e-15)
    assert results["im_norm"] == pytest.approx(np.sqrt(2.0) * 1e-170, rel=1e-15)
    assert results["flags"]["normal"] and not results["flags"]["zero"]
    j_path = _write(tmp_path, "J.mat", 1e-10 * np.array([[0.0, 1.0], [0.0, 0.0]]))
    assert main(["zero-square", j_path, "--json", str(rpt)]) == 0
    results = _read_report(rpt)["results"]
    assert set(results["hypotheses"].values()) == {"fails"}
    assert not results["conclusion_zero"] and results["violation"] is None
    assert results["re_indefinite"] and results["im_indefinite"]


def test_cli_classify_default_target_overflow_exits_1(tmp_path):
    # T^2 of diag(1e160, 2e160) overflows: one line on stderr, no warning.
    import os
    import subprocess
    import sys
    from pathlib import Path

    t_path = _write(tmp_path, "T.mat", np.diag([1e160, 2e160]).astype(complex))
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run(
        [sys.executable, "-W", "error::RuntimeWarning", "-m", "normalroots.cli", "classify", t_path],
        capture_output=True, text=True, env=env, check=False,
    )
    assert proc.returncode == 1
    assert proc.stdout == ""
    assert proc.stderr == "normalroots: default target T^2 overflows\n"


def test_cli_classify_overflowing_square_exits_1(tmp_path):
    # T^2 = diag(1e320, 4e320) is not the target diag(1e300, 4e300); the
    # precondition is checked on T / 2^e, with no overflow and no warning.
    import os
    import subprocess
    import sys
    from pathlib import Path

    t_path = _write(tmp_path, "T.mat", np.diag([1e160, 2e160]).astype(complex))
    c_path = _write(tmp_path, "C.mat", np.diag([1e300, 4e300]).astype(complex))
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run(
        [sys.executable, "-W", "error::RuntimeWarning", "-m", "normalroots.cli", "classify",
         t_path, "--target", c_path],
        capture_output=True, text=True, env=env, check=False,
    )
    assert proc.returncode == 1
    assert proc.stdout == ""
    assert proc.stderr == "normalroots: precondition T^2 = C fails beyond residual tolerance\n"


def _cli_under_warning_errors(*argv):
    """The CLI in a fresh process with every RuntimeWarning an error."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    return subprocess.run(
        [sys.executable, "-W", "error::RuntimeWarning", "-m", "normalroots.cli", *map(str, argv)],
        capture_output=True, text=True, env=env, check=False,
    )


def test_cli_decompose_at_the_float_limit(tmp_path):
    # T + T* of diag(1e308, 1e308) overflows; the parts are taken on T / 2^e
    # and scaled back exactly, so they and their norms are finite.
    T = np.diag([1e308, 1e308]).astype(complex)
    t_path = _write(tmp_path, "T.mat", T)
    re_path, im_path, rpt = tmp_path / "re.mat", tmp_path / "im.mat", tmp_path / "r.json"
    proc = _cli_under_warning_errors("decompose", t_path, "--out-re", re_path,
                                     "--out-im", im_path, "--json", rpt)
    assert proc.returncode == 0, proc.stderr
    assert np.array_equal(load_matrix(re_path), T)
    assert np.array_equal(load_matrix(im_path), np.zeros((2, 2)))
    results = _read_report(rpt)["results"]
    assert results["re_norm"] == pytest.approx(np.sqrt(2.0) * 1e308, rel=1e-15)
    assert results["im_norm"] == 0.0
    assert results["flags"]["hermitian"] and results["flags"]["psd"]


@pytest.mark.parametrize("phase, case", [(1.0, "selfadjoint_invertible"),
                                         (1j, "skew_invertible")])
def test_cli_classify_default_target_at_small_scale(tmp_path, phase, case):
    # T @ T of diag(1e-160, 2e-160) is subnormal and fails the precondition;
    # the default target is formed on T / 2^e instead.
    t_path = _write(tmp_path, "T.mat", phase * np.diag([1e-160, 2e-160]))
    rpt = tmp_path / "r.json"
    proc = _cli_under_warning_errors("classify", t_path, "--json", rpt)
    assert proc.returncode == 0, proc.stderr
    results = _read_report(rpt)["results"]
    assert (results["case"], results["violation"]) == (case, None)
    assert results["residual"] == 0.0 and results["system_residuals"] == [0.0, 0.0]


@pytest.mark.parametrize("k", [-530, -40, 40, 500])
def test_cli_classify_default_target_residuals_in_the_units_of_T(tmp_path, k):
    # 2^k T reports 2^k times the residual of T and 2^(2k) times its system
    # residuals, bit for bit (each rounded once where it underflows).
    K = np.array([[0.0, 1.0], [1.0, 0.0]])
    T = np.diag([1.0, 2.0]) + 1e-12j * K
    reports = []
    for scale in (0, k):
        path = _write(tmp_path, f"T{scale}.mat", np.ldexp(T.real, scale) + 1j * np.ldexp(T.imag, scale))
        rpt = tmp_path / f"r{scale}.json"
        assert main(["classify", path, "--json", str(rpt)]) == 0
        reports.append(_read_report(rpt)["results"])
    base, scaled = reports
    assert base["case"] == scaled["case"] == "selfadjoint_invertible"
    assert base["residual"] > 0.0 and base["system_residuals"][1] > 0.0
    assert scaled["residual"] == float(np.ldexp(base["residual"], k))
    assert scaled["system_residuals"] == [float(np.ldexp(r, 2 * k)) for r in base["system_residuals"]]


def test_cli_sylvester_at_the_float_limit(tmp_path):
    # a X - X b - s overflows to inf - inf here; the residual is taken on the
    # scaled problem, so it is finite and the solution X = 2I exact.
    paths = [_write(tmp_path, f"{name}.mat", np.diag(d).astype(complex)) for name, d in
             (("a", [1.5e308, 1.7e308]), ("b", [1e308, 1.2e308]), ("s", [1e308, 1e308]))]
    out, rpt = tmp_path / "x.mat", tmp_path / "r.json"
    proc = _cli_under_warning_errors("sylvester", "--a", paths[0], "--b", paths[1],
                                     "--s", paths[2], "--out", out, "--json", rpt)
    assert proc.returncode == 0, proc.stderr
    assert np.array_equal(load_matrix(out), 2.0 * np.eye(2))
    results = _read_report(rpt)["results"]
    assert 0.0 <= results["residual"] <= 1e-15 * 1e308
    assert results["solution_norm"] == fro(2.0 * np.eye(2))


@pytest.mark.parametrize("argv, matrices, message", [
    (["sylvester", "--a", "a.mat", "--b", "b.mat", "--s", "s.mat", "--out", "x.mat"],
     {"a": np.diag([1e-300, 2e-300]), "b": np.diag([-1e-300, -2e-300]), "s": 1e300 * np.eye(2)},
     "normalroots: the Sylvester solution X overflows the float range\n"),
    (["sylvester", "--a", "a.mat", "--b", "b.mat", "--s", "s.mat", "--out", "x.mat"],
     {"a": np.diag([1e300, 2e300]), "b": np.diag([-1e300, -2e300]), "s": 1e-300 * np.eye(2)},
     "normalroots: the Sylvester solution X underflows the float range\n"),
    (["exp-periodicity", "a.mat", "--k", "1"], {"a": np.full((2, 2), 1e308)},
     "normalroots: A has an eigenvalue past the float range: e^{iA} is not computable\n"),
    (["exp-periodicity", "a.mat", "--k", str(10**307)], {"a": np.array([[1.7e308]])},
     "normalroots: A + 2 pi k I has an eigenvalue past the float range: "
     "e^{i(A + 2k pi I)} is not computable\n"),
], ids=["sylvester", "sylvester-underflow", "exp-periodicity", "exp-periodicity-shifted"])
def test_cli_result_past_the_float_range_exits_1(tmp_path, argv, matrices, message):
    # Without the checks these exited 0 with inf, NaN or 0 entries and a NaN
    # residual or one as large as s, or stopped on a RuntimeWarning under
    # -W error.
    for name, M in matrices.items():
        _write(tmp_path, f"{name}.mat", M.astype(complex))
    argv = [str(tmp_path / a) if a.endswith(".mat") else a for a in argv]
    proc = _cli_under_warning_errors(*argv, "--json", tmp_path / "r.json")
    assert (proc.returncode, proc.stderr) == (1, message)
    assert not (tmp_path / "x.mat").exists() and not (tmp_path / "r.json").exists()
