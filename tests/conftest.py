from dataclasses import dataclass

import numpy as np
import pytest


@pytest.fixture
def rng():
    return np.random.default_rng(20260823)


@dataclass
class Solve:
    """One call of linalg._jacobi."""

    engine: str  # "serial" (sweep _cyclic_sweep) or "stacked" (_round_robin_sweep)
    members: int  # matrices in the call: 1 for the serial engine
    hermitian: bool  # every member handed in exactly Hermitian, bit for bit
    sweeps: int = 0  # calls of _cyclic_sweep (serial solves only)


class SolveLog:
    """The eigensolves of the code under test, read at the engines: every
    call of linalg._jacobi (``solves``), of linalg._eigvals (``values``) and
    of the sign test linalg._psd_within (``cholesky``, one Cholesky attempt
    at most), whichever public function or internal caller made it."""

    def __init__(self):
        self.solves: list[Solve] = []
        self.values = 0
        self.cholesky = 0

    def counts(self) -> dict:
        """Serial solves of exactly Hermitian matrices ("hermitian") and of
        any other, i.e. normal, ones ("normal"), stacked calls ("stacked"),
        values-only solves ("values") and sign tests ("cholesky")."""
        serial = [s.hermitian for s in self.solves if s.engine == "serial"]
        return {
            "hermitian": sum(serial),
            "normal": len(serial) - sum(serial),
            "stacked": len(self.solves) - len(serial),
            "values": self.values,
            "cholesky": self.cholesky,
        }

    def sweeps(self) -> list:
        """Sweeps of each serial solve, in call order."""
        return [s.sweeps for s in self.solves if s.engine == "serial"]

    def clear(self) -> None:
        self.solves.clear()
        self.values = 0
        self.cholesky = 0


@pytest.fixture
def solve_log(monkeypatch) -> SolveLog:
    """A SolveLog of everything run while the test runs: linalg._jacobi,
    linalg._cyclic_sweep, linalg._eigvals and linalg._psd_within are wrapped
    in every package module that binds them."""
    from normalroots import cli, linalg, roots, theoremlab

    log = SolveLog()
    jacobi, cyclic, round_robin, eigvals, psd_within = (
        linalg._jacobi, linalg._cyclic_sweep, linalg._round_robin_sweep, linalg._eigvals,
        linalg._psd_within,
    )

    def counted_sweep(*args):
        log.solves[-1].sweeps += 1
        return cyclic(*args)

    def counted_jacobi(A, e, sweep):
        if sweep is counted_sweep:
            engine = "serial"
        elif sweep is round_robin:
            engine = "stacked"
        else:
            raise AssertionError(f"_jacobi called with an unwrapped sweep {sweep!r}")
        # Read before the call: _jacobi rotates A in place.
        hermitian = bool(np.array_equal(A, A.conj().swapaxes(-1, -2)))
        log.solves.append(Solve(engine, len(A) if A.ndim == 3 else 1, hermitian))
        return jacobi(A, e, sweep)

    def counted_eigvals(*args, **kwargs):
        log.values += 1
        return eigvals(*args, **kwargs)

    def counted_psd_within(*args, **kwargs):
        log.cholesky += 1
        return psd_within(*args, **kwargs)

    for name, wrapper in (("_jacobi", counted_jacobi), ("_cyclic_sweep", counted_sweep),
                          ("_eigvals", counted_eigvals), ("_psd_within", counted_psd_within)):
        for module in (linalg, roots, theoremlab, cli):
            if hasattr(module, name):
                monkeypatch.setattr(module, name, wrapper)
    return log
