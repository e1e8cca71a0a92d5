"""Reference implementations that only the tests use."""

import numpy as np

from fockmzi.rosetta import QubitRegister


def expect_flip_sum(reg: QubitRegister) -> float:
    """<sum_k X_k>: total of the single-qubit flip observables."""
    amps = reg.amplitudes
    idx = np.arange(amps.size)
    total = 0.0
    for k in range(reg.n_qubits):
        total += float(np.vdot(amps, amps[idx ^ (1 << (reg.n_qubits - 1 - k))]).real)
    return total
