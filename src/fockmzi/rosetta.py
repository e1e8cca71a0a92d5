"""N-qubit state-vector simulator for the circuit picture of phase estimation,
cross-validated against the Fock simulator.

Qubit k maps to bit position n-1-k of the basis index, so the bitstring
q0 q1 ... q(n-1) reads left to right.  |0> on a qubit plays the role of the
photon taking arm A; |1> the photon taking arm B.
"""

import math
from dataclasses import dataclass

import numpy as np

from .elements import ONE_ARM, InterferometerPipeline
from .estimation import observable_noon_flip, phase_sweep
from .states import noon

MAX_QUBITS = 14

_HADAMARD = np.array([[1.0, 1.0], [1.0, -1.0]], dtype=np.complex128) / math.sqrt(2.0)


@dataclass(frozen=True)
class QubitRegister:
    n_qubits: int
    amplitudes: np.ndarray

    def __post_init__(self):
        if not 1 <= self.n_qubits <= MAX_QUBITS:
            raise ValueError(f"qubit count must be in [1, {MAX_QUBITS}], got {self.n_qubits}")
        amps = np.asarray(self.amplitudes, dtype=np.complex128)
        if amps.shape != (2**self.n_qubits,):
            raise ValueError(f"need {2**self.n_qubits} amplitudes, got shape {amps.shape}")
        amps = amps.copy()
        amps.setflags(write=False)
        object.__setattr__(self, "amplitudes", amps)

    def norm(self) -> float:
        return float(np.linalg.norm(self.amplitudes))


def zero_register(n_qubits: int) -> QubitRegister:
    amps = np.zeros(2**n_qubits, dtype=np.complex128)
    amps[0] = 1.0
    return QubitRegister(n_qubits, amps)


def _bit(reg: QubitRegister, k: int) -> int:
    if not 0 <= k < reg.n_qubits:
        raise ValueError(f"qubit index {k} out of range for {reg.n_qubits} qubits")
    return 1 << (reg.n_qubits - 1 - k)


def _apply_single(reg: QubitRegister, k: int, gate: np.ndarray) -> QubitRegister:
    t = reg.amplitudes.reshape((2,) * reg.n_qubits)
    t = np.moveaxis(np.tensordot(gate, np.moveaxis(t, k, 0), axes=([1], [0])), 0, k)
    return QubitRegister(reg.n_qubits, t.reshape(-1))


def hadamard(reg: QubitRegister, k: int) -> QubitRegister:
    _bit(reg, k)
    return _apply_single(reg, k, _HADAMARD)


def phase_gate(reg: QubitRegister, k: int, phi: float) -> QubitRegister:
    """diag(1, e^{i phi}) on qubit k."""
    _bit(reg, k)
    factor = np.array([[1.0], [np.exp(1j * phi)]])  # indexed by the value of bit k
    return QubitRegister(reg.n_qubits, (reg.amplitudes.reshape(2**k, 2, -1) * factor).reshape(-1))


def cnot(reg: QubitRegister, control: int, target: int) -> QubitRegister:
    if control == target:
        raise ValueError("control and target must differ")
    cmask, tmask = _bit(reg, control), _bit(reg, target)
    idx = np.arange(reg.amplitudes.size)
    perm = np.where(idx & cmask, idx ^ tmask, idx)
    return QubitRegister(reg.n_qubits, reg.amplitudes[perm])


def ghz_prepare(n: int) -> QubitRegister:
    """(|0...0> + |1...1>)/sqrt(2) from a Hadamard and a CNOT chain."""
    reg = hadamard(zero_register(n), 0)
    for k in range(1, n):
        reg = cnot(reg, 0, k)
    return reg


def collective_phase(reg: QubitRegister, phi: float) -> QubitRegister:
    """Phase gate on every qubit: each |1> picks up e^{i phi}."""
    for k in range(reg.n_qubits):
        reg = phase_gate(reg, k, phi)
    return reg


def expect_flip_product(reg: QubitRegister) -> float:
    """<X x X x ... x X>: the all-qubit flip correlator."""
    amps = reg.amplitudes
    flipped = amps[np.arange(amps.size) ^ (amps.size - 1)]
    return float(np.vdot(amps, flipped).real)


def expect_flip_sum(reg: QubitRegister) -> float:
    """<sum_k X_k>: total of the single-qubit flip observables."""
    amps = reg.amplitudes
    idx = np.arange(amps.size)
    total = 0.0
    for k in range(reg.n_qubits):
        total += float(np.vdot(amps, amps[idx ^ _bit(reg, k)]).real)
    return total


def flip_expectations(n: int, phi_grid) -> tuple[np.ndarray, np.ndarray]:
    """<flip> after a collective phase, from the qubit circuit and from the Fock simulator.

    The GHZ flip-product expectation after a collective phase and the Fock
    expectation of the flip observable on the phase-evolved path-entangled
    state both evaluate cos(N phi), through independent code.  The GHZ
    register is prepared once and the phase gates run per grid point; the
    Fock side is one batched sweep of the canonical interferometer.
    """
    grid = np.asarray(phi_grid, dtype=float)
    ghz = ghz_prepare(n)
    qubit_values = np.array([expect_flip_product(collective_phase(ghz, phi)) for phi in grid])
    fock_values = phase_sweep(InterferometerPipeline(ONE_ARM), noon(n, 0.0, n), observable_noon_flip(n), grid)[0]
    return qubit_values, fock_values
