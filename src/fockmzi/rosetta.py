"""N-qubit state-vector simulator for the circuit picture of phase estimation,
cross-validated against the Fock simulator, whose side is the noon scheme
exactly as `schemes.build_setup` wires it.

Qubit k maps to bit position n-1-k of the basis index, so the bitstring
q0 q1 ... q(n-1) reads left to right.  |0> on a qubit plays the role of the
photon taking arm A; |1> the photon taking arm B.
"""

import math
from dataclasses import dataclass

import numpy as np

from .estimation import phase_sweep
from .schemes import build_setup
from .states import SchemeTag

MAX_QUBITS = 14
# amplitudes per block of rows in flip_expectations: 256 KB of complex128
_BLOCK_ENTRIES = 2**14

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


def collective_phase(block: np.ndarray, phis) -> np.ndarray:
    """Phase gate on every qubit, in place: each |1> picks up e^{i phi}.

    On a C-ordered complex (p, 2**n) block of amplitude rows and p phases,
    row j is phased by phis[j], gate by gate: one multiply per qubit over the
    amplitudes whose bit k is set.  The block is returned.
    """
    phases = np.exp(1j * np.asarray(phis, dtype=float))
    if not (isinstance(block, np.ndarray) and block.dtype == np.complex128 and block.ndim == 2
            and block.flags.c_contiguous and block.flags.writeable):
        raise ValueError("a block of rows must be a writable C-ordered complex128 (p, 2**n) array")
    p, size = block.shape
    n = size.bit_length() - 1
    if size != 2**n or not 1 <= n <= MAX_QUBITS or phases.shape != (p,):
        raise ValueError(f"need p rows of 2**n amplitudes (1 <= n <= {MAX_QUBITS}) and p phases, "
                         f"got {block.shape} rows and {phases.shape} phases")
    for k in range(n):
        block.reshape(p, 2**k, 2, -1)[:, :, 1] *= phases[:, None, None]
    return block


def expect_flip_product(block: np.ndarray) -> np.ndarray:
    """<X x X x ... x X>, the all-qubit flip correlator, of each row of a (p, 2**n) block of amplitudes.

    Flipping every qubit maps basis index i to i ^ (2**n - 1) = 2**n - 1 - i,
    so the flipped amplitudes are the reversed ones.
    """
    return np.array([np.vdot(row, row[::-1]).real for row in block])


def flip_expectations(n: int, phi_grid) -> tuple[np.ndarray, np.ndarray]:
    """<flip> after a collective phase, from the qubit circuit and from the Fock simulator.

    The GHZ flip-product expectation after a collective phase and the Fock
    expectation of the flip observable on the phase-evolved path-entangled
    state both evaluate cos(N phi), through independent code.  The GHZ
    register is prepared once and copied into one row per grid point, a
    block of rows of at most _BLOCK_ENTRIES amplitudes at a time, where the
    phase gates run in place; the Fock side is one batched sweep of the
    noon scheme's setup, as `sensitivity --scheme noon` runs it.
    """
    grid = np.asarray(phi_grid, dtype=float)
    ghz = ghz_prepare(n).amplitudes
    block = np.empty((max(1, min(grid.size, _BLOCK_ENTRIES // ghz.size)), ghz.size), dtype=np.complex128)
    qubit_values = np.empty(grid.size)
    for start in range(0, grid.size, block.shape[0]):
        phis = grid[start:start + block.shape[0]]
        rows = block[:phis.size]
        rows[:] = ghz
        qubit_values[start:start + phis.size] = expect_flip_product(collective_phase(rows, phis))
    setup = build_setup(SchemeTag("noon", n))
    fock_values = phase_sweep(setup.analysis, setup.input_state, setup.observable, grid)[0]
    return qubit_values, fock_values
