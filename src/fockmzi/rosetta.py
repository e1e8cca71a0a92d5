"""N-qubit state-vector simulator for the circuit picture of phase estimation,
cross-validated against the Fock simulator, whose side is the noon scheme
exactly as `schemes.build_setup` wires it.

Qubit k maps to bit position n-1-k of the basis index, so the bitstring
q0 q1 ... q(n-1) reads left to right.  |0> on a qubit plays the role of the
photon taking arm A; |1> the photon taking arm B.
"""

import math

import numpy as np

from .estimation import phase_sweep
from .fock import ReadOnly
from .schemes import build_setup
from .states import SchemeTag

MAX_QUBITS = 14

_HADAMARD = np.array([[1.0, 1.0], [1.0, -1.0]], dtype=np.complex128) / math.sqrt(2.0)


class QubitRegister(ReadOnly):
    __slots__ = ("n_qubits", "amplitudes")

    def __init__(self, n_qubits: int, amplitudes: np.ndarray):
        if not 1 <= n_qubits <= MAX_QUBITS:
            raise ValueError(f"qubit count must be in [1, {MAX_QUBITS}], got {n_qubits}")
        amps = np.asarray(amplitudes, dtype=np.complex128)
        if amps.shape != (2**n_qubits,):
            raise ValueError(f"need {2**n_qubits} amplitudes, got shape {amps.shape}")
        amps = amps.copy()
        amps.setflags(write=False)
        self._fill(n_qubits=n_qubits, amplitudes=amps)


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


def _checked_support(support, n_qubits: int) -> np.ndarray:
    idx = np.asarray(support)
    if idx.ndim != 1 or idx.dtype.kind not in "iu" or np.any(np.diff(idx, prepend=-1, append=2**n_qubits) <= 0):
        raise ValueError(f"a support must be strictly increasing basis indices in [0, {2**n_qubits}), got {support!r}")
    return idx


def collective_phase(reg: QubitRegister, support, phis) -> np.ndarray:
    """Phase gate on every qubit, one row per phase: each |1> picks up e^{i phi}.

    Row j of the (p, |support|) result is reg's amplitudes at the support indices after
    the gates at phis[j], gate k multiplying by e^{i phi} where bit k is set and by exactly
    1 elsewhere.  Phase gates are diagonal, so a support that holds every nonzero amplitude
    holds the whole phased register.
    """
    support = _checked_support(support, reg.n_qubits)
    phases = np.exp(1j * np.asarray(phis, dtype=float))
    if phases.ndim != 1:
        raise ValueError(f"need a 1-D array of phases, got shape {phases.shape}")
    block = np.tile(reg.amplitudes[support], (phases.size, 1))
    for k in range(reg.n_qubits):
        # out of place, amplitude first, as the per-gate circuit: numpy rounds `*=` on one element differently,
        # and `*` on a temporary of 256 KB or more reuses it as the output with the operands swapped
        block = np.multiply(block, np.where(support & _bit(reg, k), phases[:, None], 1.0))
    return block


def expect_flip_product(block: np.ndarray, support, n_qubits: int) -> np.ndarray:
    """<X x X x ... x X>, the all-qubit flip correlator, of each row of a (p, |support|) block.

    Flipping every qubit maps basis index i to i ^ (2**n - 1) = 2**n - 1 - i.  Only entries
    whose partner is on the support too contribute; in increasing order, their partners are
    those entries reversed.
    """
    support = _checked_support(support, n_qubits)
    if np.ndim(block) != 2 or np.shape(block)[1] != support.size:
        raise ValueError(f"need a (p, {support.size}) block of amplitudes, got shape {np.shape(block)}")
    paired = np.isin(support ^ (2**n_qubits - 1), support)
    return np.array([np.vdot(row, row[::-1]).real for row in np.asarray(block)[:, paired]])


def flip_expectations(n: int, phi_grid) -> tuple[np.ndarray, np.ndarray]:
    """<flip> after a collective phase, from the qubit circuit and from the Fock simulator.

    Both evaluate cos(N phi), through independent code: the GHZ register, prepared once through
    its gates, then phased and read on its support (|0...0> and |1...1>) one row per grid point,
    and one batched sweep of the noon scheme's setup, as `sensitivity --scheme noon` runs it.
    """
    grid = np.asarray(phi_grid, dtype=float)
    ghz = ghz_prepare(n)
    support = np.flatnonzero(ghz.amplitudes)
    setup = build_setup(SchemeTag("noon", n))
    fock_values = phase_sweep(setup.analysis, setup.input_state, setup.observable, grid)[0]
    return expect_flip_product(collective_phase(ghz, support, grid), support, n), fock_values
