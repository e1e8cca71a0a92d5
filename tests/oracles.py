"""Reference implementations that only the tests use: the dense and per-point forms
that the batched command paths are compared against."""

import math
from dataclasses import dataclass

import numpy as np

from fockmzi.elements import BALANCED, ONE_ARM, InterferometerPipeline, _splitter_block, phase_exponent
from fockmzi.estimation import _divergent
from fockmzi.fock import BlockObservable, BlockUnitary, TwoModeState, j_bands, make_basis_state
from fockmzi.lithography import DepositionCurve, InsufficientGridError
from fockmzi.rosetta import QubitRegister, _bit
from fockmzi.states import coherent_amplitudes

NUMBER_MODES = ("a", "b", "total")


# ---------------------------------------------------------------- dense operators and per-state reductions

def j_observable(axis: str, cutoff: int) -> BlockObservable:
    """Schwinger operator assembled over every block up to the cutoff."""
    return BlockObservable({n: j_bands(axis, n) for n in range(cutoff + 1)})


def number_observable(mode: str, cutoff: int) -> BlockObservable:
    """Photon-number operator for mode 'a', mode 'b', or 'total'."""
    if mode not in NUMBER_MODES:
        raise ValueError(f"unknown mode {mode!r}, expected one of {NUMBER_MODES}")
    blocks = {}
    for n in range(cutoff + 1):
        n_b = np.arange(n + 1)
        diag = {"a": n - n_b, "b": n_b, "total": np.full(n + 1, n)}[mode]
        blocks[n] = {0: diag}
    return BlockObservable(blocks)


def spectral_exponential(observable: BlockObservable, scale: float) -> BlockUnitary:
    """exp(i * scale * H) per block, via eigendecomposition of the Hermitian block."""
    blocks = {}
    for n in observable.blocks:
        w, v = np.linalg.eigh(observable.dense(n))
        blocks[n] = (v * np.exp(1j * scale * w)) @ v.conj().T
    return BlockUnitary(blocks)


def apply(unitary: BlockUnitary, state: TwoModeState) -> TwoModeState:
    """Per-block matrix-vector product; preserves the norm and the populated blocks."""
    out = {}
    for n, vec in state.blocks.items():
        mat = unitary.blocks.get(n)
        if mat is None:
            raise ValueError(f"unitary has no block for total photon number {n}")
        out[n] = mat @ vec
    return TwoModeState(out)


def expectation(observable: BlockObservable, state: TwoModeState) -> float:
    """<s|A|s>; the imaginary part (below 1e-12 for Hermitian A) is discarded."""
    val = 0j
    for n, vec in state.blocks.items():
        val += np.vdot(vec, observable.apply_block(n, vec))
    return float(val.real)


def variance(observable: BlockObservable, state: TwoModeState) -> float:
    """<A^2> - <A>^2, evaluated as ||(A - <A>)|s>||^2, a sum of squares.

    The residual form avoids the cancellation of the textbook difference of
    moments near eigenstates, where <A^2> and <A>^2 nearly coincide.
    """
    mean = expectation(observable, state)
    total = 0.0
    for n, vec in state.blocks.items():
        resid = observable.apply_block(n, vec) - mean * vec
        total += float(np.vdot(resid, resid).real)
    return total


# ---------------------------------------------------------------- whole-cutoff elements

def beam_splitter(theta: float, cutoff: int) -> BlockUnitary:
    """Beam splitter exp(i theta J_x) on every block up to the cutoff; theta = pi/2
    is the 50/50 splitter.  Identical to spectral_exponential(j_observable('x', cutoff), theta)."""
    return BlockUnitary({n: _splitter_block(theta, n) for n in range(cutoff + 1)})


def phase_shifter(phi: float, convention: str, cutoff: int) -> BlockUnitary:
    """Phase shifter: exp(i phi J_z) for 'symmetric', exp(i phi n_b) for 'one-arm'."""
    return BlockUnitary({n: np.diag(np.exp(1j * phi * phase_exponent(convention, n))) for n in range(cutoff + 1)})


# ---------------------------------------------------------------- port states

def single_port_fock(n: int) -> TwoModeState:
    """All N photons in port A, vacuum in port B."""
    return make_basis_state(n, 0)


def coherent_vacuum(alpha: complex, cutoff: int, tail_tol: float = 1e-12) -> TwoModeState:
    """Coherent state in port A, vacuum in port B, truncated and renormalized (see coherent_amplitudes)."""
    blocks = {}
    for k, amp in enumerate(coherent_amplitudes(alpha, cutoff, tail_tol)):
        vec = np.zeros(k + 1, dtype=np.complex128)
        vec[0] = amp  # photon count k all in mode a
        blocks[k] = vec
    return TwoModeState(blocks)


# ---------------------------------------------------------------- per-point sensitivity

def phase_derivative(state: TwoModeState, observable: BlockObservable, generator: BlockObservable) -> float:
    """Exact d<A>/dphi for evolution exp(i phi G): the expectation of i[A, G], -2 Im <A psi|G psi>."""
    val = 0.0
    for n, vec in state.blocks.items():
        val -= 2.0 * np.vdot(observable.apply_block(n, vec), generator.apply_block(n, vec)).imag
    return float(val)


def sensitivity(state: TwoModeState, observable: BlockObservable, generator: BlockObservable) -> float:
    """Error-propagation phase uncertainty sqrt(Var A) / |d<A>/dphi|.

    The state must already be evolved to the working phase.  Divergence is a
    value, not an error: +inf is returned where the derivative magnitude is at
    most 1e-14 ||A|| ||G||, where it cannot be told from roundoff.
    """
    deriv = abs(phase_derivative(state, observable, generator))
    bounds = [max((op.norm_bound(n) for n in state.blocks), default=0.0) for op in (observable, generator)]
    if _divergent(deriv, *bounds):
        return math.inf
    return math.sqrt(variance(observable, state)) / deriv


def noon_fidelity(out_state, n: int) -> float:
    """Phase-free overlap with the N00N family: (|c_{N,0}| + |c_{0,N}|)^2 / 2."""
    top = abs(out_state.amplitude(n, 0))
    bottom = abs(out_state.amplitude(0, n))
    return (top + bottom) ** 2 / 2.0


# ---------------------------------------------------------------- pipelines from the input port

@dataclass(frozen=True)
class PortPipeline:
    """A pipeline that takes port states: `first` is applied before the phase stage."""

    first: BlockUnitary
    pipeline: InterferometerPipeline

    def evolve(self, state: TwoModeState, phi: float) -> TwoModeState:
        return self.pipeline.evolve(apply(self.first, state), phi)

    def output_generator(self, cutoff: int) -> BlockObservable:
        return self.pipeline.output_generator(cutoff)


def mach_zehnder_pipeline(cutoff: int, convention: str = ONE_ARM, invert_second_bs: bool = False) -> PortPipeline:
    """Balanced splitter, phase, balanced splitter; the second splitter optionally inverted."""
    second = beam_splitter(-BALANCED if invert_second_bs else BALANCED, cutoff)
    return PortPipeline(beam_splitter(BALANCED, cutoff), InterferometerPipeline(convention, after=second))


# ---------------------------------------------------------------- register and loop forms of the qubit and lithography paths

def phase_gate(reg: QubitRegister, k: int, phi: float) -> QubitRegister:
    """diag(1, e^{i phi}) on qubit k."""
    _bit(reg, k)
    factor = np.array([[1.0], [np.exp(1j * phi)]])  # indexed by the value of bit k
    return QubitRegister(reg.n_qubits, (reg.amplitudes.reshape(2**k, 2, -1) * factor).reshape(-1))


def register_collective_phase(reg: QubitRegister, phi: float) -> QubitRegister:
    """collective_phase on one register: one phase_gate per qubit."""
    for k in range(reg.n_qubits):
        reg = phase_gate(reg, k, phi)
    return reg


def register_flip_product(reg: QubitRegister) -> float:
    """expect_flip_product of one register: the overlap with its reversed amplitudes."""
    amps = reg.amplitudes
    return float(np.vdot(amps, amps[::-1]).real)


def expect_flip_sum(reg: QubitRegister) -> float:
    """<sum_k X_k>: total of the single-qubit flip observables."""
    amps = reg.amplitudes
    idx = np.arange(amps.size)
    total = 0.0
    for k in range(reg.n_qubits):
        total += float(np.vdot(amps, amps[idx ^ (1 << (reg.n_qubits - 1 - k))]).real)
    return total


def fringe_period_loop(curve: DepositionCurve) -> float:
    """fringe_period one grid point at a time: each interior maximum refined by
    a three-point quadratic fit, the period the mean distance between them."""
    x, r = curve.x_grid, curve.rate
    peaks = []
    for i in range(1, x.size - 1):
        if r[i] >= r[i - 1] and r[i] > r[i + 1]:
            denom = r[i - 1] - 2.0 * r[i] + r[i + 1]
            if denom >= 0.0:
                continue
            offset = 0.5 * (r[i - 1] - r[i + 1]) / denom
            peaks.append(x[i] + offset * (x[i + 1] - x[i]))
    if len(peaks) < 2:
        raise InsufficientGridError(f"found {len(peaks)} maxima; the grid must span at least two periods")
    return float(np.mean(np.diff(peaks)))
