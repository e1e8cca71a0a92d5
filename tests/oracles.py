"""Reference implementations that only the tests use: the dense and per-point forms
that the batched command paths are compared against, the readings of a state,
an observable or a register that no command needs, and the closed forms that
acceptance criteria 01 (1/sqrt(N) for independent trials) and 09 (no single
splitter makes a N00N state beyond two photons) are stated on."""

import math
from dataclasses import dataclass

import numpy as np

from fockmzi.elements import (
    BALANCED,
    ONE_ARM,
    SYMMETRIC,
    InterferometerPipeline,
    _jx_eigensystem,
    _splitter_block,
    phase_exponent,
)
from fockmzi.estimation import _divergent
from fockmzi.fock import BlockObservable, BlockUnitary, TwoModeState, log_factorials, make_basis_state
from fockmzi.lithography import InsufficientGridError
from fockmzi.rosetta import QubitRegister, _bit

NUMBER_MODES = ("a", "b", "total")
_ENSEMBLE_SIN_TOL = 1e-12


# ---------------------------------------------------------------- readings of one state, observable or register

def amplitude(state: TwoModeState, n_a: int, n_b: int) -> complex:
    """The amplitude of |n_a, n_b>; 0 in a block the state does not populate."""
    if n_a < 0 or n_b < 0:
        raise ValueError(f"occupation ({n_a}, {n_b}) has a negative photon number")
    vec = state.blocks.get(n_a + n_b)
    return 0j if vec is None else complex(vec[n_b])


def norm(state: TwoModeState) -> float:
    return math.sqrt(sum(float(np.vdot(v, v).real) for v in state.blocks.values()))


def register_norm(reg: QubitRegister) -> float:
    return float(np.linalg.norm(reg.amplitudes))


def dense(observable: BlockObservable, n: int) -> np.ndarray:
    """Block n of an observable as an (n+1) x (n+1) matrix: each stored diagonal k and, for k > 0,
    its conjugate at offset -k."""
    mat = np.zeros((n + 1, n + 1), dtype=np.complex128)
    for k, diag in observable.blocks.get(n, {}).items():
        mat += np.diag(diag, k)
        if k > 0:
            mat += np.diag(diag.conj(), -k)
    return mat


def banded(mat: np.ndarray) -> dict[int, np.ndarray]:
    """The diagonals of a Hermitian matrix on and above the main one, offset -> diagonal:
    the block form BlockObservable takes."""
    return {k: np.diagonal(mat, k) for k in range(len(mat))}


# ---------------------------------------------------------------- dense operators and per-state reductions

def j_bands(axis: str, n: int) -> dict[int, np.ndarray]:
    """Block n of J_x = (a†b + b†a)/2 ('x') or J_y = -i(a†b - b†a)/2 ('y'), as its one stored
    diagonal, offset 1 -> diagonal, from the ladder elements
    <n_a+1, n_b-1|a†b|n_a, n_b> = sqrt((n_a+1) n_b)."""
    n_b = np.arange(1, n + 1)
    up = np.sqrt((n - n_b + 1) * n_b)
    return {"x": {1: up / 2.0}, "y": {1: -0.5j * up}}[axis]


def j_observable(axis: str, cutoff: int) -> BlockObservable:
    """Schwinger operator assembled over every block up to the cutoff: j_bands' 'x' and 'y',
    'z' from the symmetric phase exponent, or 'squared', J^2 = (n/2)(n/2 + 1) on block n."""
    if axis == "z":
        blocks = {n: {0: phase_exponent(SYMMETRIC, n)} for n in range(cutoff + 1)}
    elif axis == "squared":
        blocks = {n: {0: np.full(n + 1, (n / 2.0) * (n / 2.0 + 1.0))} for n in range(cutoff + 1)}
    else:
        blocks = {n: j_bands(axis, n) for n in range(cutoff + 1)}
    return BlockObservable(blocks)


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
        w, v = np.linalg.eigh(dense(observable, n))
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


def port_a(amplitudes) -> TwoModeState:
    """sum_k c_k |k,0>: photon-number amplitudes in port A, vacuum in port B."""
    blocks = {}
    for k, amp in enumerate(amplitudes):
        vec = np.zeros(k + 1, dtype=np.complex128)
        vec[0] = amp  # photon count k all in mode a
        blocks[k] = vec
    return TwoModeState(blocks)


def poisson_amplitudes(alpha: complex, cutoff: int) -> np.ndarray:
    """Photon-number amplitudes c_0..c_cutoff of |alpha> at any cutoff, renormalized:
    |c_k|^2 the Poisson weight e^-lam lam^k / k!, taken from its logarithm, and arg c_k = k arg alpha."""
    lam = abs(alpha) ** 2
    k = np.arange(cutoff + 1)
    if lam == 0.0:
        return (k == 0).astype(np.complex128)
    amps = np.exp((k * math.log(lam) - lam - log_factorials(cutoff)) / 2.0) * np.exp(1j * k * np.angle(alpha))
    return amps / np.linalg.norm(amps)


def coherent_vacuum(alpha: complex, cutoff: int) -> TwoModeState:
    """Coherent state in port A, vacuum in port B, truncated at the given cutoff and renormalized."""
    return port_a(poisson_amplitudes(alpha, cutoff))


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
    top = abs(amplitude(out_state, n, 0))
    bottom = abs(amplitude(out_state, 0, n))
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
        """The phase generator in the output frame, U_after G U_after†, on every block up to the
        cutoff: the evolved state obeys d|psi>/dphi = i (U_after G U_after†) |psi>."""
        blocks = {}
        for n in range(cutoff + 1):
            u = self.pipeline.after.blocks[n]
            m = (u * phase_exponent(self.pipeline.convention, n)) @ u.conj().T
            blocks[n] = banded((m + m.conj().T) / 2.0)  # re-hermitize roundoff
        return BlockObservable(blocks)


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


def fringe_period_loop(x: np.ndarray, r: np.ndarray) -> float:
    """fringe_period one grid point at a time: each interior maximum refined by
    a three-point quadratic fit, the period the mean distance between them."""
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


# ---------------------------------------------------------------- closed forms the acceptance criteria are stated on

def ensemble_sensitivity(n: int, phi: float) -> float:
    """Shot-noise uncertainty of N independent single-particle trials.

    The product-state model gives mean N cos(phi) and variance N sin^2(phi),
    so the sin(phi) factors cancel symbolically and the result is exactly
    1/sqrt(N) wherever the derivative does not vanish.
    """
    if n < 1:
        raise ValueError(f"trial count must be >= 1, got {n}")
    if abs(math.sin(phi)) <= _ENSEMBLE_SIN_TOL:
        return math.inf
    return 1.0 / math.sqrt(n)


def noon_fidelity_sweep(n_a: int, n_b: int, theta_grid) -> tuple[float, float]:
    """Best N00N fidelity reachable from |n_a, n_b> with one beam splitter.

    Sweeps the splitter angle over the grid and returns (best_theta,
    best_fidelity).  The splitter action is evaluated from the cached J_x
    eigensystem, so dense angle grids stay cheap.
    """
    if n_a < 0 or n_b < 0 or n_a + n_b < 1:
        raise ValueError(f"need at least one photon, got ({n_a}, {n_b})")
    n = n_a + n_b
    thetas = np.asarray(theta_grid, dtype=float)
    w, v = _jx_eigensystem(n)
    source = v.conj().T @ make_basis_state(n_a, n_b).blocks[n]
    edges = v[[0, n], :] * source[None, :]
    # amplitudes on |N,0> and |0,N> for every theta at once
    amps = edges @ np.exp(1j * np.outer(w, thetas))
    fidelity = (np.abs(amps[0]) + np.abs(amps[1])) ** 2 / 2.0
    best = int(np.argmax(fidelity))
    return float(thetas[best]), float(fidelity[best])
