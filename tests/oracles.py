"""Reference implementations that only the tests use: the dense and per-point forms
that the batched command paths are compared against, the readings of a state,
an observable or a register that no command needs, and the closed forms that
acceptance criteria 01 (1/sqrt(N) for independent trials) and 09 (no single
splitter makes a N00N state beyond two photons) are stated on, and the
Poisson tail mass that coherent truncation is checked against.

`src` holds each Fock-space value on one photon-number block.  Here a value
may span several, as a block map {n: block n}: a state's amplitude vectors, a
unitary's matrices, or an observable's one-block `BlockObservable`s.  Every
reading below accepts a `src` value or a block map, and reads each block
through `src`'s one-block form."""

import itertools
import math
from dataclasses import dataclass
from functools import lru_cache, partial

import numpy as np

from fockmzi.elements import (
    BALANCED,
    ONE_ARM,
    SYMMETRIC,
    InterferometerPipeline,
    _cross_ladder,
    phase_exponent,
    pulled_back_jz,
)
from fockmzi.estimation import (
    PosteriorDistribution,
    _divergent,
    _posterior,
    _sensitivity,
    classical_fisher,
)
from fockmzi.fock import BlockObservable, BlockUnitary, TwoModeState, block_labels, log_factorials, make_basis_state
from fockmzi.lithography import InsufficientGridError
from fockmzi.rosetta import QubitRegister, _bit
from fockmzi.schemes import SchemeSetup, build_setup
from fockmzi.states import COHERENT_CUTOFF_CAP, COHERENT_TAIL_TOL, SchemeTag, TruncationError, coherent_amplitudes

NUMBER_MODES = ("a", "b", "total")
PORT_A_SCHEMES = ("single-port-fock", "coherent")
_ENSEMBLE_SIN_TOL = 1e-12
_I_POWERS = np.array([1, 1j, -1, -1j])


# ---------------------------------------------------------------- block maps

def blocks(value) -> dict:
    """The block map of a Fock-space value: a src state's {n: amplitudes}, a src unitary's
    {n: matrix} or a src observable's {n: itself}, or a block map as it is."""
    if isinstance(value, TwoModeState):
        return {value.n: value.amplitudes}
    if isinstance(value, BlockUnitary):
        return {value.n: value.matrix}
    if isinstance(value, BlockObservable):
        return {value.n: value}
    return value


def like(state, out: dict):
    """out, a block map, as a TwoModeState where state is one."""
    return TwoModeState(out) if isinstance(state, TwoModeState) else out


def observable_map(bands: dict[int, dict[int, np.ndarray]]) -> dict[int, BlockObservable]:
    """The block map of an observable given as each block's {offset: diagonal}."""
    return {n: BlockObservable({n: block}) for n, block in bands.items()}


def observable_block(observable, n: int) -> BlockObservable:
    """Block n of an observable, src's or a block map; zero where it has no block n."""
    block = blocks(observable).get(n)
    return BlockObservable({n: {}}) if block is None else block


# ---------------------------------------------------------------- readings of one state, observable or register

def amplitude(state, n_a: int, n_b: int) -> complex:
    """The amplitude of |n_a, n_b>; 0 in a block the state does not populate."""
    if n_a < 0 or n_b < 0:
        raise ValueError(f"occupation ({n_a}, {n_b}) has a negative photon number")
    vec = blocks(state).get(n_a + n_b)
    return 0j if vec is None else complex(vec[n_b])


def norm(state) -> float:
    return math.sqrt(sum(float(np.vdot(v, v).real) for v in blocks(state).values()))


def probabilities(state) -> dict[tuple[int, int], float]:
    """TwoModeState.probabilities over every block of a state, block by block."""
    probs = {}
    for n, vec in blocks(state).items():
        probs.update(TwoModeState({n: vec}).probabilities())
    return probs


def register_norm(reg: QubitRegister) -> float:
    return float(np.linalg.norm(reg.amplitudes))


def dense(observable, n: int) -> np.ndarray:
    """Block n of an observable as an (n+1) x (n+1) matrix: each stored diagonal k and, for k > 0,
    its conjugate at offset -k."""
    mat = np.zeros((n + 1, n + 1), dtype=np.complex128)
    for k, diag in observable_block(observable, n).bands.items():
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


def j_observable(axis: str, cutoff: int) -> dict[int, BlockObservable]:
    """Schwinger operator as a block map over every block up to the cutoff: j_bands' 'x' and 'y',
    'z' from the symmetric phase exponent, or 'squared', J^2 = (n/2)(n/2 + 1) on block n."""
    if axis == "z":
        return observable_map({n: {0: phase_exponent(SYMMETRIC, n)} for n in range(cutoff + 1)})
    if axis == "squared":
        return observable_map({n: {0: np.full(n + 1, (n / 2.0) * (n / 2.0 + 1.0))} for n in range(cutoff + 1)})
    return observable_map({n: j_bands(axis, n) for n in range(cutoff + 1)})


def number_observable(mode: str, cutoff: int) -> dict[int, BlockObservable]:
    """Photon-number operator for mode 'a', mode 'b', or 'total', as a block map up to the cutoff."""
    if mode not in NUMBER_MODES:
        raise ValueError(f"unknown mode {mode!r}, expected one of {NUMBER_MODES}")
    bands = {}
    for n in range(cutoff + 1):
        n_b = np.arange(n + 1)
        bands[n] = {0: {"a": n - n_b, "b": n_b, "total": np.full(n + 1, n)}[mode]}
    return observable_map(bands)


def spectral_exponential(observable, scale: float) -> dict[int, np.ndarray]:
    """exp(i * scale * H) per block of an observable, via eigendecomposition of the Hermitian block."""
    mats = {}
    for n in blocks(observable):
        w, v = np.linalg.eigh(dense(observable, n))
        mats[n] = (v * np.exp(1j * scale * w)) @ v.conj().T
    return mats


def apply(unitary, state):
    """Per-block matrix-vector product; preserves the norm and the populated blocks, and returns a
    TwoModeState for one."""
    mats, out = blocks(unitary), {}
    for n, vec in blocks(state).items():
        if n not in mats:
            raise ValueError(f"unitary has no block for total photon number {n}")
        out[n] = mats[n] @ vec
    return like(state, out)


def expectation(observable, state) -> float:
    """<s|A|s>; the imaginary part (below 1e-12 for Hermitian A) is discarded."""
    val = 0j
    for n, vec in blocks(state).items():
        val += np.vdot(vec, observable_block(observable, n).apply(vec))
    return float(val.real)


def variance(observable, state) -> float:
    """<A^2> - <A>^2, evaluated as ||(A - <A>)|s>||^2, a sum of squares.

    The residual form avoids the cancellation of the textbook difference of
    moments near eigenstates, where <A^2> and <A>^2 nearly coincide.
    """
    mean = expectation(observable, state)
    total = 0.0
    for n, vec in blocks(state).items():
        resid = observable_block(observable, n).apply(vec) - mean * vec
        total += float(np.vdot(resid, resid).real)
    return total


# ---------------------------------------------------------------- the dense splitter

def _jx_eigensystem(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Eigenvalues and eigenvectors of block n of J_x = (a†b + b†a)/2, held dense and complex."""
    half = _cross_ladder(n) / 2.0
    jx = np.zeros((n + 1, n + 1), dtype=np.complex128)
    jx += np.diag(half, 1)
    jx += np.diag(half, -1)
    return np.linalg.eigh(jx)


@lru_cache(maxsize=1)  # an input's readout reuses the block its split just built
def _splitter_block(n: int) -> np.ndarray:
    """Block n of the 50/50 splitter exp(i BALANCED J_x), from the J_x eigensystem; read-only."""
    w, v = _jx_eigensystem(n)
    block = (v * np.exp(1j * BALANCED * w)) @ v.conj().T
    block.setflags(write=False)
    return block


def splitter_blocks(n: int) -> BlockUnitary:
    """The 50/50 splitter on block n, dense."""
    return BlockUnitary({n: _splitter_block(n)})


def split(state: TwoModeState) -> TwoModeState:
    """The state after the 50/50 splitter, its block rotated by the dense block of the splitter: the
    form src applied before its rotation columns."""
    return TwoModeState({state.n: _splitter_block(state.n) @ state.amplitudes})


def dense_sampling(setup: SchemeSetup) -> tuple[InterferometerPipeline, TwoModeState]:
    """The setup's sampling pipeline and input in the dense form src ran before its rotation columns:
    the input split by the dense splitter, and the dense splitter as U_after.  Other setups as they are."""
    if setup.analysis.before is None:
        return setup.sampling, setup.input_state
    return (InterferometerPipeline(setup.analysis.convention, splitter_blocks(setup.input_state.n)),
            split(setup.input_state))


# ---------------------------------------------------------------- whole-cutoff elements

def beam_splitter(theta: float, cutoff: int) -> dict[int, np.ndarray]:
    """Beam splitter exp(i theta J_x) as a block map over every block up to the cutoff, at any angle;
    theta = pi/2 is the 50/50 splitter.  Built from the J_x eigensystem by the expression of
    elements._splitter_block, so at BALANCED its blocks are that splitter's, bit for bit."""
    mats = {}
    for n in range(cutoff + 1):
        w, v = _jx_eigensystem(n)
        mats[n] = (v * np.exp(1j * theta * w)) @ v.conj().T
    return mats


def port_swap(cutoff: int) -> dict[int, np.ndarray]:
    """exp(-i pi J_x) as a block map up to the cutoff, in closed form: |n_a, n_b> -> (-i)^n |n_b, n_a>
    on block n, the ports exchanged.  It commutes with every splitter, and the inverted splitter
    exp(-i pi/2 J_x) is the 50/50 one times it: inverting the second splitter only relabels the ports."""
    phases = (1, -1j, -1, 1j)  # (-i)^n, exact for every n
    return {n: np.fliplr(np.eye(n + 1)) * phases[n % 4] for n in range(cutoff + 1)}


def exchanged(readout: BlockUnitary) -> BlockUnitary:
    """The readout followed by the port swap, on the readout's block."""
    return BlockUnitary({readout.n: port_swap(readout.n)[readout.n] @ readout.matrix})


def phase_shifter(phi: float, convention: str, cutoff: int) -> dict[int, np.ndarray]:
    """Phase shifter as a block map up to the cutoff: exp(i phi J_z) for 'symmetric', exp(i phi n_b) for 'one-arm'."""
    return {n: np.diag(np.exp(1j * phi * phase_exponent(convention, n))) for n in range(cutoff + 1)}


# ---------------------------------------------------------------- port states

def single_port_fock(n: int) -> TwoModeState:
    """All N photons in port A, vacuum in port B."""
    return make_basis_state(n, 0)


def port_a(amplitudes) -> dict[int, np.ndarray]:
    """sum_k c_k |k,0> as a block map: photon-number amplitudes in port A, vacuum in port B."""
    vecs = {}
    for k, amp in enumerate(amplitudes):
        vec = np.zeros(k + 1, dtype=np.complex128)
        vec[0] = amp  # photon count k all in mode a
        vecs[k] = vec
    return vecs


def poisson_amplitudes(mean_photons: float, cutoff: int) -> np.ndarray:
    """Real photon-number amplitudes c_0..c_cutoff of coherent light of mean photon number mean_photons,
    at any cutoff: c_k^2 the Poisson weight e^-lam lam^k / k!, taken from its logarithm, renormalized
    by the exactly rounded norm coherent_amplitudes takes."""
    k = np.arange(cutoff + 1)
    if mean_photons == 0.0:
        return (k == 0).astype(float)
    amps = np.exp((k * math.log(mean_photons) - mean_photons - log_factorials(cutoff)) / 2.0)
    return amps / math.sqrt(math.fsum(amps * amps))


def split_port_a(amplitudes: dict[int, complex]) -> dict[int, np.ndarray]:
    """sum_n c_n |n,0> after the 50/50 splitter exp(i pi/2 J_x), as a block map, in closed form.

    Block n becomes c_n sqrt(C(n,k)) / 2^{n/2} i^k on |n-k,k>: the binomial
    weights come from log-factorials and i^k is taken exactly from a table.
    """
    log_fact = log_factorials(max(amplitudes, default=0))
    vecs = {}
    for n, c in amplitudes.items():
        k = np.arange(n + 1)
        log_binom = log_fact[n] - log_fact[: n + 1] - log_fact[n::-1]
        vecs[n] = c * np.exp((log_binom - n * math.log(2.0)) / 2.0) * _I_POWERS[k % 4]
    return vecs


class FockPath:
    """A scheme on the Fock path as photon-number blocks, each a one-block SchemeSetup run through
    src: block n carries amplitude c_n, so weight w_n = |c_n|^2.

    A reading combines the blocks' readings, which add with their weights and
    no cross term (every operator here conserves the photon number): the mean
    is sum w_n m_n, the variance sum w_n (v_n + m_n^2) - mean^2, the slope of
    the mean sum w_n m_n', the Fisher information sum w_n F_n, and an
    outcome of block n has likelihood w_n p_n.  Divergence is phase_sweep's
    rule, with its bounds the largest over the blocks.
    """

    def __init__(self, amplitudes: dict[int, float], setups: dict[int, SchemeSetup]):
        self.amplitudes, self.setups = amplitudes, setups
        self.cutoff = max(setups)
        self.convention = setups[self.cutoff].analysis.convention
        self.likelihood_period = setups[self.cutoff].likelihood_period

    def weight(self, n: int) -> float:
        return abs(self.amplitudes[n]) ** 2

    @property
    def input_state(self) -> dict[int, np.ndarray]:
        """The input at the phase stage as a block map: c_n times block n's state after its U_before, the
        analysis output at phase 0."""
        return {n: self.amplitudes[n] * setup.analysis.evolve(setup.input_state, 0.0).amplitudes
                for n, setup in self.setups.items()}

    def sweep(self, phi_grid, observable=None) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """phase_sweep over the blocks: <A>, Var A and delta_phi, for A each block's observable or, if given,
        the observable (src's or a block map), read block by block.

        Each block's output psi_n and G_out psi_n come from its evolve_grid.
        The variance is taken in the residual form sum w_n ||(A - <A>) psi_n||^2,
        about the overall mean: it equals sum w_n (v_n + m_n^2) - <A>^2 from the
        blocks' own variances and means, but without the cancellation, which
        loses about 1e-14 relative at nbar = 25.  The blocks are evolved again
        for it, so one block's arrays are alive at a time.
        """
        grid = np.asarray(phi_grid, dtype=float)
        mean, slope, observable_bound, generator_bound = 0.0, 0.0, 0.0, 0.0
        for n, obs, psi, generated in self._outputs(grid, observable):
            applied = obs.apply(psi)
            mean = mean + self.weight(n) * np.sum(psi.conj() * applied, axis=0).real
            slope = slope + self.weight(n) * 2.0 * np.sum(applied.conj() * generated, axis=0).imag
            observable_bound = max(observable_bound, obs.norm_bound())
            generator_bound = max(generator_bound, float(np.max(np.abs(phase_exponent(self.convention, n)))))
        var = 0.0
        for n, obs, psi, _ in self._outputs(grid, observable):
            resid = obs.apply(psi) - mean * psi
            var = var + self.weight(n) * np.sum((resid.conj() * resid).real, axis=0)
        return mean, var, _sensitivity(var, np.abs(slope), observable_bound, generator_bound)

    def _outputs(self, grid: np.ndarray, observable):
        """Per block: n, the observable read on it, and its output psi and G_out psi over the grid."""
        for n, setup in self.setups.items():
            obs = setup.observable if observable is None else observable_block(observable, n)
            yield n, obs, *setup.analysis.evolve_grid(setup.input_state, grid)

    def fisher(self, phi_grid) -> np.ndarray:
        """classical_fisher over the blocks."""
        return sum(self.weight(n) * classical_fisher(setup.sampling, setup.input_state, phi_grid)
                   for n, setup in self.setups.items())

    def probabilities(self, phi_grid) -> tuple[list[tuple[int, int]], np.ndarray]:
        """Every outcome of every block, in block order, and its probability w_n |output|^2 at each
        phase, one column per phase."""
        labels, rows = [], []
        for n, setup in self.setups.items():
            labels += block_labels(n)
            rows.append(self.weight(n) * np.abs(setup.sampling.evolve_grid(setup.input_state, phi_grid)[0]) ** 2)
        return labels, np.vstack(rows)

    def posterior(self, hist, phi_grid) -> PosteriorDistribution:
        """bayes_posterior over the blocks: each outcome (n_a, n_b) adds its count times the log of w_n
        |row n_b of block n's output|^2, in the histogram's order."""
        grid = np.asarray(phi_grid, dtype=float)
        log_like = np.zeros(grid.size)
        for (n_a, n_b), count in hist.counts.items():
            setup = self.setups[n_a + n_b]
            amps = setup.sampling.output_rows(setup.input_state, grid, [n_b])[0]
            with np.errstate(divide="ignore"):
                log_like += count * np.log(self.weight(n_a + n_b) * np.abs(amps) ** 2)
        return _posterior(grid, log_like)


def port_a_fock_path(amplitudes: dict[int, float], convention: str = ONE_ARM) -> FockPath:
    """Port-A light sum_n c_n |n,0> on the Fock path, as build_setup wired it before independent photons:
    block n is the split |n,0> from split_port_a, the -J_y observable and the 50/50 splitter as the readout."""
    setups = {}
    for n, vec in split_port_a(dict.fromkeys(amplitudes, 1.0)).items():
        setups[n] = SchemeSetup(n, InterferometerPipeline(convention), 2.0 * math.pi,
                                input_state=TwoModeState({n: vec}), observable=pulled_back_jz(n),
                                readout=partial(splitter_blocks, n))
    return FockPath(amplitudes, setups)


def fock_path_setup(tag: SchemeTag, convention: str = ONE_ARM) -> FockPath:
    """The scheme on the Fock path: port-A light by port_a_fock_path, every other scheme as
    build_setup's setup alone, of amplitude 1."""
    if tag.name == "single-port-fock":
        return port_a_fock_path({tag.n: 1.0}, convention)
    if tag.name == "coherent":
        first, amps = coherent_amplitudes(tag.n)
        return port_a_fock_path(dict(enumerate(amps, start=first)), convention)
    setup = build_setup(tag, convention)
    return FockPath({setup.cutoff: 1.0}, {setup.cutoff: setup})


def coherent_vacuum(mean_photons: float, cutoff: int) -> dict[int, np.ndarray]:
    """Coherent state in port A, vacuum in port B, as a block map truncated at the given cutoff and renormalized."""
    return port_a(poisson_amplitudes(mean_photons, cutoff))


def _poisson_mass(lam: float, ks) -> float:
    """Sum of the Poisson weights e^-lam lam^k / k! along ks, which run away from the mode.

    Each weight comes from its logarithm, so none underflows early; the sum
    stops once the weights, falling monotonically, are negligible.
    """
    terms = []
    for k in ks:
        terms.append(math.exp(k * math.log(lam) - lam - math.lgamma(k + 1)))
        if terms[-1] <= 1e-17 * terms[0]:
            break
    return math.fsum(terms)


def coherent_tail_mass(mean_photons: float, cutoff: int) -> float:
    """Probability mass beyond the cutoff of the Poisson photon distribution of mean mean_photons.

    From just below the mean upward the dropped weights are summed directly,
    so a small tail never comes from a cancellation.  Further below the mean
    the kept mass is under about one half, and 1 minus it loses nothing.
    """
    lam = mean_photons
    if lam == 0.0:
        return 0.0
    if cutoff + 1 < lam:
        return 1.0 - _poisson_mass(lam, range(cutoff, -1, -1))
    return min(1.0, _poisson_mass(lam, itertools.count(cutoff + 1)))  # lgamma roundoff can pass 1


def bisected_coherent_cutoff(mean_photons: float) -> int:
    """Smallest cutoff whose coherent_tail_mass is below COHERENT_TAIL_TOL, by bisection over
    [0, COHERENT_CUTOFF_CAP]; TruncationError when the cap is not enough."""
    if coherent_tail_mass(mean_photons, COHERENT_CUTOFF_CAP) >= COHERENT_TAIL_TOL:
        raise TruncationError(f"no cutoff up to {COHERENT_CUTOFF_CAP} keeps the coherent tail mass "
                              f"below {COHERENT_TAIL_TOL:.1e}")
    lo, hi = -1, COHERENT_CUTOFF_CAP  # tail(lo) >= tol > tail(hi); the tail falls with the cutoff
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if coherent_tail_mass(mean_photons, mid) < COHERENT_TAIL_TOL:
            hi = mid
        else:
            lo = mid
    return hi


# ---------------------------------------------------------------- per-point sensitivity

def phase_derivative(state, observable, generator) -> float:
    """Exact d<A>/dphi for evolution exp(i phi G): the expectation of i[A, G], -2 Im <A psi|G psi>."""
    val = 0.0
    for n, vec in blocks(state).items():
        val -= 2.0 * np.vdot(observable_block(observable, n).apply(vec), observable_block(generator, n).apply(vec)).imag
    return float(val)


def sensitivity(state, observable, generator) -> float:
    """Error-propagation phase uncertainty sqrt(Var A) / |d<A>/dphi|.

    The state must already be evolved to the working phase.  Divergence is a
    value, not an error: +inf is returned where the derivative magnitude is at
    most 1e-14 ||A|| ||G||, where it cannot be told from roundoff.
    """
    deriv = abs(phase_derivative(state, observable, generator))
    bounds = [max((observable_block(op, n).norm_bound() for n in blocks(state)), default=0.0)
              for op in (observable, generator)]
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
    """A pipeline that takes port states, on every block of its block maps: `first` is applied before
    the phase stage and `second` after it, each block through src's one-block pipeline."""

    first: dict[int, np.ndarray]
    second: dict[int, np.ndarray]
    convention: str = ONE_ARM

    def evolve(self, state, phi: float):
        out = {}
        for n, vec in blocks(state).items():
            pipeline = InterferometerPipeline(self.convention, after=BlockUnitary({n: self.second[n]}))
            out[n] = pipeline.evolve(TwoModeState({n: self.first[n] @ vec}), phi).amplitudes
        return like(state, out)

    def output_generator(self, cutoff: int) -> dict[int, BlockObservable]:
        """The phase generator in the output frame, U_after G U_after†, as a block map up to the
        cutoff: the evolved state obeys d|psi>/dphi = i (U_after G U_after†) |psi>."""
        bands = {}
        for n in range(cutoff + 1):
            u = self.second[n]
            m = (u * phase_exponent(self.convention, n)) @ u.conj().T
            bands[n] = banded((m + m.conj().T) / 2.0)  # re-hermitize roundoff
        return observable_map(bands)


def mach_zehnder_pipeline(cutoff: int, convention: str = ONE_ARM, invert_second_bs: bool = False) -> PortPipeline:
    """Balanced splitter, phase, balanced splitter; the second splitter optionally inverted."""
    second = beam_splitter(-BALANCED if invert_second_bs else BALANCED, cutoff)
    return PortPipeline(beam_splitter(BALANCED, cutoff), second, convention)


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
    source = v.conj().T @ make_basis_state(n_a, n_b).amplitudes
    edges = v[[0, n], :] * source[None, :]
    # amplitudes on |N,0> and |0,N> for every theta at once
    amps = edges @ np.exp(1j * np.outer(w, thetas))
    fidelity = (np.abs(amps[0]) + np.abs(amps[1])) ** 2 / 2.0
    best = int(np.argmax(fidelity))
    return float(thetas[best]), float(fidelity[best])
