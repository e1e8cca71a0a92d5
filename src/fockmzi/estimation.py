"""Phase-sensitivity evaluation, Fisher information, seeded outcome
sampling, and Bayesian post-processing.

The central quantity is the error-propagation sensitivity
delta_phi = sqrt(Var A) / |d<A>/dphi|, with the derivative taken exactly as
the expectation of i[A, G] for the phase generator G, never by finite
differences (those are kept as a test oracle only).  Sweeps, Fisher
information and posteriors evaluate the whole phase grid at once, one
photon-number block at a time.
"""

import math
from dataclasses import dataclass
from itertools import groupby

import numpy as np

from .elements import InterferometerPipeline, phase_exponent
from .fock import BlockObservable, BlockUnitary, NumericalFailure, TwoModeState

DERIVATIVE_RTOL = 1e-14
PROBABILITY_FLOOR = 1e-15
_ENSEMBLE_SIN_TOL = 1e-12
_GRID_SPACING_RTOL = 1e-9


class NoPhaseInformationError(RuntimeError, NumericalFailure):
    """Raised when a sensitivity curve is divergent, or a Fisher information 0, at every grid point."""


class ModelMismatchError(RuntimeError, NumericalFailure):
    """Raised when observed outcomes have zero likelihood everywhere on the grid."""


@dataclass(frozen=True)
class SensitivityCurve:
    """Sampled map phi -> delta_phi."""

    phi_grid: np.ndarray
    delta_phi: np.ndarray

    def __post_init__(self):
        grid = np.asarray(self.phi_grid, dtype=float)
        vals = np.asarray(self.delta_phi, dtype=float)
        if grid.ndim != 1 or grid.size == 0 or vals.shape != grid.shape:
            raise ValueError("phi grid and delta-phi values must be matching 1-d arrays")
        if np.any(np.diff(grid) <= 0):
            raise ValueError("phi grid must be strictly increasing")
        if np.any(vals <= 0):
            raise ValueError("delta-phi entries must be positive or +inf")
        grid.setflags(write=False)
        vals.setflags(write=False)
        object.__setattr__(self, "phi_grid", grid)
        object.__setattr__(self, "delta_phi", vals)


@dataclass(frozen=True)
class OutcomeHistogram:
    """Counts of measured (n_a, n_b) outcomes from one seeded sampling run."""

    phi_true: float
    shots: int
    counts: dict[tuple[int, int], int]
    seed: int

    def __post_init__(self):
        if any(c < 0 for c in self.counts.values()):
            raise ValueError("counts must be nonnegative")
        total = sum(self.counts.values())
        if total != self.shots:
            raise ValueError(f"counts sum to {total}, expected {self.shots}")


@dataclass(frozen=True)
class PosteriorDistribution:
    """Normalized posterior weights over a uniform phase grid covering one period."""

    phi_grid: np.ndarray
    weights: np.ndarray

    def __post_init__(self):
        grid = np.asarray(self.phi_grid, dtype=float)
        w = np.asarray(self.weights, dtype=float)
        if grid.shape != w.shape or grid.ndim != 1:
            raise ValueError("grid and weights must be matching 1-d arrays")
        if grid.size < 2:
            raise ValueError(f"posterior grid needs at least 2 points, got {grid.size}")
        steps = np.diff(grid)
        if not np.all(steps > 0):
            raise ValueError("posterior grid must be finite and strictly increasing")
        if not np.all(np.abs(steps - steps[0]) <= _GRID_SPACING_RTOL * steps[0]):
            raise ValueError("posterior grid must be uniformly spaced")
        if np.any(w < 0):
            raise ValueError("weights must be nonnegative")
        if abs(w.sum() - 1.0) > 1e-10:
            raise ValueError(f"weights sum to {w.sum()}, expected 1 within 1e-10")
        grid.setflags(write=False)
        w.setflags(write=False)
        object.__setattr__(self, "phi_grid", grid)
        object.__setattr__(self, "weights", w)


def observable_noon_flip(n: int) -> BlockObservable:
    """The two-entry flip observable |N,0><0,N| + |0,N><N,0| on block N."""
    if n < 1:
        raise ValueError(f"flip observable needs n >= 1, got {n}")
    return BlockObservable({n: {n: np.ones(1), -n: np.ones(1)}})


def noon_readout(n: int) -> BlockUnitary:
    """Rotation taking the flip-observable eigenbasis to the number basis, on block N alone.

    It acts as a Hadamard on span{|N,0>, |0,N>} and as identity on the rest
    of block N.  Number-resolved detection after this stage realizes the
    flip measurement as a two-outcome coarse-graining.
    """
    if n < 1:
        raise ValueError(f"readout needs n >= 1, got {n}")
    h = np.eye(n + 1, dtype=np.complex128)
    r = 1.0 / math.sqrt(2.0)
    h[0, 0], h[0, n], h[n, 0], h[n, n] = r, r, r, -r
    return BlockUnitary({n: h})


def _divergent(slope, observable_bound: float, generator_bound: float):
    """Where |d<A>/dphi| <= 1e-14 ||A|| ||G||, the roundoff scale of -2 Im <A psi|G psi>.

    The norms are bounds over the populated blocks; a zero slope is always divergent.
    """
    return slope <= DERIVATIVE_RTOL * observable_bound * generator_bound


def phase_sweep(
    pipeline: InterferometerPipeline,
    input_state: TwoModeState,
    observable: BlockObservable,
    phi_grid,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """<A>, Var A and delta_phi at every grid point, streamed block by block.

    Pass 1 takes the mean and the exact derivative <i[A, G_out]> =
    -2 Im <A psi|G_out psi> from each block evolve_blocks yields; pass 2
    evolves each block again for the residual form ||(A - <A>)|psi>||^2 of
    the variance, so one block's (n+1) x P arrays are alive at a time.
    Divergence is a value, not an error: delta_phi is +inf where the
    derivative cannot be told from roundoff (see _divergent); ||G_out|| is
    the largest |g| of the populated blocks.
    """
    grid = np.asarray(phi_grid, dtype=float)
    mean, deriv = np.zeros(grid.size), np.zeros(grid.size)
    observable_bound = generator_bound = 0.0
    for n, psi, generated in pipeline.evolve_blocks(input_state, grid):
        applied = observable.apply_block(n, psi)
        mean += np.sum(psi.conj() * applied, axis=0).real
        deriv -= 2.0 * np.sum(applied.conj() * generated, axis=0).imag
        observable_bound = max(observable_bound, observable.norm_bound(n))
        generator_bound = max(generator_bound, float(np.max(np.abs(phase_exponent(pipeline.convention, n)))))
    var = np.zeros(grid.size)
    for n, psi, _ in pipeline.evolve_blocks(input_state, grid):
        resid = observable.apply_block(n, psi) - mean * psi
        var += np.sum((resid.conj() * resid).real, axis=0)
    slope = np.abs(deriv)
    divergent = _divergent(slope, observable_bound, generator_bound)
    delta = np.sqrt(var) / np.where(divergent, 1.0, slope)
    delta[divergent] = math.inf
    return mean, var, delta


def sensitivity_curve(
    pipeline: InterferometerPipeline,
    input_state: TwoModeState,
    observable: BlockObservable,
    phi_grid,
) -> SensitivityCurve:
    """Pointwise sensitivity of the pipeline output over a phase grid."""
    grid = np.asarray(phi_grid, dtype=float)
    _, _, delta = phase_sweep(pipeline, input_state, observable, grid)
    return SensitivityCurve(grid, delta)


def min_sensitivity(curve: SensitivityCurve) -> tuple[float, float]:
    """Grid point with the smallest finite delta-phi; divergent points are skipped."""
    finite = np.isfinite(curve.delta_phi)
    if not finite.any():
        raise NoPhaseInformationError("sensitivity is divergent at every grid point")
    idx = np.argmin(np.where(finite, curve.delta_phi, math.inf))
    return float(curve.phi_grid[idx]), float(curve.delta_phi[idx])


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


def classical_fisher(pipeline: InterferometerPipeline, input_state: TwoModeState, phi):
    """Fisher information of the output number distribution at phi.

    phi is one phase (a float is returned) or a grid (an array is returned).
    Each outcome's slope is exact, dp_k/dphi = -2 Im(psi_k* (G_out psi)_k);
    outcomes with probability below 1e-15 are skipped.
    """
    grid = np.atleast_1d(np.asarray(phi, dtype=float))
    info = np.zeros(grid.size)
    for _, psi, generated in pipeline.evolve_blocks(input_state, grid):
        probs = np.abs(psi) ** 2
        slopes = -2.0 * (psi.conj() * generated).imag
        kept = probs >= PROBABILITY_FLOOR
        info += np.sum(np.divide(slopes * slopes, probs, out=np.zeros_like(probs), where=kept), axis=0)
    return float(info[0]) if np.ndim(phi) == 0 else info


def sample_outcomes(
    pipeline: InterferometerPipeline,
    input_state: TwoModeState,
    phi: float,
    shots: int,
    seed: int,
) -> OutcomeHistogram:
    """Draw i.i.d. (n_a, n_b) outcomes from the exact output distribution.

    Probabilities below 1e-15 are zeroed (and the rest renormalized) before
    sampling, so interference nulls never fire.  Identical seeds give
    identical histograms; any 64-bit integer (signed or not) is a valid seed.
    """
    if shots < 0:
        raise ValueError(f"shots must be nonnegative, got {shots}")
    dist = pipeline.evolve(input_state, phi).probabilities()
    labels = list(dist)
    probs = np.array([dist[k] for k in labels], dtype=float)
    probs[probs < PROBABILITY_FLOOR] = 0.0
    probs /= probs.sum()
    rng = np.random.default_rng(seed & 0xFFFF_FFFF_FFFF_FFFF)
    drawn = rng.multinomial(shots, probs) if shots else np.zeros(len(labels), dtype=int)
    counts = {lab: int(c) for lab, c in zip(labels, drawn) if c > 0}
    return OutcomeHistogram(phi_true=phi, shots=shots, counts=counts, seed=seed)


def bayes_posterior(
    hist: OutcomeHistogram,
    pipeline: InterferometerPipeline,
    input_state: TwoModeState,
    phi_grid,
) -> PosteriorDistribution:
    """Grid posterior over the phase given one histogram of outcomes.

    Uniform prior times the product of per-outcome likelihoods, accumulated in
    log space so large shot counts cannot underflow.  Only the observed rows
    of the output are formed, one block at a time; each run of consecutive
    outcomes in one block is one product.  The terms are added in the
    histogram's order.  The grid should cover one period of the scheme's
    likelihood.
    """
    grid = np.asarray(phi_grid, dtype=float)
    for n_a, n_b in hist.counts:
        if n_a < 0 or n_b < 0 or n_a + n_b not in input_state.blocks:
            raise ModelMismatchError(f"observed outcome ({n_a}, {n_b}) has zero likelihood: it is not a "
                                     f"basis state of a populated block (cutoff {input_state.cutoff})")
    runs = [(n, list(run)) for n, run in groupby(hist.counts.items(), key=lambda item: sum(item[0]))]
    requests = ((n, [n_b for (_, n_b), _ in run]) for n, run in runs)
    log_like = np.zeros(grid.size)
    for (_, run), amplitudes in zip(runs, pipeline.output_rows(input_state, grid, requests)):
        probs = np.abs(amplitudes) ** 2
        for (_, count), p in zip(run, probs):
            with np.errstate(divide="ignore"):
                log_like += count * np.log(p)
    peak = np.max(log_like)
    if not np.isfinite(peak):
        raise ModelMismatchError("observed outcomes have zero likelihood everywhere on the grid")
    weights = np.exp(log_like - peak)
    weights /= weights.sum()
    return PosteriorDistribution(grid, weights)


def _grid_period(grid: np.ndarray) -> float:
    # grid samples one period without a duplicated endpoint
    return float(grid[-1] - grid[0] + (grid[-1] - grid[0]) / (grid.size - 1))


def posterior_mean(posterior: PosteriorDistribution) -> float:
    """Circular mean of the posterior, mapped back into the grid's period."""
    grid, w = posterior.phi_grid, posterior.weights
    period = _grid_period(grid)
    angles = 2.0 * math.pi * (grid - grid[0]) / period
    mean_angle = math.atan2(float(np.sum(w * np.sin(angles))), float(np.sum(w * np.cos(angles))))
    return grid[0] + (mean_angle % (2.0 * math.pi)) * period / (2.0 * math.pi)


def posterior_std(posterior: PosteriorDistribution) -> float:
    """Standard deviation about the circular mean, with wrap-safe distances."""
    grid, w = posterior.phi_grid, posterior.weights
    period = _grid_period(grid)
    dev = grid - posterior_mean(posterior)
    dev = (dev + period / 2.0) % period - period / 2.0
    return math.sqrt(float(np.sum(w * dev * dev)))


def scaling_fit(points) -> tuple[float, float]:
    """Least-squares line through (log n, log value); returns (slope, intercept)."""
    pts = list(points)
    if len(pts) < 3:
        raise ValueError(f"need at least 3 points, got {len(pts)}")
    ns = np.array([p[0] for p in pts], dtype=float)
    vals = np.array([p[1] for p in pts], dtype=float)
    if np.any(ns <= 0) or np.any(vals <= 0):
        raise ValueError("scaling fit needs positive sizes and values")
    slope, intercept = np.polyfit(np.log(ns), np.log(vals), 1)
    return float(slope), float(intercept)
