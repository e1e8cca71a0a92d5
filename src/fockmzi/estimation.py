"""Phase-sensitivity evaluation, Fisher information, seeded outcome
sampling, and Bayesian post-processing.

The central quantity is the error-propagation sensitivity
delta_phi = sqrt(Var A) / |d<A>/dphi|, with the derivative taken exactly as
the expectation of i[A, G] for the phase generator G, never by finite
differences (those are kept as a test oracle only).  Sweeps, Fisher
information, sampling and posteriors only reduce the arrays that the
pipeline's per-block kernel (evolve_blocks, output_rows) yields, over the
whole phase grid at once, one photon-number block at a time; which input,
observable and readout a scheme uses is decided in `schemes`.
"""

import math
from dataclasses import dataclass
from itertools import groupby

import numpy as np

from .elements import InterferometerPipeline, phase_exponent
from .fock import BlockObservable, NumericalFailure, TwoModeState, block_labels

DERIVATIVE_RTOL = 1e-14
PROBABILITY_FLOOR = 1e-15
_ENSEMBLE_SIN_TOL = 1e-12
_GRID_SPACING_RTOL = 1e-9


class NoPhaseInformationError(RuntimeError, NumericalFailure):
    """Raised when a sensitivity curve is divergent, or a Fisher information 0, at every grid point,
    or when a posterior is flat."""


class ModelMismatchError(RuntimeError, NumericalFailure):
    """Raised when observed outcomes have zero likelihood everywhere on the grid."""


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


def min_sensitivity(phi_grid, delta_phi) -> tuple[float, float]:
    """Grid point with the smallest finite delta-phi (phase_sweep's third array); divergent points are skipped."""
    grid, delta = np.asarray(phi_grid, dtype=float), np.asarray(delta_phi, dtype=float)
    if grid.ndim != 1 or delta.shape != grid.shape:
        raise ValueError(f"phi grid and delta-phi values must be matching 1-d arrays, "
                         f"got shapes {grid.shape} and {delta.shape}")
    finite = np.isfinite(delta)
    if not finite.any():
        raise NoPhaseInformationError("sensitivity is divergent at every grid point")
    idx = np.argmin(np.where(finite, delta, math.inf))
    return float(grid[idx]), float(delta[idx])


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


def classical_fisher(pipeline: InterferometerPipeline, input_state: TwoModeState, phi_grid) -> np.ndarray:
    """Fisher information of the output number distribution at each phase of the grid.

    Each outcome's slope is exact, dp_k/dphi = -2 Im(psi_k* (G_out psi)_k);
    outcomes with probability below 1e-15 are skipped.
    """
    grid = np.asarray(phi_grid, dtype=float)
    info = np.zeros(grid.size)
    for _, psi, generated in pipeline.evolve_blocks(input_state, grid):
        probs = np.abs(psi) ** 2
        slopes = -2.0 * (psi.conj() * generated).imag
        kept = probs >= PROBABILITY_FLOOR
        info += np.sum(np.divide(slopes * slopes, probs, out=np.zeros_like(probs), where=kept), axis=0)
    return info


def sample_outcomes(
    pipeline: InterferometerPipeline,
    input_state: TwoModeState,
    phi: float,
    shots: int,
    seed: int,
) -> OutcomeHistogram:
    """Draw i.i.d. (n_a, n_b) outcomes from the exact output distribution.

    The probabilities are |amplitude|^2 of the single column evolve_blocks
    yields per populated block, in block order.  Those below 1e-15 are zeroed
    (and the rest renormalized) before sampling, so interference nulls never
    fire.  Identical seeds give identical histograms.  Shots number at most
    2**63 - 1, the most numpy's multinomial draws.  A seed is any 64-bit
    integer, signed or not, so in [-2**63, 2**64); a negative seed s draws as
    s + 2**64.
    """
    if not 0 <= shots < 2**63:
        raise ValueError(f"shots must be in [0, 2**63), got {shots}")
    if not -(2**63) <= seed < 2**64:
        raise ValueError(f"seed must be a 64-bit integer, signed or not, in [-2**63, 2**64), got {seed}")
    columns = [(n, psi[:, 0]) for n, psi, _ in pipeline.evolve_blocks(input_state, [phi])]
    labels = [label for n, _ in columns for label in block_labels(n)]
    probs = np.abs(np.concatenate([column for _, column in columns] or [np.zeros(0)])) ** 2
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
            raise ModelMismatchError(f"observed outcome ({n_a}, {n_b}) has zero likelihood: "
                                     "it is not a basis state of a populated block")
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
    """Circular mean of the posterior, mapped back into the grid's period.

    A flat posterior, every weight equal, has no mean: NoPhaseInformationError.
    """
    grid, w = posterior.phi_grid, posterior.weights
    if np.all(w == w[0]):
        raise NoPhaseInformationError("the posterior is flat: the outcomes carry no phase information")
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
