"""Phase-sensitivity evaluation, Fisher information, seeded outcome
sampling, and Bayesian post-processing.

The central quantity is the error-propagation sensitivity
delta_phi = sqrt(Var A) / |d<A>/dphi|, with the derivative taken exactly as
the expectation of i[A, G] for the phase generator G, never by finite
differences (those are kept as a test oracle only).  Sweeps, Fisher
information and posteriors only reduce the arrays of the pipeline's output
on the input's one photon-number block (evolve_grid, distribution_grid,
output_rows), over the whole phase grid at once; sampling draws from the
output state the pipeline's evolve gives at one phase.  Which input,
observable and readout a scheme uses is decided in `schemes`.

Light in port A alone (`states.PortALight`) takes none of those paths.  Each
of its photons leaves the balanced interferometer on its own, by port B with
probability cos^2(phi/2) in either convention (Campos, Saleh & Teich, PRA 40,
1371, 1989), and the photon-number blocks add with their weights and no cross
term.  So photon_sweep, photon_fisher, sample_photons and photon_posterior
give the same quantities in closed form, from the weights' mean and variance
and one photon's exit probabilities, with no state, observable or splitter
built.
"""

import math

import numpy as np

from .elements import ONE_ARM, InterferometerPipeline, phase_exponent, pulled_back_jz_bound
from .fock import BlockObservable, NumericalFailure, ReadOnly, TwoModeState

DERIVATIVE_RTOL = 1e-14
PROBABILITY_FLOOR = 1e-15
_GRID_SPACING_RTOL = 1e-9
_DRAW_CHUNK = 1 << 16  # binomial draws made at once, so sampling memory does not grow with the shots


class NoPhaseInformationError(RuntimeError, NumericalFailure):
    """Raised when a sensitivity curve is divergent, or a Fisher information 0, at every grid point,
    or when a posterior is flat."""


class ModelMismatchError(RuntimeError, NumericalFailure):
    """Raised when observed outcomes have zero likelihood everywhere on the grid."""


class OutcomeHistogram(ReadOnly):
    """Counts of measured (n_a, n_b) outcomes from one seeded sampling run."""

    __slots__ = ("shots", "counts")

    def __init__(self, shots: int, counts: dict[tuple[int, int], int]):
        if any(c < 0 for c in counts.values()):
            raise ValueError("counts must be nonnegative")
        total = sum(counts.values())
        if total != shots:
            raise ValueError(f"counts sum to {total}, expected {shots}")
        self._fill(shots=shots, counts=counts)


class PosteriorDistribution(ReadOnly):
    """Normalized posterior weights over a uniform phase grid covering one period."""

    __slots__ = ("phi_grid", "weights")

    def __init__(self, phi_grid: np.ndarray, weights: np.ndarray):
        grid = np.asarray(phi_grid, dtype=float)
        w = np.asarray(weights, dtype=float)
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
        self._fill(phi_grid=grid, weights=w)


def _divergent(slope, observable_bound: float, generator_bound: float):
    """Where |d<A>/dphi| <= 1e-14 ||A|| ||G||, the roundoff scale of -2 Im <A psi|G psi>.

    The norms are bounds on the input's block; a zero slope is always divergent.
    """
    return slope <= DERIVATIVE_RTOL * observable_bound * generator_bound


def _sensitivity(var, slope, observable_bound: float, generator_bound: float) -> np.ndarray:
    """sqrt(Var A) / |d<A>/dphi|, +inf where the slope is _divergent."""
    divergent = _divergent(slope, observable_bound, generator_bound)
    delta = np.sqrt(var) / np.where(divergent, 1.0, slope)
    delta[divergent] = math.inf
    return delta


def phase_sweep(
    pipeline: InterferometerPipeline,
    input_state: TwoModeState,
    observable: BlockObservable,
    phi_grid,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """<A>, Var A and delta_phi at every grid point.

    The mean, the exact derivative <i[A, G_out]> = -2 Im <A psi|G_out psi>
    and the residual form ||(A - <A>)|psi>||^2 of the variance all come from
    one evolve_grid.  Divergence is a value, not an error: delta_phi is +inf
    where the derivative cannot be told from roundoff (see _divergent);
    ||G_out|| is the largest |g| of the block.
    """
    grid = np.asarray(phi_grid, dtype=float)
    psi, generated = pipeline.evolve_grid(input_state, grid)
    applied = observable.apply(psi)
    mean = 0.0 + np.sum(psi.conj() * applied, axis=0).real  # +0.0 and not -0.0 where the sum is a zero
    slope = np.abs(2.0 * np.sum(applied.conj() * generated, axis=0).imag)
    resid = applied - mean * psi
    var = np.sum((resid.conj() * resid).real, axis=0)
    generator_bound = float(np.max(np.abs(phase_exponent(pipeline.convention, input_state.n))))
    return mean, var, _sensitivity(var, slope, observable.norm_bound(), generator_bound)


def photon_sweep(pipeline: InterferometerPipeline, light, phi_grid) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """phase_sweep of port-A light (a states.PortALight) through the pipeline's phase stage, with J_z read
    after the second splitter, in closed form.

    One photon reads m1 = -cos(phi)/2, with variance v1 = sin(phi)^2/4 and
    slope m1' = sin(phi)/2.  Block n is n independent photons, so for nbar
    and s2 the mean and variance of the weights, <A> = nbar m1,
    Var A = nbar v1 + s2 m1^2 and |d<A>/dphi| = nbar |m1'|.  The divergent
    points are phase_sweep's: its bounds are taken on the largest block,
    -J_y's from pulled_back_jz_bound and the generator's in closed form.
    Light whose largest slope, nbar/2, is divergent has no finite point:
    NoPhaseInformationError.
    """
    grid = np.asarray(phi_grid, dtype=float)
    cutoff = light.first + light.weights.size - 1
    observable_bound = pulled_back_jz_bound(cutoff)
    generator_bound = cutoff if pipeline.convention == ONE_ARM else cutoff / 2.0  # the largest |g| of the block
    if light.mean > 0.0 and _divergent(0.5 * light.mean, observable_bound, generator_bound):
        raise NoPhaseInformationError(f"sensitivity is divergent at every phase: {light.mean:.17g} photons "
                                      "give slopes below the roundoff bound 1e-14 ||A|| ||G||")
    cos, sin = np.cos(grid), np.sin(grid)
    mean = 0.0 - 0.5 * light.mean * cos  # a zero mean, of vacuum, is +0.0 and not -0.0
    var = 0.25 * (light.mean * sin * sin + light.variance * cos * cos)
    return mean, var, _sensitivity(var, 0.5 * light.mean * np.abs(sin), observable_bound, generator_bound)


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


def classical_fisher(pipeline: InterferometerPipeline, input_state: TwoModeState, phi_grid) -> np.ndarray:
    """Fisher information of the output number distribution at each phase of the grid.

    Each outcome's slope is exact, the pipeline's distribution_grid; outcomes
    with probability below 1e-15 are skipped.
    """
    probs, slopes = pipeline.distribution_grid(input_state, np.asarray(phi_grid, dtype=float))
    kept = probs >= PROBABILITY_FLOOR
    return np.sum(np.divide(slopes * slopes, probs, out=np.zeros_like(probs), where=kept), axis=0)


def photon_fisher(light, phi_grid) -> np.ndarray:
    """classical_fisher of port-A light (a states.PortALight): nbar, the weights' mean, at every phase.

    A photon's exit port is a Bernoulli trial with q = cos^2(phi/2), whose
    Fisher information q'^2 / (q (1 - q)) is 1 for every phi; block n is n
    such trials, and the block itself, read off the outcome, carries none.
    No outcome is floored, so phi = 0 reads nbar too.
    """
    return np.full(np.asarray(phi_grid, dtype=float).size, light.mean)


def _generator(shots: int, seed: int):
    """The np.random.Generator of a sampling run, after checking its shots and seed.  (No annotation
    names it: that would import numpy.random, and its memory, into every command.)"""
    if not 0 <= shots < 2**63:
        raise ValueError(f"shots must be in [0, 2**63), got {shots}")
    if not -(2**63) <= seed < 2**64:
        raise ValueError(f"seed must be a 64-bit integer, signed or not, in [-2**63, 2**64), got {seed}")
    return np.random.default_rng(seed & 0xFFFF_FFFF_FFFF_FFFF)


def sample_outcomes(
    pipeline: InterferometerPipeline,
    input_state: TwoModeState,
    phi: float,
    shots: int,
    seed: int,
) -> OutcomeHistogram:
    """Draw i.i.d. (n_a, n_b) outcomes from the exact output distribution.

    The probabilities are the output state's at phi,
    pipeline.evolve(input_state, phi).probabilities(), n_b ascending.  Those
    below 1e-15 are zeroed (and the rest renormalized) before sampling, so
    interference nulls never fire.  Identical seeds give identical
    histograms.  Shots number at most 2**63 - 1, the most numpy's multinomial
    draws.  A seed is any 64-bit integer, signed or not, so in
    [-2**63, 2**64); a negative seed s draws as s + 2**64.
    """
    rng = _generator(shots, seed)
    distribution = pipeline.evolve(input_state, phi).probabilities()
    probs = np.array(list(distribution.values()))
    probs[probs < PROBABILITY_FLOOR] = 0.0
    probs /= probs.sum()
    drawn = rng.multinomial(shots, probs) if shots else np.zeros(probs.size, dtype=int)
    counts = {lab: int(c) for lab, c in zip(distribution, drawn) if c > 0}
    return OutcomeHistogram(shots=shots, counts=counts)


def sample_photons(light, phi: float, shots: int, seed: int) -> OutcomeHistogram:
    """sample_outcomes for port-A light (a states.PortALight), in two stages: each block's shots from the
    weights in one multinomial draw, then each shot's photons in the port less likely to take one,
    Binomial(n, p) for p the lesser of cos^2(phi/2) (port B) and sin^2(phi/2).

    A block's c shots are c binomial draws, _DRAW_CHUNK at a time, or one
    multinomial draw over its _binomial_window if c is larger, so a block
    costs the lesser of its shots and its window.  Outcomes come in block
    order, n_b ascending.  Shots and seed are those of sample_outcomes; no
    probability is floored.
    """
    rng = _generator(shots, seed)
    in_b, in_a = math.cos(phi / 2.0) ** 2, math.sin(phi / 2.0) ** 2
    p = min(in_a, in_b)  # each photon takes the drawn port with probability p
    per_block = rng.multinomial(shots, light.weights)
    counts = {}
    for i in np.flatnonzero(per_block).tolist():
        n, c = light.first + i, int(per_block[i])
        lo, hi = _binomial_window(n, p)
        if c > hi - lo:
            drawn = dict(enumerate(rng.multinomial(c, _binomial_pmf(n, p, lo, hi)).tolist(), start=lo))
        else:
            drawn = {}
            for start in range(0, c, _DRAW_CHUNK):
                values, hits = np.unique(rng.binomial(n, p, size=min(_DRAW_CHUNK, c - start)), return_counts=True)
                for k, hit in zip(values.tolist(), hits.tolist()):
                    drawn[k] = drawn.get(k, 0) + hit
        in_port_b = {(k if p == in_b else n - k): hit for k, hit in drawn.items() if hit}
        counts.update(((n - n_b, n_b), in_port_b[n_b]) for n_b in sorted(in_port_b))
    return OutcomeHistogram(shots, counts)


def _binomial_window(n: int, p: float) -> tuple[int, int]:
    """Counts lo..hi outside which Binomial(n, p) probabilities round to 0: below exp(-1458) at 27 sqrt(n)
    from the mean (Hoeffding)."""
    if p == 0.0:
        return 0, 0
    spread = 27.0 * math.sqrt(n)
    return max(0, math.ceil(n * p - spread)), min(n, math.floor(n * p + spread))


def _binomial_pmf(n: int, p: float, lo: int, hi: int) -> np.ndarray:
    """Binomial(n, p) probabilities of counts lo..hi, normalized over them, from neighbours' ratios in log space."""
    k = np.arange(lo, hi, dtype=float)
    log_pmf = np.concatenate(([0.0], np.cumsum(np.log((n - k) * p) - np.log((k + 1) * (1.0 - p)))))
    pmf = np.exp(log_pmf - np.max(log_pmf))
    return pmf / math.fsum(pmf)


def bayes_posterior(
    hist: OutcomeHistogram,
    pipeline: InterferometerPipeline,
    input_state: TwoModeState,
    phi_grid,
) -> PosteriorDistribution:
    """Grid posterior over the phase given one histogram of outcomes.

    Uniform prior times the product of per-outcome likelihoods, accumulated in
    log space so large shot counts cannot underflow.  Only the observed rows
    of the output are formed, in one product.  The terms are added in the
    histogram's order.  The grid should cover one period of the scheme's
    likelihood.
    """
    grid = np.asarray(phi_grid, dtype=float)
    for n_a, n_b in hist.counts:
        if n_a < 0 or n_b < 0 or n_a + n_b != input_state.n:
            raise ModelMismatchError(f"observed outcome ({n_a}, {n_b}) has zero likelihood: "
                                     "it is not a basis state of a populated block")
    log_like = np.zeros(grid.size)
    if hist.counts:
        probs = np.abs(pipeline.output_rows(input_state, grid, [n_b for _, n_b in hist.counts])) ** 2
        for count, p in zip(hist.counts.values(), probs):
            with np.errstate(divide="ignore"):
                log_like += count * np.log(p)
    return _posterior(grid, log_like)


def photon_posterior(hist: OutcomeHistogram, light, phi_grid) -> PosteriorDistribution:
    """bayes_posterior for port-A light (a states.PortALight), in O(P) whatever the number of outcomes.

    Outcome (n_a, n_b) has likelihood w_n C(n, n_b) sin^2(phi/2)^n_a
    cos^2(phi/2)^n_b, so up to a constant the log-likelihood is
    S_a log sin^2(phi/2) + S_b log cos^2(phi/2), for S_a and S_b the
    count-weighted photons in each port.  An outcome outside the populated
    blocks raises ModelMismatchError, as in bayes_posterior, and so does one
    in a block of weight 0.
    """
    grid = np.asarray(phi_grid, dtype=float)
    totals = [0, 0]  # photons counted in port A and in port B
    for (n_a, n_b), count in hist.counts.items():
        if n_a < 0 or n_b < 0 or not 0 <= n_a + n_b - light.first < light.weights.size:
            raise ModelMismatchError(f"observed outcome ({n_a}, {n_b}) has zero likelihood: "
                                     "it is not a basis state of a populated block")
        if light.weights[n_a + n_b - light.first] == 0.0:
            raise ModelMismatchError("observed outcomes have zero likelihood everywhere on the grid")
        totals[0] += count * n_a
        totals[1] += count * n_b
    log_like = np.zeros(grid.size)
    for total, p in zip(totals, (np.sin(grid / 2.0) ** 2, np.cos(grid / 2.0) ** 2)):
        if total:  # a port no photon left by adds nothing, not 0 * log 0
            with np.errstate(divide="ignore"):
                log_like += float(total) * np.log(p)
    return _posterior(grid, log_like)


def _posterior(grid: np.ndarray, log_like: np.ndarray) -> PosteriorDistribution:
    """The posterior of a uniform prior on the grid, from its log-likelihood up to a constant."""
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
    """Least-squares line through (log n, log value); returns (slope, intercept).

    Sizes so close that the rounding of log n alone, 2^-52 max|log n|, could
    move the slope by more than 1e-9 relative (more than 1e-9 times the
    spread of log n) raise NumericalFailure.
    """
    pts = list(points)
    if len(pts) < 3:
        raise ValueError(f"need at least 3 points, got {len(pts)}")
    ns = np.array([p[0] for p in pts], dtype=float)
    vals = np.array([p[1] for p in pts], dtype=float)
    if np.any(ns <= 0) or np.any(vals <= 0):
        raise ValueError("scaling fit needs positive sizes and values")
    logs = np.log(ns)
    spread = float(np.max(logs) - np.min(logs))
    if spread == 0.0 or np.finfo(float).eps * float(np.max(np.abs(logs))) > 1e-9 * spread:
        raise NumericalFailure(f"sizes {min(p[0] for p in pts)} to {max(p[0] for p in pts)} are too close to fit: "
                               f"log n spans {spread:.3g}, and its rounding alone could move the slope by more than "
                               "1e-9 relative")
    slope, intercept = np.polyfit(logs, np.log(vals), 1)
    return float(slope), float(intercept)
