"""Deposition-rate curves of single-photon, classical two-photon and N00N
exposure, as rate arrays over a position grid, and the fringe period measured
on them."""

import math

import numpy as np

from .fock import NumericalFailure

KINDS = ("single", "classical-two-photon", "noon")


class InsufficientGridError(ValueError, NumericalFailure):
    """Raised when a curve grid resolves fewer than two fringe maxima."""


def deposition_rate(kind: str, n: int, x_grid, wavelength: float) -> np.ndarray:
    """Deposition rate at each point of x, with the substrate position
    parametrized as phi = pi x / wavelength.

    'single' gives 1 + cos(phi); 'classical-two-photon' its square; 'noon'
    gives 1 + cos(N phi), the N-fold fringe compression of path-entangled
    exposure.
    """
    if kind not in KINDS:
        raise ValueError(f"unknown kind {kind!r}, expected one of {KINDS}")
    if wavelength <= 0:
        raise ValueError(f"wavelength must be positive, got {wavelength}")
    if kind == "noon" and n < 1:
        raise ValueError(f"noon exposure needs n >= 1, got {n}")
    x = np.asarray(x_grid, dtype=float)
    phi = math.pi * x / wavelength
    if kind == "single":
        rate = 1.0 + np.cos(phi)
    elif kind == "classical-two-photon":
        rate = (1.0 + np.cos(phi)) ** 2
    else:
        rate = 1.0 + np.cos(n * phi)
    return np.maximum(rate, 0.0)  # clip -0.0-scale roundoff at the nulls


def fringe_period(x_grid, rate) -> float:
    """Mean distance between adjacent fringe maxima of a rate curve over x_grid.

    Interior local maxima are refined by a three-point quadratic fit; the grid
    must span at least two full periods (>= 64 points each) so that two or
    more maxima exist.
    """
    x, r = np.asarray(x_grid, dtype=float), np.asarray(rate, dtype=float)
    if x.shape != r.shape or x.ndim != 1:
        raise ValueError("x grid and rate must be matching 1-d arrays")
    i = 1 + np.flatnonzero((r[1:-1] >= r[:-2]) & (r[1:-1] > r[2:]))  # interior local maxima
    denom = r[i - 1] - 2.0 * r[i] + r[i + 1]
    curved = denom < 0.0
    i, denom = i[curved], denom[curved]
    offset = 0.5 * (r[i - 1] - r[i + 1]) / denom
    peaks = x[i] + offset * (x[i + 1] - x[i])
    if peaks.size < 2:
        raise InsufficientGridError(f"found {peaks.size} maxima; the grid must span at least two periods")
    return float(np.mean(np.diff(peaks)))
