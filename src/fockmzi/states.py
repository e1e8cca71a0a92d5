"""Factories for the input states as they reach the first splitter, plus the scheme tag they travel under.

Light in port A alone (coherent light, |N,0>) is held as its photon-number
weights (PortALight), since each of its photons crosses the interferometer on
its own.  Coherent light is truncated at the smallest cutoff whose dropped
Poisson tail is below COHERENT_TAIL_TOL = 1e-18.  There a larger cutoff
changes no printed digit of any command, so no caller chooses a cutoff or a
tolerance.
"""

import math

import numpy as np

from .fock import NumericalFailure, ReadOnly, TwoModeState, log_factorials, make_basis_state

SCHEME_NAMES = (
    "single-port-fock",
    "coherent",
    "dual-fock",
    "noon",
    "yurke-fermionic-analog",
    "yurke-bosonic",
)

_SQRT_HALF = 1.0 / math.sqrt(2.0)

COHERENT_TAIL_TOL = 1e-18  # the Poisson tail mass a truncated coherent state may drop
COHERENT_CUTOFF_CAP = 2_000_000  # the largest coherent cutoff accepted; --n 1987641 is the brightest that fits
_PAST_CAP = f"no cutoff up to {COHERENT_CUTOFF_CAP} keeps the coherent tail mass below {COHERENT_TAIL_TOL:.1e}"


class TruncationError(ValueError, NumericalFailure):
    """Raised when no coherent cutoff up to COHERENT_CUTOFF_CAP drops less tail mass than COHERENT_TAIL_TOL."""


class SchemeTag(ReadOnly):
    """Canonical name + size of one input scheme, as used by the CLI."""

    __slots__ = ("name", "n")

    def __init__(self, name: str, n: int):
        if name not in SCHEME_NAMES:
            raise ValueError(f"unknown scheme {name!r}, expected one of {SCHEME_NAMES}")
        if n < 0:
            raise ValueError(f"scheme size must be nonnegative, got {n}")
        if name == "yurke-fermionic-analog" and n % 2 == 0:
            raise ValueError(f"yurke-fermionic-analog needs odd n, got {n}")
        if name == "yurke-bosonic" and (n % 2 == 1 or n == 0):
            raise ValueError(f"yurke-bosonic needs positive even n, got {n}")
        if name == "noon" and n < 1:
            raise ValueError(f"noon needs n >= 1, got {n}")
        self._fill(name=name, n=n)


class PortALight(ReadOnly):
    """Light in port A and vacuum in port B, sum_n c_n |n,0>, held as its photon-number weights alone.

    weights[i] = |c_n|^2 for block n = first + i.  Each photon leaves the
    interferometer on its own (Campos, Saleh & Teich, PRA 40, 1371, 1989), so
    these weights and their mean and variance, each an exactly rounded sum
    (math.fsum), are all that sweeps, Fisher information, sampling and Bayes
    read of the light.  The weights must be nonnegative and sum to 1 within
    1e-12.
    """

    __slots__ = ("first", "weights", "mean", "variance")

    def __init__(self, first: int, weights):
        w = np.array(weights, dtype=float)
        if first < 0:
            raise ValueError(f"block index must be nonnegative, got {first}")
        if w.ndim != 1 or w.size == 0 or not np.all(w >= 0.0) or abs(np.sum(w) - 1.0) > 1e-12:
            raise ValueError("photon-number weights must be a nonempty 1-d array of nonnegative numbers summing to 1")
        w.setflags(write=False)
        n = first + np.arange(w.size)
        mean = math.fsum(w * n)
        self._fill(first=first, weights=w, mean=mean, variance=math.fsum(w * (n - mean) ** 2))


def dual_fock(n: int) -> TwoModeState:
    """Twin Fock input |N>_A |N>_B."""
    return make_basis_state(n, n)


def noon(n: int, phi: float) -> TwoModeState:
    """Path-entangled (|N,0> + e^{iN phi}|0,N>)/sqrt(2)."""
    if n < 1:
        raise ValueError(f"noon state needs n >= 1, got {n}")
    vec = np.zeros(n + 1, dtype=np.complex128)
    vec[0] = _SQRT_HALF
    vec[n] = _SQRT_HALF * np.exp(1j * n * phi)
    return TwoModeState({n: vec})


def yurke_fermionic_analog(n: int) -> TwoModeState:
    """Near-balanced pair (|(N+1)/2,(N-1)/2> + |(N-1)/2,(N+1)/2>)/sqrt(2); N odd."""
    if n % 2 == 0 or n < 1:
        raise ValueError(f"fermionic-analog state needs positive odd n, got {n}")
    hi, lo = (n + 1) // 2, (n - 1) // 2
    vec = np.zeros(n + 1, dtype=np.complex128)
    vec[lo] = _SQRT_HALF  # (hi, lo)
    vec[hi] = _SQRT_HALF  # (lo, hi)
    return TwoModeState({n: vec})


def yurke_bosonic(n: int) -> TwoModeState:
    """Bosonic variant (|N/2,N/2> + |N/2+1,N/2-1>)/sqrt(2); N even and positive."""
    if n % 2 == 1 or n < 2:
        raise ValueError(f"bosonic variant needs positive even n, got {n}")
    half = n // 2
    vec = np.zeros(n + 1, dtype=np.complex128)
    vec[half] = _SQRT_HALF  # (half, half)
    vec[half - 1] = _SQRT_HALF  # (half + 1, half - 1)
    return TwoModeState({n: vec})


def required_coherent_cutoff(mean_photons: float) -> int:
    """Smallest cutoff whose truncated Poisson tail is below COHERENT_TAIL_TOL, for coherent light of
    mean photon number mean_photons.

    Above the mean the weights e^-lam lam^k / k! fall monotonically, so one
    walk finds it: up from the mean to a weight negligible against the
    tolerance, then down, adding the dropped weights smallest first, to the
    last k where one more weight would bring the tail to the tolerance.
    Raises ValueError for a NaN or negative mean, and TruncationError when no
    cutoff up to COHERENT_CUTOFF_CAP is enough (an infinite mean among them).
    """
    lam = mean_photons
    if not lam >= 0.0:  # NaN or negative
        raise ValueError(f"mean photon number must be a real >= 0, got {lam}")
    if lam > COHERENT_CUTOFF_CAP:  # the mean alone is past the cap
        raise TruncationError(_PAST_CAP)
    if lam == 0.0:
        return 0

    def weight(k: int) -> float:  # from its logarithm, so none underflows early
        return math.exp(k * math.log(lam) - lam - math.lgamma(k + 1))

    k = math.ceil(lam)
    while weight(k) > 1e-17 * COHERENT_TAIL_TOL:
        k += 1
    tail = 0.0  # the mass above k
    while k > 0 and tail + (w := weight(k)) < COHERENT_TAIL_TOL:
        tail += w
        k -= 1
    if k > COHERENT_CUTOFF_CAP:
        raise TruncationError(_PAST_CAP)
    return k


def coherent_amplitudes(mean_photons: float) -> tuple[int, np.ndarray]:
    """(first, c) for c the real photon-number amplitudes c_first..c_K of coherent light of mean photon
    number mean_photons, truncated at K = required_coherent_cutoff(mean_photons) and renormalized, and
    first the first block whose weight c_k^2 is not 0: a walk down from the mean stops at weights below
    e^-800, and the blocks below them weigh exactly 0.

    Each c_k is the square root of its Poisson weight, taken from its
    logarithm, so none underflows before its own value does.  The norm is an
    exactly rounded sum (math.fsum), so no BLAS build or thread count can
    reorder it.  Raises TruncationError where no cutoff up to
    COHERENT_CUTOFF_CAP is enough.
    """
    cutoff = required_coherent_cutoff(mean_photons)
    if mean_photons == 0.0:
        return 0, np.ones(1)
    log_mean = math.log(mean_photons)
    first = min(math.floor(mean_photons), cutoff)
    while first > 0 and (first - 1) * log_mean - mean_photons - math.lgamma(first) > -800.0:
        first -= 1
    amps = np.exp((np.arange(first, cutoff + 1) * log_mean - mean_photons - log_factorials(cutoff, first)) / 2.0)
    amps /= math.sqrt(math.fsum(amps * amps))
    skip = int(np.argmax(amps * amps > 0.0))
    return first + skip, amps[skip:]
