"""Factories for the input states as they reach the first splitter, plus the scheme tag they travel under.

Coherent light is truncated at the smallest cutoff whose dropped Poisson tail
is below COHERENT_TAIL_TOL = 1e-18.  There a larger cutoff changes no printed
digit of any command, so no caller chooses a cutoff or a tolerance.
"""

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .fock import NumericalFailure, TwoModeState, log_factorials, make_basis_state

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
COHERENT_CUTOFF_CAP = 100_000  # the largest coherent cutoff searched; --n 97256 is the brightest that fits


class TruncationError(ValueError, NumericalFailure):
    """Raised when no coherent cutoff up to COHERENT_CUTOFF_CAP drops less tail mass than COHERENT_TAIL_TOL."""


@dataclass(frozen=True)
class SchemeTag:
    """Canonical name + size of one input scheme, as used by the CLI."""

    name: str
    n: int

    def __post_init__(self):
        if self.name not in SCHEME_NAMES:
            raise ValueError(f"unknown scheme {self.name!r}, expected one of {SCHEME_NAMES}")
        if self.n < 0:
            raise ValueError(f"scheme size must be nonnegative, got {self.n}")
        if self.name == "yurke-fermionic-analog" and self.n % 2 == 0:
            raise ValueError(f"yurke-fermionic-analog needs odd n, got {self.n}")
        if self.name == "yurke-bosonic" and (self.n % 2 == 1 or self.n == 0):
            raise ValueError(f"yurke-bosonic needs positive even n, got {self.n}")
        if self.name == "noon" and self.n < 1:
            raise ValueError(f"noon needs n >= 1, got {self.n}")


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


def coherent_tail_mass(alpha: complex, cutoff: int) -> float:
    """Probability mass of the Poisson photon distribution beyond the cutoff.

    From just below the mean upward the dropped weights are summed directly,
    so a small tail never comes from a cancellation.  Further below the mean
    the kept mass is under about one half, and 1 minus it loses nothing.
    """
    lam = abs(alpha) ** 2
    if lam == 0.0:
        return 0.0
    if cutoff + 1 < lam:
        return 1.0 - _poisson_mass(lam, range(cutoff, -1, -1))
    return min(1.0, _poisson_mass(lam, itertools.count(cutoff + 1)))  # lgamma roundoff can pass 1


def required_coherent_cutoff(alpha: complex) -> int:
    """Smallest cutoff whose truncated Poisson tail is below COHERENT_TAIL_TOL.

    Raises TruncationError when no cutoff up to COHERENT_CUTOFF_CAP is enough.
    """
    if coherent_tail_mass(alpha, COHERENT_CUTOFF_CAP) >= COHERENT_TAIL_TOL:
        raise TruncationError(f"no cutoff up to {COHERENT_CUTOFF_CAP} keeps the coherent tail mass "
                              f"below {COHERENT_TAIL_TOL:.1e}")
    lo, hi = -1, COHERENT_CUTOFF_CAP  # tail(lo) >= tol > tail(hi); the tail falls with the cutoff
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if coherent_tail_mass(alpha, mid) < COHERENT_TAIL_TOL:
            hi = mid
        else:
            lo = mid
    return hi


def coherent_amplitudes(alpha: complex) -> np.ndarray:
    """Photon-number amplitudes c_0..c_K of |alpha>, truncated at K = required_coherent_cutoff(alpha)
    and renormalized.

    Each |c_k| comes from its Poisson log-weight, so none underflows before
    its own value does.  Raises TruncationError where no cutoff up to
    COHERENT_CUTOFF_CAP is enough.
    """
    cutoff = required_coherent_cutoff(alpha)
    lam = abs(alpha) ** 2
    k = np.arange(cutoff + 1)
    if lam == 0.0:
        amps = (k == 0).astype(np.complex128)
    else:
        log_weights = k * math.log(lam) - lam - log_factorials(cutoff)
        amps = np.exp(log_weights / 2.0) * np.exp(1j * k * np.angle(alpha))
    return amps / np.linalg.norm(amps)
