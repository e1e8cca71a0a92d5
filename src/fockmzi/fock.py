"""Two-mode bosonic Fock space: states, banded observables and exact unitaries,
the forms every optical element of `elements` is written in.

Basis states are occupation pairs (n_a, n_b).  Everything is stored per
fixed-total-photon-number block: block n covers {|n,0>, |n-1,1>, ..., |0,n>}
in descending n_a order, so number-conserving unitaries are block diagonal
and can be exponentiated exactly by Hermitian eigendecomposition.  An
observable block is given and kept as its diagonals on and above the main
one, offset k >= 0 -> diagonal; the lower half is their conjugate, so every
observable is Hermitian by its form.
"""

import math
from dataclasses import dataclass

import numpy as np

UNITARY_TOL = 1e-12


class NumericalFailure(Exception):
    """Base of the errors raised when a computation cannot return a trustworthy
    number (the command line exits 2 on any of them)."""


def block_labels(n: int) -> list[tuple[int, int]]:
    """Occupation pairs (n_a, n_b) of block n in storage order (descending n_a)."""
    return [(n - i, i) for i in range(n + 1)]


def _frozen(arr: np.ndarray) -> np.ndarray:
    out = np.array(arr, dtype=np.complex128)
    out.setflags(write=False)
    return out


@dataclass(frozen=True)
class TwoModeState:
    """Pure two-mode state held as one dense amplitude vector per populated block.

    Blocks absent from the map are exactly zero; number-conserving unitaries
    never create them, so unpopulated blocks stay zero by construction.
    """

    blocks: dict[int, np.ndarray]

    def __post_init__(self):
        clean = {}
        for n in sorted(self.blocks):
            if n < 0:
                raise ValueError(f"block index must be nonnegative, got {n}")
            vec = np.asarray(self.blocks[n])
            if vec.shape != (n + 1,):
                raise ValueError(f"block {n} needs {n + 1} amplitudes, got shape {vec.shape}")
            clean[n] = _frozen(vec)
        object.__setattr__(self, "blocks", clean)

    def probabilities(self) -> dict[tuple[int, int], float]:
        """Outcome probabilities |amplitude|^2 over all populated basis states."""
        probs = {}
        for n, vec in self.blocks.items():
            probs.update(zip(block_labels(n), (np.abs(vec) ** 2).tolist()))
        return probs


def _bands(n: int, block: dict[int, np.ndarray]) -> dict[int, np.ndarray]:
    """The nonzero diagonals of block n on and above the main one, as a map from offset to diagonal."""
    bands = {}
    for k, diag in sorted(block.items()):
        diag = np.asarray(diag)
        if k < 0:
            raise ValueError(f"block {n} is given diagonal {k}: only offsets k >= 0 are stored")
        if diag.shape != (max(n + 1 - k, 0),):
            raise ValueError(f"block {n} cannot hold diagonal {k} of shape {diag.shape}")
        if k == 0 and np.any(np.imag(diag)):
            raise ValueError(f"block {n} has a main diagonal that is not real")
        if np.any(diag):
            bands[k] = _frozen(diag)
    return bands


@dataclass(frozen=True)
class BlockObservable:
    """Hermitian operator stored per total-photon-number block as its nonzero upper diagonals.

    blocks[n] maps an offset k >= 0 to the diagonal of entries (i, i + k) of
    block n; entry (i + k, i) is the conjugate of entry (i, i + k), so the
    operator is Hermitian by its form.  The constructor keeps only the
    nonzero diagonals.  Absent blocks and absent diagonals are zero.
    """

    blocks: dict[int, dict[int, np.ndarray]]

    def __post_init__(self):
        object.__setattr__(self, "blocks", {n: _bands(n, self.blocks[n]) for n in sorted(self.blocks)})

    def apply_block(self, n: int, x: np.ndarray) -> np.ndarray:
        """Block n of the operator applied to x, an (n+1)-vector or an (n+1) x P array of columns."""
        out = np.zeros(x.shape, dtype=np.complex128)
        for k, diag in self.blocks.get(n, {}).items():
            diag = diag.reshape(diag.shape + (1,) * (x.ndim - 1))
            out[: n + 1 - k] += diag * x[k:]
            if k > 0:
                out[k:] += diag.conj() * x[: n + 1 - k]
        return out

    def norm_bound(self, n: int) -> float:
        """The largest absolute row sum of block n, a bound on its spectral norm."""
        rows = np.zeros(n + 1)
        for k, diag in self.blocks.get(n, {}).items():
            rows[: n + 1 - k] += np.abs(diag)
            if k > 0:
                rows[k:] += np.abs(diag)
        return float(rows.max(initial=0.0))


@dataclass(frozen=True)
class BlockUnitary:
    """Number-conserving unitary stored per total-photon-number block."""

    blocks: dict[int, np.ndarray]

    def __post_init__(self):
        clean = {}
        for n in sorted(self.blocks):
            mat = np.asarray(self.blocks[n])
            if mat.shape != (n + 1, n + 1):
                raise ValueError(f"block {n} must be {n + 1}x{n + 1}, got {mat.shape}")
            if np.max(np.abs(mat.conj().T @ mat - np.eye(n + 1))) > UNITARY_TOL:
                raise ValueError(f"block {n} is not unitary within {UNITARY_TOL}")
            clean[n] = _frozen(mat)
        object.__setattr__(self, "blocks", clean)


def make_basis_state(n_a: int, n_b: int) -> TwoModeState:
    """Single Fock basis state |n_a, n_b>."""
    if n_a < 0 or n_b < 0:
        raise ValueError(f"occupation ({n_a}, {n_b}) has a negative photon number")
    vec = np.zeros(n_a + n_b + 1, dtype=np.complex128)
    vec[n_b] = 1.0
    return TwoModeState({n_a + n_b: vec})


def log_factorials(k_max: int) -> np.ndarray:
    """log k! for k = 0..k_max."""
    return np.array([math.lgamma(k + 1) for k in range(k_max + 1)])
