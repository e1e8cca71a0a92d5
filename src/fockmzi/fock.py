"""Two-mode bosonic Fock space: states, banded observables, the Schwinger J_x and
J_y, and exact unitaries.

Basis states are occupation pairs (n_a, n_b).  Everything is stored per
fixed-total-photon-number block: block n covers {|n,0>, |n-1,1>, ..., |0,n>}
in descending n_a order, so number-conserving unitaries are block diagonal
and can be exponentiated exactly by Hermitian eigendecomposition.  An
observable block is given and kept as its diagonals, offset -> diagonal.
"""

from dataclasses import dataclass

import numpy as np

HERMITIAN_TOL = 1e-12
UNITARY_TOL = 1e-12

J_AXES = ("x", "y")


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
    """The nonzero diagonals of block n, given as a map from offset to diagonal."""
    bands = {}
    for k, diag in sorted(block.items()):
        diag = np.asarray(diag)
        if diag.shape != (max(n + 1 - abs(k), 0),):
            raise ValueError(f"block {n} cannot hold diagonal {k} of shape {diag.shape}")
        if np.any(diag):
            bands[k] = _frozen(diag)
    return bands


@dataclass(frozen=True)
class BlockObservable:
    """Hermitian operator stored per total-photon-number block as its nonzero diagonals.

    blocks[n] maps an offset k to the diagonal of entries (i, i + k) of block n;
    the constructor keeps only the nonzero diagonals.  Absent blocks and absent
    diagonals are zero.
    """

    blocks: dict[int, dict[int, np.ndarray]]

    def __post_init__(self):
        clean = {}
        for n in sorted(self.blocks):
            bands = _bands(n, self.blocks[n])
            for k, diag in bands.items():
                mirror = bands.get(-k)
                mirror = np.zeros_like(diag) if mirror is None else mirror.conj()
                if np.max(np.abs(diag - mirror)) > HERMITIAN_TOL:
                    raise ValueError(f"block {n} is not Hermitian within {HERMITIAN_TOL}")
            clean[n] = bands
        object.__setattr__(self, "blocks", clean)

    def apply_block(self, n: int, x: np.ndarray) -> np.ndarray:
        """Block n of the operator applied to x, an (n+1)-vector or an (n+1) x P array of columns."""
        out = np.zeros(x.shape, dtype=np.complex128)
        for k, diag in self.blocks.get(n, {}).items():
            diag = diag.reshape(diag.shape + (1,) * (x.ndim - 1))
            if k >= 0:
                out[: n + 1 - k] += diag * x[k:]
            else:
                out[-k:] += diag * x[: n + 1 + k]
        return out

    def norm_bound(self, n: int) -> float:
        """The largest absolute row sum of block n, a bound on its spectral norm."""
        rows = np.zeros(n + 1)
        for k, diag in self.blocks.get(n, {}).items():
            rows[max(-k, 0) : n + 1 - max(k, 0)] += np.abs(diag)
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


def _cross_ladder(n: int) -> np.ndarray:
    # a†b on block n, as its offset-1 diagonal: (n_a, n_b) -> (n_a+1, n_b-1) with weight sqrt((n_a+1) n_b)
    i = np.arange(1, n + 1)
    return np.sqrt((n - i + 1) * i)


def j_bands(axis: str, n: int) -> dict[int, np.ndarray]:
    """One fixed-n block of a Schwinger angular-momentum operator, as offset -> diagonal.

    'x' and 'y' give J_x = (a†b + b†a)/2 and J_y = -i(a†b - b†a)/2 with
    standard bosonic ladder matrix elements.  J_z, diagonal, is the
    'symmetric' phase exponent of `elements`.
    """
    if n < 0:
        raise ValueError(f"block index must be nonnegative, got {n}")
    if axis == "x":
        half = _cross_ladder(n) / 2.0
        return {1: half, -1: half}
    if axis == "y":
        up = _cross_ladder(n)
        return {1: -0.5j * up, -1: 0.5j * up}
    raise ValueError(f"unknown axis {axis!r}, expected one of {J_AXES}")


def build_j_operator(axis: str, n: int) -> np.ndarray:
    """j_bands(axis, n) as a dense complex (n+1) x (n+1) matrix."""
    mat = np.zeros((n + 1, n + 1), dtype=np.complex128)
    for k, diag in j_bands(axis, n).items():
        mat += np.diag(diag, k)
    return mat

