"""Two-mode bosonic Fock space: states, banded observables and exact unitaries,
the forms every optical element of `elements` is written in.

Basis states are occupation pairs (n_a, n_b), grouped by total photon number:
block n covers {|n,0>, |n-1,1>, ..., |0,n>} in descending n_a order.  Every
input the commands run on the Fock path has a definite photon number, and a
number-conserving interferometer keeps it, so each state, observable and
unitary here lives in one block n: it is given as {n: value} and holds n and
that value.  An observable is kept as its diagonals on and above the main
one, offset k >= 0 -> diagonal; the lower half is their conjugate, so every
observable is Hermitian by its form.
"""

import math

import numpy as np

UNITARY_TOL = 1e-12


class NumericalFailure(Exception):
    """Base of the errors raised when a computation cannot return a trustworthy
    number (the command line exits 2 on any of them)."""


def block_labels(n: int) -> list[tuple[int, int]]:
    """Occupation pairs (n_a, n_b) of block n in storage order (descending n_a)."""
    return [(n - i, i) for i in range(n + 1)]


def _frozen(arr: np.ndarray) -> np.ndarray:
    """A read-only complex128 copy of arr, so no caller can write through it."""
    out = np.array(arr, dtype=np.complex128)
    out.setflags(write=False)
    return out


class ReadOnly:
    """Base of the value classes: each __init__ validates its arguments once and sets its __slots__
    through _fill; after that, assignment and deletion raise AttributeError.  Instances
    compare equal, hash and print by their public slots, in order, as frozen dataclasses do by their
    fields."""

    __slots__ = ()

    def _fill(self, **values):
        """Set slots: each public one once, from __init__, and a private cache slot on first use."""
        for name, value in values.items():
            object.__setattr__(self, name, value)

    def __setattr__(self, name, value):
        raise AttributeError(f"{type(self).__name__} is read-only: cannot set {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"{type(self).__name__} is read-only: cannot delete {name!r}")

    def __setstate__(self, state):
        """Restore a copy or an unpickled value: copy and pickle give back the set slots, (None, {name: value})."""
        self._fill(**state[1])

    def _fields(self) -> dict:
        """The public slots and their values, in slot order."""
        return {name: getattr(self, name) for name in self.__slots__ if not name.startswith("_")}

    def __eq__(self, other):
        return self._fields() == other._fields() if type(other) is type(self) else NotImplemented

    def __hash__(self):
        return hash(tuple(self._fields().values()))

    def __repr__(self):
        return f"{type(self).__name__}({', '.join(f'{k}={v!r}' for k, v in self._fields().items())})"


def _one_block(given: dict) -> tuple[int, object]:
    """The (n, value) of a {n: value} map with exactly one entry and n >= 0."""
    if len(given) != 1:
        raise ValueError(f"a Fock-space value holds one photon-number block, got {len(given)}")
    ((n, value),) = given.items()
    if n < 0:
        raise ValueError(f"block index must be nonnegative, got {n}")
    return n, value


class TwoModeState(ReadOnly):
    """Pure two-mode state of n photons, given as {n: amplitudes} and held as n and its dense
    amplitude vector, every other block exactly zero.  Number-conserving unitaries keep it in block n."""

    __slots__ = ("n", "amplitudes")

    def __init__(self, blocks: dict[int, np.ndarray]):
        n, vec = _one_block(blocks)
        vec = np.asarray(vec)
        if vec.shape != (n + 1,):
            raise ValueError(f"block {n} needs {n + 1} amplitudes, got shape {vec.shape}")
        self._fill(n=n, amplitudes=_frozen(vec))

    def probabilities(self) -> dict[tuple[int, int], float]:
        """Outcome probabilities |amplitude|^2 over the basis states of block n."""
        return dict(zip(block_labels(self.n), (np.abs(self.amplitudes) ** 2).tolist()))


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


class BlockObservable(ReadOnly):
    """Hermitian operator on block n, given as {n: {k: diagonal}} and held as n and its nonzero upper
    diagonals.

    bands maps an offset k >= 0 to the diagonal of entries (i, i + k); entry
    (i + k, i) is the conjugate of entry (i, i + k), so the operator is
    Hermitian by its form.  Absent diagonals are zero.
    """

    __slots__ = ("n", "bands")

    def __init__(self, blocks: dict[int, dict[int, np.ndarray]]):
        n, bands = _one_block(blocks)
        self._fill(n=n, bands=_bands(n, bands))

    def apply(self, x: np.ndarray) -> np.ndarray:
        """The operator applied to x, an (n+1)-vector or an (n+1) x P array of columns."""
        n = self.n
        out = np.zeros(x.shape, dtype=np.complex128)
        for k, diag in self.bands.items():
            diag = diag.reshape(diag.shape + (1,) * (x.ndim - 1))
            out[: n + 1 - k] += diag * x[k:]
            if k > 0:
                out[k:] += diag.conj() * x[: n + 1 - k]
        return out

    def norm_bound(self) -> float:
        """The largest absolute row sum, a bound on the spectral norm."""
        n = self.n
        rows = np.zeros(n + 1)
        for k, diag in self.bands.items():
            rows[: n + 1 - k] += np.abs(diag)
            if k > 0:
                rows[k:] += np.abs(diag)
        return float(rows.max(initial=0.0))


class BlockUnitary(ReadOnly):
    """Number-conserving unitary on block n, given as {n: matrix} and held as n and its matrix,
    checked unitary once."""

    __slots__ = ("n", "matrix")

    def __init__(self, blocks: dict[int, np.ndarray]):
        n, mat = _one_block(blocks)
        mat = np.asarray(mat)
        if mat.shape != (n + 1, n + 1):
            raise ValueError(f"block {n} must be {n + 1}x{n + 1}, got {mat.shape}")
        if np.max(np.abs(mat.conj().T @ mat - np.eye(n + 1))) > UNITARY_TOL:
            raise ValueError(f"block {n} is not unitary within {UNITARY_TOL}")
        self._fill(n=n, matrix=_frozen(mat))


def make_basis_state(n_a: int, n_b: int) -> TwoModeState:
    """Single Fock basis state |n_a, n_b>."""
    if n_a < 0 or n_b < 0:
        raise ValueError(f"occupation ({n_a}, {n_b}) has a negative photon number")
    vec = np.zeros(n_a + n_b + 1, dtype=np.complex128)
    vec[n_b] = 1.0
    return TwoModeState({n_a + n_b: vec})


def log_factorials(k_max: int, k_min: int = 0) -> np.ndarray:
    """log k! for k = k_min..k_max, into an array allocated before the first lgamma, so a k_max too large
    to hold fails at once."""
    return np.fromiter(map(math.lgamma, range(k_min + 1, k_max + 2)), dtype=float, count=k_max - k_min + 1)
