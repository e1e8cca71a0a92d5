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

import numpy as np

UNITARY_TOL = 1e-12


class NumericalFailure(Exception):
    """Base of the errors raised when a computation cannot return a trustworthy
    number (the command line exits 2 on any of them)."""


def block_labels(n: int) -> list[tuple[int, int]]:
    """Occupation pairs (n_a, n_b) of block n in storage order (descending n_a)."""
    return [(n - i, i) for i in range(n + 1)]


def _frozen(arr: np.ndarray) -> np.ndarray:
    """arr as a read-only complex128 array: a read-only copy, or arr itself when it already is one that
    owns its data, so a cached splitter block is held once.  Such an array is shared with whoever made
    it, and writes through it are refused only while its writeable flag stays off: numpy lets the
    owner of an array turn the flag back on."""
    if arr.dtype == np.complex128 and not arr.flags.writeable and arr.base is None:
        return arr
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


class TwoModeState(ReadOnly):
    """Pure two-mode state held as one dense amplitude vector per populated block.

    Blocks absent from the map are exactly zero; number-conserving unitaries
    never create them, so unpopulated blocks stay zero by construction.
    """

    __slots__ = ("blocks",)

    def __init__(self, blocks: dict[int, np.ndarray]):
        clean = {}
        for n in sorted(blocks):
            if n < 0:
                raise ValueError(f"block index must be nonnegative, got {n}")
            vec = np.asarray(blocks[n])
            if vec.shape != (n + 1,):
                raise ValueError(f"block {n} needs {n + 1} amplitudes, got shape {vec.shape}")
            clean[n] = _frozen(vec)
        self._fill(blocks=clean)

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


class BlockObservable(ReadOnly):
    """Hermitian operator stored per total-photon-number block as its nonzero upper diagonals.

    blocks[n] maps an offset k >= 0 to the diagonal of entries (i, i + k) of
    block n; entry (i + k, i) is the conjugate of entry (i, i + k), so the
    operator is Hermitian by its form.  The constructor keeps only the
    nonzero diagonals.  Absent blocks and absent diagonals are zero.
    """

    __slots__ = ("blocks",)

    def __init__(self, blocks: dict[int, dict[int, np.ndarray]]):
        self._fill(blocks={n: _bands(n, blocks[n]) for n in sorted(blocks)})

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


class BlockUnitary(ReadOnly):
    """Number-conserving unitary stored per total-photon-number block."""

    __slots__ = ("blocks",)

    def __init__(self, blocks: dict[int, np.ndarray]):
        clean = {}
        for n in sorted(blocks):
            mat = np.asarray(blocks[n])
            if mat.shape != (n + 1, n + 1):
                raise ValueError(f"block {n} must be {n + 1}x{n + 1}, got {mat.shape}")
            if np.max(np.abs(mat.conj().T @ mat - np.eye(n + 1))) > UNITARY_TOL:
                raise ValueError(f"block {n} is not unitary within {UNITARY_TOL}")
            clean[n] = _frozen(mat)
        self._fill(blocks=clean)


def make_basis_state(n_a: int, n_b: int) -> TwoModeState:
    """Single Fock basis state |n_a, n_b>."""
    if n_a < 0 or n_b < 0:
        raise ValueError(f"occupation ({n_a}, {n_b}) has a negative photon number")
    vec = np.zeros(n_a + n_b + 1, dtype=np.complex128)
    vec[n_b] = 1.0
    return TwoModeState({n_a + n_b: vec})


def log_factorials(k_max: int) -> np.ndarray:
    """log k! for k = 0..k_max, into an array allocated before the first lgamma, so a k_max too large
    to hold fails at once."""
    return np.fromiter(map(math.lgamma, range(1, k_max + 2)), dtype=float, count=k_max + 1)
