"""Optical elements and the canonical interferometer U_after . exp(i phi G), which
acts on the state as it enters the phase stage.

There is one beam splitter, the 50/50 exp(i pi/2 J_x), and every form of it
lives here, each on the one photon-number block a Fock input populates: the
block from the J_x eigensystem (splitter_blocks), its action on a state
(split), and J_z pulled back through it (pulled_back_jz), the tridiagonal
-J_y, with its norm bound (pulled_back_jz_bound).
"""

import math
from functools import lru_cache

import numpy as np

from .fock import BlockObservable, BlockUnitary, NumericalFailure, ReadOnly, TwoModeState

BALANCED = math.pi / 2  # splitter angle of the 50/50 beam splitter

ONE_ARM = "one-arm"
SYMMETRIC = "symmetric"
CONVENTIONS = (ONE_ARM, SYMMETRIC)


def _cross_ladder(n: int) -> np.ndarray:
    # a†b on block n, as its offset-1 diagonal: (n_a, n_b) -> (n_a+1, n_b-1) with weight sqrt((n_a+1) n_b)
    i = np.arange(1, n + 1)
    return np.sqrt((n - i + 1) * i)


def _jx_eigensystem(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Eigenvalues and eigenvectors of block n of J_x = (a†b + b†a)/2, held dense and complex."""
    half = _cross_ladder(n) / 2.0
    jx = np.zeros((n + 1, n + 1), dtype=np.complex128)
    jx += np.diag(half, 1)
    jx += np.diag(half, -1)
    return np.linalg.eigh(jx)


@lru_cache(maxsize=1)  # an input's readout reuses the block its split just built
def _splitter_block(n: int) -> np.ndarray:
    """Block n of the 50/50 splitter exp(i BALANCED J_x), from the J_x eigensystem; read-only."""
    w, v = _jx_eigensystem(n)
    block = (v * np.exp(1j * BALANCED * w)) @ v.conj().T
    block.setflags(write=False)
    return block


def splitter_blocks(n: int) -> BlockUnitary:
    """The 50/50 splitter on block n."""
    return BlockUnitary({n: _splitter_block(n)})


def split(state: TwoModeState) -> TwoModeState:
    """The state after the 50/50 splitter, its block rotated by that block of the splitter."""
    return TwoModeState({state.n: _splitter_block(state.n) @ state.amplitudes})


def pulled_back_jz(n: int) -> BlockObservable:
    """U_after† J_z U_after for U_after the 50/50 splitter, on block n: -J_y, where J_y = -i(a†b - b†a)/2."""
    # -J_y's band above the diagonal is i/2 times a†b's; the band below, its conjugate, is implied
    return BlockObservable({n: {1: 0.5j * _cross_ladder(n)}})


def pulled_back_jz_bound(n: int) -> float:
    """pulled_back_jz(n).norm_bound(), bit for bit, in O(1) and with no array.

    Row i of |-J_y| on block n sums half the ladder elements sqrt((n-i)(i+1))
    and sqrt((n-i+1)i).  Both products grow up to the middle row and the row
    sums are symmetric about it; sqrt and rounding are monotone, so the
    rounded sums peak at row n // 2 too, and this is that row's sum, rounded
    as norm_bound rounds it.
    """
    m = n // 2
    return 0.5 * math.sqrt((n - m) * (m + 1)) + 0.5 * math.sqrt((n - m + 1) * m)


def phase_exponent(convention: str, n: int) -> np.ndarray:
    """Diagonal of the phase generator on block n: n_b for 'one-arm', J_z = n/2 - n_b for 'symmetric'."""
    if convention not in CONVENTIONS:
        raise ValueError(f"unknown convention {convention!r}, expected one of {CONVENTIONS}")
    n_b = np.arange(n + 1)
    return n_b if convention == ONE_ARM else (n / 2.0 - n_b)


class InterferometerPipeline(ReadOnly):
    """The canonical interferometer U_after . exp(i phi G).

    Its input is the state as it enters the phase stage: any optics ahead of
    the phase are applied once, when the input is prepared.  G is the
    convention's phase generator, n_b ('one-arm') or J_z ('symmetric'),
    diagonal in the number basis.  U_after is built, and checked unitary,
    once; it must be on the input's block.  None stands for the identity.
    """

    __slots__ = ("convention", "after")

    def __init__(self, convention: str = ONE_ARM, after: BlockUnitary | None = None):
        phase_exponent(convention, 0)  # rejects an unknown convention
        self._fill(convention=convention, after=after)

    def _phase_stage(self, state: TwoModeState, phi_grid) -> tuple[np.ndarray, np.ndarray]:
        """g, the diagonal of G on the state's block, and e^{i phi g} psi, one column per phase.

        A phase whose product with the largest |g| is not finite raises
        NumericalFailure: its factors would be NaN.  A U_after on another
        block than the state's raises ValueError.
        """
        if self.after is not None and self.after.n != state.n:
            raise ValueError(f"U_after is on block {self.after.n}, the input on block {state.n}")
        grid = np.asarray(phi_grid, dtype=float)
        g = phase_exponent(self.convention, state.n)
        largest = float(np.max(np.abs(g)))
        with np.errstate(over="ignore", invalid="ignore"):
            unbounded = ~np.isfinite(grid * largest)
        if unbounded.any():
            raise NumericalFailure(f"phase {float(grid[unbounded][0])!r} times the phase generator's largest |g|, "
                                   f"{largest:g}, is not finite")
        return g, np.exp(1j * np.outer(g, grid)) * state.amplitudes[:, None]

    def evolve_grid(self, state: TwoModeState, phi_grid) -> tuple[np.ndarray, np.ndarray]:
        """The output psi and G_out psi, one column per phase: U_after . (e^{i phi g} * psi) and
        U_after . (g * e^{i phi g} * psi), each one (n+1) x P product."""
        g, phased = self._phase_stage(state, phi_grid)
        moved = g[:, None] * phased
        if self.after is None:
            return phased, moved
        return self.after.matrix @ phased, self.after.matrix @ moved

    def output_rows(self, state: TwoModeState, phi_grid, rows) -> np.ndarray:
        """The given rows of the output, one column per phase.

        Only those rows are formed: U_after[rows] . (e^{i phi g} * psi),
        from the phase stage evolve_grid uses, so every row has the same
        terms as the same row of evolve_grid's output.  The sums are
        bit-identical only where the BLAS gives each output row the same sums
        whatever the row count, as OpenBLAS does at these sizes on one thread;
        other builds may differ in the last bits.
        """
        _, phased = self._phase_stage(state, phi_grid)
        if self.after is None:
            return phased[rows]
        # a single row would go to gemv, whose sums can differ from gemm's in the last bit
        picked = self.after.matrix[rows if len(rows) > 1 else [rows[0], rows[0]]]
        return (picked @ phased)[: len(rows)]

    def evolve(self, state: TwoModeState, phi: float) -> TwoModeState:
        """Output state at one phase: the single column of evolve_grid."""
        return TwoModeState({state.n: self.evolve_grid(state, [phi])[0][:, 0]})

    def output_generator(self, n: int) -> BlockObservable:
        """The phase generator G on block n, for a pipeline with no U_after.

        The evolved state then obeys d|psi>/dphi = i G |psi>, so the returned
        observable drives exact phase derivatives of expectations.  A pipeline
        with a U_after raises ValueError: its generator in the output frame,
        U_after G U_after†, is dense, and no command needs it.
        """
        if self.after is not None:
            raise ValueError("output_generator needs a pipeline without U_after")
        return BlockObservable({n: {0: phase_exponent(self.convention, n)}})
