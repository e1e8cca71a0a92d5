"""Optical elements and the canonical interferometer U_after . exp(i phi G), which
acts on the state as it enters the phase stage."""

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .fock import BlockObservable, BlockUnitary, NumericalFailure, TwoModeState, build_j_operator

BALANCED = math.pi / 2  # splitter angle of the 50/50 beam splitter

ONE_ARM = "one-arm"
SYMMETRIC = "symmetric"
CONVENTIONS = (ONE_ARM, SYMMETRIC)


@lru_cache(maxsize=None)
def _jx_eigensystem(n: int) -> tuple[np.ndarray, np.ndarray]:
    w, v = np.linalg.eigh(build_j_operator("x", n))
    w.setflags(write=False)
    v.setflags(write=False)
    return w, v


def _splitter_block(theta: float, n: int) -> np.ndarray:
    """Block n of the beam splitter exp(i theta J_x), from the cached J_x eigensystem."""
    w, v = _jx_eigensystem(n)
    return (v * np.exp(1j * theta * w)) @ v.conj().T


def split(state: TwoModeState, theta: float) -> TwoModeState:
    """The state after the splitter exp(i theta J_x), each populated block rotated by
    its own block of the splitter; no other block is built."""
    return TwoModeState({n: _splitter_block(theta, n) @ vec for n, vec in state.blocks.items()})


def phase_exponent(convention: str, n: int) -> np.ndarray:
    """Diagonal of the phase generator on block n: n_b for 'one-arm', J_z = n/2 - n_b for 'symmetric'."""
    if convention not in CONVENTIONS:
        raise ValueError(f"unknown convention {convention!r}, expected one of {CONVENTIONS}")
    n_b = np.arange(n + 1)
    return n_b if convention == ONE_ARM else (n / 2.0 - n_b)


def _block(unitary: BlockUnitary, n: int) -> np.ndarray:
    mat = unitary.blocks.get(n)
    if mat is None:
        raise ValueError(f"unitary has no block for total photon number {n}")
    return mat


@dataclass(frozen=True)
class InterferometerPipeline:
    """The canonical interferometer U_after . exp(i phi G).

    Its input is the state as it enters the phase stage: any optics ahead of
    the phase are applied once, when the input is prepared.  G is the
    convention's phase generator, n_b ('one-arm') or J_z ('symmetric'),
    diagonal in the number basis.  U_after is built, and checked unitary,
    once; it needs a block for each block the input populates, and
    output_generator(cutoff) needs every block up to the cutoff.  None
    stands for the identity.
    """

    convention: str = ONE_ARM
    after: BlockUnitary | None = None

    def __post_init__(self):
        phase_exponent(self.convention, 0)  # rejects an unknown convention

    def _phase_stage_over(self, state: TwoModeState, grid: np.ndarray):
        """A function giving block n of e^{i phi G} psi, one column per phase, for
        psi the phase-stage state.

        The factors e^{i phi g} are rows of one table, exp(i phi j/2) for the
        values j = 2g of the populated blocks (every second one when they
        share a parity), so each is computed once and not once per block.
        A phase whose product with the largest |g| is not finite raises
        NumericalFailure: its factors would be NaN.
        """
        # g is n_b or n/2 - n_b, so j = 2g is an integer
        doubled = {n: (2 * phase_exponent(self.convention, n)).astype(int) for n in state.blocks}
        low = min((j.min() for j in doubled.values()), default=0)
        high = max((j.max() for j in doubled.values()), default=0)
        largest = max(-low, high) / 2.0
        with np.errstate(over="ignore", invalid="ignore"):
            unbounded = ~np.isfinite(grid * largest)
        if unbounded.any():
            raise NumericalFailure(f"phase {float(grid[unbounded][0])!r} times the phase generator's largest |g|, "
                                   f"{largest:g}, is not finite")
        step = 1 if any(np.any((j - low) % 2) for j in doubled.values()) else 2
        table = np.exp(1j * np.outer(np.arange(low, high + 1, step) / 2.0, grid))
        return lambda n: table[(doubled[n] - low) // step] * state.blocks[n][:, None]

    def evolve_blocks(self, state: TwoModeState, phi_grid):
        """Yield (n, output block n, G_out applied to it) per populated block, one column per phase.

        Block n of the output is U_after . (e^{i phi g} * psi) and G_out psi
        is U_after . (g * e^{i phi g} * psi), each one (n+1) x P product.
        """
        phased_block = self._phase_stage_over(state, np.asarray(phi_grid, dtype=float))
        for n in state.blocks:
            phased = phased_block(n)
            moved = phase_exponent(self.convention, n)[:, None] * phased
            if self.after is not None:
                u = _block(self.after, n)
                phased, moved = u @ phased, u @ moved
            yield n, phased, moved

    def output_rows(self, state: TwoModeState, phi_grid, requests):
        """Yield, for each (n, rows) of requests in turn, those rows of output block n, one column per phase.

        Only the requested rows are formed: U_after[n][rows] . (e^{i phi g} * psi),
        from the phase table evolve_blocks uses, so every row has the same
        terms as the same row of evolve_blocks' block.  The sums are
        bit-identical only where the BLAS gives each output row the same sums
        whatever the row count, as OpenBLAS does at these sizes on one thread;
        other builds may differ in the last bits.  Each n must be a populated block.
        """
        phased_block = self._phase_stage_over(state, np.asarray(phi_grid, dtype=float))
        for n, rows in requests:
            phased = phased_block(n)
            if self.after is None:
                yield phased[rows]
                continue
            # a single row would go to gemv, whose sums can differ from gemm's in the last bit
            picked = _block(self.after, n)[rows if len(rows) > 1 else [rows[0], rows[0]]]
            yield (picked @ phased)[: len(rows)]

    def evolve(self, state: TwoModeState, phi: float) -> TwoModeState:
        """Output state at one phase: the single column of evolve_blocks."""
        return TwoModeState({n: amps[:, 0] for n, amps, _ in self.evolve_blocks(state, [phi])})

    def output_generator(self, cutoff: int) -> BlockObservable:
        """Phase generator conjugated into the output frame, U_after G U_after†.

        The evolved output state obeys d|psi>/dphi = i (U_after G U_after†) |psi>,
        so the returned observable drives exact phase derivatives of expectations.
        """
        blocks = {}
        for n in range(cutoff + 1):
            g = phase_exponent(self.convention, n)
            if self.after is None:
                blocks[n] = {0: g}
                continue
            u = _block(self.after, n)
            m = (u * g) @ u.conj().T
            m = (m + m.conj().T) / 2.0  # re-hermitize roundoff
            blocks[n] = {k: np.diagonal(m, k) for k in range(-n, n + 1)}
        return BlockObservable(blocks)

