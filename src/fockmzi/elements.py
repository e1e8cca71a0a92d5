"""Optical elements and the canonical interferometer U_after . exp(i phi G), which
acts on the state as it enters the phase stage.

Every form of the beam splitter exp(i theta J_x) lives here: its blocks from
the J_x eigensystem (splitter_blocks), its action on a state (split), the
50/50 splitter on port-A inputs in closed form (split_port_a), and J_z pulled
back through it (pulled_back_jz), the tridiagonal -J_y or +J_y.
"""

import math
from collections.abc import Iterable
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .fock import BlockObservable, BlockUnitary, NumericalFailure, TwoModeState, log_factorials

BALANCED = math.pi / 2  # splitter angle of the 50/50 beam splitter

ONE_ARM = "one-arm"
SYMMETRIC = "symmetric"
CONVENTIONS = (ONE_ARM, SYMMETRIC)

_I_POWERS = np.array([1, 1j, -1, -1j])


def _cross_ladder(n: int) -> np.ndarray:
    # a†b on block n, as its offset-1 diagonal: (n_a, n_b) -> (n_a+1, n_b-1) with weight sqrt((n_a+1) n_b)
    i = np.arange(1, n + 1)
    return np.sqrt((n - i + 1) * i)


@lru_cache(maxsize=None)
def _jx_eigensystem(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Eigenvalues and eigenvectors of block n of J_x = (a†b + b†a)/2, held dense and complex."""
    half = _cross_ladder(n) / 2.0
    jx = np.zeros((n + 1, n + 1), dtype=np.complex128)
    jx += np.diag(half, 1)
    jx += np.diag(half, -1)
    w, v = np.linalg.eigh(jx)
    w.setflags(write=False)
    v.setflags(write=False)
    return w, v


def _splitter_block(theta: float, n: int) -> np.ndarray:
    """Block n of the beam splitter exp(i theta J_x), from the cached J_x eigensystem."""
    w, v = _jx_eigensystem(n)
    return (v * np.exp(1j * theta * w)) @ v.conj().T


def splitter_blocks(theta: float, blocks: Iterable[int]) -> BlockUnitary:
    """The beam splitter exp(i theta J_x) on the given blocks alone."""
    return BlockUnitary({n: _splitter_block(theta, n) for n in blocks})


def split(state: TwoModeState, theta: float) -> TwoModeState:
    """The state after the splitter exp(i theta J_x), each populated block rotated by
    its own block of the splitter; no other block is built."""
    return TwoModeState({n: _splitter_block(theta, n) @ vec for n, vec in state.blocks.items()})


def split_port_a(amplitudes: dict[int, complex]) -> TwoModeState:
    """sum_n c_n |n,0> after the 50/50 splitter exp(i pi/2 J_x), in closed form.

    Block n becomes c_n sqrt(C(n,k)) / 2^{n/2} i^k on |n-k,k>: the binomial
    weights come from log-factorials and i^k is taken exactly from a table.
    """
    log_fact = log_factorials(max(amplitudes, default=0))
    blocks = {}
    for n, c in amplitudes.items():
        k = np.arange(n + 1)
        log_binom = log_fact[n] - log_fact[: n + 1] - log_fact[n::-1]
        blocks[n] = c * np.exp((log_binom - n * math.log(2.0)) / 2.0) * _I_POWERS[k % 4]
    return TwoModeState(blocks)


def pulled_back_jz(blocks: Iterable[int], invert_second_bs: bool = False) -> BlockObservable:
    """U_after† J_z U_after for U_after the splitter exp(±i BALANCED J_x), on the given blocks:
    -J_y, or +J_y when inverted, where J_y = -i(a†b - b†a)/2."""
    sign = 1.0 if invert_second_bs else -1.0
    # J_y's band above the diagonal is -i/2 times a†b's; the band below, its conjugate, is implied
    return BlockObservable({n: {1: sign * (-0.5j * _cross_ladder(n))} for n in blocks})


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
    once; it needs a block for each block the input populates.  None
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
        """The phase generator G on every block up to the cutoff, for a pipeline with no U_after.

        The evolved state then obeys d|psi>/dphi = i G |psi>, so the returned
        observable drives exact phase derivatives of expectations.  A pipeline
        with a U_after raises ValueError: its generator in the output frame,
        U_after G U_after†, is dense, and no command needs it.
        """
        if self.after is not None:
            raise ValueError("output_generator needs a pipeline without U_after")
        return BlockObservable({n: {0: phase_exponent(self.convention, n)} for n in range(cutoff + 1)})
