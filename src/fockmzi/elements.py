"""Optical elements and the canonical interferometer U_after . exp(i phi G) . U_before.

There is one beam splitter, the 50/50 exp(i pi/2 J_x), never held as a
matrix: on block n it, and splitter . phase . splitter, send a number-basis
state to a column of a Wigner d-matrix up to known phases (_rotation_columns).
J_z pulled back through it (pulled_back_jz) is the tridiagonal -J_y, with its
norm bound (pulled_back_jz_bound).
"""

import math

import numpy as np

from .fock import BlockObservable, BlockUnitary, NumericalFailure, ReadOnly, TwoModeState

BALANCED = math.pi / 2  # splitter angle of the 50/50 beam splitter
SPLITTER = "50/50 splitter"  # a pipeline's U_before or U_after that is the 50/50 splitter

ONE_ARM = "one-arm"
SYMMETRIC = "symmetric"
CONVENTIONS = (ONE_ARM, SYMMETRIC)

_I_POWERS = np.array([1, 1j, -1, -1j])  # i^k for k mod 4, exact


def _cross_ladder(n: int) -> np.ndarray:
    # a†b on block n, as its offset-1 diagonal: (n_a, n_b) -> (n_a+1, n_b-1) with weight sqrt((n_a+1) n_b)
    i = np.arange(1, n + 1)
    return np.sqrt((n - i + 1) * i)


def _rotation_columns(n: int, cols, half_cos, half_sin) -> np.ndarray:
    """Columns cols of the Wigner d-matrix d^j_{m'm}(beta) = <j m'|exp(-i beta J_y)|j m> on block n,
    j = n/2, with m = j - cols and row i holding m' = j - i, at cos(beta/2) = half_cos and
    sin(beta/2) = half_sin: one column per entry of their broadcast batch, shape (n+1,) + batch.

    c = d(beta) e_m is the eigenvector of cos(beta) J_z + sin(beta) J_x of eigenvalue m, so
    L_{i+1} c_{i+1} + L_i c_{i-1} = 2 (m - (j - i) cos beta) c_i / sin beta, L_i = sqrt(i (n+1-i)).
    Run from both ends through their classically forbidden regions, where it is stable, the runs are
    joined at the classical centre m' = m cos beta by a least-squares scale over two rows (Schulten &
    Gordon, J. Math. Phys. 16, 1961, 1975), normalized and given the sign of d^j_{jm}, that of
    (-sin(beta/2))^(j-m) cos(beta/2)^(j+m).  Each row keeps its own power of two, so nothing
    overflows or underflows on the way."""
    shape = np.broadcast(cols, half_cos, half_sin).shape
    sign = np.where((half_sin >= 0) & (cols % 2 == 1), -1.0, 1.0) * np.where((half_cos < 0) & ((n - cols) % 2 == 1), -1.0, 1.0)
    m, cos_b, sin_b = n / 2.0 - cols, (half_cos - half_sin) * (half_cos + half_sin), 2.0 * half_cos * half_sin
    two_over_sin = 2.0 / np.where(np.abs(sin_b) < 1e-300, np.copysign(1e-300, sin_b + 0.0), sin_b)  # finite
    ladder = np.sqrt(np.arange(n + 2) * (n + 1.0 - np.arange(n + 2)))  # L_0 .. L_{n+1}, both ends 0

    def run(rows: range) -> tuple[np.ndarray, np.ndarray]:  # per row, a mantissa and its power of two
        values, exps = np.empty((n + 1,) + shape), np.zeros((n + 1,) + shape, dtype=np.int64)
        prev, cur, exp = np.zeros(shape), np.ones(shape), np.zeros(shape, dtype=np.int64)
        values[rows[0]], up = cur, rows.step > 0
        for i in rows[:-1]:
            nxt = ((m - (n / 2.0 - i) * cos_b) * two_over_sin * cur - ladder[i + (not up)] * prev) / ladder[i + up]
            _, e = np.frexp(np.maximum(np.abs(cur), np.abs(nxt)))
            prev, cur, exp = np.ldexp(cur, -e), np.ldexp(nxt, -e), exp + e
            values[i + rows.step], exps[i + rows.step] = cur, exp
        return values, exps

    centre = np.broadcast_to(np.clip(np.rint(n / 2.0 - m * cos_b), 0, max(n - 1, 0)).astype(np.intp), shape)[None]
    near = np.concatenate((centre, np.minimum(centre + 1, n)))

    def pair(values, exps):  # rows centre and centre + 1 at their larger power of two, and that power
        e = np.take_along_axis(exps, near, 0)
        return np.ldexp(np.take_along_axis(values, near, 0), e - e.max(axis=0)), e.max(axis=0)

    (fwd, fexp), (bwd, bexp) = run(range(n + 1)), run(range(n, -1, -1))
    (f, ftop), (b, btop) = pair(fwd, fexp), pair(bwd, bexp)
    scale, shift = np.frexp(sign * np.sum(f * b, axis=0) / np.sum(b * b, axis=0))
    back = np.arange(n + 1).reshape((n + 1,) + (1,) * len(shape)) > centre
    fwd *= sign
    np.copyto(fwd, bwd * scale, where=back)
    np.copyto(fexp, bexp + (shift + ftop - btop), where=back)
    del bwd, bexp
    np.ldexp(fwd, fexp - fexp.max(axis=0), out=fwd)  # a row below 2^-1074 of the largest is 0
    fwd /= np.sqrt(np.sum(fwd * fwd, axis=0))
    return fwd


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
    """The canonical interferometer U_after . exp(i phi G) . U_before.

    G is the convention's phase generator, n_b ('one-arm') or J_z
    ('symmetric'), diagonal in the number basis.  U_before is SPLITTER or
    None, the identity; U_after is SPLITTER (after a SPLITTER U_before only),
    None or a BlockUnitary on the input's block, checked unitary once.  A
    splitter acts by rotation columns, one per nonzero input amplitude.
    """

    __slots__ = ("convention", "after", "before")

    def __init__(self, convention: str = ONE_ARM, after: BlockUnitary | str | None = None, before: str | None = None):
        phase_exponent(convention, 0)  # rejects an unknown convention
        if before not in (None, SPLITTER) or (after == SPLITTER and before != SPLITTER):
            raise ValueError("U_before is SPLITTER or None, and U_after is SPLITTER only after a SPLITTER U_before")
        self._fill(convention=convention, after=after, before=before)

    def _grid(self, state: TwoModeState, phi_grid) -> tuple[np.ndarray, np.ndarray]:
        """The phase grid as floats and g, the diagonal of G on the state's block.  A phase times the largest
        |g| that is not finite raises NumericalFailure; a U_after on another block, ValueError."""
        if isinstance(self.after, BlockUnitary) and self.after.n != state.n:
            raise ValueError(f"U_after is on block {self.after.n}, the input on block {state.n}")
        grid = np.asarray(phi_grid, dtype=float)
        g = phase_exponent(self.convention, state.n)
        largest = float(np.max(np.abs(g)))
        with np.errstate(over="ignore", invalid="ignore"):
            unbounded = ~np.isfinite(grid * largest)
        if unbounded.any():
            raise NumericalFailure(f"phase {float(grid[unbounded][0])!r} times the phase generator's largest |g|, "
                                   f"{largest:g}, is not finite")
        return grid, g

    def _phase_stage(self, state: TwoModeState, phi_grid) -> tuple[np.ndarray, np.ndarray]:
        """g and e^{i phi g} U_before psi, one column per phase.  The splitter exp(i BALANCED J_x) sends
        e_k to i^(k - i) d^j_{m'm}(-BALANCED) in row i (m' = j - i, m = j - k)."""
        grid, g = self._grid(state, phi_grid)
        amps = state.amplitudes
        if self.before == SPLITTER:
            inputs = np.flatnonzero(amps)
            columns = _rotation_columns(state.n, inputs, math.sqrt(0.5), -math.sqrt(0.5))  # cos(-BALANCED) = 0
            amps = np.sum(amps[inputs] * _I_POWERS[(inputs - np.arange(state.n + 1)[:, None]) % 4] * columns, axis=1)
        return g, np.exp(1j * np.outer(g, grid)) * amps[:, None]

    def _rotated(self, state: TwoModeState, phi_grid) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The output Phi c after two splitters, as the global phase Phi, the columns c and dc/dphi.  On
        block n the interferometer is e^{i phi c0} exp(-/+ i phi J_y) exp(i pi J_x), c0 = n/2 ('one-arm') or 0,
        so e_k leaves as Phi = i^n e^{i phi c0} times column n - k of d(beta), beta = +phi ('one-arm') or
        -phi, and dc/dbeta = (J_- - J_+) c / 2."""
        grid, _ = self._grid(state, phi_grid)
        n, inputs = state.n, np.flatnonzero(state.amplitudes)
        weights = state.amplitudes[inputs]
        beta = grid if self.convention == ONE_ARM else -grid
        columns = _rotation_columns(n, (n - inputs)[:, None], np.cos(beta / 2.0), np.sin(beta / 2.0))
        columns *= (weights if weights.imag.any() else weights.real)[:, None]
        c = columns.sum(axis=1)
        half = _cross_ladder(n)[:, None] / (2.0 if self.convention == ONE_ARM else -2.0)  # dbeta/dphi = +-1
        slope = np.zeros_like(c)
        slope[1:] = half * c[:-1]
        slope[:-1] -= half * c[1:]
        return _I_POWERS[n % 4] * np.exp(1j * (n / 2.0 if self.convention == ONE_ARM else 0.0) * grid), c, slope

    def evolve_grid(self, state: TwoModeState, phi_grid) -> tuple[np.ndarray, np.ndarray]:
        """The output psi and G_out psi, d psi/dphi = i G_out psi, one column per phase:
        U_after . (e^{i phi g} * U_before psi) and U_after . (g * e^{i phi g} * U_before psi)."""
        if self.after == SPLITTER:
            phase, c, slope = self._rotated(state, phi_grid)
            psi = c * phase
            return psi, (state.n / 2.0 if self.convention == ONE_ARM else 0.0) * psi - 1j * slope * phase
        g, phased = self._phase_stage(state, phi_grid)
        moved = g[:, None] * phased
        if self.after is None:
            return phased, moved
        return self.after.matrix @ phased, self.after.matrix @ moved

    def distribution_grid(self, state: TwoModeState, phi_grid) -> tuple[np.ndarray, np.ndarray]:
        """The output probabilities |psi_k|^2 and their exact slopes -2 Im(psi_k* (G_out psi)_k), one column
        per phase; after two splitters |c_k|^2 and 2 Re(c_k* dc_k/dphi), with no complex array."""
        if self.after == SPLITTER:
            _, c, slope = self._rotated(state, phi_grid)
            return np.abs(c) ** 2, 2.0 * (c.conj() * slope).real
        psi, generated = self.evolve_grid(state, phi_grid)
        return np.abs(psi) ** 2, -2.0 * (psi.conj() * generated).imag

    def output_rows(self, state: TwoModeState, phi_grid, rows) -> np.ndarray:
        """The given rows of the output, one column per phase.

        Only those rows of U_after are applied, to the phase stage evolve_grid
        uses, so every row has the same terms as the same row of evolve_grid's
        output.  The sums are bit-identical only where the BLAS gives each
        output row the same sums whatever the row count, as OpenBLAS does at
        these sizes on one thread; other builds may differ in the last bits.
        """
        if self.after == SPLITTER:
            phase, c, _ = self._rotated(state, phi_grid)
            return c[rows] * phase
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
        U_after G U_after†, is not diagonal, and no command needs it.
        """
        if self.after is not None:
            raise ValueError("output_generator needs a pipeline without U_after")
        return BlockObservable({n: {0: phase_exponent(self.convention, n)}})
