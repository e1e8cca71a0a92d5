"""Reference implementations that only the tests use."""

from dataclasses import dataclass

import numpy as np

from fockmzi.elements import BALANCED, ONE_ARM, InterferometerPipeline, beam_splitter
from fockmzi.fock import BlockObservable, BlockUnitary, TwoModeState, apply
from fockmzi.lithography import DepositionCurve, InsufficientGridError
from fockmzi.rosetta import QubitRegister


@dataclass(frozen=True)
class PortPipeline:
    """A pipeline that takes port states: `first` is applied before the phase stage."""

    first: BlockUnitary
    pipeline: InterferometerPipeline

    def evolve(self, state: TwoModeState, phi: float) -> TwoModeState:
        return self.pipeline.evolve(apply(self.first, state), phi)

    def output_generator(self, cutoff: int) -> BlockObservable:
        return self.pipeline.output_generator(cutoff)


def mach_zehnder_pipeline(cutoff: int, convention: str = ONE_ARM, invert_second_bs: bool = False) -> PortPipeline:
    """Balanced splitter, phase, balanced splitter; the second splitter optionally inverted."""
    second = beam_splitter(-BALANCED if invert_second_bs else BALANCED, cutoff)
    return PortPipeline(beam_splitter(BALANCED, cutoff), InterferometerPipeline(convention, after=second))


def expect_flip_sum(reg: QubitRegister) -> float:
    """<sum_k X_k>: total of the single-qubit flip observables."""
    amps = reg.amplitudes
    idx = np.arange(amps.size)
    total = 0.0
    for k in range(reg.n_qubits):
        total += float(np.vdot(amps, amps[idx ^ (1 << (reg.n_qubits - 1 - k))]).real)
    return total


def fringe_period_loop(curve: DepositionCurve) -> float:
    """fringe_period one grid point at a time: each interior maximum refined by
    a three-point quadratic fit, the period the mean distance between them."""
    x, r = curve.x_grid, curve.rate
    peaks = []
    for i in range(1, x.size - 1):
        if r[i] >= r[i - 1] and r[i] > r[i + 1]:
            denom = r[i - 1] - 2.0 * r[i] + r[i + 1]
            if denom >= 0.0:
                continue
            offset = 0.5 * (r[i - 1] - r[i + 1]) / denom
            peaks.append(x[i] + offset * (x[i + 1] - x[i]))
    if len(peaks) < 2:
        raise InsufficientGridError(f"found {len(peaks)} maxima; the grid must span at least two periods")
    return float(np.mean(np.diff(peaks)))
