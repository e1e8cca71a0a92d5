"""Wiring from scheme tags to concrete inputs, pipelines, observables and readouts.

Light in port A alone, `single-port-fock` and `coherent`, is wired as its
photon-number weights (`states.PortALight`): every photon crosses the
balanced interferometer on its own, so `estimation` reads these inputs in
closed form, with no state, observable or readout built.
Every other scheme carries two pipelines sharing one input state: the N00N
state as it enters the phase stage, and the twin-Fock and Yurke inputs ahead
of the first splitter, the 50/50 `elements.SPLITTER`.
'analysis' ends at the phase stage and feeds the scheme observable
(expectation/variance/sensitivity): the flip observable for the
path-entangled scheme and, for the balanced-splitter schemes, J_z pulled back
through the second splitter, -J_y.
'sampling' appends the readout that makes the phase visible in
number-resolved detection (the second splitter, or the flip-basis rotation);
it is built on first use, by Fisher information, sampling and Bayes.  Every
form of the splitter comes from `elements`; this module only chooses the
input, the observable and the readout.  A Fock-space input has a definite
photon number N, so input, observable and readout are all on its one block
N.  The cutoff is read off the input: that block N, or for coherent light
the truncation `states.coherent_amplitudes` chooses.
"""

import math
import sys
from collections.abc import Callable
from functools import partial

import numpy as np

from .elements import ONE_ARM, SPLITTER, InterferometerPipeline, pulled_back_jz
from .fock import BlockObservable, BlockUnitary, NumericalFailure, ReadOnly, TwoModeState
from .states import (
    PortALight,
    SchemeTag,
    coherent_amplitudes,
    dual_fock,
    noon,
    yurke_bosonic,
    yurke_fermionic_analog,
)


class SchemeSetup(ReadOnly):
    """What one scheme needs for sweeps, Fisher information, sampling and Bayes: the cutoff, the pipeline
    up to the phase stage ('analysis', which fixes the convention) and the likelihood period, and then
    either `light`, for port-A inputs, or the Fock-space input state 'analysis' takes, the observable and
    the readout, a function that gives the sampling U_after on the input's block."""

    __slots__ = ("cutoff", "analysis", "likelihood_period", "light", "input_state", "observable", "readout",
                 "_sampling")

    def __init__(self, cutoff: int, analysis: InterferometerPipeline, likelihood_period: float,
                 light: PortALight | None = None, input_state: TwoModeState | None = None,
                 observable: BlockObservable | None = None, readout: Callable[[], BlockUnitary | str] | None = None):
        if (light is None) == (input_state is None):
            raise ValueError("a setup needs either port-A light or a Fock-space input state")
        self._fill(cutoff=cutoff, analysis=analysis, likelihood_period=likelihood_period, light=light,
                   input_state=input_state, observable=observable, readout=readout, _sampling=None)

    @property
    def sampling(self) -> InterferometerPipeline:
        """The analysis pipeline followed by the readout, built on first use."""
        if self._sampling is None:
            self._fill(_sampling=InterferometerPipeline(self.analysis.convention, self.readout(), self.analysis.before))
        return self._sampling


def observable_noon_flip(n: int) -> BlockObservable:
    """The two-entry flip observable |N,0><0,N| + |0,N><N,0| on block N."""
    if n < 1:
        raise ValueError(f"flip observable needs n >= 1, got {n}")
    return BlockObservable({n: {n: np.ones(1)}})


def noon_readout(n: int) -> BlockUnitary:
    """Rotation taking the flip-observable eigenbasis to the number basis, on block N alone.

    It acts as a Hadamard on span{|N,0>, |0,N>} and as identity on the rest
    of block N.  Number-resolved detection after this stage realizes the
    flip measurement as a two-outcome coarse-graining.
    """
    if n < 1:
        raise ValueError(f"readout needs n >= 1, got {n}")
    h = np.eye(n + 1, dtype=np.complex128)
    r = 1.0 / math.sqrt(2.0)
    h[0, 0], h[0, n], h[n, 0], h[n, n] = r, r, r, -r
    return BlockUnitary({n: h})


def build_setup(tag: SchemeTag, convention: str = ONE_ARM) -> SchemeSetup:
    """Assemble everything one scheme needs for sweeps, sampling, and Bayes, at the cutoff of its input:
    the block of a Fock-space input, the largest block of port-A light.  Port-A light is its photon-number
    weights; the N00N state is prepared at the phase stage; every other input enters ahead of the first
    splitter.  Raises TruncationError for coherent light too bright for any cutoff up to
    states.COHERENT_CUTOFF_CAP, NumericalFailure for |N,0> with N past numpy's 64-bit integers, and
    MemoryError, before any factory runs, for a Fock-space input whose block no array can index."""
    analysis = InterferometerPipeline(convention)
    if tag.name in ("single-port-fock", "coherent"):
        if tag.name == "coherent":
            first, amplitudes = coherent_amplitudes(tag.n)
            light = PortALight(first, amplitudes * amplitudes)
        elif tag.n < 2**63:
            light = PortALight(tag.n, np.ones(1))
        else:
            raise NumericalFailure(f"single-port-fock at n={tag.n}: photon numbers from 2**63 on do not fit "
                                   "numpy's 64-bit integers")
        return SchemeSetup(light.first + light.weights.size - 1, analysis, 2.0 * math.pi, light=light)
    block = 2 * tag.n if tag.name == "dual-fock" else tag.n  # the input's photon number
    if (block + 1) * 16 > sys.maxsize:  # the bytes of its complex128 amplitudes
        raise MemoryError(f"{tag.name} at n={tag.n}: its block needs more bytes than any array can index")
    if tag.name == "noon":
        inp = noon(tag.n, 0.0)
        observable, period, readout = observable_noon_flip(tag.n), 2.0 * math.pi / tag.n, partial(noon_readout, tag.n)
    else:
        inp = {"dual-fock": dual_fock, "yurke-fermionic-analog": yurke_fermionic_analog,
               "yurke-bosonic": yurke_bosonic}[tag.name](tag.n)
        analysis = InterferometerPipeline(convention, before=SPLITTER)
        observable, period, readout = pulled_back_jz(inp.n), 2.0 * math.pi, lambda: SPLITTER

    return SchemeSetup(inp.n, analysis, period, input_state=inp, observable=observable, readout=readout)
