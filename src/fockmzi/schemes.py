"""Wiring from scheme tags to concrete inputs, pipelines, observables and readouts.

Light in port A alone, `single-port-fock` and `coherent`, is wired as its
photon-number weights (`states.PortALight`): every photon crosses the
balanced interferometer on its own, so `estimation` reads these inputs in
closed form, with no state, observable or readout built.
Every other scheme carries two pipelines sharing one input state, the state
as it enters the phase stage: the N00N state is prepared there, and the
twin-Fock and Yurke inputs have the first splitter applied once, here.  Both
splitters are the one 50/50 splitter of `elements`.
'analysis' is the phase stage alone and feeds the scheme observable
(expectation/variance/sensitivity): the flip observable for the
path-entangled scheme and, for the balanced-splitter schemes, J_z pulled back
through the second splitter, -J_y.
'sampling' appends the readout unitary that makes the phase visible in
number-resolved detection (the second splitter, or the flip-basis rotation);
it is built on first use, by Fisher information, sampling and Bayes.  Every
form of the splitter comes from `elements`; this module only chooses the
input, the observable and the readout.  Input, observable and readout cover only
the populated blocks.  The cutoff is read off the input, its largest block:
the one block a Fock input populates, or for coherent light the truncation
`states.coherent_amplitudes` chooses.
"""

import math
import sys
from collections.abc import Callable
from functools import partial

import numpy as np

from .elements import ONE_ARM, InterferometerPipeline, pulled_back_jz, split, splitter_blocks
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
    """What one scheme needs for sweeps, Fisher information, sampling and Bayes: the cutoff, the phase
    stage ('analysis', which fixes the convention) and the likelihood period, and then either `light`,
    for port-A inputs, or the Fock-space input state at the phase stage, the observable and the readout,
    a function that builds the sampling U_after on the input's populated blocks."""

    __slots__ = ("cutoff", "analysis", "likelihood_period", "light", "input_state", "observable", "readout",
                 "_sampling")

    def __init__(self, cutoff: int, analysis: InterferometerPipeline, likelihood_period: float,
                 light: PortALight | None = None, input_state: TwoModeState | None = None,
                 observable: BlockObservable | None = None, readout: Callable[[], BlockUnitary] | None = None):
        if (light is None) == (input_state is None):
            raise ValueError("a setup needs either port-A light or a Fock-space input state")
        self._fill(cutoff=cutoff, analysis=analysis, likelihood_period=likelihood_period, light=light,
                   input_state=input_state, observable=observable, readout=readout, _sampling=None)

    @property
    def sampling(self) -> InterferometerPipeline:
        """The analysis pipeline followed by the readout unitary, built on first use."""
        if self._sampling is None:
            self._fill(_sampling=InterferometerPipeline(self.analysis.convention, self.readout()))
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
    """Assemble everything one scheme needs for sweeps, sampling, and Bayes, at the cutoff of its input,
    the input's largest block.  Port-A light is its photon-number weights; the N00N state is prepared at
    the phase stage; every other input passes the first splitter here.  Raises TruncationError for coherent
    light too bright for any cutoff up to states.COHERENT_CUTOFF_CAP, NumericalFailure for |N,0> with N
    past numpy's 64-bit integers, and MemoryError, before any factory runs, for a Fock-space input whose
    largest block no array can index."""
    analysis = InterferometerPipeline(convention)
    if tag.name in ("single-port-fock", "coherent"):
        if tag.name == "coherent":
            amplitudes = coherent_amplitudes(tag.n)
            light = PortALight(0, amplitudes * amplitudes)
        elif tag.n < 2**63:
            light = PortALight(tag.n, np.ones(1))
        else:
            raise NumericalFailure(f"single-port-fock at n={tag.n}: photon numbers from 2**63 on do not fit "
                                   "numpy's 64-bit integers")
        return SchemeSetup(light.first + light.weights.size - 1, analysis, 2.0 * math.pi, light=light)
    block = 2 * tag.n if tag.name == "dual-fock" else tag.n  # the input's largest block
    if (block + 1) * 16 > sys.maxsize:  # the bytes of its complex128 amplitudes
        raise MemoryError(f"{tag.name} at n={tag.n}: its largest block needs more bytes than any array can index")
    if tag.name == "noon":
        inp = noon(tag.n, 0.0)
        observable, period, readout = observable_noon_flip(tag.n), 2.0 * math.pi / tag.n, partial(noon_readout, tag.n)
    else:
        if tag.name == "dual-fock":
            inp = split(dual_fock(tag.n))
        elif tag.name == "yurke-fermionic-analog":
            inp = split(yurke_fermionic_analog(tag.n))
        elif tag.name == "yurke-bosonic":
            inp = split(yurke_bosonic(tag.n))
        else:
            raise ValueError(f"unhandled scheme {tag.name!r}")
        observable, period, readout = pulled_back_jz(inp.blocks), 2.0 * math.pi, partial(splitter_blocks, inp.blocks)

    return SchemeSetup(max(inp.blocks), analysis, period, input_state=inp, observable=observable, readout=readout)
