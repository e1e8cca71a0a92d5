"""Wiring from scheme tags to concrete inputs, pipelines, observables and readouts.

Each scheme carries two pipelines sharing one input state, the state as it
enters the phase stage: the N00N state is prepared there, and every other
input has the first splitter applied once, here.  Both splitters are the one
50/50 splitter of `elements`.
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
from dataclasses import dataclass, replace
from functools import cached_property, partial
from typing import Callable

import numpy as np

from .elements import ONE_ARM, InterferometerPipeline, pulled_back_jz, split, split_port_a, splitter_blocks
from .fock import BlockObservable, BlockUnitary, TwoModeState
from .states import (
    SchemeTag,
    coherent_amplitudes,
    dual_fock,
    noon,
    yurke_bosonic,
    yurke_fermionic_analog,
)


@dataclass(frozen=True)
class SchemeSetup:
    cutoff: int
    input_state: TwoModeState
    analysis: InterferometerPipeline
    observable: BlockObservable
    likelihood_period: float
    readout: Callable[[], BlockUnitary]  # builds the sampling U_after on the input's populated blocks

    @cached_property
    def sampling(self) -> InterferometerPipeline:
        """The analysis pipeline followed by the readout unitary, built on first use."""
        return replace(self.analysis, after=self.readout())


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
    the input's largest block.  The N00N state is prepared at the phase stage; every other input passes
    the first splitter here.  Raises TruncationError for coherent light too bright for any cutoff up to
    states.COHERENT_CUTOFF_CAP, and MemoryError, before any factory runs, for a size whose largest block no
    array can index."""
    block = 2 * tag.n if tag.name == "dual-fock" else tag.n  # the input's largest block, or less for coherent light
    if (block + 1) * 16 > sys.maxsize:  # the bytes of its complex128 amplitudes
        raise MemoryError(f"{tag.name} at n={tag.n}: its largest block needs more bytes than any array can index")
    if tag.name == "noon":
        inp = noon(tag.n, 0.0)
        observable, period, readout = observable_noon_flip(tag.n), 2.0 * math.pi / tag.n, partial(noon_readout, tag.n)
    else:
        if tag.name == "single-port-fock":
            inp = split_port_a({tag.n: 1.0})
        elif tag.name == "coherent":
            inp = split_port_a(dict(enumerate(coherent_amplitudes(tag.n))))
        elif tag.name == "dual-fock":
            inp = split(dual_fock(tag.n))
        elif tag.name == "yurke-fermionic-analog":
            inp = split(yurke_fermionic_analog(tag.n))
        elif tag.name == "yurke-bosonic":
            inp = split(yurke_bosonic(tag.n))
        else:
            raise ValueError(f"unhandled scheme {tag.name!r}")
        observable, period, readout = pulled_back_jz(inp.blocks), 2.0 * math.pi, partial(splitter_blocks, inp.blocks)

    return SchemeSetup(max(inp.blocks), inp, InterferometerPipeline(convention), observable, period, readout)
