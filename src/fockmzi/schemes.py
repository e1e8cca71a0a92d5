"""Wiring from scheme tags to concrete inputs, pipelines, and observables.

Each scheme carries two pipelines: 'analysis' feeds the scheme observable
(expectation/variance/sensitivity), 'sampling' ends in whatever readout makes
the phase visible in number-resolved detection (identical for all schemes
except the path-entangled one, whose U_after is its flip-basis rotation).
"""

import math
from dataclasses import dataclass

from .elements import BALANCED, ONE_ARM, InterferometerPipeline, beam_splitter, mach_zehnder_pipeline
from .estimation import noon_readout, observable_noon_flip
from .fock import BlockObservable, TwoModeState, apply, j_observable
from .states import (
    SchemeTag,
    coherent_vacuum,
    dual_fock,
    noon,
    required_coherent_cutoff,
    single_port_fock,
    yurke_bosonic,
    yurke_fermionic_analog,
)

NOON_FRAMINGS = ("post-bs", "input")
COHERENT_TAIL_TOL = 1e-12


@dataclass(frozen=True)
class SchemeSetup:
    tag: SchemeTag
    cutoff: int
    input_state: TwoModeState
    analysis: InterferometerPipeline
    sampling: InterferometerPipeline
    observable: BlockObservable
    likelihood_period: float


def default_cutoff(tag: SchemeTag) -> int:
    if tag.name == "dual-fock":
        return 2 * tag.n
    if tag.name == "coherent":
        return required_coherent_cutoff(math.sqrt(tag.n), COHERENT_TAIL_TOL)
    return max(tag.n, 1)


def build_setup(
    tag: SchemeTag,
    convention: str = ONE_ARM,
    invert_second_bs: bool = False,
    noon_framing: str = "post-bs",
    cutoff: int | None = None,
) -> SchemeSetup:
    """Assemble everything one scheme needs for sweeps, sampling, and Bayes."""
    if noon_framing not in NOON_FRAMINGS:
        raise ValueError(f"unknown framing {noon_framing!r}, expected one of {NOON_FRAMINGS}")
    cut = default_cutoff(tag) if cutoff is None else cutoff

    if tag.name == "noon":
        # Entangled state prepared at the phase stage by default; the 'input'
        # framing pulls it back through an inverted splitter to the input port.
        if noon_framing == "post-bs":
            inp, before = noon(tag.n, 0.0, cut), None
        else:
            inp = apply(beam_splitter(-BALANCED, cut), noon(tag.n, 0.0, cut))
            before = beam_splitter(BALANCED, cut)
        return SchemeSetup(
            tag=tag,
            cutoff=cut,
            input_state=inp,
            analysis=InterferometerPipeline(convention, before=before),
            sampling=InterferometerPipeline(convention, before=before, after=noon_readout(tag.n, cut)),
            observable=observable_noon_flip(tag.n),
            likelihood_period=2.0 * math.pi / tag.n,
        )

    if tag.name == "single-port-fock":
        inp = single_port_fock(tag.n, cut)
    elif tag.name == "coherent":
        inp = coherent_vacuum(math.sqrt(tag.n), cut, COHERENT_TAIL_TOL)
    elif tag.name == "dual-fock":
        inp = dual_fock(tag.n, cut)
    elif tag.name == "yurke-fermionic-analog":
        inp = yurke_fermionic_analog(tag.n, cut)
    elif tag.name == "yurke-bosonic":
        inp = yurke_bosonic(tag.n, cut)
    else:
        raise ValueError(f"unhandled scheme {tag.name!r}")

    mz = mach_zehnder_pipeline(cut, convention, invert_second_bs)
    return SchemeSetup(
        tag=tag,
        cutoff=cut,
        input_state=inp,
        analysis=mz,
        sampling=mz,
        observable=j_observable("z", cut),
        likelihood_period=2.0 * math.pi,
    )
