"""Two-mode Fock-space simulator of Mach-Zehnder interferometry.

Exact phase-sensitivity curves for classical and entangled inputs (shot-noise
1/sqrt(N) versus Heisenberg 1/N), Hong-Ou-Mandel interference, seeded outcome
sampling with Bayesian post-processing, lithography fringe curves, and an
independent N-qubit circuit cross-check.
"""

from .elements import (
    BALANCED,
    CONVENTIONS,
    ONE_ARM,
    SYMMETRIC,
    GridEvolution,
    InterferometerPipeline,
    balanced_split,
    beam_splitter,
    mach_zehnder_pipeline,
    phase_shifter,
)
from .estimation import (
    ModelMismatchError,
    NoPhaseInformationError,
    OutcomeHistogram,
    PosteriorDistribution,
    SensitivityCurve,
    bayes_posterior,
    classical_fisher,
    ensemble_sensitivity,
    min_sensitivity,
    observable_noon_flip,
    phase_sweep,
    posterior_mean,
    posterior_std,
    sample_outcomes,
    scaling_fit,
    sensitivity,
    sensitivity_curve,
)
from .fock import (
    BlockObservable,
    BlockUnitary,
    TwoModeState,
    apply,
    build_j_operator,
    expectation,
    j_bands,
    j_observable,
    make_basis_state,
    number_observable,
    spectral_exponential,
    variance,
)
from .lithography import (
    DepositionCurve,
    InsufficientGridError,
    deposition_rate,
    fringe_period,
    noon_fidelity_sweep,
)
from .rosetta import (
    QubitRegister,
    cnot,
    collective_phase,
    expect_flip_product,
    expect_flip_sum,
    ghz_prepare,
    hadamard,
    phase_gate,
)
from .schemes import SchemeSetup, build_setup, pulled_back_jz
from .states import (
    SCHEME_NAMES,
    SchemeTag,
    TruncationError,
    coherent_amplitudes,
    coherent_vacuum,
    dual_fock,
    noon,
    single_port_fock,
    split_port_a,
    yurke_bosonic,
    yurke_fermionic_analog,
)

__version__ = "0.1.0"
