"""Two-mode Fock-space simulator of Mach-Zehnder interferometry.

Exact phase-sensitivity curves for classical and entangled inputs (shot-noise
1/sqrt(N) versus Heisenberg 1/N), Hong-Ou-Mandel interference, seeded outcome
sampling with Bayesian post-processing, lithography fringe curves, and an
independent N-qubit circuit cross-check.

Importing the package before numpy runs BLAS on one thread: only the N00N
readout's products and the qubit cross-check still call BLAS, on operands so
small that OpenBLAS's worker threads cost CPU and save no time; twin-Fock and
Yurke inputs use none.  OPENBLAS_NUM_THREADS=1 is set only while numpy loads
OpenBLAS, which reads it once, and only when none of OPENBLAS_NUM_THREADS,
GOTO_NUM_THREADS, OMP_NUM_THREADS and MKL_NUM_THREADS is set to a non-empty
value, so an explicit choice wins.  The environment is left as it was, so
processes started later are not pinned.
"""

import os
from importlib import import_module

_BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
if not any(os.environ.get(var) for var in _BLAS_THREAD_VARS):
    os.environ["OPENBLAS_NUM_THREADS"] = "1"
    import numpy  # loads OpenBLAS, which reads its thread count now

    del os.environ["OPENBLAS_NUM_THREADS"]

# exported name -> the submodule that defines it; `fockmzi.<name>` imports
# that submodule on first use, so `import fockmzi` loads none of them
_EXPORTS = {
    **dict.fromkeys((
        "BlockObservable", "BlockUnitary", "TwoModeState", "make_basis_state",
    ), "fock"),
    **dict.fromkeys((
        "BALANCED", "CONVENTIONS", "ONE_ARM", "SPLITTER", "SYMMETRIC", "InterferometerPipeline", "pulled_back_jz",
    ), "elements"),
    **dict.fromkeys((
        "SCHEME_NAMES", "SchemeTag", "TruncationError", "coherent_amplitudes", "dual_fock", "noon",
        "yurke_bosonic", "yurke_fermionic_analog",
    ), "states"),
    **dict.fromkeys((
        "SchemeSetup", "build_setup", "observable_noon_flip",
    ), "schemes"),
    **dict.fromkeys((
        "ModelMismatchError", "NoPhaseInformationError", "OutcomeHistogram",
        "PosteriorDistribution", "bayes_posterior", "classical_fisher", "min_sensitivity", "phase_sweep",
        "posterior_mean", "posterior_std", "sample_outcomes", "scaling_fit",
    ), "estimation"),
    **dict.fromkeys((
        "InsufficientGridError", "deposition_rate", "fringe_period",
    ), "lithography"),
    **dict.fromkeys((
        "QubitRegister", "cnot", "collective_phase", "expect_flip_product", "ghz_prepare",
        "hadamard",
    ), "rosetta"),
}
__all__ = list(_EXPORTS)


def __getattr__(name: str):
    try:
        module = _EXPORTS[name]
    except KeyError:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}") from None
    return getattr(import_module(f"{__name__}.{module}"), name)


def __dir__() -> list[str]:
    return sorted({*globals(), *_EXPORTS})


__version__ = "0.1.0"
