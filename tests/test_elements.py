import math

import numpy as np
import pytest

from fockmzi.elements import (
    BALANCED,
    ONE_ARM,
    SYMMETRIC,
    InterferometerPipeline,
    phase_exponent,
)
from fockmzi.fock import make_basis_state
from fockmzi.states import dual_fock, noon, yurke_bosonic, yurke_fermionic_analog
from oracles import (
    amplitude,
    apply,
    beam_splitter,
    dense,
    expectation,
    j_observable,
    mach_zehnder_pipeline,
    phase_derivative,
    phase_shifter,
    spectral_exponential,
)


def mz_distribution(state, phi, convention):
    return mach_zehnder_pipeline(max(state.blocks), convention).evolve(state, phi).probabilities()


def pipeline_block(pipeline, phi, n):
    """Block n of the pipeline's unitary at phi, one evolved basis state per column."""
    columns = [pipeline.evolve(make_basis_state(n - i, i), phi).blocks[n] for i in range(n + 1)]
    return np.column_stack(columns)


def test_beam_splitter_matches_spectral_exponential():
    theta = 0.83
    fast = beam_splitter(theta, 6)
    ref = spectral_exponential(j_observable("x", 6), theta)
    for n in range(7):
        assert np.max(np.abs(fast.blocks[n] - ref.blocks[n])) < 1e-13


def test_beam_splitter_zero_angle_is_identity():
    u = beam_splitter(0.0, 4)
    for n, mat in u.blocks.items():
        assert np.allclose(mat, np.eye(n + 1), atol=1e-14)


def test_hom_splitting_of_twin_photons():
    out = apply(beam_splitter(BALANCED, 2), make_basis_state(1, 1))
    probs = out.probabilities()
    assert probs[(1, 1)] < 1e-12
    assert probs[(2, 0)] == pytest.approx(0.5, abs=1e-12)
    assert probs[(0, 2)] == pytest.approx(0.5, abs=1e-12)


@pytest.mark.parametrize("n", [1, 2, 3, 6, 12])
def test_balanced_splitter_gives_binomial_sorting(n):
    # oracle: expand (a† + i b†)^N / sqrt(2^N N!) on vacuum
    out = apply(beam_splitter(BALANCED, n), make_basis_state(n, 0))
    for n_b in range(n + 1):
        expected = 1j**n_b * math.sqrt(math.comb(n, n_b) / 2**n)
        assert abs(amplitude(out, n - n_b, n_b) - expected) < 1e-13


def test_balanced_splitter_single_photon_probabilities_exact():
    out = apply(beam_splitter(BALANCED, 1), make_basis_state(1, 0))
    probs = out.probabilities()
    assert abs(probs[(1, 0)] - 0.5) < 1e-15
    assert abs(probs[(0, 1)] - 0.5) < 1e-15


def test_one_arm_shifter_phases_noon_branch():
    phi = 0.37
    for n in (1, 3, 5):
        out = apply(phase_shifter(phi, ONE_ARM, n), make_basis_state(0, n))
        assert abs(amplitude(out, 0, n) - np.exp(1j * n * phi)) < 1e-14


def test_symmetric_shifter_fixes_balanced_states():
    out = apply(phase_shifter(1.3, SYMMETRIC, 6), make_basis_state(3, 3))
    assert abs(amplitude(out, 3, 3) - 1.0) < 1e-14


def test_zero_phase_is_identity():
    for conv in (ONE_ARM, SYMMETRIC):
        u = phase_shifter(0.0, conv, 4)
        for n, mat in u.blocks.items():
            assert np.allclose(mat, np.eye(n + 1), atol=1e-15)


def test_phase_shifter_rejects_unknown_convention():
    with pytest.raises(ValueError):
        phase_shifter(0.1, "both-arms", 2)
    with pytest.raises(ValueError):
        InterferometerPipeline("both-arms")


def test_convention_relation_global_phase_and_reflection():
    # one-arm(phi) equals e^{i phi n/2} times symmetric(-phi), block by block
    phi = 0.91
    one = phase_shifter(phi, ONE_ARM, 10)
    sym = phase_shifter(-phi, SYMMETRIC, 10)
    for n in range(11):
        scale = np.exp(1j * phi * n / 2)
        assert np.max(np.abs(one.blocks[n] - scale * sym.blocks[n])) < 1e-13


def test_conventions_give_identical_distributions_for_number_inputs():
    for n_a, n_b in [(1, 0), (2, 0), (1, 1), (3, 2), (4, 4), (0, 5), (6, 4)]:
        s = make_basis_state(n_a, n_b)
        for phi in (0.4, 1.7, 2.9):
            p_one = mz_distribution(s, phi, ONE_ARM)
            p_sym = mz_distribution(s, phi, SYMMETRIC)
            for key in p_one:
                assert abs(p_one[key] - p_sym[key]) < 1e-12


def test_conventions_pair_up_for_entangled_inputs():
    # for superposition inputs one-arm(phi) matches symmetric at the mirrored phase
    for s in (noon(3, 0.4), yurke_fermionic_analog(3), yurke_bosonic(4)):
        for phi in (0.6, 2.1):
            p_one = mz_distribution(s, phi, ONE_ARM)
            p_sym = mz_distribution(s, -phi, SYMMETRIC)
            for key in p_one:
                assert abs(p_one[key] - p_sym[key]) < 1e-12


def test_mach_zehnder_identity_when_inverted_at_zero_phase():
    pipeline = mach_zehnder_pipeline(5, ONE_ARM, invert_second_bs=True)
    for n in range(6):
        assert np.allclose(pipeline_block(pipeline, 0.0, n), np.eye(n + 1), atol=1e-12)


@pytest.mark.parametrize("phi", [0.2, 1.1, 2.7])
def test_single_photon_fringes(phi):
    probs = mz_distribution(make_basis_state(1, 0), phi, SYMMETRIC)
    lo, hi = (1 - math.cos(phi)) / 2, (1 + math.cos(phi)) / 2
    assert sorted([probs[(1, 0)], probs[(0, 1)]]) == pytest.approx(sorted([lo, hi]), abs=1e-12)


def test_mach_zehnder_is_unitary_for_random_phases():
    rng = np.random.default_rng(23)
    pipeline = mach_zehnder_pipeline(8, ONE_ARM)
    for _ in range(5):
        phi = float(rng.uniform(-math.pi, math.pi))
        for n in range(9):
            mat = pipeline_block(pipeline, phi, n)
            assert np.max(np.abs(mat.conj().T @ mat - np.eye(n + 1))) < 1e-12


def test_dual_fock_mean_difference_is_phase_blind():
    cutoff = 6
    s = dual_fock(3)
    pipeline = mach_zehnder_pipeline(cutoff, ONE_ARM)
    jz = j_observable("z", cutoff)
    gen = pipeline.output_generator(cutoff)
    for phi in np.linspace(0.0, math.pi, 25):
        assert abs(phase_derivative(pipeline.evolve(s, phi), jz, gen)) < 1e-10


def test_pipeline_unitary_matches_mach_zehnder():
    # oracle: splitter, phase shifter and inverted splitter applied one after another
    pipeline = mach_zehnder_pipeline(4, SYMMETRIC, invert_second_bs=True)
    for phi in (0.3, 1.9):
        for n_a, n_b in [(1, 0), (2, 1), (0, 4), (2, 2)]:
            s = make_basis_state(n_a, n_b)
            direct = apply(beam_splitter(-BALANCED, 4), apply(phase_shifter(phi, SYMMETRIC, 4), apply(beam_splitter(BALANCED, 4), s)))
            via = pipeline.evolve(s, phi)
            for n in direct.blocks:
                assert np.max(np.abs(via.blocks[n] - direct.blocks[n])) < 1e-13


def test_output_generator_drives_exact_derivative():
    cutoff = 4
    pipeline = mach_zehnder_pipeline(cutoff, ONE_ARM)
    s = make_basis_state(2, 1)
    jz = j_observable("z", cutoff)
    gen = pipeline.output_generator(cutoff)
    h = 1e-6
    for phi in (0.4, 1.3):
        exact = phase_derivative(pipeline.evolve(s, phi), jz, gen)
        fd = (
            expectation(jz, pipeline.evolve(s, phi + h))
            - expectation(jz, pipeline.evolve(s, phi - h))
        ) / (2 * h)
        assert abs(exact - fd) < 1e-8


@pytest.mark.parametrize("convention", [ONE_ARM, SYMMETRIC])
def test_output_generator_is_the_phase_generator_and_refuses_a_readout(convention):
    cutoff = 5
    gen = InterferometerPipeline(convention).output_generator(cutoff)
    assert sorted(gen.blocks) == list(range(cutoff + 1))
    for n in range(cutoff + 1):
        assert np.array_equal(dense(gen, n), np.diag(phase_exponent(convention, n)))
    with pytest.raises(ValueError, match="without U_after"):
        InterferometerPipeline(convention, after=beam_splitter(BALANCED, cutoff)).output_generator(cutoff)


@pytest.mark.parametrize("convention", [ONE_ARM, SYMMETRIC])
@pytest.mark.parametrize("with_after", [False, True])
def test_output_rows_are_bit_identical_to_rows_of_evolve_blocks(convention, with_after, assert_same_products):
    cutoff = 9
    state = apply(beam_splitter(BALANCED, cutoff), yurke_bosonic(4))
    pipeline = InterferometerPipeline(convention, after=beam_splitter(BALANCED, cutoff) if with_after else None)
    grid = np.linspace(0.0, 2 * math.pi, 64, endpoint=False)
    blocks = {n: psi for n, psi, _ in pipeline.evolve_blocks(state, grid)}
    requests = [(n, [r]) for n in blocks for r in range(n + 1)]  # one row per product
    requests += [(n, [n, 0]) for n in blocks] + [(n, list(range(n + 1))) for n in blocks]
    for (n, rows), got in zip(requests, pipeline.output_rows(state, grid, requests), strict=True):
        assert_same_products(got, blocks[n][rows], rtol=1e-15, atol=1e-15)
