import itertools
import math
import re
from dataclasses import replace

import numpy as np
import pytest

from fockmzi import elements, fock, schemes
from fockmzi.elements import BALANCED, CONVENTIONS, ONE_ARM, pulled_back_jz, split_port_a
from fockmzi.estimation import (
    ModelMismatchError,
    NoPhaseInformationError,
    OutcomeHistogram,
    PosteriorDistribution,
    bayes_posterior,
    classical_fisher,
    min_sensitivity,
    phase_sweep,
    posterior_mean,
    posterior_std,
    sample_outcomes,
    scaling_fit,
)
from fockmzi.fock import BlockObservable, TwoModeState, make_basis_state
from fockmzi.schemes import build_setup, noon_readout, observable_noon_flip
from fockmzi.states import (
    SCHEME_NAMES,
    SchemeTag,
    coherent_tail_mass,
    dual_fock,
    noon,
    yurke_bosonic,
    yurke_fermionic_analog,
)
from oracles import (
    apply,
    banded,
    beam_splitter,
    coherent_vacuum,
    dense,
    ensemble_sensitivity,
    expectation,
    j_observable,
    number_observable,
    phase_derivative,
    poisson_amplitudes,
    sensitivity,
    single_port_fock,
    spectral_exponential,
    variance,
)


def random_hermitian(rng, dim):
    m = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    return (m + m.conj().T) / 2


# ---------------------------------------------------------------- flip observable

def test_flip_observable_is_pauli_x_for_one_photon():
    mat = dense(observable_noon_flip(1), 1)
    assert np.allclose(mat, [[0, 1], [1, 0]], atol=0)


def test_flip_observable_has_two_entries_and_one_block():
    obs = observable_noon_flip(5)
    assert list(obs.blocks) == [5]
    assert np.count_nonzero(dense(obs, 5)) == 2


def test_flip_expectation_is_cos_n_phi():
    for n in (1, 3, 8, 20):
        obs = observable_noon_flip(n)
        for phi in np.linspace(0, 2 * math.pi, 50):
            val = expectation(obs, noon(n, phi))
            assert abs(val - math.cos(n * phi)) < 1e-12


def test_flip_squared_is_identity_on_its_span():
    n = 4
    mat = dense(observable_noon_flip(n), n)
    sq = mat @ mat
    assert sq[0, 0] == 1.0 and sq[n, n] == 1.0
    assert np.count_nonzero(sq) == 2


# ---------------------------------------------------------------- sensitivity

def test_noon_sensitivity_is_exactly_one_over_n():
    for n in (1, 2, 7, 20):
        obs = observable_noon_flip(n)
        gen = number_observable("b", n)
        vals = []
        for phi in np.linspace(0.01, 3.1, 60):
            s = sensitivity(noon(n, phi), obs, gen)
            if math.isfinite(s):
                vals.append(s)
        assert vals, "grid produced no finite sensitivities"
        assert max(abs(v - 1 / n) for v in vals) < 1e-10
        assert max(vals) - min(vals) < 1e-9  # phase independence where finite


def test_single_qubit_sensitivity_is_one():
    obs = observable_noon_flip(1)
    gen = number_observable("b", 1)
    for phi in (0.2, 1.0, 2.5):
        assert sensitivity(noon(1, phi), obs, gen) == pytest.approx(1.0, abs=1e-12)


def test_dual_fock_jz_sensitivity_diverges_everywhere():
    setup = build_setup(SchemeTag("dual-fock", 3))
    grid = np.linspace(0.05, 3.1, 40)
    _, _, delta = phase_sweep(setup.analysis, setup.input_state, setup.observable, grid)
    assert np.all(np.isinf(delta))
    with pytest.raises(NoPhaseInformationError):
        min_sensitivity(grid, delta)


def test_dual_fock_jz_rows_are_divergent_in_every_frame():
    # <J_z> is phase-blind for twin Fock inputs, so its slope is roundoff at every phase
    grid = np.linspace(0.0, math.pi, 100)
    for n in range(1, 11):
        for convention in CONVENTIONS:
            for invert in (False, True):
                setup = build_setup(SchemeTag("dual-fock", n), convention=convention, invert_second_bs=invert)
                _, _, delta = phase_sweep(setup.analysis, setup.input_state, setup.observable, grid)
                assert np.all(np.isinf(delta)), (n, convention, invert)


def test_noon_sweep_rows_are_one_over_n():
    grid = np.linspace(0.0, 3.1, 600)
    for n in (1, 2, 5, 20):
        setup = build_setup(SchemeTag("noon", n))
        _, _, delta = phase_sweep(setup.analysis, setup.input_state, setup.observable, grid)
        finite = np.isfinite(delta)
        assert np.array_equal(finite, np.abs(np.sin(n * grid)) > 1e-12)
        assert np.max(np.abs(delta[finite] - 1 / n)) <= 1e-12 / n


def test_commutator_derivative_matches_finite_difference():
    rng = np.random.default_rng(29)
    h = 1e-5
    for _ in range(25):
        n = int(rng.integers(1, 11))
        a = BlockObservable({n: banded(random_hermitian(rng, n + 1))})
        g = BlockObservable({n: banded(random_hermitian(rng, n + 1))})
        vec = rng.standard_normal(n + 1) + 1j * rng.standard_normal(n + 1)
        state = TwoModeState({n: vec / np.linalg.norm(vec)})
        exact = phase_derivative(state, a, g)
        plus = expectation(a, apply(spectral_exponential(g, h), state))
        minus = expectation(a, apply(spectral_exponential(g, -h), state))
        fd = (plus - minus) / (2 * h)
        assert abs(exact - fd) <= 1e-6 * (1 + abs(expectation(a, state)))


def min_of_sweep(setup, grid):
    """min_sensitivity of the setup's phase_sweep over the grid, as `scaling` takes it."""
    _, _, delta = phase_sweep(setup.analysis, setup.input_state, setup.observable, grid)
    return min_sensitivity(grid, delta)


def test_min_sensitivity_against_denser_grid():
    setup = build_setup(SchemeTag("yurke-bosonic", 4))
    phi_star, best = min_of_sweep(setup, np.linspace(0.005, math.pi - 0.005, 400))
    assert math.isfinite(best)
    _, best_dense = min_of_sweep(setup, np.linspace(0.005, math.pi - 0.005, 4000))
    assert best_dense <= best + 1e-12
    assert abs(best - best_dense) / best_dense < 1e-3


def test_coherent_min_sensitivity_hits_shot_noise():
    setup = build_setup(SchemeTag("coherent", 4))
    grid = np.linspace(0.1, math.pi - 0.1, 301)
    _, best = min_of_sweep(setup, grid)
    assert abs(best - 0.5) / 0.5 < 0.02


# the closed forms hold at phi = pi/2 too, the grid's midpoint, where the mean crosses 0
COHERENT_GRID = np.linspace(0.05, math.pi - 0.05, 97)


@pytest.mark.parametrize("invert", [False, True])
@pytest.mark.parametrize("convention", CONVENTIONS)
@pytest.mark.parametrize("nbar, tol", [(1, 5e-15), (4, 5e-15), (25, 5e-15), (100, 2e-14)])
def test_coherent_sweep_is_the_closed_form(nbar, tol, convention, invert):
    """<-J_y> = -(nbar/2) cos(phi) (+ with the second splitter inverted), Var = nbar/4 and
    delta_phi = 1/(sqrt(nbar) |sin(phi)|) in either convention: the shot-noise limit, with
    no digit lost to the truncated Poisson tail."""
    setup = build_setup(SchemeTag("coherent", nbar), convention=convention, invert_second_bs=invert)
    mean, var, delta = phase_sweep(setup.analysis, setup.input_state, setup.observable, COHERENT_GRID)
    sign = 1.0 if invert else -1.0
    assert np.max(np.abs(mean - sign * (nbar / 2) * np.cos(COHERENT_GRID))) <= tol * nbar / 2
    assert np.max(np.abs(var / (nbar / 4) - 1.0)) <= tol
    assert np.max(np.abs(delta * math.sqrt(nbar) * np.abs(np.sin(COHERENT_GRID)) - 1.0)) <= tol


@pytest.mark.parametrize("invert", [False, True])
@pytest.mark.parametrize("convention", CONVENTIONS)
@pytest.mark.parametrize("nbar", [1, 2, 4, 25, 100])
def test_no_larger_coherent_cutoff_changes_the_sweep(nbar, convention, invert):
    """The setup's truncation against one whose dropped tail is below 1e-30."""
    alpha = math.sqrt(nbar)
    cutoff = next(k for k in itertools.count() if coherent_tail_mass(alpha, k) < 1e-30)
    wide = split_port_a(dict(enumerate(poisson_amplitudes(alpha, cutoff))))
    setup = build_setup(SchemeTag("coherent", nbar), convention=convention, invert_second_bs=invert)
    assert setup.cutoff < cutoff
    sweep = phase_sweep(setup.analysis, setup.input_state, setup.observable, COHERENT_GRID)
    wide_sweep = phase_sweep(setup.analysis, wide, pulled_back_jz(wide.blocks, invert), COHERENT_GRID)
    for column, wide_column in zip(sweep, wide_sweep):
        assert np.max(np.abs(column - wide_column) / np.abs(wide_column)) <= 1e-15


def test_min_sensitivity_skips_divergent_points_and_rejects_mismatched_arrays():
    assert min_sensitivity([0.1, 0.2, 0.3], [math.inf, 2.0, 1.5]) == (0.3, 1.5)
    assert min_sensitivity(np.array([0.1, 0.2]), np.array([1.0, math.inf])) == (0.1, 1.0)
    for grid, delta in [([0.1, 0.2], [1.0]), ([0.1, 0.2], [[1.0, 2.0]]), ([[0.1, 0.2]], [[1.0, 2.0]])]:
        with pytest.raises(ValueError, match="matching 1-d arrays"):
            min_sensitivity(grid, delta)


def test_ensemble_sensitivity_values():
    assert ensemble_sensitivity(100, math.pi / 3) == pytest.approx(0.1, abs=1e-15)
    assert ensemble_sensitivity(1, 0.9) == 1.0
    assert math.isinf(ensemble_sensitivity(4, math.pi))
    with pytest.raises(ValueError):
        ensemble_sensitivity(0, 0.5)


# ---------------------------------------------------------------- Fisher information

def test_single_photon_fisher_is_one():
    setup = build_setup(SchemeTag("single-port-fock", 1))
    fisher = classical_fisher(setup.sampling, setup.input_state, [0.4, 1.2, 2.0])
    assert isinstance(fisher, np.ndarray) and fisher.shape == (3,)
    assert fisher == pytest.approx(np.ones(3), abs=1e-7)
    one = classical_fisher(setup.sampling, setup.input_state, [1.2])
    assert isinstance(one, np.ndarray) and one.shape == (1,)


def test_dual_fock_fisher_is_exactly_holland_burnett():
    # exact slopes give F = 2N(N+1) for twin Fock input at every phase
    for n in range(1, 7):
        setup = build_setup(SchemeTag("dual-fock", n))
        fisher = classical_fisher(setup.sampling, setup.input_state, np.array([0.05, 0.37, 1.2, 2.6]))
        assert fisher == pytest.approx(np.full(4, 2.0 * n * (n + 1)), rel=1e-12)


def test_noon_fisher_reaches_heisenberg_bound():
    # oracle: the readout produces the two-outcome distribution (1 +/- cos(N phi))/2
    for n in (2, 3, 5):
        setup = build_setup(SchemeTag("noon", n))
        for phi in (0.3, 0.9):
            dist = setup.sampling.evolve(setup.input_state, phi).probabilities()
            nonzero = {k: v for k, v in dist.items() if v > 1e-12}
            assert set(nonzero) == {(n, 0), (0, n)}
            assert nonzero[(n, 0)] == pytest.approx((1 + math.cos(n * phi)) / 2, abs=1e-12)
            f = classical_fisher(setup.sampling, setup.input_state, [phi])[0]
            assert f == pytest.approx(n**2, rel=1e-6)
            assert f <= n**2 * (1 + 1e-6)


def test_dual_fock_fisher_scaling_exponent():
    points = []
    for n in range(2, 13):
        setup = build_setup(SchemeTag("dual-fock", n))
        best = np.max(classical_fisher(setup.sampling, setup.input_state, np.linspace(0.05, math.pi / 2, 20)))
        points.append((n, best))
    slope, _ = scaling_fit(points)
    assert 1.7 <= slope <= 2.3


def test_cramer_rao_bound_holds():
    cases = [
        ("single-port-fock", 1), ("single-port-fock", 3), ("coherent", 1),
        ("yurke-fermionic-analog", 3), ("yurke-bosonic", 4), ("noon", 4),
    ]
    for name, n in cases:
        setup = build_setup(SchemeTag(name, n))
        gen = setup.analysis.output_generator(setup.cutoff)
        for phi in (0.3, 0.8, 1.4):
            fisher = classical_fisher(setup.sampling, setup.input_state, [phi])[0]
            if fisher <= 0:
                continue
            evolved = setup.analysis.evolve(setup.input_state, phi)
            dphi = sensitivity(evolved, setup.observable, gen)
            assert dphi >= 1 / math.sqrt(fisher) - 1e-9


# ---------------------------------------------------------------- batched path vs per-point reference

SCHEME_SIZES = {"single-port-fock": 3, "coherent": 2, "dual-fock": 2, "noon": 3,
                "yurke-fermionic-analog": 3, "yurke-bosonic": 4}
assert set(SCHEME_SIZES) == set(SCHEME_NAMES)
REFERENCE_GRID = np.concatenate(([0.0], np.linspace(0.1, 3.0, 9)))


PORT_STATES = {
    "single-port-fock": single_port_fock,
    "dual-fock": dual_fock,
    "yurke-fermionic-analog": yurke_fermionic_analog,
    "yurke-bosonic": yurke_bosonic,
}


def reference_elements(tag, cutoff, invert):
    """Port state, U_before, analysis U_after, sampling U_after and the observable read
    after U_after, all built independently of the pipeline code."""
    if tag.name == "noon":
        return noon(tag.n, 0.0), None, None, noon_readout(tag.n), observable_noon_flip(tag.n)
    jx = j_observable("x", cutoff)
    after = spectral_exponential(jx, -BALANCED if invert else BALANCED)
    port = coherent_vacuum(math.sqrt(tag.n), cutoff) if tag.name == "coherent" else PORT_STATES[tag.name](tag.n)
    return port, spectral_exponential(jx, BALANCED), after, after, j_observable("z", cutoff)


def reference_output(state, before, generator, after, phi):
    out = state if before is None else apply(before, state)
    out = apply(spectral_exponential(generator, phi), out)
    return out if after is None else apply(after, out)


def conjugated(generator, unitary):
    blocks = {}
    for n, u in unitary.blocks.items():
        m = u @ dense(generator, n) @ u.conj().T
        blocks[n] = banded((m + m.conj().T) / 2)
    return BlockObservable(blocks)


def dense_probabilities(pipeline, state, grid):
    """Outcome labels in canonical order and their probabilities with one column per phase,
    from every output block over the whole grid stacked into one array."""
    blocks = [(n, psi) for n, psi, _ in pipeline.evolve_blocks(state, grid)]
    labels = [label for n, _ in blocks for label in fock.block_labels(n)]
    return labels, np.abs(np.vstack([psi for _, psi in blocks])) ** 2


def close(value, ref):
    return abs(value - ref) <= 1e-12 * max(1.0, abs(ref))


def check_against_reference(tag, convention, invert):
    """The setup's sweep and sampling distribution against dense matrices applied per point,
    starting from the port state; the setup's input must be that state at the phase stage,
    and its readout must be built on exactly the blocks that input populates."""
    setup = build_setup(tag, convention=convention, invert_second_bs=invert)
    cut = setup.cutoff
    generator = number_observable("b", cut) if convention == ONE_ARM else j_observable("z", cut)
    port, before, after, readout, observable = reference_elements(tag, cut, invert)
    out_generator = generator if after is None else conjugated(generator, after)

    at_phase_stage = port if before is None else apply(before, port)
    assert set(setup.input_state.blocks) == set(at_phase_stage.blocks)
    for n, vec in at_phase_stage.blocks.items():
        assert np.max(np.abs(setup.input_state.blocks[n] - vec)) <= 1e-13
    assert setup.sampling.after.blocks.keys() == setup.input_state.blocks.keys()
    assert setup.observable.blocks.keys() == setup.input_state.blocks.keys()

    means, variances, deltas = phase_sweep(setup.analysis, setup.input_state, setup.observable, REFERENCE_GRID)
    labels, probs = dense_probabilities(setup.sampling, setup.input_state, REFERENCE_GRID)
    for p, phi in enumerate(REFERENCE_GRID):
        out = reference_output(port, before, generator, after, phi)
        assert close(means[p], expectation(observable, out))
        assert close(variances[p], variance(observable, out))
        ref_delta = sensitivity(out, observable, out_generator)
        assert math.isinf(deltas[p]) == math.isinf(ref_delta)
        if math.isfinite(ref_delta):
            assert close(deltas[p], ref_delta)
        dist = reference_output(port, before, generator, readout, phi).probabilities()
        assert labels == list(dist)
        assert all(close(probs[k, p], dist[label]) for k, label in enumerate(labels))


@pytest.mark.parametrize("invert", [False, True])
@pytest.mark.parametrize("convention", CONVENTIONS)
@pytest.mark.parametrize("scheme", sorted(SCHEME_SIZES))
def test_batched_path_matches_per_point_reference(scheme, convention, invert):
    check_against_reference(SchemeTag(scheme, SCHEME_SIZES[scheme]), convention, invert)


@pytest.mark.parametrize("invert", [False, True])
@pytest.mark.parametrize("convention", CONVENTIONS)
def test_batched_path_matches_reference_at_benchmark_size(convention, invert):
    # coherent nbar = 25 at its cutoff 80, the size of the dense sweep benchmark
    check_against_reference(SchemeTag("coherent", 25), convention, invert)


def test_sweep_builds_no_splitter(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("a splitter or a dense unitary was built")

    for module, name in ((elements, "_splitter_block"), (schemes, "splitter_blocks"), (schemes, "split"),
                         (elements, "_jx_eigensystem")):
        monkeypatch.setattr(module, name, refuse)
    monkeypatch.setattr(fock.BlockUnitary, "__post_init__", refuse)
    for tag in (SchemeTag("coherent", 25), SchemeTag("single-port-fock", 6)):
        for invert in (False, True):
            setup = build_setup(tag, invert_second_bs=invert)
            phase_sweep(setup.analysis, setup.input_state, setup.observable, REFERENCE_GRID)


# ---------------------------------------------------------------- readout on the populated blocks

def full_cutoff_readout(tag, setup, invert):
    """The sampling U_after on every block up to the cutoff: the whole splitter, or the
    flip-basis rotation on block N padded with identity blocks."""
    if tag.name == "noon":
        blocks = {m: np.eye(m + 1) for m in range(setup.cutoff + 1)}
        blocks[tag.n] = noon_readout(tag.n).blocks[tag.n]
        return fock.BlockUnitary(blocks)
    return beam_splitter(-BALANCED if invert else BALANCED, setup.cutoff)


@pytest.mark.parametrize("invert", [False, True])
@pytest.mark.parametrize("scheme, n", [
    ("single-port-fock", 6), ("dual-fock", 10), ("noon", 8), ("coherent", 4),
    ("yurke-fermionic-analog", 7), ("yurke-bosonic", 8),
])
def test_populated_readout_gives_the_full_cutoff_results(scheme, n, invert, assert_same_products):
    tag = SchemeTag(scheme, n)
    setup = build_setup(tag, invert_second_bs=invert)
    full = replace(setup.analysis, after=full_cutoff_readout(tag, setup, invert))
    grid = np.linspace(0.0, setup.likelihood_period, 256, endpoint=False)
    assert_same_products(classical_fisher(setup.sampling, setup.input_state, grid),
                         classical_fisher(full, setup.input_state, grid), rtol=1e-12)
    phi = 0.37 * setup.likelihood_period
    hist = sample_outcomes(full, setup.input_state, phi, 2000, seed=n)
    assert sample_outcomes(setup.sampling, setup.input_state, phi, 2000, seed=n) == hist
    assert_same_products(bayes_posterior(hist, setup.sampling, setup.input_state, grid).weights,
                         bayes_posterior(hist, full, setup.input_state, grid).weights, rtol=1e-9, atol=1e-300)


# ---------------------------------------------------------------- sampling

def test_sample_counts_sum_to_shots():
    setup = build_setup(SchemeTag("single-port-fock", 3))
    hist = sample_outcomes(setup.sampling, setup.input_state, 0.7, 1000, seed=42)
    assert sum(hist.counts.values()) == 1000


def test_sampling_is_deterministic_per_seed():
    setup = build_setup(SchemeTag("dual-fock", 2))
    a = sample_outcomes(setup.sampling, setup.input_state, 0.9, 5000, seed=123)
    b = sample_outcomes(setup.sampling, setup.input_state, 0.9, 5000, seed=123)
    c = sample_outcomes(setup.sampling, setup.input_state, 0.9, 5000, seed=124)
    assert a.counts == b.counts
    assert a.counts != c.counts


def test_negative_seed_is_accepted():
    setup = build_setup(SchemeTag("noon", 2))
    hist = sample_outcomes(setup.sampling, setup.input_state, 0.4, 100, seed=-7)
    assert sum(hist.counts.values()) == 100


@pytest.mark.parametrize("seed, valid", [
    (2**64 - 1, True), (-(2**63), True), (2**64, False), (7 + 2**64, False), (-(2**63) - 1, False), (7 - 2**64, False),
])
def test_seed_must_be_a_64_bit_integer(seed, valid):
    # 7 + 2**64 and 7 - 2**64 would otherwise draw exactly as seed 7 does
    setup = build_setup(SchemeTag("noon", 2))
    if valid:
        assert sum(sample_outcomes(setup.sampling, setup.input_state, 0.4, 100, seed=seed).counts.values()) == 100
    else:
        with pytest.raises(ValueError, match="seed"):
            sample_outcomes(setup.sampling, setup.input_state, 0.4, 100, seed=seed)


@pytest.mark.parametrize("shots, valid", [(2**63 - 1, True), (2**63, False), (-1, False)])
def test_shots_must_fit_numpys_multinomial(shots, valid):
    setup = build_setup(SchemeTag("noon", 2))
    if valid:
        assert sum(sample_outcomes(setup.sampling, setup.input_state, 0.4, shots, seed=3).counts.values()) == shots
    else:
        with pytest.raises(ValueError, match="shots"):
            sample_outcomes(setup.sampling, setup.input_state, 0.4, shots, seed=3)


def test_outcome_probabilities_have_one_form():
    # TwoModeState.probabilities and the sampling draw both square np.abs of the evolve_blocks column
    setup = build_setup(SchemeTag("coherent", 25))
    for phi in (0.0, 0.37, 1.3, 2.9):
        dist = setup.sampling.evolve(setup.input_state, phi).probabilities()
        for n, psi, _ in setup.sampling.evolve_blocks(setup.input_state, [phi]):
            assert [dist[label] for label in fock.block_labels(n)] == (np.abs(psi[:, 0]) ** 2).tolist()


def test_state_with_no_populated_block_samples_an_empty_histogram():
    hist = sample_outcomes(elements.InterferometerPipeline(ONE_ARM), TwoModeState({}), 0.4, 0, seed=5)
    assert hist.counts == {} and hist.shots == 0


def test_hom_interference_null_never_fires():
    from fockmzi.elements import BALANCED, InterferometerPipeline

    pipeline = InterferometerPipeline(ONE_ARM, after=beam_splitter(BALANCED, 2))
    twin = make_basis_state(1, 1)
    for seed in range(5):
        hist = sample_outcomes(pipeline, twin, 0.0, 2000, seed=seed)
        assert hist.counts.get((1, 1), 0) == 0


def test_empirical_binomial_within_four_sigma():
    from fockmzi.elements import BALANCED, InterferometerPipeline

    n, shots = 6, 100_000
    pipeline = InterferometerPipeline(ONE_ARM, after=beam_splitter(BALANCED, n))
    hist = sample_outcomes(pipeline, make_basis_state(n, 0), 0.0, shots, seed=2024)
    for k in range(n + 1):
        p = math.comb(n, k) / 2**n
        sigma = math.sqrt(shots * p * (1 - p))
        observed = hist.counts.get((k, n - k), 0)
        assert abs(observed - shots * p) < 4 * sigma


# ---------------------------------------------------------------- Bayes

def test_zero_shots_gives_uniform_posterior():
    setup = build_setup(SchemeTag("noon", 2))
    hist = OutcomeHistogram(shots=0, counts={})
    grid = np.linspace(0.0, setup.likelihood_period, 128, endpoint=False)
    post = bayes_posterior(hist, setup.sampling, setup.input_state, grid)
    assert np.allclose(post.weights, 1.0 / 128, atol=1e-15)


def test_posterior_matches_direct_bernoulli_grid():
    # oracle: likelihood p^k q^(m-k) evaluated directly on the grid
    n, phi_true, shots, seed = 2, 0.3, 400, 5
    setup = build_setup(SchemeTag("noon", n))
    hist = sample_outcomes(setup.sampling, setup.input_state, phi_true, shots, seed)
    grid = np.linspace(0.0, setup.likelihood_period, 256, endpoint=False)
    post = bayes_posterior(hist, setup.sampling, setup.input_state, grid)

    k_top = hist.counts.get((n, 0), 0)
    k_bot = hist.counts.get((0, n), 0)
    p = (1 + np.cos(n * grid)) / 2
    direct = p**k_top * (1 - p) ** k_bot
    direct /= direct.sum()
    assert np.max(np.abs(post.weights - direct)) < 1e-12


def test_noon_posterior_concentrates_modulo_mirror():
    n, phi_true = 3, 0.35
    setup = build_setup(SchemeTag("noon", n))
    hist = sample_outcomes(setup.sampling, setup.input_state, phi_true, 3000, seed=9)
    period = setup.likelihood_period
    grid = np.linspace(0.0, period, 2048, endpoint=False)
    post = bayes_posterior(hist, setup.sampling, setup.input_state, grid)
    mirror = period - phi_true
    near = sum(
        w for phi, w in zip(post.phi_grid, post.weights)
        if min(abs(phi - phi_true), abs(phi - mirror)) < 0.05
    )
    assert near > 0.99


# the mirror points each scheme's likelihood is even about, as index maps of a full-period grid:
# phi -> -phi, and phi -> pi - phi (for the schemes of period 2 pi)
LIKELIHOOD_MIRRORS = {
    "single-port-fock": ("-phi",), "coherent": ("-phi",), "noon": ("-phi",),
    "dual-fock": ("-phi", "pi-phi"), "yurke-fermionic-analog": ("pi-phi",), "yurke-bosonic": (),
}


@pytest.mark.parametrize("convention", CONVENTIONS)
@pytest.mark.parametrize("scheme, n", [
    ("single-port-fock", 5), ("coherent", 9), ("dual-fock", 3), ("noon", 4), ("yurke-fermionic-analog", 5),
    ("yurke-bosonic", 4),
])
def test_full_period_posterior_has_mirror_peaks_except_for_yurke_bosonic(scheme, n, convention):
    """Where the likelihood is even about a mirror point, so is the posterior over the full
    period, and posterior_mean reads the circular mean of the two peaks, not phi."""
    points = 512
    index = np.arange(points)
    mirrors = {"-phi": -index % points, "pi-phi": (points // 2 - index) % points}
    for invert in (False, True):
        setup = build_setup(SchemeTag(scheme, n), convention=convention, invert_second_bs=invert)
        grid = np.linspace(0.0, setup.likelihood_period, points, endpoint=False)
        hist = sample_outcomes(setup.sampling, setup.input_state, 0.37 * setup.likelihood_period, 1000, seed=n)
        weights = bayes_posterior(hist, setup.sampling, setup.input_state, grid).weights
        for name, mirror in mirrors.items():
            gap = np.max(np.abs(weights - weights[mirror]))
            if name in LIKELIHOOD_MIRRORS[scheme]:
                assert gap <= 1e-11, name
            else:
                assert gap > 0.1 * np.max(weights), name


def test_dual_fock_posterior_std_scaling():
    points = []
    for n in range(2, 11):
        setup = build_setup(SchemeTag("dual-fock", n))
        hist = sample_outcomes(setup.sampling, setup.input_state, 0.7, 300, seed=11 + n)
        grid = np.linspace(0.02, math.pi / 2 - 0.02, 512)  # one monotonic branch
        post = bayes_posterior(hist, setup.sampling, setup.input_state, grid)
        points.append((n, posterior_std(post)))
    slope, _ = scaling_fit(points)
    assert -1.3 <= slope <= -0.7


def test_impossible_data_raises_model_mismatch():
    setup = build_setup(SchemeTag("noon", 2))
    bogus = OutcomeHistogram(shots=5, counts={(1, 1): 5})
    grid = np.linspace(0.0, setup.likelihood_period, 64, endpoint=False)
    with pytest.raises(ModelMismatchError):
        bayes_posterior(bogus, setup.sampling, setup.input_state, grid)


@pytest.mark.parametrize("outcome, message", [
    ((1, 0), "(1, 0) has zero likelihood"),  # block 1, below the populated block 2
    ((5, 0), "(5, 0) has zero likelihood"),  # block 5, above it
    ((1, 1), "zero likelihood everywhere on the grid"),  # populated block, probability 0 at every phase
])
def test_model_mismatch_for_outcomes_the_model_cannot_produce(outcome, message):
    setup = build_setup(SchemeTag("noon", 2))
    counts = {(2, 0): 3, outcome: 1, (0, 2): 2}
    hist = OutcomeHistogram(shots=6, counts=counts)
    grid = np.linspace(0.0, setup.likelihood_period, 64, endpoint=False)
    with pytest.raises(ModelMismatchError, match=re.escape(message)):
        bayes_posterior(hist, setup.sampling, setup.input_state, grid)


def dense_posterior(hist, pipeline, state, grid):
    """The posterior from the probabilities of every outcome of every populated block over
    the grid, with the log-likelihood terms added in the histogram's order."""
    labels, probs = dense_probabilities(pipeline, state, grid)
    row = {label: i for i, label in enumerate(labels)}
    log_like = np.zeros(grid.size)
    for outcome, count in hist.counts.items():
        with np.errstate(divide="ignore"):
            log_like += count * np.log(probs[row[outcome]])
    weights = np.exp(log_like - np.max(log_like))
    weights /= weights.sum()
    return PosteriorDistribution(grid, weights)


@pytest.mark.parametrize("invert", [False, True])
@pytest.mark.parametrize("convention", CONVENTIONS)
@pytest.mark.parametrize("scheme, n", [
    ("coherent", 25), ("single-port-fock", 5), ("dual-fock", 3), ("yurke-fermionic-analog", 5),
    ("yurke-bosonic", 4), ("noon", 4),
])
def test_streamed_posterior_equals_dense_posterior(scheme, n, convention, invert, assert_same_products):
    setup = build_setup(SchemeTag(scheme, n), convention=convention, invert_second_bs=invert)
    grid = np.linspace(0.0, setup.likelihood_period, 512, endpoint=False)
    hist = sample_outcomes(setup.sampling, setup.input_state, 0.37 * setup.likelihood_period, 3000, seed=n)
    items = list(hist.counts.items())  # shuffled, so one block's outcomes fall into several runs
    shuffled = OutcomeHistogram(hist.shots, dict(items[i] for i in np.random.default_rng(n).permutation(len(items))))
    for data in (hist, shuffled):
        streamed = bayes_posterior(data, setup.sampling, setup.input_state, grid)
        dense = dense_posterior(data, setup.sampling, setup.input_state, grid)
        assert_same_products(streamed.weights, dense.weights, rtol=1e-9, atol=1e-300)
        assert_same_products(posterior_mean(streamed), posterior_mean(dense), rtol=1e-12)
        assert_same_products(posterior_std(streamed), posterior_std(dense), rtol=1e-9)


def test_posterior_mean_wraps_across_period_seam():
    from fockmzi.estimation import PosteriorDistribution

    grid = np.linspace(0.0, 1.0, 200, endpoint=False)
    weights = np.exp(-0.5 * ((np.minimum(grid, 1.0 - grid)) / 0.02) ** 2)
    weights /= weights.sum()
    post = PosteriorDistribution(grid, weights)
    mean = posterior_mean(post)
    assert min(abs(mean - 0.0), abs(mean - 1.0)) < 0.01
    assert posterior_std(post) < 0.05  # wrap-safe, not ~0.5


@pytest.mark.parametrize("grid, message", [
    ([0.5], "at least 2 points"),
    ([0.0, 0.1, 0.2, 3.0], "uniformly spaced"),
    ([0.3, 0.2, 0.1, 0.0], "strictly increasing"),
])
def test_posterior_rejects_grids_without_a_uniform_period(grid, message):
    from fockmzi.estimation import PosteriorDistribution

    weights = np.full(len(grid), 1.0 / len(grid))
    with pytest.raises(ValueError, match=message):
        PosteriorDistribution(np.array(grid), weights)


# ---------------------------------------------------------------- scaling fit

def test_scaling_fit_recovers_exact_powers():
    ns = range(1, 15)
    slope, intercept = scaling_fit([(n, 1 / math.sqrt(n)) for n in ns])
    assert abs(slope + 0.5) < 1e-12
    assert abs(intercept) < 1e-12
    slope, _ = scaling_fit([(n, 1.0 / n) for n in ns])
    assert abs(slope + 1.0) < 1e-12


def test_scaling_fit_rejects_bad_input():
    with pytest.raises(ValueError):
        scaling_fit([(1, 1.0), (2, 0.5)])
    with pytest.raises(ValueError):
        scaling_fit([(1, 1.0), (2, -0.5), (3, 0.2)])


def test_yurke_min_sensitivity_scaling_band():
    for name, sizes in (("yurke-fermionic-analog", range(3, 14, 2)),
                        ("yurke-bosonic", range(4, 13, 2))):
        points = []
        for n in sizes:
            setup = build_setup(SchemeTag(name, n))
            points.append((n, min_of_sweep(setup, np.linspace(0.005, math.pi - 0.005, 800))[1]))
        slope, _ = scaling_fit(points)
        assert -1.2 <= slope <= -0.8


@pytest.mark.parametrize("n", range(1, 10))
def test_noon_setup_is_the_noon_state_at_the_phase_stage(n):
    setup = build_setup(SchemeTag("noon", n))
    ref = noon(n, 0.0)
    assert set(setup.input_state.blocks) == set(ref.blocks)
    assert all(np.array_equal(setup.input_state.blocks[k], ref.blocks[k]) for k in ref.blocks)
    # <flip> at phi = 0 stays inside the observable's spectrum [-1, 1]
    expect, _, _ = phase_sweep(setup.analysis, setup.input_state, setup.observable, np.array([0.0]))
    assert 1.0 - 1e-15 <= expect[0] <= 1.0
