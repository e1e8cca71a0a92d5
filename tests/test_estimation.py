import itertools
import math
import re

import numpy as np
import pytest

from fockmzi import elements, estimation, fock, schemes
from fockmzi.cli import _posterior as posterior, _sample as sample, _sweep as sweep, main
from fockmzi.elements import BALANCED, CONVENTIONS, ONE_ARM, SPLITTER, InterferometerPipeline
from fockmzi.estimation import (
    ModelMismatchError,
    NoPhaseInformationError,
    OutcomeHistogram,
    PosteriorDistribution,
    bayes_posterior,
    classical_fisher,
    min_sensitivity,
    phase_sweep,
    photon_fisher,
    photon_posterior,
    photon_sweep,
    posterior_mean,
    posterior_std,
    sample_outcomes,
    sample_photons,
    scaling_fit,
)
from fockmzi.fock import BlockObservable, BlockUnitary, TwoModeState, make_basis_state
from fockmzi.schemes import build_setup, noon_readout, observable_noon_flip
from fockmzi.states import (
    SCHEME_NAMES,
    PortALight,
    SchemeTag,
    dual_fock,
    noon,
    yurke_bosonic,
    yurke_fermionic_analog,
)
from oracles import (
    apply,
    banded,
    beam_splitter,
    blocks,
    coherent_tail_mass,
    coherent_vacuum,
    dense,
    dense_sampling,
    ensemble_sensitivity,
    PORT_A_SCHEMES,
    exchanged,
    expectation,
    fock_path_setup,
    j_observable,
    number_observable,
    observable_map,
    phase_derivative,
    poisson_amplitudes,
    port_a_fock_path,
    port_swap,
    probabilities,
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
    assert obs.n == 5
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
            setup = build_setup(SchemeTag("dual-fock", n), convention=convention)
            _, _, delta = phase_sweep(setup.analysis, setup.input_state, setup.observable, grid)
            assert np.all(np.isinf(delta)), (n, convention)


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
    """min_sensitivity of the setup's sweep over the grid, as `scaling` takes it."""
    _, _, delta = sweep(setup, grid)
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
    """<-J_y> = -(nbar/2) cos(phi) (<+J_y> = +(nbar/2) cos(phi) after the inverted second splitter),
    Var = nbar/4 and delta_phi = 1/(sqrt(nbar) |sin(phi)|) in either convention: the shot-noise
    limit, with no digit lost to the truncated Poisson tail: the Fock-path oracle."""
    oracle = fock_path_setup(SchemeTag("coherent", nbar), convention=convention)
    observable = j_observable("y", oracle.cutoff) if invert else None  # J_z read after the inverted splitter
    mean, var, delta = oracle.sweep(COHERENT_GRID, observable)
    sign = 1.0 if invert else -1.0
    assert np.max(np.abs(mean - sign * (nbar / 2) * np.cos(COHERENT_GRID))) <= tol * nbar / 2
    assert np.max(np.abs(var / (nbar / 4) - 1.0)) <= tol
    assert np.max(np.abs(delta * math.sqrt(nbar) * np.abs(np.sin(COHERENT_GRID)) - 1.0)) <= tol


@pytest.mark.parametrize("invert", [False, True])
@pytest.mark.parametrize("convention", CONVENTIONS)
@pytest.mark.parametrize("nbar", [1, 2, 4, 25, 100])
def test_no_larger_coherent_cutoff_changes_the_sweep(nbar, convention, invert):
    """The setup's truncation against one whose dropped tail is below 1e-30, reading -J_y, or
    +J_y after the inverted second splitter."""
    cutoff = next(k for k in itertools.count() if coherent_tail_mass(nbar, k) < 1e-30)
    wide = port_a_fock_path(dict(enumerate(poisson_amplitudes(nbar, cutoff))), convention)
    oracle = fock_path_setup(SchemeTag("coherent", nbar), convention=convention)
    assert oracle.cutoff < cutoff
    sweep = oracle.sweep(COHERENT_GRID, j_observable("y", oracle.cutoff) if invert else None)
    wide_sweep = wide.sweep(COHERENT_GRID, j_observable("y", cutoff) if invert else None)
    for column, wide_column in zip(sweep, wide_sweep):
        assert np.max(np.abs(column - wide_column) / np.abs(wide_column)) <= 1e-15


# every grid point of the oracle comparisons below, the nulls 0 and pi among them
PORT_A_GRID = np.concatenate((np.linspace(0.0, math.pi, 201), [0.005, 3.1, 3.1365926535897931]))


@pytest.mark.parametrize("convention", CONVENTIONS)
@pytest.mark.parametrize("scheme, n", [
    *(("coherent", nbar) for nbar in (0, 1, 2, 4, 25, 100, 400)),
    *(("single-port-fock", n) for n in (1, 2, 6, 40)),
])
def test_photon_sweep_matches_the_fock_path_oracle(scheme, n, convention):
    """The closed form against phase_sweep of the split state: the same inf cells, and every other
    cell within 1e-12, relative to the cell or, for the cells that are 0 in exact arithmetic (the
    mean at pi/2, |N,0>'s variance at 0 and pi), to the column's scale n/4."""
    tag = SchemeTag(scheme, n)
    want = fock_path_setup(tag, convention).sweep(PORT_A_GRID)
    setup = build_setup(tag, convention)
    got = photon_sweep(setup.analysis, setup.light, PORT_A_GRID)
    assert np.array_equal(np.isinf(got[2]), np.isinf(want[2]))
    finite = np.isfinite(want[2])
    for column, (g, w) in enumerate(zip(got, want)):
        g, w = (g[finite], w[finite]) if column == 2 else (g, w)
        assert np.all(np.abs(g - w) <= 1e-12 * np.maximum(np.abs(w), max(n, 1) / 4)), column


@pytest.mark.parametrize("convention", CONVENTIONS)
@pytest.mark.parametrize("n", [1, 3, 40, 10**6, 10**12])
def test_single_port_sweep_is_shot_noise_everywhere_it_is_finite(n, convention):
    """|N,0> reads delta_phi = 1/sqrt(N) at every finite grid point, and is finite wherever its slope
    N |sin phi| / 2 passes the divergence threshold."""
    setup = build_setup(SchemeTag("single-port-fock", n), convention)
    _, _, delta = photon_sweep(setup.analysis, setup.light, PORT_A_GRID)
    finite = np.isfinite(delta)
    assert finite.sum() >= PORT_A_GRID.size - 4
    assert np.max(np.abs(delta[finite] * math.sqrt(n) - 1.0)) <= 1e-15


@pytest.mark.parametrize("convention", CONVENTIONS)
def test_million_photon_coherent_sweep_is_shot_noise(convention):
    """delta_phi sqrt(nbar) |sin phi| = 1 at nbar = 10**6, past the Fock path's reach; the truncated
    weights' variance is nbar within 4e-10 relative, the one error left."""
    grid = np.linspace(0.1, 3.0, 200)
    setup = build_setup(SchemeTag("coherent", 10**6), convention)
    mean, var, delta = photon_sweep(setup.analysis, setup.light, grid)
    assert abs(setup.light.mean / 10**6 - 1.0) <= 1e-12
    assert np.max(np.abs(delta * 1e3 * np.abs(np.sin(grid)) - 1.0)) <= 1e-9
    assert np.max(np.abs(mean + 0.5e6 * np.cos(grid))) <= 1e-12 * 0.5e6
    assert np.max(np.abs(var / 0.25e6 - 1.0)) <= 1e-9


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
    setup = fock_path_setup(SchemeTag("single-port-fock", 1)).setups[1]  # the split |1,0>
    fisher = classical_fisher(setup.sampling, setup.input_state, [0.4, 1.2, 2.0])
    assert isinstance(fisher, np.ndarray) and fisher.shape == (3,)
    assert fisher == pytest.approx(np.ones(3), abs=1e-7)
    one = classical_fisher(setup.sampling, setup.input_state, [1.2])
    assert isinstance(one, np.ndarray) and one.shape == (1,)


@pytest.mark.parametrize("nbar", [1, 4, 25, 100])
def test_coherent_fisher_is_the_mean_photon_number_at_every_phase(nbar):
    """nbar_w, the weights' mean, at every grid point, phi = 0 included, where the Fock path floors
    every outcome away; nbar_w is nbar within 1e-12, and the Fock path agrees within 1e-9 wherever
    its 1e-15 probability floor drops nothing that counts."""
    grid = np.linspace(0.0, math.pi, 101)
    light = build_setup(SchemeTag("coherent", nbar)).light
    fisher = photon_fisher(light, grid)
    assert fisher.shape == grid.shape and np.all(fisher == light.mean)
    assert abs(light.mean - nbar) <= 1e-12 * nbar
    away = grid[(grid > 0.05) & (grid < 3.0)]
    want = fock_path_setup(SchemeTag("coherent", nbar)).fisher(away)
    assert np.max(np.abs(want / light.mean - 1.0)) <= 1e-9


@pytest.mark.parametrize("n", [1, 2, 7, 30, 10**15])
def test_single_port_fisher_is_n(n):
    light = build_setup(SchemeTag("single-port-fock", n)).light
    assert np.all(photon_fisher(light, [0.0, 0.4, math.pi]) == n)
    if n <= 30:
        want = fock_path_setup(SchemeTag("single-port-fock", n)).fisher([0.4, 1.2, 2.0])
        assert np.max(np.abs(want - n)) <= 1e-12 * n


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
        oracle = fock_path_setup(SchemeTag(name, n))
        for phi in (0.3, 0.8, 1.4):
            fisher = oracle.fisher([phi])[0]
            if fisher <= 0:
                continue
            evolved = {m: oracle.amplitudes[m] * setup.analysis.evolve(setup.input_state, phi).amplitudes
                       for m, setup in oracle.setups.items()}
            generator = {m: setup.analysis.output_generator(m) for m, setup in oracle.setups.items()}
            observable = {m: setup.observable for m, setup in oracle.setups.items()}
            dphi = sensitivity(evolved, observable, generator)
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
    after U_after, all built independently of the pipeline code.  With invert the second
    splitter is the inverted exp(-i pi/2 J_x), and the N00N stages are followed by the port
    swap; the observable is then read with the ports exchanged, so it must give the setup's
    numbers."""
    if tag.name == "noon":
        port, before, after, readout, observable = (noon(tag.n, 0.0), None, None, noon_readout(tag.n),
                                                    observable_noon_flip(tag.n))
        if invert:
            after, readout = port_swap(cutoff), exchanged(readout)
    else:
        jx = j_observable("x", cutoff)
        after = readout = spectral_exponential(jx, -BALANCED if invert else BALANCED)
        port = coherent_vacuum(tag.n, cutoff) if tag.name == "coherent" else PORT_STATES[tag.name](tag.n)
        before, observable = spectral_exponential(jx, BALANCED), j_observable("z", cutoff)
    if invert:
        observable = conjugated(observable, port_swap(cutoff))
    return port, before, after, readout, observable


def reference_output(state, before, generator, after, phi):
    out = state if before is None else apply(before, state)
    out = apply(spectral_exponential(generator, phi), out)
    return out if after is None else apply(after, out)


def conjugated(generator, unitary):
    """U G U† on every block of the unitary, as a block map."""
    bands = {}
    for n, u in blocks(unitary).items():
        m = u @ dense(generator, n) @ u.conj().T
        bands[n] = banded((m + m.conj().T) / 2)
    return observable_map(bands)


def dense_probabilities(pipeline, state, grid):
    """Outcome labels in canonical order and their probabilities with one column per phase,
    from the whole output over the grid."""
    return fock.block_labels(state.n), np.abs(pipeline.evolve_grid(state, grid)[0]) ** 2


def close(value, ref):
    return abs(value - ref) <= 1e-12 * max(1.0, abs(ref))


def photon_probabilities(light, phi):
    """The output distribution of port-A light at one phase, from its weights: block n is n photons
    that each leave by port B with probability cos^2(phi/2), so (n - k, k) has probability
    w_n C(n, k) sin^2(phi/2)^(n - k) cos^2(phi/2)^k."""
    in_a, in_b = math.sin(phi / 2) ** 2, math.cos(phi / 2) ** 2
    return {(n - k, k): w * math.comb(n, k) * in_a ** (n - k) * in_b**k
            for n, w in enumerate(light.weights.tolist(), start=light.first) for k in range(n + 1)}


def check_against_reference(tag, convention, invert):
    """The setup's sweep and sampling distribution against dense matrices applied per point,
    starting from the port state; the setup's input must be that state at the phase stage,
    block by block, and each block's observable and readout must be built on that block.
    With invert the reference's second splitter is inverted, and its outcomes are read with
    the ports exchanged: (n_a, n_b) of the setup is (n_b, n_a) of the reference."""
    oracle = fock_path_setup(tag, convention=convention)
    cut = oracle.cutoff
    generator = number_observable("b", cut) if convention == ONE_ARM else j_observable("z", cut)
    port, before, after, readout, observable = reference_elements(tag, cut, invert)
    out_generator = generator if after is None else conjugated(generator, after)

    at_phase_stage = blocks(port if before is None else apply(before, port))
    assert set(oracle.input_state) == set(at_phase_stage)
    for n, vec in at_phase_stage.items():
        assert np.max(np.abs(oracle.input_state[n] - vec)) <= 1e-13
    assert all(setup.observable.n == n and (setup.sampling.after == SPLITTER or setup.sampling.after.n == n)
               for n, setup in oracle.setups.items())

    sweeps = [oracle.sweep(REFERENCE_GRID)]
    setup = build_setup(tag, convention=convention)
    if setup.light is not None:  # the commands' closed form, against the same reference
        sweeps.append(photon_sweep(setup.analysis, setup.light, REFERENCE_GRID))
    labels, probs = oracle.probabilities(REFERENCE_GRID)
    for p, phi in enumerate(REFERENCE_GRID):
        out = reference_output(port, before, generator, after, phi)
        ref_delta = sensitivity(out, observable, out_generator)
        for means, variances, deltas in sweeps:
            assert close(means[p], expectation(observable, out))
            assert close(variances[p], variance(observable, out))
            assert math.isinf(deltas[p]) == math.isinf(ref_delta)
            if math.isfinite(ref_delta):
                assert close(deltas[p], ref_delta)
        dist = probabilities(reference_output(port, before, generator, readout, phi))
        assert labels == list(dist)
        assert all(close(probs[k, p], dist[label[::-1] if invert else label]) for k, label in enumerate(labels))
        if setup.light is not None:
            closed = photon_probabilities(setup.light, phi)
            assert all(close(closed[label], dist[label[::-1] if invert else label]) for label in labels)


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


def refuse_fock_path(monkeypatch):
    """Make every splitter build, every evolution over the phase grid, and every state, observable or
    unitary construction raise."""
    def refuse(*args, **kwargs):
        raise AssertionError("a splitter, a phase-stage evolution or a Fock-space operand was built")

    for owner, name in ((elements, "_rotation_columns"), (schemes, "pulled_back_jz"),
                        (InterferometerPipeline, "evolve_grid"), (InterferometerPipeline, "distribution_grid"),
                        (InterferometerPipeline, "output_rows"), (fock.BlockUnitary, "__init__"),
                        (fock.BlockObservable, "__init__"), (fock.TwoModeState, "__init__")):
        monkeypatch.setattr(owner, name, refuse)


def test_sweep_builds_no_splitter(monkeypatch):
    refuse_fock_path(monkeypatch)
    for tag in (SchemeTag("coherent", 25), SchemeTag("single-port-fock", 6)):
        setup = build_setup(tag)
        sweep(setup, REFERENCE_GRID)


@pytest.mark.parametrize("scheme", PORT_A_SCHEMES)
@pytest.mark.parametrize("argv", [
    ["sensitivity", "--n", "25"],
    ["scaling", "--metric", "fisher", "--n-range", "1:25:12"],
    ["scaling", "--metric", "min-sensitivity", "--n-range", "1:25:12"],
    ["sample", "--n", "25", "--phi", "0.7", "--estimator", "bayes"],
    ["sample", "--n", "25", "--phi", "0.7", "--estimator", "bayes", "--convention", "symmetric"],
], ids=" ".join)
def test_port_a_commands_build_no_splitter_and_evolve_nothing(monkeypatch, tmp_path, scheme, argv):
    refuse_fock_path(monkeypatch)
    out = tmp_path / "table.csv"
    assert main([*argv, "--scheme", scheme, "--output", str(out)]) == 0
    assert out.exists()


# ---------------------------------------------------------------- readout on the input's block

@pytest.mark.parametrize("argv", [
    ["sensitivity", "--scheme", "dual-fock", "--n", "6"],
    ["sensitivity", "--scheme", "yurke-bosonic", "--n", "6", "--convention", "symmetric"],
    ["scaling", "--scheme", "dual-fock", "--metric", "fisher", "--n-range", "1:3"],
    ["scaling", "--scheme", "yurke-fermionic-analog", "--metric", "fisher", "--n-range", "1:5:2"],
    ["sample", "--scheme", "dual-fock", "--n", "6", "--phi", "0.7", "--estimator", "bayes"],
    ["sample", "--scheme", "yurke-bosonic", "--n", "6", "--phi", "0.7", "--estimator", "bayes"],
    ["hom"],
], ids=" ".join)
def test_twin_fock_yurke_and_hom_run_no_linear_algebra_and_no_matrix(monkeypatch, tmp_path, argv):
    """The splitters are rotation columns: no BlockUnitary, so no dense product, is built and no numpy.linalg
    routine is called.  scaling's log-log fit is closed form, so numpy.polyfit, which holds its own lstsq,
    is refused too."""
    def refuse(*args, **kwargs):
        raise AssertionError("a dense unitary was built, or numpy.linalg or numpy.polyfit was called")

    monkeypatch.setattr(fock.BlockUnitary, "__init__", refuse)
    monkeypatch.setattr(np, "polyfit", refuse)
    for name in dir(np.linalg):
        if callable(getattr(np.linalg, name)) and not name.startswith("_"):
            monkeypatch.setattr(np.linalg, name, refuse)
    out = tmp_path / "table.csv"
    assert main([*argv, "--output", str(out)]) == 0
    assert out.exists()


def full_cutoff_readout(tag, cutoff):
    """The sampling U_after as a block map over every block up to the cutoff: the whole splitter,
    or the flip-basis rotation on block N padded with identity blocks."""
    if tag.name == "noon":
        mats = {m: np.eye(m + 1) for m in range(cutoff + 1)}
        mats[tag.n] = noon_readout(tag.n).matrix
        return mats
    return beam_splitter(BALANCED, cutoff)


def sampling_pipeline(setup, invert):
    """The setup's sampling pipeline and its input, or with invert the dense ones of oracles.dense_sampling
    with the readout followed by the port swap: the inverted second splitter, or the N00N readout with its
    ports exchanged."""
    if not invert:
        return setup.sampling, setup.input_state
    pipeline, state = dense_sampling(setup)
    return InterferometerPipeline(setup.analysis.convention, exchanged(pipeline.after)), state


@pytest.mark.parametrize("invert", [False, True])
@pytest.mark.parametrize("scheme, n", [
    ("single-port-fock", 6), ("dual-fock", 10), ("noon", 8), ("coherent", 4),
    ("yurke-fermionic-analog", 7), ("yurke-bosonic", 8),
])
def test_populated_readout_gives_the_full_cutoff_results(scheme, n, invert, assert_same_products):
    """Each block's readout is that block of the readout over every block up to the cutoff, bit for bit,
    and gives its Fisher information, samples and posterior.  A readout by rotation columns gives
    them within roundoff of the dense splitter, from the input split by it, with the same samples."""
    tag = SchemeTag(scheme, n)
    oracle = fock_path_setup(tag)
    full_after = full_cutoff_readout(tag, oracle.cutoff)
    grid = np.linspace(0.0, oracle.likelihood_period, 256, endpoint=False)
    phi = 0.37 * oracle.likelihood_period
    for m, setup in oracle.setups.items():
        sampling, state = sampling_pipeline(setup, invert)
        block = BlockUnitary({m: full_after[m]})
        full = InterferometerPipeline(setup.analysis.convention, exchanged(block) if invert else block)
        full_state = dense_sampling(setup)[1]
        hist = sample_outcomes(full, full_state, phi, 2000, seed=n)
        assert sample_outcomes(sampling, state, phi, 2000, seed=n) == hist
        if sampling.after == SPLITTER:
            np.testing.assert_allclose(classical_fisher(sampling, state, grid), classical_fisher(full, full_state, grid),
                                       rtol=1e-12, atol=1e-12)
            np.testing.assert_allclose(bayes_posterior(hist, sampling, state, grid).weights,
                                       bayes_posterior(hist, full, full_state, grid).weights, rtol=1e-9, atol=1e-300)
            continue
        assert np.array_equal(sampling.after.matrix, full.after.matrix)
        assert_same_products(classical_fisher(sampling, state, grid), classical_fisher(full, state, grid), rtol=1e-12)
        assert_same_products(bayes_posterior(hist, sampling, state, grid).weights,
                             bayes_posterior(hist, full, state, grid).weights, rtol=1e-9, atol=1e-300)


# ---------------------------------------------------------------- sampling

@pytest.mark.parametrize("scheme", SCHEME_NAMES)
def test_sample_counts_sum_to_shots(scheme):
    setup = build_setup(SchemeTag(scheme, SCHEME_SIZES[scheme]))
    hist = sample(setup, 0.7, 1000, seed=42)
    assert sum(hist.counts.values()) == 1000 and all(count > 0 for count in hist.counts.values())


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
    # TwoModeState.probabilities and the sampling draw both square np.abs of the evolve_grid column
    for n, setup in fock_path_setup(SchemeTag("coherent", 25)).setups.items():
        for phi in (0.0, 0.37, 1.3, 2.9):
            dist = setup.sampling.evolve(setup.input_state, phi).probabilities()
            psi, _ = setup.sampling.evolve_grid(setup.input_state, [phi])
            assert [dist[label] for label in fock.block_labels(n)] == (np.abs(psi[:, 0]) ** 2).tolist()


def test_hom_interference_null_never_fires():
    from fockmzi.elements import BALANCED, InterferometerPipeline

    pipeline = InterferometerPipeline(ONE_ARM, after=BlockUnitary({2: beam_splitter(BALANCED, 2)[2]}))
    twin = make_basis_state(1, 1)
    for seed in range(5):
        hist = sample_outcomes(pipeline, twin, 0.0, 2000, seed=seed)
        assert hist.counts.get((1, 1), 0) == 0


def test_empirical_binomial_within_four_sigma():
    from fockmzi.elements import BALANCED, InterferometerPipeline

    n, shots = 6, 100_000
    pipeline = InterferometerPipeline(ONE_ARM, after=BlockUnitary({n: beam_splitter(BALANCED, n)[n]}))
    hist = sample_outcomes(pipeline, make_basis_state(n, 0), 0.0, shots, seed=2024)
    for k in range(n + 1):
        p = math.comb(n, k) / 2**n
        sigma = math.sqrt(shots * p * (1 - p))
        observed = hist.counts.get((k, n - k), 0)
        assert abs(observed - shots * p) < 4 * sigma


def test_two_stage_draw_is_binomial_in_each_block():
    """|N,0> at phi: n_b ~ Binomial(N, cos^2(phi/2)); coherent light: n_b and n_a are Poisson of means
    nbar cos^2(phi/2) and nbar sin^2(phi/2), each within four standard errors."""
    shots, phi = 100_000, 0.9
    q = math.cos(phi / 2) ** 2
    hist = sample_photons(build_setup(SchemeTag("single-port-fock", 6)).light, phi, shots, seed=2024)
    assert all(n_a + n_b == 6 for n_a, n_b in hist.counts)
    for k in range(7):
        p = math.comb(6, k) * q**k * (1 - q) ** (6 - k)
        assert abs(hist.counts.get((6 - k, k), 0) - shots * p) < 4 * math.sqrt(shots * p * (1 - p))
    hist = sample_photons(build_setup(SchemeTag("coherent", 9)).light, phi, shots, seed=7)
    for port, mean in ((1, 9 * q), (0, 9 * (1 - q))):
        drawn = sum(count * outcome[port] for outcome, count in hist.counts.items()) / shots
        assert abs(drawn - mean) < 4 * math.sqrt(mean / shots)


def test_two_stage_draw_is_deterministic_per_seed_and_lists_blocks_in_order():
    light = build_setup(SchemeTag("coherent", 25)).light
    a, b, c = (sample_photons(light, 0.7, 5000, seed) for seed in (123, 123, 124))
    assert a == b and a.counts != c.counts
    assert list(a.counts) == sorted(a.counts, key=lambda outcome: (sum(outcome), outcome[1]))
    assert sample_photons(light, 0.7, 0, seed=5).counts == {}
    with pytest.raises(ValueError, match="seed"):
        sample_photons(light, 0.7, 10, seed=2**64)
    with pytest.raises(ValueError, match="shots"):
        sample_photons(light, 0.7, -1, seed=0)


@pytest.mark.parametrize("scheme, n", [("coherent", 4), ("single-port-fock", 3)])
def test_two_stage_draw_takes_the_largest_shot_count_in_the_outcomes_time(scheme, n):
    # each block draws one multinomial over its outcomes, not one binomial per shot
    shots = 2**63 - 1
    light = build_setup(SchemeTag(scheme, n)).light
    hist = sample_photons(light, 0.7, shots, seed=1)
    assert sum(hist.counts.values()) == shots and len(hist.counts) <= 1000
    hist = sample_photons(light, 0.0, shots, seed=1)  # at phi = 0 every photon leaves by port B
    assert sum(hist.counts.values()) == shots and all(n_a == 0 for n_a, _ in hist.counts)


@pytest.mark.parametrize("n, p", [(1, 0.5), (6, 0.3), (40, 0.07), (300, 0.5), (5000, 1e-3)])
def test_binomial_pmf_over_its_window_is_the_exact_one(n, p):
    lo, hi = estimation._binomial_window(n, p)
    got = estimation._binomial_pmf(n, p, lo, hi)
    exact = [math.exp(math.lgamma(n + 1) - math.lgamma(k + 1) - math.lgamma(n - k + 1)
                      + k * math.log(p) + (n - k) * math.log1p(-p)) for k in range(n + 1)]
    assert math.fsum(exact[:lo]) + math.fsum(exact[hi + 1:]) < 1e-300
    assert np.allclose(got, exact[lo:hi + 1], rtol=1e-10, atol=1e-300)


@pytest.mark.parametrize("shots", [100_000, 1_000_000])
def test_two_stage_draw_at_a_million_photons_is_binomial(shots):
    """|N,0> at N = 10**6: 10**5 shots are drawn one binomial each, in chunks, and 10**6 as one multinomial
    over the 54001 counts of the window; either way n_b has mean N q and variance N q (1 - q)."""
    n, phi = 10**6, 1.1
    q = math.cos(phi / 2) ** 2
    hist = sample_photons(build_setup(SchemeTag("single-port-fock", n)).light, phi, shots, seed=3)
    n_b = np.array([outcome[1] for outcome in hist.counts], dtype=float)
    weights = np.array(list(hist.counts.values()), dtype=float)
    assert weights.sum() == shots and all(n_a + n_b == n for n_a, n_b in hist.counts)
    assert list(hist.counts) == sorted(hist.counts, key=lambda outcome: outcome[1])
    var = n * q * (1 - q)
    mean = np.sum(weights * n_b) / shots
    assert abs(mean - n * q) < 4 * math.sqrt(var / shots)
    assert abs(np.sum(weights * (n_b - n * q) ** 2) / shots / var - 1) < 4 * math.sqrt(2 / shots)


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
    setup = build_setup(SchemeTag(scheme, n), convention=convention)
    grid = np.linspace(0.0, setup.likelihood_period, points, endpoint=False)
    hist = sample(setup, 0.37 * setup.likelihood_period, 1000, seed=n)
    weights = posterior(hist, setup, grid).weights
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
    """The posterior from the probabilities of every outcome of the input's block over the
    grid, with the log-likelihood terms added in the histogram's order."""
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
    oracle = fock_path_setup(SchemeTag(scheme, n), convention=convention)
    setup = oracle.setups[oracle.cutoff]  # port-A light: its largest block, the split |N,0>
    sampling, state = sampling_pipeline(setup, invert)
    grid = np.linspace(0.0, setup.likelihood_period, 512, endpoint=False)
    hist = sample_outcomes(sampling, state, 0.37 * setup.likelihood_period, 3000, seed=n)
    items = list(hist.counts.items())  # shuffled, so the rows are not requested in order
    shuffled = OutcomeHistogram(hist.shots, dict(items[i] for i in np.random.default_rng(n).permutation(len(items))))
    for data in (hist, shuffled):
        streamed = bayes_posterior(data, sampling, state, grid)
        dense = dense_posterior(data, sampling, state, grid)
        assert_same_products(streamed.weights, dense.weights, rtol=1e-9, atol=1e-300)
        assert_same_products(posterior_mean(streamed), posterior_mean(dense), rtol=1e-12)
        assert_same_products(posterior_std(streamed), posterior_std(dense), rtol=1e-9)


@pytest.mark.parametrize("convention", CONVENTIONS)
@pytest.mark.parametrize("scheme, n", [("coherent", 25), ("coherent", 0), ("single-port-fock", 5), ("single-port-fock", 1)])
def test_photon_posterior_equals_the_fock_path_posterior(scheme, n, convention):
    """The O(P) log-likelihood S_a log sin^2(phi/2) + S_b log cos^2(phi/2) against the dense
    posterior of the Fock path, on the same histogram, in its order and shuffled."""
    tag = SchemeTag(scheme, n)
    setup, oracle = build_setup(tag, convention), fock_path_setup(tag, convention)
    grid = np.linspace(0.0, 2.0 * math.pi, 512, endpoint=False)
    hist = sample_photons(setup.light, 0.37 * 2.0 * math.pi, 3000, seed=n)
    items = list(hist.counts.items())
    shuffled = OutcomeHistogram(hist.shots, dict(items[i] for i in np.random.default_rng(n).permutation(len(items))))
    for data in (hist, shuffled):
        want = oracle.posterior(data, grid)
        if n == 0:  # vacuum: every outcome is (0, 0), and the posterior is flat
            assert np.all(photon_posterior(data, setup.light, grid).weights == 1.0 / grid.size)
            continue
        got = photon_posterior(data, setup.light, grid)
        assert np.max(np.abs(got.weights - want.weights)) <= 1e-9 * np.max(want.weights)
        # the mean of two mirror peaks sits near 0 or pi, where it is ill-conditioned
        assert posterior_mean(got) == pytest.approx(posterior_mean(want), abs=1e-9)
        assert posterior_std(got) == pytest.approx(posterior_std(want), rel=1e-9)


@pytest.mark.parametrize("outcome, message", [
    ((3, 0), "(3, 0) has zero likelihood"),  # block 3, below the populated block 4
    ((4, 1), "(4, 1) has zero likelihood"),  # block 5, above it
    ((-1, 5), "(-1, 5) has zero likelihood"),
])
def test_photon_posterior_refuses_outcomes_outside_the_populated_blocks(outcome, message):
    light = build_setup(SchemeTag("single-port-fock", 4)).light
    hist = OutcomeHistogram(shots=3, counts={(2, 2): 2, outcome: 1})
    with pytest.raises(ModelMismatchError, match=re.escape(message)):
        photon_posterior(hist, light, np.linspace(0.0, 2.0 * math.pi, 64, endpoint=False))


def test_photon_posterior_refuses_a_block_of_weight_zero():
    grid = np.linspace(0.0, 2.0 * math.pi, 64, endpoint=False)
    hist = OutcomeHistogram(shots=2, counts={(5000, 5000): 1, (1, 2): 1})
    with pytest.raises(ModelMismatchError, match="zero likelihood everywhere on the grid"):
        photon_posterior(hist, PortALight(3, [0.0] + [1.0 / 9997] * 9997), grid)  # block 3 weighs exactly 0
    # coherent light of mean 10**4 holds no block whose Poisson weight underflows, as block 3's does
    light = build_setup(SchemeTag("coherent", 10**4)).light
    assert light.first > 3 and np.all(light.weights > 0.0)
    with pytest.raises(ModelMismatchError, match="not a basis state of a populated block"):
        photon_posterior(hist, light, grid)


def test_photon_posterior_of_one_port_only_has_no_nan():
    # every photon in port B: the port-A term is left out, not 0 * log 0 at phi = 0
    light = build_setup(SchemeTag("single-port-fock", 3)).light
    post = photon_posterior(OutcomeHistogram(shots=4, counts={(0, 3): 4}), light,
                            np.linspace(0.0, 2.0 * math.pi, 64, endpoint=False))
    assert np.all(np.isfinite(post.weights)) and np.argmax(post.weights) == 0


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
    assert setup.input_state.n == ref.n and np.array_equal(setup.input_state.amplitudes, ref.amplitudes)
    # <flip> at phi = 0 stays inside the observable's spectrum [-1, 1]
    expect, _, _ = phase_sweep(setup.analysis, setup.input_state, setup.observable, np.array([0.0]))
    assert 1.0 - 1e-15 <= expect[0] <= 1.0
