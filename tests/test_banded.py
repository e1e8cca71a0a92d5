"""Properties of the banded observables, of the inputs prepared at the phase stage, and of
the pipelines that evolve them."""

import math

import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from fockmzi.elements import (  # noqa: E402
    BALANCED,
    CONVENTIONS,
    ONE_ARM,
    SYMMETRIC,
    InterferometerPipeline,
    pulled_back_jz,
    pulled_back_jz_bound,
    split,
)
from fockmzi.fock import BlockObservable, TwoModeState, make_basis_state  # noqa: E402
from fockmzi.schemes import build_setup  # noqa: E402
from fockmzi.states import (  # noqa: E402
    SCHEME_NAMES,
    SchemeTag,
    coherent_amplitudes,
    dual_fock,
    noon,
    required_coherent_cutoff,
    yurke_bosonic,
    yurke_fermionic_analog,
)
from oracles import (  # noqa: E402
    apply,
    banded,
    beam_splitter,
    coherent_vacuum,
    dense,
    fock_path_setup,
    j_bands,
    j_observable,
    norm,
    port_swap,
    split_port_a,
)


def random_banded_hermitian(rng, n, offsets):
    mat = np.zeros((n + 1, n + 1), dtype=np.complex128)
    for k in offsets:
        if k > n:
            continue
        upper = rng.standard_normal(n + 1 - k) + 1j * rng.standard_normal(n + 1 - k)
        mat += np.diag(upper.real if k == 0 else upper, k)
        if k:
            mat += np.diag(upper.conj(), -k)
    return mat


@settings(max_examples=60, deadline=None)
@given(
    n=st.integers(0, 12),
    offsets=st.sets(st.integers(0, 12), max_size=4),
    columns=st.integers(0, 5),
    seed=st.integers(0, 2**32 - 1),
)
def test_banded_apply_equals_dense_product(n, offsets, columns, seed):
    rng = np.random.default_rng(seed)
    mat = random_banded_hermitian(rng, n, offsets)
    obs = BlockObservable({n: banded(mat)})
    assert np.array_equal(dense(obs, n), mat)
    assert all(np.any(diag) for diag in obs.blocks[n].values())
    shape = (n + 1,) if columns == 0 else (n + 1, columns)
    x = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    assert np.max(np.abs(obs.apply_block(n, x) - mat @ x), initial=0.0) <= 1e-13 * max(1.0, np.max(np.abs(mat @ x), initial=0.0))
    assert obs.norm_bound(n) >= np.linalg.norm(mat, 2) - 1e-12


@settings(max_examples=25, deadline=None)
@given(n=st.integers(0, 80), invert=st.booleans())
def test_pulled_back_jz_is_minus_or_plus_jy(n, invert):
    """-J_y through the 50/50 splitter, +J_y through the inverted one, the ports exchanged."""
    u = beam_splitter(-BALANCED if invert else BALANCED, n).blocks[n]
    pulled = u.conj().T @ dense(j_observable("z", n), n) @ u
    sign = -1.0 if invert else 1.0
    assert np.max(np.abs(pulled - sign * dense(pulled_back_jz([n]), n))) <= 1e-13 * max(1, n)


def test_pulled_back_jz_bound_is_the_norm_bound_bit_for_bit():
    for n in [*range(300), 2047, 2048, 10**5, 10**5 + 1, 1_008_770, 2_000_000, 10**7 + 3]:
        assert pulled_back_jz_bound(n) == pulled_back_jz([n]).norm_bound(n), n


@settings(max_examples=30, deadline=None)
@given(n=st.integers(0, 40), extra=st.integers(0, 3))
def test_closed_form_split_fock_state_matches_splitter(n, extra):
    cutoff = n + extra
    ref = apply(beam_splitter(BALANCED, cutoff), make_basis_state(n, 0))
    split = split_port_a({n: 1.0})
    assert set(split.blocks) == {n}
    assert np.max(np.abs(split.blocks[n] - ref.blocks[n])) <= 1e-13


@settings(max_examples=20, deadline=None)
@given(nbar=st.floats(0.0, 25.0))
def test_closed_form_split_coherent_state_matches_splitter(nbar):
    cutoff = required_coherent_cutoff(nbar)
    ref = apply(beam_splitter(BALANCED, cutoff), coherent_vacuum(nbar, cutoff))
    split = split_port_a(dict(enumerate(coherent_amplitudes(nbar))))
    assert set(split.blocks) == set(ref.blocks)
    for n, vec in ref.blocks.items():
        assert np.max(np.abs(split.blocks[n] - vec)) <= 1e-13


@pytest.mark.parametrize("theta", [BALANCED, -BALANCED], ids=["balanced", "inverse"])
@pytest.mark.parametrize("state", [dual_fock(3), dual_fock(5), yurke_fermionic_analog(7),
                                   yurke_bosonic(8), noon(4, 0.3), noon(7, 0.0)])
def test_block_split_matches_splitter(state, theta):
    """split is the oracle's exp(i theta J_x) at BALANCED, bit for bit; the inverted splitter, at
    -BALANCED, is split with the input ports exchanged ahead of it."""
    cutoff = max(state.blocks)
    ref = apply(beam_splitter(theta, cutoff), state)
    rotated = split(state if theta == BALANCED else apply(port_swap(cutoff), state))
    assert isinstance(rotated, TwoModeState) and set(rotated.blocks) == set(state.blocks)
    for n, vec in ref.blocks.items():
        if theta == BALANCED:
            assert np.array_equal(rotated.blocks[n], vec)
        else:  # the swap is exact; the oracle's eigensystem products at the two angles are not
            assert np.max(np.abs(rotated.blocks[n] - vec)) <= 1e-13


phases = st.lists(st.floats(-2 * math.pi, 2 * math.pi), min_size=1, max_size=6)


@settings(max_examples=50, deadline=None)
@given(
    cutoff=st.integers(0, 14),
    populated=st.sets(st.integers(0, 14), min_size=1, max_size=5),
    phis=phases,
    theta=st.one_of(st.none(), st.floats(-math.pi, math.pi)),
    seed=st.integers(0, 2**32 - 1),
)
def test_one_arm_phase_is_a_block_phase_times_the_mirrored_symmetric_phase(cutoff, populated, phis, theta, seed):
    # one-arm(phi) = e^{i phi n/2} symmetric(-phi) on block n, since n_b = n/2 - J_z;
    # so the one-arm G_out psi is n/2 psi minus e^{i phi n/2} times the symmetric one
    rng = np.random.default_rng(seed)
    state = TwoModeState({n: rng.standard_normal(n + 1) + 1j * rng.standard_normal(n + 1)
                          for n in populated if n <= cutoff})
    after = None if theta is None else beam_splitter(theta, cutoff)
    grid = np.array(phis)
    one = InterferometerPipeline(ONE_ARM, after=after).evolve_blocks(state, grid)
    sym = InterferometerPipeline(SYMMETRIC, after=after).evolve_blocks(state, -grid)
    for (n, psi, generated), (m, mirrored, mirrored_generated) in zip(one, sym, strict=True):
        assert n == m
        scale = np.exp(1j * grid * n / 2)
        tol = 1e-12 * max(1, n) * max(1.0, np.max(np.abs(state.blocks[n])))
        assert np.max(np.abs(psi - scale * mirrored)) <= tol
        assert np.max(np.abs(generated - (n / 2 * psi - scale * mirrored_generated))) <= tol * max(1, n)


def scheme_tag(name, k):
    """A valid tag of the scheme with size about k: odd for the fermionic analog, positive and even
    for the bosonic Yurke state, at least one for the rest."""
    if name == "yurke-fermionic-analog":
        return SchemeTag(name, 2 * k + 1)
    if name == "yurke-bosonic":
        return SchemeTag(name, 2 * k + 2)
    return SchemeTag(name, k + 1)


@settings(max_examples=60, deadline=None)
@given(
    scheme=st.sampled_from(SCHEME_NAMES),
    k=st.integers(0, 6),
    convention=st.sampled_from(CONVENTIONS),
    phis=phases,
)
def test_analysis_and_sampling_pipelines_preserve_the_norm(scheme, k, convention, phis):
    setup = fock_path_setup(scheme_tag(scheme, k), convention=convention)
    grid = np.array(phis)
    for pipeline in (setup.analysis, setup.sampling):
        norms = sum(np.sum(np.abs(psi) ** 2, axis=0) for _, psi, _ in pipeline.evolve_blocks(setup.input_state, grid))
        assert np.max(np.abs(norms - norm(setup.input_state) ** 2)) <= 1e-12


def two_sided_observable(tag, n, invert):
    """Block n of the scheme observable as a full matrix, both halves written out: the flip
    |N,0><0,N| + |0,N><N,0|, or -J_y (+J_y after the inverted second splitter): i up/2 above
    the diagonal and -i up/2 below it, for up j_bands' ladder elements."""
    mat = np.zeros((n + 1, n + 1), dtype=np.complex128)
    if tag.name == "noon":
        mat[0, n] = mat[n, 0] = 1.0
        return mat
    sign = -1.0 if invert else 1.0
    up = 2.0 * j_bands("x", n)[1]  # the ladder elements sqrt((n_a+1) n_b)
    return sign * (np.diag(0.5j * up, 1) + np.diag(-0.5j * up, -1))


@pytest.mark.parametrize("invert", [False, True])
@pytest.mark.parametrize("scheme", SCHEME_NAMES)
def test_scheme_observable_stores_its_upper_bands_alone(scheme, invert):
    """With invert the stored observable is read with the ports exchanged, S† A S for S the port
    swap: J_z pulled back through the inverted second splitter, +J_y, or the flip unchanged."""
    tag = scheme_tag(scheme, 3)
    setup = fock_path_setup(tag)
    swap = port_swap(setup.cutoff)
    for n, bands in setup.observable.blocks.items():
        assert all(k >= 0 for k in bands)
        full = dense(setup.observable, n)
        if invert:
            full = swap.blocks[n].conj().T @ full @ swap.blocks[n]
        assert np.array_equal(full, two_sided_observable(tag, n, invert))
        assert np.array_equal(full, full.conj().T)


@pytest.mark.parametrize("scheme", SCHEME_NAMES)
def test_setup_cutoff_is_the_largest_input_block(scheme):
    for k in range(3):
        setup = build_setup(scheme_tag(scheme, k))
        if setup.light is None:
            assert setup.cutoff == max(setup.input_state.blocks)
        else:  # port-A light: the last block it weighs, the largest its split state populates
            assert setup.cutoff == setup.light.first + setup.light.weights.size - 1
            assert setup.cutoff == max(fock_path_setup(scheme_tag(scheme, k)).input_state.blocks)
    if scheme in ("single-port-fock", "coherent", "dual-fock"):
        assert build_setup(SchemeTag(scheme, 0)).cutoff == 0
