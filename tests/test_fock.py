import copy
import math
import pickle

import numpy as np
import pytest

from fockmzi import fock
from fockmzi.elements import InterferometerPipeline
from fockmzi.estimation import OutcomeHistogram, PosteriorDistribution
from fockmzi.fock import (
    BlockObservable,
    BlockUnitary,
    ReadOnly,
    TwoModeState,
    block_labels,
    make_basis_state,
)
from fockmzi.rosetta import zero_register
from fockmzi.schemes import SchemeSetup, build_setup
from fockmzi.states import PortALight, SchemeTag
from oracles import (
    amplitude,
    apply,
    banded,
    dense,
    expectation,
    j_observable,
    norm,
    number_observable,
    observable_map,
    spectral_exponential,
    variance,
)


def random_state(rng, cutoff, blocks=None):
    """A normalized random block map over the given blocks, every block up to the cutoff by default."""
    picked = blocks if blocks is not None else range(cutoff + 1)
    vecs = {n: rng.standard_normal(n + 1) + 1j * rng.standard_normal(n + 1) for n in picked}
    scale = math.sqrt(sum(float(np.vdot(v, v).real) for v in vecs.values()))
    return {n: v / scale for n, v in vecs.items()}


def test_make_basis_state_vacuum():
    s = make_basis_state(0, 0)
    assert amplitude(s, 0, 0) == 1.0
    assert abs(norm(s) - 1.0) < 1e-15


def test_make_basis_state_hom_input():
    s = make_basis_state(1, 1)
    assert amplitude(s, 1, 1) == 1.0
    assert s.probabilities()[(1, 1)] == 1.0


def test_make_basis_state_rejects_out_of_range():
    with pytest.raises(ValueError):
        make_basis_state(-1, 0)


def test_jz_eigenvalue_on_basis_state():
    s = make_basis_state(2, 0)
    assert expectation(j_observable("z", 2), s) == pytest.approx(1.0, abs=1e-14)


def test_jx_block_one_by_hand():
    # <0,1|(a†b + b†a)/2|1,0> = 1/2, diagonal zero
    jx = dense(j_observable("x", 1), 1)
    assert np.allclose(jx, [[0.0, 0.5], [0.5, 0.0]], atol=1e-15)


def test_casimir_is_j_j_plus_one():
    for n in range(13):
        j = n / 2.0
        expected = j * (j + 1) * np.eye(n + 1)
        assert np.max(np.abs(dense(j_observable("squared", n), n) - expected)) < 1e-12


def test_commutator_algebra_closes():
    for n in range(13):
        jx, jy, jz = (dense(j_observable(a, n), n) for a in "xyz")
        assert np.max(np.abs(jx @ jy - jy @ jx - 1j * jz)) < 1e-12
        assert np.max(np.abs(jy @ jz - jz @ jy - 1j * jx)) < 1e-12
        assert np.max(np.abs(jz @ jx - jx @ jz - 1j * jy)) < 1e-12


def test_spectral_exponential_zero_scale_is_identity():
    u = spectral_exponential(j_observable("x", 5), 0.0)
    for n, mat in u.items():
        assert np.allclose(mat, np.eye(n + 1), atol=1e-14)


def test_spectral_exponential_jx_half_pi():
    u = spectral_exponential(j_observable("x", 1), math.pi / 2)
    out = apply(u, make_basis_state(1, 0))
    r = 1 / math.sqrt(2)
    assert abs(amplitude(out, 1, 0) - r) < 1e-14
    assert abs(amplitude(out, 0, 1) - 1j * r) < 1e-14


def test_spectral_exponential_jz_is_diagonal_phases():
    phi = 0.73
    u = spectral_exponential(j_observable("z", 4), phi)
    for n, mat in u.items():
        expected = np.diag([np.exp(1j * phi * (n - 2 * i) / 2) for i in range(n + 1)])
        assert np.max(np.abs(mat - expected)) < 1e-13


def test_observable_rejects_a_negative_offset():
    with pytest.raises(ValueError, match="only offsets k >= 0 are stored"):
        BlockObservable({1: {-1: np.ones(1)}})


def test_observable_rejects_a_complex_main_diagonal():
    with pytest.raises(ValueError, match="main diagonal that is not real"):
        BlockObservable({1: {0: np.array([1.0, 1e-300j])}})


def test_block_unitary_rejects_non_unitary():
    with pytest.raises(ValueError):
        BlockUnitary({1: np.array([[1.0, 0.0], [0.0, 2.0]])})


def test_apply_identity_returns_same_amplitudes():
    rng = np.random.default_rng(3)
    s = random_state(rng, 6)
    out = apply({n: np.eye(n + 1) for n in range(7)}, s)
    for n in s:
        assert np.allclose(out[n], s[n], atol=0)
    one = TwoModeState({4: s[4]})
    assert np.array_equal(apply(BlockUnitary({4: np.eye(5)}), one).amplitudes, one.amplitudes)


def test_apply_cutoff_mismatch_raises():
    s = make_basis_state(3, 2)
    small = spectral_exponential(j_observable("x", 3), 0.4)
    with pytest.raises(ValueError):
        apply(small, s)


def test_apply_preserves_norm_for_random_states():
    rng = np.random.default_rng(11)
    for _ in range(20):
        cutoff = int(rng.integers(1, 9))
        s = random_state(rng, cutoff)
        theta = float(rng.uniform(-2 * math.pi, 2 * math.pi))
        u = spectral_exponential(j_observable("x", cutoff), theta)
        assert abs(norm(apply(u, s)) - 1.0) < 1e-12


def test_number_conservation_per_block():
    # amplitude never leaks between blocks: each populated block keeps its weight
    rng = np.random.default_rng(5)
    s = random_state(rng, 7, blocks=[2, 5])
    u = spectral_exponential(j_observable("x", 7), 1.1)
    out = apply(u, s)
    assert set(out) == {2, 5}
    for n in (2, 5):
        before = float(np.vdot(s[n], s[n]).real)
        after = float(np.vdot(out[n], out[n]).real)
        assert abs(before - after) < 1e-12


def test_inverse_composition_roundtrip():
    rng = np.random.default_rng(7)
    for theta in (0.3, -1.2, 2.9):
        s = random_state(rng, 6)
        fwd = spectral_exponential(j_observable("x", 6), theta)
        back = spectral_exponential(j_observable("x", 6), -theta)
        out = apply(back, apply(fwd, s))
        for n in s:
            assert np.max(np.abs(out[n] - s[n])) < 1e-12


def test_expectation_jz_on_31():
    assert expectation(j_observable("z", 4), make_basis_state(3, 1)) == pytest.approx(1.0, abs=1e-14)


def test_expectation_variance_on_balanced_two_photon():
    vec = np.zeros(3, dtype=complex)
    vec[0] = vec[2] = 1 / math.sqrt(2)  # (|2,0> + |0,2>)/sqrt(2)
    s = TwoModeState({2: vec})
    jz = j_observable("z", 2)
    assert expectation(jz, s) == pytest.approx(0.0, abs=1e-14)
    assert variance(jz, s) == pytest.approx(1.0, abs=1e-14)


def test_variance_never_negative():
    rng = np.random.default_rng(13)
    jz = j_observable("z", 8)
    for _ in range(30):
        s = random_state(rng, 8)
        assert variance(jz, s) >= 0.0


def test_variance_matches_moment_difference():
    rng = np.random.default_rng(17)
    obs = j_observable("x", 6)
    for _ in range(10):
        s = random_state(rng, 6)
        sq = observable_map({n: banded(dense(obs, n) @ dense(obs, n)) for n in obs})
        direct = expectation(sq, s) - expectation(obs, s) ** 2
        assert variance(obs, s) == pytest.approx(direct, abs=1e-10)


def test_number_observable_diagonals():
    s = make_basis_state(3, 2)
    assert expectation(number_observable("a", 5), s) == pytest.approx(3.0, abs=1e-14)
    assert expectation(number_observable("b", 5), s) == pytest.approx(2.0, abs=1e-14)
    assert expectation(number_observable("total", 5), s) == pytest.approx(5.0, abs=1e-14)


def test_block_labels_descending_na():
    assert block_labels(3) == [(3, 0), (2, 1), (1, 2), (0, 3)]


def test_state_rejects_bad_blocks():
    with pytest.raises(ValueError):
        TwoModeState({-1: np.zeros(0)})
    with pytest.raises(ValueError):
        TwoModeState({2: np.zeros(5)})


ONE_BLOCK_VALUES = {
    TwoModeState: lambda n: np.ones(n + 1),
    BlockObservable: lambda n: {0: np.ones(n + 1)},
    BlockUnitary: lambda n: np.eye(n + 1),
}


@pytest.mark.parametrize("cls", ONE_BLOCK_VALUES, ids=lambda cls: cls.__name__)
def test_fock_space_value_holds_exactly_one_block(cls):
    block = ONE_BLOCK_VALUES[cls]
    value = cls({3: block(3)})
    assert value.n == 3 and "blocks" not in type(value).__slots__
    for given in ({}, {1: block(1), 3: block(3)}):
        with pytest.raises(ValueError, match=f"holds one photon-number block, got {len(given)}"):
            cls(given)


def test_pipeline_refuses_a_readout_on_another_block_than_its_input():
    pipeline = InterferometerPipeline(after=BlockUnitary({3: np.eye(4)}))
    state = make_basis_state(1, 1)
    for run in (lambda: pipeline.evolve(state, 0.3), lambda: pipeline.evolve_grid(state, [0.3]),
                lambda: pipeline.output_rows(state, [0.3], [0, 1])):
        with pytest.raises(ValueError, match="U_after is on block 3, the input on block 2"):
            run()


def test_observable_rejects_wrong_block_dimension():
    with pytest.raises(ValueError, match="cannot hold diagonal"):
        BlockObservable({2: {0: np.ones(2)}})
    with pytest.raises(ValueError):
        BlockUnitary({1: np.eye(3)})


VALUES = [
    lambda: TwoModeState({1: np.array([1.0, 0.0])}),
    lambda: BlockObservable({1: {1: np.ones(1)}}),
    lambda: BlockUnitary({0: np.eye(1)}),
    lambda: InterferometerPipeline(),
    lambda: SchemeTag("noon", 2),
    lambda: PortALight(3, [1.0]),
    lambda: build_setup(SchemeTag("coherent", 2)),
    lambda: OutcomeHistogram(2, {(1, 0): 2}),
    lambda: PosteriorDistribution(np.array([0.0, 1.0]), np.array([0.5, 0.5])),
    lambda: zero_register(2),
]


@pytest.mark.parametrize("make", VALUES)
def test_value_classes_are_slotted_and_read_only(make):
    value = make()
    assert isinstance(value, ReadOnly) and not hasattr(value, "__dict__")
    assert "blocks" not in type(value).__slots__  # a Fock-space value holds one block, never a map of them
    name = type(value).__slots__[0]
    with pytest.raises(AttributeError, match="read-only"):
        setattr(value, name, None)
    with pytest.raises(AttributeError, match="read-only"):
        delattr(value, name)
    with pytest.raises(AttributeError, match="read-only"):
        value.unlisted = 1
    assert repr(value).startswith(f"{type(value).__name__}({name}=")
    # copy and pickle restore the slots past the refusing __setattr__; arrays compare by their repr
    for copied in (copy.copy(value), copy.deepcopy(value), pickle.loads(pickle.dumps(value))):
        assert type(copied) is type(value) and repr(copied) == repr(value)
        with pytest.raises(AttributeError, match="read-only"):
            setattr(copied, name, None)


def test_value_classes_compare_and_hash_by_their_fields():
    assert SchemeTag("noon", 2) == SchemeTag("noon", 2) != SchemeTag("noon", 3)
    assert hash(SchemeTag("noon", 2)) == hash(SchemeTag("noon", 2))
    assert SchemeTag("noon", 2) != ("noon", 2)
    assert OutcomeHistogram(2, {(1, 0): 2}) == OutcomeHistogram(2, {(1, 0): 2}) != OutcomeHistogram(2, {(0, 1): 2})
    assert InterferometerPipeline() == InterferometerPipeline("one-arm", None)
    for value in (SchemeTag("noon", 2), OutcomeHistogram(2, {(1, 0): 2}), InterferometerPipeline()):
        assert copy.deepcopy(value) == value == pickle.loads(pickle.dumps(value))


def test_setup_holds_port_a_light_or_a_state_never_both():
    light, state = PortALight(1, [1.0]), make_basis_state(1, 0)
    for fields in ({}, {"light": light, "input_state": state}):
        with pytest.raises(ValueError, match="either port-A light or a Fock-space input state"):
            SchemeSetup(1, InterferometerPipeline(), 1.0, **fields)


def test_every_array_a_value_holds_is_a_read_only_copy():
    owned = np.ones(3, dtype=np.complex128)
    owned.setflags(write=False)  # read-only, but its owner can turn writing back on
    view = owned[:2]
    writable = np.ones(3, dtype=np.complex128)
    for arr in (owned, view, writable, np.ones(3), np.arange(3)):
        kept = fock._frozen(arr)
        assert kept is not arr and not np.shares_memory(kept, arr)
        assert kept.dtype == np.complex128 and not kept.flags.writeable
