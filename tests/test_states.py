import math

import numpy as np
import pytest

from fockmzi import schemes
from fockmzi.elements import ONE_ARM
from fockmzi.states import (
    PortALight,
    COHERENT_CUTOFF_CAP,
    COHERENT_TAIL_TOL,
    SchemeTag,
    TruncationError,
    coherent_amplitudes,
    dual_fock,
    noon,
    required_coherent_cutoff,
    yurke_bosonic,
    yurke_fermionic_analog,
)
from oracles import (
    amplitude,
    apply,
    bisected_coherent_cutoff,
    coherent_tail_mass,
    expectation,
    j_observable,
    norm,
    number_observable,
    phase_shifter,
    port_a,
    single_port_fock,
)

ALL_FACTORIES = [
    lambda: single_port_fock(4),
    lambda: dual_fock(3),
    lambda: noon(5, 0.3),
    lambda: yurke_fermionic_analog(5),
    lambda: yurke_bosonic(6),
    lambda: port_a(coherent_amplitudes(2.25)),
]


@pytest.mark.parametrize("factory", ALL_FACTORIES)
def test_every_factory_output_is_normalized(factory):
    assert abs(norm(factory()) - 1.0) < 1e-12


def test_single_port_fock_examples():
    s = single_port_fock(1)
    assert amplitude(s, 1, 0) == 1.0
    assert amplitude(single_port_fock(0), 0, 0) == 1.0


def test_single_port_and_dual_populate_one_amplitude():
    for s in (single_port_fock(3), dual_fock(2)):
        probs = [p for p in s.probabilities().values() if p > 0]
        assert probs == [1.0]


def test_dual_fock_examples():
    assert amplitude(dual_fock(1), 1, 1) == 1.0
    assert amplitude(dual_fock(0), 0, 0) == 1.0
    assert expectation(j_observable("z", 6), dual_fock(3)) == pytest.approx(0.0, abs=1e-14)


def test_noon_amplitudes():
    s = noon(1, 0.0)
    r = 1 / math.sqrt(2)
    assert abs(amplitude(s, 1, 0) - r) < 1e-15
    assert abs(amplitude(s, 0, 1) - r) < 1e-15
    phi = 0.81
    s = noon(4, phi)
    assert abs(amplitude(s, 0, 4) - r * np.exp(4j * phi)) < 1e-14


def test_noon_matches_hom_output_probabilities():
    from fockmzi.elements import BALANCED
    from fockmzi.fock import make_basis_state
    from oracles import beam_splitter

    hom = apply(beam_splitter(BALANCED, 2), make_basis_state(1, 1)).probabilities()
    for phi in (0.0, 1.3):  # branch phases drop out of the profile
        ideal = noon(2, phi).probabilities()
        for key in ideal:
            assert abs(hom.get(key, 0.0) - ideal[key]) < 1e-12


def test_noon_phase_accumulation_identity():
    for n in (1, 2, 5, 9):
        phi = 0.47
        shifted = apply(phase_shifter(phi, ONE_ARM, n), noon(n, 0.0))
        direct = noon(n, phi)
        for block in direct.blocks:
            assert np.max(np.abs(shifted.blocks[block] - direct.blocks[block])) < 1e-12


def test_yurke_fermionic_analog_composition():
    s = yurke_fermionic_analog(3)
    r = 1 / math.sqrt(2)
    assert abs(amplitude(s, 2, 1) - r) < 1e-15
    assert abs(amplitude(s, 1, 2) - r) < 1e-15
    one = yurke_fermionic_analog(1)
    ref = noon(1, 0.0)
    assert np.max(np.abs(one.blocks[1] - ref.blocks[1])) < 1e-15
    with pytest.raises(ValueError):
        yurke_fermionic_analog(4)


def test_yurke_bosonic_composition():
    s = yurke_bosonic(2)
    r = 1 / math.sqrt(2)
    assert abs(amplitude(s, 1, 1) - r) < 1e-15
    assert abs(amplitude(s, 2, 0) - r) < 1e-15
    with pytest.raises(ValueError):
        yurke_bosonic(3)
    with pytest.raises(ValueError):
        yurke_bosonic(0)


def test_coherent_zero_is_vacuum():
    assert np.array_equal(coherent_amplitudes(0.0), [1.0])


def test_coherent_mean_photon_number():
    # oracle: direct summation of the Poisson series truncated where coherent_amplitudes truncates it
    lam = 4.0
    amps = coherent_amplitudes(lam)
    cutoff = len(amps) - 1
    weights = []
    term = math.exp(-lam)
    for k in range(cutoff + 1):
        weights.append(term)
        term *= lam / (k + 1)
    total = sum(weights)
    oracle_mean = sum(k * w for k, w in enumerate(weights)) / total
    mean = expectation(number_observable("a", cutoff), port_a(amps))
    assert mean == pytest.approx(oracle_mean, abs=1e-12)
    assert mean == pytest.approx(4.0, abs=1e-9)


def test_required_coherent_cutoff_is_tight():
    needed = required_coherent_cutoff(4.0)
    assert coherent_tail_mass(4.0, needed) < COHERENT_TAIL_TOL
    assert coherent_tail_mass(4.0, needed - 1) >= COHERENT_TAIL_TOL


def test_coherent_tail_matches_poisson_survival():
    poisson = pytest.importorskip("scipy.stats").poisson
    # (740, 817) lost its whole tail to underflow when summed forward from exp(-lam)
    for lam, cutoff in [(0.001, 0), (4.0, 2), (2.0, 10), (25.0, 68), (740.0, 817), (800.0, 1000)]:
        assert coherent_tail_mass(lam, cutoff) == pytest.approx(poisson.sf(cutoff, lam), rel=1e-10)
    for lam in (0.3, 4.0, 25.0, 740.0):
        needed = required_coherent_cutoff(lam)
        assert poisson.sf(needed, lam) < COHERENT_TAIL_TOL <= poisson.sf(needed - 1, lam)


def test_coherent_amplitudes_match_poisson_pmf_at_large_mean():
    poisson = pytest.importorskip("scipy.stats").poisson
    for lam in (1500.0, 5000.0):
        cutoff = required_coherent_cutoff(lam)
        amps = coherent_amplitudes(lam)
        assert len(amps) == cutoff + 1
        assert np.all(np.isfinite(amps))
        assert abs(np.linalg.norm(amps) - 1.0) <= 1e-12
        pmf = poisson.pmf(np.arange(cutoff + 1), lam)
        kept = pmf > 1e-20
        assert np.max(np.abs(amps[kept] ** 2 - pmf[kept]) / pmf[kept]) <= 1e-10


def test_coherent_state_is_finite_where_the_forward_recurrence_underflowed():
    # exp(-lam/2) underflows to zero at lam = 1500, which left every amplitude NaN
    s = port_a(coherent_amplitudes(1500.0))
    assert all(np.all(np.isfinite(vec)) for vec in s.blocks.values())
    assert abs(norm(s) - 1.0) <= 1e-12


def test_required_coherent_cutoff_past_cap_is_truncation_error():
    # n = 1987641 is the brightest coherent input whose tail the cap still cuts below the tolerance
    assert required_coherent_cutoff(1987641) == COHERENT_CUTOFF_CAP
    with pytest.raises(TruncationError, match=f"no cutoff up to {COHERENT_CUTOFF_CAP} keeps"):
        required_coherent_cutoff(1987642)


def test_required_coherent_cutoff_walk_equals_the_bisection():
    # the cutoffs build_setup asks for, at the mean n, from the dim end and at the cap
    for n in [*range(301), *range(1987630, 1987642)]:
        assert required_coherent_cutoff(n) == bisected_coherent_cutoff(n), n
    for search in (required_coherent_cutoff, bisected_coherent_cutoff):
        with pytest.raises(TruncationError, match=f"no cutoff up to {COHERENT_CUTOFF_CAP} keeps"):
            search(1987642)


@pytest.mark.parametrize("nbar", [math.nan, -1.0])
def test_nan_or_negative_mean_photon_number_is_a_value_error(nbar):
    for build in (required_coherent_cutoff, coherent_amplitudes):
        with pytest.raises(ValueError, match="mean photon number must be a real >= 0") as caught:
            build(nbar)
        assert not isinstance(caught.value, TruncationError)


@pytest.mark.parametrize("nbar", [math.inf, 1e200, 1987642])
def test_mean_photon_number_past_the_cap_is_a_truncation_error(nbar):
    # a mean past the cap is refused before any cutoff is searched, so no infinity reaches math.ceil;
    # 1987642 is below the cap, but the cutoff its tail needs is not
    for build in (required_coherent_cutoff, coherent_amplitudes):
        with pytest.raises(TruncationError, match=f"no cutoff up to {COHERENT_CUTOFF_CAP} keeps"):
            build(nbar)


def test_scheme_tag_validation():
    SchemeTag("noon", 3)
    SchemeTag("yurke-fermionic-analog", 5)
    SchemeTag("yurke-bosonic", 6)
    with pytest.raises(ValueError):
        SchemeTag("squeezed", 2)
    with pytest.raises(ValueError):
        SchemeTag("yurke-fermionic-analog", 4)
    with pytest.raises(ValueError):
        SchemeTag("yurke-bosonic", 5)
    with pytest.raises(ValueError):
        SchemeTag("yurke-bosonic", 0)
    with pytest.raises(ValueError):
        SchemeTag("noon", 0)


@pytest.mark.parametrize("n", [2, 3, 5, 7])
def test_build_setup_hands_coherent_amplitudes_the_mean_photon_number(monkeypatch, n):
    # n is not a perfect square, so a square root squared back could land an ulp away
    seen = []

    def recorder(mean_photons):
        seen.append(mean_photons)
        return coherent_amplitudes(mean_photons)

    monkeypatch.setattr(schemes, "coherent_amplitudes", recorder)
    setup = schemes.build_setup(SchemeTag("coherent", n))
    assert seen == [n]
    assert setup.cutoff == required_coherent_cutoff(n)


def test_port_a_light_holds_the_weights_mean_and_variance():
    light = PortALight(2, [0.25, 0.5, 0.25])  # blocks 2, 3, 4
    assert (light.first, light.mean, light.variance) == (2, 3.0, 0.5)
    assert not light.weights.flags.writeable
    fock_light = PortALight(10**15, [1.0])
    assert (fock_light.mean, fock_light.variance) == (1e15, 0.0)


@pytest.mark.parametrize("nbar", [1, 4, 25, 400, 10**5])
def test_coherent_weights_are_poisson_of_mean_and_variance_nbar(nbar):
    amps = coherent_amplitudes(nbar)
    light = PortALight(0, amps * amps)
    assert abs(light.mean / nbar - 1.0) <= 1e-12
    assert abs(light.variance / nbar - 1.0) <= 1e-9


@pytest.mark.parametrize("first, weights", [
    (-1, [1.0]), (0, []), (0, [[1.0]]), (0, [0.5, 0.4]), (0, [1.5, -0.5]), (0, [math.nan, 1.0]),
])
def test_port_a_light_rejects_what_is_not_a_distribution(first, weights):
    with pytest.raises(ValueError):
        PortALight(first, weights)
