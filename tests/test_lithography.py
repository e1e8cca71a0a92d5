import math
import re

import numpy as np
import pytest

from fockmzi.lithography import InsufficientGridError, deposition_rate, fringe_period
from oracles import fringe_period_loop, noon_fidelity_sweep


def offset_grid(period, periods=3.0, points=2048):
    # start a quarter period in so every maximum is interior
    return np.linspace(0.25 * period, (0.25 + periods) * period, points)


def test_noon_two_curve_values():
    lam = 1.0
    x = np.array([0.0, lam / 2])
    rate = deposition_rate("noon", 2, x, lam)
    assert rate[0] == pytest.approx(2.0, abs=1e-15)
    assert rate[1] == pytest.approx(0.0, abs=1e-12)  # first zero at x = lam/2


def test_single_curve_null_at_full_wavelength():
    rate = deposition_rate("single", 1, np.array([1.0]), 1.0)
    assert rate[0] == pytest.approx(0.0, abs=1e-12)


def test_classical_curve_is_square_of_single():
    x = np.linspace(0.0, 6.0, 700)
    single = deposition_rate("single", 1, x, 1.0)
    classical = deposition_rate("classical-two-photon", 2, x, 1.0)
    assert np.max(np.abs(classical - single**2)) < 1e-12


def test_curve_maxima_reach_expected_heights():
    x = np.linspace(0.0, 8.0, 4001)
    assert deposition_rate("single", 1, x, 1.0).max() == pytest.approx(2.0, abs=1e-9)
    assert deposition_rate("noon", 3, x, 1.0).max() == pytest.approx(2.0, abs=1e-9)
    assert deposition_rate("classical-two-photon", 2, x, 1.0).max() == pytest.approx(4.0, abs=1e-9)


def test_rates_are_nonnegative():
    x = np.linspace(0.0, 10.0, 5000)
    for kind, n in (("single", 1), ("classical-two-photon", 2), ("noon", 5)):
        assert np.all(deposition_rate(kind, n, x, 1.0) >= 0.0)


def test_deposition_rejects_bad_arguments():
    with pytest.raises(ValueError):
        deposition_rate("triple", 1, np.array([0.0]), 1.0)
    with pytest.raises(ValueError):
        deposition_rate("noon", 0, np.array([0.0]), 1.0)
    with pytest.raises(ValueError):
        deposition_rate("single", 1, np.array([0.0]), -1.0)


def test_fringe_period_of_single_curve():
    lam = 1.0
    x = offset_grid(2.0 * lam)
    assert abs(fringe_period(x, deposition_rate("single", 1, x, lam)) - 2.0 * lam) < 1e-6


@pytest.mark.parametrize("n", range(1, 9))
def test_fringe_period_ratio_is_n(n):
    lam = 1.0
    x_single, x_noon = offset_grid(2.0 * lam), offset_grid(2.0 * lam / n)
    single = fringe_period(x_single, deposition_rate("single", 1, x_single, lam))
    noon_p = fringe_period(x_noon, deposition_rate("noon", n, x_noon, lam))
    assert abs(single / noon_p - n) / n < 1e-6


def test_fringe_period_needs_two_maxima():
    # a single interior maximum is not enough
    x = np.linspace(0.5, 3.5, 400)
    with pytest.raises(InsufficientGridError):
        fringe_period(x, deposition_rate("single", 1, x, 1.0))


def test_fringe_period_rejects_mismatched_arrays():
    x = np.linspace(0.0, 6.0, 600)
    rate = deposition_rate("single", 1, x, 1.0)
    for grid, values in ((x[:-1], rate), (x, rate[:-1]), (x.reshape(2, -1), rate.reshape(2, -1))):
        with pytest.raises(ValueError, match="matching 1-d arrays"):
            fringe_period(grid, values)


@pytest.mark.parametrize("n, points", [(8, 6000), (2, 512)])
def test_fringe_period_equals_the_loop_form_on_the_litho_grids(n, points):
    # the grids `litho --n N --points P` measures its three periods on (wavelength 1)
    for kind, nn in (("single", 1), ("classical-two-photon", 2), ("noon", n)):
        period = 2.0 / (nn if kind == "noon" else 1)
        x = np.linspace(0.25 * period, 3.25 * period, points)
        rate = deposition_rate(kind, nn, x, 1.0)
        assert fringe_period(x, rate) == fringe_period_loop(x, rate)


def test_fringe_period_equals_the_loop_form_on_random_curves():
    rng = np.random.default_rng(20261018)
    for trial in range(200):
        size = int(rng.integers(0, 60))
        x = np.cumsum(rng.uniform(0.01, 1.0, size))
        # small integer rates give plateaus, where '>=' on the left and '>' on the right matter
        rate = rng.integers(0, 4, size).astype(float) if trial % 2 else rng.uniform(0.0, 2.0, size)
        try:
            want = fringe_period_loop(x, rate)
        except InsufficientGridError as exc:
            with pytest.raises(InsufficientGridError, match=re.escape(str(exc))):
                fringe_period(x, rate)
        else:
            assert fringe_period(x, rate) == want


def test_fidelity_sweep_perfect_for_hom_pair():
    grid = np.linspace(0.0, math.pi, 10_001)
    theta, fidelity = noon_fidelity_sweep(1, 1, grid)
    assert fidelity > 1 - 1e-10
    assert abs(theta - math.pi / 2) < 1e-9


def test_fidelity_sweep_perfect_for_single_photon():
    grid = np.linspace(0.0, math.pi, 10_001)
    theta, fidelity = noon_fidelity_sweep(1, 0, grid)
    assert fidelity > 1 - 1e-10
    assert abs(theta - math.pi / 2) < 1e-9


@pytest.mark.parametrize("pair", [(2, 1), (2, 2), (3, 2), (3, 3)])
def test_fidelity_sweep_capped_above_two_photons(pair):
    grid = np.linspace(0.0, math.pi, 10_001)
    _, fidelity = noon_fidelity_sweep(*pair, grid)
    assert fidelity <= 0.99
    # oracle: the same sweep at 10x density finds nothing better
    dense = np.linspace(0.0, math.pi, 100_001)
    _, fidelity_dense = noon_fidelity_sweep(*pair, dense)
    assert fidelity_dense <= 0.99
    assert fidelity_dense >= fidelity - 1e-12


def test_fidelity_sweep_symmetric_under_port_swap():
    grid = np.linspace(0.0, math.pi, 2001)
    for pair in [(2, 1), (3, 1), (4, 2)]:
        _, f1 = noon_fidelity_sweep(pair[0], pair[1], grid)
        _, f2 = noon_fidelity_sweep(pair[1], pair[0], grid)
        assert abs(f1 - f2) < 1e-12


def test_fidelity_sweep_matches_plain_application():
    # cross-check the vectorized sweep against direct unitary application
    from fockmzi.fock import make_basis_state
    from oracles import apply, beam_splitter, noon_fidelity

    n_a, n_b = 2, 1
    n = n_a + n_b
    thetas = np.linspace(0.1, 3.0, 7)
    _, best = noon_fidelity_sweep(n_a, n_b, thetas)
    direct = max(
        noon_fidelity(apply(beam_splitter(t, n), make_basis_state(n_a, n_b)), n)
        for t in thetas
    )
    assert abs(best - direct) < 1e-12


def test_fidelity_sweep_rejects_vacuum():
    with pytest.raises(ValueError):
        noon_fidelity_sweep(0, 0, np.linspace(0, 1, 10))
