"""The rotation columns against arbitrary-precision oracles: Wigner's finite sum for d^j_{m'm} and the
matrix exponential of the splitter at 40 digits (mpmath), the closed form of the split twin-Fock
state, and the Holland-Burnett Fisher information 2N(N+1) of twin Fock at large N."""

import math
from fractions import Fraction

import numpy as np
import pytest

from fockmzi.elements import CONVENTIONS, ONE_ARM, SPLITTER, InterferometerPipeline, _rotation_columns, phase_exponent
from fockmzi.estimation import classical_fisher
from fockmzi.fock import make_basis_state
from fockmzi.schemes import build_setup
from fockmzi.states import SchemeTag, dual_fock

mpmath = pytest.importorskip("mpmath")
mp = mpmath.mp
PHASES = (0.05, 0.8, 2.3, -1.7)


def wigner_d(n: int, row: int, col: int, beta: float):
    """d^j_{m'm}(beta) for j = n/2, m' = j - row and m = j - col, by Wigner's finite sum, at the working
    precision: sum_s (-1)^(m'-m+s) sqrt((j+m')!(j-m')!(j+m)!(j-m)!) / ((j+m-s)! s! (m'-m+s)! (j-m'-s)!)
    cos(beta/2)^(2j+m-m'-2s) sin(beta/2)^(m'-m+2s)."""
    jpm, jmm, jpmp, jmmp = n - col, col, n - row, row  # j+m, j-m, j+m', j-m'
    half = mp.mpf(beta) / 2
    c, s = mpmath.cos(half), mpmath.sin(half)
    total = mp.mpf(0)
    for k in range(max(0, row - col), min(jpm, jmmp) + 1):
        a3 = col - row + k  # m' - m + s
        term = mp.mpf(math.factorial(jpm - k) * math.factorial(k) * math.factorial(a3) * math.factorial(jmmp - k))
        total += (-1) ** a3 * c ** (n - (col - row) - 2 * k) * s ** ((col - row) + 2 * k) / term
    root = mp.mpf(math.factorial(jpmp) * math.factorial(jmmp) * math.factorial(jpm) * math.factorial(jmm))
    return mpmath.sqrt(root) * total


def splitter_exponential(n: int):
    """exp(i pi/2 J_x) on block n at the working precision, by mpmath's matrix exponential."""
    jx = mpmath.zeros(n + 1, n + 1)
    for i in range(1, n + 1):
        jx[i - 1, i] = jx[i, i - 1] = mpmath.sqrt(i * (n - i + 1)) / 2
    return mpmath.expm(1j * mp.pi / 2 * jx)


@pytest.mark.parametrize("n", [1, 2, 5, 8, 12])
def test_rotation_columns_match_wigners_finite_sum(n):
    with mp.workdps(40):
        for beta in (*PHASES, -math.pi / 2):
            cols = np.arange(n + 1)
            got = _rotation_columns(n, cols, math.cos(beta / 2), math.sin(beta / 2))
            want = np.array([[float(wigner_d(n, i, k, beta)) for k in cols] for i in range(n + 1)])
            assert np.max(np.abs(got - want)) <= 4e-15, (n, beta)


@pytest.mark.parametrize("convention", CONVENTIONS)
@pytest.mark.parametrize("n", [1, 2, 5, 12])
def test_splitter_phase_splitter_outputs_match_the_matrix_exponential(n, convention):
    """U_after and U_before the splitter, every basis input, against S e^{i phi g} S at 40 digits."""
    with mp.workdps(40):
        split = splitter_exponential(n)
        g = phase_exponent(convention, n)
        first = InterferometerPipeline(convention, before=SPLITTER)
        both = InterferometerPipeline(convention, SPLITTER, SPLITTER)
        for k in range(n + 1):
            state = make_basis_state(n - k, k)
            column = np.array(split[:, k].tolist(), dtype=complex)[:, 0]
            assert np.max(np.abs(first.evolve(state, 0.0).amplitudes - column)) <= 4e-15
            psi, _ = both.evolve_grid(state, PHASES)
            for p, phi in enumerate(PHASES):
                phased = mpmath.matrix([mpmath.expj(phi * float(g[i])) * split[i, k] for i in range(n + 1)])
                want = np.array((split * phased).tolist(), dtype=complex)[:, 0]
                assert np.max(np.abs(psi[:, p] - want)) <= 4e-15, (k, phi)


@pytest.mark.parametrize("convention", CONVENTIONS)
def test_twin_fock_fifty_probabilities_match_wigners_finite_sum(convention):
    """Twin Fock N = 50 leaves the interferometer as column m = 0 of d^50(+-phi), so its probabilities are
    d^50_{m'0}(phi)^2 in either convention; outcomes above 1e-12 agree to 2e-12 relative."""
    n = 100
    setup = build_setup(SchemeTag("dual-fock", n // 2), convention)
    probs, _ = setup.sampling.distribution_grid(setup.input_state, PHASES[:3])
    with mp.workdps(40):
        for p, phi in enumerate(PHASES[:3]):
            want = np.array([float(wigner_d(n, i, n // 2, phi) ** 2) for i in range(n + 1)])
            kept = want > 1e-12
            assert np.max(np.abs(probs[kept, p] / want[kept] - 1.0)) <= 2e-12, phi
            assert np.max(np.abs(probs[:, p] - want)) <= 1e-15


@pytest.mark.parametrize("twins", [1, 2, 5, 50])
def test_split_twin_fock_is_the_discrete_arcsine_law(twins):
    """The splitter sends |N,N> to i^N sqrt(C(2k,k) C(2N-2k,N-k) / 4^N) on n_b = 2k, and exactly 0 on every
    odd n_b."""
    psi = InterferometerPipeline(ONE_ARM, before=SPLITTER).evolve(dual_fock(twins), 0.0).amplitudes
    assert np.all(psi[1::2] == 0.0)
    want = [math.sqrt(Fraction(math.comb(2 * k, k) * math.comb(2 * twins - 2 * k, twins - k), 4**twins))
            for k in range(twins + 1)]
    assert np.max(np.abs(psi[::2] - 1j**twins * np.array(want))) <= 2e-15


@pytest.mark.parametrize("twins", [1000, 10**4])
def test_twin_fock_fisher_is_holland_burnett_at_large_n(twins):
    setup = build_setup(SchemeTag("dual-fock", twins))
    fisher = classical_fisher(setup.sampling, setup.input_state, [0.0005, 0.05, 1.2])
    assert np.max(np.abs(fisher / (2.0 * twins * (twins + 1)) - 1.0)) <= 1e-12
