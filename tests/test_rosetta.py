import math

import numpy as np
import pytest

from fockmzi.rosetta import (
    MAX_QUBITS,
    QubitRegister,
    cnot,
    collective_phase,
    expect_flip_product,
    flip_expectations,
    ghz_prepare,
    hadamard,
    zero_register,
)
from fockmzi.schemes import observable_noon_flip
from fockmzi.states import noon

from oracles import (
    expect_flip_sum,
    expectation,
    phase_gate,
    register_collective_phase,
    register_flip_product,
    register_norm,
)


def register_from_bits(bits):
    n = len(bits)
    amps = np.zeros(2**n, dtype=complex)
    amps[int("".join(map(str, bits)), 2)] = 1.0
    return QubitRegister(n, amps)


def random_register(rng, n):
    amps = rng.standard_normal(2**n) + 1j * rng.standard_normal(2**n)
    return QubitRegister(n, amps / np.linalg.norm(amps))


def test_hadamard_on_zero():
    reg = hadamard(zero_register(1), 0)
    r = 1 / math.sqrt(2)
    assert np.allclose(reg.amplitudes, [r, r], atol=1e-15)


def test_hadamard_phase_hadamard_fringes():
    for phi in (0.3, 1.7, 2.9):
        reg = hadamard(phase_gate(hadamard(zero_register(1), 0), 0, phi), 0)
        probs = np.abs(reg.amplitudes) ** 2
        assert probs[0] == pytest.approx((1 + math.cos(phi)) / 2, abs=1e-12)
        assert probs[1] == pytest.approx((1 - math.cos(phi)) / 2, abs=1e-12)


def test_cnot_flips_target_when_control_set():
    reg = cnot(register_from_bits([1, 0]), 0, 1)
    assert np.allclose(reg.amplitudes, register_from_bits([1, 1]).amplitudes, atol=0)
    reg = cnot(register_from_bits([0, 0]), 0, 1)
    assert np.allclose(reg.amplitudes, register_from_bits([0, 0]).amplitudes, atol=0)


def test_gate_index_validation():
    reg = zero_register(2)
    with pytest.raises(ValueError):
        hadamard(reg, 2)
    with pytest.raises(ValueError):
        cnot(reg, 0, 0)


def test_ghz_single_qubit():
    reg = ghz_prepare(1)
    r = 1 / math.sqrt(2)
    assert np.allclose(reg.amplitudes, [r, r], atol=1e-15)


def test_ghz_three_qubits():
    reg = ghz_prepare(3)
    r = 1 / math.sqrt(2)
    assert abs(reg.amplitudes[0] - r) < 1e-12
    assert abs(reg.amplitudes[7] - r) < 1e-12
    assert np.count_nonzero(np.abs(reg.amplitudes) > 1e-14) == 2


def test_ghz_at_qubit_cap():
    reg = ghz_prepare(14)
    assert abs(register_norm(reg) - 1.0) < 1e-12
    assert np.count_nonzero(np.abs(reg.amplitudes) > 1e-14) == 2


def test_register_cap_enforced():
    with pytest.raises(ValueError):
        zero_register(MAX_QUBITS + 1)


def ghz_rows(n, phis):
    """One row of GHZ amplitudes per phase, ready for collective_phase."""
    return np.tile(ghz_prepare(n).amplitudes, (len(phis), 1))


def test_ghz_flip_product_oscillates_n_fold():
    grid = np.linspace(0.0, 2 * math.pi, 17)
    for n in (1, 2, 5, 9):
        values = expect_flip_product(collective_phase(ghz_rows(n, grid), grid))
        assert np.max(np.abs(values - np.cos(n * grid))) < 1e-12


def test_ghz_flip_product_at_zero_phase():
    assert expect_flip_product(ghz_rows(6, [0.0]))[0] == pytest.approx(1.0, abs=1e-12)


def test_product_state_flip_sum_is_n_cos():
    n, phi = 7, 0.63
    reg = zero_register(n)
    for k in range(n):
        reg = hadamard(reg, k)
    reg = register_collective_phase(reg, phi)
    assert expect_flip_sum(reg) == pytest.approx(n * math.cos(phi), abs=1e-12)


def test_random_circuits_preserve_norm():
    rng = np.random.default_rng(31)
    reg = random_register(rng, 5)
    for _ in range(50):
        gate = rng.integers(0, 3)
        if gate == 0:
            reg = hadamard(reg, int(rng.integers(0, 5)))
        elif gate == 1:
            reg = phase_gate(reg, int(rng.integers(0, 5)), float(rng.uniform(0, 2 * math.pi)))
        else:
            c, t = rng.choice(5, size=2, replace=False)
            reg = cnot(reg, int(c), int(t))
    assert abs(register_norm(reg) - 1.0) < 1e-12


def test_phase_gate_multiplies_the_amplitudes_with_bit_k_set():
    rng = np.random.default_rng(5)
    for n in (1, 3, 6):
        reg = random_register(rng, n)
        idx = np.arange(2**n)
        for k in range(n):
            phi = float(rng.uniform(0, 2 * math.pi))
            factor = np.where(idx & (1 << (n - 1 - k)), np.exp(1j * phi), 1.0)
            assert np.array_equal(phase_gate(reg, k, phi).amplitudes, reg.amplitudes * factor)


def test_hadamard_and_cnot_are_involutions():
    rng = np.random.default_rng(37)
    for _ in range(10):
        reg = random_register(rng, 4)
        k = int(rng.integers(0, 4))
        twice = hadamard(hadamard(reg, k), k)
        assert np.max(np.abs(twice.amplitudes - reg.amplitudes)) < 1e-12
        c, t = rng.choice(4, size=2, replace=False)
        twice = cnot(cnot(reg, int(c), int(t)), int(c), int(t))
        assert np.max(np.abs(twice.amplitudes - reg.amplitudes)) < 1e-12


def test_flip_expectations_agree_across_sizes():
    grid = np.linspace(0.0, 2 * math.pi, 100)
    for n in range(1, 13):
        qubit_values, fock_values = flip_expectations(n, grid)
        assert np.max(np.abs(qubit_values - fock_values)) < 1e-12


def test_flip_expectations_agree_at_trivial_points():
    for n in (1, 4):
        qubit_values, fock_values = flip_expectations(n, [0.0])
        assert abs(qubit_values[0] - fock_values[0]) < 1e-14


def test_batched_flip_expectations_match_per_point_evaluation():
    grid = np.linspace(0.0, 2 * math.pi, 33)
    for n in range(1, 9):
        qubit_values, fock_values = flip_expectations(n, grid)
        assert qubit_values.shape == fock_values.shape == grid.shape
        for phi, q, f in zip(grid, qubit_values, fock_values):
            assert q == per_gate_flip_product(n, phi)
            assert abs(f - expectation(observable_noon_flip(n), noon(n, phi))) <= 1e-15


def per_gate_flip_product(n, phi):
    return register_flip_product(register_collective_phase(ghz_prepare(n), phi))


@pytest.mark.parametrize("n, grid", [(n, np.linspace(0.0, 2 * math.pi, 37)) for n in range(9, 15)]
                         + [(n, np.array([1.3])) for n in (1, 9, 14)])
def test_flip_expectations_across_row_blocks_match_the_per_gate_circuit(n, grid):
    qubit_values, _ = flip_expectations(n, grid)
    assert qubit_values.shape == grid.shape
    assert np.array_equal(qubit_values, [per_gate_flip_product(n, phi) for phi in grid])


def test_collective_phase_on_a_block_of_rows_phases_each_row_in_place():
    rng = np.random.default_rng(11)
    n, phis = 4, rng.uniform(0, 2 * math.pi, 5)
    regs = [random_register(rng, n) for _ in phis]
    block = np.array([reg.amplitudes for reg in regs])
    assert collective_phase(block, phis) is block
    for row, reg, phi in zip(block, regs, phis):
        assert np.array_equal(row, register_collective_phase(reg, phi).amplitudes)
    assert np.array_equal(expect_flip_product(block), [register_flip_product(QubitRegister(n, row)) for row in block])


def test_flip_product_is_the_all_bits_flipped_overlap():
    rng = np.random.default_rng(13)
    for n in (1, 5, 11):
        reg = random_register(rng, n)
        flipped = reg.amplitudes[np.arange(2**n) ^ (2**n - 1)]
        value = expect_flip_product(reg.amplitudes[None, :])
        assert value.shape == (1,)
        assert value[0] == pytest.approx(np.vdot(reg.amplitudes, flipped).real, abs=1e-15)


def test_collective_phase_rejects_blocks_it_cannot_phase_in_place():
    block = np.zeros((3, 8), dtype=complex)
    for bad, phis in [(block[:, ::2], np.zeros(3)), (block.real, np.zeros(3)), (block[:, :6], np.zeros(3)),
                      (block, np.zeros(2)), (block, 0.5), (np.zeros((3, 1), dtype=complex), np.zeros(3))]:
        with pytest.raises(ValueError):
            collective_phase(bad, phis)
    frozen = block.copy()
    frozen.setflags(write=False)
    with pytest.raises(ValueError):
        collective_phase(frozen, np.zeros(3))
