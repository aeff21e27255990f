"""Polarization payload: product states, decoupled evolution, qubit readout."""

import math

import numpy as np
import pytest

from blochqst.chain import ChainSpec, LatticeState, build_tilted_hamiltonian
from blochqst.evolution import (
    energy_expectation,
    evolve,
    mean_position,
    position_variance,
    probability_profile,
    trajectory,
)
from blochqst.polarization import (
    PolarizationQubit,
    attach_polarization,
    bloch_vector,
    evolve_polarized,
    extract_qubit,
)
from blochqst.transfer import (
    TruncatedGaussianSpec,
    gaussian_state,
    plan_transfer,
    run_transfer,
    truncated_gaussian,
)

_INV_SQRT2 = 1.0 / math.sqrt(2.0)


def _qubit(down, up) -> PolarizationQubit:
    vec = np.array([down, up], dtype=complex)
    return PolarizationQubit(vec / np.linalg.norm(vec))


def test_qubit_validation():
    PolarizationQubit(np.array([1.0, 0.0], dtype=complex))
    with pytest.raises(ValueError):
        PolarizationQubit(np.array([1.0, 1.0], dtype=complex))  # not normalized
    with pytest.raises(ValueError):
        PolarizationQubit(np.array([1.0, 0.0, 0.0], dtype=complex))


def test_qubit_json_round_trip():
    q = _qubit(0.6, 0.8j)
    pairs = q.to_json_pairs()
    assert pairs == [[0.6, 0.0], [0.0, 0.8]]
    back = PolarizationQubit.from_json_pairs(pairs)
    np.testing.assert_allclose(back.components, q.components, atol=1e-15)
    with pytest.raises(ValueError):
        PolarizationQubit.from_json_pairs([[1.0, 0.0]])


def test_attach_builds_product_state():
    chain = ChainSpec(coupling=1.0, force=-0.05, left=-10, right=10, target=0)
    packet = truncated_gaussian(TruncatedGaussianSpec(beta=0.1, delta=3, center=-5), chain)
    both = attach_polarization(packet, _qubit(1.0, 1.0))
    assert both.amplitudes.shape == (chain.n_sites, 2)
    np.testing.assert_allclose(
        both.amplitudes[:, 0], packet.amplitudes * _INV_SQRT2, atol=1e-15
    )
    np.testing.assert_allclose(probability_profile(both), np.abs(packet.amplitudes) ** 2, atol=1e-15)

    down_only = attach_polarization(packet, _qubit(1.0, 0.0))
    np.testing.assert_array_equal(down_only.amplitudes[:, 1], 0.0)


def test_polarized_state_validation():
    good = np.zeros((5, 2), dtype=complex)
    good[2, 0] = 1.0
    LatticeState(good, -2)
    with pytest.raises(ValueError):
        LatticeState(good * 0.5, -2)
    with pytest.raises(ValueError, match=r"shape \(n_sites, 2\)"):
        extract_qubit(LatticeState(np.ones(5, dtype=complex) / math.sqrt(5), -2), -2, 2)


def test_payload_operations_refuse_other_column_counts():
    chain = ChainSpec(coupling=1.0, force=-0.05, left=-2, right=2, target=0)
    three = LatticeState(np.full((5, 3), 1 / math.sqrt(15)), chain.left)
    with pytest.raises(ValueError, match=r"shape \(n_sites, 2\)"):
        extract_qubit(three, -2, 2)
    with pytest.raises(ValueError, match=r"shape \(n_sites, 2\)"):
        evolve_polarized(three, build_tilted_hamiltonian(chain), 1.0)


def test_payload_observables_equal_the_packets():
    # the qubit is normalized, so tracing it out leaves the packet's statistics
    chain = ChainSpec(coupling=1.0, force=-0.05, left=-12, right=12, target=0)
    h = build_tilted_hamiltonian(chain)
    packet = gaussian_state(TruncatedGaussianSpec(beta=0.1, delta=3, center=2), chain)
    payload = attach_polarization(packet, _qubit(0.6, 0.8j))
    assert mean_position(payload) == pytest.approx(mean_position(packet), rel=0, abs=1e-12)
    assert position_variance(payload) == pytest.approx(position_variance(packet), rel=0, abs=1e-12)
    assert energy_expectation(payload, h) == pytest.approx(
        energy_expectation(packet, h), rel=0, abs=1e-12
    )

def test_evolution_never_populates_an_empty_block():
    chain = ChainSpec(coupling=1.0, force=-0.05, left=-12, right=12, target=0)
    h = build_tilted_hamiltonian(chain)
    packet = gaussian_state(TruncatedGaussianSpec(beta=0.1, delta=3), chain)
    start = attach_polarization(packet, _qubit(1.0, 0.0))
    out = evolve_polarized(start, h, 17.3)
    np.testing.assert_array_equal(out.amplitudes[:, 1], 0.0)  # exactly zero


def test_evolution_keeps_either_empty_block_exactly_zero():
    chain = ChainSpec(coupling=1.0, force=-0.05, left=-12, right=12, target=0)
    h = build_tilted_hamiltonian(chain)
    packet = gaussian_state(TruncatedGaussianSpec(beta=0.1, delta=3), chain)
    for empty, qubit in ((0, _qubit(0.0, 1j)), (1, _qubit(-1.0, 0.0))):
        start = attach_polarization(packet, qubit)
        for t in (0.0, 4.2, 125.0):
            out = evolve_polarized(start, h, t)
            assert np.all(out.amplitudes[:, empty] == 0.0)
            scalar = qubit.components[1 - empty] * evolve(packet, h, t).amplitudes
            np.testing.assert_allclose(out.amplitudes[:, 1 - empty], scalar, rtol=0, atol=1e-12)


def test_polarized_trajectory_sums_the_blocks():
    # two different packets, one per block: each profile row is the sum of both
    chain = ChainSpec(coupling=1.0, force=-0.05, left=-15, right=25, target=10)
    h = build_tilted_hamiltonian(chain)
    a = gaussian_state(TruncatedGaussianSpec(beta=0.05, delta=4), chain)
    b = gaussian_state(TruncatedGaussianSpec(beta=0.2, delta=2, center=6), chain)
    state = LatticeState(
        np.column_stack([0.6 * a.amplitudes, 0.8j * b.amplitudes]), chain.left
    )
    times = np.linspace(0.0, 30.0, 19)
    traj = trajectory(state, h, times)
    expected = 0.36 * trajectory(a, h, times).profiles + 0.64 * trajectory(b, h, times).profiles
    np.testing.assert_allclose(traj.profiles, expected, rtol=0, atol=1e-12)
    np.testing.assert_allclose(traj.mean_positions, expected @ chain.sites, rtol=0, atol=1e-10)
    np.testing.assert_array_equal(traj.sites, chain.sites)


def test_polarized_marginal_matches_scalar_evolution():
    chain = ChainSpec(coupling=1.0, force=-0.05, left=-12, right=12, target=0)
    h = build_tilted_hamiltonian(chain)
    packet = gaussian_state(TruncatedGaussianSpec(beta=0.1, delta=3), chain)
    start = attach_polarization(packet, _qubit(0.6, 0.8j))
    out = evolve_polarized(start, h, 9.4)
    scalar = evolve(packet, h, 9.4)
    np.testing.assert_allclose(
        probability_profile(out), np.abs(scalar.amplitudes) ** 2, atol=1e-12
    )


def test_evolution_keeps_the_state_a_product():
    # the chain Hamiltonian ignores polarization, so no entanglement develops
    chain = ChainSpec(coupling=1.0, force=-0.05, left=-12, right=12, target=0)
    h = build_tilted_hamiltonian(chain)
    packet = gaussian_state(TruncatedGaussianSpec(beta=0.1, delta=3), chain)
    start = attach_polarization(packet, _qubit(0.6, 0.8j))
    out = evolve_polarized(start, h, 25.0)
    singular_values = np.linalg.svd(out.amplitudes, compute_uv=False)
    assert singular_values[1] < 1e-10


def test_evolution_commutes_with_attachment():
    chain = ChainSpec(coupling=1.0, force=-0.05, left=-12, right=12, target=0)
    h = build_tilted_hamiltonian(chain)
    packet = gaussian_state(TruncatedGaussianSpec(beta=0.1, delta=3), chain)
    q = _qubit(0.3, 0.4 - 0.5j)
    attach_then_evolve = evolve_polarized(attach_polarization(packet, q), h, 11.0)
    evolve_then_attach = attach_polarization(evolve(packet, h, 11.0), q)
    np.testing.assert_allclose(
        attach_then_evolve.amplitudes, evolve_then_attach.amplitudes, atol=1e-12
    )


def test_evolution_dimension_guard():
    chain = ChainSpec(coupling=1.0, force=-0.05, left=-12, right=12, target=0)
    small = ChainSpec(coupling=1.0, force=-0.05, left=-5, right=5, target=0)
    packet = gaussian_state(TruncatedGaussianSpec(beta=0.1, delta=3), chain)
    start = attach_polarization(packet, _qubit(1.0, 0.0))
    with pytest.raises(ValueError):
        evolve_polarized(start, build_tilted_hamiltonian(small), 1.0)


def test_extract_full_window_recovers_the_qubit():
    chain = ChainSpec(coupling=1.0, force=-0.05, left=-12, right=12, target=0)
    packet = gaussian_state(TruncatedGaussianSpec(beta=0.1, delta=3), chain)
    q = _qubit(0.6, 0.8j)
    state = attach_polarization(packet, q)
    read, capture = extract_qubit(state, chain.left, chain.right)
    assert capture == pytest.approx(1.0, abs=1e-12)
    fidelity = abs(np.vdot(q.components, read.components)) ** 2
    assert fidelity == pytest.approx(1.0, abs=1e-12)


def test_extract_after_transfer_window_capture_equals_spatial_success():
    plan = plan_transfer(40, 0.01, 16)
    final, success = run_transfer(plan)
    q = _qubit(0.6, 0.8j)
    carried = attach_polarization(final, q)
    read, capture = extract_qubit(carried, 40 - 16, 40 + 16)
    assert capture == pytest.approx(success, abs=1e-12)
    fidelity = abs(np.vdot(q.components, read.components)) ** 2
    assert fidelity == pytest.approx(1.0, abs=1e-12)


def test_extract_guards():
    chain = ChainSpec(coupling=1.0, force=-0.05, left=-10, right=10, target=0)
    packet = gaussian_state(TruncatedGaussianSpec(beta=0.1, delta=2), chain)
    state = attach_polarization(packet, _qubit(1.0, 0.0))
    with pytest.raises(ValueError):
        extract_qubit(state, 5, 3)
    with pytest.raises(ValueError):
        extract_qubit(state, -11, 0)
    with pytest.raises(ValueError):
        extract_qubit(state, 0, 11)
    with pytest.raises(ValueError):
        extract_qubit(state, 8, 10)  # packet never reaches these sites


def test_bloch_vector_cardinal_points():
    np.testing.assert_allclose(bloch_vector(_qubit(1.0, 0.0)), [0, 0, -1], atol=1e-15)
    np.testing.assert_allclose(bloch_vector(_qubit(0.0, 1.0)), [0, 0, 1], atol=1e-15)
    np.testing.assert_allclose(bloch_vector(_qubit(1.0, 1.0)), [1, 0, 0], atol=1e-15)
    np.testing.assert_allclose(bloch_vector(_qubit(1.0, 1.0j)), [0, -1, 0], atol=1e-15)


def test_bloch_vector_unit_length_and_antipodes():
    rng = np.random.default_rng(11)
    for _ in range(10):
        raw = rng.normal(size=2) + 1j * rng.normal(size=2)
        q = PolarizationQubit(raw / np.linalg.norm(raw))
        v = bloch_vector(q)
        assert np.linalg.norm(v) == pytest.approx(1.0, abs=1e-12)
        orthogonal = PolarizationQubit(
            np.array([-np.conj(q.components[1]), np.conj(q.components[0])])
        )
        np.testing.assert_allclose(bloch_vector(orthogonal), -v, atol=1e-12)


def test_bloch_vector_constant_during_transport():
    chain = ChainSpec(coupling=1.0, force=-0.1, left=-15, right=25, target=10)
    h = build_tilted_hamiltonian(chain)
    packet = gaussian_state(TruncatedGaussianSpec(beta=0.05, delta=3), chain)
    q = _qubit(0.3 + 0.2j, 0.7)
    reference = bloch_vector(q)
    state = attach_polarization(packet, q)
    for t in (2.0, 7.5, 10 * math.pi):
        evolved = evolve_polarized(state, h, t)
        read, _ = extract_qubit(evolved, chain.left, chain.right)
        np.testing.assert_allclose(bloch_vector(read), reference, atol=1e-12)
