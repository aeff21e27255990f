"""Spectral propagation, the series oracle, observables, and trajectory output."""

import dataclasses
import math
import tracemalloc

import numpy as np
import pytest

from blochqst.analytic import free_propagator_element, tilt_parameters
from blochqst.bessel import bessel_jn
from blochqst.chain import ChainSpec, LatticeState, build_free_hamiltonian, build_tilted_hamiltonian
from blochqst.evolution import (
    SpectralDecomposition,
    Trajectory,
    _product,
    eigendecompose,
    energy_expectation,
    evolve,
    evolve_oracle,
    mean_position,
    position_variance,
    probability_profile,
    propagate,
    trajectory,
    write_json,
    write_mean_position_csv,
    write_trajectory_csv,
)
from blochqst.polarization import PolarizationQubit, attach_polarization, evolve_polarized
from blochqst.transfer import (
    TruncatedGaussianSpec,
    gaussian_state,
    route,
    sharp_state,
    truncated_gaussian,
)
from test_chain import dense


def _sharp(chain: ChainSpec, site: int) -> LatticeState:
    amps = np.zeros(chain.n_sites, dtype=complex)
    amps[site - chain.left] = 1.0
    return LatticeState(amps, chain.left)


def test_eigendecompose_two_site_chain():
    chain = ChainSpec(coupling=1.0, force=0.0, left=0, right=1, target=0)
    decomp = eigendecompose(build_free_hamiltonian(chain))
    np.testing.assert_allclose(decomp.eigenvalues, [-0.25, 0.25], atol=1e-15)
    # symmetric/antisymmetric combinations
    np.testing.assert_allclose(np.abs(decomp.eigenvectors), 1 / math.sqrt(2), atol=1e-14)


def test_eigendecompose_open_chain_closed_form():
    # untilted open chain: eigenvalues -(coupling/2) cos(k pi / (c + 1))
    chain = ChainSpec(coupling=2.0, force=0.0, left=0, right=8, target=0)
    decomp = eigendecompose(build_free_hamiltonian(chain))
    c = chain.n_sites
    expected = np.sort(-1.0 * np.cos(np.arange(1, c + 1) * math.pi / (c + 1)))
    np.testing.assert_allclose(decomp.eigenvalues, expected, atol=1e-12)


def test_eigendecompose_strong_tilt_is_stark_ladder():
    # weak hopping against a strong tilt: spectrum collapses onto F*d*n
    chain = ChainSpec(coupling=0.01, force=1.0, left=-8, right=8, target=0)
    decomp = eigendecompose(build_tilted_hamiltonian(chain))
    np.testing.assert_allclose(decomp.eigenvalues, np.arange(-8, 9, dtype=float), atol=1e-4)


def test_eigendecompose_reconstructs_hamiltonian():
    chain = ChainSpec(coupling=1.3, force=0.02, left=-10, right=10, target=0)
    h = build_tilted_hamiltonian(chain)
    decomp = eigendecompose(h)
    v = decomp.eigenvectors
    np.testing.assert_allclose(v.T @ v, np.eye(chain.n_sites), atol=1e-10)
    np.testing.assert_allclose(v @ np.diag(decomp.eigenvalues) @ v.T, dense(h), atol=1e-10)


def test_eigendecompose_is_deterministic():
    chain = ChainSpec(coupling=1.0, force=-0.05, left=-12, right=12, target=0)
    h = build_tilted_hamiltonian(chain)
    np.testing.assert_array_equal(eigendecompose(h).eigenvectors, eigendecompose(h).eigenvectors)


@pytest.mark.parametrize("right", [30, 600])
def test_propagation_cannot_see_the_eigenvector_signs(right):
    # V diag(exp(-i E t)) V^T: a flipped column flips in both factors, and negation is exact
    chain = ChainSpec(coupling=1.0, force=-0.05, left=-10, right=right, target=20)
    h, flipped = build_tilted_hamiltonian(chain), build_tilted_hamiltonian(chain)
    rng = np.random.default_rng(7)
    signs = rng.choice([-1.0, 1.0], size=chain.n_sites)
    assert np.any(signs < 0) and np.any(signs > 0)
    spectrum = h.spectrum
    vars(flipped)["spectrum"] = SpectralDecomposition(
        spectrum.eigenvalues, spectrum.eigenvectors * signs
    )
    state = truncated_gaussian(TruncatedGaussianSpec(beta=0.05, delta=4), chain)
    payload = attach_polarization(state, PolarizationQubit(np.array([0.6, 0.8j])))
    batch = rng.normal(size=(chain.n_sites, 3)) + 1j * rng.normal(size=(chain.n_sites, 3))
    for amplitudes in (state.amplitudes, batch):
        np.testing.assert_array_equal(
            propagate(h, amplitudes, 17.25), propagate(flipped, amplitudes, 17.25)
        )
    times = np.linspace(0.0, 40.0, 21)
    ours, theirs = trajectory(state, h, times), trajectory(state, flipped, times)
    np.testing.assert_array_equal(ours.profiles, theirs.profiles)
    np.testing.assert_array_equal(ours.mean_positions, theirs.mean_positions)
    np.testing.assert_array_equal(
        evolve(payload, h, 31.5).amplitudes, evolve(payload, flipped, 31.5).amplitudes
    )
    np.testing.assert_array_equal(flipped.spectrum.eigenvectors, spectrum.eigenvectors * signs)


def test_evolve_identity_at_t_zero():
    chain = ChainSpec(coupling=1.0, force=0.0, left=-5, right=5, target=0)
    state = _sharp(chain, 0)
    out = evolve(state, build_free_hamiltonian(chain), 0.0)
    # V exp(0) V^T is the identity only up to eigensolver round-off
    np.testing.assert_allclose(out.amplitudes, state.amplitudes, atol=1e-12)
    assert out.site_offset == state.site_offset


def test_evolve_eigenvector_acquires_only_phase():
    chain = ChainSpec(coupling=1.0, force=-0.1, left=-6, right=6, target=0)
    h = build_tilted_hamiltonian(chain)
    decomp = eigendecompose(h)
    k = 4
    state = LatticeState(decomp.eigenvectors[:, k].astype(complex), chain.left)
    out = evolve(state, h, 3.7)
    expected = state.amplitudes * np.exp(-1j * decomp.eigenvalues[k] * 3.7)
    np.testing.assert_allclose(out.amplitudes, expected, atol=1e-12)


def test_evolve_preserves_norm():
    chain = ChainSpec(coupling=1.0, force=-0.025, left=-20, right=60, target=40)
    state = truncated_gaussian(TruncatedGaussianSpec(beta=0.01, delta=16), chain)
    h = build_tilted_hamiltonian(chain)
    for t in (0.1, 17.0, 40 * math.pi, 160 * math.pi):
        out = evolve(state, h, t)
        assert np.linalg.norm(out.amplitudes) == pytest.approx(1.0, abs=1e-12)


def test_evolve_rejects_bad_inputs():
    chain = ChainSpec(coupling=1.0, force=0.0, left=-5, right=5, target=0)
    other = ChainSpec(coupling=1.0, force=0.0, left=-3, right=3, target=0)
    state = _sharp(chain, 0)
    with pytest.raises(ValueError):
        evolve(state, build_free_hamiltonian(other), 1.0)
    with pytest.raises(ValueError):
        evolve(state, build_free_hamiltonian(chain), -1.0)


@pytest.mark.parametrize("t", [math.nan, math.inf, -math.inf, -1.0])
@pytest.mark.parametrize("evolve_by", [evolve, evolve_oracle])
def test_both_routes_refuse_a_time_that_is_not_finite_and_non_negative(evolve_by, t):
    chain = ChainSpec(coupling=1.0, force=-0.1, left=-5, right=5, target=0)
    h = build_tilted_hamiltonian(chain)
    # evolve runs check_times; the oracle keeps a check of its own
    word = "t" if evolve_by is evolve_oracle else "times"
    with pytest.raises(ValueError, match=f"^{word} must be finite and non-negative$"):
        evolve_by(_sharp(chain, 0), h, t)


def test_evolve_matches_free_propagator():
    chain = ChainSpec(coupling=1.0, force=0.0, left=-80, right=80, target=0)
    state = _sharp(chain, 0)
    out = evolve(state, build_free_hamiltonian(chain), 20.0)
    for n in range(-25, 26):
        expected = free_propagator_element(n, 0, 20.0, 1.0)
        assert out.amplitudes[n - chain.left] == pytest.approx(expected, abs=1e-8)


def test_oracle_identity_and_norm():
    chain = ChainSpec(coupling=1.0, force=-0.05, left=-30, right=30, target=0)
    h = build_tilted_hamiltonian(chain)
    state = _sharp(chain, 0)
    out0 = evolve_oracle(state, h, 0.0)
    np.testing.assert_allclose(out0.amplitudes, state.amplitudes, atol=1e-15)
    period = tilt_parameters(chain).bloch_period
    out = evolve_oracle(state, h, period)
    assert np.linalg.norm(out.amplitudes) == pytest.approx(1.0, abs=1e-12)


def test_oracle_norm_is_its_own_on_a_long_run():
    # the oracle does not renormalize, so its norm error shows here unhidden
    chain = ChainSpec(coupling=1.0, force=-0.025, left=-60, right=60, target=0)
    out = evolve_oracle(_sharp(chain, 0), build_tilted_hamiltonian(chain), 250.0)
    assert abs(np.linalg.norm(out.amplitudes) - 1.0) < 1e-13


def test_oracle_agrees_with_spectral_route():
    # independent scaled series vs eigenbasis exponential on random tilted chains
    rng = np.random.default_rng(20240307)
    for _ in range(5):
        half = int(rng.integers(16, 33))
        chain = ChainSpec(
            coupling=1.0,
            force=float(rng.choice([-1, 1]) / rng.integers(16, 65)),
            left=-half,
            right=half,
            target=0,
        )
        h = build_tilted_hamiltonian(chain)
        amps = rng.normal(size=chain.n_sites) + 1j * rng.normal(size=chain.n_sites)
        state = LatticeState(amps / np.linalg.norm(amps), chain.left)
        t = float(rng.uniform(0.0, 2.0)) * tilt_parameters(chain).bloch_period
        a = evolve(state, h, t)
        b = evolve_oracle(state, h, t)
        assert np.max(np.abs(a.amplitudes - b.amplitudes)) < 1e-9


def test_oracle_holds_the_spectral_route_to_1e_12():
    # the oracle's accuracy, whatever its step: 64-256 sites, |F| from 1/64 to
    # 1/16 and up to two Bloch periods, the slow and fast corners first, then
    # fixed random draws; the last case carries a two-column payload
    rng = np.random.default_rng(18)
    cases = [(256, -1.0 / 64.0, 2.0, ()), (256, 1.0 / 16.0, 2.0, ()), (64, -1.0 / 16.0, 2.0, ())]
    for columns in ((), (), (), (2,)):
        force = float(rng.choice([-1.0, 1.0])) / float(rng.integers(16, 65))
        cases.append((int(rng.integers(64, 257)), force, float(rng.uniform(0.0, 2.0)), columns))
    for n_sites, force, periods, columns in cases:
        left = -(n_sites // 2)
        chain = ChainSpec(coupling=1.0, force=force, left=left, right=left + n_sites - 1, target=0)
        h = build_tilted_hamiltonian(chain)
        raw = rng.normal(size=(n_sites, *columns)) + 1j * rng.normal(size=(n_sites, *columns))
        state = LatticeState(raw / np.linalg.norm(raw), left)
        t = periods * tilt_parameters(chain).bloch_period
        gap = np.max(np.abs(evolve(state, h, t).amplitudes - evolve_oracle(state, h, t).amplitudes))
        assert gap < 1e-12, (n_sites, force, periods, columns)


def test_oracle_refuses_a_segment_that_does_not_converge(monkeypatch):
    import blochqst.evolution as evolution

    monkeypatch.setattr(evolution, "_ORACLE_MAX_TERMS", 3)
    chain = ChainSpec(coupling=1.0, force=-0.05, left=-30, right=30, target=0)
    with pytest.raises(ArithmeticError, match="^Taylor segment did not converge in 3 terms$"):
        evolve_oracle(_sharp(chain, 0), build_tilted_hamiltonian(chain), 1.0)


def test_energy_is_conserved():
    chain = ChainSpec(coupling=1.0, force=-0.025, left=-20, right=60, target=40)
    h = build_tilted_hamiltonian(chain)
    state = truncated_gaussian(TruncatedGaussianSpec(beta=0.01, delta=10), chain)
    e0 = energy_expectation(state, h)
    for t in (1.0, 30.0, 40 * math.pi):
        assert energy_expectation(evolve(state, h, t), h) == pytest.approx(e0, abs=1e-10)


def test_probability_profile_and_moments():
    chain = ChainSpec(coupling=1.0, force=0.0, left=-2, right=2, target=0)
    amps = np.zeros(5, dtype=complex)
    amps[1] = amps[3] = 1 / math.sqrt(2)  # sites -1 and +1
    state = LatticeState(amps, chain.left)
    profile = probability_profile(state)
    np.testing.assert_allclose(profile, [0, 0.5, 0, 0.5, 0], atol=1e-15)
    assert mean_position(state) == pytest.approx(0.0, abs=1e-15)
    assert position_variance(state) == pytest.approx(1.0, abs=1e-14)


def test_trajectory_matches_pointwise_evolution():
    chain = ChainSpec(coupling=1.0, force=-0.05, left=-15, right=25, target=10)
    h = build_tilted_hamiltonian(chain)
    state = truncated_gaussian(TruncatedGaussianSpec(beta=0.05, delta=4), chain)
    times = np.linspace(0.0, 30.0, 7)
    traj = trajectory(state, h, times)
    assert traj.profiles.shape == (7, chain.n_sites)
    np.testing.assert_array_equal(traj.sites, chain.sites)
    for i, t in enumerate(times):
        out = evolve(state, h, float(t))
        np.testing.assert_allclose(traj.profiles[i], probability_profile(out), atol=1e-12)
        assert traj.mean_positions[i] == pytest.approx(mean_position(out), abs=1e-12)


def test_trajectory_input_guards():
    chain = ChainSpec(coupling=1.0, force=0.0, left=-5, right=5, target=0)
    h = build_free_hamiltonian(chain)
    state = _sharp(chain, 0)
    traj = trajectory(state, h, np.array([2.5]))
    assert traj.times.shape == (1,)
    with pytest.raises(ValueError):
        trajectory(state, h, np.array([], dtype=float))
    with pytest.raises(ValueError):
        trajectory(state, h, np.array([0.0, 2.0, 1.0]))
    with pytest.raises(ValueError):
        trajectory(state, h, np.array([-1.0, 0.0]))
    with pytest.raises(ValueError):
        trajectory(state, h, np.zeros((2, 2)))


def test_free_wavepacket_spreads_monotonically():
    chain = ChainSpec(coupling=1.0, force=0.0, left=-60, right=60, target=0)
    h = build_free_hamiltonian(chain)
    state = gaussian_state(TruncatedGaussianSpec(beta=0.1, delta=5), chain)
    variances = [
        position_variance(evolve(state, h, t)) for t in np.linspace(0.0, 40.0, 9)
    ]
    assert all(b > a for a, b in zip(variances, variances[1:]))


def test_tilted_sharp_state_stays_confined():
    # amplitude 2|gamma| = 40 plus the evanescent edge: nothing past +/-44
    chain = ChainSpec(coupling=1.0, force=-0.025, left=-60, right=60, target=0)
    h = build_tilted_hamiltonian(chain)
    state = sharp_state(ChainSpec(coupling=1.0, force=-0.025, left=-60, right=60, target=0))
    period = tilt_parameters(chain).bloch_period
    worst = 0.0
    for t in np.linspace(0.0, period, 33):
        profile = probability_profile(evolve(state, h, float(t)))
        outside = np.abs(chain.sites) > 44
        worst = max(worst, float(profile[outside].sum()))
    assert worst < 1e-3


def test_tilted_sharp_state_breathing_envelope():
    # |c_n(t)| = |J_n(2 gamma sin(omega_B t / 2))| for a sharp start
    chain = ChainSpec(coupling=1.0, force=-0.025, left=-80, right=80, target=0)
    h = build_tilted_hamiltonian(chain)
    state = sharp_state(chain)
    tilt = tilt_parameters(chain)
    t = tilt.bloch_period / 4
    out = evolve(state, h, t)
    argument = abs(2 * tilt.gamma * math.sin(tilt.bloch_frequency * t / 2))
    for n in range(-35, 36):
        expected = abs(bessel_jn(n, argument))
        assert abs(out.amplitudes[n - chain.left]) == pytest.approx(expected, abs=1e-10)


def test_tilted_packet_revives_after_full_period():
    chain = ChainSpec(coupling=1.0, force=-0.025, left=-40, right=80, target=40)
    h = build_tilted_hamiltonian(chain)
    state = truncated_gaussian(TruncatedGaussianSpec(beta=0.01, delta=10), chain)
    period = tilt_parameters(chain).bloch_period
    out = evolve(state, h, period)
    fidelity = abs(np.vdot(state.amplitudes, out.amplitudes)) ** 2
    # delta=10 cuts the envelope at e^-1; its quasimomentum ringing can swing
    # up to 4|gamma| sites and grazes the boundary, costing ~2e-3 of fidelity
    assert fidelity > 0.995


def test_trajectory_csv_writers_are_deterministic(tmp_path):
    chain = ChainSpec(coupling=1.0, force=-0.1, left=-8, right=8, target=0)
    h = build_tilted_hamiltonian(chain)
    state = _sharp(chain, 0)
    traj = trajectory(state, h, np.linspace(0.0, 5.0, 4))

    p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
    write_trajectory_csv(traj, p1)
    write_trajectory_csv(traj, p2)
    assert p1.read_bytes() == p2.read_bytes()
    lines = p1.read_text().splitlines()
    assert lines[0] == "t,n,P"
    assert len(lines) == 1 + 4 * chain.n_sites

    m1, m2 = tmp_path / "m1.csv", tmp_path / "m2.csv"
    write_mean_position_csv(traj, m1)
    write_mean_position_csv(traj, m2)
    assert m1.read_bytes() == m2.read_bytes()
    mlines = m1.read_text().splitlines()
    assert mlines[0] == "t,mean_position"
    assert len(mlines) == 5


def _lines(path) -> list[str]:
    """The file's lines, after checking that every one ends in a bare newline."""
    text = path.read_bytes().decode()
    assert text.endswith("\n") and "\r" not in text
    return text.splitlines()


def test_trajectory_csv_files_follow_the_per_cell_rule(tmp_path):
    # signed zero, the smallest subnormal, a tiny normal, one, NaN and negative sites
    traj = Trajectory(
        times=np.array([0.0, 1e-300, 0.1]),
        sites=np.array([-2, -1, 0]),
        profiles=np.array(
            [[-0.0, 5e-324, 1.0], [1e-300, 0.1, 2.0 / 3.0], [math.nan, 1.0, -0.0]]
        ),
        mean_positions=np.array([-0.0, 5e-324, -1.0 / 3.0]),
    )
    write_trajectory_csv(traj, tmp_path / "t.csv")
    rows = zip(traj.times.tolist(), traj.profiles.tolist())
    cells = [(t, n, p) for t, row in rows for n, p in zip(traj.sites.tolist(), row)]
    expected = [f"{t:.17g},{n},{p:.17g}" for t, n, p in cells]
    assert _lines(tmp_path / "t.csv") == ["t,n,P"] + expected

    write_mean_position_csv(traj, tmp_path / "m.csv")
    means = zip(traj.times.tolist(), traj.mean_positions.tolist())
    expected = [f"{t:.17g},{m:.17g}" for t, m in means]
    assert _lines(tmp_path / "m.csv") == ["t,mean_position"] + expected


def test_trajectory_csv_round_trips_at_full_precision(tmp_path):
    chain = ChainSpec(coupling=1.0, force=-0.025, left=-10, right=10, target=0)
    h = build_tilted_hamiltonian(chain)
    state = _sharp(chain, 0)
    traj = trajectory(state, h, np.array([0.0, math.pi, 11.7]))
    path = tmp_path / "traj.csv"
    write_trajectory_csv(traj, path)
    rows = [line.split(",") for line in path.read_text().splitlines()[1:]]
    values = np.array([float(r[2]) for r in rows]).reshape(3, chain.n_sites)
    np.testing.assert_array_equal(values, traj.profiles)  # 17 significant digits
    times = np.array([float(r[0]) for r in rows]).reshape(3, chain.n_sites)
    np.testing.assert_array_equal(times[:, 0], traj.times)


def test_trajectory_record_is_frozen():
    chain = ChainSpec(coupling=1.0, force=0.0, left=-3, right=3, target=0)
    traj = trajectory(_sharp(chain, 0), build_free_hamiltonian(chain), np.array([0.0]))
    assert isinstance(traj, Trajectory)
    with pytest.raises(AttributeError):
        traj.times = np.array([1.0])


def test_write_json_refuses_nan_before_opening_the_file(tmp_path):
    path = tmp_path / "out.json"
    write_json({"b": [1.5, 2], "a": None}, path)
    assert path.read_text() == '{\n  "a": null,\n  "b": [\n    1.5,\n    2\n  ]\n}\n'
    bad = tmp_path / "bad.json"
    with pytest.raises(ValueError):
        write_json({"x": math.nan}, bad)
    assert not bad.exists()


# ------------------------------------------------------------------ propagator


def test_propagator_batch_matches_oracle_per_column_and_time():
    # k = 3 random states on one chain, 20 times: more than one time block
    rng = np.random.default_rng(11)
    chain = ChainSpec(coupling=1.0, force=-1.0 / 24.0, left=-30, right=30, target=0)
    h = build_tilted_hamiltonian(chain)
    raw = rng.normal(size=(chain.n_sites, 3)) + 1j * rng.normal(size=(chain.n_sites, 3))
    columns = raw / np.linalg.norm(raw, axis=0)
    states = [LatticeState(col, chain.left) for col in columns.T]
    times = np.sort(rng.uniform(0.0, tilt_parameters(chain).bloch_period, 20))
    trajectories = [trajectory(state, h, times) for state in states]
    for i, t in enumerate(times[::4]):
        batch = propagate(h, columns, float(t))
        assert batch.shape == columns.shape
        np.testing.assert_allclose(np.linalg.norm(batch, axis=0), 1.0, rtol=0, atol=1e-12)
        for j, state in enumerate(states):
            oracle = evolve_oracle(state, h, float(t)).amplitudes
            assert np.max(np.abs(batch[:, j] - oracle)) < 1e-9
            single = propagate(h, state.amplitudes, float(t))
            assert np.max(np.abs(single - oracle)) < 1e-9
            row = trajectories[j].profiles[4 * i]
            assert np.max(np.abs(row - np.abs(oracle) ** 2)) < 1e-9
    for traj in trajectories:
        np.testing.assert_allclose(traj.profiles.sum(axis=1), 1.0, rtol=0, atol=1e-12)


def test_propagator_diagonalizes_once(monkeypatch):
    import blochqst.evolution as evolution

    calls = []
    original = evolution.eigendecompose
    monkeypatch.setattr(evolution, "eigendecompose", lambda h: calls.append(h) or original(h))
    chain = ChainSpec(coupling=1.0, force=-0.05, left=-10, right=10, target=0)
    h = build_tilted_hamiltonian(chain)
    state = _sharp(chain, 0)
    trajectory(state, h, np.linspace(0.0, 10.0, 40))
    propagate(h, state.amplitudes, 3.0)
    assert len(calls) == 1


def test_propagator_rejects_bad_times_and_shapes():
    chain = ChainSpec(coupling=1.0, force=-0.05, left=-5, right=5, target=0)
    h = build_tilted_hamiltonian(chain)
    state = _sharp(chain, 0)
    for t in (-1.0, math.inf, math.nan):
        with pytest.raises(ValueError):
            propagate(h, state.amplitudes, t)
        with pytest.raises(ValueError):
            evolve(state, h, t)
        with pytest.raises(ValueError):
            trajectory(state, h, np.array([0.0, t]))
    with pytest.raises(ValueError):
        propagate(h, np.zeros(chain.n_sites + 1), 1.0)
    with pytest.raises(ValueError):
        propagate(h, np.zeros((chain.n_sites, 2, 2)), 1.0)


def _count_eigendecompositions(monkeypatch) -> list:
    import blochqst.evolution as evolution

    calls = []
    original = evolution.eigendecompose
    monkeypatch.setattr(evolution, "eigendecompose", lambda h: calls.append(h) or original(h))
    return calls


def _payload_chain():
    chain = ChainSpec(coupling=1.0, force=-0.05, left=-10, right=30, target=20)
    state = truncated_gaussian(TruncatedGaussianSpec(beta=0.05, delta=4), chain)
    qubit = PolarizationQubit(np.array([0.6, 0.8j]))
    return build_tilted_hamiltonian(chain), state, attach_polarization(state, qubit)


def test_a_hamiltonian_is_diagonalized_once_for_every_propagation(monkeypatch):
    calls = _count_eigendecompositions(monkeypatch)
    h, state, payload = _payload_chain()
    evolve(state, h, 3.0)
    trajectory(state, h, np.linspace(0.0, 20.0, 9))
    evolve_polarized(payload, h, 7.5)
    evolve(state, h, 12.0)
    assert len(calls) == 1
    assert h.spectrum is h.spectrum


def test_a_refused_propagation_never_diagonalizes(monkeypatch):
    calls = _count_eigendecompositions(monkeypatch)
    h, state, payload = _payload_chain()
    small = LatticeState(np.full(7, 1 / math.sqrt(7)), 0)
    small_payload = attach_polarization(small, PolarizationQubit(np.array([0.6, 0.8j])))
    size = "state and Hamiltonian dimensions differ"
    refusals = [
        (propagate, (h, np.zeros(h.dimension + 1), 1.0), size),
        (evolve, (small, h, 1.0), size),
        (trajectory, (small, h, [0.0, 1.0]), size),
        (evolve_polarized, (small_payload, h, 1.0), size),
    ]
    for t in (math.nan, math.inf, -1.0):
        time = "times must be finite and non-negative"
        refusals += [
            (propagate, (h, state.amplitudes, t), time),
            (evolve, (state, h, t), time),
            (trajectory, (state, h, [0.0, t]), time),
            (evolve_polarized, (payload, h, t), time),
        ]
    # finite times whose phases E t overflow: every |E| <= max|diagonal| + 2 max|off_diagonal|
    free = ChainSpec(coupling=4.0, force=0.0, left=-40, right=40, target=0)
    h_free, sharp = build_free_hamiltonian(free), _sharp(free, 0)
    overflow = r"time 1e\+308 too long: phases E \* t overflow on this Hamiltonian"
    refusals += [
        (propagate, (h, state.amplitudes, 1e308), overflow),
        (trajectory, (sharp, h_free, [0.0, 1e308]), overflow),
        (evolve, (sharp, h_free, 1e308), overflow),
        (evolve_polarized, (payload, h, 1e308), overflow),
        (route, (0.01, 2, [-1e199], [0.0, 1e200], 1e200), overflow.replace("308", "200")),
    ]
    for function, args, message in refusals:
        with pytest.raises(ValueError, match=f"^{message}$"):
            function(*args)
        assert calls == [], (function.__name__, args)


def test_each_hamiltonian_record_has_its_own_spectrum(monkeypatch):
    calls = _count_eigendecompositions(monkeypatch)
    chain = ChainSpec(coupling=1.0, force=-0.05, left=-10, right=10, target=0)
    state = _sharp(chain, 0)
    first, second = build_tilted_hamiltonian(chain), build_tilted_hamiltonian(chain)
    np.testing.assert_array_equal(first.diagonal, second.diagonal)
    evolve(state, first, 2.0)
    evolve(state, second, 2.0)
    assert len(calls) == 2
    copy = dataclasses.replace(first)
    evolve(state, copy, 2.0)
    evolve(state, first, 4.0)
    assert len(calls) == 3
    assert copy.spectrum is not first.spectrum


def test_cached_propagator_matches_a_fresh_one_bit_for_bit():
    h, state, payload = _payload_chain()
    times = np.linspace(0.0, 40.0, 21)
    cached = trajectory(state, h, times)
    fresh = trajectory(state, dataclasses.replace(h), times)
    np.testing.assert_array_equal(cached.profiles, fresh.profiles)
    np.testing.assert_array_equal(cached.mean_positions, fresh.mean_positions)
    np.testing.assert_array_equal(
        evolve(state, h, 17.25).amplitudes, propagate(dataclasses.replace(h), state.amplitudes, 17.25)
    )
    np.testing.assert_array_equal(
        evolve_polarized(payload, h, 17.25).amplitudes,
        propagate(dataclasses.replace(h), payload.amplitudes, 17.25),
    )



# (n, 2k) coefficient blocks for k = 1, 2, 4 and the (n, 32) block of 16 times;
# 601 sites is past OpenBLAS's threading threshold
@pytest.mark.parametrize("n", [11, 601])
@pytest.mark.parametrize("cols", [2, 4, 8, 32])
def test_spectral_products_agree_with_numpy(n, cols):
    rng = np.random.default_rng(n * cols)
    v, x = rng.standard_normal((n, n)), rng.standard_normal((n, cols))
    v.flags.writeable = False  # as a stored spectrum is
    for transpose, want in ((False, v @ x), (True, v.T @ x)):
        got = _product(v, x, transpose)
        assert got.shape == want.shape and got.flags.c_contiguous
        # other BLAS builds may round differently: no bitwise demand
        assert np.abs(got - want).max() <= 1e-13 * np.abs(want).max()


@pytest.mark.parametrize("transpose", [False, True])
def test_spectral_products_do_not_copy_the_eigenvectors(transpose):
    rng = np.random.default_rng(5)
    v, x = rng.standard_normal((601, 601)), rng.standard_normal((601, 32))
    v.flags.writeable = False
    _product(v, x, transpose)  # scipy's BLAS wrappers are imported outside the count
    tracemalloc.start()
    got = _product(v, x, transpose)
    peak = tracemalloc.get_traced_memory()[1]
    tracemalloc.stop()
    assert peak < got.nbytes + v.nbytes // 2
