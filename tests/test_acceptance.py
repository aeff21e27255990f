"""Headline acceptance checks, one per capability claim.

Run with `pytest tests/test_acceptance.py -s` to see one PASS/FAIL line per
criterion.  Where a criterion has an exact law of the infinite tilted chain
behind it, the printed detail shows the measured value next to its
closed-form reference:

* criterion 01: the arrival mean against <n>(0) - 2 gamma C, where
  C = Re sum conj(psi_n) psi_(n+1) is taken over the initial amplitudes;
* criterion 07: the probability outside a radius against the Bessel tail
  2 sum_(n > R) J_n(2 |gamma| sin(omega_B t / 2))^2 of a sharp start.
"""

import numpy as np
import pytest
from scipy.special import jv

from blochqst.analytic import free_propagator_element, half_period_profile, tilt_parameters
from blochqst.chain import (
    ChainSpec,
    LatticeState,
    align_global_phase,
    build_free_hamiltonian,
    build_tilted_hamiltonian,
)
from blochqst.evolution import (
    energy_expectation,
    evolve,
    evolve_oracle,
    mean_position,
    probability_profile,
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
    plan_route,
    plan_transfer,
    route,
    run_transfer,
    sharp_state,
    success_probability,
    sweep_beta_delta,
    truncated_gaussian,
    write_sweep_csv,
)

# success probabilities for the reference transfer, frozen from the
# series-integrator route before the spectral path existed
_ORACLE_SUCCESS_DELTA_5 = 0.8973984281427487
_ORACLE_SUCCESS_DELTA_16 = 0.9994259062979233


def _report(num: int, name: str, ok: bool, detail: str) -> None:
    print(f"acceptance {num:02d} {name}: {'PASS' if ok else 'FAIL'} ({detail})")


def _arrival_mean_law(psi0: LatticeState, displacement: float) -> float:
    """Exact first moment after half a Bloch period on the infinite chain.

    The tilt shifts every quasimomentum k uniformly, so over half a period a
    plane wave k moves displacement * cos k sites.  Averaged over the packet
    this gives <n>(T_B/2) = <n>(0) + displacement * C with
    C = Re sum conj(psi_n) psi_(n+1), read off the initial amplitudes alone.
    """
    amps = psi0.amplitudes
    start = float(np.sum(psi0.sites * np.abs(amps) ** 2))
    spread = float(np.real(np.vdot(amps[:-1], amps[1:])))
    return start + displacement * spread


def _arrival_mean(chain: ChainSpec, gauss: TruncatedGaussianSpec) -> tuple[float, float]:
    """(measured arrival mean from evolve, closed-form law) on one chain."""
    psi0 = truncated_gaussian(gauss, chain)
    tilt = tilt_parameters(chain)
    final = evolve(psi0, build_tilted_hamiltonian(chain), 0.5 * tilt.bloch_period)
    return mean_position(final), _arrival_mean_law(psi0, tilt.displacement)


def test_criterion_01_arrival_mean_position():
    gauss = plan_transfer(40, 0.01, 10).gauss
    # the plan's default 2 delta margins: zone-edge components, which swing
    # back up to p sites, reflect off the left edge and shift the mean
    chain = ChainSpec(coupling=1.0, force=-1.0 / 40.0, left=-20, right=60, target=40)
    measured, law = _arrival_mean(chain, gauss)
    # margins of p + 2 delta keep the whole swing on the chain: the law is exact
    wide = plan_transfer(40, 0.01, 10, margin=40 + 2 * 10).chain
    measured_wide, law_wide = _arrival_mean(wide, gauss)
    ok = abs(measured - law) <= 0.5 and abs(measured_wide - law_wide) < 1e-6
    _report(
        1,
        "arrival mean position",
        ok,
        f"mean {measured:.4f} vs law {law:.4f} +/- 0.5 on [{chain.left}, {chain.right}]; "
        f"mean {measured_wide:.10f} vs law {law_wide:.10f} +/- 1e-6 "
        f"on [{wide.left}, {wide.right}]",
    )
    assert abs(measured - law) <= 0.5, f"mean position {measured} outside law {law} +/- 0.5"
    assert abs(measured_wide - law_wide) < 1e-6, (
        f"mean position {measured_wide} off law {law_wide} by >= 1e-6 on the wide chain"
    )


def test_criterion_02_success_probability_bands():
    _, p5 = run_transfer(plan_transfer(40, 0.01, 5))
    _, p16 = run_transfer(plan_transfer(40, 0.01, 16))
    in_band = 0.85 <= p5 <= 0.95 and p16 >= 0.99
    pinned = (
        abs(p5 - _ORACLE_SUCCESS_DELTA_5) < 1e-10
        and abs(p16 - _ORACLE_SUCCESS_DELTA_16) < 1e-10
    )
    ok = in_band and pinned
    _report(
        2,
        "success probability bands",
        ok,
        f"delta=5: {p5:.10f} in [0.85, 0.95]; delta=16: {p16:.10f} >= 0.99",
    )
    assert ok


def test_criterion_03_arrival_profile_matches_displaced_envelope():
    plan = plan_transfer(40, 0.01, 16)
    psi0 = truncated_gaussian(plan.gauss, plan.chain)
    final = evolve(psi0, build_tilted_hamiltonian(plan.chain), plan.transfer_time)
    aligned = align_global_phase(final)

    model = align_global_phase(half_period_profile(plan.gauss, tilt_parameters(plan.chain)))
    model_full = np.zeros(plan.chain.n_sites, dtype=complex)
    lo = model.site_offset - plan.chain.left
    model_full[lo : lo + len(model.amplitudes)] = model.amplitudes

    error = float(np.max(np.abs(aligned.amplitudes - model_full)))
    ok = error < 0.02
    _report(3, "arrival profile matches displaced envelope", ok, f"max site error {error:.5f} < 0.02")
    assert ok


def test_criterion_04_free_propagator_cross_check():
    chain = ChainSpec(coupling=1.0, force=0.0, left=-100, right=100, target=0)
    state = sharp_state(chain)
    out = evolve(state, build_free_hamiltonian(chain), 20.0)
    reference = np.array(
        [free_propagator_element(n, 0, 20.0, 1.0) for n in chain.sites]
    )
    error = float(np.max(np.abs(out.amplitudes - reference)))
    ok = error < 1e-8
    _report(4, "free propagator cross-check", ok, f"max amplitude error {error:.2e} < 1e-8")
    assert ok


def test_criterion_05_dual_route_evolution_agreement():
    rng = np.random.default_rng(42)
    worst = 0.0
    for _ in range(20):
        n_sites = int(rng.integers(64, 257))
        left = -(n_sites // 2)
        right = left + n_sites - 1
        force = float(rng.choice([-1.0, 1.0])) / float(rng.integers(16, 65))
        chain = ChainSpec(coupling=1.0, force=force, left=left, right=right, target=0)
        h = build_tilted_hamiltonian(chain)
        raw = rng.normal(size=n_sites) + 1j * rng.normal(size=n_sites)
        state = LatticeState(raw / np.linalg.norm(raw), left)
        t = float(rng.uniform(0.0, 2.0)) * tilt_parameters(chain).bloch_period
        a = evolve(state, h, t)
        b = evolve_oracle(state, h, t)
        worst = max(worst, float(np.max(np.abs(a.amplitudes - b.amplitudes))))
    ok = worst < 1e-9
    _report(5, "dual-route evolution agreement", ok, f"worst amplitude diff {worst:.2e} < 1e-9")
    assert ok


def test_criterion_06_full_period_revival():
    plan = plan_transfer(40, 0.01, 16, margin=64)
    psi0 = truncated_gaussian(plan.gauss, plan.chain)
    period = tilt_parameters(plan.chain).bloch_period
    out = evolve(psi0, build_tilted_hamiltonian(plan.chain), period)
    fidelity = float(abs(np.vdot(psi0.amplitudes, out.amplitudes)) ** 2)
    ok = fidelity >= 0.999
    _report(6, "full-period revival", ok, f"fidelity {fidelity:.10f} >= 0.999")
    assert ok


def test_criterion_07_tilted_confinement_radius():
    chain = ChainSpec(coupling=1.0, force=-1.0 / 40.0, left=-60, right=60, target=0)
    h = build_tilted_hamiltonian(chain)
    state = sharp_state(chain)
    tilt = tilt_parameters(chain)
    times = np.linspace(0.0, tilt.bloch_period, 257)
    args = 2.0 * abs(tilt.gamma) * np.sin(0.5 * tilt.bloch_frequency * times)
    profiles = np.array([probability_profile(evolve(state, h, float(t))) for t in times])
    # J_n(x)^2 for n = 0 ... right + 200 at every sample, computed once
    squares = jv(np.arange(chain.right + 201)[:, None], args[None, :]) ** 2

    def leak(radius: int) -> np.ndarray:
        return profiles[:, np.abs(chain.sites) > radius].sum(axis=1)

    def bessel_tail(radius: int) -> np.ndarray:
        # on the infinite tilted chain |c_n(t)|^2 = J_n(x)^2 with
        # x = 2 |gamma| sin(omega_B t / 2), so the probability outside the
        # radius is 2 sum_(n > radius) J_n(x)^2.  The sum stops 200 orders
        # past the radius; for the x <= 2 |gamma| = 40 used here the orders
        # it leaves out are far below double precision.
        return 2.0 * np.sum(squares[radius + 1 : radius + 201], axis=0)

    # the turning-point tail at the stated +/-42 matches the closed form
    measured_42, exact_42 = leak(42), bessel_tail(42)
    tail_error = float(np.max(np.abs(measured_42 - exact_42)))
    # smallest radius on the chain whose exact tail stays below 1e-3 over the period
    radius = next(r for r in range(1, chain.right) if np.max(bessel_tail(r)) < 1e-3)
    inside = float(np.max(leak(radius)))
    beyond = float(np.max(leak(radius - 1)))
    ok = tail_error < 1e-9 and inside < 1e-3 < beyond
    _report(
        7,
        "tilted confinement radius",
        ok,
        f"max outside [-42, 42] {np.max(measured_42):.4e} vs Bessel tail "
        f"{np.max(exact_42):.4e} (worst diff {tail_error:.1e} < 1e-9); "
        f"radius {radius}: {inside:.3e} < 1e-3 < {beyond:.3e} outside "
        f"[-{radius - 1}, {radius - 1}]",
    )
    assert tail_error < 1e-9, f"leak outside [-42, 42] off the Bessel tail by {tail_error}"
    assert inside < 1e-3, f"probability {inside} outside [-{radius}, {radius}] exceeds 1e-3"
    assert beyond > 1e-3, (
        f"probability {beyond} outside [-{radius - 1}, {radius - 1}] is below 1e-3: "
        "the confinement radius is smaller than the closed form says"
    )


def test_criterion_08_force_selected_routing():
    forces = [-1.0 / 80.0, -1.0 / 60.0, -1.0 / 50.0, -1.0 / 40.0]
    result = route(plan_route(0.01, 10, forces=forces))
    details = []
    ok = True
    for leg, expected in zip(result.legs, (80, 60, 50, 40)):
        sites = leg.trajectory.sites
        lo = leg.target - 10 - sites[0]
        window_sites = sites[lo : lo + 21]
        window_probs = leg.output_profile[lo : lo + 21]
        centroid = float(np.sum(window_sites * window_probs) / np.sum(window_probs))
        details.append(f"{expected}: {centroid:.3f}")
        ok = ok and abs(centroid - expected) <= 1.0
    _report(8, "force-selected routing", ok, "window centroids " + "; ".join(details))
    assert ok


def test_criterion_09_polarization_payload_preservation():
    plan = plan_transfer(40, 0.01, 16)
    psi0 = truncated_gaussian(plan.gauss, plan.chain)
    h = build_tilted_hamiltonian(plan.chain)
    final_scalar = evolve(psi0, h, plan.transfer_time)
    spatial = success_probability(final_scalar, 40, 16)
    times = np.linspace(0.0, plan.transfer_time, 9)

    rng = np.random.default_rng(7)
    worst_drift = 0.0
    worst_fidelity_gap = 0.0
    worst_capture_gap = 0.0
    for _ in range(20):
        raw = rng.normal(size=2) + 1j * rng.normal(size=2)
        qubit = PolarizationQubit(raw / np.linalg.norm(raw))
        reference = bloch_vector(qubit)
        carried = attach_polarization(psi0, qubit)
        for t in times:
            evolved = evolve_polarized(carried, h, float(t))
            read_full, _ = extract_qubit(evolved, plan.chain.left, plan.chain.right)
            drift = float(np.max(np.abs(bloch_vector(read_full) - reference)))
            worst_drift = max(worst_drift, drift)
        arrived = evolve_polarized(carried, h, plan.transfer_time)
        read, capture = extract_qubit(arrived, 40 - 16, 40 + 16)
        fidelity = float(abs(np.vdot(qubit.components, read.components)) ** 2)
        worst_fidelity_gap = max(worst_fidelity_gap, abs(1.0 - fidelity))
        worst_capture_gap = max(worst_capture_gap, abs(capture - spatial))
    ok = worst_drift < 1e-12 and worst_fidelity_gap < 1e-12 and worst_capture_gap < 1e-12
    _report(
        9,
        "polarization payload preservation",
        ok,
        f"Bloch drift {worst_drift:.1e}, fidelity gap {worst_fidelity_gap:.1e}, "
        f"capture gap {worst_capture_gap:.1e}, all < 1e-12",
    )
    assert ok


def test_criterion_10_conservation_and_determinism(tmp_path):
    plan = plan_transfer(40, 0.01, 16)
    psi0 = truncated_gaussian(plan.gauss, plan.chain)
    h = build_tilted_hamiltonian(plan.chain)
    e0 = energy_expectation(psi0, h)

    norm_err = 0.0
    energy_err = 0.0
    final = psi0
    for t in (17.0, plan.transfer_time, tilt_parameters(plan.chain).bloch_period):
        final = evolve(psi0, h, t)
        norm_err = max(norm_err, abs(1.0 - float(np.linalg.norm(final.amplitudes))))
        energy_err = max(energy_err, abs(energy_expectation(final, h) - e0))

    windows = [success_probability(final, 40, w) for w in range(0, 21)]
    monotone = all(b >= a for a, b in zip(windows, windows[1:]))

    grid = dict(beta_grid=[0.005, 0.02], delta_grid=[3, 9], ratio=-40.0, p=40)
    a, b = tmp_path / "first.csv", tmp_path / "second.csv"
    write_sweep_csv(sweep_beta_delta(**grid), a)
    write_sweep_csv(sweep_beta_delta(**grid), b)
    identical = a.read_bytes() == b.read_bytes()

    ok = norm_err < 1e-12 and energy_err < 1e-10 and monotone and identical
    _report(
        10,
        "conservation and determinism",
        ok,
        f"norm err {norm_err:.1e} < 1e-12, energy err {energy_err:.1e} < 1e-10, "
        f"window sums monotone: {monotone}, sweep CSV bytes identical: {identical}",
    )
    assert ok
