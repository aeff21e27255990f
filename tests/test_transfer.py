"""Packet preparation, transfer planning/scoring, parameter sweeps, routing."""

import dataclasses
import json
import math
import re
import tracemalloc

import numpy as np
import pytest

from blochqst.analytic import tilt_parameters
from blochqst.chain import ChainSpec, LatticeState, build_tilted_hamiltonian
from blochqst.evolution import Trajectory, check_times, evolve
from blochqst.transfer import (
    RouteLeg,
    RouteResult,
    SweepResult,
    TransferPlan,
    TruncatedGaussianSpec,
    arrival_time,
    gaussian_state,
    plan_route,
    plan_transfer,
    plan_transfer_for_force,
    route,
    run_transfer,
    sharp_state,
    success_probability,
    sweep_beta_delta,
    truncated_gaussian,
    write_output_profile_csv,
    write_route_json,
    write_route_mean_csv,
    write_sweep_csv,
    write_sweep_json,
)


# ---------------------------------------------------------------- packet specs


@pytest.mark.parametrize("beta", [0.01, 0.1, 1.0])
@pytest.mark.parametrize("delta", [0, 3, 16])
def test_normalization_constant_against_direct_sum(beta, delta):
    spec = TruncatedGaussianSpec(beta=beta, delta=delta)
    total = math.fsum(
        math.exp(-2.0 * beta * n * n) for n in range(-delta, delta + 1)
    )
    assert spec.normalization == pytest.approx(1.0 / math.sqrt(total), rel=1e-14)


def test_normalization_of_point_support_is_unity():
    assert TruncatedGaussianSpec(beta=0.5, delta=0).normalization == pytest.approx(1.0)


def test_gaussian_spec_support_and_guards():
    spec = TruncatedGaussianSpec(beta=0.01, delta=4, center=7)
    assert (spec.support_lo, spec.support_hi) == (3, 11)
    with pytest.raises(ValueError):
        TruncatedGaussianSpec(beta=0.0, delta=4)
    with pytest.raises(ValueError):
        TruncatedGaussianSpec(beta=-1.0, delta=4)
    with pytest.raises(ValueError):
        TruncatedGaussianSpec(beta=0.01, delta=-1)


def test_gaussian_spec_refuses_a_beta_that_is_not_finite():
    # an infinite beta meets -inf * 0 at the centre: a NaN packet, not a refusal
    with pytest.raises(ValueError, match="^beta must be finite$"):
        TruncatedGaussianSpec(beta=math.inf, delta=4)
    for beta in (-math.inf, math.nan):
        with pytest.raises(ValueError, match="^beta must be positive$"):
            TruncatedGaussianSpec(beta=beta, delta=4)
    sweep = sweep_beta_delta([math.inf, 0.01], [5], ratio=-40.0, p=40)
    assert sweep.errors == ((0, 0, "beta must be finite"),)
    assert np.isfinite(sweep.success[1, 0])


def test_sharp_state_occupies_origin():
    chain = ChainSpec(coupling=1.0, force=-0.1, left=-3, right=5, target=2)
    state = sharp_state(chain)
    assert state.site_offset == -3
    expected = np.zeros(9)
    expected[3] = 1.0
    np.testing.assert_array_equal(state.amplitudes, expected)


def test_gaussian_state_window_and_norm():
    chain = ChainSpec(coupling=1.0, force=-0.025, left=-20, right=60, target=40)
    spec = TruncatedGaussianSpec(beta=0.01, delta=16)
    state = truncated_gaussian(spec, chain)
    nonzero = np.nonzero(state.amplitudes)[0]
    assert len(nonzero) == 33  # 2 delta + 1 sites
    assert chain.sites[nonzero[0]] == -16 and chain.sites[nonzero[-1]] == 16
    assert np.linalg.norm(state.amplitudes) == pytest.approx(1.0, abs=1e-14)
    peak = state.amplitudes[40 - chain.left + 0]
    assert peak.real == pytest.approx(0.0, abs=1e-300) or True  # target site empty
    assert abs(state.amplitudes[0 - chain.left]) == pytest.approx(
        spec.normalization, rel=1e-14
    )


@pytest.mark.parametrize("beta", [0.005, 0.05, 0.7])
@pytest.mark.parametrize("delta", [1, 6, 12])
def test_gaussian_state_norm_grid(beta, delta):
    chain = ChainSpec(coupling=1.0, force=-0.02, left=-30, right=70, target=50)
    state = truncated_gaussian(TruncatedGaussianSpec(beta=beta, delta=delta), chain)
    assert np.linalg.norm(state.amplitudes) == pytest.approx(1.0, abs=1e-14)


def test_gaussian_state_guards():
    chain = ChainSpec(coupling=1.0, force=-0.025, left=-10, right=50, target=40)
    with pytest.raises(ValueError):
        truncated_gaussian(TruncatedGaussianSpec(beta=0.01, delta=16), chain)
    with pytest.raises(ValueError):
        # target sits inside the initial support
        truncated_gaussian(TruncatedGaussianSpec(beta=0.01, delta=8, center=40), chain)
    # gaussian_state does no target bookkeeping, so the same spec is fine there
    state = gaussian_state(TruncatedGaussianSpec(beta=0.01, delta=8, center=40), chain)
    assert abs(state.amplitudes[40 - chain.left]) > 0


def test_point_gaussian_equals_sharp_state():
    chain = ChainSpec(coupling=1.0, force=-0.025, left=-5, right=45, target=40)
    a = truncated_gaussian(TruncatedGaussianSpec(beta=0.3, delta=0), chain)
    b = sharp_state(chain)
    np.testing.assert_array_equal(a.amplitudes, b.amplitudes)


# ----------------------------------------------------------- success scoring


def _state(amplitudes, offset) -> LatticeState:
    arr = np.asarray(amplitudes, dtype=complex)
    return LatticeState(arr / np.linalg.norm(arr), offset)


def test_success_probability_window_sum():
    state = _state([0.0, 0.6, 0.8, 0.0, 0.0], -2)  # sites -1, 0
    assert success_probability(state, 0, 1) == pytest.approx(1.0)
    assert success_probability(state, -1, 0) == pytest.approx(0.36)
    assert success_probability(state, 1, 1) == pytest.approx(0.64)
    assert success_probability(state, 2, 0) == 0.0


def test_success_probability_invariances():
    rng = np.random.default_rng(5)
    amps = rng.normal(size=11) + 1j * rng.normal(size=11)
    state = _state(amps, -5)
    base = success_probability(state, 2, 2)
    phased = _state(amps * np.exp(1j * 0.83), -5)
    assert success_probability(phased, 2, 2) == pytest.approx(base, abs=1e-15)
    shifted = _state(amps, 95)  # relabel every site by +100
    assert success_probability(shifted, 102, 2) == pytest.approx(base, abs=1e-15)


def test_success_probability_monotone_in_window():
    rng = np.random.default_rng(6)
    amps = rng.normal(size=21)
    state = _state(amps, -10)
    values = [success_probability(state, 0, w) for w in range(0, 11)]
    assert all(b >= a for a, b in zip(values, values[1:]))
    assert values[-1] == pytest.approx(1.0, abs=1e-14)


def test_scoring_windows_take_integral_labels():
    state = _state([0.0, 0.6, 0.8, 0.0, 0.0], -2)  # sites -1, 0
    for target, delta in [(0.0, 1), (np.int64(0), np.float64(1.0)), (-1.0, 0.0)]:
        assert success_probability(state, target, delta) == success_probability(
            state, int(target), int(delta)
        )
    with pytest.raises(ValueError, match="^target must be an integer$"):
        success_probability(state, 0.5, 1)
    with pytest.raises(ValueError, match="^delta must be an integer$"):
        success_probability(state, 0, 1.5)
    sweep = sweep_beta_delta([0.01], [3], ratio=-10.0, p=10.0)
    twin = sweep_beta_delta([0.01], [3], ratio=-10.0, p=10)
    assert sweep.errors == () and sweep.success[0, 0] == twin.success[0, 0]


def test_success_probability_window_must_fit():
    state = _state(np.ones(5), 0)  # sites 0..4
    with pytest.raises(ValueError):
        success_probability(state, 4, 2)
    with pytest.raises(ValueError):
        success_probability(state, 0, 1)
    with pytest.raises(ValueError):
        success_probability(state, 2, -1)


# ------------------------------------------------------------------- planning


def test_plan_transfer_reference_configuration():
    plan = plan_transfer(40, 0.01, 10)
    assert plan.chain.force == pytest.approx(-0.025)
    assert plan.chain.left == -20 and plan.chain.right == 60
    assert plan.chain.target == 40 and plan.chain.n_sites == 81
    assert plan.transfer_time == pytest.approx(40 * math.pi)
    assert tilt_parameters(plan.chain).gamma == pytest.approx(-20.0)
    assert plan.gauss.center == 0 and plan.gauss.delta == 10

    plan60 = plan_transfer(60, 0.01, 16)
    assert plan60.chain.force == pytest.approx(-1.0 / 60.0)
    assert plan60.transfer_time == pytest.approx(60 * math.pi)


def test_plan_transfer_margin_control():
    wide = plan_transfer(40, 0.01, 16, margin=64)
    assert wide.chain.left == -64 and wide.chain.right == 104
    tight = plan_transfer(12, 0.05, 0, margin=0)
    assert tight.chain.left == 0 and tight.chain.right == 12


def test_plan_transfer_guards():
    with pytest.raises(ValueError):
        plan_transfer(0, 0.01, 0)
    with pytest.raises(ValueError):
        plan_transfer(40, 0.01, -1)
    with pytest.raises(ValueError):
        plan_transfer(40, 0.01, 40)  # delta must stay below p
    with pytest.raises(ValueError):
        plan_transfer(40, 0.01, 10, margin=-1)
    with pytest.raises(ValueError):
        plan_transfer(40, 0.01, 10, margin=10)  # margin must exceed delta


@pytest.mark.parametrize("p", [40.5, 41.5, math.nan, math.inf])
def test_plan_transfer_refuses_a_site_that_is_not_an_integer(p):
    # the target is the rounded displacement: p = 40.5 would plan a transfer to site 40
    with pytest.raises(ValueError, match="^p must be a positive site index$"):
        plan_transfer(p, 0.01, 16)
    assert plan_transfer(40.0, 0.01, 16).chain.target == 40


@pytest.mark.parametrize(
    "kwargs,name", [({"delta": 16.5}, "delta"), ({"delta": 4, "center": 0.5}, "center")]
)
def test_gaussian_spec_refuses_a_width_or_centre_that_is_not_an_integer(kwargs, name):
    with pytest.raises(ValueError, match=f"^{name} must be an integer$"):
        TruncatedGaussianSpec(beta=0.01, **kwargs)


def test_plan_transfer_refuses_a_width_that_is_not_an_integer():
    # its 2 delta margins would put the chain on fractional labels, -33.0 ... 73.0
    with pytest.raises(ValueError, match="^delta must be an integer$"):
        plan_transfer(40, 0.01, 16.5)


def test_integral_float_labels_run_as_their_int_twins():
    spec = TruncatedGaussianSpec(0.01, 16.0, -2.0)
    assert (type(spec.delta), type(spec.center)) == (int, int)
    final, success = run_transfer(plan_transfer(40, 0.01, 16.0))
    twin, twin_success = run_transfer(plan_transfer(40, 0.01, 16))
    assert np.array_equal(final.amplitudes, twin.amplitudes)
    assert success == twin_success
    (leg,), (twin_leg,) = (route(plan_route(0.01, d, [-0.025])).legs for d in (16.0, 16))
    assert type(leg.plan.gauss.delta) is int
    assert np.array_equal(leg.trajectory.profiles, twin_leg.trajectory.profiles)
    assert leg.success == twin_leg.success
    sharp = sharp_state(ChainSpec(1.0, 0.0, -3.0, 3.0, 0))
    twin_sharp = sharp_state(ChainSpec(1.0, 0.0, -3, 3, 0))
    assert np.array_equal(sharp.amplitudes, twin_sharp.amplitudes)
    assert sharp.site_offset == twin_sharp.site_offset


def test_plan_for_force_keeps_the_exact_force():
    plan = plan_transfer_for_force(-0.0249, 0.01, 16)
    assert plan.chain.force == -0.0249
    assert plan.chain.target == 40  # round(1 / 0.0249) = round(40.16)
    assert plan.chain.left == -32 and plan.chain.right == 72
    assert plan.transfer_time == pytest.approx(math.pi / 0.0249)
    assert plan_transfer(40, 0.01, 16, margin=20) == plan_transfer_for_force(
        -1.0 / 40, 0.01, 16, margin=20
    )


def test_plan_for_force_guards():
    with pytest.raises(ValueError, match="too weak"):
        plan_transfer_for_force(0.0, 0.01, 2)
    # a positive force plans the mirror image of the negative one
    mirrored, plan = plan_transfer_for_force(0.1, 0.01, 2), plan_transfer_for_force(-0.1, 0.01, 2)
    assert (mirrored.chain.left, mirrored.chain.right, mirrored.chain.target) == (-14, 4, -10)
    assert run_transfer(mirrored)[1] == pytest.approx(run_transfer(plan)[1], abs=1e-12)
    with pytest.raises(ValueError, match="too strong"):
        plan_transfer_for_force(-3.0, 0.01, 0)
    with pytest.raises(ValueError, match="smaller than p"):
        plan_transfer_for_force(-0.1, 0.01, 10)


@pytest.mark.parametrize(
    "coupling,spacing,name",
    [(1.0, 0.0, "spacing"), (-1.0, 1.0, "coupling"), (0.0, 1.0, "coupling")],
)
def test_planners_refuse_a_bad_medium_before_deriving_the_tilt(coupling, spacing, name):
    for plan in (
        lambda: plan_transfer(40, 0.01, 16, coupling, spacing),
        lambda: plan_transfer_for_force(-0.025, 0.01, 16, coupling, spacing),
        lambda: plan_route(0.01, 2, [-0.1], coupling, spacing),
    ):
        with pytest.raises(ValueError, match=f"{name} must be positive"):
            plan()


@pytest.mark.parametrize("value", [math.inf, math.nan], ids=["inf", "nan"])
@pytest.mark.parametrize("name", ["coupling", "spacing"])
def test_planners_refuse_a_medium_that_is_not_finite(name, value):
    medium = {"coupling": 1.0, "spacing": 1.0, name: value}
    for plan in (
        lambda: plan_transfer(40, 0.01, 16, **medium),
        lambda: plan_transfer_for_force(-0.025, 0.01, 16, **medium),
        lambda: plan_route(0.01, 2, [-0.1], **medium),
    ):
        with pytest.raises(ValueError, match=f"^{name} must be positive and finite$"):
            plan()


@pytest.mark.parametrize("value", [math.inf, math.nan], ids=["inf", "nan"])
def test_sweep_records_a_medium_that_is_not_finite_as_failed_cells(value):
    result = sweep_beta_delta([0.01, 0.02], [1, 2], -40.0, 40, spacing=value)
    assert np.all(np.isnan(result.success))
    assert [(i, j) for i, j, _ in result.errors] == [(0, 0), (0, 1), (1, 0), (1, 1)]
    assert {message for _, _, message in result.errors} == {"spacing must be positive and finite"}


def test_route_target_is_the_rounded_displacement():
    # -1 / -0.016667 = 59.9988: rounding gives 60, truncation would give 59
    (plan,) = plan_route(0.01, 10, [-0.016667])
    assert plan.chain.force == -0.016667
    assert plan.chain.target == 60 and plan.chain.right == 80


def test_transfer_plan_consistency_checks():
    plan = plan_transfer(40, 0.01, 10)
    lopsided = ChainSpec(
        coupling=1.0, force=-0.025, left=-19, right=60, target=40
    )
    with pytest.raises(ValueError, match="symmetric"):
        dataclasses.replace(plan, chain=lopsided)
    untilted = ChainSpec(coupling=1.0, force=0.0, left=-20, right=60, target=40)
    with pytest.raises(ValueError, match="no tilt"):
        dataclasses.replace(plan, chain=untilted)
    # the tilt and the arrival time follow the chain; no stale copy can be kept
    plan60 = plan_transfer(60, 0.01, 10)
    moved = dataclasses.replace(plan, chain=plan60.chain)
    assert tilt_parameters(moved.chain) == tilt_parameters(plan60.chain)
    assert moved.transfer_time == plan60.transfer_time == pytest.approx(60 * math.pi)
    with pytest.raises(ValueError, match="margin must exceed"):
        dataclasses.replace(plan, gauss=TruncatedGaussianSpec(beta=0.01, delta=20))
    near = ChainSpec(coupling=1.0, force=-0.025, left=-11, right=16, target=5)
    with pytest.raises(ValueError, match="target lies inside"):
        dataclasses.replace(plan, chain=near)


def test_transfer_plan_refuses_a_packet_off_site_0():
    # the chain's target (40) and arrival time assume a start at site 0; this
    # packet would land near site 43 and be scored at 40
    chain = ChainSpec(1.0, -0.025, -32, 72, 40)
    with pytest.raises(ValueError, match="centred on site 0"):
        TransferPlan(TruncatedGaussianSpec(0.01, 16, center=3), chain)
    assert TransferPlan(TruncatedGaussianSpec(0.01, 16), chain) == plan_transfer(40, 0.01, 16)


# ------------------------------------------------------------------- transfer


def test_run_transfer_reference_success_values():
    final5, p5 = run_transfer(plan_transfer(40, 0.01, 5))
    assert abs(p5 - 0.8973984281427478) < 1e-10
    final16, p16 = run_transfer(plan_transfer(40, 0.01, 16))
    assert abs(p16 - 0.9994259062979244) < 1e-10
    assert np.linalg.norm(final16.amplitudes) == pytest.approx(1.0, abs=1e-12)


def test_run_transfer_state_scores_in_other_windows():
    plan = plan_transfer(40, 0.01, 5)
    final, base = run_transfer(plan)
    assert success_probability(final, 40, 5) == base
    assert success_probability(final, 40, 10) > base
    assert success_probability(final, 40, 0) < base


def test_run_transfer_probability_is_conserved():
    # a window spanning the whole chain catches everything
    plan = plan_transfer(10, 0.05, 2)  # chain [-4, 14], target 10
    final, _ = run_transfer(plan)
    assert success_probability(final, 5, 9) == pytest.approx(1.0, abs=1e-12)


def test_run_transfer_point_packet_arrives_poorly():
    # a single-site packet spreads over ~2 delta_max sites; little lands on p
    plan = plan_transfer(40, 0.01, 0, margin=20)
    final, success = run_transfer(plan)
    assert success == pytest.approx(0.0171036, rel=1e-3)
    windowed = success_probability(final, 40, 5)
    assert windowed == pytest.approx(0.18193, rel=1e-3)
    assert windowed < 0.2


def test_run_transfer_arrival_carries_alternating_phase():
    # adjacent occupied sites of the arrived packet differ in phase by pi
    plan = plan_transfer(40, 0.01, 16)
    final, _ = run_transfer(plan)
    amps = final.amplitudes
    heavy = np.abs(amps) > 0.1 * np.abs(amps).max()
    idx = np.nonzero(heavy)[0]
    for a, b in zip(idx, idx[1:]):
        if b == a + 1:
            step = np.angle(amps[b] / amps[a])
            assert abs(abs(step) - math.pi) < 0.05


def test_transfer_time_is_locally_optimal():
    plan = plan_transfer(40, 0.01, 10)
    psi0 = truncated_gaussian(plan.gauss, plan.chain)
    h = build_tilted_hamiltonian(plan.chain)
    times = np.linspace(0.9 * plan.transfer_time, 1.1 * plan.transfer_time, 21)
    scores = [
        success_probability(evolve(psi0, h, float(t)), plan.chain.target, plan.gauss.delta)
        for t in times
    ]
    assert int(np.argmax(scores)) == 10  # the half period sits mid-grid
    assert scores[10] > 0.98


def test_transferred_packet_keeps_its_shape():
    # arrival probability profile vs the displaced envelope, L1 distance
    plan = plan_transfer(40, 0.01, 16)
    final, _ = run_transfer(plan)
    sites = plan.chain.sites
    model = np.exp(-2 * plan.gauss.beta * (sites - 40.0) ** 2)
    model /= model.sum()
    distance = np.abs(np.abs(final.amplitudes) ** 2 - model).sum()
    assert distance < 0.05


# ---------------------------------------------------------------------- sweep


def test_sweep_single_cell_matches_run_transfer():
    sweep = sweep_beta_delta([0.01], [5], ratio=-40.0, p=40)
    _, direct = run_transfer(plan_transfer(40, 0.01, 5))
    assert sweep.success[0, 0] == pytest.approx(direct, abs=1e-12)
    assert sweep.errors == ()


def test_sweep_success_improves_with_delta():
    sweep = sweep_beta_delta([0.01], [4, 10, 16], ratio=-40.0, p=40)
    row = sweep.success[0]
    assert row[0] < row[1] < row[2]
    assert row[2] > 0.99
    assert np.all((row >= 0.0) & (row <= 1.0))


def test_sweep_narrow_packet_transfers_badly():
    sweep = sweep_beta_delta([0.1], [2], ratio=-40.0, p=40)
    assert sweep.success[0, 0] == pytest.approx(0.45671, rel=1e-3)
    assert sweep.success[0, 0] < 0.5


def test_sweep_cell_failures_become_nan():
    sweep = sweep_beta_delta([0.01], [5, 40], ratio=-40.0, p=40)
    assert np.isfinite(sweep.success[0, 0])
    assert math.isnan(sweep.success[0, 1])
    assert len(sweep.errors) == 1
    i, j, message = sweep.errors[0]
    assert (i, j) == (0, 1)
    # with delta = p the target falls inside the initial support
    assert "support" in message


def test_sweep_failed_setup_marks_exactly_its_cells():
    # delta = -1 fails the whole column (chain setup); beta = -0.01 fails one row
    sweep = sweep_beta_delta([0.01, -0.01, 0.02], [5, -1, 6], ratio=-40.0, p=40)
    failed = {(i, j) for i in range(3) for j in range(3) if i == 1 or j == 1}
    for i in range(3):
        for j in range(3):
            assert math.isnan(sweep.success[i, j]) == ((i, j) in failed)
    assert [e[:2] for e in sweep.errors] == sorted(failed)
    messages = {(i, j): message for i, j, message in sweep.errors}
    assert messages[(0, 1)] == messages[(1, 1)] == "delta must be non-negative"
    assert "beta" in messages[(1, 0)] and "beta" in messages[(1, 2)]
    _, direct = run_transfer(plan_transfer(40, 0.02, 6))
    assert sweep.success[2, 2] == pytest.approx(direct, abs=1e-12)


def test_sweep_columns_past_max_sites_become_failed_cells():
    from blochqst.chain import MAX_SITES

    # chains of p + 4 delta + 1 sites: 1 and 5 past the bound
    sweep = sweep_beta_delta([0.01, 0.02], [0, 1], ratio=-float(MAX_SITES), p=MAX_SITES)
    assert np.all(np.isnan(sweep.success))
    assert [e[:2] for e in sweep.errors] == [(0, 0), (0, 1), (1, 0), (1, 1)]
    assert all("MAX_SITES" in message for *_, message in sweep.errors)


def test_a_sweep_whose_p_is_not_its_target_fails_its_cells():
    # under ratio -40 the packet goes to site 40: scored at 25, it would overrun its chain
    sweep = sweep_beta_delta([0.01, 0.02], [5], ratio=-40.0, p=25)
    assert np.all(np.isnan(sweep.success))
    message = "ratio -40.0 moves the packet to site 40, not p = 25"
    assert list(sweep.errors) == [(0, 0, message), (1, 0, message)]


def test_a_tilt_not_finite_on_the_chain_fails_sweep_cells_and_route():
    # coupling / ratio overflows to an infinite force
    sweep = sweep_beta_delta([0.01, 0.02], [1, 2], ratio=1e-320, p=40)
    assert np.all(np.isnan(sweep.success))
    message = "tilt force * spacing * n must be finite on every site"
    assert list(sweep.errors) == [(i, j, message) for i in range(2) for j in range(2)]
    with pytest.raises(ValueError, match="must be finite on every site"):
        route(plan_route(0.01, 2, forces=[-1e308]))


def test_a_bloch_period_that_overflows_fails_sweep_cells_and_plans():
    # the target 40 is finite, but 2 pi / |force| is not: no arrival time exists
    sweep = sweep_beta_delta([0.01, 0.02], [5], ratio=-40.0, p=40, coupling=1e-310)
    assert np.all(np.isnan(sweep.success))
    message = "tilt too weak: the Bloch period is not finite"
    assert list(sweep.errors) == [(0, 0, message), (1, 0, message)]
    with pytest.raises(ValueError, match=f"^{message}$"):
        plan_transfer(40, 0.01, 16, coupling=1e-310)
    with pytest.raises(ValueError, match=f"^{message}$"):
        route(plan_route(0.01, 16, forces=[-2.5e-312], coupling=1e-310))


def test_sweep_does_not_swallow_unexpected_errors(monkeypatch):
    import blochqst.evolution as evolution

    def broken(h):
        raise RuntimeError("propagation failed")

    monkeypatch.setattr(evolution, "eigendecompose", broken)
    with pytest.raises(RuntimeError):
        sweep_beta_delta([0.01], [5], ratio=-40.0, p=40)


def test_sweep_refuses_a_fractional_delta_before_any_column_runs(monkeypatch):
    import blochqst.transfer as transfer

    columns = []
    monkeypatch.setattr(transfer, "_sweep_column", lambda *args: columns.append(args))
    with pytest.raises(ValueError, match="^delta 3.5 must be an integer$"):
        sweep_beta_delta([0.01], [3, 3.5], ratio=-10.0, p=10)
    assert columns == []
    monkeypatch.undo()
    # an integral float runs as its int twin
    sweep = sweep_beta_delta([0.01], [3.0], ratio=-10.0, p=10)
    twin = sweep_beta_delta([0.01], [3], ratio=-10.0, p=10)
    assert sweep.delta_grid.tolist() == [3] and sweep.success[0, 0] == twin.success[0, 0]


def test_sweep_takes_an_integral_p_as_an_int_and_refuses_a_fractional_one(tmp_path, monkeypatch):
    import blochqst.transfer as transfer

    sweep = sweep_beta_delta([0.01], [3], ratio=-10.0, p=10.0)
    twin = sweep_beta_delta([0.01], [3], ratio=-10.0, p=10)
    assert type(sweep.p) is int and sweep.p == 10 and sweep.success[0, 0] == twin.success[0, 0]
    write_sweep_json(sweep, tmp_path / "sweep.json")
    assert '"p": 10,' in (tmp_path / "sweep.json").read_text()
    # a positive ratio moves the packet left: its p is negative
    assert sweep_beta_delta([0.01], [3], ratio=10.0, p=-10.0).p == -10
    columns = []
    monkeypatch.setattr(transfer, "_sweep_column", lambda *args: columns.append(args))
    with pytest.raises(ValueError, match="^p must be an integer$"):
        sweep_beta_delta([0.01], [3], ratio=-10.0, p=10.5)
    assert columns == []


@pytest.mark.parametrize("delta", [1e30, 2**70, -(2**70), 10_002])
def test_sweep_refuses_a_delta_no_chain_holds_before_any_column_runs(delta, monkeypatch):
    import blochqst.transfer as transfer

    columns = []
    monkeypatch.setattr(transfer, "_sweep_column", lambda *args: columns.append(args))
    with pytest.raises(ValueError, match="no chain of 10001 sites holds it$"):
        sweep_beta_delta([0.01], [3, delta], ratio=-10.0, p=10)
    assert columns == []


def test_sweep_input_guards():
    with pytest.raises(ValueError):
        sweep_beta_delta([], [5], ratio=-40.0, p=40)
    with pytest.raises(ValueError):
        sweep_beta_delta([0.01], [], ratio=-40.0, p=40)
    with pytest.raises(ValueError):
        sweep_beta_delta([0.01], [5], ratio=0.0, p=40)


def _spy_propagate(monkeypatch, scale=1.0):
    """Record every (hamiltonian, amplitudes, t, arrived) the sweep propagates, arrivals scaled."""
    import blochqst.transfer as transfer

    calls, propagate = [], transfer.propagate

    def spy(h, amplitudes, t):
        arrived = propagate(h, amplitudes, t) * scale
        calls.append((h, amplitudes, t, arrived))
        return arrived

    monkeypatch.setattr(transfer, "propagate", spy)
    return calls


def test_sweep_packets_are_the_packet_rules_columns(monkeypatch):
    from blochqst.transfer import sweep_chain

    betas, deltas = [0.003, 0.01, 0.2, 1.5], [0, 2, 5]
    calls = _spy_propagate(monkeypatch)
    sweep_beta_delta(betas, deltas, ratio=-12.0, p=12)
    assert len(calls) == len(deltas)
    for (_, packets, _, _), delta in zip(calls, deltas):
        chain = sweep_chain(-12.0, 12, delta, 1.0, 1.0)
        assert packets.shape == (chain.n_sites, len(betas))
        for i, beta in enumerate(betas):
            spec = TruncatedGaussianSpec(beta=beta, delta=delta)
            assert np.array_equal(packets[:, i], truncated_gaussian(spec, chain).amplitudes)


def test_sweep_cells_are_the_single_packet_transfers(monkeypatch):
    betas, deltas = [0.002, 0.01, 0.05], [1, 4, 9]
    calls = _spy_propagate(monkeypatch)
    sweep = sweep_beta_delta(betas, deltas, ratio=-20.0, p=20)
    # the sweep's own calls: run_transfer below propagates through the same rule
    for j, (h, _, t, arrived) in enumerate(calls[: len(deltas)]):
        left = -2 * deltas[j]
        for i, beta in enumerate(betas):
            # one windowed sum per column gives the bits of scoring each arrived state alone
            state = LatticeState(arrived[:, i], left)
            assert sweep.success[i, j] == success_probability(state, 20, deltas[j])
            _, direct = run_transfer(plan_transfer(20, beta, deltas[j]))
            assert sweep.success[i, j] == pytest.approx(direct, abs=1e-12)


def test_a_sweep_refuses_an_arrived_column_off_unit_norm(monkeypatch):
    _spy_propagate(monkeypatch, scale=1.001)
    with pytest.raises(ValueError, match=r"^state norm .* deviates from 1 beyond 1e-12$"):
        sweep_beta_delta([0.01, 0.02], [3, 4], ratio=-10.0, p=10)


def test_a_sweep_fails_the_cells_of_a_packet_off_unit_norm(monkeypatch):
    import blochqst.transfer as transfer

    gaussians = transfer._gaussians
    monkeypatch.setattr(transfer, "_gaussians", lambda *args: gaussians(*args) * 1.001)
    sweep = sweep_beta_delta([0.01, -1.0], [3], ratio=-10.0, p=10)
    assert np.all(np.isnan(sweep.success))
    assert sweep.errors[0][:2] == (0, 0) and sweep.errors[1] == (1, 0, "beta must be positive")
    assert re.fullmatch(r"state norm .* deviates from 1 beyond 1e-12", sweep.errors[0][2])


_HUGE_TILTS = [  # the bound |F a| max|n| + coupling / 2 overflows: right end, then left end
    ChainSpec(1.7e308, -1.7e308, 0, 1, 1),
    ChainSpec(1.7e308, 1.7e308, -1, 0, -1),
]
# a weak tilt on a strong coupling: t (coupling / 2) crosses the float range near |F| = 1.49
_WEAK_TILTS = [ChainSpec(1.7e308, -f, -2, 3, 1) for f in np.linspace(1.4, 1.6, 41).tolist()]


@pytest.mark.parametrize("chain", _HUGE_TILTS + _WEAK_TILTS)
def test_an_arrival_time_is_refused_as_the_time_rule_refuses_it_on_the_chain(chain):
    # arrival_time reads the Hamiltonian's bound from the chain; check_times from its arrays
    t = 0.5 * tilt_parameters(chain).bloch_period
    try:
        check_times(build_tilted_hamiltonian(chain), [t])
    except ValueError as exc:
        with pytest.raises(ValueError, match=f"^{re.escape(str(exc))}$"):
            arrival_time(chain)
    else:
        assert arrival_time(chain) == t


def test_both_sides_of_the_time_rule_are_among_the_weak_tilts():
    refused = [chain for chain in _WEAK_TILTS if not _arrives(chain)]
    assert 0 < len(refused) < len(_WEAK_TILTS)
    assert not any(_arrives(chain) for chain in _HUGE_TILTS)


def _arrives(chain) -> bool:
    try:
        arrival_time(chain)
    except ValueError:
        return False
    return True


def test_a_sweep_records_phases_that_overflow_per_cell():
    # a half period of 1.8e-308 on a Hamiltonian whose |E| reaches 2.55e308: E t overflows
    sweep = sweep_beta_delta([0.01, 0.02], [0], ratio=-1.0, p=1, coupling=1.7e308)
    assert np.all(np.isnan(sweep.success))
    line = "time 1.8479956785822315e-308 too long: phases E * t overflow on this Hamiltonian"
    assert sweep.errors == ((0, 0, line), (1, 0, line))


def test_a_sweep_builds_each_columns_hamiltonian_once(monkeypatch):
    import blochqst.transfer as transfer

    built, original = [], transfer.build_tilted_hamiltonian

    def spy(chain):
        built.append(chain)
        return original(chain)

    monkeypatch.setattr(transfer, "build_tilted_hamiltonian", spy)
    sweep = sweep_beta_delta([0.01, 0.02], [2, 3, 4], ratio=-10.0, p=10)
    assert not sweep.errors
    assert [chain.left for chain in built] == [-4, -6, -8]


def test_a_sweep_builds_at_most_one_lattice_state_per_column(monkeypatch):
    built = []
    post_init = LatticeState.__post_init__
    monkeypatch.setattr(LatticeState, "__post_init__", lambda self: built.append(post_init(self)))
    sweep = sweep_beta_delta(np.linspace(0.001, 0.1, 20), range(1, 21), ratio=-40.0, p=40)
    assert not sweep.errors
    assert len(built) <= 20


# ---------------------------------------------------------------------- route


def test_route_reaches_force_selected_targets():
    result = route(plan_route(0.01, 6, forces=[-0.1, -0.05]))
    assert [leg.target for leg in result.legs] == [10, 20]
    for leg in result.legs:
        assert leg.trajectory.times[0] == 0.0
        assert leg.trajectory.times[-1] == pytest.approx(math.pi / abs(leg.force))
        assert leg.success > 0.9
        # the packet centre ends near the target
        assert leg.trajectory.mean_positions[-1] == pytest.approx(leg.target, abs=1.0)


def test_route_flipping_the_force_mirrors_the_leg():
    result = route(plan_route(0.01, 2, forces=[-0.1, 0.1]))
    fwd, back = result.legs
    assert fwd.target == 10 and back.target == -10
    np.testing.assert_allclose(
        back.output_profile[::-1], fwd.output_profile, atol=1e-12
    )
    back_means, fwd_means = back.trajectory.mean_positions, fwd.trajectory.mean_positions
    np.testing.assert_allclose(back_means, -fwd_means, atol=1e-10)
    assert back.success == pytest.approx(fwd.success, abs=1e-12)


def test_route_legs_hold_their_plans_and_trajectories():
    plans = plan_route(0.01, 2, [-0.1, 0.05])
    result = route(iter(plans), samples=9)  # any iterable of plans
    for plan, leg in zip(plans, result.legs, strict=True):
        assert leg.plan is plan and isinstance(leg.trajectory, Trajectory)
        assert (leg.force, leg.target) == (plan.chain.force, plan.chain.target)
        np.testing.assert_array_equal(leg.output_profile, leg.trajectory.profiles[-1])
        assert leg.trajectory.profiles.shape == (9, plan.chain.n_sites)


@pytest.mark.parametrize(
    "forces,lengths",
    [
        ([-0.0125, -0.016667, -0.02, -0.025], None),
        ([0.02, -0.02], None),
        ([-0.0125, -0.016667, -0.02, -0.025], np.linspace(0.0, 140.0, 129)),
    ],
    ids=["readme", "mirrored", "lengths"],
)
def test_every_route_leg_is_scored_by_the_arrival_rule(forces, lengths):
    # a leg's success is its arrived state's, not a sum over its trajectory's last profile
    result = route(plan_route(0.01, 10, forces), lengths)
    for leg in result.legs:
        psi0 = truncated_gaussian(leg.plan.gauss, leg.plan.chain)
        final = evolve(psi0, build_tilted_hamiltonian(leg.plan.chain), leg.trajectory.times[-1])
        assert leg.success == success_probability(final, leg.target, 10)


def test_a_route_holds_each_legs_arrays_once():
    # 12.9 MB of profiles in all, 4.0 MB the largest leg's: a second copy of a leg would show
    forces = [-0.0125, -0.016667, -0.02, -0.025]
    route(plan_route(0.01, 10, forces[:1]), samples=2)  # LAPACK and BLAS load outside the count
    tracemalloc.start()
    result = route(plan_route(0.01, 10, forces), samples=4097)
    peak = tracemalloc.get_traced_memory()[1]
    tracemalloc.stop()
    profiles = [leg.trajectory.profiles.nbytes for leg in result.legs]
    assert peak < sum(profiles) + 1.25 * max(profiles)


def test_route_shared_time_grid():
    grid = np.linspace(0.0, 12.0, 5)
    result = route(plan_route(0.01, 2, forces=[-0.1, -0.05]), lengths=grid)
    for leg in result.legs:
        np.testing.assert_array_equal(leg.trajectory.times, grid)
        assert leg.trajectory.profiles.shape == (5, leg.plan.chain.n_sites)


def test_plan_route_lays_out_each_leg():
    plans = plan_route(0.01, 2, [-0.1, 0.05])
    assert [(plan.chain.force, plan.chain.target) for plan in plans] == [(-0.1, 10), (0.05, -20)]
    chain = plans[1].chain
    assert (chain.left, chain.right, chain.target) == (-24, 4, -20)
    assert plans[1].margin == 4 and plans[1].gauss == TruncatedGaussianSpec(0.01, 2)


def test_route_input_guards():
    with pytest.raises(ValueError, match="^forces must be non-empty$"):
        plan_route(0.01, 2, forces=[])
    with pytest.raises(ValueError, match="too weak"):
        plan_route(0.01, 2, forces=[-0.1, 0.0])
    with pytest.raises(ValueError, match="^delta must be smaller than p$"):
        plan_route(0.01, 10, forces=[-0.5])  # the target, site 2, is inside the packet
    with pytest.raises(ValueError, match="too strong"):
        plan_route(0.01, 0, forces=[-3.0])
    with pytest.raises(ValueError, match="^samples must be at least 2$"):
        route(plan_route(0.01, 2, forces=[-0.1]), samples=1)


def test_route_refuses_legs_without_one_packet_and_medium_before_any_runs(monkeypatch):
    import blochqst.transfer as transfer

    runs = []
    monkeypatch.setattr(transfer, "trajectory", lambda *args: runs.append(args))
    (leg,) = plan_route(0.01, 2, [-0.1])
    others = {
        "beta": plan_route(0.02, 2, [-0.05]),
        "delta": plan_route(0.01, 3, [-0.05]),
        "coupling": plan_route(0.01, 2, [-0.05], coupling=2.0),
        "spacing": plan_route(0.01, 2, [-0.05], spacing=2.0),
    }
    message = "^plans must be non-empty and share one packet, coupling and spacing$"
    for name, (other,) in others.items():
        with pytest.raises(ValueError, match=message):
            route([leg, other])
    with pytest.raises(ValueError, match=message):
        route([])
    assert runs == []


# -------------------------------------------------------------------- writers


def test_sweep_csv_layout_and_round_trip(tmp_path):
    sweep = sweep_beta_delta([0.01, 0.03], [2, 5], ratio=-40.0, p=40)
    path = tmp_path / "sweep.csv"
    write_sweep_csv(sweep, path)
    lines = path.read_text().splitlines()
    assert lines[0] == "beta,delta,success_probability"
    assert len(lines) == 1 + 4
    beta, delta, value = lines[1].split(",")
    assert float(beta) == 0.01 and int(delta) == 2
    assert float(value) == sweep.success[0, 0]  # repr round-trips exactly

    again = tmp_path / "again.csv"
    write_sweep_csv(sweep, again)
    assert path.read_bytes() == again.read_bytes()


def _lines(path) -> list[str]:
    """The file's lines, after checking that every one ends in a bare newline."""
    text = path.read_bytes().decode()
    assert text.endswith("\n") and "\r" not in text
    return text.splitlines()


def test_sweep_csv_follows_the_per_cell_rule(tmp_path):
    # a failed cell (NaN), signed zero, the smallest subnormal, a tiny normal and one
    sweep = SweepResult(
        ratio=-40.0,
        p=40,
        coupling=1.0,
        spacing=1.0,
        beta_grid=np.array([1e-300, 0.1, 1.0]),
        delta_grid=np.array([0, 3]),
        success=np.array([[math.nan, -0.0], [5e-324, 1e-300], [1.0, 2.0 / 3.0]]),
        errors=((0, 0, "failed"),),
    )
    write_sweep_csv(sweep, tmp_path / "sweep.csv")
    rows = zip(sweep.beta_grid.tolist(), sweep.success.tolist())
    cells = [(b, d, v) for b, row in rows for d, v in zip(sweep.delta_grid.tolist(), row)]
    expected = [f"{beta!r},{delta},{v!r}" for beta, delta, v in cells]
    assert _lines(tmp_path / "sweep.csv") == ["beta,delta,success_probability"] + expected


def _leg(force, times, sites, final, means) -> RouteLeg:
    # a plan on a chain under this force, and arbitrary arrays in its trajectory
    plan = TransferPlan(TruncatedGaussianSpec(0.01, 1), ChainSpec(1.0, force, -2, 12, 10))
    profiles = np.vstack([np.full(len(sites), 1.0 / len(sites))] * (len(times) - 1) + [final])
    traj = Trajectory(times, sites, profiles, means, np.zeros(len(sites)))
    return RouteLeg(plan, traj, success=0.5)


def test_route_csv_files_follow_the_per_cell_rule(tmp_path):
    # two legs of different lengths and sites, so each block brings new labels
    result = RouteResult(
        legs=(
            _leg(-0.1, [0.0, 0.1, 1e-300], [-1, 0, 1], [-0.0, 5e-324, 1.0], [0.0, -0.0, 1e-300]),
            _leg(-1e-300, [0.0, 2.5], [-3, -2], [math.nan, 1e-300], [5e-324, 2.0 / 3.0]),
        ),
    )
    write_output_profile_csv(result, tmp_path / "profile.csv")
    cells = [
        (leg.force, n, p)
        for leg in result.legs
        for n, p in zip(leg.trajectory.sites.tolist(), leg.output_profile.tolist())
    ]
    expected = [f"{force!r},{n},{p!r}" for force, n, p in cells]
    assert _lines(tmp_path / "profile.csv") == ["force,n,P_out"] + expected

    write_route_mean_csv(result, tmp_path / "mean.csv")
    cells = [
        (leg.force, t, m)
        for leg in result.legs
        for t, m in zip(leg.trajectory.times.tolist(), leg.trajectory.mean_positions.tolist())
    ]
    expected = [f"{force!r},{t!r},{m!r}" for force, t, m in cells]
    assert _lines(tmp_path / "mean.csv") == ["force,L,mean_position"] + expected


def test_sweep_json_reports_failures_as_null(tmp_path):
    sweep = sweep_beta_delta([0.01], [5, 40], ratio=-40.0, p=40)
    path = tmp_path / "sweep.json"
    write_sweep_json(sweep, path)
    payload = json.loads(path.read_text())
    assert payload["ratio"] == -40.0
    assert payload["success_probability"][0][1] is None
    assert payload["errors"][0][:2] == [0, 1]


def test_route_csv_writers(tmp_path):
    result = route(plan_route(0.01, 2, forces=[-0.1, -0.05]), samples=5)
    out = tmp_path / "profile.csv"
    write_output_profile_csv(result, out)
    lines = out.read_text().splitlines()
    assert lines[0] == "force,n,P_out"
    expected_rows = sum(leg.plan.chain.n_sites for leg in result.legs)
    assert len(lines) == 1 + expected_rows
    force, n, value = lines[1].split(",")
    assert float(force) == -0.1 and int(n) == result.legs[0].plan.chain.left
    assert float(value) == result.legs[0].output_profile[0]

    mean = tmp_path / "mean.csv"
    write_route_mean_csv(result, mean)
    mlines = mean.read_text().splitlines()
    assert mlines[0] == "force,L,mean_position"
    assert len(mlines) == 1 + 2 * 5


def test_route_json_structure(tmp_path):
    result = route(plan_route(0.01, 1, forces=[-0.1], spacing=0.5), samples=3)
    path = tmp_path / "route.json"
    write_route_json(result, path)
    payload = json.loads(path.read_text())
    assert payload["beta"] == 0.01 and payload["delta"] == 1
    assert payload["coupling"] == 1.0 and payload["spacing"] == 0.5
    (leg,) = payload["legs"]
    assert leg["force"] == -0.1 and leg["target"] == 20  # 1 / (0.5 * 0.1) sites
    assert len(leg["times"]) == 3
    assert len(leg["output_profile"]) == len(leg["sites"])


def test_transfer_plan_is_frozen():
    plan = plan_transfer(10, 0.05, 2)
    with pytest.raises(dataclasses.FrozenInstanceError):
        plan.transfer_time = 1.0
