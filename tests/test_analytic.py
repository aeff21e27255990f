"""Closed-form layer: dispersion, propagator, tilt constants, ladder states."""

import math

import numpy as np
import pytest

from blochqst.analytic import (
    _I_POWER,
    TiltParameters,
    dispersion,
    free_propagator_element,
    group_velocity,
    half_period_profile,
    tilt_parameters,
    wannier_stark_state,
)
from blochqst.bessel import MAX_ORDER, bessel_jn
from blochqst.chain import ChainSpec
from blochqst.transfer import TruncatedGaussianSpec


def test_dispersion_band_values():
    assert dispersion(0.0, 1.0) == pytest.approx(-0.5)
    assert dispersion(math.pi, 1.0) == pytest.approx(0.5)
    assert dispersion(math.pi / 2, 1.0) == pytest.approx(0.0, abs=1e-15)
    # spacing rescales the zone: kappa*d is what matters
    assert dispersion(math.pi / 2, 1.0, spacing=2.0) == pytest.approx(0.5)


def test_dispersion_accepts_arrays_and_rejects_outside_zone():
    kappas = np.linspace(-math.pi, math.pi, 11)
    np.testing.assert_allclose(dispersion(kappas, 2.0), -np.cos(kappas))
    with pytest.raises(ValueError):
        dispersion(math.pi + 1e-3, 1.0)
    with pytest.raises(ValueError):
        group_velocity(-math.pi - 1e-3, 1.0)
    # tiny numerical slack at the boundary is tolerated
    dispersion(math.pi + 1e-10, 1.0)


def test_group_velocity_values():
    assert group_velocity(0.0, 1.0) == 0.0
    assert group_velocity(math.pi / 2, 1.0) == pytest.approx(0.5)  # the band maximum
    assert group_velocity(-math.pi / 2, 1.0) == pytest.approx(-0.5)


def test_group_velocity_is_dispersion_derivative():
    # central finite difference of E(kappa); matches +dE/dkappa
    h = 1e-5
    for kappa in (-2.5, -1.1, 0.0, 0.3, 1.57, 3.0):
        fd = (dispersion(kappa + h, 1.0) - dispersion(kappa - h, 1.0)) / (2 * h)
        assert group_velocity(kappa, 1.0) == pytest.approx(fd, abs=1e-8)


def test_group_velocity_sign_changes_only_at_zone_center_and_edge():
    kappas = np.linspace(-math.pi + 1e-6, math.pi - 1e-6, 401)
    signs = np.sign(group_velocity(kappas, 1.0))
    flips = np.nonzero(np.diff(signs))[0]
    # one sign change, at kappa = 0
    assert len(flips) == 1
    assert abs(kappas[flips[0]]) < 0.02


def test_propagator_identity_at_t_zero():
    assert free_propagator_element(3, 3, 0.0, 1.0) == 1.0
    assert free_propagator_element(4, 3, 0.0, 1.0) == 0.0


def test_propagator_nearest_neighbour_value():
    # <0|U|1> = i^(-1) J_(-1)(1) = +i J_1(1) at t*coupling/2 = 1
    value = free_propagator_element(0, 1, 2.0, 1.0)
    assert value == pytest.approx(1j * 0.44005058574493355, abs=1e-15)
    # H is symmetric, so U is too
    assert free_propagator_element(1, 0, 2.0, 1.0) == pytest.approx(value, abs=1e-15)


def test_propagator_short_time_expansion():
    # U ~ 1 - i t H: the hop amplitude grows as +i t coupling / 4
    t = 1e-6
    value = free_propagator_element(1, 0, t, 1.0)
    assert value.imag == pytest.approx(t / 4, rel=1e-9)
    assert abs(value.real) < 1e-13
    on_site = free_propagator_element(0, 0, t, 1.0)
    assert on_site.real == pytest.approx(1.0, abs=1e-12)


def test_propagator_row_unitarity():
    t = 20.0
    total = sum(abs(free_propagator_element(0, m, t, 1.0)) ** 2 for m in range(-60, 61))
    assert total == pytest.approx(1.0, abs=1e-10)


def test_propagator_negative_time_is_adjoint():
    for n, np_ in ((2, -1), (0, 5)):
        fwd = free_propagator_element(np_, n, 7.3, 1.0)
        back = free_propagator_element(n, np_, -7.3, 1.0)
        assert back == pytest.approx(np.conj(fwd), abs=1e-15)


def test_propagator_window_guard():
    with pytest.raises(ValueError):
        free_propagator_element(0, 250, 1.0, 1.0)
    with pytest.raises(ValueError):
        free_propagator_element(0, 0, 300.0, 1.0)


def test_propagator_order_check_comes_before_the_argument_check():
    # order 300 and x = 150 are both outside the window; bessel_jn names the order
    with pytest.raises(ValueError, match=r"^\|order\| must not exceed 200$"):
        free_propagator_element(300, 0, 300.0, 1.0)


@pytest.mark.parametrize(
    "order,x,message",
    [
        (300, math.nan, r"^\|order\| must not exceed 200$"),
        (1.5, 150.0, "^order must be an integer$"),
        (1.5, -math.inf, "^order must be an integer$"),
    ],
)
def test_both_functions_name_a_bad_order_before_a_bad_argument(order, x, message):
    with pytest.raises(ValueError, match=message):
        bessel_jn(order, x)
    with pytest.raises(ValueError, match=message):
        free_propagator_element(order, 0, 2.0 * x, 1.0)


@pytest.mark.parametrize("x", [0.0, -0.0, 1e-9, -1e-9, 37.4, -37.4, 100.0, -100.0])
def test_propagator_row_is_bessel_jn_times_the_power_of_i_bit_for_bit(x):
    # repr tells the signs of zeros apart, which == does not
    orders = range(-MAX_ORDER, MAX_ORDER + 1)
    row = [free_propagator_element(m, 0, 2.0 * x, 1.0) for m in orders]
    assert repr(row) == repr([_I_POWER[m % 4] * bessel_jn(m, x) for m in orders])


@pytest.mark.parametrize("n,n_prime", [(2.0, 0), (5, 3.0), (-3.0, 0.0)])
def test_propagator_accepts_integral_float_labels(n, n_prime):
    expected = free_propagator_element(int(n), int(n_prime), 6.0, 1.0)
    assert free_propagator_element(n, n_prime, 6.0, 1.0) == expected


def test_propagator_refuses_fractional_labels():
    with pytest.raises(ValueError, match="order must be an integer"):
        free_propagator_element(2.5, 0, 6.0, 1.0)


def test_tilt_parameters_reference_values():
    chain = ChainSpec(coupling=1.0, force=-1.0 / 40.0, left=-20, right=60, target=40)
    tilt = tilt_parameters(chain)
    assert tilt.gamma == pytest.approx(-20.0)
    assert tilt.displacement == pytest.approx(40.0)
    assert tilt.bloch_period == pytest.approx(80.0 * math.pi)
    assert tilt.bloch_frequency == pytest.approx(1.0 / 40.0)

    chain60 = ChainSpec(coupling=1.0, force=-1.0 / 60.0, left=-20, right=80, target=60)
    tilt60 = tilt_parameters(chain60)
    assert tilt60.gamma == pytest.approx(-30.0)
    assert tilt60.displacement == pytest.approx(60.0)


def test_tilt_parameters_scaling():
    base = ChainSpec(coupling=1.0, force=0.05, left=-4, right=4, target=0)
    doubled = ChainSpec(coupling=1.0, force=0.1, left=-4, right=4, target=0)
    a, b = tilt_parameters(base), tilt_parameters(doubled)
    assert b.gamma == pytest.approx(a.gamma / 2)
    assert b.bloch_period == pytest.approx(a.bloch_period / 2)


def test_tilt_parameters_algebraic_identity():
    chain = ChainSpec(coupling=1.7, force=0.03, left=-4, right=4, target=0, spacing=0.5)
    tilt = tilt_parameters(chain)
    assert tilt.gamma * 2 * chain.spacing * chain.force == pytest.approx(chain.coupling, rel=1e-14)
    assert tilt.bloch_period * tilt.bloch_frequency == pytest.approx(2 * math.pi, rel=1e-14)


def test_tilt_parameters_rejects_untilted_chain():
    chain = ChainSpec(coupling=1.0, force=0.0, left=-4, right=4, target=0)
    with pytest.raises(ValueError, match="no tilt"):
        tilt_parameters(chain)


def test_tilt_parameters_field_consistency_enforced():
    tilt = TiltParameters(gamma=-20.0, bloch_frequency=0.025)
    assert tilt.bloch_period == 2.0 * math.pi / 0.025
    assert tilt.displacement == 40.0
    assert TiltParameters(gamma=3.5, bloch_frequency=0.7).displacement == -7.0
    for omega in (0.0, -0.025, math.nan):
        with pytest.raises(ValueError, match="bloch_frequency must be positive"):
            TiltParameters(gamma=-20.0, bloch_frequency=omega)


def test_a_bloch_period_that_overflows_is_refused():
    # 2 pi / 2.5e-312 exceeds the float range: no arrival time exists
    with pytest.raises(ValueError, match="^tilt too weak: the Bloch period is not finite$"):
        TiltParameters(gamma=-20.0, bloch_frequency=2.5e-312)
    chain = ChainSpec(coupling=1e-310, force=-2.5e-312, left=-32, right=72, target=40)
    with pytest.raises(ValueError, match="^tilt too weak: the Bloch period is not finite$"):
        tilt_parameters(chain)
    assert math.isfinite(TiltParameters(gamma=-20.0, bloch_frequency=4e-308).bloch_period)


def _tilt(gamma: float, omega: float = 1.0) -> TiltParameters:
    return TiltParameters(gamma, omega)


def test_wannier_stark_state_pure_phase_profile():
    ws = wannier_stark_state(3, _tilt(-20.0), grid_size=512)
    np.testing.assert_allclose(np.abs(ws.amplitudes), math.sqrt(1 / (2 * math.pi)), atol=1e-14)
    assert ws.kappa_grid[0] == pytest.approx(-math.pi)
    assert ws.kappa_grid[-1] == pytest.approx(math.pi - 2 * math.pi / 512)


def test_wannier_stark_zero_index_zero_gamma_is_constant():
    tilt = _tilt(0.0)
    ws = wannier_stark_state(0, tilt)
    np.testing.assert_allclose(np.angle(ws.amplitudes), 0.0, atol=1e-14)
    assert ws.energy == 0.0


def test_wannier_stark_phase_at_quarter_zone():
    # m=1, gamma=-20, kappa = pi/2: phase is -(pi/2 - 20)
    ws = wannier_stark_state(1, _tilt(-20.0), grid_size=1024)
    j = 3 * 1024 // 4  # grid point at kappa = +pi/2
    assert ws.kappa_grid[j] == pytest.approx(math.pi / 2)
    expected = -(math.pi / 2 - 20.0)
    diff = np.angle(ws.amplitudes[j] * np.exp(-1j * expected))
    assert diff == pytest.approx(0.0, abs=1e-12)


def test_wannier_stark_ladder_spacing():
    tilt = _tilt(-20.0, omega=0.025)  # gamma < 0 means force < 0
    energies = [wannier_stark_state(m, tilt).energy for m in range(-2, 3)]
    np.testing.assert_allclose(np.diff(energies), -0.025, atol=1e-15)


def test_wannier_stark_grid_size_guard():
    with pytest.raises(ValueError):
        wannier_stark_state(0, _tilt(-20.0), grid_size=1)


def test_half_period_profile_displaced_alternating_gaussian():
    gauss = TruncatedGaussianSpec(beta=0.01, delta=16, center=0)
    state = half_period_profile(gauss, _tilt(-20.0))
    assert state.sites[0] == 40 - 16 and state.sites[-1] == 40 + 16
    assert np.linalg.norm(state.amplitudes) == pytest.approx(1.0, abs=1e-12)
    # envelope peaks at the displaced centre, signs alternate site to site
    assert state.sites[np.argmax(np.abs(state.amplitudes))] == 40
    signs = np.sign(state.amplitudes.real)
    assert np.all(signs[::2] == signs[0]) and np.all(signs[1::2] == -signs[0])
    reference = np.where(state.sites % 2 == 0, 1.0, -1.0) * np.exp(
        -0.01 * (state.sites - 40.0) ** 2
    )
    reference /= np.linalg.norm(reference)
    np.testing.assert_allclose(state.amplitudes, reference, atol=1e-15)


def test_half_period_profile_zero_gamma_keeps_centre():
    gauss = TruncatedGaussianSpec(beta=0.05, delta=4, center=2)
    state = half_period_profile(gauss, _tilt(0.0))
    assert state.sites[0] == -2 and state.sites[-1] == 6
    assert state.sites[np.argmax(np.abs(state.amplitudes))] == 2
