"""Invariants checked over parameter ranges rather than at the paper's points.

Spectral evolution against the Taylor oracle with unit norm and conserved
energy, eigendecompose against the Wannier-Stark ladder, the Bessel
identities, and criterion 01's first-moment law at half a Bloch period.  Draws are derandomized, so every run checks the same
examples.
"""

import math

import numpy as np
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from blochqst.bessel import MAX_ARGUMENT, MAX_ORDER, bessel_jn
from blochqst.analytic import tilt_parameters
from blochqst.chain import ChainSpec, LatticeState, build_tilted_hamiltonian
from blochqst.evolution import eigendecompose, energy_expectation, evolve, evolve_oracle
from blochqst.transfer import plan_transfer
from test_acceptance import _arrival_mean

PROPERTY = settings(max_examples=40, derandomize=True, deadline=None, database=None)

# no subnormal arguments: 2n / x would overflow in the recurrence
_ARGUMENT = st.floats(-MAX_ARGUMENT, MAX_ARGUMENT, allow_subnormal=False)


@st.composite
def _chain_and_state(draw, columns=()):
    """A chain of at most 121 sites and a random normalized state on all of it.

    columns=(k,) draws a payload state of shape (n_sites, k).
    """
    left = draw(st.integers(-60, 0))
    right = draw(st.integers(max(left + 1, 0), left + 120))
    chain = ChainSpec(
        coupling=draw(st.floats(0.25, 2.0)),
        force=draw(st.floats(-0.05, 0.05)),
        left=left,
        right=right,
        target=0,
        spacing=draw(st.floats(0.5, 2.0)),
    )
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    shape = (chain.n_sites, *columns)
    amps = rng.normal(size=shape) + 1j * rng.normal(size=shape)
    return chain, LatticeState(amps / np.linalg.norm(amps), left)


@PROPERTY
@given(_chain_and_state(), st.floats(0.0, 30.0))
def test_evolve_matches_the_oracle_with_unit_norm_and_constant_energy(chain_state, t):
    chain, psi0 = chain_state
    h = build_tilted_hamiltonian(chain)
    spectral = evolve(psi0, h, t)
    oracle = evolve_oracle(psi0, h, t)
    assert np.max(np.abs(spectral.amplitudes - oracle.amplitudes)) < 1e-9
    assert abs(np.linalg.norm(spectral.amplitudes) - 1.0) < 1e-12
    assert abs(energy_expectation(spectral, h) - energy_expectation(psi0, h)) < 1e-10


@PROPERTY
@given(st.sampled_from([2, 3]).flatmap(lambda k: _chain_and_state((k,))), st.floats(0.0, 30.0))
def test_evolve_matches_the_oracle_on_payload_states(chain_state, t):
    # (n, k) amplitudes: each column is one state under the same chain
    chain, psi0 = chain_state
    h = build_tilted_hamiltonian(chain)
    spectral = evolve(psi0, h, t)
    oracle = evolve_oracle(psi0, h, t)
    assert spectral.amplitudes.shape == oracle.amplitudes.shape == psi0.amplitudes.shape
    assert np.max(np.abs(spectral.amplitudes - oracle.amplitudes)) < 1e-9
    assert abs(np.linalg.norm(spectral.amplitudes) - 1.0) < 1e-12
    assert abs(energy_expectation(spectral, h) - energy_expectation(psi0, h)) < 1e-10

@st.composite
def _stark_chain(draw):
    """A tilted chain of at most 401 sites with |gamma| <= 100 and at least one interior rung.

    Returns the chain, the reach k past which every |J_k(gamma)| is below
    1e-17, and the row J_k(gamma), k = -MAX_ORDER ... MAX_ORDER.  Rung m is
    interior when it lies at least reach sites from either end: the chain's
    ends do not touch its state.
    """
    coupling, spacing = draw(st.floats(0.25, 4.0)), draw(st.floats(0.5, 2.0))
    drawn = draw(st.floats(0.5, 100.0)) * draw(st.sampled_from([-1.0, 1.0]))
    force = coupling / (2.0 * spacing * drawn)
    gamma = coupling / (2.0 * spacing * force)  # as tilt_parameters rounds it
    row = np.array([bessel_jn(k, gamma) for k in range(-MAX_ORDER, MAX_ORDER + 1)])
    reach = int(np.flatnonzero(np.abs(row) >= 1e-17)[-1]) - MAX_ORDER + 1
    n_sites = draw(st.integers(2 * reach + 1, 401))
    left = draw(st.integers(1 - n_sites, 0))
    chain = ChainSpec(coupling, force, left, left + n_sites - 1, target=0, spacing=spacing)
    assert tilt_parameters(chain).gamma == gamma
    return chain, reach, row


@settings(PROPERTY, max_examples=20)
@given(_stark_chain())
def test_interior_eigenpairs_are_the_wannier_stark_ladder(stark):
    # H psi = E psi on the infinite chain: psi_m(n) = J_{n-m}(gamma) at E = m F d,
    # gamma = coupling / (2 F d); orders past MAX_ORDER are below 1e-39 and taken as zero
    chain, reach, row = stark
    spectrum = eigendecompose(build_tilted_hamiltonian(chain))
    step = chain.force * chain.spacing
    bound = abs(step) * max(-chain.left, chain.right) + chain.coupling / 2  # every |E| below it
    rungs = np.arange(chain.left + reach, chain.right - reach + 1)
    orders = chain.sites[:, None] - rungs[None, :]
    inside = np.abs(orders) <= MAX_ORDER
    columns = np.where(inside, row[np.clip(orders, -MAX_ORDER, MAX_ORDER) + MAX_ORDER], 0.0)
    for m, column in zip(rungs, columns.T):
        i = int(np.argmin(np.abs(spectrum.eigenvalues - m * step)))
        assert abs(spectrum.eigenvalues[i] - m * step) < 1e-12 * bound
        vector = spectrum.eigenvectors[:, i]
        # the sign rule makes the largest-magnitude entry positive; |J_-k| = |J_k|, so the
        # largest magnitude is a pair, and a pair of opposite signs (odd k) is a tie only
        # round-off breaks: either sign is right there
        top = column[np.abs(column) >= np.max(np.abs(column)) - 1e-12]
        if np.all(top > 0) or np.all(top < 0):
            assert np.max(np.abs(vector - math.copysign(1.0, top[0]) * column)) < 1e-12
        else:
            assert min(np.max(np.abs(vector - column)), np.max(np.abs(vector + column))) < 1e-12


@PROPERTY
@given(st.integers(-MAX_ORDER, MAX_ORDER), _ARGUMENT)
def test_bessel_parity(order, x):
    # J_{-n}(x) = J_n(-x) = (-1)^n J_n(x), exactly
    value = bessel_jn(order, x)
    assert bessel_jn(-order, x) == bessel_jn(order, -x) == (-1) ** (order % 2) * value


@PROPERTY
@given(st.integers(-MAX_ORDER + 1, MAX_ORDER - 1), _ARGUMENT)
def test_bessel_three_term_recurrence(order, x):
    assume(x != 0.0)
    lhs = bessel_jn(order - 1, x) + bessel_jn(order + 1, x)
    assert abs(lhs - 2.0 * order / x * bessel_jn(order, x)) < 1e-12


@PROPERTY
@given(_ARGUMENT)
def test_bessel_sum_rule(x):
    # sum_k J_k(x)^2 = 1; past |k| = MAX_ORDER the squares are below 1e-80 for |x| <= 100
    total = math.fsum(bessel_jn(k, x) ** 2 for k in range(-MAX_ORDER, MAX_ORDER + 1))
    assert abs(total - 1.0) < 1e-12


@PROPERTY
@given(st.integers(10, 60), st.floats(0.005, 0.05), st.integers(2, 12))
def test_arrival_mean_follows_the_first_moment_law(p, beta, delta):
    # criterion 01's law over ranges.  Margins of 2p + 2 delta keep every
    # quasimomentum's swing off the chain's ends; on p + 2 delta the left-edge
    # reflection moves the mean by 7e-4 at p = 10, beta = 0.03125, delta = 2.
    assume(delta < p)
    plan = plan_transfer(p, beta, delta, margin=2 * p + 2 * delta)
    measured, law = _arrival_mean(plan.chain, plan.gauss)
    assert abs(measured - law) < 1e-6
