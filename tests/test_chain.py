"""Chain geometry, states, and Hamiltonian builders."""

import dataclasses
import json
import math
import re

import numpy as np
import pytest

from blochqst.chain import (
    MAX_SITES,
    ChainSpec,
    HamiltonianMatrix,
    LatticeState,
    align_global_phase,
    build_free_hamiltonian,
    build_tilted_hamiltonian,
    overlap,
)
from blochqst.polarization import PolarizationQubit, attach_polarization, extract_qubit
from blochqst.transfer import TruncatedGaussianSpec, gaussian_state, success_probability


def test_chain_spec_basics():
    chain = ChainSpec(coupling=1.0, force=-0.025, left=-20, right=60, target=40)
    assert chain.n_sites == 81
    assert chain.sites[0] == -20 and chain.sites[-1] == 60
    assert chain.spacing == 1.0


@pytest.mark.parametrize(
    "kwargs",
    [
        dict(coupling=0.0, force=0.0, left=0, right=10, target=0),
        dict(coupling=-1.0, force=0.0, left=0, right=10, target=0),
        dict(coupling=1.0, force=0.0, left=0, right=10, target=0, spacing=0.0),
        dict(coupling=1.0, force=0.0, left=1, right=10, target=5),
        dict(coupling=1.0, force=0.0, left=0, right=-1, target=0),
        dict(coupling=1.0, force=0.0, left=-5, right=10, target=-6),
        dict(coupling=1.0, force=0.0, left=-10, right=-5, target=-7),  # site 0 off the chain
        dict(coupling=1.0, force=0.0, left=-5, right=10, target=11),
    ],
)
def test_chain_spec_rejects_bad_geometry(kwargs):
    with pytest.raises(ValueError):
        ChainSpec(**kwargs)


@pytest.mark.parametrize(
    "labels,name",
    [
        ((-3.5, 3, 0), "left"),
        ((-3, 3.5, 0), "right"),
        ((-3, 3, 0.5), "target"),
        ((math.nan, 3, 0), "left"),
        ((-3, math.inf, 0), "right"),
    ],
    ids=["left", "right", "target", "nan-left", "infinite-right"],
)
def test_chain_spec_refuses_a_site_label_that_is_not_an_integer(labels, name):
    # -3.5 ... 3 would be a chain of 7.5 sites
    with pytest.raises(ValueError, match=f"^{name} must be an integer$"):
        ChainSpec(1.0, 0.0, *labels)


def test_chain_spec_stores_its_site_labels_as_ints():
    chain = ChainSpec(1.0, 0.0, -3.0, np.int64(3), 0.0)
    assert [type(v) for v in (chain.left, chain.right, chain.target)] == [int, int, int]
    assert chain == ChainSpec(1.0, 0.0, -3, 3, 0) and chain.n_sites == 7
    with pytest.raises(ValueError, match="MAX_SITES"):  # an int past the float range
        ChainSpec(1.0, 0.0, -(10**400), 0, 0)


_RANGE_CHAIN = ChainSpec(coupling=1.0, force=-0.05, left=-8, right=8, target=0)
# a qubit payload with amplitude on every one of the chain's 17 sites
_RANGE_PAYLOAD = attach_polarization(
    gaussian_state(TruncatedGaussianSpec(beta=0.05, delta=8), _RANGE_CHAIN),
    PolarizationQubit(np.array([0.6, 0.8j])),
)


def _read_range(reader: str, center, half):
    """What reader gives on the sites center - half .. center + half, as one array."""
    if reader == "success_probability":
        return np.array([success_probability(_RANGE_PAYLOAD, center, half)])
    if reader == "extract_qubit":
        qubit, capture = extract_qubit(_RANGE_PAYLOAD, center - half, center + half)
        return np.append(qubit.components, capture)
    spec = TruncatedGaussianSpec(beta=0.05, delta=half, center=center)
    return gaussian_state(spec, _RANGE_CHAIN).amplitudes


@pytest.mark.parametrize("reader", ["success_probability", "extract_qubit", "gaussian_state"])
@pytest.mark.parametrize(
    "center,half,refusal",
    [
        (6, 2, None),  # ends on the last site
        (-6, 2, None),  # starts on the first
        (6, 3, "{name} 3..9 extends beyond the 17 sites from -8"),
        (-6, 3, "{name} -9..-3 extends beyond the 17 sites from -8"),
        (0, -1, "must be non-negative|ends before it starts"),
        (0.5, 1, "must be an integer"),
        (0.0, 5.0, None),  # integral floats read as ints
        (np.int64(0), np.int64(5), None),
    ],
    ids=["last", "first", "past-last", "before-first", "reversed", "fractional", "float", "int64"],
)
def test_every_site_range_is_read_by_one_rule(reader, center, half, refusal):
    if refusal is not None:
        name = "truncated support" if reader == "gaussian_state" else "window"
        with pytest.raises(ValueError, match=refusal.format(name=name)):
            _read_range(reader, center, half)
        return
    read = _read_range(reader, center, half)
    np.testing.assert_array_equal(read, _read_range(reader, int(center), int(half)))
    if reader == "extract_qubit":  # the capture is the scoring window's sum, bit for bit
        assert read[-1] == success_probability(_RANGE_PAYLOAD, int(center), int(half))


def test_chain_spec_refuses_more_than_max_sites():
    assert ChainSpec(1.0, -0.1, left=0, right=MAX_SITES - 1, target=0).n_sites == MAX_SITES
    with pytest.raises(ValueError, match="MAX_SITES"):
        ChainSpec(1.0, -0.1, left=-1, right=MAX_SITES - 1, target=0)


@pytest.mark.parametrize(
    "force,spacing,right",
    [
        (math.nan, 1.0, 3),
        (math.inf, 1.0, 3),
        (-math.inf, 1.0, 3),
        (1e200, 1e200, 3),  # force * spacing overflows
        (1e308, 1.0, 2),  # finite on site 1, past the float range on site 2
    ],
    ids=["nan", "inf", "-inf", "force-times-spacing", "times-site"],
)
def test_chain_spec_refuses_a_tilt_not_finite_on_every_site(force, spacing, right):
    with pytest.raises(ValueError) as excinfo:
        ChainSpec(1.0, force, left=-1, right=right, target=0, spacing=spacing)
    assert str(excinfo.value) == "tilt force * spacing * n must be finite on every site"


def test_chain_spec_accepts_the_largest_finite_tilt():
    # 1e308 on site 1 is finite, and so is the whole diagonal of the Hamiltonian
    chain = ChainSpec(1.0, 1e308, left=-1, right=1, target=0)
    assert np.all(np.isfinite(build_tilted_hamiltonian(chain).diagonal))


def test_chain_spec_refuses_a_tilt_not_finite_on_the_left_end_alone():
    # 1e308 on site 1 is finite; 3e308 on site -3 is not
    with pytest.raises(ValueError) as excinfo:
        ChainSpec(1.0, 1e308, left=-3, right=1, target=0)
    assert str(excinfo.value) == "tilt force * spacing * n must be finite on every site"


@pytest.mark.parametrize("value", [math.inf, math.nan], ids=["inf", "nan"])
@pytest.mark.parametrize("name", ["coupling", "spacing"])
def test_chain_spec_refuses_a_medium_that_is_not_finite(name, value):
    medium = {"coupling": 1.0, "spacing": 1.0, name: value}
    with pytest.raises(ValueError) as excinfo:
        ChainSpec(force=0.0, left=-3, right=3, target=0, **medium)
    assert str(excinfo.value) == f"{name} must be positive and finite"


def test_chain_spec_json_round_trip():
    chain = ChainSpec(coupling=2.0, force=0.05, left=-8, right=12, target=4, spacing=0.5)
    blob = json.dumps(dataclasses.asdict(chain), sort_keys=True)
    assert set(json.loads(blob)) == {"coupling", "force", "spacing", "left", "right", "target"}
    assert ChainSpec(**json.loads(blob)) == chain


def test_chain_spec_from_dict_default_spacing():
    chain = ChainSpec(**{"coupling": 1, "force": 0, "left": -2, "right": 2, "target": 1})
    assert chain.spacing == 1.0


def test_lattice_state_norm_and_readonly():
    amps = np.zeros(5, dtype=complex)
    amps[2] = 1.0
    state = LatticeState(amps, -2)
    assert state.n_sites == 5
    assert list(state.sites) == [-2, -1, 0, 1, 2]
    with pytest.raises(ValueError):
        state.amplitudes[0] = 1.0
    with pytest.raises(ValueError):
        LatticeState(np.array([0.5, 0.5]), 0)
    with pytest.raises(ValueError):
        LatticeState(np.zeros((2, 2)), 0)
    with pytest.raises(ValueError):
        LatticeState(np.array([]), 0)


def test_lattice_state_payload_columns_and_refused_shapes():
    state = LatticeState(np.full((3, 2), 1 / math.sqrt(6)), -1)
    assert state.n_sites == 3
    assert list(state.sites) == [-1, 0, 1]
    # (2, 2, 1) has unit norm: only its shape is wrong
    for amps in (np.full((2, 2, 1), 0.5), np.zeros((3, 0)), np.zeros(0)):
        with pytest.raises(ValueError, match=r"non-empty array of shape \(n,\) or \(n, k\)"):
            LatticeState(amps, 0)

def test_overlap_aligns_site_labels():
    a = LatticeState(np.array([1.0, 0.0, 0.0]), 0)       # sites 0..2
    b = LatticeState(np.array([0.0, 1.0, 0.0]), -1)      # sites -1..1
    assert overlap(a, b) == pytest.approx(1.0)           # both live on site 0
    c = LatticeState(np.array([1.0]), 7)                 # disjoint window
    assert overlap(a, c) == 0j


def test_overlap_refuses_amplitudes_with_other_components():
    packet = LatticeState(np.full(3, 1 / math.sqrt(3)), 0)
    pair = LatticeState(np.full((3, 2), 1 / math.sqrt(6)), 0)
    triple = LatticeState(np.full((3, 3), 1 / 3), 0)
    for a, b in ((packet, pair), (pair, packet), (pair, triple)):
        shapes = f"overlap of shapes {a.amplitudes.shape} and {b.amplitudes.shape}"
        with pytest.raises(ValueError, match=re.escape(shapes)):
            overlap(a, b)
    assert overlap(pair, pair) == pytest.approx(1.0)


def test_overlap_conjugation():
    rng = np.random.default_rng(11)
    x = rng.normal(size=6) + 1j * rng.normal(size=6)
    y = rng.normal(size=6) + 1j * rng.normal(size=6)
    a = LatticeState(x / np.linalg.norm(x), 0)
    b = LatticeState(y / np.linalg.norm(y), 0)
    assert overlap(a, b) == pytest.approx(np.conj(overlap(b, a)))


def test_align_global_phase():
    rng = np.random.default_rng(3)
    x = rng.normal(size=9) + 1j * rng.normal(size=9)
    state = LatticeState(x / np.linalg.norm(x), -4)
    aligned = align_global_phase(state)
    k = np.argmax(np.abs(aligned.amplitudes))
    pivot = aligned.amplitudes[k]
    assert pivot.imag == pytest.approx(0.0, abs=1e-15)
    assert pivot.real > 0
    np.testing.assert_allclose(
        np.abs(aligned.amplitudes), np.abs(state.amplitudes), atol=1e-15
    )
    again = align_global_phase(aligned)
    np.testing.assert_allclose(again.amplitudes, aligned.amplitudes, atol=1e-15)


def test_align_global_phase_of_a_payload():
    rng = np.random.default_rng(5)
    x = rng.normal(size=(9, 2)) + 1j * rng.normal(size=(9, 2))
    state = LatticeState(x / np.linalg.norm(x), -4)
    aligned = align_global_phase(state)
    pivot = aligned.amplitudes.flat[np.argmax(np.abs(aligned.amplitudes))]
    assert pivot.imag == pytest.approx(0.0, abs=1e-15)
    assert pivot.real > 0
    # one phase for the whole array, not one per column
    ratio = aligned.amplitudes / state.amplitudes
    np.testing.assert_allclose(ratio, ratio[0, 0], rtol=0, atol=1e-14)
    assert abs(ratio[0, 0]) == pytest.approx(1.0, abs=1e-14)


def dense(h: HamiltonianMatrix) -> np.ndarray:
    """The full n x n matrix of a tridiagonal Hamiltonian."""
    return np.diag(h.diagonal) + np.diag(h.off_diagonal, 1) + np.diag(h.off_diagonal, -1)


def test_hamiltonian_matrix_storage_checks():
    h = HamiltonianMatrix(np.array([1.0, 2.0]), np.array([-0.25]))
    np.testing.assert_array_equal(dense(h), [[1.0, -0.25], [-0.25, 2.0]])
    assert np.array_equal(dense(h), dense(h).T)
    with pytest.raises(ValueError):
        HamiltonianMatrix(np.zeros((2, 2)), np.zeros(3))  # 2-D diagonal
    with pytest.raises(ValueError):
        HamiltonianMatrix(np.zeros(4), np.zeros(2))
    with pytest.raises(ValueError):
        HamiltonianMatrix(np.zeros(1), np.zeros(0))
    for diagonal, off_diagonal in (([math.nan, 0.0], [1.0]), ([0.0, 0.0], [-math.inf])):
        with pytest.raises(ValueError, match="^Hamiltonian entries must be finite$"):
            HamiltonianMatrix(diagonal, off_diagonal)


def test_free_hamiltonian_two_sites():
    chain = ChainSpec(coupling=1.0, force=0.0, left=0, right=1, target=0)
    h = build_free_hamiltonian(chain)
    np.testing.assert_array_equal(dense(h), [[0.0, -0.25], [-0.25, 0.0]])


def test_free_hamiltonian_coupling_scaling_and_zero_diagonal():
    chain = ChainSpec(coupling=2.0, force=-0.025, left=-20, right=60, target=40)
    h = build_free_hamiltonian(chain)
    assert h.dimension == 81
    assert np.all(h.diagonal == 0.0)          # tilt is absent from the free part
    assert np.all(h.off_diagonal == -0.5)


def test_free_hamiltonian_translation_covariance():
    a = ChainSpec(coupling=1.0, force=0.0, left=-5, right=5, target=0)
    b = ChainSpec(coupling=1.0, force=0.0, left=-1, right=9, target=0)
    # same length, shifted labels: free Hamiltonian cannot tell the difference
    ha, hb = build_free_hamiltonian(a), build_free_hamiltonian(b)
    np.testing.assert_array_equal(ha.diagonal, hb.diagonal)
    np.testing.assert_array_equal(ha.off_diagonal, hb.off_diagonal)


def test_tilted_hamiltonian_uses_absolute_site_labels():
    chain = ChainSpec(coupling=1.0, force=-0.025, left=-20, right=60, target=40)
    h = build_tilted_hamiltonian(chain)
    diag_at_40 = h.diagonal[40 - chain.left]
    assert diag_at_40 == pytest.approx(-1.0)


def test_tilted_hamiltonian_three_sites():
    chain = ChainSpec(coupling=1.0, force=-0.025, left=-1, right=1, target=0)
    h = build_tilted_hamiltonian(chain)
    np.testing.assert_allclose(h.diagonal, [0.025, 0.0, -0.025])
    np.testing.assert_allclose(h.off_diagonal, [-0.25, -0.25])


def test_tilted_hamiltonian_zero_force_matches_free():
    chain = ChainSpec(coupling=1.3, force=0.0, left=-4, right=9, target=2)
    np.testing.assert_array_equal(
        dense(build_tilted_hamiltonian(chain)), dense(build_free_hamiltonian(chain))
    )


def test_tilt_linearity():
    chain = ChainSpec(coupling=1.0, force=0.07, left=-6, right=8, target=3, spacing=2.0)
    h = build_tilted_hamiltonian(chain)
    steps = np.diff(h.diagonal)
    np.testing.assert_allclose(steps, chain.force * chain.spacing)


def test_builders_reject_single_site():
    chain = ChainSpec(coupling=1.0, force=0.0, left=0, right=0, target=0)
    with pytest.raises(ValueError):
        build_free_hamiltonian(chain)
    with pytest.raises(ValueError):
        build_tilted_hamiltonian(chain)
