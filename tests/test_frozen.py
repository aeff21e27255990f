"""Every frozen result type stores its arrays as read-only copies, never sharing an input.

Each input is copied in its own memory order, a read-only one too, since its
owner can make it writable again.  A SpectralDecomposition is the exception:
it keeps dstevd's arrays as given, never copied, and so refuses writable ones.
A RouteLeg stores no arrays: it holds its frozen Trajectory as given.
"""

import dataclasses

import numpy as np
import pytest

from blochqst.analytic import WannierStarkState
from blochqst.chain import HamiltonianMatrix, LatticeState
from blochqst.evolution import SpectralDecomposition, Trajectory
from blochqst.polarization import PolarizationQubit
from blochqst.transfer import RouteLeg, SweepResult, plan_transfer


def _trajectory_arrays():
    return {
        "times": np.array([0.0, 1.0]),
        "sites": np.array([-1, 0, 1], dtype=np.int64),
        "profiles": np.array([[0.0, 1.0, 0.0], [0.25, 0.5, 0.25]]),
        "mean_positions": np.array([0.0, 0.0]),
        "final": np.array([0.5, 0.5j, -0.5 + 0.5j]),
    }


# case id -> (type, array fields in the stored dtype, other fields)
CASES = {
    "LatticeState": (
        LatticeState,
        {"amplitudes": np.array([0.6, 0.8j])},
        {"site_offset": -1},
    ),
    "LatticeState-payload": (
        LatticeState,
        {"amplitudes": np.array([[0.6, 0.0], [0.0, 0.8j]])},
        {"site_offset": 0},
    ),
    "HamiltonianMatrix": (
        HamiltonianMatrix,
        {"diagonal": np.array([0.0, 0.1, 0.2]), "off_diagonal": np.array([-0.25, -0.25])},
        {},
    ),
    "Trajectory": (Trajectory, _trajectory_arrays(), {}),
    "SweepResult": (
        SweepResult,
        {
            "beta_grid": np.array([0.01, 0.02]),
            "delta_grid": np.array([2, 4, 6], dtype=np.int64),
            "success": np.full((2, 3), 0.5),
        },
        {"ratio": -40.0, "p": 40, "coupling": 1.0, "spacing": 1.0, "errors": ()},
    ),
    "PolarizationQubit": (PolarizationQubit, {"components": np.array([0.6 + 0j, 0.8j])}, {}),
    "WannierStarkState": (
        WannierStarkState,
        {
            "kappa_grid": np.linspace(-np.pi, np.pi, 4, endpoint=False),
            "amplitudes": np.full(4, 0.5 + 0j),
        },
        {"index": 0, "energy": 0.0},
    ),
}


@pytest.mark.parametrize("case", list(CASES))
def test_stored_arrays_are_read_only_c_ordered_copies(case):
    cls, arrays, others = CASES[case]
    inputs = {name: arr.copy(order="C") for name, arr in arrays.items()}  # writable, C-ordered
    record = cls(**inputs, **others)
    assert dataclasses.is_dataclass(record)
    for name, given in inputs.items():
        stored = getattr(record, name)
        assert not stored.flags.writeable, name
        assert stored.flags.c_contiguous, name
        assert not np.shares_memory(stored, given), name
        given += 1  # mutating the caller's array must not reach the record
        np.testing.assert_array_equal(stored, arrays[name])
        with pytest.raises(ValueError):
            stored[...] = 0


def test_a_route_leg_holds_its_trajectory_as_given():
    traj = Trajectory(**_trajectory_arrays())
    leg = RouteLeg(plan_transfer(10, 0.05, 2), traj, 0.9)
    assert leg.trajectory is traj and leg.output_profile.base is traj.profiles
    assert (leg.force, leg.target) == (-0.1, 10)
    with pytest.raises(dataclasses.FrozenInstanceError):
        leg.trajectory = traj


EIGENVALUES = np.array([-1.0, 1.0])
ROTATION = [[0.6, 0.8], [-0.8, 0.6]]
PAYLOAD = [[0.6, 0.0], [0.0, 0.8]]  # a unit-norm two-column LatticeState


def test_a_writable_input_is_copied_read_only_in_its_memory_order():
    given = np.asfortranarray(PAYLOAD, dtype=np.complex128)  # CASES covers C-ordered inputs
    stored = LatticeState(given, 0).amplitudes
    assert not stored.flags.writeable and not np.shares_memory(stored, given)
    assert stored.flags.f_contiguous and not stored.flags.c_contiguous
    given += 1
    np.testing.assert_array_equal(stored, PAYLOAD)


def test_a_read_only_input_is_copied_too():
    # its owner may set writeable again: a kept array would let the record lose its unit norm
    given = np.array([1 + 0j, 0])
    given.flags.writeable = False
    state = LatticeState(given, 0)
    assert not np.shares_memory(state.amplitudes, given)
    given.flags.writeable = True
    given[0] = 2
    np.testing.assert_array_equal(state.amplitudes, [1, 0])


def test_a_read_only_view_is_copied():
    base = np.asfortranarray([[0.6, 0.0, 1.0], [0.0, 0.8, 1.0]], dtype=np.complex128)
    view = base[:, :2]  # read-only, Fortran-ordered, but its base stays writable
    view.flags.writeable = False
    stored = LatticeState(view, 0).amplitudes
    assert stored.base is None and not stored.flags.writeable and stored.flags.f_contiguous
    assert not np.shares_memory(stored, base)
    base += 1
    np.testing.assert_array_equal(stored, PAYLOAD)


def test_a_read_only_array_that_owns_its_memory_is_kept_as_given():
    # a spectrum holds dstevd's Fortran-ordered arrays, which eigendecompose marks read-only
    values, vectors = EIGENVALUES.copy(), np.asfortranarray(ROTATION)
    values.flags.writeable = vectors.flags.writeable = False
    spectrum = SpectralDecomposition(values, vectors)
    assert spectrum.eigenvalues is values and spectrum.eigenvectors is vectors


@pytest.mark.parametrize("writable", ["eigenvalues", "eigenvectors"])
def test_a_spectrum_refuses_writable_arrays(writable):
    arrays = {"eigenvalues": EIGENVALUES.copy(), "eigenvectors": np.asfortranarray(ROTATION)}
    for name, arr in arrays.items():
        arr.flags.writeable = name == writable
    with pytest.raises(ValueError, match="^eigenvalues and eigenvectors must be read-only$"):
        SpectralDecomposition(**arrays)
