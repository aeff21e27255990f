"""Mutation check: every mutant of src/ below must make tier-1 fail.

Each mutant is one text replacement in one file, and names the tier-1 test
that kills it.  For each, the script copies src/, tests/ and pyproject.toml to
a temporary directory, applies the mutant there and runs the named test alone
on the copy; only if that run does not fail (pytest exit 1) does it run
tier-1 on the copy with -x.  The working tree is never edited.  An unmutated
copy runs all of tier-1 first, so a red tier-1 cannot pass for a killed
mutant.  The script exits 1 when an old text is missing or not unique in its
file, when a named test file is missing, when the control run fails, or when
any mutant survives.

Run from anywhere, with the test dependencies installed:

    python tools/mutate.py

A mutant its test kills costs one test; one its test misses costs tier-1 up
to the first failure, and a survivor a full tier-1 run.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parent.parent
TREE = ("src", "tests", "pyproject.toml")
PYTEST = ["-m", "pytest", "-q", "-p", "no:cacheprovider"]
TIER1 = ["-x", "--continue-on-collection-errors"]


class Mutant(NamedTuple):
    file: str  # relative to the repository root
    old: str  # must occur exactly once in the file
    new: str
    why: str  # the fault it stands for
    test: str  # pytest node id of the test that kills it


MUTANTS = [
    Mutant(
        "src/blochqst/transfer.py",
        "    return round(displacement)",
        "    return int(displacement)",
        "route target truncated: the -0.016667 leg (59.9988) goes to site 59, not 60",
        "tests/test_transfer.py::test_route_target_is_the_rounded_displacement",
    ),
    Mutant(
        "src/blochqst/cli.py",
        'if params.get("t_steps", 2) < 2:',
        'if params.get("t_steps", 2) < 1:',
        "--t-steps 1 accepted: a trajectory of one sample",
        "tests/test_cli.py::test_a_single_time_step_is_refused",
    ),
    Mutant(
        "src/blochqst/chain.py",
        "self.force * self.spacing * max(-self.left, self.right)",
        "self.force * self.spacing * self.right",
        "finite-tilt check blind to a left end that alone overflows",
        "tests/test_chain.py::test_chain_spec_refuses_a_tilt_not_finite_on_the_left_end_alone",
    ),
    Mutant(
        "src/blochqst/chain.py",
        "if not 0 < coupling < np.inf:",
        "if not 0 < coupling:",
        "an infinite coupling passes check_medium",
        "tests/test_chain.py::test_chain_spec_refuses_a_medium_that_is_not_finite[coupling-inf]",
    ),
    Mutant(
        "src/blochqst/chain.py",
        "if not 0 < spacing < np.inf:",
        "if not 0 < spacing:",
        "an infinite spacing passes check_medium",
        "tests/test_chain.py::test_chain_spec_refuses_a_medium_that_is_not_finite[spacing-inf]",
    ),
    Mutant(
        "src/blochqst/transfer.py",
        "t = 0.5 * tilt_parameters(chain).bloch_period",
        "t = tilt_parameters(chain).bloch_period",
        "transfer_time a full Bloch period: the packet is back at its start",
        "tests/test_acceptance.py::test_criterion_02_success_probability_bands",
    ),
    Mutant(
        "src/blochqst/analytic.py",
        "return -2.0 * self.gamma",
        "return 2.0 * self.gamma",
        "displacement +2 gamma: the model profile moves the wrong way",
        "tests/test_acceptance.py::test_criterion_01_arrival_mean_position",
    ),
    Mutant(
        "src/blochqst/analytic.py",
        "return 2.0 * math.pi / self.bloch_frequency",
        "return math.pi / self.bloch_frequency",
        "Bloch period halved",
        "tests/test_acceptance.py::test_criterion_01_arrival_mean_position",
    ),
    Mutant(
        "src/blochqst/chain.py",
        "if self.dimension < 2:",
        "if self.dimension < 1:",
        "a one-site chain gets a Hamiltonian",
        "tests/test_chain.py::test_hamiltonian_matrix_storage_checks",
    ),
    Mutant(
        "src/blochqst/chain.py",
        "np.full(chain.n_sites - 1, -chain.coupling / 4.0)",
        "np.full(chain.n_sites - 1, -chain.coupling / 2.0)",
        "hopping -coupling/2: the band is twice as wide",
        "tests/test_acceptance.py::test_criterion_01_arrival_mean_position",
    ),
    Mutant(
        "src/blochqst/transfer.py",
        "if not (self.gauss.delta < self.margin or",
        "if not (self.gauss.delta <= self.margin or",
        "a margin equal to the truncation half-width is accepted",
        "tests/test_transfer.py::test_plan_transfer_guards",
    ),
    Mutant(
        "src/blochqst/chain.py",
        "    return slice(lo - site_offset, hi - site_offset + 1)",
        "    return slice(lo - site_offset, hi - site_offset)",
        "the site range rule drops its last site: every window and packet support one short",
        "tests/test_acceptance.py::test_criterion_02_success_probability_bands",
    ),
    Mutant(
        "src/blochqst/evolution.py",
        "[cos * c_re + sin * c_im, cos * c_im - sin * c_re]",
        "[cos * c_re - sin * c_im, cos * c_im + sin * c_re]",
        "spectral propagation runs backwards in time, exp(+i E t)",
        "tests/test_acceptance.py::test_criterion_04_free_propagator_cross_check",
    ),
    Mutant(
        "src/blochqst/chain.py",
        "    @functools.cached_property",
        "    @property",
        "every propagation re-diagonalizes",
        "tests/test_cli.py::test_one_eigendecomposition_per_chain[transfer]",
    ),
    Mutant(
        "src/blochqst/evolution.py",
        "import numpy as np\n\nfrom .chain import",
        "import numpy as np\nfrom scipy.linalg import eigh_tridiagonal\n\nfrom .chain import",
        "scipy imported with the package: --help and refused runs load it too",
        "tests/test_imports.py::"
        "test_paths_that_never_diagonalize_do_not_load_scipy[import blochqst]",
    ),
    Mutant(
        "src/blochqst/cli.py",
        "    if not math.isfinite(number):\n",
        "    if math.isnan(number):\n",
        "an infinite CLI number is accepted",
        "tests/test_cli.py::test_non_finite_grids_forces_and_qubits_are_refused",
    ),
    Mutant(
        "src/blochqst/cli.py",
        "    if not number.is_integer():\n",
        "    if False:\n",
        "a fractional integer parameter is truncated instead of refused",
        "tests/test_cli.py::test_config_values_are_not_truncated[16.7]",
    ),
    Mutant(
        "src/blochqst/evolution.py",
        "    amps = np.asarray(amplitudes, dtype=np.complex128)\n",
        "    h.spectrum\n    amps = np.asarray(amplitudes, dtype=np.complex128)\n",
        "a state of the wrong size diagonalizes the chain before it is refused",
        "tests/test_evolution.py::test_a_refused_propagation_never_diagonalizes",
    ),
    Mutant(
        "src/blochqst/cli.py",
        "sum(plan.chain.n_sites for plan in plans)",
        "max(plan.chain.n_sites for plan in plans)",
        "a route bounds each leg's profile, not all legs' together",
        "tests/test_cli.py::test_a_route_bounds_the_profiles_of_all_its_legs_together",
    ),
    Mutant(
        "src/blochqst/evolution.py",
        "return (np.abs(state.amplitudes) ** 2).reshape(state.n_sites, -1).sum(axis=1)",
        "return np.abs(state.amplitudes) ** 2",
        "a payload's profile keeps its columns: its mean position fails",
        "tests/test_polarization.py::test_attach_builds_product_state",
    ),
    Mutant(
        "src/blochqst/evolution.py",
        "    if v.ndim == 2:\n        diag, off = diag[:, None], off[:, None]\n",
        "",
        "the oracle's matvec pairs the diagonal with columns, not sites: a payload's energy fails",
        "tests/test_evolution.py::test_oracle_holds_the_spectral_route_to_1e_12",
    ),
    Mutant(
        "src/blochqst/chain.py",
        "pivot = state.amplitudes.flat[k]",
        "pivot = state.amplitudes[k]",
        "a payload's phase pivot read as a row: one phase per column, or an IndexError",
        "tests/test_chain.py::test_align_global_phase_of_a_payload",
    ),
    Mutant(
        "src/blochqst/polarization.py",
        "    _check_payload(state)\n    block = ",
        "    block = ",
        "extract_qubit reads a state that is not two qubit columns",
        "tests/test_polarization.py::test_polarized_state_validation",
    ),
    Mutant(
        "src/blochqst/transfer.py",
        "    if chain.target != p:\n",
        "    if False:\n",
        "a sweep scores its cells at a p its ratio's tilt does not move the packet to",
        "tests/test_cli.py::test_a_sweep_whose_p_is_not_its_target_is_a_config_error[p]",
    ),
    Mutant(
        "src/blochqst/transfer.py",
        "left, right = min(0, p) - margin,",
        "left, right = -margin,",
        "a leftward transfer laid out as a rightward one: its target falls off the chain",
        "tests/test_cli.py::test_validate_transfer_force_sign",
    ),
    Mutant(
        "src/blochqst/transfer.py",
        "        if self.gauss.center != 0:\n            raise",
        "        if False:\n            raise",
        "a packet off site 0 is planned: it lands off the target it is scored at",
        "tests/test_transfer.py::test_transfer_plan_refuses_a_packet_off_site_0",
    ),
    Mutant(
        "src/blochqst/evolution.py",
        "dgemm(1.0, x.T, v).T",
        "dgemm(1.0, x.T, v, trans_b=1).T",
        "eigenbasis coefficients taken with V, not its transpose",
        "tests/test_acceptance.py::test_criterion_01_arrival_mean_position",
    ),
    Mutant(
        "src/blochqst/evolution.py",
        "        from scipy.linalg.lapack import dstevd\n",
        "        from scipy.linalg.lapack import dstev as dstevd\n",
        "the fallback through scipy.linalg diagonalizes with dstev, not dstevd: other last bits",
        "tests/test_evolution.py::test_the_fallback_through_scipy_linalg_gives_the_same_bits",
    ),
    Mutant(
        "src/blochqst/evolution.py",
        "    if not np.isfinite(amps).all():\n",
        "    if False:\n",
        "a NaN amplitude is propagated: the chain is diagonalized and NaN amplitudes come back",
        "tests/test_evolution.py::"
        "test_propagate_refuses_bad_amplitudes_before_it_diagonalizes[nan]",
    ),
    Mutant(
        "src/blochqst/evolution.py",
        "    if info != 0:\n",
        "    if False:\n",
        "a failed dstevd is taken for a spectrum",
        "tests/test_evolution.py::test_a_failed_dstevd_raises_linalgerror",
    ),
    Mutant(
        "src/blochqst/evolution.py",
        "_ORACLE_STEP_BUDGET = 2.0",
        "_ORACLE_STEP_BUDGET = 16.0",
        "Taylor segments eight times longer: 64 terms no longer converge them",
        "tests/test_acceptance.py::test_criterion_05_dual_route_evolution_agreement",
    ),
    Mutant(
        "src/blochqst/evolution.py",
        '        else:\n            raise ArithmeticError(f"Taylor segment did not converge',
        '        if False:\n            raise ArithmeticError(f"Taylor segment did not converge',
        "a Taylor segment cut at the term cap is returned as if it had converged",
        "tests/test_evolution.py::test_oracle_refuses_a_segment_that_does_not_converge",
    ),
    Mutant(
        "src/blochqst/bessel.py",
        "(odd_negated, half) if x > 0.0",
        "(half, odd_negated) if x > 0.0",
        "the row of a positive argument negates odd positive orders, not odd negative ones",
        "tests/test_acceptance.py::test_criterion_04_free_propagator_cross_check",
    ),
    Mutant(
        "src/blochqst/analytic.py",
        "        if not math.isfinite(self.bloch_period):\n",
        "        if False:\n",
        "a Bloch period that overflows is planned: the run fails at its infinite arrival time",
        "tests/test_analytic.py::test_a_bloch_period_that_overflows_is_refused",
    ),
    Mutant(
        "src/blochqst/transfer.py",
        "    arrival_time(chain)  # refuses a Bloch period or arrival phases E t that overflow",
        "    pass  # refuses a Bloch period or arrival phases E t that overflow",
        "a sweep plans a column with no arrival time: the CLI fails at run time, not at planning",
        "tests/test_cli.py::test_a_bloch_period_that_overflows_is_a_config_error[sweep]",
    ),
    Mutant(
        "src/blochqst/chain.py",
        "    bound = float(np.abs(diagonal).max()) + 2 * float(np.abs(off_diagonal).max())\n",
        "    bound = float(np.abs(diagonal).max())\n",
        "the time rule leaves out the hopping: an untilted chain's phases overflow to NaN",
        "tests/test_cli.py::"
        "test_a_stop_time_whose_phases_overflow_is_a_config_error[evolve-hopping]",
    ),
    Mutant(
        "src/blochqst/evolution.py",
        "    times = check_times(h, [t])\n"
        "    re, im = _evolved(h, *_coefficients(h, amplitudes), times)\n",
        "    coeffs = _coefficients(h, amplitudes)\n"
        "    re, im = _evolved(h, *coeffs, check_times(h, [t]))\n",
        "propagate checks its time after the eigenbasis coefficients: a refused time diagonalizes",
        "tests/test_evolution.py::test_a_refused_propagation_never_diagonalizes",
    ),
    Mutant(
        "src/blochqst/cli.py",
        'lengths = _parsed("t_stop", partial(_time_grid, leg, 0.0, steps=steps), params)',
        'lengths = np.linspace(0.0, params["t_stop"], steps)',
        "a route with an explicit t_stop never checks its legs' phases: it fails at run time",
        "tests/test_cli.py::test_a_stop_time_whose_phases_overflow_is_a_config_error[route]",
    ),
    Mutant(
        "src/blochqst/transfer.py",
        "    if not (p >= 1 and float(p).is_integer()):\n",
        "    if not p >= 1:\n",
        "plan_transfer takes a fractional p: 40.5 plans a transfer to site 40",
        "tests/test_transfer.py::test_plan_transfer_refuses_a_site_that_is_not_an_integer[40.5]",
    ),
    Mutant(
        "src/blochqst/transfer.py",
        '        store_integers(self, "delta", "center")\n',
        "",
        "a fractional delta is planned: its packet is not normalized on the chain's integer sites",
        "tests/test_transfer.py::"
        "test_gaussian_spec_refuses_a_width_or_centre_that_is_not_an_integer[kwargs0-delta]",
    ),
    Mutant(
        "src/blochqst/chain.py",
        '        store_integers(self, "left", "right", "target")\n',
        "",
        "a fractional ChainSpec label is accepted: -3.5 ... 3 is a chain of 7.5 sites",
        "tests/test_chain.py::test_chain_spec_refuses_a_site_label_that_is_not_an_integer[left]",
    ),
    Mutant(
        "src/blochqst/chain.py",
        "        if not (np.isfinite(self.diagonal).all()"
        " and np.isfinite(self.off_diagonal).all()):\n"
        '            raise ValueError("Hamiltonian entries must be finite")\n',
        "",
        "a NaN Hamiltonian is built: the time rule blames the time for its NaN bound",
        "tests/test_chain.py::test_hamiltonian_matrix_storage_checks",
    ),
    Mutant(
        "src/blochqst/cli.py",
        "    derived, results, files = config.job()\n"
        "    outdir = Path(config.out_dir)\n"
        "    outdir.mkdir(parents=True, exist_ok=True)\n",
        "    outdir = Path(config.out_dir)\n"
        "    outdir.mkdir(parents=True, exist_ok=True)\n"
        "    derived, results, files = config.job()\n",
        "cli.run makes --out before the command computes: a failed run leaves a directory",
        "tests/test_cli.py::test_a_fault_while_computing_writes_nothing",
    ),
    Mutant(
        "src/blochqst/transfer.py",
        "        if self.beta == math.inf:\n",
        "        if False:\n",
        "an infinite beta is accepted: its packet meets -inf * 0 at the centre and is NaN",
        "tests/test_transfer.py::test_gaussian_spec_refuses_a_beta_that_is_not_finite",
    ),
    Mutant(
        "src/blochqst/transfer.py",
        '    target, delta = as_integer(target, "target"), as_integer(delta, "delta")\n',
        "    target, delta = int(target), int(delta)\n",
        "a fractional scoring window is truncated: target 0.5 is scored at site 0",
        "tests/test_transfer.py::test_scoring_windows_take_integral_labels",
    ),
    Mutant(
        "src/blochqst/transfer.py",
        'deltas = [as_integer(d, f"delta {d!r}") for d in deltas.tolist()]',
        "deltas = [int(d) for d in deltas.tolist()]",
        "a sweep truncates a fractional delta: 3.5 runs and is reported as 3",
        "tests/test_transfer.py::test_sweep_refuses_a_fractional_delta_before_any_column_runs",
    ),
    Mutant(
        "src/blochqst/transfer.py",
        "    if wide is not None:\n",
        "    if False:\n",
        "a sweep takes a delta no chain holds: 1e30 overflows int64 with OverflowError",
        "tests/test_transfer.py::"
        "test_sweep_refuses_a_delta_no_chain_holds_before_any_column_runs[1e+30]",
    ),
    Mutant(
        "src/blochqst/transfer.py",
        '    p = as_integer(p, "p")',
        "    pass",
        "a sweep keeps a float p: 10.0 is written as 10.0 and 10.5 runs as failed cells",
        "tests/test_transfer.py::"
        "test_sweep_takes_an_integral_p_as_an_int_and_refuses_a_fractional_one",
    ),
    Mutant(
        "src/blochqst/chain.py",
        'arr = np.array(getattr(record, name), dtype=dtype, order="K")',
        'arr = np.asarray(getattr(record, name), dtype=dtype, order="K")',
        "freeze keeps a read-only input: made writable again, its changes reach the record",
        "tests/test_frozen.py::test_a_read_only_input_is_copied_too",
    ),
    Mutant(
        "src/blochqst/evolution.py",
        "    eigenvalues.flags.writeable = eigenvectors.flags.writeable = False",
        "    pass",
        "dstevd's arrays left writable: the spectrum refuses them, and nothing propagates",
        "tests/test_evolution.py::test_a_spectrum_keeps_dstevds_eigenvectors_as_returned",
    ),
    Mutant(
        "src/blochqst/cli.py",
        "    derived, results, files = config.job()\n",
        "    derived, results, files = _COMMANDS[config.command].plan(config.parameters)()\n",
        "run plans again: every run types, lays out and checks its parameters twice",
        "tests/test_cli.py::test_each_subcommand_plans_once[evolve]",
    ),
    Mutant(
        "src/blochqst/cli.py",
        "np.linspace(*check_times(h, [start, stop]), steps)",
        "np.linspace(start, *check_times(h, [stop]), steps)",
        "a grid's start goes unchecked: linspace meets a span that overflows (RuntimeWarning)",
        "tests/test_cli.py::test_evolve_times_obey_the_libraries_time_rule[overflowing-span]",
    ),
    Mutant(
        "src/blochqst/evolution.py",
        "        if self.eigenvalues.flags.writeable or self.eigenvectors.flags.writeable:\n"
        '            raise ValueError("eigenvalues and eigenvectors must be read-only")\n',
        "",
        "a spectrum keeps a writable array it never copied: its holder can change it",
        "tests/test_frozen.py::test_a_spectrum_refuses_writable_arrays[eigenvectors]",
    ),
    Mutant(
        "src/blochqst/polarization.py",
        "[[float(c.real) + 0.0, float(c.imag) + 0.0] for c in self.components]",
        "[[float(c.real), float(c.imag)] for c in self.components]",
        "a qubit's signed zero is written as -0.0 in a manifest",
        "tests/test_cli.py::test_a_polarized_manifest_holds_no_negative_zero[signed]",
    ),
    Mutant(
        "src/blochqst/transfer.py",
        "    if len({(plan.gauss, plan.chain.coupling, plan.chain.spacing) for plan in plans}) != 1:\n",
        "    if False:\n",
        "a route runs legs of different packets or media, and route.json writes the first leg's",
        "tests/test_transfer.py::"
        "test_route_refuses_legs_without_one_packet_and_medium_before_any_runs",
    ),
    Mutant(
        "src/blochqst/transfer.py",
        '    if ratio == 0:\n        raise ValueError("ratio must be nonzero")\n',
        "",
        "check_sweep takes a zero ratio: the CLI prints float division by zero, not the rule",
        "tests/test_cli.py::test_sweep_refusals_come_from_the_librarys_rule[zero-ratio]",
    ),
    Mutant(
        "src/blochqst/evolution.py",
        'separators=(separator, ": ")',
        'separators=(", ", ": ")',
        "a JSON number list written on one line, not one value per indented line",
        "tests/test_evolution.py::test_write_json_is_the_stdlib_indented_layout",
    ),
    Mutant(
        "src/blochqst/transfer.py",
        "    target = chain.target\n",
        "    target = chain.target + 1\n",
        "the arrival rule scores every packet one site past its target, a sweep's cells too",
        "tests/test_transfer.py::test_sweep_cells_are_the_single_packet_transfers",
    ),
    Mutant(
        "src/blochqst/transfer.py",
        "    check_unit_norms(np.sqrt(probabilities.sum(axis=1)))\n",
        "",
        "the arrival rule scores arrived packets that are not of unit norm, a sweep's columns too",
        "tests/test_transfer.py::test_a_sweep_refuses_an_arrived_column_off_unit_norm",
    ),
    Mutant(
        "src/blochqst/transfer.py",
        "traj.final[:, None], gauss.delta)",
        "psi0.amplitudes[:, None], gauss.delta)",
        "a route leg is scored where its packet starts, not at its trajectory's final time",
        "tests/test_transfer.py::test_every_route_leg_is_scored_by_the_arrival_rule[readme]",
    ),
    Mutant(
        "src/blochqst/cli.py",
        "traj.final[:, None], window)",
        "traj.final[:, None], plan.gauss.delta)",
        "the CLI transfer scores the packet's delta, not its --window",
        "tests/test_cli.py::test_a_transfer_run_scores_its_window_by_the_arrival_rule[20]",
    ),
    Mutant(
        "src/blochqst/evolution.py",
        "times[-1:])  # alone",
        "times[:1])  # alone",
        "a trajectory keeps its first state as its final one",
        "tests/test_evolution.py::test_a_trajectory_keeps_its_final_state[101]",
    ),
    Mutant(
        "src/blochqst/transfer.py",
        "    _check_phases(t, ends, [chain.coupling / 4.0])\n",
        "",
        "a plan's arrival time is not checked: phases that overflow on it exit 2, not 1",
        "tests/test_cli.py::test_every_time_grid_a_planner_builds_is_checked_whole[transfer]",
    ),
    Mutant(
        "src/blochqst/transfer.py",
        "np.array([chain.left, chain.right]",
        "np.array([chain.left, chain.left]",
        "the arrival phase rule bounds the tilt at the left end only, short of the target's side",
        "tests/test_cli.py::test_every_time_grid_a_planner_builds_is_checked_whole[route]",
    ),
    Mutant(
        "src/blochqst/cli.py",
        "    return check_times(h, np.linspace(*check_times(h, [start, stop]), steps))",
        "    return np.linspace(*check_times(h, [start, stop]), steps)",
        "an explicit grid's ends are checked, the grid is not: a subnormal t_stop exits 2, not 1",
        "tests/test_cli.py::test_every_time_grid_a_planner_builds_is_checked_whole[route-t-stop]",
    ),
    Mutant(
        "src/blochqst/chain.py",
        "hi - site_offset >= n_sites:",
        "hi - site_offset > n_sites:",
        "the site range rule reads a window one past the last site, cut short without a refusal",
        "tests/test_chain.py::test_every_site_range_is_read_by_one_rule[past-last-success_probability]",
    ),
    Mutant(
        "src/blochqst/cli.py",
        "    site_rows(chain.target - window, chain.target + window, chain.left, chain.n_sites)\n",
        "",
        "the CLI planner leaves the window unchecked: a window past the margin exits 2, not 1",
        "tests/test_cli.py::test_validate_window_cannot_exceed_margin[past-margin-transfer]",
    ),
    Mutant(
        "src/blochqst/evolution.py",
        "    if times.size % _TIME_BLOCK != 1:",
        "    if False:",
        "a trajectory's final state is read off its last block on every grid, not taken alone",
        "tests/test_cli.py::test_each_time_block_is_taken_out_of_the_eigenbasis_once[transfer-8]",
    ),
]


def check_texts(root: Path) -> list[str]:
    """One line per mutant whose old text is not once in its file or whose test file is missing."""
    problems = []
    for k, m in enumerate(MUTANTS, start=1):
        count = (root / m.file).read_text().count(m.old)
        if count != 1:
            problems.append(f"mutant {k} ({m.file}): old text found {count} times, need 1")
        test_file = m.test.split("::")[0]
        if not (root / test_file).is_file():
            problems.append(f"mutant {k} ({m.file}): test file {test_file} not found")
    return problems


def run_pytest(tree: Path, args: list[str]) -> tuple[int, str]:
    """pytest with args on the copy; (exit code, its first FAILED/ERROR line)."""
    env = dict(os.environ, PYTHONPATH=str(tree / "src"))
    where = subprocess.run(
        [sys.executable, "-c", "import blochqst; print(blochqst.__file__)"],
        cwd=tree, env=env, capture_output=True, text=True, check=True,
    ).stdout.strip()
    if not Path(where).resolve().is_relative_to(tree.resolve()):
        raise RuntimeError(f"blochqst imports from {where}, not from the copy")
    proc = subprocess.run(
        [sys.executable, *PYTEST, *args], cwd=tree, env=env, capture_output=True, text=True
    )
    lines = proc.stdout.splitlines()
    first = next((ln for ln in lines if ln.startswith(("FAILED", "ERROR"))), "")
    return proc.returncode, first or (lines[-1] if lines else "")


def run(mutant: Mutant | None) -> tuple[int, str, float, str]:
    """Copy the tree, apply the mutant (None: none), run its test, then tier-1 unless it failed.

    Returns (pytest exit code, first FAILED/ERROR line, seconds, "test" or "tier-1").
    """
    start = time.perf_counter()
    with tempfile.TemporaryDirectory(prefix="mutate-") as tmp:
        tree = Path(tmp)
        for name in TREE:
            src = ROOT / name
            if src.is_dir():
                ignore = shutil.ignore_patterns("__pycache__", "*.egg-info")
                shutil.copytree(src, tree / name, ignore=ignore)
            else:
                shutil.copy2(src, tree / name)
        if mutant is not None:
            path = tree / mutant.file
            path.write_text(path.read_text().replace(mutant.old, mutant.new))
            code, line = run_pytest(tree, [mutant.test])
            if code == 1:  # only a failed test kills; not a collection or usage error
                return code, line, time.perf_counter() - start, "test"
        code, line = run_pytest(tree, TIER1)
    return code, line, time.perf_counter() - start, "tier-1"


def main() -> int:
    problems = check_texts(ROOT)
    if problems:
        print("\n".join(problems))
        return 1
    code, line, seconds, _ = run(None)
    print(f"control: exit {code} in {seconds:.1f} s: {line}", flush=True)
    if code != 0:
        print("tier-1 fails without a mutant; nothing can be judged")
        return 1
    survivors = errors = 0
    total = time.perf_counter()
    for k, m in enumerate(MUTANTS, start=1):
        code, line, seconds, by = run(m)
        if code == 0:
            verdict, survivors = "SURVIVED", survivors + 1
        elif code == 1:
            verdict = f"killed by {by}"
        else:  # interrupted, internal or usage error: not a verdict on the mutant
            verdict, errors = f"ERROR (pytest exit {code})", errors + 1
        print(f"{k:2d} {verdict:15s} {seconds:5.1f} s  {m.file}: {m.why}\n   {line}", flush=True)
    print(
        f"{len(MUTANTS)} mutants, {survivors} survived, {errors} errors,"
        f" {time.perf_counter() - total:.0f} s"
    )
    return 0 if survivors == errors == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
