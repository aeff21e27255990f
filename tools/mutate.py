"""Mutation check: every mutant of src/ below must make tier-1 fail.

Each mutant is one text replacement in one file.  For each, the script copies
src/, tests/ and pyproject.toml to a temporary directory, applies the mutant
there and runs tier-1 on the copy with -x; the working tree is never edited.
An unmutated copy runs first, so a red tier-1 cannot pass for a killed mutant.
The script exits 1 when an old text is missing or not unique in its file, when
the control run fails, or when any mutant survives.

Run from anywhere, with the test dependencies installed:

    python tools/mutate.py

A killed mutant stops at its first failing test; a survivor costs a full
tier-1 run.
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
TIER1 = ["-m", "pytest", "-q", "-x", "-p", "no:cacheprovider", "--continue-on-collection-errors"]


class Mutant(NamedTuple):
    file: str  # relative to the repository root
    old: str  # must occur exactly once in the file
    new: str
    why: str  # the fault it stands for


MUTANTS = [
    Mutant(
        "src/blochqst/transfer.py",
        "    return round(displacement)",
        "    return int(displacement)",
        "route target truncated: the -0.016667 leg (59.9988) goes to site 59, not 60",
    ),
    Mutant(
        "src/blochqst/cli.py",
        'if params.get("t_steps", 2) < 2:',
        'if params.get("t_steps", 2) < 1:',
        "--t-steps 1 accepted: a trajectory of one sample",
    ),
    Mutant(
        "src/blochqst/chain.py",
        "self.force * self.spacing * max(-self.left, self.right)",
        "self.force * self.spacing * self.right",
        "finite-tilt check blind to a left end that alone overflows",
    ),
    Mutant(
        "src/blochqst/chain.py",
        "if not 0 < coupling < np.inf:",
        "if not 0 < coupling:",
        "an infinite coupling passes check_medium",
    ),
    Mutant(
        "src/blochqst/chain.py",
        "if not 0 < spacing < np.inf:",
        "if not 0 < spacing:",
        "an infinite spacing passes check_medium",
    ),
    Mutant(
        "src/blochqst/transfer.py",
        "return 0.5 * tilt_parameters(chain).bloch_period",
        "return tilt_parameters(chain).bloch_period",
        "transfer_time a full Bloch period: the packet is back at its start",
    ),
    Mutant(
        "src/blochqst/analytic.py",
        "return -2.0 * self.gamma",
        "return 2.0 * self.gamma",
        "displacement +2 gamma: the model profile moves the wrong way",
    ),
    Mutant(
        "src/blochqst/analytic.py",
        "return 2.0 * math.pi / self.bloch_frequency",
        "return math.pi / self.bloch_frequency",
        "Bloch period halved",
    ),
    Mutant(
        "src/blochqst/analytic.py",
        "return 2.0 * abs(self.gamma)",
        "return 2.0 * self.gamma",
        "oscillation amplitude negative for a tilt toward positive sites",
    ),
    Mutant(
        "src/blochqst/chain.py",
        "if self.dimension < 2:",
        "if self.dimension < 1:",
        "a one-site chain gets a Hamiltonian",
    ),
    Mutant(
        "src/blochqst/chain.py",
        "np.full(chain.n_sites - 1, -chain.coupling / 4.0)",
        "np.full(chain.n_sites - 1, -chain.coupling / 2.0)",
        "hopping -coupling/2: the band is twice as wide",
    ),
    Mutant(
        "src/blochqst/transfer.py",
        "if not (self.gauss.delta < self.margin or",
        "if not (self.gauss.delta <= self.margin or",
        "a margin equal to the truncation half-width is accepted",
    ),
    Mutant(
        "src/blochqst/transfer.py",
        "return float(np.sum(probabilities[lo : hi + 1]))",
        "return float(np.sum(probabilities[lo:hi]))",
        "collection window drops its last site",
    ),
    Mutant(
        "src/blochqst/evolution.py",
        "[cos * c_re + sin * c_im, cos * c_im - sin * c_re]",
        "[cos * c_re - sin * c_im, cos * c_im + sin * c_re]",
        "spectral propagation runs backwards in time, exp(+i E t)",
    ),
    Mutant(
        "src/blochqst/chain.py",
        "    @functools.cached_property",
        "    @property",
        "every propagation re-diagonalizes",
    ),
    Mutant(
        "src/blochqst/evolution.py",
        "import numpy as np\n\nfrom .chain import",
        "import numpy as np\nfrom scipy.linalg import eigh_tridiagonal\n\nfrom .chain import",
        "scipy imported with the package: --help and refused runs load it too",
    ),
    Mutant(
        "src/blochqst/cli.py",
        "    if not math.isfinite(number):\n",
        "    if math.isnan(number):\n",
        "an infinite CLI number is accepted",
    ),
    Mutant(
        "src/blochqst/cli.py",
        "    if not number.is_integer():\n",
        "    if False:\n",
        "a fractional integer parameter is truncated instead of refused",
    ),
    Mutant(
        "src/blochqst/evolution.py",
        "    amps = np.asarray(amplitudes, dtype=np.complex128)\n",
        "    h.spectrum\n    amps = np.asarray(amplitudes, dtype=np.complex128)\n",
        "a state of the wrong size diagonalizes the chain before it is refused",
    ),
    Mutant(
        "src/blochqst/cli.py",
        "sum(plan.chain.n_sites for plan in plans)",
        "max(plan.chain.n_sites for plan in plans)",
        "a route bounds each leg's profile, not all legs' together",
    ),
    Mutant(
        "src/blochqst/evolution.py",
        "return (np.abs(state.amplitudes) ** 2).reshape(state.n_sites, -1).sum(axis=1)",
        "return np.abs(state.amplitudes) ** 2",
        "a payload's profile keeps its columns: its mean position fails",
    ),
    Mutant(
        "src/blochqst/evolution.py",
        "    if v.ndim == 2:\n        diag, off = diag[:, None], off[:, None]\n",
        "",
        "the oracle's matvec pairs the diagonal with columns, not sites: a payload's energy fails",
    ),
    Mutant(
        "src/blochqst/chain.py",
        "pivot = state.amplitudes.flat[k]",
        "pivot = state.amplitudes[k]",
        "a payload's phase pivot read as a row: one phase per column, or an IndexError",
    ),
    Mutant(
        "src/blochqst/polarization.py",
        "    _check_payload(state)\n    if window_lo > window_hi:",
        "    if window_lo > window_hi:",
        "extract_qubit reads a state that is not two qubit columns",
    ),
    Mutant(
        "src/blochqst/transfer.py",
        "    if chain.target != p:\n",
        "    if False:\n",
        "a sweep scores its cells at a p its ratio's tilt does not move the packet to",
    ),
    Mutant(
        "src/blochqst/transfer.py",
        "left, right = min(0, p) - margin,",
        "left, right = -margin,",
        "a leftward transfer laid out as a rightward one: its target falls off the chain",
    ),
    Mutant(
        "src/blochqst/transfer.py",
        "        if self.gauss.center != 0:\n            raise",
        "        if False:\n            raise",
        "a packet off site 0 is planned: it lands off the target it is scored at",
    ),
    Mutant(
        "src/blochqst/evolution.py",
        "dgemm(1.0, x.T, v.T, trans_b=1).T",
        "dgemm(1.0, x.T, v.T).T",
        "eigenbasis coefficients taken with V, not its transpose",
    ),
    Mutant(
        "src/blochqst/evolution.py",
        "_ORACLE_STEP_BUDGET = 2.0",
        "_ORACLE_STEP_BUDGET = 16.0",
        "Taylor segments eight times longer: 64 terms no longer converge them",
    ),
    Mutant(
        "src/blochqst/evolution.py",
        '        else:\n            raise ArithmeticError(f"Taylor segment did not converge',
        '        if False:\n            raise ArithmeticError(f"Taylor segment did not converge',
        "a Taylor segment cut at the term cap is returned as if it had converged",
    ),
    Mutant(
        "src/blochqst/bessel.py",
        "(odd_negated, half) if x > 0.0",
        "(half, odd_negated) if x > 0.0",
        "the row of a positive argument negates odd positive orders, not odd negative ones",
    ),
    Mutant(
        "src/blochqst/analytic.py",
        "        if not math.isfinite(self.bloch_period):\n",
        "        if False:\n",
        "a Bloch period that overflows is planned: the run fails at its infinite arrival time",
    ),
    Mutant(
        "src/blochqst/transfer.py",
        "    tilt_parameters(chain)  # refuses a Bloch period that overflows\n",
        "",
        "a sweep plans a column with no arrival time: the CLI fails at run time, not at planning",
    ),
    Mutant(
        "src/blochqst/cli.py",
        " + chain.coupling / 2\n",
        "\n",
        "the phase bound leaves out the hopping: an untilted chain's phases overflow to NaN",
    ),
    Mutant(
        "src/blochqst/cli.py",
        '            _bound_phases(params["t_stop"], plan.chain)\n',
        "            pass\n",
        "a route with an explicit t_stop never bounds its legs' phases",
    ),
    Mutant(
        "src/blochqst/evolution.py",
        "np.where((high > low) |",
        "np.where((high > 1.02 * low) |",
        "a positive pivot must beat the most negative entry by 2%: near-ties flip eigenvectors",
    ),
]


def check_texts(root: Path) -> list[str]:
    """One line per mutant whose old text is missing or not unique in its file."""
    problems = []
    for k, m in enumerate(MUTANTS, start=1):
        count = (root / m.file).read_text().count(m.old)
        if count != 1:
            problems.append(f"mutant {k} ({m.file}): old text found {count} times, need 1")
    return problems


def run_tier1(tree: Path) -> tuple[int, str]:
    """Tier-1 on the copy; (pytest exit code, its first FAILED/ERROR line)."""
    env = dict(os.environ, PYTHONPATH=str(tree / "src"))
    where = subprocess.run(
        [sys.executable, "-c", "import blochqst; print(blochqst.__file__)"],
        cwd=tree, env=env, capture_output=True, text=True, check=True,
    ).stdout.strip()
    if not Path(where).resolve().is_relative_to(tree.resolve()):
        raise RuntimeError(f"blochqst imports from {where}, not from the copy")
    proc = subprocess.run(
        [sys.executable, *TIER1], cwd=tree, env=env, capture_output=True, text=True
    )
    lines = proc.stdout.splitlines()
    first = next((ln for ln in lines if ln.startswith(("FAILED", "ERROR"))), "")
    return proc.returncode, first or (lines[-1] if lines else "")


def run(mutant: Mutant | None) -> tuple[int, str, float]:
    """Copy the tree, apply the mutant (None: none) and run tier-1; (code, line, seconds)."""
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
        code, line = run_tier1(tree)
    return code, line, time.perf_counter() - start


def main() -> int:
    problems = check_texts(ROOT)
    if problems:
        print("\n".join(problems))
        return 1
    code, line, seconds = run(None)
    print(f"control: exit {code} in {seconds:.1f} s: {line}", flush=True)
    if code != 0:
        print("tier-1 fails without a mutant; nothing can be judged")
        return 1
    survivors = errors = 0
    total = time.perf_counter()
    for k, m in enumerate(MUTANTS, start=1):
        code, line, seconds = run(m)
        if code == 0:
            verdict, survivors = "SURVIVED", survivors + 1
        elif code == 1:
            verdict = "killed"
        else:  # interrupted, internal or usage error: not a verdict on the mutant
            verdict, errors = f"ERROR (pytest exit {code})", errors + 1
        print(f"{k:2d} {verdict:8s} {seconds:5.1f} s  {m.file}: {m.why}\n   {line}", flush=True)
    print(
        f"{len(MUTANTS)} mutants, {survivors} survived, {errors} errors,"
        f" {time.perf_counter() - total:.0f} s"
    )
    return 0 if survivors == errors == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
