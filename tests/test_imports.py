"""No process imports a scipy module: the first diagonalization loads its two extensions.

Those are scipy's compiled LAPACK and BLAS wrappers, loaded under their own
names (_flapack, _fblas), so scipy.linalg and its package never run.

Each case runs its code in a fresh interpreter, then reads which modules that
process has loaded; nothing here is timed.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

_SRC = str(Path(__file__).resolve().parent.parent / "src")

# prints the loaded scipy modules after the case's code has run
_REPORT = "\nimport sys\nprint(*sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))\n"


def _scipy_modules_after(code: str, cwd: Path) -> list[str]:
    path = os.pathsep.join(filter(None, [_SRC, os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-c", code + _REPORT],
        cwd=cwd,
        env=dict(os.environ, PYTHONPATH=path),
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.splitlines()[-1].split()


_NO_DIAGONALIZATION = {
    "import blochqst": "import blochqst",
    "import blochqst.cli": "import blochqst.cli",
    "--help": (
        "from blochqst import cli\n"
        "assert cli.main(['--help']) == 0\n"
        "for name in cli._COMMANDS:\n"
        "    assert cli.main([name, '--help']) == 0\n"
    ),
    "refused run": (
        "import os\n"
        "from blochqst import cli\n"
        "argv = ['transfer', '--p', '10', '--beta', '0.01', '--delta', '12', '--out', 'refused']\n"
        "assert cli.main(argv) == 1\n"
        "assert not os.path.exists('refused')\n"
    ),
    "bessel_jn": (
        "from blochqst import bessel_jn, free_propagator_element\n"
        "bessel_jn(50, 90.0)\n"
        "free_propagator_element(3, 0, 20.0, 1.0)\n"
    ),
    "plan and Hamiltonian": (
        "from blochqst import build_tilted_hamiltonian, plan_transfer, tilt_parameters\n"
        "plan = plan_transfer(40, 0.01, 16)\n"
        "tilt_parameters(plan.chain)\n"
        "build_tilted_hamiltonian(plan.chain)\n"
    ),
}


@pytest.mark.parametrize("code", _NO_DIAGONALIZATION.values(), ids=_NO_DIAGONALIZATION)
def test_paths_that_never_diagonalize_do_not_load_scipy(code, tmp_path):
    assert _scipy_modules_after(code, tmp_path) == []


def test_a_diagonalizing_run_loads_no_scipy_module(tmp_path):
    code = (
        "import sys\n"
        "from blochqst import plan_transfer, run_transfer\n"
        "_, success = run_transfer(plan_transfer(40, 0.01, 16))\n"
        "assert abs(success - 0.9994259062979233) < 1e-10, success\n"
        "assert {'_flapack', '_fblas'} <= set(sys.modules)\n"
    )
    assert _scipy_modules_after(code, tmp_path) == []
