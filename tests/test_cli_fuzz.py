"""CLI fuzz: every config runs to finite, normalized outputs or is a config error.

Configs go through a --config file, so flags and files share one path.  Most
drawn values are valid; each parameter sometimes takes a value the program
must refuse, such as a tilt too weak to place its target on any chain.
"""

import contextlib
import io
import json
import math
import tempfile
from pathlib import Path

import numpy as np
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from blochqst.cli import main

FUZZ = settings(
    max_examples=150,
    derandomize=True,
    deadline=None,
    database=None,
    suppress_health_check=[HealthCheck.too_slow],
)


def _mostly(valid, *rare):
    """Nineteen draws in twenty from valid, otherwise one of the rare values."""
    return st.integers(0, 19).flatmap(lambda k: st.sampled_from(rare) if k == 19 else valid)


# null means "not given": the parameter keeps its default
# 1.7e308 overflows the phases E t of a half period (as --coupling 1.7e308 --p 1 does)
_COUPLING = _mostly(st.sampled_from([1.0, 0.5, 2.0]), 0.0, -1.0, None, 1.7e308)
_SPACING = _mostly(st.sampled_from([1.0, 0.5, 2.0]), 0.0, -1.0)
_BETA = _mostly(st.floats(0.001, 0.5), 0.0, -0.01)
_DELTA = _mostly(st.integers(0, 20), -1, 500)
_T_STEPS = _mostly(st.integers(2, 20), 1, 10**12, None)
_FORMAT = st.sampled_from(["csv", "json"])
# tilts too weak for any chain (the target would lie past MAX_SITES or at infinity)
_TINY_FORCES = (1e-12, -1e-12, -1e-250, 1e-320)


def _reject_constant(name):
    raise ValueError(f"non-finite {name} in a manifest")


def _profiles(path: Path) -> np.ndarray:
    """Probability rows, one per time sample, from a trajectory file in either format."""
    if path.suffix == ".json":
        return np.asarray(json.loads(path.read_text())["profiles"], dtype=float)
    data = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
    return data[:, 2].reshape(-1, np.unique(data[:, 1]).size)


def _sweep_cells(path: Path) -> np.ndarray:
    """Success probabilities of a sweep file, NaN where a cell failed."""
    if path.suffix == ".json":
        rows = json.loads(path.read_text())["success_probability"]
        return np.asarray([[np.nan if v is None else v for v in row] for row in rows])
    return np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)[:, 2]


def _run(command: str, params: dict, fmt: str) -> dict | None:
    """The manifest of a run that exits 0, None for a config error."""
    with tempfile.TemporaryDirectory() as tmp:
        config = Path(tmp) / "config.json"
        config.write_text(json.dumps({"command": command, "parameters": params}))
        out = Path(tmp) / "out"
        err = io.StringIO()
        with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
            code = main([command, "--config", str(config), "--out", str(out), "--format", fmt])
        assert code in (0, 1), err.getvalue()
        if code == 1:
            assert err.getvalue().startswith("config error:"), err.getvalue()
            assert not out.exists()
            return None
        text = (out / "manifest.json").read_text()
        manifest = json.loads(text, parse_constant=_reject_constant)
        for name in manifest["outputs"]:
            if name.startswith("trajectory"):
                profiles = _profiles(out / name)
                assert np.all(np.isfinite(profiles))
                np.testing.assert_allclose(profiles.sum(axis=1), 1.0, rtol=0, atol=1e-9)
            elif name.startswith("sweep"):
                cells = _sweep_cells(out / name)
                assert np.all(np.isnan(cells) | ((cells >= 0) & (cells <= 1 + 1e-9)))
                assert np.isnan(cells).sum() == manifest["results"]["failed_cells"]
        return manifest


@FUZZ
@given(
    use_p=st.booleans(),
    p=_mostly(st.integers(25, 120), 0, -3, 20_000),
    force=_mostly(st.floats(-0.04, -0.008), 0.0, 0.05, *_TINY_FORCES),
    beta=_BETA,
    delta=_DELTA,
    margin=_mostly(st.one_of(st.none(), st.integers(21, 50)), 0, 5),
    window=_mostly(st.none(), -1, 3, 10**6),
    t_steps=_T_STEPS,
    coupling=_COUPLING,
    spacing=_SPACING,
    fmt=_FORMAT,
)
def test_transfer_configs(
    use_p, p, force, beta, delta, margin, window, t_steps, coupling, spacing, fmt
):
    params = {"beta": beta, "delta": delta, "margin": margin, "window": window}
    params.update(t_steps=t_steps, coupling=coupling, spacing=spacing)
    params["p" if use_p else "force"] = p if use_p else force
    _run("transfer", params, fmt)


@st.composite
def _qubit_pairs(draw):
    """A payload [[re, im], [re, im]] of unit norm and any global phase.

    One draw in ten is scaled off unit norm, and one in ten has a boolean part.
    """
    parts = draw(st.lists(st.floats(-1.0, 1.0), min_size=4, max_size=4))
    norm = math.sqrt(sum(v * v for v in parts))
    if norm < 0.1:
        parts, norm = [1.0, 0.0, 0.0, 0.0], 1.0
    parts = [v / norm for v in parts]
    flaw = draw(st.integers(0, 9))
    if flaw == 8:
        scale = draw(st.sampled_from([0.0, 0.5, 1.001]))
        parts = [scale * v for v in parts]
    elif flaw == 9:
        parts[draw(st.integers(0, 3))] = draw(st.booleans())
    return [parts[:2], parts[2:]]


# misshapen and JSON-text payloads, and the default
_QUBIT = _mostly(_qubit_pairs(), [[1.0, 0.0]], [1.0, 0.0], "[[0.6, 0.0], [0.0, 0.8]]", None)


@FUZZ
@given(
    use_p=st.booleans(),
    p=_mostly(st.integers(25, 120), 0, -3, 20_000),
    force=_mostly(st.floats(-0.04, -0.008), 0.0, 0.05, *_TINY_FORCES),
    beta=_BETA,
    delta=_DELTA,
    margin=_mostly(st.one_of(st.none(), st.integers(21, 50)), 0, 5),
    window=_mostly(st.none(), -1, 3, 10**6),
    qubit=_QUBIT,
    t_steps=_T_STEPS,
    coupling=_COUPLING,
    spacing=_SPACING,
    fmt=_FORMAT,
)
def test_polarized_configs(
    use_p, p, force, beta, delta, margin, window, qubit, t_steps, coupling, spacing, fmt
):
    params = {"beta": beta, "delta": delta, "margin": margin, "window": window, "qubit": qubit}
    params.update(t_steps=t_steps, coupling=coupling, spacing=spacing)
    params["p" if use_p else "force"] = p if use_p else force
    manifest = _run("polarized", params, fmt)
    if manifest is not None:  # the chain never acts on the payload
        results = manifest["results"]
        np.testing.assert_allclose(results["bloch_out"], results["bloch_in"], rtol=0, atol=1e-12)


@FUZZ
@given(
    initial=_mostly(st.sampled_from(["sharp", "gaussian"]), "wide"),
    left=_mostly(st.integers(-300, -30), 0, 5, -20_000),
    right=_mostly(st.integers(30, 300), 0, -5),
    force=st.floats(-0.5, 0.5),
    beta=_BETA,
    delta=_DELTA,
    center=st.integers(-10, 10),
    t_start=_mostly(st.floats(0.0, 5.0), -1.0),
    t_stop=_mostly(st.floats(5.0, 60.0), 0.0, 1e-320),  # linspace to 1e-320 need not increase
    t_steps=_T_STEPS,
    coupling=_COUPLING,
    spacing=_SPACING,
    fmt=_FORMAT,
)
def test_evolve_configs(
    initial, left, right, force, beta, delta, center, t_start, t_stop, t_steps, coupling, spacing,
    fmt,
):
    params = {"initial": initial, "left": left, "right": right, "force": force}
    params.update(beta=beta, delta=delta, center=center, t_start=t_start, t_stop=t_stop)
    params.update(t_steps=t_steps, coupling=coupling, spacing=spacing)
    _run("evolve", params, fmt)


# each leg's target lies 5 to 400 sites away, so most legs clear their delta
_FORCE = _mostly(
    st.one_of(st.floats(-0.05, -0.01), st.floats(0.01, 0.05)), 0.0, 0.5, *_TINY_FORCES
)


@FUZZ
@given(
    forces=st.lists(_FORCE, min_size=1, max_size=4),
    as_text=st.booleans(),
    beta=_BETA,
    delta=_mostly(st.integers(0, 8), -1, 500),
    t_stop=_mostly(st.one_of(st.none(), st.floats(1.0, 100.0)), 0.0, -5.0, 1e-320),
    t_steps=_T_STEPS,
    coupling=_COUPLING,
    spacing=_SPACING,
    fmt=_FORMAT,
)
def test_route_configs(forces, as_text, beta, delta, t_stop, t_steps, coupling, spacing, fmt):
    params = {"forces": ",".join(map(repr, forces)) if as_text else forces}
    params.update(beta=beta, delta=delta, t_stop=t_stop, t_steps=t_steps)
    params.update(coupling=coupling, spacing=spacing)
    _run("route", params, fmt)


@st.composite
def _beta_grid(draw):
    lo, hi = draw(st.floats(0.001, 0.3)), draw(st.floats(0.001, 0.3))
    return f"{lo!r}:{hi!r}:{draw(st.integers(1, 4))}"


@st.composite
def _delta_grid(draw):
    lo = draw(st.integers(0, 20))
    return f"{lo}:{lo + draw(st.integers(0, 4))}"


@FUZZ
@given(
    ratio=_mostly(st.floats(-100.0, -5.0), 0.0, 40.0),
    p=_mostly(st.none(), 0, 25, 20_000),  # None: the site the ratio's tilt moves the packet to
    beta_grid=_mostly(_beta_grid(), "nope", "0.01:0.1:0", "-0.1:0.1:3", [0.01, 0.02]),
    delta_grid=_mostly(_delta_grid(), "3:1", "-1:2", "1:2600:2599", [2, 4]),
    coupling=_COUPLING,
    spacing=_SPACING,
    fmt=_FORMAT,
)
def test_sweep_configs(ratio, p, beta_grid, delta_grid, coupling, spacing, fmt):
    if p is None:
        p = round(-ratio / spacing) if ratio and spacing > 0 else 40
    params = {"ratio": ratio, "p": p, "beta_grid": beta_grid, "delta_grid": delta_grid}
    params.update(coupling=coupling, spacing=spacing)
    _run("sweep", params, fmt)
