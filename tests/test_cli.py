"""Command-line front end: validation, manifests, replay, exit codes."""

import json
import math
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

from blochqst.chain import MAX_PROFILE, MAX_SITES
from blochqst.cli import RunConfig, _parse_int_grid, _parse_linspace_grid, main, validate
from blochqst.transfer import plan_transfer, run_transfer, success_probability


# ----------------------------------------------------------------- validation


def test_validate_reference_transfer_is_clean():
    config = RunConfig("transfer", {"p": 40, "beta": 0.01, "delta": 16})
    assert validate(config) == []
    # defaults were filled in alongside the given values
    assert config.parameters["t_steps"] == 101
    assert config.parameters["coupling"] == 1.0
    assert config.parameters["force"] is None


def test_validate_margin_must_clear_the_support():
    config = RunConfig("transfer", {"p": 40, "beta": 0.01, "delta": 5, "margin": 4})
    problems = validate(config)
    assert any("margin" in p for p in problems)


def test_validate_transfer_force_sign(tmp_path):
    # a positive force runs the mirror image of the negative one; a zero force has no target
    results = {}
    for force in ("0.025", "-0.025"):
        out = tmp_path / force
        argv = ["transfer", "--force", force, "--beta", "0.01", "--delta", "16"]
        assert main(argv + ["--out", str(out)]) == 0
        results[force] = json.loads((out / "manifest.json").read_text())
    assert results["0.025"]["derived"]["chain"]["target"] == -40
    success = {force: m["results"]["success_probability"] for force, m in results.items()}
    assert success["0.025"] == pytest.approx(success["-0.025"], abs=1e-12)
    problems = validate(RunConfig("transfer", {"force": 0.0, "beta": 0.01, "delta": 5}))
    assert any("too weak" in p for p in problems)


def test_validate_exactly_one_destination():
    both = RunConfig("transfer", {"p": 40, "force": -0.025, "beta": 0.01, "delta": 5})
    assert any("exactly one" in p for p in validate(both))
    neither = RunConfig("transfer", {"beta": 0.01, "delta": 5})
    assert any("exactly one" in p for p in validate(neither))


def test_validate_missing_required_parameter():
    config = RunConfig("transfer", {"p": 40, "delta": 5})
    problems = validate(config)
    assert any("beta" in p and "missing" in p for p in problems)


def test_validate_unknown_parameter_is_reported():
    config = RunConfig("transfer", {"p": 40, "beta": 0.01, "delta": 5, "betta": 1.0})
    problems = validate(config)
    assert any("unknown parameter" in p and "betta" in p for p in problems)


@pytest.mark.parametrize("command", ["transfer", "polarized"])
@pytest.mark.parametrize("window", ["32", "33", "-1"], ids=["margin", "past-margin", "negative"])
def test_validate_window_cannot_exceed_margin(tmp_path, capsys, command, window):
    params = {"p": 40, "beta": 0.01, "delta": 5, "margin": 8, "window": 9}
    if command == "polarized":
        params["qubit"] = [[1, 0], [0, 0]]
    assert any("window" in p for p in validate(RunConfig(command, params)))
    # delta 16 lays out margins of 2 * 16 = 32 sites: the window is read on the planned chain
    out = tmp_path / "run"
    code = main([command, *_README_RUNS[command], f"--window={window}", "--out", str(out)])
    if window == "32":
        assert code == 0 and (out / "manifest.json").exists()
        return
    errors = capsys.readouterr().err.splitlines()
    assert code == 1 and not out.exists()
    assert errors and all(line.startswith("config error: window ") for line in errors)


def test_validate_sweep_grid_syntax():
    config = RunConfig(
        "sweep", {"ratio": -40.0, "p": 40, "beta_grid": "nope", "delta_grid": "1:10"}
    )
    problems = validate(config)
    assert any("beta_grid" in p for p in problems)


def test_validate_output_format():
    config = RunConfig(
        "transfer", {"p": 40, "beta": 0.01, "delta": 5}, out_format="xml"
    )
    assert any("format" in p for p in validate(config))
    for falsy in (False, 0, ""):
        config = RunConfig("transfer", {"p": 40, "beta": 0.01, "delta": 5}, out_format=falsy)
        assert validate(config) == [f"format must be csv or json, not {falsy!r}"]


def test_validate_unknown_command():
    assert validate(RunConfig("frobnicate", {})) == ["unknown command 'frobnicate'"]


def test_validate_evolve_gaussian_support():
    config = RunConfig("evolve", {"initial": "gaussian", "beta": 0.01, "delta": 50, "t_stop": 1.0})
    problems = validate(config)
    assert any("support" in p for p in problems)


# ------------------------------------------------------------------ manifests


def test_transfer_run_writes_manifest_and_outputs(tmp_path, capsys):
    out = tmp_path / "run"
    code = main(
        ["transfer", "--p", "40", "--beta", "0.01", "--delta", "16", "--out", str(out)]
    )
    assert code == 0
    printed = capsys.readouterr().out.strip()
    assert printed.endswith("manifest.json")

    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["command"] == "transfer"
    assert manifest["derived"]["chain"]["force"] == pytest.approx(-0.025)
    assert manifest["derived"]["gamma"] == pytest.approx(-20.0)
    assert manifest["derived"]["bloch_period"] == pytest.approx(80 * math.pi)
    assert manifest["derived"]["transfer_time"] == pytest.approx(40 * math.pi)
    assert manifest["results"]["success_probability"] >= 0.99
    assert manifest["outputs"] == ["trajectory.csv", "mean_position.csv"]
    for name in manifest["outputs"]:
        assert (out / name).exists()


@pytest.mark.parametrize("window,w", [([], 16), (["--window", "20"], 20)], ids=["delta", "20"])
def test_a_transfer_run_scores_its_window_by_the_arrival_rule(tmp_path, window, w):
    argv = ["transfer", "--p", "40", "--beta", "0.01", "--delta", "16", *window]
    assert main(argv + ["--out", str(tmp_path)]) == 0
    results = json.loads((tmp_path / "manifest.json").read_text())["results"]
    final, _ = run_transfer(plan_transfer(40, 0.01, 16))
    assert results["success_probability"] == success_probability(final, 40, w)
    assert results["window"] == w


_REPLAYED = {
    "transfer": ["--p", "20", "--beta", "0.02", "--delta", "8", "--t-steps", "11"],
    "evolve": ["--initial", "sharp", "--force=-0.05", "--left=-20", "--right", "20"]
    + ["--t-stop", "20", "--t-steps", "11"],
    "sweep": ["--ratio=-20", "--p", "20", "--beta-grid", "0.01:0.1:3", "--delta-grid", "2:4"],
    "route": ["--forces=-0.05,0.1", "--beta", "0.02", "--delta", "4", "--t-steps", "9"],
    "polarized": ["--p", "20", "--beta", "0.02", "--delta", "8", "--t-steps", "11"]
    + ["--qubit", "[[0.6, 0.0], [0.0, 0.8]]"],
}


@pytest.mark.parametrize("fmt", ["csv", "json"])
@pytest.mark.parametrize("command", list(_REPLAYED))
def test_manifest_replays_byte_identically(tmp_path, command, fmt):
    first = tmp_path / "first"
    second = tmp_path / "second"
    args = [command, *_REPLAYED[command], "--format", fmt]
    assert main(args + ["--out", str(first)]) == 0
    assert main([command, "--config", str(first / "manifest.json"), "--out", str(second)]) == 0
    listed = [json.loads((run / "manifest.json").read_text())["outputs"] for run in (first, second)]
    assert listed[0] == listed[1] and all(name.endswith(fmt) for name in listed[0])
    for name in listed[0]:
        assert (first / name).read_bytes() == (second / name).read_bytes(), name


# the README's example runs, each written to its own directory
_README_RUNS = {
    "transfer": ["--p", "40", "--beta", "0.01", "--delta", "16"],
    "evolve": ["--initial", "sharp", "--force", "-0.025", "--left", "-60", "--right", "60"]
    + ["--t-stop", "250", "--t-steps", "257"],
    "sweep": ["--ratio=-40", "--p", "40", "--beta-grid", "0.001:0.1:20", "--delta-grid", "1:20"],
    "route": ["--forces=-0.0125,-0.016667,-0.02,-0.025", "--beta", "0.01", "--delta", "10"],
    "polarized": ["--p", "40", "--beta", "0.01", "--delta", "16"]
    + ["--qubit", "[[0.6, 0.0], [0.0, 0.8]]"],
}


def _numbers(value, key=""):
    """(key, number) leaves of a manifest's results, in order."""
    if isinstance(value, dict):
        for name, item in value.items():
            yield from _numbers(item, name)
    elif isinstance(value, list):
        for item in value:
            yield from _numbers(item, key)
    else:
        yield key, value


def _assert_close(key: str, a, b) -> None:
    # mean positions reach |<n>| ~ 80, so they get the looser absolute bound
    tol = 1e-12 if "mean_position" in key else 1e-14
    assert abs(float(a) - float(b)) <= tol, (key, a, b)


def test_readme_runs_agree_on_another_blas_kernel(tmp_path):
    # byte-identical replay holds per BLAS kernel and thread count; across
    # them the numbers must still agree within the documented bounds
    other = tmp_path / "other"
    argvs = [[cmd, *args, "--out", str(other / cmd)] for cmd, args in _README_RUNS.items()]
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = dict(
        os.environ,
        OPENBLAS_CORETYPE="Prescott",
        OPENBLAS_NUM_THREADS="1",
        PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])),
    )
    code = (
        "import json, sys\n"
        "from blochqst.cli import main\n"
        "for argv in json.loads(sys.argv[1]):\n"
        "    assert main(argv) == 0\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code, json.dumps(argvs)],
        env=env,
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    for cmd, args in _README_RUNS.items():
        assert main([cmd, *args, "--out", str(tmp_path / "here" / cmd)]) == 0
        runs = tmp_path / "here" / cmd, other / cmd
        manifests = [json.loads((run / "manifest.json").read_text()) for run in runs]
        assert manifests[0]["outputs"] == manifests[1]["outputs"]
        leaves = [list(_numbers(m["results"])) for m in manifests]
        assert [key for key, _ in leaves[0]] == [key for key, _ in leaves[1]]
        for (key, a), (_, b) in zip(*leaves):
            _assert_close(key, a, b)
        for name in manifests[0]["outputs"]:
            rows = [(run / name).read_text().splitlines() for run in runs]
            assert rows[0][0] == rows[1][0] and len(rows[0]) == len(rows[1]), name
            column = rows[0][0].rsplit(",", 1)[1]
            for row_a, row_b in zip(rows[0][1:], rows[1][1:]):
                (labels_a, a), (labels_b, b) = row_a.rsplit(",", 1), row_b.rsplit(",", 1)
                assert labels_a == labels_b, (name, row_a, row_b)
                _assert_close(column, a, b)


def test_config_file_flags_take_precedence(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(
        json.dumps(
            {
                "command": "transfer",
                "parameters": {"p": 20, "beta": 0.02, "delta": 8, "t_steps": 11},
                "output": {"directory": str(tmp_path / "ignored"), "format": "csv"},
            }
        )
    )
    out = tmp_path / "actual"
    assert main(["transfer", "--config", str(cfg), "--p", "10", "--out", str(out)]) == 0
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["parameters"]["p"] == 10  # flag beat the file
    assert not (tmp_path / "ignored").exists()


def test_sweep_cli_produces_full_grid(tmp_path):
    out = tmp_path / "sweep"
    code = main(
        [
            "sweep",
            "--ratio=-60",
            "--p",
            "60",
            "--beta-grid",
            "0.001:0.1:20",
            "--delta-grid",
            "1:20",
            "--out",
            str(out),
        ]
    )
    assert code == 0
    lines = (out / "sweep.csv").read_text().splitlines()
    assert lines[0] == "beta,delta,success_probability"
    assert len(lines) == 1 + 20 * 20
    beta, delta, value = lines[1].split(",")
    assert float(beta) == 0.001 and int(delta) == 1
    assert 0.0 <= float(value) <= 1.0
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["derived"]["cells"] == 400
    assert manifest["results"]["failed_cells"] == 0
    assert manifest["results"]["best"]["delta"] == 20


def test_route_cli_writes_per_leg_trajectories(tmp_path):
    out = tmp_path / "route"
    code = main(
        [
            "route",
            "--forces=-0.1,-0.05,0.05,0.1",
            "--beta",
            "0.01",
            "--delta",
            "2",
            "--t-steps",
            "9",
            "--out",
            str(out),
        ]
    )
    assert code == 0
    manifest = json.loads((out / "manifest.json").read_text())
    assert [leg["target"] for leg in manifest["derived"]["legs"]] == [10, 20, -20, -10]
    assert len(manifest["results"]["success_probabilities"]) == 4
    for k in range(1, 5):
        assert (out / f"trajectory_{k}.csv").exists()
        assert f"trajectory_{k}.csv" in manifest["outputs"]
    header = (out / "route_mean_position.csv").read_text().splitlines()[0]
    assert header == "force,L,mean_position"


def test_polarized_cli_preserves_the_payload(tmp_path):
    out = tmp_path / "polarized"
    code = main(
        [
            "polarized",
            "--p",
            "40",
            "--beta",
            "0.01",
            "--delta",
            "16",
            "--qubit",
            "[[0.6, 0.0], [0.0, 0.8]]",
            "--t-steps",
            "5",
            "--out",
            str(out),
        ]
    )
    assert code == 0
    manifest = json.loads((out / "manifest.json").read_text())
    results = manifest["results"]
    assert results["capture_probability"] >= 0.99
    np.testing.assert_allclose(results["bloch_out"], results["bloch_in"], atol=1e-9)
    assert results["qubit_in"] == [[0.6, 0.0], [0.0, 0.8]]


@pytest.mark.parametrize(
    "qubit", ["[[0.6, 0.0], [0.0, 0.8]]", "[[-0.0, -0.0], [1.0, 0.0]]"], ids=["readme", "signed"]
)
def test_a_polarized_manifest_holds_no_negative_zero(tmp_path, qubit):
    # the README run's roundoff-level components, and a payload given with signed zeros
    out = tmp_path / "polarized"
    argv = ["polarized", "--p", "40", "--beta", "0.01", "--delta", "16", "--qubit", qubit]
    assert main(argv + ["--out", str(out)]) == 0
    results = json.loads((out / "manifest.json").read_text())["results"]
    signed = [(key, v) for key, v in _numbers(results) if v == 0 and math.copysign(1.0, v) < 0]
    assert signed == []


def test_evolve_json_output(tmp_path):
    out = tmp_path / "evolve"
    code = main(
        [
            "evolve",
            "--initial",
            "sharp",
            "--force",
            "-0.1",
            "--left",
            "-15",
            "--right",
            "15",
            "--t-stop",
            "10",
            "--t-steps",
            "5",
            "--format",
            "json",
            "--out",
            str(out),
        ]
    )
    assert code == 0
    payload = json.loads((out / "trajectory.json").read_text())
    assert len(payload["times"]) == 5
    assert len(payload["sites"]) == 31
    assert len(payload["profiles"]) == 5 and len(payload["profiles"][0]) == 31
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["outputs"] == ["trajectory.json"]


def test_sweep_json_failed_cell_is_null(tmp_path):
    out = tmp_path / "sweepjson"
    code = main(
        [
            "sweep",
            "--ratio=-40",
            "--p",
            "40",
            "--beta-grid",
            "0.01:0.01:1",
            "--delta-grid",
            "5:40:35",
            "--format",
            "json",
            "--out",
            str(out),
        ]
    )
    assert code == 0
    payload = json.loads((out / "sweep.json").read_text())
    assert payload["success_probability"][0][0] is not None
    assert payload["success_probability"][0][1] is None
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["results"]["failed_cells"] == 1


@pytest.mark.parametrize(
    "argv,expected",
    [
        (["transfer", "--p", "40", "--beta", "0.01", "--delta", "16"], 1),
        (["polarized", "--p", "40", "--beta", "0.01", "--delta", "16"], 1),
        (
            ["sweep", "--ratio=-40", "--p", "40", "--beta-grid", "0.001:0.1:20"]
            + ["--delta-grid", "1:20"],
            20,
        ),
        (["route", "--forces=-0.1,-0.05,0.05,0.1", "--beta", "0.01", "--delta", "2"], 4),
    ],
    ids=["transfer", "polarized", "sweep", "route"],
)
def test_one_eigendecomposition_per_chain(tmp_path, monkeypatch, argv, expected):
    import blochqst.evolution as evolution

    calls = []
    original = evolution.eigendecompose
    monkeypatch.setattr(evolution, "eigendecompose", lambda h: calls.append(h) or original(h))
    assert main(argv + ["--out", str(tmp_path)]) == 0
    assert len(calls) == expected


@pytest.mark.parametrize(
    "command,expected",
    [("transfer", 1), ("polarized", 1), ("route", 4), ("sweep", 20), ("evolve", 1)],
)
def test_each_packet_block_is_taken_into_the_eigenbasis_once(
    tmp_path, monkeypatch, command, expected
):
    # a trajectory keeps its final state: no run propagates its arrival a second time
    import blochqst.evolution as evolution

    calls, original = [], evolution._coefficients
    monkeypatch.setattr(evolution, "_coefficients", lambda *a: calls.append(a) or original(*a))
    assert main([command, *_README_RUNS[command], "--out", str(tmp_path)]) == 0
    assert len(calls) == expected


@pytest.mark.parametrize(
    "command,expected",
    [("transfer", 8), ("polarized", 8), ("route", 36), ("sweep", 20), ("evolve", 17)],
)
def test_each_time_block_is_taken_out_of_the_eigenbasis_once(
    tmp_path, monkeypatch, command, expected
):
    # a last block of times[-1] alone (129 and 257 samples) is the final state: not made twice
    import blochqst.evolution as evolution

    calls, original = [], evolution._evolved
    monkeypatch.setattr(evolution, "_evolved", lambda *a: calls.append(a) or original(*a))
    assert main([command, *_README_RUNS[command], "--out", str(tmp_path)]) == 0
    assert len(calls) == expected


@pytest.mark.parametrize("command", list(_REPLAYED))
def test_each_subcommand_plans_once(tmp_path, monkeypatch, command):
    import blochqst.cli as cli

    name, calls = f"_plan_{command}", []
    original = getattr(cli, name)

    def spy(params):
        calls.append(params)
        return original(params)

    # both ways to reach the planner: the command table and the module's name
    monkeypatch.setattr(cli, name, spy)
    monkeypatch.setitem(cli._COMMANDS, command, cli._COMMANDS[command]._replace(plan=spy))
    assert main([command, *_REPLAYED[command], "--out", str(tmp_path)]) == 0
    assert len(calls) == 1


@pytest.mark.parametrize("command", ["evolve", "transfer", "polarized"])
def test_each_run_builds_one_hamiltonian_in_its_planner(tmp_path, monkeypatch, command):
    import blochqst.cli as cli
    import blochqst.transfer as transfer

    calls, original = [], cli.build_tilted_hamiltonian

    def spy(chain):
        calls.append(chain)
        return original(chain)

    for module in (cli, transfer):  # a build in the run's library calls would count too
        monkeypatch.setattr(module, "build_tilted_hamiltonian", spy)
    args = cli.build_parser().parse_args([command, *_REPLAYED[command], "--out", str(tmp_path)])
    config = cli.build_config(args)
    assert validate(config) == [] and len(calls) == 1
    cli.run(config)
    assert len(calls) == 1


@pytest.mark.parametrize("command,expected", [("route", 2), ("sweep", 3)])
def test_a_route_or_sweep_builds_each_chains_hamiltonian_in_its_run_alone(
    tmp_path, monkeypatch, command, expected
):
    # their plans check each leg's and column's arrival time without a Hamiltonian
    import blochqst.cli as cli
    import blochqst.transfer as transfer

    calls, original = [], cli.build_tilted_hamiltonian

    def spy(chain):
        calls.append(chain)
        return original(chain)

    for module in (cli, transfer):
        monkeypatch.setattr(module, "build_tilted_hamiltonian", spy)
    args = cli.build_parser().parse_args([command, *_REPLAYED[command], "--out", str(tmp_path)])
    config = cli.build_config(args)
    assert validate(config) == [] and calls == []
    cli.run(config)
    assert len(calls) == len(set(calls)) == expected


@pytest.mark.parametrize("t_stop", [[], ["--t-stop", "140"]], ids=["arrival", "t-stop"])
def test_a_route_lays_out_each_leg_once(tmp_path, monkeypatch, t_stop):
    import blochqst.transfer as transfer

    calls = []
    original = transfer.plan_transfer_for_force
    monkeypatch.setattr(
        transfer, "plan_transfer_for_force", lambda *args: calls.append(args) or original(*args)
    )
    assert main(["route", *_README_RUNS["route"], *t_stop, "--out", str(tmp_path)]) == 0
    assert len(calls) == 4


# ----------------------------------------------------------------- exit codes


def test_exit_code_one_for_config_problems(tmp_path, capsys):
    assert main(["transfer"]) == 1
    assert "config error" in capsys.readouterr().err

    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"command": "sweep", "parameters": {}}))
    assert main(["transfer", "--config", str(cfg)]) == 1
    assert "config error" in capsys.readouterr().err


def test_exit_code_one_for_argparse_rejections(capsys):
    assert main(["transfer", "--no-such-flag"]) == 1
    assert main(["frobnicate"]) == 1
    capsys.readouterr()


def test_exit_code_two_for_runtime_failures(tmp_path, capsys):
    blocker = tmp_path / "blocker"
    blocker.write_text("a regular file where a directory is needed\n")
    out = blocker / "sub"
    code = main(
        ["transfer", "--p", "10", "--beta", "0.05", "--delta", "2", "--out", str(out)]
    )
    assert code == 2
    assert "runtime failure" in capsys.readouterr().err


def test_help_exits_cleanly(capsys):
    assert main(["--help"]) == 0
    assert "usage" in capsys.readouterr().out
    assert main(["transfer", "--help"]) == 0
    capsys.readouterr()


def _refused(capsys, argv) -> str:
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith("config error:")
    return err


def test_workers_option_is_refused(tmp_path, capsys):
    grid = ["--ratio=-40", "--p", "40", "--beta-grid", "0.01:0.02:2", "--delta-grid", "2:3"]
    assert main(["sweep", *grid, "--workers", "2", "--out", str(tmp_path / "flag")]) == 1
    capsys.readouterr()
    cfg = tmp_path / "manifest.json"
    params = {"ratio": -40, "p": 40, "beta_grid": "0.01:0.02:2", "delta_grid": "2:3", "workers": 1}
    cfg.write_text(json.dumps({"command": "sweep", "parameters": params}))
    err = _refused(capsys, ["sweep", "--config", str(cfg), "--out", str(tmp_path / "cfg")])
    assert "config error: unknown parameter 'workers'" in err.splitlines()[0]
    assert not (tmp_path / "cfg").exists()


def test_infinite_stop_time_is_refused(tmp_path, capsys):
    out = tmp_path / "evolve"
    err = _refused(capsys, ["evolve", "--t-stop", "inf", "--out", str(out)])
    assert "t_stop" in err
    assert not (out / "manifest.json").exists()


def test_nan_force_is_refused_by_evolve(tmp_path, capsys):
    argv = ["evolve", "--t-stop", "10", "--force", "nan", "--out", str(tmp_path)]
    assert "force" in _refused(capsys, argv)


def test_nan_force_is_refused_by_transfer(tmp_path, capsys):
    argv = ["transfer", "--force", "nan", "--beta", "0.01", "--delta", "4", "--out", str(tmp_path)]
    assert "force" in _refused(capsys, argv)


def test_force_too_weak_to_plan_is_refused(tmp_path, capsys):
    # -coupling / (spacing * force) overflows to infinity: no target can be derived
    out = ["--out", str(tmp_path / "o")]
    line = "config error: force -1e-320 too weak: derived target is not finite\n"
    for argv in (
        ["transfer", "--force=-1e-320", "--beta", "0.01", "--delta", "1"],
        ["route", "--forces=-0.1,-1e-320", "--beta", "0.01", "--delta", "1"],
    ):
        assert _refused(capsys, argv + out) == line
    # spacing * force underflows to zero instead of the quotient overflowing
    argv = ["transfer", "--force=-1e-200", "--spacing", "1e-200", "--beta", "0.01", "--delta", "1"]
    err = _refused(capsys, argv + out)
    assert err == "config error: force -1e-200 too weak: derived target is not finite\n"
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize(
    "argv",
    [
        ["route", "--forces=-1e308", "--beta", "0.01", "--delta", "2"],
        ["route", "--forces=-0.1,1e308", "--beta", "0.01", "--delta", "2"],
        ["sweep", "--ratio=1e-320", "--p", "40", "--beta-grid", "0.01:0.02:2"]
        + ["--delta-grid", "1:2"],
        ["evolve", "--force=-1e200", "--spacing", "1e200", "--t-stop", "1"],
    ],
    ids=["route", "route-second-leg", "sweep", "evolve"],
)
def test_a_tilt_not_finite_on_the_chain_is_a_config_error(tmp_path, capsys, argv):
    out = tmp_path / "o"
    err = _refused(capsys, argv + ["--out", str(out)])
    assert err == "config error: tilt force * spacing * n must be finite on every site\n"
    assert not out.exists()


@pytest.mark.parametrize(
    "argv",
    [
        ["transfer", "--p", "40", "--beta", "0.01", "--delta", "16"],
        ["polarized", "--p", "40", "--beta", "0.01", "--delta", "16"],
        ["route", "--forces=-2.5e-312", "--beta", "0.01", "--delta", "16"],
        ["sweep", "--ratio=-40", "--p", "40", "--beta-grid", "0.01:0.02:2", "--delta-grid", "5:6"],
    ],
    ids=["transfer", "polarized", "route", "sweep"],
)
def test_a_bloch_period_that_overflows_is_a_config_error(tmp_path, capsys, argv):
    # coupling 1e-310 puts the target at 40 under a force of 2.5e-312: 2 pi / 2.5e-312 = inf
    out = tmp_path / "o"
    err = _refused(capsys, argv + ["--coupling", "1e-310", "--out", str(out)])
    assert err == "config error: tilt too weak: the Bloch period is not finite\n"
    assert not out.exists()


@pytest.mark.parametrize(
    "argv,t_stop",
    [
        (["evolve", "--coupling", "4"], "1e308"),
        (["evolve", "--force", "1e300", "--left=-3", "--right", "1"], "1e8"),
        (["route", "--forces=-1e199", "--beta", "0.01", "--delta", "2"]
         + ["--coupling", "1e200"], "1e200"),
    ],
    ids=["evolve-hopping", "evolve-left-tilt", "route"],
)
def test_a_stop_time_whose_phases_overflow_is_a_config_error(tmp_path, capsys, argv, t_stop):
    # the library's time rule on the run's Hamiltonian: every |E| <= max|diagonal| +
    # 2 max|off_diagonal| = |F d| max(-left, right) + coupling / 2; E t past the float range is NaN
    out = tmp_path / "o"
    err = _refused(capsys, argv + ["--t-stop", t_stop, "--out", str(out)])
    line = f"t_stop: time {float(t_stop)!r} too long: phases E * t overflow on this Hamiltonian"
    assert err == f"config error: {line}\n"
    assert not out.exists()


def test_the_longest_stop_time_with_finite_phases_is_accepted():
    # coupling 4 bounds |E| by 2: 8e307 * 2 is still finite
    assert validate(RunConfig("evolve", {"coupling": 4, "t_stop": 8e307})) == []
    route = {"forces": "-1e199", "beta": 0.01, "delta": 2, "coupling": 1e200, "t_stop": 1e100}
    assert validate(RunConfig("route", route)) == []


@pytest.mark.parametrize(
    "t_start,t_stop,line",
    [
        ("5", "1", "times must be non-decreasing"),
        ("-1", "1", "times must be finite and non-negative"),
        # checked before the grid is laid out: linspace would overflow on this span
        ("-1e308", "1e308", "times must be finite and non-negative"),
    ],
    ids=["backwards", "negative", "overflowing-span"],
)
def test_evolve_times_obey_the_libraries_time_rule(tmp_path, capsys, t_start, t_stop, line):
    out = tmp_path / "o"
    argv = ["evolve", f"--t-start={t_start}", f"--t-stop={t_stop}", "--out", str(out)]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        err = _refused(capsys, argv)
    assert err == f"config error: t_stop: {line}\n"
    assert not out.exists()


_OVERFLOW = "time 1.8479956785822315e-308 too long: phases E * t overflow on this Hamiltonian"
_DECREASING = "t_stop: times must be non-decreasing"
_HUGE = ["--coupling", "1.7e308"]  # a half period of 1.8e-308, and |E| up to 2.55e308
_SITE_ONE = ["--p", "1", "--beta", "0.01", "--delta", "0", "--margin", "0"]


@pytest.mark.parametrize(
    "argv,line",
    [
        # linspace over a subnormal span is not non-decreasing
        (["evolve", "--t-stop", "1e-320", "--t-steps", "129"], _DECREASING),
        (["route", "--forces=-0.0125", "--beta", "0.01", "--delta", "10", "--t-stop", "1e-320"],
         _DECREASING),
        # the phases E t of the half-period grid overflow
        (["transfer", *_SITE_ONE, *_HUGE], _OVERFLOW),
        (["polarized", *_SITE_ONE, *_HUGE], _OVERFLOW),
        (["route", "--forces=-1.7e308", "--beta", "0.01", "--delta", "0", *_HUGE], _OVERFLOW),
        (["sweep", "--ratio=-1", "--p", "1", "--beta-grid", "0.01:0.02:2", "--delta-grid", "0:0"]
         + _HUGE, _OVERFLOW),
    ],
    ids=["evolve", "route-t-stop", "transfer", "polarized", "route", "sweep"],
)
def test_every_time_grid_a_planner_builds_is_checked_whole(tmp_path, capsys, argv, line):
    # each was a runtime failure (exit 2) before the planners checked the grid they built
    out = tmp_path / "o"
    assert _refused(capsys, argv + ["--out", str(out)]) == f"config error: {line}\n"
    assert not out.exists()


def test_a_route_may_stop_at_time_zero_but_not_before(tmp_path, capsys):
    route = ["route", "--forces=-0.1", "--beta", "0.05", "--delta", "2", "--t-steps", "3"]
    assert main(route + ["--t-stop", "0", "--out", str(tmp_path / "zero")]) == 0
    manifest = json.loads((tmp_path / "zero" / "manifest.json").read_text())
    assert 0 < manifest["results"]["success_probabilities"][0] < 1e-3  # the packet has not moved
    out = tmp_path / "negative"
    err = _refused(capsys, route + ["--t-stop=-1", "--out", str(out)])
    assert err == "config error: t_stop: times must be finite and non-negative\n"
    assert not out.exists()


@pytest.mark.parametrize(
    "beta_grid,delta_grid,line",
    [
        ("0.01:0.02:2", "1:2:3:4", "delta_grid: expected lo:hi[:step], got '1:2:3:4'"),
        ("0.01:0.02:2", "5", "delta_grid: expected lo:hi[:step], got '5'"),
        ("0.01:0.02:2", "1:5:0", "delta_grid: grid step must be positive"),
        ("0.01:0.02", "1:2", "beta_grid: expected start:stop:count, got '0.01:0.02'"),
    ],
    ids=["delta-four-parts", "delta-one-part", "delta-zero-step", "beta-two-parts"],
)
def test_malformed_grid_specs_are_config_errors(tmp_path, capsys, beta_grid, delta_grid, line):
    out = tmp_path / "o"
    argv = ["sweep", "--ratio=-40", "--p", "40", "--beta-grid", beta_grid]
    argv += ["--delta-grid", delta_grid, "--out", str(out)]
    assert _refused(capsys, argv) == f"config error: {line}\n"
    assert not out.exists()


def test_a_config_file_that_is_not_an_object_is_refused(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text("[1, 2]")
    out = tmp_path / "o"
    err = _refused(capsys, ["transfer", "--config", str(cfg), "--out", str(out)])
    assert err == "config error: config must be a JSON object\n"
    assert not out.exists()


@pytest.mark.parametrize(
    "block,value", [("parameters", [1, 2]), ("output", "x")], ids=["parameters", "output"]
)
def test_config_file_blocks_must_be_objects(tmp_path, capsys, block, value):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"command": "transfer", block: value}))
    out = tmp_path / "o"
    err = _refused(capsys, ["transfer", "--config", str(cfg), "--out", str(out)])
    assert err == f"config error: {block} must be a JSON object\n"
    assert not out.exists()


@pytest.mark.parametrize(
    "source,delta",
    [("config", 16.7), ("config", True), ("flag", "16.7"), ("flag", "true")],
    ids=["16.7", "True", "flag-16.7", "flag-true"],
)
def test_config_values_are_not_truncated(tmp_path, capsys, source, delta):
    out = ["--out", str(tmp_path / "o")]
    if source == "flag":
        argv = ["transfer", "--p", "40", "--beta", "0.01", "--delta", delta]
    else:
        cfg = tmp_path / "cfg.json"
        params = {"p": 40, "beta": 0.01, "delta": delta}
        cfg.write_text(json.dumps({"command": "transfer", "parameters": params}))
        argv = ["transfer", "--config", str(cfg)]
    err = _refused(capsys, argv + out)
    assert "delta" in err
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize(
    "source,delta", [("config", 16.0), ("flag", "16.0")], ids=["16.0", "flag-16.0"]
)
def test_integral_float_delta_runs_as_its_integer(tmp_path, source, delta):
    argv = ["transfer", "--p", "40", "--beta", "0.01", "--t-steps", "11"]
    assert main(argv + ["--delta", "16", "--out", str(tmp_path / "int")]) == 0
    if source == "flag":
        argv = argv + ["--delta", delta]
    else:
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"command": "transfer", "parameters": {"delta": delta}}))
        argv = argv + ["--config", str(cfg)]
    assert main(argv + ["--out", str(tmp_path / "o")]) == 0
    manifest = json.loads((tmp_path / "o" / "manifest.json").read_text())
    assert manifest["parameters"]["delta"] == 16
    assert isinstance(manifest["parameters"]["delta"], int)
    for name in ("trajectory.csv", "mean_position.csv"):
        assert (tmp_path / "o" / name).read_bytes() == (tmp_path / "int" / name).read_bytes()


@pytest.mark.parametrize(
    "argv",
    [
        ["transfer", "--p", "10", "--beta", "0.01", "--delta", "12"],
        ["transfer", "--force=-0.1", "--beta", "0.01", "--delta", "12"],
        ["polarized", "--p", "10", "--beta", "0.01", "--delta", "12"],
        # the leg's target, site 2, lies inside the packet's own support
        ["route", "--forces=-0.5", "--beta", "0.01", "--delta", "10"],
    ],
    ids=["transfer-p", "transfer-force", "polarized-p", "route-leg"],
)
def test_delta_beyond_the_target_is_a_config_error(tmp_path, capsys, argv):
    out = tmp_path / "o"
    err = _refused(capsys, argv + ["--out", str(out)])
    assert err == "config error: delta must be smaller than p\n"
    assert not out.exists()


@pytest.mark.parametrize(
    "extra,site",
    [(["--p", "25"], 40), (["--p", "40", "--spacing", "2"], 20)],
    ids=["p", "spacing"],
)
def test_a_sweep_whose_p_is_not_its_target_is_a_config_error(tmp_path, capsys, extra, site):
    out = tmp_path / "o"
    argv = ["sweep", "--ratio=-40", "--beta-grid", "0.01:0.01:1", "--delta-grid", "5:5"]
    err = _refused(capsys, argv + extra + ["--out", str(out)])
    assert err == f"config error: ratio -40.0 moves the packet to site {site}, not p = {extra[1]}\n"
    assert not out.exists()


def test_a_positive_ratio_sweeps_to_the_mirrored_site(tmp_path):
    # a positive force moves the packet left, as transfer --force 0.025 does
    grids = ["--beta-grid", "0.005:0.05:4", "--delta-grid", "1:6", "--format", "json"]
    cells = []
    for ratio, p in (("40", "-40"), ("-40", "40")):
        out = tmp_path / f"ratio{ratio}"
        assert main(["sweep", f"--ratio={ratio}", f"--p={p}", *grids, "--out", str(out)]) == 0
        cells.append(json.loads((out / "sweep.json").read_text())["success_probability"])
    mirrored, direct = np.asarray(cells, dtype=float)
    assert not np.isnan(mirrored).any()  # every cell ran
    np.testing.assert_allclose(mirrored, direct, rtol=0, atol=1e-12)


@pytest.mark.parametrize(
    "argv,key",
    [
        (["transfer", "--p", "40", "--beta", "0.01", "--delta", "16", "--format", "xml"], "format"),
        (["evolve", "--initial", "wide", "--t-stop", "1"], "initial"),
    ],
    ids=["format", "initial"],
)
def test_bad_flag_choices_are_config_errors(tmp_path, capsys, argv, key):
    assert key in _refused(capsys, argv + ["--out", str(tmp_path / "o")])


def test_grid_parsers_refuse_more_entries_than_max_sites():
    assert _parse_linspace_grid(f"0.01:0.1:{MAX_SITES}").size == MAX_SITES
    with pytest.raises(ValueError, match="entries"):
        _parse_linspace_grid(f"0.01:0.1:{MAX_SITES + 1}")
    assert _parse_int_grid(f"1:{MAX_SITES}").size == MAX_SITES
    with pytest.raises(ValueError, match="entries"):
        _parse_int_grid(f"1:{MAX_SITES + 1}")
    # the count honours the step: 0, 2, ..., 2 (MAX_SITES - 1) is just inside
    assert _parse_int_grid(f"0:{2 * MAX_SITES - 1}:2").size == MAX_SITES
    with pytest.raises(ValueError, match="entries"):
        _parse_int_grid(f"0:{2 * MAX_SITES}:2")


def test_oversized_inputs_are_refused_before_allocating(tmp_path, capsys):
    # each would build a chain or grid just past MAX_SITES
    out = ["--out", str(tmp_path / "o")]
    transfer = ["transfer", "--p", str(MAX_SITES), "--beta", "0.01", "--delta", "1"]
    assert "MAX_SITES" in _refused(capsys, transfer + out)
    sweep = ["sweep", "--ratio=-40", "--p", "40", "--delta-grid", "1:2"]
    grid = ["--beta-grid", f"0.01:0.1:{MAX_SITES + 1}"]
    assert "beta_grid" in _refused(capsys, sweep + grid + out)
    for argv in (
        ["route", f"--forces=-{1 / MAX_SITES!r}", "--beta", "0.01", "--delta", "1"],
        ["evolve", f"--left=-{MAX_SITES}", "--right", "0", "--t-stop", "1"],
        # the delta = 2600 column needs 40 + 4 * 2600 + 1 sites
        ["sweep", "--ratio=-40", "--p", "40", "--beta-grid", "0.01:0.02:2"]
        + ["--delta-grid", "1:2600:2599"],
    ):
        assert "MAX_SITES" in _refused(capsys, argv + out)
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize(
    "command,params",
    [
        ("evolve", {"left": -4095, "right": 0, "t_stop": 1.0}),
        ("transfer", {"p": 4091, "beta": 0.01, "delta": 1}),
        ("route", {"forces": [-1 / 4091], "beta": 0.01, "delta": 1}),
    ],
    ids=["evolve", "transfer", "route"],
)
def test_profiles_past_max_profile_are_refused(command, params):
    # each chain has 4096 sites, so 4096 samples fill MAX_PROFILE exactly
    assert validate(RunConfig(command, {**params, "t_steps": 4096})) == []
    problems = validate(RunConfig(command, {**params, "t_steps": 4097}))
    assert len(problems) == 1 and "MAX_PROFILE" in problems[0]
    assert MAX_PROFILE == 4096 * 4096


@pytest.mark.parametrize(
    "flags,message",
    [
        (
            ["--ratio=-40", "--beta-grid", "0.01:0.02:0"],
            "beta_grid and delta_grid must be non-empty 1d",
        ),
        (["--ratio", "0", "--beta-grid", "0.01:0.02:2"], "ratio must be nonzero"),
    ],
    ids=["empty-grid", "zero-ratio"],
)
def test_sweep_refusals_come_from_the_librarys_rule(tmp_path, capsys, flags, message):
    out = tmp_path / "o"
    argv = ["sweep", "--p", "40", "--delta-grid", "1:2", *flags, "--out", str(out)]
    assert _refused(capsys, argv) == f"config error: {message}\n"
    assert not out.exists()


def test_sweep_columns_past_max_profile_are_refused(tmp_path, capsys):
    # 10,001 packets on the 5,005-site column: only the planner runs
    out = tmp_path / "o"
    argv = ["sweep", "--ratio=-5000", "--p", "5000", "--beta-grid", "0.01:0.1:10001"]
    err = _refused(capsys, argv + ["--delta-grid", "1:1", "--out", str(out)])
    assert err == f"config error: 10001 x 5005 profile exceeds MAX_PROFILE = {MAX_PROFILE}\n"
    assert not out.exists()


def test_a_route_bounds_the_profiles_of_all_its_legs_together(tmp_path, capsys):
    # one 4,041-site leg at 4,096 samples fits MAX_PROFILE; two such legs do not
    leg = {"beta": 0.01, "delta": 10, "t_steps": 4096}
    assert validate(RunConfig("route", {"forces": [-0.00025], **leg})) == []
    out = tmp_path / "o"
    argv = ["route", "--forces=-0.00025,-0.00025", "--beta", "0.01", "--delta", "10"]
    err = _refused(capsys, argv + ["--t-steps", "4096", "--out", str(out)])
    assert err == f"config error: 4096 x 8082 profile exceeds MAX_PROFILE = {MAX_PROFILE}\n"
    assert not out.exists()


@pytest.mark.parametrize(
    "key,params",
    [
        ("beta_grid", {"beta_grid": [0.01] * (MAX_SITES + 1), "delta_grid": "1:2"}),
        ("delta_grid", {"beta_grid": "0.01:0.02:2", "delta_grid": [1] * (MAX_SITES + 1)}),
    ],
    ids=["beta_grid", "delta_grid"],
)
def test_config_file_grids_obey_the_flag_grids_entry_bound(tmp_path, capsys, key, params):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"command": "sweep", "parameters": {"ratio": -40, "p": 40, **params}}))
    out = tmp_path / "o"
    err = _refused(capsys, ["sweep", "--config", str(cfg), "--out", str(out)])
    assert err == f"config error: {key}: grid has more than {MAX_SITES} entries\n"
    assert not out.exists()
    assert _parse_linspace_grid([0.01] * MAX_SITES).size == MAX_SITES
    assert _parse_int_grid([1] * MAX_SITES).size == MAX_SITES


@pytest.mark.parametrize(
    "directory,message",
    [
        (5, "output.directory must be a string"),
        (["x"], "output.directory must be a string"),
        (True, "output.directory must be a string"),
        ("", "output directory must not be empty"),
    ],
    ids=["int", "list", "bool", "empty"],
)
def test_a_non_string_output_directory_is_a_config_error(
    tmp_path, capsys, monkeypatch, directory, message
):
    monkeypatch.chdir(tmp_path)
    cfg = tmp_path / "cfg.json"
    params = {"p": 40, "beta": 0.01, "delta": 16}
    cfg.write_text(json.dumps({"parameters": params, "output": {"directory": directory}}))
    err = _refused(capsys, ["transfer", "--config", str(cfg)])
    assert err == f"config error: {message}\n"
    assert [p.name for p in tmp_path.iterdir()] == ["cfg.json"]


@pytest.mark.parametrize(
    "output,flags,message",
    [
        ({"format": False}, [], "format must be csv or json, not False"),
        ({"format": 0}, [], "format must be csv or json, not 0"),
        ({"format": ""}, [], "format must be csv or json, not ''"),
        ({"directory": "", "format": False}, [], "output directory must not be empty"),
        ({}, ["--out", ""], "output directory must not be empty"),
        ({}, ["--format", ""], "format must be csv or json, not ''"),
        ({}, ["--out", "", "--format", ""], "output directory must not be empty"),
    ],
    ids=["file-false", "file-zero", "file-empty", "file-both", "flag-out", "flag-format", "flags"],
)
def test_a_falsy_output_setting_is_refused_not_read_as_unset(
    tmp_path, capsys, monkeypatch, output, flags, message
):
    # only an absent or null setting falls back to out/ and csv
    monkeypatch.chdir(tmp_path)
    cfg = tmp_path / "cfg.json"
    params = {"p": 40, "beta": 0.01, "delta": 16}
    cfg.write_text(json.dumps({"parameters": params, "output": output}))
    err = _refused(capsys, ["transfer", "--config", str(cfg), *flags])
    assert err.splitlines()[0] == f"config error: {message}"
    assert [p.name for p in tmp_path.iterdir()] == ["cfg.json"]


def test_a_null_output_setting_keeps_the_default(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    cfg = tmp_path / "cfg.json"
    params = {"p": 40, "beta": 0.01, "delta": 16, "t_steps": 3}
    cfg.write_text(json.dumps({"parameters": params, "output": {"directory": None, "format": None}}))
    assert main(["transfer", "--config", str(cfg)]) == 0
    manifest = json.loads((tmp_path / "out" / "manifest.json").read_text())
    assert manifest["output"] == {"directory": "out", "format": "csv"}


@pytest.mark.parametrize("source", ["flag", "file"])
def test_forces_obey_the_grid_entry_bound_before_any_leg_is_planned(tmp_path, capsys, source):
    forces = [-0.1] * (MAX_SITES + 1)
    leg = {"beta": 0.01, "delta": 1, "t_steps": 2}
    out = tmp_path / "o"
    if source == "flag":
        argv = ["route", "--forces=" + ",".join(map(str, forces)), "--beta", "0.01", "--delta", "1"]
        argv += ["--t-steps", "2"]
    else:
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"command": "route", "parameters": {"forces": forces, **leg}}))
        argv = ["route", "--config", str(cfg)]
    err = _refused(capsys, argv + ["--out", str(out)])
    assert err == f"config error: forces: grid has more than {MAX_SITES} entries\n"
    assert not out.exists()
    # MAX_SITES forces get past the list check: each 15-site leg is planned and fits
    assert validate(RunConfig("route", {"forces": forces[:MAX_SITES], **leg})) == []


def test_unbounded_time_steps_are_refused_before_running(tmp_path, capsys):
    out = tmp_path / "o"
    argv = ["transfer", "--p", "40", "--beta", "0.01", "--delta", "16"]
    err = _refused(capsys, argv + ["--t-steps", "1000000000000", "--out", str(out)])
    assert "MAX_PROFILE" in err
    assert not out.exists()


def test_a_single_time_step_is_refused(tmp_path, capsys):
    out = tmp_path / "o"
    argv = ["transfer", "--p", "40", "--beta", "0.01", "--delta", "16", "--t-steps", "1"]
    assert main(argv + ["--out", str(out)]) == 1
    captured = capsys.readouterr()
    assert captured.err == "config error: t_steps must be at least 2\n"
    assert captured.out == ""
    assert not out.exists()


def test_a_tilt_not_finite_on_the_left_end_alone_is_a_config_error(tmp_path, capsys):
    out = tmp_path / "o"
    argv = ["evolve", "--force", "1e308", "--left=-3", "--right", "1", "--t-stop", "1"]
    err = _refused(capsys, argv + ["--out", str(out)])
    assert err == "config error: tilt force * spacing * n must be finite on every site\n"
    assert not out.exists()


def test_integral_config_values_are_accepted():
    config = RunConfig("transfer", {"p": 40.0, "beta": 1, "delta": "16", "window": 2})
    assert validate(config) == []
    assert config.parameters["p"] == 40 and isinstance(config.parameters["p"], int)
    assert config.parameters["beta"] == 1.0 and isinstance(config.parameters["beta"], float)
    assert config.parameters["delta"] == 16


def test_non_finite_grids_forces_and_qubits_are_refused(tmp_path, capsys):
    out = ["--out", str(tmp_path)]
    sweep = ["sweep", "--ratio=-40", "--p", "40", "--delta-grid", "1:3"]
    assert "beta_grid" in _refused(capsys, sweep + ["--beta-grid", "0.01:nan:3"] + out)
    route_argv = ["route", "--forces=-0.1,inf", "--beta", "0.01", "--delta", "2"]
    assert "forces" in _refused(capsys, route_argv + out)
    polarized = ["polarized", "--p", "40", "--beta", "0.01", "--delta", "16"]
    assert "qubit" in _refused(capsys, polarized + ["--qubit", "[[NaN, 0], [0, 0]]"] + out)
    # booleans are refused in lists and qubit pairs as they are in scalars
    grid, qubit = [True, 0.01], [[True, False], [False, False]]
    for key, command, params in (
        ("forces", "route", {"forces": [True, -0.1], "beta": 0.01, "delta": 2}),
        ("beta_grid", "sweep", {"ratio": -40, "p": 40, "beta_grid": grid, "delta_grid": "1:3"}),
        ("qubit", "polarized", {"p": 40, "beta": 0.01, "delta": 16, "qubit": qubit}),
    ):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"command": command, "parameters": params}))
        target = tmp_path / "o"
        err = _refused(capsys, [command, "--config", str(cfg), "--out", str(target)])
        assert err == f"config error: {key}: expected a number, not a boolean\n"
        assert not target.exists()


def test_manifest_with_nan_is_a_runtime_failure(tmp_path, capsys, monkeypatch):
    import blochqst.cli as cli

    def nan_result():
        return {}, {"x": math.nan}, {"csv": [], "json": []}

    planned = cli._COMMANDS["evolve"]._replace(plan=lambda params: nan_result)
    monkeypatch.setitem(cli._COMMANDS, "evolve", planned)
    code = main(["evolve", "--t-stop", "1", "--out", str(tmp_path)])
    assert code == 2
    err = capsys.readouterr().err
    assert "runtime failure" in err
    assert "Out of range float values are not JSON compliant" in err
    assert not (tmp_path / "manifest.json").exists()


def test_a_fault_while_computing_writes_nothing(tmp_path, capsys, monkeypatch):
    import blochqst.cli as cli

    def failing():
        raise ArithmeticError("the run diverged")

    planned = cli._COMMANDS["evolve"]._replace(plan=lambda params: failing)
    monkeypatch.setitem(cli._COMMANDS, "evolve", planned)
    out = tmp_path / "out"
    assert main(["evolve", "--t-stop", "1", "--out", str(out)]) == 2
    assert capsys.readouterr().err == "runtime failure: the run diverged\n"
    assert not out.exists()
