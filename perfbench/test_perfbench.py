"""Checks on the benchmark itself: tracer counts, seed handling, missing sources.

    python3 -m pytest perfbench
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import pytest

import run

workloads = run.import_workloads()

import blochqst  # noqa: E402 - imported from src/ by import_workloads
import tracer  # noqa: E402
from tracer import Tracer, layer_stats  # noqa: E402

# eigendecompositions per invocation at the nominal inputs: the transfer
# evolves twice, polarized runs 101 samples + the final state on 2 blocks,
# the 20x20 sweep diagonalizes per cell, route once per leg
EIGENDECOMPOSE_COUNTS = {"transfer": 2, "polarized": 204, "sweep": 400, "route_csv": 4}


@pytest.mark.parametrize("command,expected", EIGENDECOMPOSE_COUNTS.items())
def test_eigendecompose_counts_per_invocation(tmp_path, command, expected):
    argv = workloads.paper_cli_inputs(0)["commands"][command]
    with Tracer() as t:
        workloads._cli(argv, tmp_path)
    stats = layer_stats(t.spans)
    assert stats["evolution.eigendecompose_calls"] == expected
    assert stats["cli.main_calls"] == 1
    assert t.absent == []


def test_spans_nest_under_the_cli_invocation(tmp_path):
    argv = workloads.paper_cli_inputs(0)["commands"]["sweep"]
    with Tracer() as t:
        workloads._cli(argv, tmp_path)
    assert t.spans[0].name == "cli.main" and t.spans[0].parent is None
    assert all(s.parent is not None for s in t.spans[1:])
    stats = layer_stats(t.spans)
    assert stats["transfer.sweep_cells"] == 400
    assert stats["transfer.sweep_failed_cells"] == 0
    assert stats["cli.sweep_s"] == pytest.approx(stats["cli.main_s"])
    assert stats["transfer.write_bytes"] == (tmp_path / "sweep.csv").stat().st_size


def test_tracer_restores_every_patched_reference():
    originals = (blochqst.evolve, blochqst.transfer.evolve, blochqst.polarization.evolve)
    with Tracer():
        assert blochqst.transfer.evolve is not originals[1]
        assert blochqst.transfer.evolve is blochqst.polarization.evolve
    assert (blochqst.evolve, blochqst.transfer.evolve, blochqst.polarization.evolve) == originals


def test_missing_public_names_are_reported_not_raised(monkeypatch):
    spec = {name: dict(functions) for name, functions in tracer.SPEC.items()}
    spec["evolution"]["folded_away"] = ("evolution.folded_away", {})
    spec["no_such_module"] = {"anything": ("no_such_module.anything", {})}
    monkeypatch.setattr(tracer, "SPEC", spec)
    with Tracer() as t:
        blochqst.bessel_jn(3, 2.0)
    assert t.absent == ["evolution.folded_away", "no_such_module.anything"]
    assert layer_stats(t.spans)["bessel.bessel_jn_calls"] == 1


def _work_counts(name: str, seed: int, tmp_path: Path) -> dict:
    workload = workloads.WORKLOADS[name]
    t = Tracer()
    _, _, attempted, failures = run.run_pass(
        workload, workload.inputs(seed), tmp_path / f"{name}-{seed}", t
    )
    assert failures == []
    work = ("_calls", "_samples", "_cells", "_legs")
    counts = {k: v for k, v in layer_stats(t.spans).items() if k.endswith(work)}
    return {"attempted": attempted, **counts}


@pytest.mark.parametrize("name", run.WORKLOAD_NAMES)
def test_every_seed_does_the_same_work(tmp_path, name):
    nominal = _work_counts(name, 0, tmp_path / "a")
    assert _work_counts(name, 0, tmp_path / "b") == nominal
    assert _work_counts(name, 987654, tmp_path / "c") == nominal


def test_seed_zero_replays_the_readme_commands():
    commands = workloads.paper_cli_inputs(0)["commands"]
    assert commands["transfer"] == ["transfer", "--p", "40", "--beta", "0.01", "--delta", "16"]
    assert commands["route_csv"][1] == "--forces=-0.0125,-0.016667,-0.02,-0.025"
    assert "0.001:0.1:20" in commands["sweep"] and "1:20" in commands["sweep"]
    assert json.loads(commands["polarized"][-1]) == [[0.6, 0.0], [0.0, 0.8]]
    assert not any("--workers" in arg for argv in commands.values() for arg in argv)


def test_checkout_without_sources_exits_without_a_result(tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(run, "SRC", tmp_path / "src")
    assert run.main(["--workload", "paper_cli", "--seed", "0", "--seconds", "1"]) == 2
    assert capsys.readouterr().out == ""


if __name__ == "__main__":
    sys.exit(pytest.main([__file__, "-q"]))
