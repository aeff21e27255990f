"""blochqst benchmark: runs one workload and prints its metrics.

    python3 perfbench/run.py --workload paper_cli --seed 0 --seconds 38 --trace 0

Run from the root of a checkout; the package is imported from `src/`, so
nothing needs installing.  One run:

1. runs one warm-up pass of the workload's operation list, then timed passes
   until `--seconds` is used up (at least three);
2. measures set-up (`setup_s`) between passes: a fresh interpreter imports
   blochqst (and with it numpy and scipy) and generates the workload's
   inputs; the median of several such probes is reported;
3. checks every operation's output after each pass; a raise or a failed
   check counts the operation as failed;
4. prints the environment as one JSON line and, as the last line, the
   result: `{"correct", "attempted", "failed", "metrics"}`.

With `--trace 0` the metrics are the end-to-end ones: per-pass wall and CPU
time (medians), set-up time, peak resident memory and the fraction of
operations that passed their checks.  With `--trace 1` untraced and traced
passes alternate; the metrics are per-layer totals of one pass (medians
over traced passes) and `trace.overhead_s`, the traced minus the untraced
median wall time.  Spans of the last traced pass and the full result go to
`.perfbench_out/` in the checkout.

Exits 2 without printing a result when the checkout has no blochqst sources.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

from tracer import Tracer, layer_stats

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"
SETUP_PROBES = 8
MIN_PASSES = 3
PROBE_TIMEOUT_S = 120

# workload and metric names, with their units, as BENCHMARK.json defines them
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOAD_NAMES = [w["name"] for w in SPEC["workloads"]]
END_TO_END = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
PER_LAYER = {m["name"]: m["unit"] for m in SPEC["per_layer"]}


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, default=0, help="0 gives the nominal inputs")
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def import_workloads():
    """Import the workloads (and blochqst) from this checkout's sources."""
    sys.path.insert(0, str(SRC))
    import blochqst
    import workloads

    if Path(blochqst.__file__).resolve().parent != SRC / "blochqst":
        raise ImportError(f"blochqst imported from {blochqst.__file__}, not from {SRC}")
    return workloads


def setup_probe(args) -> int:
    """Child mode: time the imports and input generation in this fresh process."""
    t0 = time.perf_counter()
    import_workloads().WORKLOADS[args.workload].inputs(args.seed)
    print(repr(time.perf_counter() - t0))
    return 0


def setup_sample(args) -> float:
    """Set-up time of one fresh interpreter, as the child process measured it."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--setup-probe"]
    cmd += ["--workload", args.workload, "--seed", str(args.seed)]
    done = subprocess.run(
        cmd, cwd=ROOT, capture_output=True, text=True, timeout=PROBE_TIMEOUT_S, check=True
    )
    return float(done.stdout.strip().splitlines()[-1])


def run_pass(workload, inputs, pass_dir: Path, tracer=None) -> tuple[float, float, int, list[str]]:
    """One pass of the operation list: (wall s, CPU s, attempted, failures)."""
    pass_dir.mkdir(parents=True)
    ops = workload.ops(inputs, pass_dir)
    outcomes = []
    with tracer if tracer is not None else contextlib.nullcontext():
        wall0, cpu0 = time.perf_counter(), time.process_time()
        for op in ops:
            try:
                outcomes.append((op, op.run(), None))
            except Exception as exc:  # noqa: BLE001 - a raising operation is a failed one
                outcomes.append((op, None, exc))
        wall, cpu = time.perf_counter() - wall0, time.process_time() - cpu0
    failures = []
    for op, value, exc in outcomes:
        if exc is None:
            try:
                op.check(value)
            except Exception as check_exc:  # noqa: BLE001 - any check error fails the op
                exc = check_exc
        if exc is not None:
            failures.append(f"{workload.name}/{op.name}: {type(exc).__name__}: {exc}")
    shutil.rmtree(pass_dir)
    return wall, cpu, len(ops), failures


def git_sha() -> str:
    """The commit, with `-dirty` when the tree has uncommitted changes."""
    if not (ROOT / ".git").exists():
        return "unknown"
    try:
        done = subprocess.run(
            ["git", "describe", "--always", "--dirty", "--abbrev=40"],
            cwd=ROOT, capture_output=True, text=True, timeout=30, check=True,
        )
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return done.stdout.strip()


def environment() -> dict:
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    nproc = len(os.sched_getaffinity(0))
    threads = {k: os.environ[k] for k in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS") if k in os.environ}
    return {
        "git_sha": git_sha(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": nproc,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "blas_threads": threads or f"unset (OpenBLAS default: nproc = {nproc})",
    }


def measure(args) -> dict:
    workloads = import_workloads()
    workload = workloads.WORKLOADS[args.workload]
    inputs = workload.inputs(args.seed)
    work_dir = OUT / f"work-{os.getpid()}"
    shutil.rmtree(work_dir, ignore_errors=True)
    attempted, failures = 0, []
    walls, cpus, setups, traced_walls, traced_stats = [], [], [], [], []
    last_tracer = None

    def one(tracer=None):
        nonlocal attempted
        wall, cpu, n_ops, failed = run_pass(workload, inputs, work_dir / f"pass-{attempted}", tracer)
        attempted += n_ops
        failures.extend(failed)
        return wall, cpu

    try:
        one()  # warm-up: fills caches and lazy imports; checked, not timed
        start = time.perf_counter()
        while True:
            round_start = time.perf_counter()
            wall, cpu = one()
            walls.append(wall)
            cpus.append(cpu)
            if args.trace:
                last_tracer = Tracer()
                traced_walls.append(one(last_tracer)[0])
                traced_stats.append(layer_stats(last_tracer.spans))
            # set-up probes are spread over the run, so they see the same
            # machine as the passes do
            elapsed = time.perf_counter() - start
            if not args.trace and len(setups) < SETUP_PROBES * elapsed / args.seconds:
                setups.append(setup_sample(args))
            round_s = time.perf_counter() - round_start
            if len(walls) >= MIN_PASSES and time.perf_counter() - start + round_s > args.seconds:
                break
        while not args.trace and len(setups) < SETUP_PROBES:
            setups.append(setup_sample(args))
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)

    if args.trace:
        units = PER_LAYER
        metrics = {
            name: statistics.median(stats.get(name, 0) for stats in traced_stats)
            for name in units
        }
        metrics["trace.overhead_s"] = statistics.median(traced_walls) - statistics.median(walls)
    else:
        units = END_TO_END
        metrics = {
            "wall_s": statistics.median(walls),
            "cpu_s": statistics.median(cpus),
            "setup_s": statistics.median(setups),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "ok_frac": (attempted - len(failures)) / attempted,
        }
    return {
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
        "failures": failures,
        "passes": {"untraced_wall_s": walls, "traced_wall_s": traced_walls, "setup_s": setups},
        "tracer": last_tracer,
    }


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "blochqst" / "__init__.py").is_file():
        print(f"perfbench: no blochqst sources under {SRC}", file=sys.stderr)
        return 2
    if args.setup_probe:
        return setup_probe(args)
    outcome = measure(args)
    env = environment()
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    OUT.mkdir(exist_ok=True)
    tracer = outcome.pop("tracer")
    if tracer is not None:
        tracer.dump(OUT / f"spans-{tag}.json")
        env["trace_absent"] = tracer.absent
    failures = outcome.pop("failures")
    passes = outcome.pop("passes")
    for line in failures:
        print(f"failed: {line}", file=sys.stderr)
    record = {"environment": env, "args": vars(args), "passes": passes, "failures": failures}
    with open(OUT / f"result-{tag}.json", "w") as fh:
        json.dump({**record, **outcome}, fh, indent=2)
    print(json.dumps({"environment": env}))
    print(json.dumps(outcome))
    return 0


if __name__ == "__main__":
    sys.exit(main())
