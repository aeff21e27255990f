"""Span tracer that instruments blochqst's public functions from outside.

Every function named in SPEC is replaced, for the duration of a `Tracer`
context, at each `blochqst.*` module attribute that holds the same object.
`from .x import y` copies references between modules, so this also catches
calls made inside the package (for example `transfer.evolve` inside a sweep
cell).  Each call records a span: name, start, end, parent and a few
counts.  Spans stay in memory; `layer_stats` folds them into per-layer
metrics and `Tracer.dump` writes them out when the run ends.

A name in SPEC that the package no longer defines is listed in
`Tracer.absent` instead of failing the run, so the tracer survives
refactors that fold or rename public functions.
"""

from __future__ import annotations

import functools
import inspect
import json
import os
import sys
import time
from collections import defaultdict
from dataclasses import dataclass, field


PACKAGE = "blochqst"


def _file_bytes(bound, _result):
    return os.path.getsize(bound.arguments["path"])


def _subcommand(bound, _result):
    argv = bound.arguments.get("argv") or sys.argv[1:]
    return next((a for a in argv if not a.startswith("-")), "none")


# module -> {function: (span name, {attribute: extractor(bound args, result)})}.
# Functions sharing a span name are one layer operation (both Hamiltonian
# constructors, every CSV/JSON writer of a module, every packet constructor).
_WRITE = {"bytes": _file_bytes}
SPEC = {
    "chain": {
        "build_free_hamiltonian": ("chain.build_hamiltonian", {}),
        "build_tilted_hamiltonian": ("chain.build_hamiltonian", {}),
        "overlap": ("chain.overlap", {}),
        "align_global_phase": ("chain.align_global_phase", {}),
    },
    "bessel": {
        "bessel_jn": ("bessel.bessel_jn", {}),
    },
    "analytic": {
        "dispersion": ("analytic.dispersion", {}),
        "group_velocity": ("analytic.group_velocity", {}),
        "free_propagator_element": ("analytic.free_propagator_element", {}),
        "tilt_parameters": ("analytic.tilt_parameters", {}),
        "wannier_stark_state": ("analytic.wannier_stark_state", {}),
        "half_period_profile": ("analytic.half_period_profile", {}),
    },
    "evolution": {
        "eigendecompose": ("evolution.eigendecompose", {}),
        "evolve": ("evolution.evolve", {}),
        "evolve_oracle": ("evolution.evolve_oracle", {}),
        "trajectory": ("evolution.trajectory", {"samples": lambda b, _r: len(b.arguments["times"])}),
        "probability_profile": ("evolution.probability_profile", {}),
        "mean_position": ("evolution.mean_position", {}),
        "position_variance": ("evolution.position_variance", {}),
        "energy_expectation": ("evolution.energy_expectation", {}),
        "write_trajectory_csv": ("evolution.write", _WRITE),
        "write_mean_position_csv": ("evolution.write", _WRITE),
    },
    "transfer": {
        "sharp_state": ("transfer.prepare", {}),
        "gaussian_state": ("transfer.prepare", {}),
        "truncated_gaussian": ("transfer.prepare", {}),
        "success_probability": ("transfer.success_probability", {}),
        "plan_transfer": ("transfer.plan_transfer", {}),
        "run_transfer": ("transfer.run_transfer", {}),
        "sweep_beta_delta": (
            "transfer.sweep",
            {
                "cells": lambda _b, r: int(r.success.size),
                "failed_cells": lambda _b, r: len(r.errors),
            },
        ),
        "route": ("transfer.route", {"legs": lambda _b, r: len(r.legs)}),
        "write_sweep_csv": ("transfer.write", _WRITE),
        "write_sweep_json": ("transfer.write", _WRITE),
        "write_output_profile_csv": ("transfer.write", _WRITE),
        "write_route_mean_csv": ("transfer.write", _WRITE),
        "write_route_json": ("transfer.write", _WRITE),
    },
    "polarization": {
        "attach_polarization": ("polarization.attach_polarization", {}),
        "evolve_polarized": ("polarization.evolve_polarized", {}),
        "extract_qubit": ("polarization.extract_qubit", {}),
        "bloch_vector": ("polarization.bloch_vector", {}),
    },
    "cli": {
        "validate": ("cli.validate", {}),
        "run": ("cli.run", {}),
        "build_parser": ("cli.build_parser", {}),
        "build_config": ("cli.build_config", {}),
        "main": ("cli.main", {"group": _subcommand}),
    },
}


@dataclass
class Span:
    name: str
    start: float
    end: float = 0.0
    parent: int | None = None
    attrs: dict = field(default_factory=dict)


class Tracer:
    """Context manager that wraps SPEC's functions and collects their spans."""

    def __init__(self):
        self.spans: list[Span] = []
        self.absent: list[str] = []
        self.extractor_errors = 0
        self._stack: list[int] = []  # indices of the open spans
        self._patches: list[tuple[object, str, object]] = []

    def __enter__(self) -> "Tracer":
        modules = [
            m
            for name, m in list(sys.modules.items())
            if m is not None and (name == PACKAGE or name.startswith(PACKAGE + "."))
        ]
        for mod_name, functions in SPEC.items():
            module = sys.modules.get(f"{PACKAGE}.{mod_name}")
            for fn_name, (span_name, extractors) in functions.items():
                original = getattr(module, fn_name, None)
                if not callable(original):
                    self.absent.append(f"{mod_name}.{fn_name}")
                    continue
                wrapper = self._wrap(original, span_name, extractors)
                for m in modules:
                    for attr, value in list(vars(m).items()):
                        if value is original:
                            setattr(m, attr, wrapper)
                            self._patches.append((m, attr, original))
        return self

    def __exit__(self, *exc) -> None:
        for module, attr, original in reversed(self._patches):
            setattr(module, attr, original)
        self._patches.clear()

    def _wrap(self, fn, span_name: str, extractors: dict):
        signature = inspect.signature(fn) if extractors else None
        spans, stack = self.spans, self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = Span(span_name, clock(), parent=stack[-1] if stack else None)
            spans.append(span)
            stack.append(len(spans) - 1)
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = clock()
                stack.pop()
            for key, extract in extractors.items():
                try:
                    span.attrs[key] = extract(signature.bind(*args, **kwargs), result)
                except (AttributeError, KeyError, TypeError, ValueError, OSError):
                    self.extractor_errors += 1
            return result

        return traced

    def dump(self, path) -> None:
        """Write every recorded span as JSON (times relative to the first span)."""
        t0 = self.spans[0].start if self.spans else 0.0
        payload = {
            "absent": self.absent,
            "extractor_errors": self.extractor_errors,
            "spans": [
                {
                    "name": s.name,
                    "start": s.start - t0,
                    "end": s.end - t0,
                    "parent": s.parent,
                    "attrs": s.attrs,
                }
                for s in self.spans
            ],
        }
        with open(path, "w") as fh:
            json.dump(payload, fh)


def _nested_in_same_name(spans: list[Span], i: int) -> bool:
    p = spans[i].parent
    while p is not None:
        if spans[p].name == spans[i].name:
            return True
        p = spans[p].parent
    return False


def layer_stats(spans: list[Span]) -> dict[str, float]:
    """Fold spans into per-layer totals keyed like the benchmark's metrics.

    For a span name `layer.op`:
      `layer.op_calls`   number of spans;
      `layer.op_s`       inclusive time, counting only spans not nested in a
                         span of the same name (so grouped functions calling
                         each other are not counted twice);
      `layer.op_self_s`  time minus the time of direct child spans;
      `layer.op_<attr>`  sum of a numeric span attribute.
    Per layer, `layer.self_s` sums the self time of all its spans, and a
    string attribute `group` adds the span's time to `layer.<group>_s`.
    """
    stats: dict[str, float] = defaultdict(int)
    child_time = [0.0] * len(spans)
    for s in spans:
        if s.parent is not None:
            child_time[s.parent] += s.end - s.start
    for i, s in enumerate(spans):
        duration = s.end - s.start
        layer = s.name.split(".", 1)[0]
        self_time = duration - child_time[i]
        stats[f"{s.name}_calls"] += 1
        stats[f"{s.name}_self_s"] += self_time
        stats[f"{layer}.self_s"] += self_time
        if not _nested_in_same_name(spans, i):
            stats[f"{s.name}_s"] += duration
        for key, value in s.attrs.items():
            if key == "group":
                stats[f"{layer}.{value}_s"] += duration
            else:
                stats[f"{s.name}_{key}"] += value
    return dict(stats)
