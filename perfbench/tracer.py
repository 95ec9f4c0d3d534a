"""Traced CLI run: spans recorded from outside the package, then ``cli.main``.

    python perfbench/tracer.py SPANS_JSON BATCH_ID -- <parafreq cli arguments>

Installs timing wrappers around the public functions listed in ``SPANS``
and counters around the tiny hot callables listed in ``COUNTS``, runs
``parafreq.cli.main`` in this process, and writes every span to SPANS_JSON
once the run has ended.  The process exits with the CLI's exit code.

``from .x import y`` binds a function in every importing module, and check
tables capture functions in closures, so each wrapper is bound everywhere
the original is reachable in the package: module globals, module-level
dicts and lists, and closure cells of module-level functions and of the
callables those containers hold.

A span holds (id, name, parent id, thread id, batch id, wall start, wall
end, thread CPU start, thread CPU end).  Its parent is the innermost open
span on the same thread; the CLI runs scenarios on a thread pool, so self
times are taken from thread CPU time, which does not count the time a
thread waits for the interpreter lock while another runs.
"""

from __future__ import annotations

import functools
import itertools
import json
import os
import sys
import threading
import time
import traceback
import types

VERIFY_FUNCTIONS = tuple(
    "verify_" + check
    for check in (
        "frequency_monotonicity", "equality_case", "harnack", "harnack_printed",
        "weighted_monotonicity", "drift_bochner", "drift_bochner_verbatim", "general_bounds",
        "general_harnack", "eigenvalue_monotonicity", "selfsimilar_scaling", "quadrature_mass",
    )
)


def _file_bytes(args, kwargs, result):
    return os.path.getsize(args[1])


def _amplitudes(args, kwargs, result):
    field, grid = args[0], args[1]
    return len(grid.nodes) * len(field.modes)


def _rule_points(args, kwargs, result):
    return len(result.points)


def _point_evals(args, kwargs, result):
    coeffs, points = args[1], args[2]
    return len(points) * sum(1 for a in coeffs.values() if a != 0.0)


# span name -> amount recorder; the name is "<module>.<attribute path>"
SPANS = {
    "cli.main": None,
    "scenario.parse_config": None,
    "scenario.run_scenario": None,
    "scenario.emit_report_json": ("bytes", _file_bytes),
    "scenario.emit_trace_csv": ("bytes", _file_bytes),
    "scenario.emit_plot_script": ("bytes", _file_bytes),
    "evolution.evolve_exact_trajectory": ("amplitudes", _amplitudes),
    "evolution.evolve_forced": None,
    "evolution.forcing_bound_margin": None,
    "frequency.trace_from_trajectory": None,
    **{"verifiers." + name: None for name in VERIFY_FUNCTIONS},
    "backgrounds.quadrature": ("points", _rule_points),
    "backgrounds.geometry_at": None,
    "modes.combination_values": ("point_evals", _point_evals),
    "modes.combination_gradients": ("point_evals", _point_evals),
    "modes.combination_hessians": ("point_evals", _point_evals),
    "polynomials.AmbientPolynomial.eval": None,
    "polynomials.AmbientPolynomial.eval_gradient": None,
    "polynomials.AmbientPolynomial.eval_hessian": None,
}

# callables too small and too frequent to time: counted only
COUNTS = {
    "evolution.Forcing.rate_at": "evolution.forcing_rate_at",
    "evolution.ConstantRate.__call__": "evolution.rate_call",
    "evolution.SampledRate.__call__": "evolution.rate_call",
}


class Recorder:
    """Spans and counts kept in memory; each thread sums amounts into its own dict."""

    def __init__(self, batch_id: int):
        self.batch_id = batch_id
        self.spans: list[tuple] = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._per_thread: list[dict] = []
        self._ticks: dict[str, itertools.count] = {}

    def _state(self):
        local = self._local
        if not hasattr(local, "stack"):
            local.stack = [0]
            local.tid = threading.get_ident()
            local.counts = {}
            self._per_thread.append(local.counts)
        return local

    def span(self, name: str, fn, amount):
        spans = self.spans
        ids = self._ids
        batch_id = self.batch_id
        state_of = self._state
        perf, cpu = time.perf_counter, time.thread_time

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            state = state_of()
            stack = state.stack
            sid = next(ids)
            parent = stack[-1]
            stack.append(sid)
            w0, c0 = perf(), cpu()
            try:
                result = fn(*args, **kwargs)
            finally:
                c1, w1 = cpu(), perf()
                stack.pop()
                spans.append((sid, name, parent, state.tid, batch_id, w0, w1, c0, c1))
            if amount is not None:
                key = f"{name}.{amount[0]}"
                state.counts[key] = state.counts.get(key, 0) + amount[1](args, kwargs, result)
            return result

        wrapper.__perfbench_wrapper__ = True
        return wrapper

    def counter(self, key: str, fn):
        # next() on an itertools.count is one call under the interpreter lock, so no update is lost
        tick = self._ticks.setdefault(key, itertools.count())

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            next(tick)
            return fn(*args, **kwargs)

        wrapper.__perfbench_wrapper__ = True
        return wrapper

    def counts(self) -> dict:
        total = {key: next(tick) for key, tick in self._ticks.items()}
        for counts in self._per_thread:
            for key, value in counts.items():
                total[key] = total.get(key, 0) + value
        return total


def _owner(target: str):
    """(object holding the attribute, attribute name) for "<module>.<path>"."""
    module, *path = target.split(".")
    obj = sys.modules["parafreq." + module]
    for part in path[:-1]:
        obj = getattr(obj, part)
    return obj, path[-1]


def _rebind_cells(fn, original, wrapper) -> None:
    for cell in getattr(fn, "__closure__", None) or ():
        try:
            contents = cell.cell_contents
        except ValueError:  # empty cell
            continue
        if contents is original:
            cell.cell_contents = wrapper


def _rebind(modules, original, wrapper) -> None:
    for module in modules:
        for key, value in list(vars(module).items()):
            if value is original:
                setattr(module, key, wrapper)
                continue
            if getattr(value, "__perfbench_wrapper__", False):
                continue
            _rebind_cells(value, original, wrapper)
            if isinstance(value, dict):
                items = list(value.items())
            elif isinstance(value, list):
                items = list(enumerate(value))
            else:
                continue
            for k, item in items:
                if item is original:
                    value[k] = wrapper
                elif not getattr(item, "__perfbench_wrapper__", False):
                    _rebind_cells(item, original, wrapper)


def install(recorder: Recorder) -> list[str]:
    """Wrap every target; returns the targets the package no longer has."""
    import parafreq.cli  # noqa: F401  (imports every module of the package)

    modules = [m for name, m in list(sys.modules.items()) if name == "parafreq" or name.startswith("parafreq.")]
    missing = []
    for target, spec in [(t, ("span", a)) for t, a in SPANS.items()] + [(t, ("count", k)) for t, k in COUNTS.items()]:
        try:
            owner, attr = _owner(target)
            original = getattr(owner, attr)
        except (KeyError, AttributeError):
            missing.append(target)
            continue
        kind, extra = spec
        wrapper = recorder.span(target, original, extra) if kind == "span" else recorder.counter(extra, original)
        setattr(owner, attr, wrapper)
        if isinstance(owner, types.ModuleType):
            _rebind(modules, original, wrapper)
    return missing


def main(argv: list[str]) -> int:
    spans_path, batch_id, sep, *cli_args = argv
    if sep != "--":
        raise SystemExit("usage: tracer.py SPANS_JSON BATCH_ID -- <parafreq cli arguments>")
    recorder = Recorder(int(batch_id))
    missing = install(recorder)
    import parafreq.cli
    import parafreq.modes

    start = time.perf_counter()
    try:
        code = parafreq.cli.main(cli_args)
    except Exception:
        traceback.print_exc()
        code = 2
    end = time.perf_counter()
    cache = parafreq.modes.mode_function.cache_info()
    doc = {
        "exit_code": code,
        "main_wall": [start, end],
        "missing": missing,
        "counts": recorder.counts(),
        "mode_function_cache": {"hits": cache.hits, "misses": cache.misses},
        "spans": recorder.spans,
    }
    with open(spans_path, "w") as fh:
        json.dump(doc, fh)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
