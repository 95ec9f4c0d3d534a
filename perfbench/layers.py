"""Per-layer metrics from the span dumps that ``tracer.py`` writes.

Names are ``<module>.<function>.<stat>``.  ``calls`` counts spans, and
``self_s`` sums each span's thread CPU time minus the CPU time of its child
spans on the same thread.  The other counts (``bytes``, ``points``,
``amplitudes``, ``point_evals``, ``rate_call.calls``) are recorded by the
wrappers themselves.
"""

from __future__ import annotations

from collections import defaultdict

from tracer import COUNTS, SPANS

# trace.coverage must stay in this range, or the spans no longer explain the run
COVERAGE_BOUNDS = (0.85, 1.15)

# stats that must repeat exactly across two traced runs of one seed
COUNT_SUFFIXES = (".calls", ".bytes", ".points", ".amplitudes", ".point_evals", ".outputs_changed")


def span_metrics(dump: dict) -> dict[str, float]:
    """calls and self_s for every span target, plus the wrapper-recorded counts."""
    child_cpu: dict[int, float] = defaultdict(float)
    for _, _, parent, _, _, _, _, c0, c1 in dump["spans"]:
        child_cpu[parent] += c1 - c0
    calls: dict[str, int] = defaultdict(int)
    self_s: dict[str, float] = defaultdict(float)
    for sid, name, _, _, _, _, _, c0, c1 in dump["spans"]:
        calls[name] += 1
        self_s[name] += (c1 - c0) - child_cpu.get(sid, 0.0)
    metrics: dict[str, float] = {}
    for name in SPANS:
        metrics[f"{name}.calls"] = calls[name]
        metrics[f"{name}.self_s"] = self_s[name]
    for key in set(COUNTS.values()):
        metrics[f"{key}.calls"] = dump["counts"].get(key, 0)
    for name, amount in SPANS.items():
        if amount is not None:
            metrics[f"{name}.{amount[0]}"] = dump["counts"].get(f"{name}.{amount[0]}", 0)
    # the two statistics that are not sums over spans
    total_self = sum(self_s.values())
    start, end = dump["main_wall"]
    metrics["trace.coverage"] = total_self / (end - start)
    cache = dump["mode_function_cache"]
    lookups = cache["hits"] + cache["misses"]
    metrics["modes.mode_function.hit_ratio"] = cache["hits"] / lookups if lookups else 0.0
    return metrics


def per_layer(runs: list[dict]) -> dict[str, float]:
    """Metrics named as in BENCHMARK.json, from the ``span_metrics`` of traced runs.

    Times and ratios are the mean of the runs; counts come from the first
    run (``nondeterministic_counts`` checks that they repeat).
    """
    first = runs[0]
    out = {}
    for key, value in first.items():
        if key.endswith("_s") or key in ("trace.coverage", "modes.mode_function.hit_ratio"):
            out[key] = sum(r[key] for r in runs) / len(runs)
        else:
            out[key] = value
    out["modes.point_evals"] = sum(
        first[f"modes.combination_{kind}.point_evals"] for kind in ("values", "gradients", "hessians")
    )
    scenarios = first["scenario.run_scenario.calls"]
    out["frequency.trace_per_scenario"] = first["frequency.trace_from_trajectory.calls"] / scenarios if scenarios else 0.0
    return out


def nondeterministic_counts(runs: list[dict]) -> dict[str, list]:
    """Count metrics whose values differ between traced runs of the same inputs."""
    return {
        key: [r[key] for r in runs]
        for key in runs[0]
        if key.endswith(COUNT_SUFFIXES) and len({r[key] for r in runs}) > 1
    }


def unreached(dumps: list[dict], must_reach: list[str]) -> list[str]:
    """Span targets a workload must reach that recorded no span in some run."""
    missing = set()
    for dump in dumps:
        recorded = {span[1] for span in dump["spans"]}
        missing.update(name for name in must_reach if name not in recorded)
    return sorted(missing)
