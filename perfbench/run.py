"""Outside-in benchmark of the parafreq command line.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout holding ``src/parafreq``; the program runs
from that source tree.  Load comes from one closed-loop client: one fresh
``python -m parafreq.cli`` process at a time, the next spawned after the
previous exits, with no threads added by the benchmark.  Each process runs
one batch of scenarios and writes all its output files, which is what a
user pays per command.  Batches repeat until their wall times add up to
``--seconds``; every batch's reports are checked against the expected
verdicts.

``--trace 0`` reports the end-to-end metrics, including ``setup_s`` from
several fresh import-and-parse processes.  ``--trace 1`` measures the same
untraced batches, then makes two traced runs (``tracer.py``) and reports the
per-layer metrics.  The last line of standard output is the result object;
the line before it holds the details (samples, failures, environment).
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

import layers
import verdicts
import workloads

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
WORKLOADS = ("suite", "spectral", "pointwise")
SETUP_PROBES = 7  # measured set-up processes per run, after one warm-up
TRACED_RUNS = 2
RUN_LIMIT_S = 170.0  # a run must end within 180 s
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def child_env(nproc: int) -> dict:
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    for var in BLAS_THREAD_VARS:
        current = env.get(var, "")
        cap = int(current) if current.isdigit() and int(current) > 0 else nproc
        env[var] = str(min(cap, nproc))
    return env


def cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def run_child(cmd: list[str], env: dict, log: Path, timeout: float) -> dict:
    """Spawn one process and wait for it; killed once ``timeout`` runs out."""
    with open(log, "wb") as out:
        spawned = time.perf_counter()
        proc = subprocess.Popen(cmd, stdout=out, stderr=subprocess.STDOUT, env=env, cwd=ROOT)
        signal.signal(signal.SIGALRM, lambda signum, frame: proc.kill())
        signal.setitimer(signal.ITIMER_REAL, max(timeout, 0.1))
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
        wall = time.perf_counter() - spawned
    proc.returncode = os.waitstatus_to_exitcode(status)
    return {"spawned": spawned, "wall_s": wall, "rss_mib": usage.ru_maxrss / 1024.0, "exit_code": proc.returncode}


def tail(values: list[float]) -> dict:
    """Highest percentile with at least ten samples beyond it; the maximum when none has."""
    ordered = sorted(values)
    n = len(ordered)
    k = n - 11 if n >= 11 else n - 1
    return {"value": ordered[k], "percentile": 100.0 * (k + 1) / n, "samples": n, "beyond": n - 1 - k}


class Run:
    def __init__(self, args: argparse.Namespace):
        self.args = args
        self.started = time.perf_counter()
        self.nproc = len(os.sched_getaffinity(0))
        self.env = child_env(self.nproc)
        self.work = ROOT / ".bench_work" / f"{args.workload}-{args.seed}-{os.getpid()}"
        self.out = self.work / "out"
        shutil.rmtree(self.work, ignore_errors=True)
        self.work.mkdir(parents=True)
        if args.workload == "suite":
            self.config_dir = ROOT / "src" / "parafreq" / "suite"
            self.reference = json.loads((BENCH / "suite_reference.json").read_text())
            self.batch = workloads.suite_batch(self.reference, self.config_dir)
            self.cli_args = ["paper-suite", "--out", str(self.out)]
        else:
            self.config_dir = self.work / "configs"
            make = workloads.spectral_batch if args.workload == "spectral" else workloads.pointwise_batch
            self.batch = make(args.seed)
            workloads.write_configs(self.batch, self.config_dir)
            self.reference = None
            self.cli_args = ["run", str(self.config_dir), "--out", str(self.out)]
        self.outcomes: list[dict] = []

    def remaining(self) -> float:
        return RUN_LIMIT_S - (time.perf_counter() - self.started)

    def setup_probe(self) -> dict:
        cmd = [sys.executable, str(BENCH / "setup_probe.py"), str(self.config_dir)]
        log = self.work / "setup.log"
        result = run_child(cmd, self.env, log, self.remaining())
        if result["exit_code"] != 0:
            raise SystemExit(f"set-up probe failed ({result['exit_code']}):\n{log.read_text()}")
        return json.loads(log.read_text().splitlines()[-1])

    def batch_run(self, cmd: list[str], name: str) -> dict:
        shutil.rmtree(self.out, ignore_errors=True)
        result = run_child(cmd, self.env, self.work / f"{name}.log", self.remaining())
        self.outcomes.extend(verdicts.judge_batch(self.batch, self.out, result["exit_code"]))
        result["digests"] = verdicts.output_digests(self.batch, self.out)
        return result

    def measure(self) -> list[dict]:
        """Untraced batches until their wall times add up to --seconds."""
        cmd = [sys.executable, "-m", "parafreq.cli", *self.cli_args]
        samples: list[dict] = []
        while not samples or sum(s["wall_s"] for s in samples) < self.args.seconds:
            if samples and self.remaining() < 3.0 * max(s["wall_s"] for s in samples) + 30.0:
                break
            samples.append(self.batch_run(cmd, f"batch-{len(samples)}"))
        return samples

    def traced(self) -> tuple[list[dict], list[dict]]:
        results, dumps = [], []
        for i in range(TRACED_RUNS):
            spans = self.work / f"spans-{i}.json"
            cmd = [sys.executable, str(BENCH / "tracer.py"), str(spans), str(i + 1), "--", *self.cli_args]
            result = self.batch_run(cmd, f"traced-{i}")
            if not spans.is_file():
                raise SystemExit(f"traced run {i} wrote no spans:\n{(self.work / f'traced-{i}.log').read_text()}")
            dump = json.loads(spans.read_text())
            result["traced_wall_s"] = dump["main_wall"][1] - result["spawned"]
            results.append(result)
            dumps.append(dump)
        return results, dumps

    def must_reach(self) -> list[str]:
        """Span targets that every batch of this workload has to pass through."""
        names = {
            "cli.main", "scenario.parse_config", "scenario.run_scenario", "scenario.emit_report_json",
            "scenario.emit_trace_csv", "scenario.emit_plot_script", "frequency.trace_from_trajectory",
        }
        for scenario in self.batch:
            names.update("verifiers.verify_" + check for check in scenario.doc["checks"])
            forced = scenario.doc.get("forcing") is not None
            names.add("evolution.evolve_forced" if forced else "evolution.evolve_exact_trajectory")
        return sorted(names)

    def reference_digests(self, samples: list[dict]) -> dict:
        if self.reference is not None:
            return {name: digest for entry in self.reference["scenarios"].values() for name, digest in entry["digests"].items()}
        return samples[0]["digests"]


def changed_outputs(digests: dict, reference: dict) -> int:
    return sum(1 for name, digest in digests.items() if reference.get(name) != digest)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "parafreq" / "cli.py").is_file():
        print(f"error: no parafreq source tree at {ROOT / 'src' / 'parafreq'}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())

    run = Run(args)
    try:
        result, detail = measure(run, args, spec)
    finally:
        shutil.rmtree(run.work, ignore_errors=True)
    (ROOT / ".bench_work" / f"last-{args.workload}-trace{args.trace}.json").write_text(json.dumps(detail, indent=2))
    print(json.dumps({"detail": detail}))
    print(json.dumps(result))
    return 0


def measure(run: Run, args: argparse.Namespace, spec: dict) -> tuple[dict, dict]:
    """Every measurement of one run: the result object and the details."""
    warm = run.setup_probe()  # compiles bytecode and warms the file cache before anything is timed
    detail: dict = {
        "workload": args.workload,
        "seed": args.seed,
        "seed_applies": args.workload != "suite",
        "load": "closed loop, 1 client: one CLI process at a time, the next spawned after the previous exits",
        "environment": {
            "python": platform.python_version(),
            "numpy": warm["numpy"],
            "nproc": run.nproc,
            "cpu_count": os.cpu_count(),
            "cpu_model": cpu_model(),
            "blas_threads": {var: run.env[var] for var in BLAS_THREAD_VARS},
        },
        "scenarios_per_batch": len(run.batch),
    }
    metrics: dict[str, float] = {}
    if args.trace == 0:
        setup = [run.setup_probe()["setup_s"] for _ in range(SETUP_PROBES)]
        metrics["setup_s"] = statistics.median(setup)
        detail["setup_s_samples"] = setup

    samples = run.measure()
    walls = [s["wall_s"] for s in samples]
    reference = run.reference_digests(samples)
    detail["batches"] = [{k: s[k] for k in ("wall_s", "rss_mib", "exit_code")} for s in samples]
    detail["rerun_outputs_changed"] = [changed_outputs(s["digests"], reference) for s in samples]
    batch_tail = tail(walls)
    detail["batch_s_tail"] = batch_tail
    metrics["batch_s_p50"] = statistics.median(walls)
    metrics["batch_s_tail"] = batch_tail["value"]
    metrics["peak_rss_mb"] = statistics.median(s["rss_mib"] for s in samples)

    correct = True
    if args.trace == 1:
        results, dumps = run.traced()
        runs = [layers.span_metrics(d) for d in dumps]
        for metric, result in zip(runs, results):
            metric["scenario.outputs_changed"] = changed_outputs(result["digests"], reference)
        per_layer = layers.per_layer(runs)
        per_layer["trace.overhead_s"] = statistics.mean(r["traced_wall_s"] for r in results) - metrics["batch_s_p50"]
        metrics = per_layer
        unreached = layers.unreached(dumps, run.must_reach())
        low, high = layers.COVERAGE_BOUNDS
        coverage = [r["trace.coverage"] for r in runs]
        nondeterministic = layers.nondeterministic_counts(runs)
        detail["trace"] = {
            "traced_wall_s": [r["traced_wall_s"] for r in results],
            "coverage": coverage,
            "coverage_bounds": [low, high],
            "overhead_s": per_layer["trace.overhead_s"],
            "missing_targets": dumps[0]["missing"],
            "unreached": unreached,
            "nondeterministic_counts": nondeterministic,
        }
        if unreached:
            print(json.dumps({"detail": detail}), file=sys.stderr)
            raise SystemExit(f"error: traced run recorded no span for {', '.join(unreached)}")
        if not all(low <= c <= high for c in coverage):
            print(json.dumps({"detail": detail}), file=sys.stderr)
            raise SystemExit(f"error: trace.coverage {coverage} outside [{low}, {high}]")
        if nondeterministic:
            print(f"counts differ between traced runs: {nondeterministic}", file=sys.stderr)
            correct = False

    attempted = len(run.outcomes)
    by_outcome = {k: sum(1 for o in run.outcomes if o["outcome"] == k) for k in ("ok", "known_defect", "wrong")}
    failed = by_outcome["wrong"]
    metrics["scenario_pass_ratio"] = by_outcome["ok"] / attempted
    failures: dict[str, dict] = {}
    for o in run.outcomes:
        if o["outcome"] != "ok":
            entry = failures.setdefault(f"{o['scenario']}/{o['outcome']}", {"notes": o["notes"], "times": 0})
            entry["times"] += 1
    detail["scenarios"] = {
        "attempted": attempted,
        **by_outcome,
        "fail_ratio": (attempted - by_outcome["ok"]) / attempted,
        "failures": failures,
    }
    correct = correct and failed == 0

    kind = "per_layer" if args.trace == 1 else "end_to_end"
    result = {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]} for m in spec[kind]},
    }
    return result, detail


if __name__ == "__main__":
    sys.exit(main())
