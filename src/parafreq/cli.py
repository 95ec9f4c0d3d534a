"""Command line front end: run scenario configs and the packaged suite.

``paper-suite`` is ``run`` on the package's ``suite`` directory, through the
same ``load_config``.  A batch writes each scenario's files as it finishes;
its lines and summary print once, after the whole batch is written.

Exit codes: 0 every counted check passed, 1 at least one counted check
failed, 2 configuration or runtime error, 3 every executed check was
inapplicable.  Checks a scenario lists under ``report_only`` are executed
and reported but never counted toward the exit code.
"""

from __future__ import annotations

import argparse
import sys
from importlib import resources
from pathlib import Path

from .scenario import (
    ConfigError,
    ScenarioConfig,
    emit_plot_script,
    emit_report_json,
    emit_trace_csv,
    load_config,
    run_scenario,
)

EXIT_PASS = 0
EXIT_FAIL = 1
EXIT_ERROR = 2
EXIT_ALL_INAPPLICABLE = 3


def _collect_paths(targets: list[str]) -> list[Path]:
    paths: list[Path] = []
    for target in targets:
        p = Path(target)
        if p.is_dir():
            found = sorted(p.glob("*.json"))
            if not found:
                raise ConfigError("<cli>", f"directory {p} contains no *.json configs")
            paths.extend(found)
        elif p.is_file():
            paths.append(p)
        else:
            raise ConfigError("<cli>", f"no such config file or directory: {p}")
    return paths


def _load_packaged_configs() -> list[ScenarioConfig]:
    return [load_config(p) for p in _collect_paths([str(resources.files("parafreq.suite"))])]


def _execute(configs: list[ScenarioConfig], out_dir: Path, quiet: bool) -> int:
    """Run and emit each scenario in id order, then print its lines and the summary; returns the exit code.

    A scenario that raises, in its run or while its files are written, is reported on stderr and skipped, so the
    others still write their files.  Each report's line (failures alone when ``quiet``) is formatted as its
    scenario finishes, and all of them print once the whole batch is written.
    """
    seen: set[str] = set()
    for config in configs:
        if config.scenario_id in seen:
            raise ConfigError("scenario_id", f"duplicate scenario id {config.scenario_id!r} in batch")
        seen.add(config.scenario_id)
    out_dir.mkdir(parents=True, exist_ok=True)
    lines: list[str] = []
    counts = {"pass": 0, "fail": 0, "inapplicable": 0}
    errors = counted_failures = 0
    for config in sorted(configs, key=lambda c: c.scenario_id):
        sid = config.scenario_id
        try:
            output = run_scenario(config)
            emit_trace_csv(output, out_dir / f"{sid}.trace.csv")
            emit_report_json(output, out_dir / f"{sid}.report.json")
            emit_plot_script(output, out_dir / f"{sid}.plot.py")
        # an overflow, a failed allocation or a failed write too
        except (ValueError, ArithmeticError, MemoryError, OSError) as exc:
            print(f"runtime error in {sid}: {exc}", file=sys.stderr)
            errors += 1
            continue
        for r in output.reports:
            counts[r.status] += 1
            tag = " [report-only]" if r.check_name in config.report_only else ""
            counted_failures += r.status == "fail" and not tag
            if quiet and r.status != "fail":
                continue
            margin = "n/a" if r.min_margin is None else f"{r.min_margin:.6e}"
            reason = f" ({r.notes[0]})" if r.status == "inapplicable" and r.notes else ""  # the first note says why
            lines.append(
                f"{sid:32s} {r.check_name:26s} {r.status.upper():12s} "
                f"min_margin={margin} tol={r.tolerance:.2e}{reason}{tag}"
            )
        del output
    total = sum(counts.values())
    lines.append(
        f"{len(configs) - errors} scenario(s), {total} check(s): "
        f"{counts['pass']} passed, {counts['fail']} failed "
        f"({counted_failures} counted), {counts['inapplicable']} inapplicable"
    )
    text = "\n".join(lines)
    try:
        print(text)
    except UnicodeEncodeError:  # a locale that cannot spell some id; the files are written already
        print(text.encode("ascii", "backslashreplace").decode("ascii"))
    if errors or counted_failures:
        return EXIT_ERROR if errors else EXIT_FAIL
    return EXIT_ALL_INAPPLICABLE if counts["inapplicable"] == total else EXIT_PASS


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="parafreq",
        description="Run frequency-monotonicity verification scenarios and emit traces, reports, and plot scripts.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run_p = sub.add_parser("run", help="run scenario config file(s) or a directory of configs")
    run_p.add_argument("targets", nargs="+", help="config .json file(s) or directories")
    run_p.add_argument("--out", default="parafreq-out", help="output directory (default: parafreq-out)")
    run_p.add_argument("--quiet", action="store_true", help="print only failures and the summary line")

    suite_p = sub.add_parser("paper-suite", help="run the packaged scenario suite")
    suite_p.add_argument("--out", default="parafreq-out", help="output directory (default: parafreq-out)")
    suite_p.add_argument("--quiet", action="store_true", help="print only failures and the summary line")

    args = parser.parse_args(argv)
    try:
        if args.command == "run":
            configs = [load_config(p) for p in _collect_paths(args.targets)]
        else:
            configs = _load_packaged_configs()
        return _execute(configs, Path(args.out), args.quiet)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_ERROR
    except (OSError, ValueError, MemoryError) as exc:  # a grid too large to allocate while configs load, too
        print(f"runtime error: {exc}", file=sys.stderr)
        return EXIT_ERROR


if __name__ == "__main__":
    raise SystemExit(main())
