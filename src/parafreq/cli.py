"""Command line front end: run scenario configs and the packaged suite.

Exit codes: 0 every counted check passed, 1 at least one counted check
failed, 2 configuration or runtime error, 3 every executed check was
inapplicable.  Checks a scenario lists under ``report_only`` are executed
and reported but never counted toward the exit code.
"""

from __future__ import annotations

import argparse
import json
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
    parse_config,
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
    suite = resources.files("parafreq.suite")
    configs = []
    for entry in sorted(suite.iterdir(), key=lambda e: e.name):
        if entry.name.endswith(".json"):
            doc = json.loads(entry.read_text(encoding="utf-8"))
            configs.append(parse_config(doc, fallback_id=entry.name[: -len(".json")]))
    if not configs:
        raise ConfigError("<suite>", "no packaged scenario configs found")
    return configs


def _execute(configs: list[ScenarioConfig], out_dir: Path) -> tuple[list[tuple[str, list[tuple]]], int]:
    """Run and emit each scenario in id order; returns their summaries and the number that raised.

    A scenario that raises, in its run or while its files are written, is
    reported on stderr and skipped, so the others still write their files.
    An output is dropped once written; its summary keeps the id and per
    report (check_name, status, min_margin, tolerance, report_only, notes).
    """
    seen: set[str] = set()
    for config in configs:
        if config.scenario_id in seen:
            raise ConfigError("scenario_id", f"duplicate scenario id {config.scenario_id!r} in batch")
        seen.add(config.scenario_id)
    out_dir.mkdir(parents=True, exist_ok=True)
    summaries: list[tuple[str, list[tuple]]] = []
    errors = 0
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
        summaries.append((sid, [
            (r.check_name, r.status, r.min_margin, r.tolerance, r.check_name in config.report_only, r.notes)
            for r in output.reports
        ]))
        del output
    return summaries, errors


def _summarize(summaries: list[tuple[str, list[tuple]]], quiet: bool) -> int:
    lines: list[str] = []
    counts = {"pass": 0, "fail": 0, "inapplicable": 0}
    counted_failures = 0
    for sid, reports in summaries:
        for check_name, status, min_margin, tolerance, report_only, notes in reports:
            counts[status] += 1
            tag = " [report-only]" if report_only else ""
            counted = status == "fail" and not tag
            if counted:
                counted_failures += 1
            if quiet and status != "fail":
                continue
            margin = "n/a" if min_margin is None else f"{min_margin:.6e}"
            reason = f" ({notes[0]})" if status == "inapplicable" and notes else ""  # the reason is the first note
            lines.append(
                f"{sid:32s} {check_name:26s} {status.upper():12s} "
                f"min_margin={margin} tol={tolerance:.2e}{reason}{tag}"
            )
    total = sum(counts.values())
    if counted_failures:
        code = EXIT_FAIL
    elif counts["inapplicable"] == total:
        code = EXIT_ALL_INAPPLICABLE
    else:
        code = EXIT_PASS
    lines.append(
        f"{len(summaries)} scenario(s), {total} check(s): "
        f"{counts['pass']} passed, {counts['fail']} failed "
        f"({counted_failures} counted), {counts['inapplicable']} inapplicable"
    )
    text = "\n".join(lines)
    try:
        print(text)
    except UnicodeEncodeError:  # a locale that cannot spell some id; the files are written already
        print(text.encode("ascii", "backslashreplace").decode("ascii"))
    return code


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
        summaries, errors = _execute(configs, Path(args.out))
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_ERROR
    except (OSError, ValueError) as exc:
        print(f"runtime error: {exc}", file=sys.stderr)
        return EXIT_ERROR
    code = _summarize(summaries, args.quiet)
    return EXIT_ERROR if errors else code


if __name__ == "__main__":
    raise SystemExit(main())
