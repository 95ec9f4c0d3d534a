"""Judge one CLI batch's emitted reports against the expected verdicts.

Each scenario ends in one of three outcomes:

* ``ok``: every counted check reports the verdict the theory predicts and,
  where a reference margin is committed, a min_margin within the check's
  own reported tolerance of it;
* ``known_defect``: the only disagreements are failures the workload
  predicted as a documented defect, with the predicted size;
* ``wrong``: anything else, including a batch that exits 2, crashes or
  writes no report.

``fail_ratio`` counts both ``known_defect`` and ``wrong`` scenarios; only
``wrong`` ones make the outputs incorrect.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

from workloads import Scenario

DEFECT_REL_TOL = 1e-3  # an explained failure must match the predicted residual this closely
EMITTED_SUFFIXES = (".trace.csv", ".report.json", ".plot.py")


def _judge_check(name: str, expected, report: dict | None) -> tuple[str, str | None]:
    if report is None:
        return "wrong", f"{name}: no report"
    status = report["status"]
    margin = report["min_margin"]
    if status == expected.status:
        if expected.compare_margin and (
            (margin is None) != (expected.margin is None)
            or (margin is not None and abs(margin - expected.margin) > report["tolerance"])
        ):
            return "wrong", f"{name}: min_margin {margin!r} is off the reference {expected.margin!r}"
        return "ok", None
    residual = expected.defect_residual
    if residual is not None and status == "fail" and margin is not None:
        if abs(-margin - residual) <= DEFECT_REL_TOL * residual:
            return "known_defect", f"{name}: residual {-margin:.6e} = predicted {residual:.6e} > tolerance {report['tolerance']:.1e}"
    return "wrong", f"{name}: status {status} (min_margin {margin!r}), expected {expected.status}"


def judge_batch(batch: list[Scenario], out_dir: Path, exit_code: int) -> list[dict]:
    """One outcome record per scenario: ``{"scenario", "outcome", "notes"}``."""
    if exit_code not in (0, 1, 3):
        return [{"scenario": s.scenario_id, "outcome": "wrong", "notes": [f"batch exit code {exit_code}"]} for s in batch]
    results = []
    counted_fail = False
    for scenario in batch:
        path = out_dir / f"{scenario.scenario_id}.report.json"
        try:
            doc = json.loads(path.read_text())
        except (OSError, ValueError) as exc:
            results.append({"scenario": scenario.scenario_id, "outcome": "wrong", "notes": [f"unreadable report: {exc}"]})
            continue
        reports = {r["check_name"]: r for r in doc["reports"]}
        report_only = set(doc.get("report_only", ()))
        counted_fail |= any(r["status"] == "fail" for name, r in reports.items() if name not in report_only)
        outcomes = [_judge_check(name, exp, reports.get(name)) for name, exp in sorted(scenario.expected.items())]
        worst = "wrong" if any(o == "wrong" for o, _ in outcomes) else (
            "known_defect" if any(o == "known_defect" for o, _ in outcomes) else "ok"
        )
        results.append({"scenario": scenario.scenario_id, "outcome": worst, "notes": [n for _, n in outcomes if n]})
    if (exit_code == 1) != counted_fail:
        for r in results:
            r["outcome"] = "wrong"
            r["notes"].append(f"exit code {exit_code} disagrees with the reports (counted failure: {counted_fail})")
    return results


def output_digests(batch: list[Scenario], out_dir: Path) -> dict[str, str]:
    """sha256 of every file the batch should have emitted (missing files read as '')."""
    digests = {}
    for scenario in batch:
        for suffix in EMITTED_SUFFIXES:
            name = scenario.scenario_id + suffix
            try:
                digests[name] = hashlib.sha256((out_dir / name).read_bytes()).hexdigest()
            except OSError:
                digests[name] = ""
    return digests
