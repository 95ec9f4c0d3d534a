"""Rewrite ``suite_reference.json`` from one ``parafreq paper-suite`` run.

    python3 perfbench/refresh_suite_reference.py

Records every check's min_margin and tolerance and the sha256 of every
emitted file.  The verdicts are not taken from the run: the script refuses
to write unless the run reports exactly the verdicts the theory predicts,
listed below.  Run it only when a change to the emitted suite outputs is
intended, and say so in the change log.
"""

from __future__ import annotations

import hashlib
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

from verdicts import EMITTED_SUFFIXES

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent

# the documented discrepancies, run report-only, fail by their predicted amounts
REPORT_ONLY_FAILS = {("plane-caloric-cubic", "harnack_printed"), ("sphere-bochner", "drift_bochner_verbatim")}
# zero data: the frequency is undefined, so these checks are inapplicable
INAPPLICABLE = {("plane-zero-data", "frequency_monotonicity"), ("plane-zero-data", "selfsimilar_scaling")}


def expected_status(scenario: str, check: str) -> str:
    if (scenario, check) in REPORT_ONLY_FAILS:
        return "fail"
    if (scenario, check) in INAPPLICABLE:
        return "inapplicable"
    return "pass"


def main() -> int:
    out = ROOT / ".bench_work" / "suite-reference"
    shutil.rmtree(out, ignore_errors=True)
    cmd = [sys.executable, "-m", "parafreq.cli", "paper-suite", "--out", str(out), "--quiet"]
    subprocess.run(cmd, check=True, cwd=ROOT, env=dict(os.environ, PYTHONPATH=str(ROOT / "src")))

    scenarios = {}
    wrong = []
    for report_path in sorted(out.glob("*.report.json")):
        doc = json.loads(report_path.read_text())
        sid = doc["scenario_id"]
        checks = {}
        for report in doc["reports"]:
            name = report["check_name"]
            if report["status"] != expected_status(sid, name):
                wrong.append(f"{sid}/{name}: {report['status']}")
            checks[name] = {
                "status": report["status"],
                "counted": name not in doc["report_only"],
                "min_margin": report["min_margin"],
                "tolerance": report["tolerance"],
            }
        digests = {
            sid + suffix: hashlib.sha256((out / (sid + suffix)).read_bytes()).hexdigest()
            for suffix in EMITTED_SUFFIXES
        }
        scenarios[sid] = {"checks": checks, "digests": digests}
    shutil.rmtree(out)
    if wrong:
        print("refusing to write: verdicts differ from the theory:\n  " + "\n  ".join(wrong), file=sys.stderr)
        return 1
    statuses = [c["status"] for s in scenarios.values() for c in s["checks"].values()]
    doc = {
        "about": "Expected verdicts, reference margins and output digests of `parafreq paper-suite`; "
        "written by refresh_suite_reference.py.",
        "totals": {k: statuses.count(k) for k in ("pass", "fail", "inapplicable")},
        "scenarios": scenarios,
    }
    (BENCH / "suite_reference.json").write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n")
    print(f"wrote {len(scenarios)} scenarios: {doc['totals']}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
