"""End-to-end command line behavior, including exit codes and determinism."""

import ast
import importlib.util
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

from parafreq import parse_config, scenario
from parafreq.cli import main

PASSING = {
    "scenario_id": "pass-one",
    "background": {"kind": "plane", "n": 1},
    "initial_modes": {"2": 1.0},
    "time": {"a": -1.0, "b": -0.5, "nodes": 21},
    "checks": ["frequency_monotonicity", "harnack", "quadrature_mass"],
}


def _write(tmp_path, name, doc):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return path


def test_run_single_config_exits_zero(tmp_path, capsys):
    cfg = _write(tmp_path, "ok.json", PASSING)
    code = main(["run", str(cfg), "--out", str(tmp_path / "out")])
    assert code == 0
    text = capsys.readouterr().out
    assert "pass-one" in text and "PASS" in text
    for suffix in (".trace.csv", ".report.json", ".plot.py"):
        assert (tmp_path / "out" / f"pass-one{suffix}").is_file()


def test_run_directory_of_configs(tmp_path):
    _write(tmp_path / "", "a.json", dict(PASSING, scenario_id="a"))
    _write(tmp_path, "b.json", dict(PASSING, scenario_id="b"))
    code = main(["run", str(tmp_path), "--out", str(tmp_path / "out"), "--quiet"])
    assert code == 0
    assert (tmp_path / "out" / "a.report.json").is_file()
    assert (tmp_path / "out" / "b.report.json").is_file()


def test_counted_failure_exits_one(tmp_path):
    doc = dict(PASSING, scenario_id="failing", checks=["harnack", "harnack_printed"])
    cfg = _write(tmp_path, "f.json", doc)
    assert main(["run", str(cfg), "--out", str(tmp_path / "out")]) == 1


def test_report_only_failure_exits_zero(tmp_path):
    doc = dict(
        PASSING,
        scenario_id="tolerated",
        checks=["harnack", "harnack_printed"],
        report_only=["harnack_printed"],
    )
    cfg = _write(tmp_path, "t.json", doc)
    assert main(["run", str(cfg), "--out", str(tmp_path / "out")]) == 0


def test_config_error_exits_two(tmp_path, capsys):
    cfg = _write(tmp_path, "bad.json", {"scenario_id": "bad", "background": {"kind": "torus"}})
    assert main(["run", str(cfg), "--out", str(tmp_path / "out")]) == 2
    assert "config error" in capsys.readouterr().err


def test_time_span_too_narrow_for_its_nodes_exits_two_naming_the_field(tmp_path, capsys):
    doc = dict(PASSING, scenario_id="narrow", time={"a": -1.0, "b": -0.9999999999999999, "nodes": 5})
    cfg = _write(tmp_path, "narrow.json", doc)
    assert main(["run", str(cfg), "--out", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: config field 'time': grid nodes must be strictly increasing"), err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("text, problem", [
    ("[" * 100_000 + "]" * 100_000, "maximum recursion depth exceeded"),
    ('{"scenario_id": "long", "resolution": ' + "9" * 5_000 + "}", "integer string conversion"),
], ids=["nested-too-deep", "integer-too-long"])
def test_json_the_decoder_cannot_read_is_a_config_error_naming_the_path(tmp_path, capsys, text, problem):
    # the decoder raises RecursionError on too deep a nesting, and ValueError on an integer longer than
    # sys.get_int_max_str_digits(); neither is a check failure (exit 1) or a runtime error
    cfg = tmp_path / "unreadable.json"
    cfg.write_text(text)
    assert main(["run", str(cfg), "--out", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"config error: config field '<document>': invalid JSON in {cfg}: "), err
    assert problem in err and not (tmp_path / "out").exists()


def test_missing_path_exits_two(tmp_path):
    assert main(["run", str(tmp_path / "nope.json"), "--out", str(tmp_path / "out")]) == 2


def test_all_inapplicable_exits_three(tmp_path, capsys):
    doc = dict(
        PASSING,
        scenario_id="hollow",
        initial_modes={},
        checks=["frequency_monotonicity", "selfsimilar_scaling"],
    )
    cfg = _write(tmp_path, "h.json", doc)
    assert main(["run", str(cfg), "--out", str(tmp_path / "out")]) == 3
    # each summary line names the report's reason, its first note
    lines = capsys.readouterr().out.splitlines()
    assert lines[0].endswith("INAPPLICABLE min_margin=n/a tol=0.00e+00 (zero initial data: frequency undefined)")
    assert lines[1].endswith("INAPPLICABLE min_margin=n/a tol=0.00e+00 (zero initial data: no frequency to scale by)")


def test_duplicate_scenario_ids_rejected(tmp_path):
    _write(tmp_path, "a.json", PASSING)
    _write(tmp_path, "b.json", PASSING)
    assert main(["run", str(tmp_path), "--out", str(tmp_path / "out")]) == 2


def test_resolution_is_a_config_field_not_a_flag(tmp_path, capsys):
    cfg = _write(tmp_path, "ok.json", dict(PASSING, resolution=17))
    with pytest.raises(SystemExit) as info:
        main(["run", str(cfg), "--out", str(tmp_path / "out"), "--resolution", "8"])
    assert info.value.code == 2
    assert "unrecognized arguments: --resolution 8" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()
    assert main(["run", str(cfg), "--out", str(tmp_path / "out")]) == 0
    doc = json.loads((tmp_path / "out" / "pass-one.report.json").read_text())
    assert doc["provenance"]["resolution"] == 17
    assert doc["provenance"]["config_hash"] == parse_config(dict(PASSING, resolution=17)).config_hash()


def test_runtime_error_spares_the_rest_of_the_batch(tmp_path, capsys):
    # a mode_matrix block this stiff needs more Taylor steps than the budget allows
    broken = dict(
        PASSING,
        scenario_id="late-forced",
        time={"a": -1.0, "b": -1e-4, "nodes": 21},
        forcing={
            "rate": {"type": "constant", "c0": 1e12}, "coupling": "mode_matrix",
            "modes": ["1", "2"], "matrix": [[0.0, 0.4], [0.0, 0.0]],
        },
        checks=["frequency_monotonicity"],
    )
    _write(tmp_path, "a.json", dict(PASSING, scenario_id="a"))
    _write(tmp_path, "b.json", broken)
    _write(tmp_path, "c.json", dict(PASSING, scenario_id="c"))
    out = tmp_path / "out"
    assert main(["run", str(tmp_path), "--out", str(out)]) == 2
    captured = capsys.readouterr()
    assert "runtime error in late-forced: the ModeMatrix block needs" in captured.err
    assert "2 scenario(s)" in captured.out
    assert sorted(p.name for p in out.iterdir()) == [
        f"{sid}{suffix}" for sid in ("a", "c") for suffix in (".plot.py", ".report.json", ".trace.csv")
    ]


def test_overflowing_scenario_spares_the_rest_of_the_batch(tmp_path, capsys):
    # (-t)^(2 kappa) at t = -2 overflows the frequency trace: that scenario's runtime error, not the batch's
    _write(tmp_path, "a.json", dict(PASSING, scenario_id="a", kappa=1000, time={"a": -2.0, "b": -0.5, "nodes": 21}))
    _write(tmp_path, "b.json", dict(PASSING, scenario_id="b"))
    out = tmp_path / "out"
    assert main(["run", str(tmp_path / "a.json"), str(tmp_path / "b.json"), "--out", str(out)]) == 2
    captured = capsys.readouterr()
    assert "runtime error in a:" in captured.err
    assert "1 scenario(s)" in captured.out
    assert sorted(p.name for p in out.iterdir()) == [f"b{suffix}" for suffix in (".plot.py", ".report.json", ".trace.csv")]


def test_scenario_that_cannot_allocate_spares_the_rest_of_the_batch(tmp_path, capsys, monkeypatch):
    # a MemoryError, as from a rule too large to allocate, is that scenario's runtime error, not the batch's
    def cannot_allocate(run, **kwargs):
        raise MemoryError("Unable to allocate the rule")

    monkeypatch.setitem(scenario._VERIFIERS, "quadrature_mass", cannot_allocate)
    _write(tmp_path, "a.json", dict(PASSING, scenario_id="a-huge"))
    _write(tmp_path, "b.json", dict(PASSING, scenario_id="b-ok", checks=["harnack"]))
    out = tmp_path / "out"
    assert main(["run", str(tmp_path), "--out", str(out)]) == 2
    captured = capsys.readouterr()
    assert captured.err == "runtime error in a-huge: Unable to allocate the rule\n"
    assert "1 scenario(s)" in captured.out
    assert sorted(p.name for p in out.iterdir()) == [f"b-ok{s}" for s in (".plot.py", ".report.json", ".trace.csv")]


def test_rule_above_the_point_limit_is_that_scenarios_runtime_error(tmp_path, capsys):
    # sphere(5) at the default resolution 24 would hold 15,925,248 points; the rule is refused, not allocated
    big = dict(PASSING, scenario_id="a-sphere5", background={"kind": "sphere", "n": 5}, initial_modes={"2,0": 1.0})
    _write(tmp_path, "a.json", big)
    _write(tmp_path, "b.json", dict(PASSING, scenario_id="b-ok"))
    out = tmp_path / "out"
    assert main(["run", str(tmp_path), "--out", str(out)]) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("runtime error in a-sphere5: resolution 24 asks for 15925248 quadrature points")
    assert "1 scenario(s)" in captured.out
    assert sorted(p.name for p in out.iterdir()) == [f"b-ok{s}" for s in (".plot.py", ".report.json", ".trace.csv")]


def test_grid_that_cannot_be_allocated_while_loading_is_a_runtime_error(tmp_path, capsys, monkeypatch):
    # a node count numpy cannot allocate ends the run with exit 2 and one stderr line, not a traceback and exit 1
    # (the code of a counted failure); the grid builder is patched, so nothing is allocated
    def cannot_allocate(a, b, count):
        raise MemoryError(f"Unable to allocate an array with shape ({count},) and data type float64")

    monkeypatch.setattr(scenario.TimeGrid, "uniform", cannot_allocate)
    cfg = _write(tmp_path, "huge.json", dict(PASSING, time={"a": -1.0, "b": -0.5, "nodes": 10**12}))
    out = tmp_path / "out"
    assert main(["run", str(cfg), "--out", str(out)]) == 2
    captured = capsys.readouterr()
    assert captured.err == (
        "runtime error: Unable to allocate an array with shape (1000000000000,) and data type float64\n"
    )
    assert captured.out == "" and not out.exists()


def test_unwritable_scenario_spares_the_rest_of_the_batch(tmp_path, capsys):
    # a directory in the way of a scenario's first file fails its write: that scenario's error alone
    _write(tmp_path, "a.json", dict(PASSING, scenario_id="a"))
    _write(tmp_path, "b.json", dict(PASSING, scenario_id="b"))
    out = tmp_path / "out"
    (out / "a.trace.csv.tmp").mkdir(parents=True)
    assert main(["run", str(tmp_path / "a.json"), str(tmp_path / "b.json"), "--out", str(out)]) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("runtime error in a:") and len(captured.err.splitlines()) == 1
    assert "1 scenario(s)" in captured.out
    expected = ["a.trace.csv.tmp", *(f"b{suffix}" for suffix in (".plot.py", ".report.json", ".trace.csv"))]
    assert sorted(p.name for p in out.iterdir()) == expected


# "<id>.report.json.tmp" must fit the 255-byte file-name limit, so an id holds at most 239 UTF-8 bytes
@pytest.mark.parametrize("sid", ["a" * 239, "é" * 119 + "a", "a" * 240, "é" * 120], ids=["239", "239-utf8", "240", "240-utf8"])
def test_scenario_id_must_fit_every_output_file_name(tmp_path, capsys, sid):
    out = tmp_path / "out"
    code = main(["run", str(_write(tmp_path, "c.json", dict(PASSING, scenario_id=sid))), "--out", str(out)])
    if len(sid.encode()) <= 239:
        assert code == 0
        assert sorted(p.name for p in out.iterdir()) == [sid + suffix for suffix in (".plot.py", ".report.json", ".trace.csv")]
    else:
        assert code == 2
        assert capsys.readouterr().err.startswith("config error: config field 'scenario_id': must be at most 239 UTF-8 bytes")
        assert not out.exists()


def test_quiet_prints_only_failures_and_summary(tmp_path, capsys):
    cfg = _write(tmp_path, "ok.json", PASSING)
    assert main(["run", str(cfg), "--out", str(tmp_path / "out"), "--quiet"]) == 0
    lines = [l for l in capsys.readouterr().out.splitlines() if l.strip()]
    assert len(lines) == 1
    assert "1 scenario(s)" in lines[0]


def test_paper_suite_runs_green(tmp_path, capsys):
    code = main(["paper-suite", "--out", str(tmp_path / "suite"), "--quiet"])
    assert code == 0
    text = capsys.readouterr().out
    # exactly the two documented-discrepancy checks fail, both report-only
    fail_lines = [l for l in text.splitlines() if " FAIL" in l]
    assert len(fail_lines) == 2
    assert all("[report-only]" in l for l in fail_lines)
    assert any("harnack_printed" in l for l in fail_lines)
    assert any("drift_bochner_verbatim" in l for l in fail_lines)


def test_paper_suite_is_run_on_the_packaged_directory_byte_for_byte(tmp_path, capsys):
    # one loader: paper-suite reads its configs through the same load_config as run, so the two print the same
    # lines and write the same files
    suite = Path(scenario.__file__).parent / "suite"
    outputs = {}
    for name, args in (("paper-suite", ["paper-suite"]), ("run", ["run", str(suite)])):
        out = tmp_path / name
        assert main([*args, "--out", str(out)]) == 0
        outputs[name] = capsys.readouterr().out, {f.name: f.read_bytes() for f in out.iterdir()}
    assert outputs["paper-suite"] == outputs["run"]
    assert len(outputs["run"][1]) == 3 * len(list(suite.glob("*.json"))) == 54


def test_module_invocation_without_subcommand_is_usage_error():
    proc = subprocess.run(
        [sys.executable, "-m", "parafreq.cli"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 2
    assert "usage" in proc.stderr.lower()


def test_cli_subprocess_run_and_exit_code(tmp_path):
    cfg = _write(tmp_path, "ok.json", PASSING)
    proc = subprocess.run(
        [sys.executable, "-m", "parafreq.cli", "run", str(cfg), "--out", str(tmp_path / "out")],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0, proc.stderr
    assert "pass-one" in proc.stdout


def test_forced_run_leaves_numpy_ma_unimported(tmp_path):
    # numpy's set routines (np.union1d, np.unique) import numpy.ma, 13 ms and 1 MiB a process, and fractions and decimal
    # cost 0.3 MiB and about 5 ms; in a subprocess, as pytest plugins may have imported them already.  A sampled rate
    # puts kinks on and between the grid nodes, and a pointwise sphere(2) run builds harmonics, a rule and geometry.
    forced = dict(
        PASSING,
        scenario_id="kinked-forced",
        forcing={
            "rate": {"type": "sampled", "times": [-0.9, -0.777, -0.6], "values": [0.5, 0.1, 0.3]},
            "coupling": "mode_matrix", "modes": ["1", "2"], "matrix": [[0.0, 0.4], [0.0, 0.0]],
        },
        checks=["general_bounds", "general_harnack"],
    )
    pointwise = dict(
        PASSING,
        scenario_id="sphere-pointwise",
        background={"kind": "sphere", "n": 2},
        initial_modes={"2,1": 1.0, "3,4": 0.5},
        resolution=8,
        checks=["weighted_monotonicity", "drift_bochner", "quadrature_mass"],
    )
    # numpy.random costs 16 ms and 6.2 MiB and brings in secrets, hmac and base64; a seeded mixture needs none of them
    mixture = dict(
        PASSING,
        scenario_id="seeded-mixture",
        initial_modes={},
        random_mixture={"seed": 2**70 + 3, "mu_cutoff": 2.0, "low": 0.2, "high": 1.0},
    )
    _write(tmp_path, "forced.json", forced)
    _write(tmp_path, "pointwise.json", pointwise)
    _write(tmp_path, "mixture.json", mixture)
    # hashlib maps OpenSSL's libcrypto, 3.4 MiB resident, for the config hash that the interpreter's own SHA-256 gives
    modules = "('numpy.ma', 'fractions', 'decimal', 'numpy.random', 'secrets', 'hashlib', '_hashlib', 'ssl')"
    script = f"import sys; from parafreq.cli import main; main(sys.argv[1:]); print([m in sys.modules for m in {modules}])"
    for args, ran in ((["run", str(tmp_path)], "3 scenario(s)"), (["paper-suite"], "18 scenario(s)")):
        proc = subprocess.run(
            [sys.executable, "-c", script, *args, "--out", str(tmp_path / "out"), "--quiet"],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0, proc.stderr
        assert ran in proc.stdout
        assert proc.stdout.splitlines()[-1] == str([False] * 8), proc.stdout


def test_non_utf8_locale_writes_the_utf8_mode_files(tmp_path):
    # under the C locale without UTF-8 mode, the locale's codec (ASCII) must not decide how a config is read or how
    # the files, and their names, are written; one id is raw UTF-8 in its config, the other is its file's name
    configs = tmp_path / "configs"
    configs.mkdir()
    doc = dict(PASSING, scenario_id="caf\u00e9-\u03ba")
    (configs / "cafe.json").write_bytes(json.dumps(doc, ensure_ascii=False).encode())
    _write(configs, "na\u00efve.json", {k: v for k, v in PASSING.items() if k != "scenario_id"})
    base = {k: v for k, v in os.environ.items() if not k.startswith(("LC_", "LANG", "PYTHONUTF8", "PYTHONIOENCODING"))}
    runs = {}
    for mode, env in (("utf8=1", base), ("utf8=0", {**base, "LC_ALL": "C", "PYTHONCOERCECLOCALE": "0"})):
        out = tmp_path / mode
        proc = subprocess.run(
            [sys.executable, "-X", mode, "-m", "parafreq.cli", "run", str(configs), "--out", str(out)],
            capture_output=True,
            env=env,
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.splitlines()[-1].startswith(b"2 scenario(s), 6 check(s): 6 passed, 0 failed"), proc.stdout
        runs[mode] = {f.name: f.read_bytes() for f in out.iterdir()}
    suffixes = (".trace.csv", ".report.json", ".plot.py")
    names = {sid + suffix for sid in ("caf\u00e9-\u03ba", "na\u00efve") for suffix in suffixes}
    assert set(runs["utf8=1"]) == names
    assert runs["utf8=0"] == runs["utf8=1"]


def test_report_bytes_do_not_depend_on_blas_threads(tmp_path):
    # OpenBLAS splits a dot product over more than about 10,000 entries across its threads, and each split rounds
    # the sum its own way. A plane(3) rule at resolution 24 has 13,824 points, and the curvature identity of the 120
    # plane(3) modes with mu <= 3.5 takes its largest moment sum, the square of Lu, over 14,400 exponent pairs.
    weighted = dict(
        PASSING,
        scenario_id="weighted-plane3",
        background={"kind": "plane", "n": 3},
        initial_modes={"1,0,0": 0.7, "0,1,1": -0.4},
        resolution=24,
        checks=["weighted_monotonicity", "quadrature_mass"],
    )
    bochner = {
        "scenario_id": "bochner-plane3",
        "background": {"kind": "plane", "n": 3},
        "random_mixture": {"seed": 3, "mu_cutoff": 3.5, "low": 0.5, "high": 1.0},
        "time": {"a": -1.0, "b": -0.5, "nodes": 5},
        "checks": ["drift_bochner"],
    }
    configs = [_write(tmp_path, f"{doc['scenario_id']}.json", doc) for doc in (weighted, bochner)]
    reports = []
    for threads in ("1", "2"):
        env = {**os.environ, "OPENBLAS_NUM_THREADS": threads, "OMP_NUM_THREADS": threads}
        out = tmp_path / f"out-{threads}"
        proc = subprocess.run(
            [sys.executable, "-m", "parafreq.cli", "run", *map(str, configs), "--out", str(out), "--quiet"],
            capture_output=True,
            text=True,
            env=env,
        )
        assert proc.returncode == 0, proc.stderr
        reports.append([(out / f"{name}.report.json").read_bytes() for name in ("weighted-plane3", "bochner-plane3")])
    assert reports[0] == reports[1]


def test_traced_run_finds_every_span_it_must_reach():
    # perfbench/run.py fails a traced run when a span it must reach was not recorded; read its list and the tracer's
    # span table here, so a renamed or moved function fails this test rather than the traced benchmark
    bench = Path(__file__).resolve().parents[1] / "perfbench"
    spec = importlib.util.spec_from_file_location("perfbench_tracer", bench / "tracer.py")
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    tree = ast.parse((bench / "run.py").read_text())
    must_reach = next(n for n in ast.walk(tree) if isinstance(n, ast.FunctionDef) and n.name == "must_reach")
    literals = {n.value for n in ast.walk(must_reach) if isinstance(n, ast.Constant) and isinstance(n.value, str)}
    fixed = {name for name in literals if re.fullmatch(r"\w+\.\w+", name)} - {"verifiers.verify_"}
    assert {"cli.main", "evolution.evolve_forced", "evolution.evolve_exact_trajectory"} <= fixed
    assert "verifiers.verify_" in literals
    assert set(tracer.VERIFY_FUNCTIONS) == {"verify_" + check for check in scenario._VERIFIERS}
    for name in sorted(fixed | {"verifiers." + name for name in tracer.VERIFY_FUNCTIONS}):
        assert name in tracer.SPANS, name
        owner, attr = tracer._owner(name)
        target = getattr(owner, attr, None)
        assert callable(target) and target.__module__.startswith("parafreq."), name
