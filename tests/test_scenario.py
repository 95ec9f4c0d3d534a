"""Config parsing, hashing, execution, and the three emitters."""

import json
import math
from dataclasses import replace

import numpy as np
import pytest

from parafreq import (
    ConfigError,
    VerificationReport,
    emit_plot_script,
    emit_report_json,
    emit_trace_csv,
    load_config,
    load_report_json,
    parse_config,
    report_from_dict,
    run_scenario,
)
from parafreq.cli import _load_packaged_configs
from parafreq.scenario import format_node_block

BASE = {
    "scenario_id": "base",
    "background": {"kind": "sphere", "n": 2},
    "initial_modes": {"1,0": 1.0},
    "time": {"a": -1.0, "b": -0.5, "nodes": 41},
    "checks": ["frequency_monotonicity", "harnack", "quadrature_mass"],
}


def _doc(**overrides):
    doc = json.loads(json.dumps(BASE))
    doc.update(overrides)
    return doc


def _expect_config_error(doc, field_fragment):
    with pytest.raises(ConfigError) as err:
        parse_config(doc)
    assert field_fragment in err.value.field, err.value


# ---------------------------------------------------------------------------
# parsing and validation


def test_minimal_config_parses():
    cfg = parse_config(_doc())
    assert cfg.scenario_id == "base"
    assert cfg.kappa_value == 0.5
    assert cfg.grid.a == -1.0 and cfg.grid.b == -0.5
    assert cfg.checks == ("frequency_monotonicity", "harnack", "quadrature_mass")


def test_unknown_fields_rejected():
    _expect_config_error(_doc(extra_knob=1), "extra_knob")


def test_scenario_id_must_be_a_file_name():
    for bad in ("../escaped", "a/b", "a\\b", "a\0b", ".", "..", "", 7, None, ["base"]):
        _expect_config_error(_doc(scenario_id=bad), "scenario_id")
    assert parse_config(_doc(scenario_id="ok.v2-x")).scenario_id == "ok.v2-x"


def test_background_validation():
    _expect_config_error(_doc(background={"kind": "torus"}), "background")
    _expect_config_error(_doc(background={"kind": "plane"}), "background")
    _expect_config_error(_doc(background={"kind": "cylinder", "k": 1}), "background")
    _expect_config_error(_doc(background={"kind": "plane", "n": 1.7}), "background.n")
    _expect_config_error(_doc(background={"kind": "sphere", "n": True}), "background.n")


def test_time_grid_validation():
    _expect_config_error(_doc(time={"a": -0.5, "b": -1.0, "nodes": 5}), "time")
    _expect_config_error(_doc(time={"a": -1.0, "b": 0.5, "nodes": 5}), "time")
    _expect_config_error(_doc(time={"a": -1.0, "b": -0.5, "nodes": 2}), "time")
    _expect_config_error(_doc(time={"a": -1.0, "b": -0.5, "nodes": 3.9}), "time.nodes")
    _expect_config_error(_doc(time={"a": float("-inf"), "b": -0.5, "nodes": 5}), "time.a")
    _expect_config_error(_doc(time={"a": "-1", "b": -0.5, "nodes": 5}), "time.a")


def test_mode_and_amplitude_validation():
    _expect_config_error(_doc(initial_modes={"x": 1.0}), "initial_modes")
    _expect_config_error(_doc(initial_modes={"1,0": float("inf")}), "initial_modes")
    _expect_config_error(_doc(initial_modes={"9,0,0": 1.0}), "initial_modes")
    _expect_config_error(_doc(initial_modes={"1,0": True}), "initial_modes")
    line = {"kind": "plane", "n": 1}
    for key in ("1_0", " +1", "+1", "1 ", "1,", ",1", "1,,0", "\u0661", "1\n"):
        _expect_config_error(_doc(background=line, initial_modes={key: 1.0}), "initial_modes")
    assert parse_config(_doc(background=line, initial_modes={"10": 1.0})).initial_modes[0][0].index == (10,)
    mixture = {"seed": -1, "mu_cutoff": 1.0, "low": 0.2, "high": 1.0}
    _expect_config_error(_doc(random_mixture=mixture), "random_mixture.seed")
    _expect_config_error(_doc(random_mixture=dict(mixture, seed=2.5)), "random_mixture.seed")


def test_check_list_validation():
    _expect_config_error(_doc(checks=[]), "checks")
    _expect_config_error(_doc(checks=["harnack", "harnack"]), "checks")
    _expect_config_error(_doc(checks=["nope"]), "checks")
    _expect_config_error(_doc(report_only=["weighted_monotonicity"]), "report_only")


def test_dimension_gates_on_pointwise_checks():
    doc = _doc(background={"kind": "plane", "n": 4}, initial_modes={"1,0,0,0": 1.0})
    doc["checks"] = ["quadrature_mass"]
    _expect_config_error(doc, "checks")
    doc["checks"] = ["frequency_monotonicity"]
    parse_config(doc)  # spectral checks stay available in high dimension


def test_kappa_validation():
    assert parse_config(_doc(kappa=0.5)).kappa_value == 0.5
    assert parse_config(_doc(kappa="background")).kappa_value == 0.5
    _expect_config_error(_doc(kappa=-0.1), "kappa")
    _expect_config_error(_doc(kappa="big"), "kappa")
    _expect_config_error(_doc(kappa=float("nan")), "kappa")


def test_forcing_validation():
    doc = _doc(
        background={"kind": "plane", "n": 1},
        initial_modes={"1": 1.0},
        forcing={"rate": {"type": "constant", "c0": 0.1}, "coupling": "scalar_on_u"},
    )
    cfg = parse_config(doc)
    assert cfg.forcing is not None
    _expect_config_error(_doc(forcing={"coupling": "scalar_on_u"}), "forcing")
    _expect_config_error(
        _doc(forcing={"rate": {"type": "constant", "c0": 0.1}, "coupling": "bogus"}), "forcing"
    )
    matrix = {"rate": {"type": "constant", "c0": 0.1}, "coupling": "mode_matrix", "matrix": [[0.0]]}
    for modes in (["1_0"], [" +1"], [1], "1"):
        _expect_config_error(dict(doc, forcing=dict(matrix, modes=modes)), "forcing.modes")
    assert parse_config(dict(doc, forcing=dict(matrix, modes=["1"]))).forcing.coupling.modes[0].index == (1,)


def test_random_mixture_is_seed_deterministic():
    doc = _doc(initial_modes={}, random_mixture={"seed": 5, "mu_cutoff": 1.6, "low": 0.2, "high": 1.0})
    a = parse_config(doc)
    b = parse_config(doc)
    assert a.initial_modes == b.initial_modes
    assert len(a.initial_modes) > 1
    doc2 = _doc(initial_modes={}, random_mixture={"seed": 6, "mu_cutoff": 1.6, "low": 0.2, "high": 1.0})
    assert parse_config(doc2).initial_modes != a.initial_modes


# ---------------------------------------------------------------------------
# config hash semantics


def test_hash_ignores_key_order_and_whitespace():
    text_a = json.dumps(BASE, indent=4)
    text_b = json.dumps({k: BASE[k] for k in reversed(list(BASE))})
    ha = parse_config(json.loads(text_a)).config_hash()
    hb = parse_config(json.loads(text_b)).config_hash()
    assert ha == hb


def test_hash_ignores_check_order_but_not_content():
    base = parse_config(_doc()).config_hash()
    reordered = parse_config(_doc(checks=["quadrature_mass", "harnack", "frequency_monotonicity"]))
    assert reordered.config_hash() == base
    fewer = parse_config(_doc(checks=["harnack"]))
    assert fewer.config_hash() != base


def test_hash_treats_explicit_default_kappa_as_omitted():
    base = parse_config(_doc()).config_hash()
    assert parse_config(_doc(kappa=0.5)).config_hash() == base
    assert parse_config(_doc(kappa="background")).config_hash() == base
    assert parse_config(_doc(kappa=0.75)).config_hash() != base


def test_hash_sees_material_fields():
    base = parse_config(_doc()).config_hash()
    assert parse_config(_doc(resolution=48)).config_hash() != base
    assert parse_config(_doc(initial_modes={"1,0": 2.0})).config_hash() != base
    assert parse_config(_doc(time={"a": -1.0, "b": -0.5, "nodes": 42})).config_hash() != base


# ---------------------------------------------------------------------------
# execution and emitters


def test_run_produces_one_report_per_check():
    out = run_scenario(parse_config(_doc()))
    assert [r.check_name for r in out.reports] == list(BASE["checks"])
    assert all(r.status != "fail" for r in out.reports)
    assert out.trace.U[0] == pytest.approx(-1.0, abs=1e-12)
    assert out.provenance["config_hash"] == out.config.config_hash()


def test_report_only_failures_do_not_count():
    doc = _doc(
        background={"kind": "plane", "n": 1},
        initial_modes={"2": 1.0},
        checks=["harnack", "harnack_printed"],
        report_only=["harnack_printed"],
    )
    out = run_scenario(parse_config(doc))
    statuses = {r.check_name: r.status for r in out.reports}
    assert statuses["harnack_printed"] == "fail"


def test_emitters_roundtrip_and_are_deterministic(tmp_path):
    cfg = parse_config(_doc())
    out = run_scenario(cfg)
    csv_path = tmp_path / "s.trace.csv"
    json_path = tmp_path / "s.report.json"
    plot_path = tmp_path / "s.plot.py"
    emit_trace_csv(out, csv_path)
    emit_report_json(out, json_path)
    emit_plot_script(out, plot_path)

    lines = csv_path.read_text().splitlines()
    assert lines[0] == "t,I,D,U,N_raw,cs_defect"
    assert len(lines) == 1 + len(out.trace.t)

    doc, reports = load_report_json(json_path)
    assert doc["scenario_id"] == "base"
    assert doc["provenance"]["config_hash"] == cfg.config_hash()
    assert [r.to_dict() for r in reports] == [r.to_dict() for r in out.reports]

    compile(plot_path.read_text(), str(plot_path), "exec")

    rerun = run_scenario(parse_config(_doc()))
    emit_trace_csv(rerun, tmp_path / "s2.trace.csv")
    emit_report_json(rerun, tmp_path / "s2.report.json")
    assert (tmp_path / "s2.trace.csv").read_bytes() == csv_path.read_bytes()
    assert (tmp_path / "s2.report.json").read_bytes() == json_path.read_bytes()


def test_load_config_uses_stem_as_fallback_id(tmp_path):
    doc = _doc()
    del doc["scenario_id"]
    path = tmp_path / "my-scenario.json"
    path.write_text(json.dumps(doc))
    cfg = load_config(path)
    assert cfg.scenario_id == "my-scenario"


def test_zero_data_scenario_statuses():
    doc = _doc(
        background={"kind": "plane", "n": 1},
        initial_modes={},
        checks=["frequency_monotonicity", "harnack", "selfsimilar_scaling", "quadrature_mass"],
    )
    out = run_scenario(parse_config(doc))
    statuses = {r.check_name: r.status for r in out.reports}
    assert statuses == {
        "frequency_monotonicity": "inapplicable",
        "harnack": "pass",
        "selfsimilar_scaling": "inapplicable",
        "quadrature_mass": "pass",
    }
    assert all(i == 0.0 for i in out.trace.I)


# ---------------------------------------------------------------------------
# the report writer against json.dumps


def _json_dumps_text(out):
    # the document emit_report_json writes, encoded the plain way
    doc = {
        "scenario_id": out.config.scenario_id,
        "provenance": out.provenance,
        "kappa_used": out.trace.kappa_used,
        "report_only": sorted(out.config.report_only),
        "reports": [r.to_dict() for r in out.reports],
    }
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"


def _assert_writer_matches_json_dumps(out, path):
    emit_report_json(out, path)
    assert path.read_bytes() == _json_dumps_text(out).encode()
    doc, reports = load_report_json(path)
    assert [r.to_dict() for r in reports] == doc["reports"] == [r.to_dict() for r in out.reports]
    for clone, report in zip(reports, out.reports):
        assert clone.t.tobytes() == report.t.tobytes()
        assert clone.margin.tobytes() == report.margin.tobytes()
        assert clone.labels == report.labels


def test_report_writer_matches_json_dumps_on_the_paper_suite(tmp_path):
    for config in _load_packaged_configs():
        _assert_writer_matches_json_dumps(run_scenario(config), tmp_path / f"{config.scenario_id}.report.json")


def test_report_writer_matches_json_dumps_on_edge_reports(tmp_path):
    out = run_scenario(parse_config(_doc()))
    odd = 'quote " backslash \\ bell \x07 tab \t ümlaut – snowman ☃'
    edge = (
        VerificationReport("harnack_printed", "sphere(2)", "base", [], [], (), 1e-9, None, "inapplicable", (odd,)),
        VerificationReport(
            "frequency_monotonicity", "sphere(2)", "base",
            [-1.0, -0.75, -0.5, -0.25], [-0.0, 5e-324, 1e16, 0.0], ("", odd, "a:b", "x\ny"),
            0.0, -0.0, "pass", (odd, ""),
        ),
    )
    _assert_writer_matches_json_dumps(replace(out, reports=out.reports + edge), tmp_path / "edge.report.json")
    _assert_writer_matches_json_dumps(replace(out, reports=edge[:1]), tmp_path / "empty.report.json")


def test_node_block_formats_non_finite_floats_as_json_dumps():
    t = np.array([-1.0, math.nan, -math.inf, math.inf])
    margin = np.array([math.nan, math.inf, -math.inf, -0.0])
    labels = ("nan", "inf", "-inf", "é")
    nodes = [{"t": a, "margin": b, "label": c} for a, b, c in zip(t.tolist(), margin.tolist(), labels)]
    for depth in (0, 3):
        expected = json.dumps(nodes, indent=2, sort_keys=True).replace("\n", "\n" + "  " * depth)
        assert format_node_block(t, margin, labels, depth) == expected
    assert format_node_block(np.array([]), np.array([]), (), 3) == json.dumps([], indent=2)


def test_non_finite_report_margin_raises_naming_t_and_label():
    for bad in (math.nan, math.inf, -math.inf):
        with pytest.raises(ValueError, match=r"at t=-0\.5 \(centered-slope\)"):
            VerificationReport(
                "frequency_monotonicity", "plane(1)", "s", [-1.0, -0.5], [0.0, bad],
                ("increment", "centered-slope"), 0.0, 0.0, "pass",
            )
        doc = {
            "check_name": "harnack", "background": "plane(1)", "scenario_id": "s",
            "nodes": [{"t": -0.5, "margin": bad, "label": "centered-slope"}],
            "tolerance": 0.0, "min_margin": 0.0, "status": "pass", "notes": [],
        }
        with pytest.raises(ValueError, match="non-finite margin"):
            report_from_dict(doc)
