"""Config parsing, hashing, execution, and the three emitters."""

import copy
import hashlib
import itertools
import json
import math
import os
import random
import re
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from parafreq import (
    ConfigError,
    Drift,
    Trajectory,
    VerificationReport,
    emit_plot_script,
    emit_report_json,
    emit_trace_csv,
    evolution,
    load_config,
    load_report_json,
    parse_config,
    run_scenario,
    scenario,
)
from parafreq.cli import _load_packaged_configs
from parafreq.modes import enumerate_modes, mode_from_index
from parafreq.verifiers import report_from_dict

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


_SCALAR_FORCING = {"rate": {"type": "constant", "c0": 0.1}, "coupling": "scalar_on_u"}
_SAMPLED_RATE = {"type": "sampled", "times": [-1.0, -0.5], "values": [0.1, 0.2]}


@pytest.mark.parametrize(
    "top, value, path, extra",
    [
        ("background", {"kind": "plane", "n": 1}, (), "k"),
        ("time", {"a": -1.0, "b": -0.5, "nodes": 41}, (), "step"),
        ("random_mixture", {"seed": 5, "mu_cutoff": 1.6, "low": 0.2, "high": 1.0}, (), "count"),
        ("forcing", _SCALAR_FORCING, (), "scale"),
        ("forcing", _SCALAR_FORCING, ("rate",), "slope"),
        ("forcing", dict(_SCALAR_FORCING, rate=_SAMPLED_RATE), ("rate",), "c0"),
        ("forcing", _SCALAR_FORCING, (), "matrix"),
        ("forcing", _SCALAR_FORCING, (), "modes"),
    ],
    ids=["background", "time", "random_mixture", "forcing", "constant-rate", "sampled-rate", "matrix", "modes"],
)
def test_each_config_object_rejects_a_key_it_does_not_know(top, value, path, extra):
    # the keys an object allows follow its kind, type or coupling; a key outside them is named with its path
    parse_config(_doc(initial_modes={}, **{top: value}))
    bad = copy.deepcopy(value)
    inner = bad
    for key in path:
        inner = inner[key]
    inner[extra] = 3
    with pytest.raises(ConfigError, match="unknown field") as err:
        parse_config(_doc(initial_modes={}, **{top: bad}))
    assert err.value.field == ".".join((top, *path, extra))


def test_scenario_id_must_be_a_file_name():
    for bad in ("../escaped", "a/b", "a\\b", "a\0b", ".", "..", "", 7, None, ["base"], "a\ud800"):
        _expect_config_error(_doc(scenario_id=bad), "scenario_id")
    assert parse_config(_doc(scenario_id="ok.v2-x")).scenario_id == "ok.v2-x"


def test_background_validation():
    _expect_config_error(_doc(background={"kind": "torus"}), "background")
    for kind in (["plane"], 1, None, "Plane"):
        _expect_config_error(_doc(background={"kind": kind, "n": 1}), "background.kind")
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


def test_time_span_too_narrow_for_its_nodes_is_a_config_error():
    # a < b < 0 holds, but five nodes between adjacent floats cannot all differ
    narrow = {"a": -1.0, "b": math.nextafter(-1.0, 0.0), "nodes": 5}
    with pytest.raises(ConfigError, match="strictly increasing: 5 nodes from a=-1.0") as err:
        parse_config(_doc(time=narrow))
    assert err.value.field == "time"


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


def test_duplicate_report_only_entries_rejected():
    # refused like a duplicate in checks, instead of collapsing into one entry
    with pytest.raises(ConfigError, match="duplicate check 'harnack'") as err:
        parse_config(_doc(report_only=["harnack", "harnack"]))
    assert err.value.field == "report_only"
    assert parse_config(_doc(report_only=["harnack"])).report_only == frozenset({"harnack"})


def test_non_string_check_names_rejected():
    # a list or object cannot be a check name: a config error on the field, not a crash while looking it up
    for bad in (["harnack"], {"a": 1}, 7, None):
        with pytest.raises(ConfigError) as err:
            parse_config(_doc(checks=["harnack", bad]))
        assert err.value.field == "checks"
        _expect_config_error(_doc(report_only=[bad]), "report_only")


def test_tolerance_for_a_check_not_requested_rejected():
    # refused like such a report_only entry, instead of being hashed and never read
    for name in ("equality_case", "bogus"):
        with pytest.raises(ConfigError, match=f"'{name}' is not among the requested checks") as err:
            parse_config(_doc(tolerances={name: 1e-6}))
        assert err.value.field == "tolerances"
    assert parse_config(_doc(tolerances={"harnack": 1e-6})).tolerances == (("harnack", 1e-6),)


def test_pointwise_checks_run_in_any_dimension():
    # no dimension gates a check: plane(4) reads a rule of resolution^4 points, and spectral checks stay available
    doc = _doc(background={"kind": "plane", "n": 4}, initial_modes={"1,0,0,0": 1.0}, resolution=3)
    doc["checks"] = ["quadrature_mass"]
    assert [r.status for r in run_scenario(parse_config(doc)).reports] == ["pass"]
    doc["checks"] = ["frequency_monotonicity"]
    parse_config(doc)


# S^3, S^4, S^2 x R and S^1 x R^2, each with a degree-2 round mode, the resolution exact for its integrands
HIGHER = [{"kind": "sphere", "n": 3}, {"kind": "sphere", "n": 4}, {"kind": "cylinder", "k": 2, "m": 1},
          {"kind": "cylinder", "k": 1, "m": 2}]
# the checks that integrate over the surface: quadrature_mass on the rule, selfsimilar_scaling by amplitudes, the other
# three by closed-form moments
_RULE_CHECKS = ["weighted_monotonicity", "selfsimilar_scaling", "quadrature_mass", "drift_bochner",
                "drift_bochner_verbatim"]


@pytest.mark.parametrize("bg_doc", HIGHER, ids=lambda doc: "-".join(str(v) for v in doc.values()))
def test_every_rule_reader_and_a_forced_run_on_higher_round_factors(bg_doc):
    mode = "2,1" + ",0" * bg_doc.get("m", 0)
    doc = _doc(background=bg_doc, initial_modes={mode: 1.0}, time={"a": -1.0, "b": -0.5, "nodes": 5},
               resolution=4, checks=_RULE_CHECKS, report_only=["drift_bochner_verbatim"])
    reports = {r.check_name: r for r in run_scenario(parse_config(doc)).reports}
    assert all(reports[name].status == "pass" for name in _RULE_CHECKS[:-1]), {n: r.status for n, r in reports.items()}
    assert -reports["drift_bochner"].min_margin < 1e-13
    # the verbatim variant misses by exactly the pairing integral its notes give, one per end of the run
    verbatim = reports["drift_bochner_verbatim"]
    pairings = [float(note.rsplit(": ", 1)[1]) for note in verbatim.notes]
    assert verbatim.status == "fail" and min(pairings) > 0.1
    assert verbatim.columns[0].margin.tolist() == pytest.approx([-p for p in pairings], rel=1e-12)
    # a drift where the shape has a flat axis, else a scalar forcing, meets the hypothesis identically
    coupling = "drift" if "m" in bg_doc else "scalar_on_u"
    forcing = {"rate": {"type": "constant", "c0": 0.2}, "coupling": coupling}
    general = ["general_bounds", "general_harnack"]
    out = run_scenario(parse_config(dict(doc, forcing=forcing, checks=general, report_only=[])))
    assert [(r.check_name, r.status) for r in out.reports] == [(name, "pass") for name in general]
    assert all(r.notes[0].startswith("forcing hypothesis holds identically") for r in out.reports)


def test_kappa_validation():
    assert parse_config(_doc(kappa=0.5)).kappa_value == 0.5
    assert parse_config(_doc(kappa="background")).kappa_value == 0.5
    _expect_config_error(_doc(kappa=-0.1), "kappa")
    _expect_config_error(_doc(kappa="big"), "kappa")
    _expect_config_error(_doc(kappa=float("nan")), "kappa")


def test_resolution_validation():
    assert parse_config(_doc()).resolution == 24
    assert parse_config(_doc(resolution=2.0)).resolution == 2
    for bad in (1, 0, -3, 2.5, True, "8"):
        _expect_config_error(_doc(resolution=bad), "resolution")


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
    assert parse_config(dict(doc, forcing=dict(doc["forcing"], coupling="drift"))).forcing.coupling == Drift()
    # the mode-matrix coupling is gone, with no alias: its refusal names both couplings there are
    matrix = {"rate": {"type": "constant", "c0": 0.1}, "coupling": "mode_matrix", "modes": ["1"], "matrix": [[0.0]]}
    with pytest.raises(ConfigError, match="unknown coupling 'mode_matrix'; known: 'scalar_on_u', 'drift'") as err:
        parse_config(dict(doc, forcing=matrix))
    assert err.value.field == "forcing.coupling"
    # so is its step tolerance
    with pytest.raises(ConfigError, match="unknown field") as err:
        parse_config(dict(doc, rk_local_tol=1e-8))
    assert err.value.field == "rk_local_tol"


def test_scalar_forcing_runs_both_general_checks_off_the_pointwise_set():
    # sphere(3): a scalar forcing holds identically and reads no rule; a drift needs a flat axis, which it lacks
    general = ["general_bounds", "general_harnack"]
    scalar = {"rate": {"type": "sampled", "times": [-1.0, -0.5], "values": [0.5, 0.2]}, "coupling": "scalar_on_u"}
    doc = _doc(background={"kind": "sphere", "n": 3}, initial_modes={"1,0": 1.0, "2,0": -0.3}, checks=general)
    out = run_scenario(parse_config(dict(doc, forcing=scalar)))
    assert [(r.check_name, r.status) for r in out.reports] == [(name, "pass") for name in general]
    assert all(r.notes[0].startswith("forcing hypothesis holds identically") for r in out.reports)
    with pytest.raises(ConfigError, match="a drift runs along a flat axis, and sphere\\(n=3\\) has none") as err:
        parse_config(dict(doc, forcing=dict(scalar, coupling="drift")))
    assert err.value.field == "forcing.coupling"


def test_a_mixture_above_the_mode_budget_is_refused_before_any_mode_is_enumerated(monkeypatch):
    # plane(6) at cutoff 60 asks for C(126, 6), about 4.7e9 modes; counted in closed form, it is refused at once, and
    # so is a cutoff of 1e300 on a sphere, whose degrees the count stops reading at the first total above the budget
    def refuse(*args):
        raise AssertionError("a refused mixture enumerated its modes")

    monkeypatch.setattr(scenario, "enumerate_modes", refuse)
    mixture = {"seed": 1, "mu_cutoff": 60, "low": 0.2, "high": 1.0}
    for bg_doc, cutoff, count in (({"kind": "plane", "n": 6}, 60, math.comb(126, 6)), (BASE["background"], 1e300, 0)):
        doc = _doc(background=bg_doc, initial_modes={}, random_mixture=dict(mixture, mu_cutoff=cutoff))
        with pytest.raises(ConfigError, match=f"above the budget of {scenario._MAX_MIXTURE_MODES}$") as err:
            parse_config(doc)
        assert err.value.field == "random_mixture.mu_cutoff"
        if count:
            assert f"asks for at least {count} modes on plane(n=6)" in str(err.value)
    # at the budget's edge: plane(1) at cutoff 4.5 has 10 modes and at 5, 11
    monkeypatch.undo()
    monkeypatch.setattr(scenario, "_MAX_MIXTURE_MODES", 10)
    def line(cutoff):
        return _doc(background={"kind": "plane", "n": 1}, initial_modes={}, random_mixture=dict(mixture, mu_cutoff=cutoff))

    assert len(parse_config(line(4.5)).initial_modes) == 10
    with pytest.raises(ConfigError, match="5.0 asks for at least 11 modes on plane"):
        parse_config(line(5))


@pytest.mark.filterwarnings("error")
def test_powers_outside_the_float_range_are_refused_naming_their_field():
    # (-t)^(2 kappa) at kappa 1e300 underflows to 0 at every node after t = -1, where it would pass every increment
    # at 0; squaring mu/(-t) overflows on a grid that ends at -1e-301.  Both are decided by logs before any run
    line = {"kind": "plane", "n": 1}
    for overrides, field in (
        ({"kappa": 1e300}, "kappa"),
        ({"kappa": 400, "time": {"a": -4.0, "b": -2.0, "nodes": 5}}, "kappa"),  # 4^800 overflows
        ({"time": {"a": -1e-300, "b": -1e-301, "nodes": 5}}, "time"),
    ):
        with pytest.raises(ConfigError) as err:
            parse_config(_doc(background=line, initial_modes={"2": 1.0}, **overrides))
        assert err.value.field == field, err.value
    # inside the range both parse: the constant mode alone takes no mu/(-t), and kappa 250 keeps 4^500 finite
    parse_config(_doc(background=line, initial_modes={"0": 1.0}, time={"a": -1e-300, "b": -1e-301, "nodes": 5}))
    parse_config(_doc(background=line, initial_modes={"2": 1.0}, kappa=250, time={"a": -4.0, "b": -2.0, "nodes": 5}))


def test_random_mixture_is_seed_deterministic():
    doc = _doc(initial_modes={}, random_mixture={"seed": 5, "mu_cutoff": 1.6, "low": 0.2, "high": 1.0})
    a = parse_config(doc)
    b = parse_config(doc)
    assert a.initial_modes == b.initial_modes
    assert len(a.initial_modes) > 1
    doc2 = _doc(initial_modes={}, random_mixture={"seed": 6, "mu_cutoff": 1.6, "low": 0.2, "high": 1.0})
    assert parse_config(doc2).initial_modes != a.initial_modes


# seeds of one 32-bit word and of several: every class the seeding treats apart (one word, the pool of four filled
# with zeros or exactly, words mixed in beyond the fourth) and its edges, and random seeds of one and of five words
_SEEDS = random.Random(29)
MIXTURE_SEEDS = [
    *range(64), 2**31 - 1, 2**32 - 1, 2**32, 2**32 + 1, 2**64 - 1, 2**64, 2**64 + 1, 2**96 - 1, 2**128 - 1,
    2**128 + 11, 2**160 + 3, 2**200 + 7, 10**40, *(_SEEDS.randrange(2**31) for _ in range(24)),
    *(_SEEDS.randrange(2**140) for _ in range(24)),
]


def _numpy_amplitudes(seed: int, low: float, high: float, count: int) -> list[float]:
    # the independent route: numpy's generator, one uniform and one sign per amplitude
    rng = np.random.default_rng(seed)
    return [float(rng.uniform(low, high)) * float(rng.choice((-1.0, 1.0))) for _ in range(count)]


@pytest.mark.parametrize("low, high", [(0.0, 1.0), (0.231519, 0.944193), (1.5, 1.5), (0.0, 1e300)])
def test_mixture_stream_is_numpy_default_rng_bit_for_bit(low, high):
    for seed in MIXTURE_SEEDS:
        got = list(itertools.islice(scenario._mixture_amplitudes(seed, low, high), 97))
        assert [v.hex() for v in got] == [v.hex() for v in _numpy_amplitudes(seed, low, high, 97)], seed


def _numpy_mixture(bg, mixture: dict) -> dict:
    modes = enumerate_modes(bg, mixture["mu_cutoff"])
    amplitudes = _numpy_amplitudes(int(mixture["seed"]), mixture["low"], mixture["high"], len(modes))
    return {m: a.hex() for m, a in zip(modes, amplitudes)}


def test_mixture_amplitudes_are_the_numpy_uniform_times_choice_route():
    # parse_config's amplitudes mode by mode; a mixture mode that is also an initial mode takes the sum of both
    for seed in (0, 5, 2**32 + 1, 2**130 + 5):
        mixture = {"seed": seed, "mu_cutoff": 2.6, "low": 0.2, "high": 1.0}
        config = parse_config(_doc(initial_modes={"1,0": 0.25}, random_mixture=mixture))
        want = _numpy_mixture(config.background, mixture)
        first = mode_from_index(config.background, (1, 0))
        want[first] = (float.fromhex(want[first]) + 0.25).hex()
        assert len(want) == 9
        assert {m: a.hex() for m, a in config.initial_modes} == want, seed
    packaged = [c for c in _load_packaged_configs() if c.document["random_mixture"] is not None]
    assert len(packaged) == 3
    for config in packaged:
        want = _numpy_mixture(config.background, config.document["random_mixture"])
        assert {m: a.hex() for m, a in config.initial_modes} == want, config.scenario_id


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


# the hashes of the packaged configs, which reports already emitted carry
PACKAGED_HASHES = {
    "cylinder-mixture": "d8eeace0ed88b401076d0d0675123e343c322c58e4d063f4c9c8fa1497452cc8",
    "eigenvalue-window-cylinder": "0378aec392ca1e8b257ed45851dd8cd543669803971c91b278bcba5621d2ee08",
    "eigenvalue-window-plane": "379ad1ec5e14e829d99028fb7bc48978de17aada05635303bc7708f6d8af5ad8",
    "eigenvalue-window-sphere": "94aff6cbbf0ad6c83d4dfa83589dee93facfefc28f7073cc3d79709579be31af",
    "plane-bochner": "50184eaa00889616cb98d56a86355fd33f44ea252fec070a379e7cf127a57276",
    "plane-caloric-cubic": "e9155699b8ef6b7060a3ed083818ad8abbeee19c275c7c6cee2ea1d4301ca24b",
    "plane-mixture": "d6c63fe962f2db86fee4bd5140e7111804ff72945a79f61f524fdc076acbdc11",
    "plane-weighted-identity": "495066e0e2124a4464ab04381692d3e5890047409ea5942c96ed9e2f9fde820e",
    "plane-zero-data": "2c910b82351d52f5de93763b3b82713fa54fc92f9f18a9c9baab1fb6618be066",
    "plane2-caloric": "6555685efb65663886904d5e1802b048acb149472b95276ae56d761561c68427",
    "scalar-forced-bounds": "d9992043e33e6f0db1f8a34ce4f4c79c8ab752249bce3350826315d2a579b5ab",
    "scalar-forced-zero": "a16714f07ed10e698b958e923dcb23992cc32655206af05589347eebeef79488",
    "sphere-bochner": "6462a8fc39273c88b97e9ad4f8870871c2bbef3aea6df951d7585c2255b68a0b",
    "sphere-golden-fundamental": "cbc398bd76a6ee6ab30c95c277cffa343db3d33134a53b5e82153f02a3b3dd3d",
    "sphere-high-dim-spectrum": "733eb0aceb42966937d5bb670437572d6910147402fcf7f7d241927d2c3c6ab3",
    "sphere-mixture": "9abd3b31c4e847c040bd976e43417e7d9a1f88cd65b4fcc68fed5196b6435155",
    "sphere-weighted-identity": "01ba6b3c9ca33b650b83ee12956b703e4e94cd5466349b9905743e1d492239f5",
}


def test_packaged_config_hashes_are_pinned():
    # any drift in the canonical document moves a hash that reports already carry
    assert {c.scenario_id: c.config_hash() for c in _load_packaged_configs()} == PACKAGED_HASHES


def _canonical(document):
    return json.dumps(document, sort_keys=True, separators=(",", ":")).encode("utf-8")


_JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats(allow_nan=False, allow_infinity=False) | st.text(),
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(max_size=6), inner, max_size=4),
    max_leaves=12,
)


@settings(max_examples=200, deadline=None)
@given(document=st.dictionaries(st.text(max_size=6), _JSON_VALUES, max_size=4), edge=st.integers(52, 68))
@example(document={}, edge=55)
@example(document={}, edge=56)
@example(document={}, edge=64)
def test_config_hash_is_hashlib_sha256_of_the_canonical_document(document, edge):
    # SHA-256 pads a message with 0x80 and its 8-byte length: 55 bytes fill one 64-byte block, 56 need a second;
    # a padding field brings the canonical bytes to `edge` modulo 64 (to `edge` itself for a short document)
    padded = {**document, "~pad": ""}
    padded["~pad"] = "x" * ((edge - len(_canonical(padded))) % 64)
    assert len(_canonical(padded)) % 64 == edge % 64
    for doc in (document, padded):
        config = replace(parse_config(_doc()), document=doc)
        assert config.config_hash() == hashlib.sha256(_canonical(doc)).hexdigest()


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
    # node i of every column is row i of the trace
    time = doc["time"]
    assert np.linspace(time["a"], time["b"], time["nodes"]).tolist() == [float(row.split(",")[0]) for row in lines[1:]]
    assert [_as_json(r.to_dict()) for r in reports] == [_as_json(r.to_dict()) for r in out.reports]

    compile(plot_path.read_text(), str(plot_path), "exec")

    rerun = run_scenario(parse_config(_doc()))
    emit_trace_csv(rerun, tmp_path / "s2.trace.csv")
    emit_report_json(rerun, tmp_path / "s2.report.json")
    assert (tmp_path / "s2.trace.csv").read_bytes() == csv_path.read_bytes()
    assert (tmp_path / "s2.report.json").read_bytes() == json_path.read_bytes()


@pytest.mark.parametrize("block", [None, 7], ids=["default-block", "blocks-of-7-rows"])
def test_trace_csv_streams_the_bytes_of_one_joined_string(monkeypatch, tmp_path, block):
    # rows are written a block at a time; the file is the one string of every row joined, whatever the block, on a
    # trace whose length is no multiple of it and with the nan frequency of zero rows
    if block is not None:
        monkeypatch.setattr(scenario, "_CSV_BLOCK", block)
    nodes = 2 * scenario._CSV_BLOCK + 37
    for initial in ({"1,0": 1.0, "2,3": -0.25}, {}):
        out = run_scenario(parse_config(_doc(initial_modes=initial, time={"a": -1.0, "b": -0.5, "nodes": nodes})))
        trace = out.trace
        columns = (trace.t, trace.I, trace.D, trace.U, trace.N_raw, trace.cs_defect)
        rows = [",".join(["%.17g"] * 6) % row for row in zip(*(c.tolist() for c in columns))]
        path = tmp_path / "s.trace.csv"
        emit_trace_csv(out, path)
        assert path.read_bytes() == ("\n".join(["t,I,D,U,N_raw,cs_defect", *rows]) + "\n").encode()
        assert len(rows) == nodes and ("nan" in rows[0]) == (not initial)
        assert not (tmp_path / "s.trace.csv.tmp").exists()


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
# the report file: columns through json.dumps and back


def _as_json(doc: dict) -> str:
    """``doc`` encoded as the writer encodes it: ``to_dict`` hands the node columns over as arrays."""
    return json.dumps(doc, sort_keys=True, default=np.ndarray.tolist)


def _assert_columns_round_trip(out, path):
    emit_report_json(out, path)
    doc = {
        "format": "parafreq-report/3",
        "scenario_id": out.config.scenario_id,
        "provenance": out.provenance,
        "kappa_used": out.trace.kappa_used,
        "report_only": sorted(out.config.report_only),
        "time": out.config.document["time"],
        "reports": [
            {**r.to_dict(), "scenario_id": out.config.scenario_id, "background": out.config.background.label()}
            for r in out.reports
        ],
    }
    text = _as_json(doc)
    assert path.read_bytes() == (text + "\n").encode()
    loaded, reports = load_report_json(path)
    assert loaded == json.loads(text)
    assert len(reports) == len(out.reports)
    for clone, report in zip(reports, out.reports):
        assert [c.label for c in clone.columns] == [c.label for c in report.columns]
        for x, y in zip(clone.columns, report.columns, strict=True):
            assert x.nodes.tobytes() == y.nodes.tobytes() and x.margin.tobytes() == y.margin.tobytes(), x.label
        assert _as_json(clone.to_dict()) == _as_json(report.to_dict())
    return reports


def test_report_writer_matches_json_dumps_on_the_paper_suite(tmp_path):
    for config in _load_packaged_configs():
        _assert_columns_round_trip(run_scenario(config), tmp_path / f"{config.scenario_id}.report.json")


def test_report_writer_matches_json_dumps_on_edge_reports(tmp_path):
    out = run_scenario(parse_config(_doc()))
    odd = 'quote " backslash \\ bell \x07 tab \t newline \n ümlaut – snowman ☃'
    edge = (
        VerificationReport("harnack_printed", (), 1e-9, (odd,)),
        VerificationReport(
            "frequency_monotonicity",
            [("", [0], [-0.0]), (odd, [3, 1], [5e-324, 1e16]), ("a:b", [], []), ("x\ny", [2], [0.0])],
            0.0, (odd, ""),
        ),
    )
    empty, odd_report = _assert_columns_round_trip(replace(out, reports=out.reports + edge), tmp_path / "e.json")[-2:]
    assert (empty.status, empty.min_margin, empty.columns, empty.notes) == ("inapplicable", None, (), (odd,))
    assert [c.margin.tolist() for c in odd_report.columns] == [[-0.0], [5e-324, 1e16], [], [0.0]]
    assert [c.nodes.tolist() for c in odd_report.columns] == [[0], [3, 1], [], [2]]
    assert math.copysign(1.0, odd_report.columns[0].margin[0]) == -1.0
    assert math.copysign(1.0, odd_report.min_margin) == -1.0
    assert [c.label for c in odd_report.columns] == ["", odd, "a:b", "x\ny"]
    _assert_columns_round_trip(replace(out, reports=edge[:1]), tmp_path / "empty.report.json")


def test_each_report_entry_carries_the_run_identity(tmp_path):
    # reports hold only their check's verdict; the writer adds the run's id and background label to each entry
    out = run_scenario(parse_config(_doc(checks=["frequency_monotonicity", "harnack", "weighted_monotonicity"])))
    assert not any(hasattr(r, "scenario_id") or hasattr(r, "background") for r in out.reports)
    path = tmp_path / "base.report.json"
    emit_report_json(out, path)
    doc = json.loads(path.read_text())
    assert [entry["check_name"] for entry in doc["reports"]] == list(out.config.checks)
    for entry in doc["reports"]:
        assert entry["scenario_id"] == doc["scenario_id"] == "base"
        assert entry["background"] == out.config.background.label() == "sphere(n=2)"
    _, reports = load_report_json(path)
    assert [r.to_dict().keys() for r in reports] == [r.to_dict().keys() for r in out.reports]


def test_load_report_json_refuses_an_unmarked_document(tmp_path):
    out = run_scenario(parse_config(_doc()))
    path = tmp_path / "s.report.json"
    emit_report_json(out, path)
    doc = json.loads(path.read_text())
    del doc["format"]
    for unmarked in (doc, {**doc, "format": "parafreq-report/1"}, {**doc, "format": "parafreq-report/2"}):
        path.write_text(json.dumps(unmarked))
        with pytest.raises(ValueError, match="format"):
            load_report_json(path)


def test_load_report_json_refuses_a_document_that_is_not_an_object(tmp_path):
    path = tmp_path / "list.report.json"
    path.write_text("[]")
    with pytest.raises(ValueError, match="list.report.json: report format None"):
        load_report_json(path)


def test_load_report_json_refuses_reports_that_are_not_a_list(tmp_path):
    path = tmp_path / "five.report.json"
    path.write_text(json.dumps({"format": "parafreq-report/3", "reports": 5}))
    with pytest.raises(ValueError, match="five.report.json: 'reports' is not a list"):
        load_report_json(path)


def test_load_report_json_refuses_an_entry_that_is_not_an_object(tmp_path):
    path = tmp_path / "entry.report.json"
    path.write_text(json.dumps({"format": "parafreq-report/3", "reports": [5]}))
    with pytest.raises(ValueError, match=r"entry.report.json: reports\[0\] is not a report \(TypeError: "):
        load_report_json(path)


def test_load_report_json_refuses_an_entry_without_columns(tmp_path):
    path = tmp_path / "base.report.json"
    emit_report_json(run_scenario(parse_config(_doc(checks=["harnack", "harnack_printed"]))), path)
    doc = json.loads(path.read_text())
    del doc["reports"][1]["columns"]
    path.write_text(json.dumps(doc))
    with pytest.raises(ValueError, match=r"base.report.json: reports\[1\] is not a report \(KeyError: 'columns'\)"):
        load_report_json(path)


def test_load_report_json_refuses_a_verdict_its_columns_contradict(tmp_path):
    path = tmp_path / "mix.report.json"
    checks = ["frequency_monotonicity", "harnack", "selfsimilar_scaling"]
    emit_report_json(run_scenario(parse_config(_doc(initial_modes={"1,0": 1.0, "2,0": 0.5}, checks=checks))), path)
    doc = json.loads(path.read_text())
    monotone, harnack, scaling = doc["reports"]
    assert (monotone["status"], harnack["status"], scaling["status"]) == ("pass", "pass", "inapplicable")
    below = copy.deepcopy(monotone)
    below["columns"][0]["margin"][3] = monotone["min_margin"] - 1e-3
    column = {"label": "weighted-l2-residual", "runs": [[0, 1]], "margin": [0.0]}
    edits = [
        (0, below),  # one margin pushed below min_margin
        (1, {**harnack, "status": "fail"}),  # a flipped status
        (2, {**scaling, "min_margin": 0.0}),  # an inapplicable report with a margin
        (2, {**scaling, "columns": [column]}),  # or with a column
    ]
    for i, entry in edits:
        path.write_text(json.dumps({**doc, "reports": [entry if j == i else e for j, e in enumerate(doc["reports"])]}))
        with pytest.raises(ValueError, match=rf"mix.report.json: reports\[{i}\] is not a report \(ValueError: "):
            load_report_json(path)
    path.write_text(json.dumps(doc))
    assert [r.status for r in load_report_json(path)[1]] == ["pass", "pass", "inapplicable"]


@pytest.mark.parametrize(
    "edit, error",
    [
        (lambda entry: entry.update(notes="abc"), "TypeError: notes must be a sequence of strings, got 'abc'"),
        (lambda entry: entry.update(check_name=5), "TypeError: check_name must be a string, got 5"),
        (lambda entry: entry["columns"][0].update(label=7), "TypeError: column label must be a string, got 7"),
        (lambda entry: entry.update(tolerance=-1.0), "ValueError: tolerance must be at least 0, got -1.0"),
    ],
    ids=["notes-a-string", "check-name-a-number", "label-a-number", "negative-tolerance"],
)
def test_load_report_json_refuses_what_it_would_coerce(tmp_path, edit, error):
    # each hand-edited file would read back as a different report (notes "abc" as ('a', 'b', 'c')) or one no
    # verifier makes, so the reader refuses it and names the file and the entry
    path = tmp_path / "edited.report.json"
    emit_report_json(run_scenario(parse_config(_doc(checks=["harnack", "frequency_monotonicity"]))), path)
    doc = json.loads(path.read_text())
    assert len(load_report_json(path)[1]) == 2
    edit(doc["reports"][1])
    path.write_text(json.dumps(doc))
    with pytest.raises(ValueError, match=re.escape(f"edited.report.json: reports[1] is not a report ({error})")):
        load_report_json(path)


@pytest.mark.parametrize("margins", [[-0.0, 0.0], [0.0, -0.0]])
def test_report_from_dict_takes_the_first_minimum_bit_for_bit(margins):
    # Python's min keeps the first of equal values, so the sign of a zero min_margin is the first zero's
    column = {"label": "increment", "runs": [[1, 3]], "margin": margins}
    doc = {"check_name": "harnack", "columns": [column], "tolerance": 0.0, "status": "pass", "notes": []}
    first, other = margins
    assert math.copysign(1.0, report_from_dict({**doc, "min_margin": first}).min_margin) == math.copysign(1.0, first)
    with pytest.raises(ValueError, match="do not follow from its columns"):
        report_from_dict({**doc, "min_margin": other})


def test_undecodable_config_is_a_document_error_naming_the_path(tmp_path):
    cfg = tmp_path / "latin1.json"
    cfg.write_bytes(json.dumps(_doc(scenario_id="caf\u00e9"), ensure_ascii=False).encode("latin-1"))
    with pytest.raises(ConfigError, match="latin1.json") as info:
        load_config(cfg)
    assert info.value.field == "<document>"


def test_non_finite_report_margin_raises_naming_node_and_label():
    increment = {"label": "increment", "runs": [[1, 3]], "margin": [0.0, 0.0]}
    doc = {
        "check_name": "harnack",
        "columns": [increment, {"label": "other", "runs": [[1, 2]], "margin": [0.0]}],
        "tolerance": 0.0, "min_margin": 0.0, "status": "pass", "notes": [],
    }
    for bad in (math.nan, math.inf, -math.inf):
        with pytest.raises(ValueError, match=r"at node 2 \(increment\)"):
            VerificationReport(
                "frequency_monotonicity", [("increment", [1, 2], [0.0, bad]), ("other", [1], [0.0])], 0.0
            )
        with pytest.raises(ValueError, match=r"non-finite margin .* at node 2 \(increment\)"):
            report_from_dict({**doc, "columns": [{**increment, "margin": [0.0, bad]}]})
    report_from_dict(doc)
    with pytest.raises(ValueError, match="column 'increment' has 2 nodes but 1 margins"):
        report_from_dict({**doc, "columns": [{**increment, "margin": [0.0]}]})


def test_report_file_keeps_the_fields_the_benchmark_verdicts_read(tmp_path):
    # perfbench/verdicts.py reads doc["report_only"] and, per entry of doc["reports"], these four fields
    out = run_scenario(parse_config(_doc(checks=["harnack", "harnack_printed"], report_only=["harnack_printed"])))
    path = tmp_path / "base.report.json"
    emit_report_json(out, path)
    doc = json.loads(path.read_text())
    assert doc["report_only"] == ["harnack_printed"]
    read = [{key: entry[key] for key in ("check_name", "status", "min_margin", "tolerance")} for entry in doc["reports"]]
    assert read == [
        {"check_name": r.check_name, "status": r.status, "min_margin": r.min_margin, "tolerance": r.tolerance}
        for r in out.reports
    ]
    assert [r["status"] for r in read] == ["pass", "inapplicable"] and read[1]["min_margin"] is None


@pytest.mark.parametrize("name", ["scalar-forced-bounds", "plane-mixture"])
def test_traced_run_of_a_packaged_config_exits_zero(tmp_path, name):
    # perfbench/tracer.py wraps package functions by name and reads their arguments (the grid's ``nodes`` among
    # them), so a renamed function or attribute shows here as a nonzero exit or as a lost amplitude count; the
    # forced scalar-forced-bounds evaluates its one unforced run inside evolve_forced
    package = Path(scenario.__file__).parent
    path = package / "suite" / f"{name}.json"
    root = Path(__file__).resolve().parents[1]
    spans = tmp_path / "spans.json"
    command = [sys.executable, str(root / "perfbench" / "tracer.py"), str(spans), "1", "--",
               "run", str(path), "--out", str(tmp_path / "out"), "--quiet"]
    env = {**os.environ, "PYTHONPATH": str(package.parent)}
    proc = subprocess.run(command, capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    doc = json.loads(spans.read_text())
    assert doc["exit_code"] == 0
    config, names = load_config(path), {span[1] for span in doc["spans"]}
    assert (config.forcing is None) == (name == "plane-mixture")
    amplitudes = doc["counts"]["evolution.evolve_exact_trajectory.amplitudes"]
    assert amplitudes == len(config.grid.nodes) * len(config.initial_modes) > 0
    assert "evolution.evolve_exact_trajectory" in names
    assert ("evolution.evolve_forced" in names) == (config.forcing is not None)


def test_no_packaged_run_reads_a_whole_amplitude_array(monkeypatch):
    # every check of an unforced packaged run reads its trajectory a block of rows at a time, so the (nodes, modes)
    # array is never built: with blocks of 8 entries, no read of Trajectory.rows may take more rows than a block
    entries, read = 8, Trajectory.rows
    monkeypatch.setattr(evolution, "_BLOCK_ENTRIES", entries)

    def one_block(traj, part):
        count, limit = len(np.arange(len(traj.grid.nodes))[part]), max(1, entries // max(1, len(traj.modes)))
        assert count <= limit, f"{count} rows of {len(traj.modes)} modes read at once, above a block of {limit}"
        return read(traj, part)

    monkeypatch.setattr(Trajectory, "rows", one_block)
    configs = [config for config in _load_packaged_configs() if config.forcing is None]
    # every check they make meets a run longer than one block
    longer = [config for config in configs if len(config.grid.nodes) > entries // max(1, len(config.initial_modes))]
    assert len({name for config in longer for name in config.checks}) == 11
    for config in configs:
        run_scenario(config)


# per packaged scenario, the sha256 of its reports' columns: each check name, then per column its label, node
# indices and the float.hex of each margin.  Taken from the parafreq-report/2 files regrouped per label, with
# quadrature_mass moved from t = -1 to node 0 and each equality_case node kept once; the twelve scenarios that run
# frequency_monotonicity or selfsimilar_scaling were retaken when the first kept only its increments and the second
# became the weighted L^2 residual of the amplitudes; the nine that run quadrature_mass on a plane or on sphere(2)
# when the rule's Gauss factors became unscaled Christoffel weights, which moved that margin by at most 6.7e-16.
SUITE_COLUMN_DIGESTS = {
    "cylinder-mixture": "12bb9c3ab426e5ab20bff99a73a30b3edf51a459f57e158865926e56ccee8653",
    "eigenvalue-window-cylinder": "23602b2a239e37f4de50596bbc4d9f52430b4b5d899202516984ed3005d76113",
    "eigenvalue-window-plane": "273620e756b347969e7702c2312d5ec2c0aa6b98d7af51990a4d4ffe9ebdd563",
    "eigenvalue-window-sphere": "23602b2a239e37f4de50596bbc4d9f52430b4b5d899202516984ed3005d76113",
    "plane-bochner": "162925981c559d89e15e36ee35b7338122615268d7b6e6a76cc2ea9dfe7018c5",
    "plane-caloric-cubic": "6476f5c9355cd3a9d4c6c0d65b938992fdb3b1ca4215a2c2aea2a90c615e34b4",
    "plane-mixture": "dfa05e38a5fafe3f3c79d1bca84304069b28b1e5b75ee4d227e86ad298ff57c2",
    "plane-weighted-identity": "064e0f0bfb79a7f0c115190c15261ac6225590fb32d40472a7fff0a244223174",
    "plane-zero-data": "ef5d7f900d9da51e4f70d87541f018499f5ffac7d17bda316d51a1d7a84cf249",
    "plane2-caloric": "af43826114e17a39a138e96bb59aade58c9d3fff8a5a1ae69ebf3c422598f835",
    "scalar-forced-bounds": "e10918cd837b5b8e248dddc8f81e195b380e08176357d5932d464a25748832a8",
    "scalar-forced-zero": "60027a2537719016e8bce08fa19520b8414f3e8baf672417547dfe3db72e94ec",
    "sphere-bochner": "25d3033a91f0bfaed6781539a170b121b013e81007031b7a5bdf60b813366901",
    "sphere-golden-fundamental": "24a89eb4b9c29154828d0ed8f95608e90517ad79140116db2d51792b72b91d2c",
    "sphere-high-dim-spectrum": "609204969c54665764d752c9bd3d86fffe37d5812861ec216a3c808e6e2045f2",
    "sphere-mixture": "49c740a0c961ba9c754674440d370d400f733e3b208e56a7b315878a2b0a390e",
    "sphere-weighted-identity": "844d94faa88351c1f83c3ebac5d141c60322ccf4fe998ad359e2c9cc053d0f49",
}


def _column_digest(reports) -> str:
    rows = [
        [r.check_name, [[c.label, c.nodes.tolist(), [m.hex() for m in c.margin.tolist()]] for c in r.columns]]
        for r in reports
    ]
    return hashlib.sha256(json.dumps(rows).encode()).hexdigest()


def test_suite_report_columns_are_pinned():
    digests = {config.scenario_id: _column_digest(run_scenario(config).reports) for config in _load_packaged_configs()}
    assert digests == SUITE_COLUMN_DIGESTS
