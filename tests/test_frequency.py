"""Frequency functionals: spectral route, quadrature route, frozen values."""

import itertools
import math
import random
import struct
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from parafreq import evolution
from parafreq import (
    CoefficientField,
    ConstantRate,
    Cylinder,
    Forcing,
    ModeMatrix,
    Plane,
    Run,
    Sphere,
    TimeGrid,
    enumerate_modes,
    evolve_exact_trajectory,
    evolve_forced,
    first_nonzero_eigenvalue,
    mode_from_index,
    parse_config,
    trace_from_trajectory,
)
from parafreq.backgrounds import quadrature

from oracles import (
    ZeroFieldError,
    cauchy_schwarz_defect,
    compute_D,
    compute_D_quadrature,
    compute_I,
    compute_I_quadrature,
    compute_N_raw,
    compute_U,
    dense_exact_amplitudes,
    evolve_exact,
    field_at,
)


def _field(bg, t, coeffs_by_index):
    return CoefficientField.from_dict(
        bg, t, {mode_from_index(bg, idx): a for idx, a in coeffs_by_index.items()}
    )


# ---------------------------------------------------------------------------
# frozen reference values (unit-amplitude degree 1 + degree 3 mix on the line)


def test_frozen_mixture_values_at_reference_times():
    bg = Plane(1)
    f0 = _field(bg, -1.0, {(1,): 1.0, (3,): 1.0})
    assert compute_I(f0) == pytest.approx(2.0, abs=1e-15)
    assert compute_N_raw(f0) == pytest.approx(-2.0, abs=1e-15)
    # (sum w)(sum mu^2 w) - (sum mu w)^2 with w = {1, 1}, mu = {1/2, 3/2}
    assert cauchy_schwarz_defect(f0) == pytest.approx(1.0, abs=1e-14)
    f1 = evolve_exact(f0, -0.25)
    assert compute_N_raw(f1) == pytest.approx(-1.1176470588235294, abs=1e-15)


def test_caloric_frequency_is_minus_degree():
    bg = Plane(2)
    for idx in [(1, 0), (2, 0), (1, 2), (0, 5)]:
        k = sum(idx)
        f = _field(bg, -0.7, {idx: 1.3})
        assert compute_U(f) == pytest.approx(-float(k), abs=1e-13)


def test_sphere_frequency_golden_value():
    # fundamental mode, n = 2, t = -1: U = -(1/n)(k^2 + (n-1)k) = -1
    f = _field(Sphere(2), -1.0, {(1, 0): 1.0})
    assert compute_U(f) == pytest.approx(-1.0, abs=1e-14)


def test_frequency_scales_like_power_of_time():
    # kappa = 1/2 backgrounds: U(t) = -2<mu>*(-t)^{2 kappa} = -2<mu>*(-t)
    f0 = _field(Cylinder(1, 1), -1.0, {(1, 0, 0): 1.0})
    for t in (-1.0, -0.5, -0.2):
        ft = evolve_exact(f0, t)
        assert compute_U(ft) == pytest.approx(-(-t), rel=1e-13)


# ---------------------------------------------------------------------------
# dual-route agreement


def test_spectral_and_quadrature_routes_agree():
    cases = [
        (Plane(1), {(1,): 0.3, (2,): -1.1, (4,): 0.25}),
        (Plane(2), {(1, 0): 1.0, (2, 1): 0.5, (0, 2): -0.7}),
        (Sphere(2), {(1, 0): 1.0, (2, 3): -0.4, (3, 1): 0.2}),
        (Cylinder(1, 1), {(1, 0, 0): 0.8, (0, 0, 2): -0.6, (1, 1, 1): 0.3}),
    ]
    for bg, coeffs in cases:
        rule = quadrature(bg, 32)
        for t in (-1.0, -0.35):
            f = evolve_exact(_field(bg, -1.0, coeffs), t)
            i_spec, i_quad = compute_I(f), compute_I_quadrature(f, rule)
            d_spec, d_quad = compute_D(f), compute_D_quadrature(f, rule)
            assert abs(i_spec - i_quad) < 1e-8 * max(1.0, abs(i_spec)), bg.label()
            assert abs(d_spec - d_quad) < 1e-8 * max(1.0, abs(d_spec)), bg.label()


def test_defect_vanishes_exactly_on_pure_modes():
    for bg, idx in [(Plane(1), (3,)), (Sphere(2), (2, 1)), (Cylinder(1, 1), (1, 0, 1))]:
        f = _field(bg, -0.8, {idx: 2.0})
        i_val = compute_I(f)
        assert cauchy_schwarz_defect(f) < 1e-12 * i_val * i_val


def test_defect_positive_on_mixtures():
    f = _field(Plane(1), -1.0, {(1,): 1.0, (2,): 0.01})
    assert cauchy_schwarz_defect(f) > 0.0


@settings(max_examples=60, deadline=None)
@given(k=st.integers(0, 4), m1=st.integers(1, 3), m=st.integers(1, 3), data=st.data())
def test_frequency_is_additive_over_product_factors(k, m1, m, data):
    # f on S^k (on R^m1 when k = 0) and g on R^m make the field with amplitudes f_i g_j on S^k x R^m (on R^(m1 + m)):
    # its modes are the index pairs, with mu_i + mu_j, so at every node I = I_f I_g and N_raw = N_raw,f + N_raw,g.
    # Every term of either side is positive, so both hold to a few ulps (3.5e-16 and 8.9e-16 on S^1 x R)
    first, second = (Sphere(k) if k else Plane(m1)), Plane(m)
    product = Cylinder(k, m) if k else Plane(m1 + m)

    def draw(bg):
        modes = data.draw(st.lists(st.sampled_from(enumerate_modes(bg, 1.5)), min_size=1, max_size=3, unique=True))
        amps = st.floats(0.1, 1.0) | st.floats(-1.0, -0.1)
        return dict(zip(modes, data.draw(st.lists(amps, min_size=len(modes), max_size=len(modes)))))

    f, g = draw(first), draw(second)
    fg = {mode_from_index(product, i.index + j.index): a * b for (i, a), (j, b) in itertools.product(f.items(), g.items())}
    grid = TimeGrid.uniform(-1.0, -0.2, 9)
    tf, tg, tfg = (
        trace_from_trajectory(evolve_exact_trajectory(CoefficientField.from_dict(bg, grid.a, coeffs), grid))
        for bg, coeffs in ((first, f), (second, g), (product, fg))
    )
    np.testing.assert_allclose(tfg.I, tf.I * tg.I, rtol=1e-14, atol=0.0)
    assert np.all(np.abs(tfg.N_raw - (tf.N_raw + tg.N_raw)) <= 1e-14 * (np.abs(tf.N_raw) + np.abs(tg.N_raw)))


# ---------------------------------------------------------------------------
# eigenvalue helpers


def test_lambda1_scales_inversely_with_time():
    # on the flowing surface at time t the first nonzero eigenvalue is mu_1 / (-t)
    for bg in [Plane(1), Sphere(2), Cylinder(1, 1)]:
        mu1 = first_nonzero_eigenvalue(bg)
        assert mu1 == 0.5
        assert mu1 / 1.0 == pytest.approx(0.5, abs=1e-15)
        assert mu1 / 0.25 == pytest.approx(2.0, abs=1e-14)


# ---------------------------------------------------------------------------
# traces


def test_trace_columns_and_values():
    bg = Plane(1)
    f0 = _field(bg, -1.0, {(2,): 1.0})
    grid = TimeGrid.uniform(-1.0, -0.25, 4)
    trace = trace_from_trajectory(evolve_exact_trajectory(f0, grid))
    assert trace.kappa_used == 0.0
    assert list(trace.t) == list(grid.nodes)
    for i, u, n_raw, t in zip(trace.I, trace.U, trace.N_raw, grid.nodes):
        assert i == pytest.approx((-t) ** 2.0, rel=1e-14)
        assert u == pytest.approx(-2.0, abs=1e-13)
        assert n_raw == pytest.approx(-2.0, abs=1e-13)
    u_col = trace.U
    assert np.allclose(u_col, -2.0, atol=1e-13)


def _mixture_trajectory():
    # sphere(2): kappa = 1/2 and degrees 0..4 give five distinct eigenvalues
    doc = {
        "scenario_id": "mixture",
        "background": {"kind": "sphere", "n": 2},
        "random_mixture": {"seed": 3, "mu_cutoff": 5.0, "low": 0.1, "high": 1.0},
        "time": {"a": -1.3, "b": -0.01, "nodes": 401},
        "checks": ["harnack"],
    }
    cfg = parse_config(doc)
    f0 = CoefficientField.from_dict(cfg.background, cfg.grid.a, dict(cfg.initial_modes))
    assert len({m.mu for m in f0.modes}) >= 5
    return f0, evolve_exact_trajectory(f0, cfg.grid)


def _forced_trajectory():
    bg = Sphere(2)
    f0 = _field(bg, -1.0, {(1, 0): 1.0, (2, 1): -0.5, (3, 2): 0.25})
    modes = tuple(mode_from_index(bg, idx) for idx in [(1, 0), (2, 1), (3, 2)])
    coupling = ModeMatrix(modes, ((0.0, 0.3, 0.1), (-0.2, 0.0, 0.4), (0.5, -0.1, 0.0)))
    grid = TimeGrid.uniform(-1.0, -0.2, 81)
    return f0, evolve_forced(f0, grid, Forcing(ConstantRate(0.6), coupling), local_tol=1e-10)


def _zero_trajectory():
    f0 = CoefficientField.from_dict(Plane(1), -1.0, {})
    return f0, evolve_exact_trajectory(f0, TimeGrid.uniform(-1.0, -0.5, 5))


def _underflow_trajectory():
    # I is subnormal at the first nodes and underflows to exactly 0 later on
    f0 = _field(Plane(1), -1.0, {(20,): 1e-160})
    return f0, evolve_exact_trajectory(f0, TimeGrid.uniform(-1.0, -0.5, 21))


def _bits(x):
    return struct.pack("<d", x)


@pytest.mark.parametrize("make, block", [
    pytest.param(make, block, id=make.__name__ + suffix)
    for make in (_mixture_trajectory, _forced_trajectory, _zero_trajectory, _underflow_trajectory)
    for block, suffix in ((None, ""), (1, "-row-by-row"), (40, "-blocks-of-a-few-rows"))
])
def test_trace_columns_equal_scalar_functionals_bit_for_bit(monkeypatch, make, block):
    # a small block cuts the sums into runs of 40 // modes rows (at least one), ending inside the grid
    if block is not None:
        monkeypatch.setattr(evolution, "_BLOCK_ENTRIES", block)
    _, traj = make()
    assert traj.rows(slice(None)).flags["C_CONTIGUOUS"]
    trace = trace_from_trajectory(traj)
    zero_rows = 0
    for i, t in enumerate(traj.grid.nodes):
        f = field_at(traj, i)
        got = [trace.t[i], trace.I[i], trace.D[i], trace.U[i], trace.N_raw[i], trace.cs_defect[i]]
        if compute_I(f) == 0.0:
            zero_rows += 1
            with pytest.raises(ZeroFieldError):
                compute_U(f)
            want = [t, 0.0, 0.0, math.nan, math.nan, 0.0]
        else:
            want = [t, compute_I(f), compute_D(f), compute_U(f), compute_N_raw(f), cauchy_schwarz_defect(f)]
        assert [_bits(v) for v in got] == [_bits(v) for v in want], (i, got, want)
    if make is _zero_trajectory:
        assert zero_rows == len(traj.grid.nodes)
    if make is _underflow_trajectory:
        assert 0 < zero_rows < len(traj.grid.nodes)


@pytest.mark.parametrize("make", [_mixture_trajectory, _zero_trajectory, _underflow_trajectory])
def test_exact_trajectory_rows_equal_evolve_exact_bit_for_bit(monkeypatch, make):
    # the closed form stays factored: a (nodes, distinct mu) table, a column per mode and the first row's
    # amplitudes; any block of rows it builds equals the dense gather-then-scale route row for row, bit for bit
    f0, traj = make()
    dense = dense_exact_amplitudes(f0, traj.grid)
    nodes = len(traj.grid.nodes)
    assert traj.modes == f0.modes and traj.table.shape == (nodes, len({m.mu for m in f0.modes}))
    assert traj.scale.tobytes() == f0.amplitudes.tobytes()
    rng = random.Random(make.__name__)
    for _ in range(5):
        cuts = sorted({0, nodes, *rng.sample(range(1, nodes), min(nodes - 1, rng.randint(1, 6)))})
        for lo, hi in zip(cuts, cuts[1:]):
            block = traj.rows(slice(lo, hi))
            assert block.flags["C_CONTIGUOUS"] and block.shape == (hi - lo, len(traj.modes))
            assert block.tobytes() == dense[lo:hi].tobytes(), (lo, hi)
    picked = rng.sample(range(nodes), 3)
    assert traj.rows(picked).tobytes() == dense[picked].tobytes()
    monkeypatch.setattr(evolution, "_BLOCK_ENTRIES", 3 * max(1, len(traj.modes)))  # three rows a block
    walked = list(traj.blocks())
    assert [part.start for part, _ in walked] == list(range(0, nodes, 3))
    assert np.concatenate([block for _, block in walked]).tobytes() == dense.tobytes()
    whole = traj.rows(slice(None))
    assert whole.tobytes() == dense.tobytes()
    whole[...] = 1.0  # a new array: writing to it leaves the trajectory as it was
    assert traj.rows(slice(None)).tobytes() == dense.tobytes()
    for i, t in enumerate(traj.grid.nodes):
        ref = evolve_exact(f0, t)
        assert [_bits(a) for a in dense[i].tolist()] == [_bits(a) for a in ref.amplitudes.tolist()], i
        got = field_at(traj, i)
        assert (got.background, got.time, got.modes, got.amplitudes.tolist()) == (
            ref.background, ref.time, ref.modes, ref.amplitudes.tolist()
        )


def test_factored_trajectory_refuses_what_its_dense_rows_would_overflow():
    # the largest |entry| of a mode is its column's largest |power| times |scale|: refused exactly when that
    # product is not finite, decided without building the rows
    bg = Plane(1)
    grid = TimeGrid.uniform(-1.0, -0.5, 3)
    modes = tuple(mode_from_index(bg, (j,)) for j in range(2))
    table = np.array([[1.0, 0.5], [0.75, 2.0], [0.5, 1.0]])
    big = np.finfo(float).max
    traj = evolution.Trajectory(grid, bg, modes, table, [0, 0], [big, -big])
    assert np.isfinite(traj.rows(slice(None))).all()
    for columns, scale in (([0, 1], [1.0, big]), ([1, 0], [big, 0.0]), ([0, 0], [math.nan, 1.0])):
        with pytest.raises(ValueError, match="^non-finite amplitude in trajectory$"):
            evolution.Trajectory(grid, bg, modes, table, columns, scale)
    with pytest.raises(ValueError, match="^non-finite amplitude in trajectory$"):  # inf times 0 is nan
        evolution.Trajectory(grid, bg, modes, np.array([[1.0, 0.5], [math.inf, 2.0], [0.5, 1.0]]), [0, 1], [0.0, 1.0])
    with pytest.raises(ValueError, match="must index the table's 2 columns"):
        evolution.Trajectory(grid, bg, modes, table, [0, 2], [1.0, 1.0])
    with pytest.raises(ValueError, match="need a \\(nodes, columns\\) table with 3 rows"):
        evolution.Trajectory(grid, bg, modes, table[:2])


def test_exact_run_and_trace_hold_one_amplitude_array():
    # a spectral benchmark mixture: 84 modes on 2,001 nodes, 1.28 MiB of amplitudes, which are never built: the
    # trajectory keeps its (nodes, distinct mu) powers and the trace reads blocks of rows.  Measured peak 0.34x that
    # size: the powers and the lists that fill them, one block of the trace's temporaries and its columns.  A dense
    # (nodes, modes) array alone would be 1x; the bound 0.5x leaves 0.2 MiB of slack.
    config = parse_config({
        "scenario_id": "spectral-memory",
        "background": {"kind": "plane", "n": 3},
        "random_mixture": {"seed": 0, "mu_cutoff": 3.0, "low": 0.1, "high": 1.0},
        "time": {"a": -1.2, "b": -0.6, "nodes": 2001},
        "checks": ["harnack"],
    })
    f0 = CoefficientField.from_dict(config.background, config.grid.a, dict(config.initial_modes))
    assert len(f0.modes) == 84
    dense_bytes = len(config.grid.nodes) * len(f0.modes) * 8
    tracemalloc.start()
    try:
        traj = evolve_exact_trajectory(f0, config.grid)
        trace_from_trajectory(traj)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 0.5 * dense_bytes, f"peak {peak / dense_bytes:.2f}x the amplitudes"


def test_trace_time_column_is_the_grid_array():
    # one array holds the time grid: the trace's t is the trajectory's grid.nodes, not a copy of it
    for forcing in (None, Forcing(ConstantRate(0.5), ModeMatrix((mode_from_index(Plane(1), (1,)),), ((0.3,),)))):
        f0 = CoefficientField.from_dict(Plane(1), -1.0, {mode_from_index(Plane(1), (1,)): 1.0})
        grid = TimeGrid.uniform(-1.0, -0.5, 11)
        traj = evolve_exact_trajectory(f0, grid) if forcing is None else evolve_forced(f0, grid, forcing)
        run = Run(traj)
        assert run.traj.grid is grid and run.trace.t is grid.nodes
        assert np.shares_memory(run.trace.t, run.traj.grid.nodes) and not run.trace.t.flags.writeable


def test_trace_kappa_override_rescales_u():
    f0 = _field(Plane(1), -1.0, {(2,): 1.0})
    grid = TimeGrid.uniform(-1.0, -0.5, 3)
    traj = evolve_exact_trajectory(f0, grid)
    base = trace_from_trajectory(traj, 0.0)
    shifted = trace_from_trajectory(traj, 0.5)
    for t, u0, u1, n0, n1 in zip(base.t, base.U, shifted.U, base.N_raw, shifted.N_raw):
        assert u1 == pytest.approx(u0 * (-t), rel=1e-13)
        assert n1 == pytest.approx(n0, rel=1e-14)


def test_zero_field_trace_is_nan_frequency_zero_mass():
    bg = Plane(1)
    f0 = CoefficientField.from_dict(bg, -1.0, {})
    trace = trace_from_trajectory(evolve_exact_trajectory(f0, TimeGrid.uniform(-1.0, -0.5, 3)))
    for i, d, u, n_raw, cs in zip(trace.I, trace.D, trace.U, trace.N_raw, trace.cs_defect):
        assert i == 0.0
        assert d == 0.0
        assert math.isnan(u)
        assert math.isnan(n_raw)
        assert cs == 0.0
    with pytest.raises(ZeroFieldError):
        compute_U(f0)
