"""Exact spectral evolution, the Taylor-stepped ModeMatrix block, and forcing couplings."""

import math
import re

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from parafreq import evolution
from parafreq.cli import _load_packaged_configs
from parafreq import (
    CoefficientField,
    ConstantRate,
    Cylinder,
    Forcing,
    ModeMatrix,
    Plane,
    SampledRate,
    ScalarOnU,
    Sphere,
    TimeGrid,
    enumerate_modes,
    evolve_exact_trajectory,
    evolve_forced,
    mode_from_index,
)
from parafreq.backgrounds import quadrature

from oracles import evolve_exact, field_at, forcing_bound_margin, rate_at, vector_rk4


def _field(bg, t, coeffs_by_index):
    return CoefficientField.from_dict(
        bg, t, {mode_from_index(bg, idx): a for idx, a in coeffs_by_index.items()}
    )


def _pairs(field):
    return zip(field.modes, field.amplitudes.tolist(), strict=True)


def _coeff(field, idx):
    for mode, a in _pairs(field):
        if mode.index == idx:
            return a
    return 0.0


# ---------------------------------------------------------------------------
# exact evolution


def test_exact_power_law():
    bg = Plane(1)
    f0 = _field(bg, -1.0, {(1,): 0.7, (3,): -0.2})
    for t in (-0.9, -0.5, -0.25, -0.1):
        ft = evolve_exact(f0, t)
        assert _coeff(ft, (1,)) == pytest.approx(0.7 * (-t) ** 0.5, rel=1e-15)
        assert _coeff(ft, (3,)) == pytest.approx(-0.2 * (-t) ** 1.5, rel=1e-15)


def test_exact_evolution_semigroup():
    bg = Sphere(2)
    f0 = _field(bg, -1.0, {(1, 0): 1.0, (2, 3): 0.4})
    direct = evolve_exact(f0, -0.2)
    via = evolve_exact(evolve_exact(f0, -0.6), -0.2)
    for (m1, a1), (m2, a2) in zip(_pairs(direct), _pairs(via)):
        assert m1 == m2
        assert a1 == pytest.approx(a2, rel=1e-14)


def test_trajectory_matches_pointwise_evolution():
    bg = Cylinder(1, 1)
    f0 = _field(bg, -1.0, {(1, 0, 0): 0.5, (0, 0, 2): 1.0})
    grid = TimeGrid.uniform(-1.0, -0.25, 7)
    traj = evolve_exact_trajectory(f0, grid)
    for i, t in enumerate(grid.nodes):
        field = field_at(traj, i)
        ref = evolve_exact(f0, t)
        for (m1, a1), (m2, a2) in zip(_pairs(field), _pairs(ref)):
            assert m1 == m2
            assert a1 == pytest.approx(a2, abs=1e-15)


def test_zero_field_stays_zero():
    bg = Plane(2)
    f0 = CoefficientField.from_dict(bg, -1.0, {})
    assert not f0.amplitudes.any()
    traj = evolve_exact_trajectory(f0, TimeGrid.uniform(-1.0, -0.5, 5))
    assert not traj.rows(slice(None)).any()


def test_field_is_a_read_only_row_of_its_trajectory():
    bg = Sphere(2)
    traj = evolve_exact_trajectory(_field(bg, -1.0, {(1, 0): 1.0, (2, 3): 0.4}), TimeGrid.uniform(-1.0, -0.5, 5))
    field = field_at(traj, 2)
    assert field.modes == traj.modes and field.time == traj.grid.nodes[2]
    row = traj.rows([2])[0]
    assert field.amplitudes.tobytes() == row.tobytes()
    with pytest.raises(ValueError):
        field.amplitudes[0] = 0.0
    # a field of a row shares it and leaves it writable
    shared = CoefficientField(bg, traj.grid.nodes[2], traj.modes, row)
    assert np.shares_memory(shared.amplitudes, row) and row.flags.writeable
    with pytest.raises(ValueError, match="one amplitude per mode"):
        CoefficientField(bg, -1.0, traj.modes, [1.0])
    with pytest.raises(ValueError, match="non-finite amplitude"):
        CoefficientField(bg, -1.0, traj.modes, [1.0, math.inf])
    with pytest.raises(ValueError, match="duplicate mode"):
        CoefficientField(bg, -1.0, traj.modes[:1] * 2, [1.0, 1.0])


def test_time_grid_is_one_read_only_float64_array():
    given_nodes = np.array([-1.0, -0.75, -0.5])
    grid = TimeGrid(given_nodes)
    assert isinstance(grid.nodes, np.ndarray) and grid.nodes.dtype == np.float64 and grid.nodes.ndim == 1
    assert not grid.nodes.flags.writeable and given_nodes.flags.writeable  # the grid froze its own copy
    with pytest.raises(ValueError):
        grid.nodes[0] = -2.0
    assert (grid.a, grid.b) == (-1.0, -0.5) and type(grid.a) is float and type(grid.b) is float
    assert TimeGrid.uniform(-1.0, -0.5, 3).nodes.tobytes() == np.linspace(-1.0, -0.5, 3).tobytes()
    for nodes, message in [
        ((-1.0,), "time grid needs at least two nodes"),
        ((-1.0, math.nan), "grid node must be finite and negative, got nan"),
        ((-math.inf, -1.0), "grid node must be finite and negative, got -inf"),
        ((-1.0, 0.0), "grid node must be finite and negative, got 0.0"),
        ((-1.0, -0.5, -0.5), "grid nodes must be strictly increasing"),
        (((-1.0, -0.5),), "time grid nodes must be one-dimensional"),
    ]:
        with pytest.raises(ValueError, match=re.escape(message)):
            TimeGrid(nodes)


def test_field_time_is_a_python_float():
    # float_powers takes libm pow of the time: a numpy scalar node must not reach it as one
    traj = evolve_exact_trajectory(_field(Sphere(2), -1.0, {(1, 0): 1.0}), TimeGrid.uniform(-1.0, -0.5, 5))
    assert type(traj.grid.nodes[2]) is np.float64
    assert type(field_at(traj, 2).time) is float
    assert type(CoefficientField(Plane(1), np.float32(-0.5), (), []).time) is float


# ---------------------------------------------------------------------------
# stepped solver against exact oracles


def test_rk_with_zero_rate_matches_exact():
    # exp(0) = 1 scales the closed form by nothing, so the forced run is the unforced one bit for bit, on a grid
    # ending near 0 too
    bg = Plane(1)
    f0 = _field(bg, -1.0, {(1,): 1.0, (2,): 0.3, (4,): -0.1})
    forcing = Forcing(ConstantRate(0.0), ScalarOnU())
    for grid in (TimeGrid.uniform(-1.0, -0.1, 181), TimeGrid.uniform(-1.0, -1e-5, 11)):
        traj = evolve_forced(f0, grid, forcing, local_tol=1e-12)
        exact = evolve_exact_trajectory(f0, grid)
        assert traj.grid.b == grid.b and traj.modes == exact.modes
        assert traj.rows(slice(None)).tobytes() == exact.rows(slice(None)).tobytes()


def test_scalar_rate_closed_form():
    # f = c0*u shifts every coefficient by a common factor exp(c0*(t - t0))
    bg = Sphere(2)
    c0 = 0.8
    f0 = _field(bg, -1.0, {(1, 0): 1.0, (2, 1): -0.5})
    grid = TimeGrid.uniform(-1.0, -0.2, 161)
    traj = evolve_forced(f0, grid, Forcing(ConstantRate(c0), ScalarOnU()), local_tol=1e-12)
    t = grid.nodes[-1]
    factor = math.exp(c0 * (t - (-1.0)))
    ref = evolve_exact(f0, t)
    for (m, a), (_, b) in zip(_pairs(field_at(traj, -1)), _pairs(ref)):
        assert a == pytest.approx(b * factor, rel=1e-9)


@pytest.mark.parametrize("rate, inside", [
    (SampledRate((-0.875, -0.7, -0.625), (0.2, 0.5, 0.1)), [-0.875, -0.7, -0.625]),  # two on nodes, one between
    (SampledRate((-2.0, -1.5, -0.25, -0.1), (0.2, 0.5, 0.1, 0.3)), []),  # all outside the window
    (SampledRate((-1.0, -0.8, -0.5), (0.2, 0.5, 0.1)), [-0.8]),  # at both ends and one between
    (ConstantRate(0.3), []),
], ids=["on-nodes", "outside", "at-both-ends", "constant"])
def test_rate_cuts_equal_both_former_expressions_bit_for_bit(rate, inside):
    # the references: the grid cut at the kinks off its nodes (the stepped pieces) and [a, b] cut at the kinks
    # strictly inside it (the general_harnack quadrature), as each caller wrote them for itself
    grid = TimeGrid.uniform(-1.0, -0.5, 5)
    nodes, ta, tb = grid.nodes, grid.a, grid.b
    on_grid = set(nodes.tolist())
    kinks = [x for x in getattr(rate, "times", ()) if grid.a < x < grid.b and x not in on_grid]
    stepped = np.sort(np.concatenate([nodes, kinks]))
    integrated = np.array([ta, *(x for x in getattr(rate, "times", ()) if ta < x < tb), tb])
    assert evolution._rate_cuts(rate, nodes).tobytes() == stepped.tobytes()
    assert evolution._rate_cuts(rate, np.array([ta, tb])).tobytes() == integrated.tobytes()
    assert stepped.tolist() == sorted(on_grid | set(inside)) and integrated.tolist() == [ta, *inside, tb]


def test_sampled_rate_matches_constant_rate():
    bg = Plane(1)
    f0 = _field(bg, -1.0, {(2,): 1.0})
    grid = TimeGrid.uniform(-1.0, -0.5, 41)
    const = evolve_forced(f0, grid, Forcing(ConstantRate(0.3), ScalarOnU()), local_tol=1e-11)
    ts = np.linspace(-1.0, -0.4, 25)
    sampled = SampledRate(tuple(ts), tuple(0.3 for _ in ts))
    samp = evolve_forced(f0, grid, Forcing(sampled, ScalarOnU()), local_tol=1e-11)
    for i in range(len(grid.nodes)):
        for (_, a), (_, b) in zip(_pairs(field_at(const, i)), _pairs(field_at(samp, i))):
            assert a == pytest.approx(b, rel=1e-12)


def _scalar_flow(field, rate, traj):
    """a_j(t0) ((-t)/(-t0))^mu_j exp(int_{t0}^t C) at the nodes of ``traj``, integrating C exactly per linear piece."""
    t0 = field.time
    start = dict(zip(field.modes, field.amplitudes.tolist()))
    rows = []
    for t in traj.grid.nodes:
        pts = np.array([t0, *(s for s in getattr(rate, "times", ()) if t0 < s < t), t])
        c = rate.values_at(pts)
        growth = math.exp(float(np.sum(0.5 * (c[1:] + c[:-1]) * np.diff(pts))))
        rows.append([start.get(m, 0.0) * ((-t) / (-t0)) ** m.mu * growth for m in traj.modes])
    return np.array(rows)


@pytest.mark.parametrize(
    "bg, coeffs, rate, grid, local_tol",
    [
        # shaped like the packaged scalar-forced-bounds and scalar-forced-zero runs
        (Plane(1), {(1,): 1.0}, ConstantRate(1.0), TimeGrid.uniform(-1.0, -0.5, 2001), 1e-12),
        (Plane(1), {(2,): 1.0}, ConstantRate(0.0), TimeGrid.uniform(-1.0, -0.5, 2001), 1e-12),
        # every kink inside a grid interval
        (
            Sphere(2),
            {(1, 0): 1.0, (2, 1): -0.5},
            SampledRate((-0.9713, -0.8876, -0.7312, -0.6049, -0.5207), (0.2, 1.3, 0.4, 0.9, 0.1)),
            TimeGrid.uniform(-1.0, -0.5, 201),
            1e-12,
        ),
    ],
)
def test_scalar_coupling_matches_the_closed_form_flow(bg, coeffs, rate, grid, local_tol):
    # a constant rate against step-doubled vector RK4, the independent oracle; the kinked rate against the
    # integral of C taken piece by piece, since RK4 loses order unless a step ends on each kink
    f0 = _field(bg, grid.a, coeffs)
    forcing = Forcing(rate, ScalarOnU())
    traj = evolve_forced(f0, grid, forcing, local_tol=local_tol)
    rk4 = isinstance(rate, ConstantRate)
    ref = vector_rk4(traj, f0, forcing, local_tol) if rk4 else _scalar_flow(f0, rate, traj)
    assert np.max(np.abs(traj.rows(slice(None)) - ref) / np.abs(ref)) <= 1e-12


def test_scalar_coupling_builds_no_step_map(monkeypatch):
    def refuse(*args):
        raise AssertionError("a ScalarOnU run built a Taylor map")

    monkeypatch.setattr(evolution, "_taylor_maps", refuse)
    bg = Sphere(2)
    f0 = _field(bg, -1.0, {(1, 0): 1.0, (2, 1): -0.5})
    rate = SampledRate((-0.9, -0.6), (0.2, 1.3))
    traj = evolve_forced(f0, TimeGrid.uniform(-1.0, -0.5, 11), Forcing(rate, ScalarOnU()), local_tol=1e-12)
    ref = _scalar_flow(f0, rate, traj)
    assert np.max(np.abs(traj.rows(slice(None)) - ref) / np.abs(ref)) <= 1e-14


def _record_steps(monkeypatch):
    """Each batch of Taylor steps ``evolve_forced`` builds, as the list of its step start times t = -tau."""
    batches, built = [], evolution._taylor_maps

    def record(mus, w, tau, h, c, s, tol):
        batches.append((-tau).tolist())
        return built(mus, w, tau, h, c, s, tol)

    monkeypatch.setattr(evolution, "_taylor_maps", record)
    return batches


def test_rate_kinks_cut_the_pieces_once(monkeypatch):
    # a kink on a grid node adds no piece, one between two nodes adds one, and kinks outside the grid none;
    # every piece is short enough for one Taylor step
    batches = _record_steps(monkeypatch)
    bg = Plane(1)
    grid = TimeGrid.uniform(-1.0, -0.5, 11)
    coupling = ModeMatrix((mode_from_index(bg, (1,)), mode_from_index(bg, (3,))), ((0.0, 0.4), (0.0, 0.0)))
    rate = SampledRate((-1.2, grid.nodes[4], -0.777, -0.3), (0.5, 0.1, 0.3, 0.2))
    evolve_forced(_field(bg, -1.0, {(3,): 1.0}), grid, Forcing(rate, coupling))
    assert batches[0] + [grid.b] == sorted([*grid.nodes, -0.777])


def test_mode_matrix_splits_a_coarse_grid_like_an_independent_rk4(monkeypatch):
    # five nodes on [-1, -0.1]: near the end mu/(-t) reaches 15 and one RK4 step per interval is far off; the
    # Taylor steps keep h/tau at or below 1/(2 (max mu + tau c ||W|| + 1)), so each interval takes several
    batches = _record_steps(monkeypatch)
    bg = Plane(1)
    m1, m3 = mode_from_index(bg, (1,)), mode_from_index(bg, (3,))
    forcing = Forcing(ConstantRate(0.5), ModeMatrix((m1, m3), ((0.0, 0.4), (0.0, 0.0))))
    f0 = _field(bg, -1.0, {(1,): 0.2, (3,): 1.0})
    grid = TimeGrid.uniform(-1.0, -0.1, 5)
    traj = evolve_forced(f0, grid, forcing, local_tol=1e-12)
    starts = np.array(batches[0])
    assert len(batches) == 1 and set(grid.nodes[:-1]) <= set(batches[0])
    assert np.all(np.diff(starts) / -starts[:-1] <= 0.5 / (1.5 + 1.0))
    # the oracle's own error at local tolerance 1e-15 is a few 1e-13
    ref = vector_rk4(traj, f0, forcing, 1e-15)
    unsplit = vector_rk4(traj, f0, forcing, 1e-15, doubling=False)
    scale = np.max(np.abs(ref), axis=1)
    assert np.max(np.abs(unsplit - ref).max(axis=1) / scale) > 1e-8
    assert np.max(np.abs(traj.rows(slice(None)) - ref).max(axis=1) / scale) <= 1e-12


def test_uncoupled_modes_and_small_map_batches_keep_the_stepped_flow(monkeypatch):
    # mode 2 sits outside the coupled block, so it keeps the closed form; a tiny entry budget builds the block's
    # maps three steps at a time, so batches end inside the first interval, which takes four steps, and between
    # the fine intervals after it
    monkeypatch.setattr(evolution, "_BLOCK_ENTRIES", 12)
    batches = _record_steps(monkeypatch)
    bg = Plane(1)
    m1, m3 = mode_from_index(bg, (1,)), mode_from_index(bg, (3,))
    f0 = _field(bg, -1.0, {(1,): 0.2, (2,): -0.7, (3,): 1.0})
    grid = TimeGrid((-1.0, *np.linspace(-0.5, -0.45, 11).tolist()))
    forcing = Forcing(ConstantRate(0.5), ModeMatrix((m1, m3), ((0.0, 0.4), (0.0, 0.0))))
    traj = evolve_forced(f0, grid, forcing, local_tol=1e-12)
    assert [len(b) for b in batches] == [3, 3, 3, 3, 2]
    ref = vector_rk4(traj, f0, forcing, 1e-15)
    assert np.max(np.abs(traj.rows(slice(None)) - ref).max(axis=1) / np.max(np.abs(ref), axis=1)) <= 1e-12


@pytest.mark.parametrize(
    "rate",
    [ConstantRate(0.5), SampledRate((-1.0, -0.8, -0.55), (0.2, 1.3, 0.0))],
)
def test_rate_values_at_equals_pointwise_calls(rate):
    # the array path feeds the Harnack quadrature, whose reports are byte-compared
    ts = np.concatenate([np.linspace(-1.2, -0.4, 1025), [-1.0, -0.8, -0.55]])
    expected = np.array([rate_at(rate, float(s)) for s in ts])
    assert rate.values_at(ts).tobytes() == expected.tobytes()


def _triangular_flow(grid, c0, w, a1_0, a3_0):
    """(nodes, 2): the closed form of the one-way coupling (3,) -> (1,) on the line with weight w at rate c0:
    a3 = A (-t)^{3/2} and a1 = (-t)^{1/2} (a1(t0) / (-t0)^{1/2} + c0 w A (t0^2 - t^2) / 2), A = a3(t0) / (-t0)^{3/2}."""
    t0, amp = grid.a, a3_0 / (-grid.a) ** 1.5
    return np.array([
        [(-t) ** 0.5 * (a1_0 / (-t0) ** 0.5 + c0 * w * amp * (t0 * t0 - t * t) / 2.0), amp * (-t) ** 1.5]
        for t in grid.nodes
    ])


def _triangular_run(grid, c0, w, a1_0, a3_0):
    bg = Plane(1)
    m1, m3 = mode_from_index(bg, (1,)), mode_from_index(bg, (3,))
    forcing = Forcing(ConstantRate(c0), ModeMatrix((m1, m3), ((0.0, w), (0.0, 0.0))))
    return evolve_forced(_field(bg, grid.a, {(1,): a1_0, (3,): a3_0}), grid, forcing, local_tol=1e-12)


def test_mode_matrix_nilpotent_closed_form():
    grid = TimeGrid.uniform(-1.0, -0.1, 361)
    traj = _triangular_run(grid, 0.5, 0.4, 0.2, 1.0)
    assert traj.modes == tuple(mode_from_index(Plane(1), idx) for idx in ((1,), (3,)))
    assert np.max(np.abs(traj.rows(slice(None)) - _triangular_flow(grid, 0.5, 0.4, 0.2, 1.0))) <= 1e-14
    # the packaged matrix-forced-bounds run is the same flow from a1 = 0 on 1,801 nodes, at its rk_local_tol
    (config,) = [c for c in _load_packaged_configs() if c.scenario_id == "matrix-forced-bounds"]
    field = CoefficientField.from_dict(config.background, config.grid.a, dict(config.initial_modes))
    traj = evolve_forced(field, config.grid, config.forcing, local_tol=config.rk_local_tol)
    assert np.max(np.abs(traj.rows(slice(None)) - _triangular_flow(config.grid, 0.5, 0.4, 0.0, 1.0))) <= 1e-14


def test_forced_run_reaches_a_grid_near_zero(monkeypatch):
    # the series converges for |h| < tau, so no end-time floor: a grid ending at t = -1e-6 runs in at most one step
    # per interval plus 2 (max mu + 1) ln(tau_a / tau_b) = 69, and matches the closed form
    batches = _record_steps(monkeypatch)
    grid = TimeGrid.uniform(-1.0, -1e-6, 11)
    traj = _triangular_run(grid, 0.5, 0.4, 0.2, 1.0)
    assert traj.grid.b == -1e-6
    assert np.max(np.abs(traj.rows(slice(None)) - _triangular_flow(grid, 0.5, 0.4, 0.2, 1.0))) <= 1e-15
    assert 10 < len(batches[0]) <= 10 + 2 * 2.5 * math.log(1e6) + 1


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_stiff_block_is_refused_by_its_step_budget(monkeypatch):
    # a rate this stiff needs about 1e12 or 1e300 steps; they are counted and refused before any map is built
    def refuse(*args):
        raise AssertionError("a refused block built a Taylor map")

    monkeypatch.setattr(evolution, "_taylor_maps", refuse)
    bg = Plane(1)
    m1 = mode_from_index(bg, (1,))
    f0 = _field(bg, -1.0, {(1,): 1.0})
    grid = TimeGrid.uniform(-1.0, -0.5, 3)
    for c0, count in ((1e12, r"1\.184e\+12"), (1e300, r"1\.184e\+300")):
        with pytest.raises(ValueError, match=(
            f"^the ModeMatrix block needs {count} Taylor steps, above the budget of {evolution._MAX_STEPS}; "
            r"[0-9.e+]+ of them from t = -0.75 to -0.5$"
        )):
            evolve_forced(f0, grid, Forcing(ConstantRate(c0), ModeMatrix((m1,), ((1.0,),))), local_tol=1e-10)
    # the closed form steps nothing: exp(int C) overflows and the run is refused
    with pytest.raises(ValueError, match="^non-finite amplitude in trajectory$"):
        evolve_forced(f0, grid, Forcing(ConstantRate(1e12), ScalarOnU()), local_tol=1e-10)


_SPLIT_KINDS = ("unforced", "scalar-constant", "scalar-kinked", "matrix", "matrix-switched-off")
# |run on [a, b] - run on [a, c] continued on [c, b]| per entry is at most _SPLIT_TOLERANCE[kind] * max |row| plus
# _SPLIT_SUBNORMALS[kind] subnormal spacings 2^-1074.  The relative part: the closed forms differ by rounding in a
# power or an exp, Taylor maps by their tail bound, 1e-13 per step, over a few steps (all read below 1e-15).  The
# absolute part: a product that rounds into the subnormal range errs by up to half a spacing, whatever the relative
# precision, and later factors scale that error.  Unforced: one product on the whole path and two on the split one,
# the later factor at most 1, so 1.5 spacings.  Scalar: each path also multiplies by exp(int C) <= e^4 < 55 after the
# power, so at most 1.5 * 55 + 1.5.  Matrix: each path takes at most 290 Taylor steps here (rho >= 0.5 / 14.5, 9.2
# in log tau, 25 pieces), each rounding up to three products per entry, which the flow grows by at most
# exp(C ||W|| span) <= e^12 < 1.7e5: 2 * 290 * 1.5 * 1.7e5 < 2^28.  2^28 spacings are 1.3e-315, so no row of normal
# numbers is loosened.
_SPLIT_TOLERANCE = {"unforced": 1e-14, "scalar-constant": 1e-14, "scalar-kinked": 1e-14, "matrix": 1e-12,
                    "matrix-switched-off": 1e-12}
_SPLIT_SUBNORMALS = {"unforced": 2, "scalar-constant": 128, "scalar-kinked": 128, "matrix": 2**28,
                     "matrix-switched-off": 2**28}


@settings(max_examples=60, deadline=None)
@given(
    kind=st.sampled_from(_SPLIT_KINDS),
    bg=st.sampled_from((Plane(1), Sphere(2), Cylinder(1, 1))),
    a=st.floats(-2.0, -0.5),
    end=st.floats(1e-4, 0.9),
    count=st.integers(3, 25),
    split=st.integers(1, 23),
    amps=st.lists(st.floats(-1.0, 1.0), min_size=5, max_size=5),
    level=st.tuples(st.floats(0.0, 2.0), st.floats(0.0, 2.0)),
    size=st.integers(1, 3),
    entries=st.lists(st.floats(-1.0, 1.0), min_size=9, max_size=9),
)
# found: the whole run rounds 5e-324 * 0.5^1.5 to 0, the split run keeps 5e-324 at -0.75 and at -0.5
@example(kind="unforced", bg=Plane(1), a=-1.0, end=0.5, count=3, split=1, amps=[0.0, 0.0, 0.0, 5e-324, 0.0],
         level=(0.0, 0.0), size=1, entries=[0.0] * 9)
def test_runs_compose_at_an_interior_node(kind, bg, a, end, count, split, amps, level, size, entries):
    # the flow from a to b is the flow from c to b after the flow from a to c, at every interior node c; where the
    # rate is 0 from a kink before c on, the flow after c is the unforced one, which a wrong sign on the block's
    # mu/(-t) term breaks
    modes = enumerate_modes(bg, 1.5)[:5]
    grid = TimeGrid.uniform(a, a * end, count)
    k = 1 + (split - 1) % (count - 2)  # the split node
    field = CoefficientField(bg, a, modes, amps[: len(modes)])
    nodes = grid.nodes
    kink = nodes[k - 1] + 0.37 * (nodes[k] - nodes[k - 1])  # inside the step before c
    rate = {
        "scalar-constant": ConstantRate(level[0]),
        "scalar-kinked": SampledRate((kink - 1.0, kink, kink + 1.0), (level[0], level[1], level[0])),
        "matrix": ConstantRate(level[0]),
        "matrix-switched-off": SampledRate((a, kink), (level[0], 0.0)),
    }.get(kind)
    if kind == "unforced":
        forcing = None
    elif kind.startswith("scalar"):
        forcing = Forcing(rate, ScalarOnU())
    else:
        block = tuple(modes[-size:])
        forcing = Forcing(rate, ModeMatrix(block, tuple(tuple(entries[i * size : (i + 1) * size]) for i in range(size))))

    def run(start, part, forced=True):
        if forcing is None or not forced:
            return evolve_exact_trajectory(start, part)
        return evolve_forced(start, part, forcing, local_tol=1e-13)

    whole = run(field, grid)
    first = run(field, TimeGrid(nodes[: k + 1]))
    bound = _SPLIT_TOLERANCE[kind] * np.max(np.abs(whole.rows(slice(None))), axis=1, keepdims=True)
    bound += _SPLIT_SUBNORMALS[kind] * 2.0**-1074
    for forced in (True, False) if kind == "matrix-switched-off" else (True,):
        second = run(field_at(first, -1), TimeGrid(nodes[k:]), forced)
        assert first.modes == second.modes == whole.modes
        joined = np.concatenate([first.rows(slice(None)), second.rows(slice(1, None))])
        assert np.all(np.abs(joined - whole.rows(slice(None))) <= bound), (kind, forced)


# ---------------------------------------------------------------------------
# forcing hypothesis certificate


def test_scalar_coupling_margin_sign():
    bg = Plane(1)
    rule = quadrature(bg, 32)
    f = _field(bg, -1.0, {(2,): 1.0})
    # |c0*u| <= c0*(|grad u| + |u|) holds pointwise with equality where grad u = 0
    assert forcing_bound_margin(f, Forcing(ConstantRate(0.7), ScalarOnU()), rule) >= 0.0


def test_matrix_coupling_margin_brackets_threshold():
    # coupling (3,) -> (1,) with unit source amplitude: certificate flips
    # between w = 1.0 and w = 1.03 (interior crossing near 1.015)
    bg = Plane(1)
    rule = quadrature(bg, 32)
    f = _field(bg, -1.0, {(3,): 1.0})
    m1, m3 = mode_from_index(bg, (1,)), mode_from_index(bg, (3,))

    def margin(w):
        forcing = Forcing(ConstantRate(0.5), ModeMatrix((m1, m3), ((0.0, w), (0.0, 0.0))))
        return forcing_bound_margin(f, forcing, rule)

    assert margin(0.4) > 0.3
    assert margin(1.0) > 0.0
    assert margin(1.03) < 0.0


def test_low_to_high_coupling_never_certifiable():
    # sending (1,) into (3,) asks |f| ~ |y^3 - c y| to be bounded by the
    # gradient and value of a degree-1 source; fails for any nonzero weight
    bg = Plane(1)
    rule = quadrature(bg, 32)
    f = _field(bg, -1.0, {(1,): 1.0})
    m1, m3 = mode_from_index(bg, (1,)), mode_from_index(bg, (3,))
    for w in (0.05, 0.2, 1.0):
        forcing = Forcing(ConstantRate(0.5), ModeMatrix((m3, m1), ((0.0, w), (0.0, 0.0))))
        assert forcing_bound_margin(f, forcing, rule) < 0.0


@pytest.mark.parametrize("batch", [None, 50], ids=["one-block", "blocks-of-a-few-rows"])
def test_forcing_margins_equal_the_per_field_margin_bit_for_bit(monkeypatch, batch):
    # the run's block against forcing_bound_margin at each node, for both rate kinds and for couplings that do and
    # do not reach the field's own modes; a small batch cuts the block into runs of 2 rows on plane(1) and of
    # 1 row elsewhere
    if batch is not None:
        monkeypatch.setattr(evolution, "_BLOCK_ENTRIES", batch)
    p1, s2, c11 = Plane(1), Sphere(2), Cylinder(1, 1)
    sampled = SampledRate((-1.0, -0.7, -0.5), (0.5, 0.1, 0.3))
    cases = [
        (p1, 24, {(1,): 1.0, (2,): -0.4}, Forcing(ConstantRate(0.7), ModeMatrix(
            (mode_from_index(p1, (1,)), mode_from_index(p1, (2,))), ((0.7, 0.2), (0.0, 0.5))
        ))),
        (p1, 24, {(3,): 1.0}, Forcing(sampled, ModeMatrix(
            (mode_from_index(p1, (1,)), mode_from_index(p1, (3,))), ((0.0, 0.4), (0.0, 0.0))
        ))),
        (s2, 8, {(1, 0): 1.0, (2, 3): 0.5}, Forcing(ConstantRate(0.2), ModeMatrix(
            (mode_from_index(s2, (1, 0)), mode_from_index(s2, (1, 1))), ((0.0, 0.1), (0.1, 0.0))
        ))),
        (c11, 6, {(1, 0, 0): 1.0, (0, 0, 2): -0.4}, Forcing(sampled, ModeMatrix(
            (mode_from_index(c11, (1, 0, 0)), mode_from_index(c11, (0, 0, 2))), ((0.3, 0.0), (0.1, 0.2))
        ))),
    ]
    for bg, resolution, coeffs, forcing in cases:
        rule = quadrature(bg, resolution)
        traj = evolve_forced(_field(bg, -1.0, coeffs), TimeGrid.uniform(-1.0, -0.5, 7), forcing)
        margins = evolution.forcing_margins(traj, rule)
        per_field = [forcing_bound_margin(field_at(traj, i), forcing, rule) for i in range(len(traj.grid.nodes))]
        assert margins.tobytes() == np.array(per_field).tobytes(), bg.label()


def test_mode_matrix_rejects_shape_mismatch():
    bg = Plane(1)
    m1 = mode_from_index(bg, (1,))
    with pytest.raises(ValueError):
        ModeMatrix((m1,), ((0.0, 1.0),))
