"""Exact spectral evolution and the closed forms of the forced runs."""

import math
import re

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from parafreq import evolution
from parafreq import (
    CoefficientField,
    ConstantRate,
    Cylinder,
    Drift,
    Forcing,
    Plane,
    SampledRate,
    ScalarOnU,
    Sphere,
    TimeGrid,
    enumerate_modes,
    evolve_exact_trajectory,
    evolve_forced,
    mode_from_index,
    mode_function,
)
from parafreq.backgrounds import monomial_moments, quadrature

from oracles import drift_matrix, evolve_exact, field_at, forcing_bound_margin, rate_at, vector_rk4


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
# forced runs against exact oracles


def test_rk_with_zero_rate_matches_exact():
    # exp(0) = 1 scales the closed form by nothing, and G = 0 leaves a drift only its first term, so a forced run at
    # C = 0 is the unforced one bit for bit, on a grid ending near 0 too; a drift's lower modes stay 0
    for bg, coeffs in ((Plane(1), {(1,): 1.0, (2,): 0.3, (4,): -0.1}), (Cylinder(1, 2), {(1, 1, 2, 1): 0.7})):
        f0 = _field(bg, -1.0, coeffs)
        for grid in (TimeGrid.uniform(-1.0, -0.1, 181), TimeGrid.uniform(-1.0, -1e-5, 11)):
            exact = evolve_exact_trajectory(f0, grid).rows(slice(None))
            for coupling in (ScalarOnU(), Drift()):
                traj = evolve_forced(f0, grid, Forcing(ConstantRate(0.0), coupling))
                assert traj.grid.b == grid.b and set(f0.modes) <= set(traj.modes)
                rows = traj.rows(slice(None))
                own = [traj.modes.index(m) for m in f0.modes]
                assert rows[:, own].tobytes() == exact.tobytes(), (bg.label(), coupling)
                assert not np.delete(rows, own, axis=1).any()


def test_scalar_rate_closed_form():
    # f = c0*u shifts every coefficient by a common factor exp(c0*(t - t0))
    bg = Sphere(2)
    c0 = 0.8
    f0 = _field(bg, -1.0, {(1, 0): 1.0, (2, 1): -0.5})
    grid = TimeGrid.uniform(-1.0, -0.2, 161)
    traj = evolve_forced(f0, grid, Forcing(ConstantRate(c0), ScalarOnU()))
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
    # the references: the grid cut at the kinks off its nodes (a forced run's pieces) and [a, b] cut at the kinks
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
    const = evolve_forced(f0, grid, Forcing(ConstantRate(0.3), ScalarOnU()))
    ts = np.linspace(-1.0, -0.4, 25)
    sampled = SampledRate(tuple(ts), tuple(0.3 for _ in ts))
    samp = evolve_forced(f0, grid, Forcing(sampled, ScalarOnU()))
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
    traj = evolve_forced(f0, grid, forcing)
    rk4 = isinstance(rate, ConstantRate)
    ref = vector_rk4(traj, f0, forcing, local_tol) if rk4 else _scalar_flow(f0, rate, traj)
    assert np.max(np.abs(traj.rows(slice(None)) - ref) / np.abs(ref)) <= 1e-12


def _count_unforced_runs(monkeypatch):
    """The modes of each unforced run ``evolve_forced`` evaluates, in order."""
    runs, exact = [], evolution.evolve_exact_trajectory

    def counted(field, grid):
        runs.append(field.modes)
        return exact(field, grid)

    monkeypatch.setattr(evolution, "evolve_exact_trajectory", counted)
    return runs


def test_scalar_coupling_builds_no_step_map(monkeypatch):
    # nothing is stepped: a scalar run is one unforced run scaled per row, which meets its flow to 1e-14
    runs = _count_unforced_runs(monkeypatch)
    f0 = _field(Sphere(2), -1.0, {(1, 0): 1.0, (2, 1): -0.5})
    rate = SampledRate((-0.9, -0.6), (0.2, 1.3))
    traj = evolve_forced(f0, TimeGrid.uniform(-1.0, -0.5, 11), Forcing(rate, ScalarOnU()))
    assert runs == [f0.modes]
    ref = _scalar_flow(f0, rate, traj)
    assert np.max(np.abs(traj.rows(slice(None)) - ref) / np.abs(ref)) <= 1e-14


def test_drift_is_one_unforced_run_per_power_of_its_matrix(monkeypatch):
    # N^k a(t0) for k up to the highest degree on the first flat axis (2 here), each an unforced run over the field's
    # modes and every mode below them on that axis
    runs = _count_unforced_runs(monkeypatch)
    bg = Cylinder(1, 1)
    f0 = _field(bg, -1.0, {(1, 0, 0): 1.0, (2, 1, 2): -0.5})
    rate = SampledRate((-0.9, -0.6), (0.2, 1.3))
    traj = evolve_forced(f0, TimeGrid.uniform(-1.0, -0.5, 11), Forcing(rate, Drift()))
    assert [m.index for m in traj.modes] == [(1, 0, 0), (2, 1, 0), (2, 1, 1), (2, 1, 2)]
    assert runs == [traj.modes] * 3


def test_rate_kinks_cut_the_pieces_once(monkeypatch):
    # G = int C is a trapezoid over pieces on each of which C is linear: a kink on a grid node adds no piece, one
    # between two nodes adds one, and kinks outside the grid none
    pieces, cut = [], evolution._rate_cuts

    def record(rate, nodes):
        pieces.append(cut(rate, nodes).tolist())
        return pieces[-1]

    monkeypatch.setattr(evolution, "_rate_cuts", lambda rate, nodes: np.array(record(rate, nodes)))
    bg = Plane(1)
    grid = TimeGrid.uniform(-1.0, -0.5, 11)
    rate = SampledRate((-1.2, grid.nodes[4], -0.777, -0.3), (0.5, 0.1, 0.3, 0.2))
    f0 = _field(bg, -1.0, {(3,): 1.0})
    for coupling in (ScalarOnU(), Drift()):
        traj = evolve_forced(f0, grid, Forcing(rate, coupling))
        assert pieces.pop() == sorted([*grid.nodes, -0.777])
        ref = vector_rk4(traj, f0, traj.forcing, 1e-15)
        assert np.max(np.abs(traj.rows(slice(None)) - ref)) <= 1e-12 * np.max(np.abs(ref))


_DRIFT_CASES = [
    (Plane(1), {(3,): 1.0, (1,): -0.3}),
    (Plane(2), {(2, 1): 1.0, (0, 1): -0.5}),
    (Plane(3), {(2, 1, 1): 1.0, (0, 2, 0): 0.4}),
    (Cylinder(1, 1), {(1, 0, 2): 1.0, (0, 0, 1): 0.4}),
    (Cylinder(1, 2), {(1, 1, 2, 1): 1.0, (2, 1, 1, 0): -0.6}),
]


@pytest.mark.parametrize("bg, coeffs", _DRIFT_CASES, ids=[bg.label() for bg, _ in _DRIFT_CASES])
@pytest.mark.parametrize(
    "rate, grid",
    [
        (ConstantRate(0.7), TimeGrid.uniform(-1.0, -0.5, 11)),
        # every kink inside a grid interval
        (SampledRate((-0.93, -0.777, -0.6), (0.5, 1.0, 0.3)), TimeGrid.uniform(-1.0, -0.5, 11)),
        # five nodes on [-1, -0.1]: near the end mu/(-t) reaches 15, and one RK4 step per interval is far off
        (ConstantRate(0.5), TimeGrid.uniform(-1.0, -0.1, 5)),
    ],
    ids=["constant", "kinked", "coarse"],
)
def test_drift_matches_an_independent_rk4(bg, coeffs, rate, grid):
    # W = N / sqrt(-t) on the run's modes, N from the oracle's own index arithmetic; the oracle's own error at
    # local tolerance 1e-16, relative to rows that fall to 1e-2 on the coarse grid, is below 4e-13
    f0 = _field(bg, grid.a, coeffs)
    forcing = Forcing(rate, Drift())
    traj = evolve_forced(f0, grid, forcing)
    ref = vector_rk4(traj, f0, forcing, 1e-16)
    scale = np.max(np.abs(ref), axis=1)
    assert np.max(np.abs(traj.rows(slice(None)) - ref).max(axis=1) / scale) <= 1e-12
    if grid.b == -0.1:
        unsplit = vector_rk4(traj, f0, forcing, 1e-16, doubling=False)
        assert np.max(np.abs(unsplit - ref).max(axis=1) / scale) > 1e-8


def test_drift_lowering_coefficients_are_the_derivative_integrals():
    # <phi_i, d/dy_1 phi_j> in L^2(dmu), from the mode polynomials and closed-form moments, is sqrt(n/2) where mode i
    # is mode j lowered by one on the first flat axis (degree n there), and 0 elsewhere
    for bg in (Plane(2), Cylinder(1, 1)):
        modes = enumerate_modes(bg, 2.0)
        axis, first_flat = (2 if bg.sphere_n else 0), bg.ambient_dim - bg.flat_m
        expected = drift_matrix(modes, axis)
        assert np.count_nonzero(expected) > 5
        for i, low in enumerate(modes):
            for j, high in enumerate(modes):
                product = mode_function(bg, low) * mode_function(bg, high).diff(first_flat)
                exps = np.array(list(product.terms), dtype=np.int64).reshape(-1, bg.ambient_dim)
                integral = float(np.dot(list(product.terms.values()), monomial_moments(bg, exps)))
                assert integral == pytest.approx(expected[i, j], abs=1e-13), (low.index, high.index)


def test_modes_the_drift_cannot_lower_keep_the_closed_form():
    # a cylinder mode of flat degree 0 has nothing below it and no mode above it in the field, so N never reaches
    # it: each term after the first adds 0 to it, and it keeps the unforced amplitude bit for bit
    bg = Cylinder(1, 1)
    f0 = _field(bg, -1.0, {(1, 1, 0): 0.8, (2, 0, 2): -0.4})
    grid = TimeGrid.uniform(-1.0, -0.5, 21)
    traj = evolve_forced(f0, grid, Forcing(ConstantRate(0.9), Drift()))
    exact = evolve_exact_trajectory(f0, grid).rows(slice(None))
    untouched = traj.modes.index(mode_from_index(bg, (1, 1, 0)))
    assert traj.rows(slice(None))[:, untouched].tobytes() == exact[:, 0].tobytes()


@pytest.mark.parametrize(
    "rate",
    [ConstantRate(0.5), SampledRate((-1.0, -0.8, -0.55), (0.2, 1.3, 0.0))],
)
def test_rate_values_at_equals_pointwise_calls(rate):
    # the array path feeds the Harnack quadrature, whose reports are byte-compared
    ts = np.concatenate([np.linspace(-1.2, -0.4, 1025), [-1.0, -0.8, -0.55]])
    expected = np.array([rate_at(rate, float(s)) for s in ts])
    assert rate.values_at(ts).tobytes() == expected.tobytes()


def _nilpotent_flow(grid, c0, a2_0, a0_0):
    """(nodes, 3): the drift's closed form on the line from degrees 2 and 0 at rate c0, with G = c0 (t - t0) and
    r = (-t)/(-t0): a2 = A r, a1 = G A r^{1/2} / sqrt(-t0) and a0 = B + G^2 A / (2 sqrt(2) (-t0))."""
    t0 = grid.a
    return np.array([
        [a0_0 + (c0 * (t - t0)) ** 2 * a2_0 / (2.0 * math.sqrt(2.0) * -t0),
         c0 * (t - t0) * a2_0 * math.sqrt(t / t0) / math.sqrt(-t0), a2_0 * (t / t0)]
        for t in grid.nodes
    ])


def _nilpotent_run(grid, c0, a2_0, a0_0):
    return evolve_forced(_field(Plane(1), grid.a, {(2,): a2_0, (0,): a0_0}), grid, Forcing(ConstantRate(c0), Drift()))


def test_drift_nilpotent_closed_form():
    grid = TimeGrid.uniform(-1.0, -0.1, 361)
    traj = _nilpotent_run(grid, 0.5, 1.0, 0.2)
    assert traj.modes == tuple(mode_from_index(Plane(1), (n,)) for n in range(3))
    assert np.max(np.abs(traj.rows(slice(None)) - _nilpotent_flow(grid, 0.5, 1.0, 0.2))) <= 1e-15


def test_forced_run_reaches_a_grid_near_zero():
    # the closed forms take no step, so no end-time floor: a grid ending at t = -1e-6 matches the flow
    grid = TimeGrid.uniform(-1.0, -1e-6, 11)
    traj = _nilpotent_run(grid, 0.5, 1.0, 0.2)
    assert traj.grid.b == -1e-6
    assert np.max(np.abs(traj.rows(slice(None)) - _nilpotent_flow(grid, 0.5, 1.0, 0.2))) <= 1e-15


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_stiff_rate_is_refused_as_non_finite():
    # exp(int C) under f = C u, and G^2 of a drift from degree 2, overflow; the run is refused, with no warning
    f0 = _field(Plane(1), -1.0, {(1,): 1.0, (2,): 0.5})
    grid = TimeGrid.uniform(-1.0, -0.5, 3)
    for c0, coupling in ((1e12, ScalarOnU()), (1e300, Drift())):
        with pytest.raises(ValueError, match="^non-finite amplitude in trajectory$"):
            evolve_forced(f0, grid, Forcing(ConstantRate(c0), coupling))


def test_drift_refuses_a_background_without_a_flat_axis():
    f0 = _field(Sphere(2), -1.0, {(1, 0): 1.0})
    with pytest.raises(ValueError, match=r"^a drift runs along a flat axis, and sphere\(n=2\) has none$"):
        evolve_forced(f0, TimeGrid.uniform(-1.0, -0.5, 3), Forcing(ConstantRate(0.5), Drift()))


_SPLIT_KINDS = ("unforced", "scalar-constant", "scalar-kinked", "drift", "drift-switched-off")
# |run on [a, b] - run on [a, c] continued on [c, b]| per entry is at most _SPLIT_TOLERANCE[kind] * max |row| plus
# _SPLIT_SUBNORMALS[kind] subnormal spacings 2^-1074.  The relative part: the closed forms differ by rounding in a
# power, an exp or the terms of a drift's sum.  The absolute part: a product that rounds into the subnormal range
# errs by up to half a spacing, whatever the relative precision, and later factors scale that error.  Unforced: one
# product on the whole path and two on the split one, the later factor at most 1, so 1.5 spacings.  Scalar: each
# path also multiplies by exp(int C) <= e^4 < 55 after the power, so at most 1.5 * 55 + 1.5.  Drift: each term scales
# a power's product by G^k/k! (N / sqrt(-t0))^k, and G <= 2 (t - t0) <= 2 (-t0) with entries of N at most
# sqrt(3/2), so the scales sum to at most exp(2 sqrt(2) sqrt(3/2)) < 34 per path: 2 * 1.5 * 34 < 128.
_SPLIT_TOLERANCE = {"unforced": 1e-14, "scalar-constant": 1e-14, "scalar-kinked": 1e-14, "drift": 1e-13,
                    "drift-switched-off": 1e-13}
_SPLIT_SUBNORMALS = {"unforced": 2, "scalar-constant": 128, "scalar-kinked": 128, "drift": 128,
                     "drift-switched-off": 128}


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
)
# found: the whole run rounds 5e-324 * 0.5^1.5 to 0, the split run keeps 5e-324 at -0.75 and at -0.5
@example(kind="unforced", bg=Plane(1), a=-1.0, end=0.5, count=3, split=1, amps=[0.0, 0.0, 0.0, 5e-324, 0.0],
         level=(0.0, 0.0))
def test_runs_compose_at_an_interior_node(kind, bg, a, end, count, split, amps, level):
    # the flow from a to b is the flow from c to b after the flow from a to c, at every interior node c; where the
    # rate is 0 from a kink before c on, the flow after c is the unforced one, which a drift that kept acting breaks
    assume(bg.flat_m or not kind.startswith("drift"))
    modes = enumerate_modes(bg, 1.5)[:5]
    grid = TimeGrid.uniform(a, a * end, count)
    k = 1 + (split - 1) % (count - 2)  # the split node
    field = CoefficientField(bg, a, modes, amps[: len(modes)])
    nodes = grid.nodes
    kink = nodes[k - 1] + 0.37 * (nodes[k] - nodes[k - 1])  # inside the step before c
    rate = {
        "scalar-constant": ConstantRate(level[0]),
        "scalar-kinked": SampledRate((kink - 1.0, kink, kink + 1.0), (level[0], level[1], level[0])),
        "drift": ConstantRate(level[0]),
        "drift-switched-off": SampledRate((a, kink), (level[0], 0.0)),
    }.get(kind)
    if kind == "unforced":
        forcing = None
    else:
        forcing = Forcing(rate, ScalarOnU() if kind.startswith("scalar") else Drift())

    def run(start, part, forced=True):
        if forcing is None or not forced:
            return evolve_exact_trajectory(start, part)
        return evolve_forced(start, part, forcing)

    whole = run(field, grid)
    first = run(field, TimeGrid(nodes[: k + 1]))
    bound = _SPLIT_TOLERANCE[kind] * np.max(np.abs(whole.rows(slice(None))), axis=1, keepdims=True)
    bound += _SPLIT_SUBNORMALS[kind] * 2.0**-1074
    for forced in (True, False) if kind == "drift-switched-off" else (True,):
        second = run(field_at(first, -1), TimeGrid(nodes[k:]), forced)
        assert first.modes == second.modes == whole.modes
        joined = np.concatenate([first.rows(slice(None)), second.rows(slice(1, None))])
        assert np.all(np.abs(joined - whole.rows(slice(None))) <= bound), (kind, forced)


# ---------------------------------------------------------------------------
# the forcing hypothesis, pointwise


def test_scalar_coupling_margin_sign():
    # |c0 u| <= c0 (|grad u| + |u|) holds pointwise with equality where grad u = 0, and |c0 du/dx_1| <= c0 |grad u|
    # with equality where u varies along x_1 alone
    bg = Plane(1)
    rule = quadrature(bg, 32)
    f = _field(bg, -1.0, {(2,): 1.0})
    for coupling in (ScalarOnU(), Drift()):
        assert forcing_bound_margin(f, Forcing(ConstantRate(0.7), coupling), rule) >= 0.0
    c11 = Cylinder(1, 1)
    f = _field(c11, -0.5, {(1, 0, 1): 1.0, (0, 0, 3): -0.6})
    assert forcing_bound_margin(f, Forcing(ConstantRate(0.7), Drift()), quadrature(c11, 12)) >= 0.0
