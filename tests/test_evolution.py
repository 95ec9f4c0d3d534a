"""Exact spectral evolution, the stepped solver, and forcing couplings."""

import math

import numpy as np
import pytest

from parafreq import evolution
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
    ToleranceNotMetError,
    enumerate_modes,
    evolve_exact,
    evolve_exact_trajectory,
    evolve_forced,
    mode_from_index,
    quadrature,
)

from oracles import forcing_bound_margin, rate_at


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
        field = traj.field_at(i)
        ref = evolve_exact(f0, t)
        for (m1, a1), (m2, a2) in zip(_pairs(field), _pairs(ref)):
            assert m1 == m2
            assert a1 == pytest.approx(a2, abs=1e-15)


def test_zero_field_stays_zero():
    bg = Plane(2)
    f0 = CoefficientField.from_dict(bg, -1.0, {})
    assert not f0.amplitudes.any()
    traj = evolve_exact_trajectory(f0, TimeGrid.uniform(-1.0, -0.5, 5))
    assert not traj.amplitudes.any()


def test_field_is_a_read_only_row_of_its_trajectory():
    bg = Sphere(2)
    traj = evolve_exact_trajectory(_field(bg, -1.0, {(1, 0): 1.0, (2, 3): 0.4}), TimeGrid.uniform(-1.0, -0.5, 5))
    field = traj.field_at(2)
    assert field.modes == traj.modes and field.time == traj.grid.nodes[2]
    assert np.shares_memory(field.amplitudes, traj.amplitudes)
    assert field.amplitudes.tobytes() == traj.amplitudes[2].tobytes()
    with pytest.raises(ValueError):
        field.amplitudes[0] = 0.0
    with pytest.raises(ValueError, match="one amplitude per mode"):
        CoefficientField(bg, -1.0, traj.modes, [1.0])
    with pytest.raises(ValueError, match="non-finite amplitude"):
        CoefficientField(bg, -1.0, traj.modes, [1.0, math.inf])
    with pytest.raises(ValueError, match="duplicate mode"):
        CoefficientField(bg, -1.0, traj.modes[:1] * 2, [1.0, 1.0])


# ---------------------------------------------------------------------------
# stepped solver against exact oracles


def test_rk_with_zero_rate_matches_exact():
    # exp(0) = 1 scales the closed form by nothing, so the forced run is the unforced one bit for bit;
    # ScalarOnU steps nothing, so a grid past the stepped-solver floor of a ModeMatrix block runs too
    bg = Plane(1)
    f0 = _field(bg, -1.0, {(1,): 1.0, (2,): 0.3, (4,): -0.1})
    forcing = Forcing(ConstantRate(0.0), ScalarOnU())
    for grid in (TimeGrid.uniform(-1.0, -0.1, 181), TimeGrid.uniform(-1.0, -1e-5, 11)):
        traj = evolve_forced(f0, grid, forcing, local_tol=1e-12)
        exact = evolve_exact_trajectory(f0, grid)
        assert traj.grid.b == grid.b and traj.modes == exact.modes
        assert traj.amplitudes.tobytes() == exact.amplitudes.tobytes()


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
    for (m, a), (_, b) in zip(_pairs(traj.field_at(-1)), _pairs(ref)):
        assert a == pytest.approx(b * factor, rel=1e-9)


def test_sampled_rate_matches_constant_rate():
    bg = Plane(1)
    f0 = _field(bg, -1.0, {(2,): 1.0})
    grid = TimeGrid.uniform(-1.0, -0.5, 41)
    const = evolve_forced(f0, grid, Forcing(ConstantRate(0.3), ScalarOnU()), local_tol=1e-11)
    ts = np.linspace(-1.0, -0.4, 25)
    sampled = SampledRate(tuple(ts), tuple(0.3 for _ in ts))
    samp = evolve_forced(f0, grid, Forcing(sampled, ScalarOnU()), local_tol=1e-11)
    for i in range(len(grid.nodes)):
        for (_, a), (_, b) in zip(_pairs(const.field_at(i)), _pairs(samp.field_at(i))):
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
    # a constant rate against step-doubled vector RK4, the independent route; the kinked rate against the
    # integral of C taken piece by piece, since RK4 loses order unless a step ends on each kink
    f0 = _field(bg, grid.a, coeffs)
    forcing = Forcing(rate, ScalarOnU())
    traj = evolve_forced(f0, grid, forcing, local_tol=local_tol)
    rk4 = isinstance(rate, ConstantRate)
    ref = _vector_rk4(traj, f0, forcing, local_tol) if rk4 else _scalar_flow(f0, rate, traj)
    assert np.max(np.abs(traj.amplitudes - ref) / np.abs(ref)) <= 1e-12


def test_scalar_coupling_builds_no_step_map(monkeypatch):
    def refuse(*args):
        raise AssertionError("a ScalarOnU run built an RK4 map")

    monkeypatch.setattr(evolution, "_rk4_maps", refuse)
    bg = Sphere(2)
    f0 = _field(bg, -1.0, {(1, 0): 1.0, (2, 1): -0.5})
    rate = SampledRate((-0.9, -0.6), (0.2, 1.3))
    traj = evolve_forced(f0, TimeGrid.uniform(-1.0, -0.5, 11), Forcing(rate, ScalarOnU()), local_tol=1e-12)
    ref = _scalar_flow(f0, rate, traj)
    assert np.max(np.abs(traj.amplitudes - ref) / np.abs(ref)) <= 1e-14


def test_rate_kinks_cut_the_pieces_once(monkeypatch):
    # a kink on a grid node adds no piece, one between two nodes adds one, and kinks outside the grid none
    starts = []

    def record(a_at, one, start, end):
        starts.append(start.tolist())
        return built(a_at, one, start, end)

    built = evolution._rk4_maps
    monkeypatch.setattr(evolution, "_rk4_maps", record)
    bg = Plane(1)
    grid = TimeGrid.uniform(-1.0, -0.5, 11)
    coupling = ModeMatrix((mode_from_index(bg, (1,)), mode_from_index(bg, (3,))), ((0.0, 0.4), (0.0, 0.0)))
    rate = SampledRate((-1.2, grid.nodes[4], -0.777, -0.3), (0.5, 0.1, 0.3, 0.2))
    evolve_forced(_field(bg, -1.0, {(3,): 1.0}), grid, Forcing(rate, coupling))
    assert starts[0] + [grid.b] == sorted([*grid.nodes, -0.777])


def _vector_rk4(traj, field, forcing, local_tol, doubling=True):
    """Per-interval vector RK4 of a' = -mu a/(-t) + C(t) W a on the modes of ``traj`` (W = I on all of them under
    ScalarOnU), halved by step doubling (or one step per interval without ``doubling``)."""
    mus = np.array([m.mu for m in traj.modes])
    coupling = forcing.coupling
    scalar = isinstance(coupling, ScalarOnU)
    idx = [traj.modes.index(m) for m in (traj.modes if scalar else coupling.modes)]
    w = np.eye(len(idx)) if scalar else coupling.as_array()

    def rhs(t, a):
        out = -(mus / (-t)) * a
        out[idx] += rate_at(forcing.rate, t) * (w @ a[idx])
        return out

    def step(t, a, h):
        k1 = rhs(t, a)
        k2 = rhs(t + h / 2, a + h / 2 * k1)
        k3 = rhs(t + h / 2, a + h / 2 * k2)
        return a + h / 6 * (k1 + 2 * k2 + 2 * k3 + rhs(t + h, a + h * k3))

    def advance(t0, a, t1, depth=0):
        mid = t0 + (t1 - t0) / 2
        full, halved = step(t0, a, t1 - t0), step(mid, step(t0, a, mid - t0), t1 - mid)
        if np.max(np.abs(full - halved)) / (15 * (1 + np.max(np.abs(halved)))) <= local_tol:
            return halved
        assert depth < 30
        return advance(mid, advance(t0, a, mid, depth + 1), t1, depth + 1)

    rows = [np.array([_coeff(field, m.index) for m in traj.modes])]
    for t0, t1 in zip(traj.grid.nodes, traj.grid.nodes[1:]):
        rows.append(advance(t0, rows[-1], t1) if doubling else step(t0, rows[-1], t1 - t0))
    return np.array(rows)


def test_mode_matrix_halves_a_coarse_grid_like_an_independent_rk4():
    # five nodes on [-1, -0.1]: near the end mu/(-t) reaches 15 and one RK4 step per interval is far off
    bg = Plane(1)
    m1, m3 = mode_from_index(bg, (1,)), mode_from_index(bg, (3,))
    forcing = Forcing(ConstantRate(0.5), ModeMatrix((m1, m3), ((0.0, 0.4), (0.0, 0.0))))
    f0 = _field(bg, -1.0, {(1,): 0.2, (3,): 1.0})
    traj = evolve_forced(f0, TimeGrid.uniform(-1.0, -0.1, 5), forcing, local_tol=1e-12)
    ref = _vector_rk4(traj, f0, forcing, 1e-12)
    unhalved = _vector_rk4(traj, f0, forcing, 1e-12, doubling=False)
    scale = np.max(np.abs(ref), axis=1)
    assert np.max(np.abs(unhalved - ref).max(axis=1) / scale) > 1e-8
    assert np.max(np.abs(traj.amplitudes - ref).max(axis=1) / scale) <= 1e-12


def test_uncoupled_modes_and_small_map_batches_keep_the_stepped_flow(monkeypatch):
    # mode 2 sits outside the coupled block, so it keeps the closed form; a tiny batch budget builds the block's
    # maps four pieces at a time; the first interval must be halved, and the fine ones after it pass from the state
    # it ends in
    monkeypatch.setattr(evolution, "_MAP_BATCH", 16)
    bg = Plane(1)
    m1, m3 = mode_from_index(bg, (1,)), mode_from_index(bg, (3,))
    f0 = _field(bg, -1.0, {(1,): 0.2, (2,): -0.7, (3,): 1.0})
    grid = TimeGrid((-1.0, *np.linspace(-0.5, -0.45, 11).tolist()))
    forcing = Forcing(ConstantRate(0.5), ModeMatrix((m1, m3), ((0.0, 0.4), (0.0, 0.0))))
    traj = evolve_forced(f0, grid, forcing, local_tol=1e-12)
    ref = _vector_rk4(traj, f0, forcing, 1e-12)
    assert np.max(np.abs(traj.amplitudes - ref).max(axis=1) / np.max(np.abs(ref), axis=1)) <= 1e-12


@pytest.mark.parametrize(
    "rate",
    [ConstantRate(0.5), SampledRate((-1.0, -0.8, -0.55), (0.2, 1.3, 0.0))],
)
def test_rate_values_at_equals_pointwise_calls(rate):
    # the array path feeds the Harnack quadrature, whose reports are byte-compared
    ts = np.concatenate([np.linspace(-1.2, -0.4, 1025), [-1.0, -0.8, -0.55]])
    expected = np.array([rate_at(rate, float(s)) for s in ts])
    assert rate.values_at(ts).tobytes() == expected.tobytes()


def test_mode_matrix_nilpotent_closed_form():
    # one-way coupling (3,) -> (1,) on the line admits an explicit solution:
    # a3(t) = A*(-t)^{3/2},  a1(t) = (-t)^{1/2} * (a1(t0)/(-t0)^{1/2}
    #                                + c0*w*A*(t0^2 - t^2)/2)
    bg = Plane(1)
    c0, w = 0.5, 0.4
    t0 = -1.0
    a1_0, a3_0 = 0.2, 1.0
    f0 = _field(bg, t0, {(1,): a1_0, (3,): a3_0})
    m1, m3 = mode_from_index(bg, (1,)), mode_from_index(bg, (3,))
    forcing = Forcing(ConstantRate(c0), ModeMatrix((m1, m3), ((0.0, w), (0.0, 0.0))))
    grid = TimeGrid.uniform(t0, -0.1, 361)
    traj = evolve_forced(f0, grid, forcing, local_tol=1e-12)
    amp = a3_0 / (-t0) ** 1.5
    for i, t in enumerate(grid.nodes):
        field = traj.field_at(i)
        a3 = amp * (-t) ** 1.5
        a1 = (-t) ** 0.5 * (a1_0 / (-t0) ** 0.5 + c0 * w * amp * (t0 * t0 - t * t) / 2.0)
        assert _coeff(field, (3,)) == pytest.approx(a3, rel=1e-9, abs=1e-11)
        assert _coeff(field, (1,)) == pytest.approx(a1, rel=1e-9, abs=1e-11)


def test_forced_run_refuses_grid_near_zero():
    bg = Plane(1)
    f0 = _field(bg, -1.0, {(1,): 1.0})
    forcing = Forcing(ConstantRate(0.0), ModeMatrix((mode_from_index(bg, (1,)),), ((1.0,),)))
    with pytest.raises(ValueError):
        evolve_forced(f0, TimeGrid.uniform(-1.0, -1e-5, 11), forcing)
    # the floor is t = -1e-3: a grid ending there runs, one ending just after it is refused
    assert evolve_forced(f0, TimeGrid.uniform(-1.0, -1e-3, 3), forcing).grid.b == -1e-3
    with pytest.raises(ValueError, match="above the stepped-solver floor -0.001; use exact evolution$"):
        evolve_forced(f0, TimeGrid.uniform(-1.0, -9.9e-4, 3), forcing)


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_unreachable_tolerance_raises():
    # on a one-mode block, a rate this stiff exhausts the step-halving budget on the first node; the states it
    # reaches overflow, and at 1e300 every map is inf - inf = NaN, so the run raises only because a NaN error never
    # passes the rule
    bg = Plane(1)
    m1 = mode_from_index(bg, (1,))
    f0 = _field(bg, -1.0, {(1,): 1.0})
    grid = TimeGrid.uniform(-1.0, -0.5, 3)
    for c0, error in ((1e12, "6.667e-02"), (1e300, "nan")):
        with pytest.raises(ToleranceNotMetError, match=f"^grid too coarse near t = -1.0: local error {error} > tol"):
            evolve_forced(f0, grid, Forcing(ConstantRate(c0), ModeMatrix((m1,), ((1.0,),))), local_tol=1e-10)
    # the closed form steps nothing, so there is no tolerance to miss: exp(int C) overflows and the run is refused
    with pytest.raises(ValueError, match="^non-finite amplitude in trajectory$"):
        evolve_forced(f0, grid, Forcing(ConstantRate(1e12), ScalarOnU()), local_tol=1e-10)


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
        per_field = [forcing_bound_margin(traj.field_at(i), forcing, rule) for i in range(len(traj.grid.nodes))]
        assert margins.tobytes() == np.array(per_field).tobytes(), bg.label()


def test_mode_matrix_rejects_shape_mismatch():
    bg = Plane(1)
    m1 = mode_from_index(bg, (1,))
    with pytest.raises(ValueError):
        ModeMatrix((m1,), ((0.0, 1.0),))
