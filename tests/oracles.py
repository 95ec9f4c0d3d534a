"""Independent per-point and per-snapshot routes that the tests hold the package's array paths to.

``compute_I``, ``compute_D``, ``compute_N_raw``, ``compute_U`` and
``cauchy_schwarz_defect`` restate one row of ``frequency.trace_from_trajectory``
on one snapshot, bit for bit, and ``evolve_exact`` one row of
``evolution.evolve_exact_trajectory``; ``compute_I_quadrature`` and
``compute_D_quadrature`` are the quadrature routes for I and D, summed by
``integrate``, which the trace's I and D must meet to 1e-8 relative.
``geometry_at`` builds the closed-form geometry at one point, the oracle for
``QuadratureRule.tangent_projector``; ``bochner_sides_on_rule`` integrates the
curvature identity's integrands, built per point on ``geometry_at``, over a
rule, the oracle for the closed-form moment sums of
``frequency.bochner_sides``; ``forcing_bound_margin`` certifies the forcing
hypothesis for one field, the oracle for ``evolution.forcing_margins``;
``rate_at`` is a rate's value at one time, the oracle for ``values_at``;
``vector_rk4`` steps a forced run by step-doubled vector RK4, the oracle for
the Taylor transfer maps of ``evolution.evolve_forced``; ``field_at`` passes
one row of a trajectory through as a field without copying it.
"""

import math
from dataclasses import dataclass

import numpy as np

from parafreq.backgrounds import Background, QuadratureRule, kappa
from parafreq.evolution import CoefficientField, ConstantRate, Forcing, Rate, ScalarOnU, Trajectory, _amplitudes_on
from parafreq.modes import combine_on_rule


def integrate(rule: QuadratureRule, values: np.ndarray) -> float:
    """``sum(weights * values)`` as numpy's pairwise sum, not a BLAS dot, which splits long sums across threads."""
    return float(np.add.reduce(rule.weights * values))


class ZeroFieldError(ValueError):
    """Frequency quantities are undefined on the zero field."""


def compute_I(field: CoefficientField) -> float:
    return float(np.sum(field.amplitudes**2))


def compute_D(field: CoefficientField) -> float:
    mus = np.array([m.mu for m in field.modes], dtype=float)
    return float(-(2.0 / (-field.time)) * np.sum(mus * field.amplitudes**2))


def compute_N_raw(field: CoefficientField) -> float:
    i_val = compute_I(field)
    if i_val == 0.0:
        raise ZeroFieldError("frequency undefined: zero field")
    return (-field.time) * compute_D(field) / i_val


def compute_U(field: CoefficientField, kappa_value: float | None = None) -> float:
    """Frequency (-t)^(1 + 2 kappa) D / I; kappa defaults to the background constant."""
    k = kappa(field.background) if kappa_value is None else float(kappa_value)
    return (-field.time) ** (2.0 * k) * compute_N_raw(field)


def cauchy_schwarz_defect(field: CoefficientField) -> float:
    """I * int (L_t u)^2 dmu - (int u L_t u dmu)^2 >= 0, zero iff pure mode."""
    amps = field.amplitudes
    c = np.array([-m.mu / (-field.time) for m in field.modes], dtype=float)
    sq = amps**2
    return float(np.sum(sq) * np.sum(c**2 * sq) - np.sum(c * sq) ** 2)


def compute_I_quadrature(field: CoefficientField, rule: QuadratureRule) -> float:
    """Independent route: point values squared against the rule weights."""
    rule.require_background(field.background)
    values = combine_on_rule(rule, field.modes, field.amplitudes)
    return integrate(rule, values**2)


def compute_D_quadrature(field: CoefficientField, rule: QuadratureRule) -> float:
    """Independent route: -2 int |grad u|^2 dmu_t via projected ambient gradients."""
    rule.require_background(field.background)
    grads = combine_on_rule(rule, field.modes, field.amplitudes, "gradients")
    tangential = np.einsum("nij,nj->ni", rule.tangent_projector(), grads)
    unit_scale = integrate(rule, np.sum(tangential**2, axis=1))
    return -2.0 * unit_scale / (-field.time)


def evolve_exact(field: CoefficientField, t_target: float) -> CoefficientField:
    """Closed-form evolution a_j -> a_j * ((-T)/(-t0))**mu_j; valid both directions."""
    if not (math.isfinite(t_target) and t_target < 0.0):
        raise ValueError(f"target time must be negative, got {t_target!r}")
    ratio = (-t_target) / (-field.time)
    amps = [a * ratio**m.mu for m, a in zip(field.modes, field.amplitudes.tolist())]
    return CoefficientField(field.background, float(t_target), field.modes, amps)


@dataclass(frozen=True)
class GeometryData:
    """Pointwise unit-scale geometry in ambient coordinates.

    All bilinear forms are given as ambient matrices that act on tangent
    vectors (they are extended by zero on the normal space, so contracting
    with projected gradients is safe).

    Fields
    ------
    ric : (d, d) Ricci quadratic form.
    shape_pairing : (d, d) form <H, A(., .)>; its largest eigenvalue over the
        background equals ``kappa(bg)`` exactly.
    h_norm : |H| at the point.
    x_tan, x_perp : tangential / normal split of the position vector.
    tangent_projector : (d, d) orthogonal projector onto the tangent space.
    normal : unit normal (codimension one), or None on planes where the
        second fundamental form vanishes identically.
    sff : (d, d) scalar second fundamental form, A(X, Y) = sff(X, Y) * normal.
    """

    ric: np.ndarray
    shape_pairing: np.ndarray
    h_norm: float
    x_tan: np.ndarray
    x_perp: np.ndarray
    tangent_projector: np.ndarray
    normal: np.ndarray | None
    sff: np.ndarray


def _require_on_surface(actual: float, expected: float, what: str) -> None:
    if abs(actual - expected) > 1e-9 * max(1.0, abs(expected)):
        raise ValueError(f"point is not on the unit-scale shrinker: {what} = {actual!r}, expected {expected!r}")


def geometry_at(bg: Background, point: np.ndarray) -> GeometryData:
    """Closed-form geometry of the unit-scale background S^k x R^m at ``point``.

    The per-point oracle for ``QuadratureRule.tangent_projector`` and the
    curvature forms of ``frequency.bochner_sides``: the round factor
    takes the first k + 1 coordinates, and the axes the last m.
    """
    y = np.asarray(point, dtype=float)
    d, k, m = bg.ambient_dim, bg.sphere_n, bg.flat_m
    if y.shape != (d,):
        raise ValueError(f"point has shape {y.shape}, background is ambient dim {d}")

    if not k:
        eye = np.eye(d)
        zero = np.zeros((d, d))
        return GeometryData(
            ric=zero,
            shape_pairing=zero,
            h_norm=0.0,
            x_tan=y.copy(),
            x_perp=np.zeros(d),
            tangent_projector=eye,
            normal=None,
            sff=zero,
        )

    r = bg.radius
    _require_on_surface(float(np.linalg.norm(y[: k + 1])), r, "|y_round|")
    nu = np.concatenate([y[: k + 1] / r, np.zeros(m)])
    if k == 1 and m:
        # a circle times axes: the circle's tangent tau spans the curved directions, and the product is flat
        tau = np.concatenate([[-nu[1], nu[0]], np.zeros(m)])
        q_round, ric = np.outer(tau, tau), np.zeros((d, d))
    else:
        # the round factor's tangent projector; on a sphere it is the whole tangent projector
        q_round = np.diag(np.concatenate([np.ones(k + 1), np.zeros(m)])) - np.outer(nu, nu)
        ric = ((k - 1) / bg.radius_squared) * q_round
    return GeometryData(
        ric=ric,
        shape_pairing=(k / bg.radius_squared) * q_round,
        h_norm=k / r,
        x_tan=np.concatenate([np.zeros(k + 1), y[k + 1 :]]),
        x_perp=np.concatenate([y[: k + 1], np.zeros(m)]),
        tangent_projector=np.eye(d) - np.outer(nu, nu),
        normal=nu,
        sff=-q_round / r,
    )


def bochner_sides_on_rule(field: CoefficientField, rule: QuadratureRule) -> tuple[float, float, float, float]:
    """(lhs, rhs_verbatim, pairing, grad_energy) of one field, from its integrands at each node of ``rule``.

    At each node, from ``geometry_at`` and the field's ambient gradient and Hessian there:
    |Hess_M u|^2 + Ric(grad u, grad u), (Lu)^2, |grad u|^2 and <H, A(grad u, grad u)>, with
    Hess_M u = P Hess u P + sff (nu . grad u) and Lu = tr Hess_M u - x_tan . grad u / 2.  The weights reduce each,
    and every side carries the (-t)^(-2) of x = sqrt(-t) y.
    """
    rule.require_background(field.background)
    geometry = [geometry_at(rule.background, p) for p in rule.points]
    names = ("tangent_projector", "sff", "ric", "shape_pairing", "x_tan")
    proj, sff, ric, shape, x_tan = (np.stack([getattr(g, name) for g in geometry]) for name in names)
    gbar, hbar = (combine_on_rule(rule, field.modes, field.amplitudes, kind) for kind in ("gradients", "hessians"))
    grad = np.einsum("nij,nj->ni", proj, gbar)
    nu = np.zeros_like(gbar) if geometry[0].normal is None else np.stack([g.normal for g in geometry])
    nu_dot = np.einsum("ni,ni->n", nu, gbar)
    hess_m = np.einsum("nij,njk,nkl->nil", proj, hbar, proj) + sff * nu_dot[:, None, None]
    lu = np.einsum("nii->n", hess_m) - 0.5 * np.einsum("ni,ni->n", x_tan, gbar)
    hess_ric, lu2, grad2, shape_q = (
        integrate(rule, column)
        for column in (
            np.einsum("nij,nij->n", hess_m, hess_m) + np.einsum("nij,ni,nj->n", ric, grad, grad),
            lu * lu,
            np.einsum("ni,ni->n", grad, grad),
            np.einsum("nij,ni,nj->n", shape, grad, grad),
        )
    )
    factor, t = 1.0 / field.time**2, field.time
    return hess_ric * factor, (lu2 - 0.5 * grad2) * factor, shape_q * factor, grad2 * factor * (-t)


def rate_at(rate: Rate, t: float) -> float:
    """C(t) at one time: ``c0`` for a constant rate, else the scalar linear interpolation of the samples."""
    if isinstance(rate, ConstantRate):
        return rate.c0
    return float(np.interp(t, rate.times, rate.values))


def forcing_bound_margin(field: CoefficientField, forcing: Forcing, rule: QuadratureRule) -> float:
    """Certified pointwise margin min [ C(t)(|grad u| + |u|) - |f| ] over the rule's nodes, for one field.

    Gradients are taken on the flowing surface at the field's time, so the
    unit-scale tangential gradient carries a 1/sqrt(-t) factor; the tangent
    projector comes from ``geometry_at`` at each node.
    """
    rule.require_background(field.background)
    t = field.time
    c = rate_at(forcing.rate, t)
    values = combine_on_rule(rule, field.modes, field.amplitudes)
    ambient_grads = combine_on_rule(rule, field.modes, field.amplitudes, "gradients")
    proj = np.stack([geometry_at(rule.background, p).tangent_projector for p in rule.points])
    tangential = np.einsum("nij,nj->ni", proj, ambient_grads)
    grad_norm = np.sqrt(np.sum(tangential**2, axis=1)) / math.sqrt(-t)

    if isinstance(forcing.coupling, ScalarOnU):
        f_values = c * values
    else:
        coupling = forcing.coupling
        f_coeffs = c * (coupling.as_array() @ _amplitudes_on(field, coupling.modes))
        f_values = combine_on_rule(rule, coupling.modes, f_coeffs)

    return float(np.min(c * (grad_norm + np.abs(values)) - np.abs(f_values)))


def field_at(traj: Trajectory, i: int) -> CoefficientField:
    """The field at grid node ``i`` of ``traj``: row ``i`` of its amplitudes, shared, not copied."""
    return CoefficientField(traj.background, traj.grid.nodes[i], traj.modes, traj.amplitudes[i])


def vector_rk4(traj: Trajectory, field: CoefficientField, forcing: Forcing, local_tol: float, doubling: bool = True):
    """(nodes, modes): per-interval vector RK4 of a' = -mu a/(-t) + C(t) W a on the modes of ``traj``.

    W = I on all of them under ScalarOnU.  Each grid interval is one RK4 step without ``doubling``; with it,
    an interval is accepted when max|full - halved| / (15 (1 + max|halved|)) <= ``local_tol`` and otherwise
    split into its halves, recursively.
    """
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

    rows = [_amplitudes_on(field, traj.modes)]
    for t0, t1 in zip(traj.grid.nodes, traj.grid.nodes[1:]):
        rows.append(advance(t0, rows[-1], t1) if doubling else step(t0, rows[-1], t1 - t0))
    return np.array(rows)
