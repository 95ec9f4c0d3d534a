"""Independent per-point and per-snapshot routes that the tests hold the package's array paths to.

``compute_I``, ``compute_D``, ``compute_N_raw``, ``compute_U`` and
``cauchy_schwarz_defect`` restate one row of ``frequency.trace_from_trajectory``
on one snapshot, bit for bit, and ``evolve_exact`` one row of
``evolution.evolve_exact_trajectory``; ``compute_I_quadrature`` and
``compute_D_quadrature`` are the quadrature routes for I and D, summed by
``integrate``, which the trace's I and D must meet to 1e-8 relative.
``combine_on_rule`` evaluates a combination of modes, its gradients or its
Hessians at a rule's points, and ``tangent_projector`` the projector there,
whose per-point oracle is ``geometry_at``, the closed-form geometry at one
point; ``bochner_sides_on_rule`` integrates the curvature identity's
integrands, built per point on ``geometry_at``, over a rule, the oracle for
the closed-form moment sums of ``frequency.bochner_sides``;
``forcing_bound_margin`` is the forcing hypothesis's pointwise margin for one
field at a rule's points; ``rate_at`` is a rate's value at one time, the
oracle for ``values_at``; ``vector_rk4`` steps a forced run by step-doubled
vector RK4, the oracle for the closed forms of ``evolution.evolve_forced``;
``field_at`` passes one row of a trajectory through as a field without
copying it; ``dense_exact_amplitudes`` builds a closed-form run's whole
amplitude array at once, the oracle for ``Trajectory.rows``.
``gauss_gaussian_1d`` and ``polar_rule`` build a rule's 1-D Gauss factors the
dense way, by numpy's ``hermgauss`` and ``leggauss`` and Golub-Welsch
``eigh``: the referee for ``backgrounds._gauss_rule``, which uses no matrix.
"""

import functools
import itertools
import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from parafreq.backgrounds import Background, QuadratureRule, kappa
from parafreq.evolution import (
    CoefficientField, ConstantRate, Drift, Forcing, Rate, TimeGrid, Trajectory, _amplitudes_on,
)
from parafreq.modes import Mode, mode_function, mode_sort_key
from parafreq.polynomials import AmbientPolynomial


def require_background(rule: QuadratureRule, bg: Background) -> None:
    """Refuse data that lives on another background than ``rule``."""
    if bg != rule.background:
        raise ValueError("quadrature rule background does not match the field")


def tangent_projector(rule: QuadratureRule) -> np.ndarray:
    """The (N, d, d) tangent projector I - nu nu^T at the rule's points; views on planes."""
    pts, n = rule.points, rule.background.sphere_n
    count, d = pts.shape
    if not n:
        return np.broadcast_to(np.eye(d), (count, d, d))
    nu = np.zeros((count, d))
    nu[:, : n + 1] = pts[:, : n + 1] / rule.background.radius
    return np.eye(d) - nu[:, :, None] * nu[:, None, :]


@functools.lru_cache(maxsize=4096)
def _derivatives(bg: Background, mode: Mode, rank: int) -> tuple[tuple[tuple[int, ...], AmbientPolynomial], ...]:
    """(axes, polynomial) of each distinct rank-``rank`` partial of a mode (cached).

    Rank 0 is the mode itself, rank 1 its gradient and rank 2 the upper triangle of its Hessian.
    """
    poly = mode_function(bg, mode)
    return tuple(
        (axes, functools.reduce(AmbientPolynomial.diff, axes, poly))
        for axes in itertools.combinations_with_replacement(range(poly.dim), rank)
    )


# kind -> tensor rank of its per-mode column
_RANKS = {"values": 0, "gradients": 1, "hessians": 2}


def _column(bg: Background, mode: Mode, rank: int, pts: np.ndarray) -> np.ndarray:
    """The mode's value (N,), ambient gradient (N, d) or ambient Hessian (N, d, d) at (N, d) points."""
    out = np.empty(pts.shape[:1] + pts.shape[1:] * rank)
    for axes, poly in _derivatives(bg, mode, rank):
        out[(slice(None), *axes)] = out[(slice(None), *axes[::-1])] = poly.eval(pts)
    return out


def combine_on_rule(
    rule: QuadratureRule, modes: Sequence[Mode], amplitudes: np.ndarray, kind: str = "values"
) -> np.ndarray:
    """sum_j a_j * column_j at the rule's nodes, in ``mode_sort_key`` order, skipping zero amplitudes.

    ``amplitudes`` is aligned with ``modes`` on its last axis: one row of a
    trajectory gives one combination, a (rows, modes) block one per row, with
    every element summed in the same order as its row alone.  ``kind`` is
    values (N,), ambient gradients (N, d) or ambient Hessians (N, d, d);
    project gradients to get surface gradients.
    """
    rank = _RANKS[kind]
    pts, amps = rule.points, np.asarray(amplitudes, dtype=float)
    if amps.shape[-1:] != (len(modes),):
        raise ValueError(f"need one amplitude per mode ({len(modes)}) on the last axis, got shape {amps.shape}")
    lead = amps.shape[:-1]
    out = np.zeros(lead + pts.shape[:1] + pts.shape[1:] * rank)
    term = np.empty_like(out)
    used = amps.any(axis=tuple(range(len(lead)))).tolist()
    for j in sorted((j for j in range(len(modes)) if used[j]), key=lambda j: mode_sort_key(modes[j])):
        column = _column(rule.background, modes[j], rank, pts)
        out += np.multiply(amps[..., j].reshape(lead + (1,) * column.ndim), column, out=term)
    return out


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
    require_background(rule, field.background)
    values = combine_on_rule(rule, field.modes, field.amplitudes)
    return integrate(rule, values**2)


def compute_D_quadrature(field: CoefficientField, rule: QuadratureRule) -> float:
    """Independent route: -2 int |grad u|^2 dmu_t via projected ambient gradients."""
    require_background(rule, field.background)
    grads = combine_on_rule(rule, field.modes, field.amplitudes, "gradients")
    tangential = np.einsum("nij,nj->ni", tangent_projector(rule), grads)
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

    The per-point oracle for ``tangent_projector`` and the
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
    require_background(rule, field.background)
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
    """Pointwise margin min [ C(t)(|grad u| + |u|) - |f| ] over the rule's nodes, for one field.

    Gradients are taken on the flowing surface at the field's time, so the
    unit-scale tangential gradient carries a 1/sqrt(-t) factor; the tangent
    projector comes from ``geometry_at`` at each node.  A drift's f is C times
    the derivative along the first flat axis, ambient coordinate d - m.
    """
    require_background(rule, field.background)
    t, bg = field.time, field.background
    c = rate_at(forcing.rate, t)
    values = combine_on_rule(rule, field.modes, field.amplitudes)
    ambient_grads = combine_on_rule(rule, field.modes, field.amplitudes, "gradients") / math.sqrt(-t)
    proj = np.stack([geometry_at(bg, p).tangent_projector for p in rule.points])
    grad_norm = np.sqrt(np.sum(np.einsum("nij,nj->ni", proj, ambient_grads) ** 2, axis=1))
    if isinstance(forcing.coupling, Drift):
        f_values = c * ambient_grads[:, bg.ambient_dim - bg.flat_m]
    else:
        f_values = c * values
    return float(np.min(c * (grad_norm + np.abs(values)) - np.abs(f_values)))


def field_at(traj: Trajectory, i: int) -> CoefficientField:
    """The field at grid node ``i`` of ``traj``: row ``i`` of its amplitudes, built alone."""
    return CoefficientField(traj.background, traj.grid.nodes[i], traj.modes, traj.rows([i])[0])


def dense_exact_amplitudes(field: CoefficientField, grid: TimeGrid) -> np.ndarray:
    """The whole (nodes, modes) array of the closed form, as one gather and one product: ``np.take`` of the
    columns of a (nodes, distinct mu) table of libm powers, then ``*=`` the field's amplitudes.  The oracle for
    ``Trajectory.rows`` of ``evolution.evolve_exact_trajectory``, bit for bit."""
    mus = sorted({m.mu for m in field.modes})
    ratios = [(-t) / (-field.time) for t in grid.nodes.tolist()]
    powers = np.array([[r**mu for r in ratios] for mu in mus], dtype=float).reshape(len(mus), len(ratios)).T
    amplitudes = np.take(powers, [mus.index(m.mu) for m in field.modes], axis=1)
    amplitudes *= field.amplitudes
    return amplitudes


def drift_matrix(modes: Sequence[Mode], axis: int) -> np.ndarray:
    """N over ``modes``: d/dy phi_n = sqrt(n/2) phi_(n-1) in the degree n at ``axis`` of a mode index, so column j
    holds sqrt(n/2) in the row of mode j lowered by one there, where ``modes`` has it."""
    out = np.zeros((len(modes), len(modes)))
    for j, m in enumerate(modes):
        for i, low in enumerate(modes):
            if m.index[axis] and low.index == m.index[:axis] + (m.index[axis] - 1,) + m.index[axis + 1 :]:
                out[i, j] = math.sqrt(m.index[axis] / 2.0)
    return out


def vector_rk4(traj: Trajectory, field: CoefficientField, forcing: Forcing, local_tol: float, doubling: bool = True):
    """(nodes, modes): per-interval vector RK4 of a' = -mu a/(-t) + C(t) W a on the modes of ``traj``.

    W = I under ScalarOnU and N / sqrt(-t) under a Drift, N the ``drift_matrix`` of the first flat axis.  Each grid
    interval is one RK4 step without ``doubling``; with it, an interval is accepted when
    max|full - halved| / (15 (1 + max|halved|)) <= ``local_tol`` and otherwise split into its halves, recursively.
    """
    mus = np.array([m.mu for m in traj.modes])
    if isinstance(forcing.coupling, Drift):
        n_matrix = drift_matrix(traj.modes, 2 if traj.background.sphere_n else 0)
    else:
        n_matrix = None

    def rhs(t, a):
        coupled = a if n_matrix is None else (n_matrix @ a) / math.sqrt(-t)
        return -(mus / (-t)) * a + rate_at(forcing.rate, t) * coupled

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

    rows = [_amplitudes_on(field.modes, field.amplitudes, traj.modes)]
    for t0, t1 in zip(traj.grid.nodes, traj.grid.nodes[1:]):
        rows.append(advance(t0, rows[-1], t1) if doubling else step(t0, rows[-1], t1 - t0))
    return np.array(rows)


def gauss_gaussian_1d(resolution: int) -> tuple[np.ndarray, np.ndarray]:
    """Nodes/weights for int f(y) (4 pi)^(-1/2) e^(-y^2/4) dy, exact to degree 2*res - 1."""
    x, w = np.polynomial.hermite.hermgauss(resolution)
    return 2.0 * x, w / math.sqrt(math.pi)


def polar_rule(p: int, resolution: int) -> tuple[np.ndarray, np.ndarray]:
    """Gauss nodes and weights for the polar cosine of S^p, weight (1 - u^2)^((p - 2)/2) on [-1, 1].

    Gauss-Legendre for p = 2; else Golub-Welsch, the eigenpairs of the symmetric Jacobi matrix.
    """
    if p == 2:
        return np.polynomial.legendre.leggauss(resolution)
    a, j = (p - 2) / 2.0, np.arange(1, resolution)
    off = np.sqrt(j * (j + 2.0 * a) / ((2.0 * j + 2.0 * a) ** 2 - 1.0))
    u, vectors = np.linalg.eigh(np.diag(off, 1) + np.diag(off, -1))
    return u, math.sqrt(math.pi) * math.gamma(a + 1.0) / math.gamma(a + 1.5) * vectors[0] ** 2
