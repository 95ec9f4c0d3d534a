"""Independent per-point routes that the tests hold the package's array paths to.

``geometry_at`` builds the closed-form geometry at one point, the oracle for
``QuadratureRule.geometry``; ``forcing_bound_margin`` certifies the forcing
hypothesis for one field, the oracle for ``evolution.forcing_margins``;
``rate_at`` is a rate's value at one time, the oracle for ``values_at``.
"""

import math
from dataclasses import dataclass

import numpy as np

from parafreq.backgrounds import Background, QuadratureRule
from parafreq.evolution import CoefficientField, ConstantRate, Forcing, Rate, ScalarOnU, _amplitudes_on
from parafreq.modes import combine_on_rule


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

    The per-point oracle for ``QuadratureRule.geometry``: the round factor
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
