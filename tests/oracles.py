"""Independent per-point routes that the tests hold the package's array paths to.

``geometry_at`` builds the closed-form geometry at one point, the oracle for
``QuadratureRule.geometry``; ``forcing_bound_margin`` certifies the forcing
hypothesis for one field, the oracle for ``evolution.forcing_margins``;
``rate_at`` is a rate's value at one time, the oracle for ``values_at``.
"""

import math
from dataclasses import dataclass

import numpy as np

from parafreq.backgrounds import Background, Plane, QuadratureRule, Sphere, require_support
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
    """Closed-form geometry of the unit-scale background at ``point``; ``bg`` must be in ``POINTWISE``.

    The per-point oracle for ``QuadratureRule.geometry``.
    """
    require_support(bg, "pointwise geometry")
    y = np.asarray(point, dtype=float)
    d = bg.ambient_dim
    if y.shape != (d,):
        raise ValueError(f"point has shape {y.shape}, background is ambient dim {d}")

    if isinstance(bg, Plane):
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

    if isinstance(bg, Sphere):
        r = bg.radius
        _require_on_surface(float(np.linalg.norm(y)), r, "|y|")
        nu = y / r
        proj = np.eye(d) - np.outer(nu, nu)
        n = bg.n
        return GeometryData(
            ric=((n - 1) / bg.radius_squared) * proj,
            shape_pairing=(n / bg.radius_squared) * proj,
            h_norm=n / r,
            x_tan=np.zeros(d),
            x_perp=y.copy(),
            tangent_projector=proj,
            normal=nu,
            sff=-proj / r,
        )

    # Cylinder(1, 1)
    r = bg.radius
    circ = y[:2]
    _require_on_surface(float(np.linalg.norm(circ)), r, "|y_circle|")
    nu = np.array([circ[0] / r, circ[1] / r, 0.0])
    tau = np.array([-circ[1] / r, circ[0] / r, 0.0])
    proj = np.eye(3) - np.outer(nu, nu)
    q_circ = np.outer(tau, tau)
    return GeometryData(
        ric=np.zeros((3, 3)),  # intrinsically flat product
        shape_pairing=q_circ * (bg.k / bg.radius_squared),
        h_norm=1.0 / r,
        x_tan=np.array([0.0, 0.0, y[2]]),
        x_perp=np.array([circ[0], circ[1], 0.0]),
        tangent_projector=proj,
        normal=nu,
        sff=-q_circ / r,
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
