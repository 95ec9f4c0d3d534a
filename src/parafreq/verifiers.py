"""Signed-margin checks for the monotonicity, Harnack, and eigenvalue claims.

Every verifier reduces one inequality or integral identity to a list of
per-node margins on a concrete evolution and wraps them in a
``VerificationReport``.  Margin conventions:

* Inequality checks report the raw slack of the bound, so the statement
  holds at a node iff its margin is nonnegative (up to tolerance).
* Identity checks report ``-|residual|``, so the shared pass rule in
  ``_report`` (no margin below minus the tolerance) applies to both kinds.

Reports carry a three-state verdict.  ``inapplicable`` is reserved for runs
the statement genuinely does not speak about (zero initial data, a forcing
hypothesis that fails certification, a trajectory without a single active
eigenvalue); it is never a euphemism for failure.

Differential statements are checked by centered differences at interior grid
nodes.  On a uniform grid the discretization error of a centered slope is
h^2/6 times the third derivative, which we estimate from third differences of
the same data and fold into the tolerance; the raw margins are reported
unmodified so callers can apply stricter budgets.

Two statements are checked in dual variants on purpose (see the module-level
notes in ``verify_harnack_printed`` and ``verify_drift_bochner_verbatim``):
where a printed bound disagrees with its own derivation, both forms are
computed and reported side by side, never silently merged.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .backgrounds import (
    CURVATURE_IDENTITY,
    Background,
    Cylinder,
    Plane,
    QuadratureRule,
    Sphere,
    kappa,
    quadrature,
    require_support,
    total_mass,
)
from .evolution import CoefficientField, TimeGrid, Trajectory, forcing_bound_margin
from .frequency import FrequencyTrace, lambda1, trace_from_trajectory
from .modes import combine_on_rule
from .polynomials import AmbientPolynomial

_trapz = getattr(np, "trapezoid", None) or np.trapz

PASS = "pass"
FAIL = "fail"
INAPPLICABLE = "inapplicable"

_STATUSES = (PASS, FAIL, INAPPLICABLE)


@dataclass(frozen=True)
class NodeCheck:
    """One evaluated margin: the time it belongs to and a short label."""

    t: float
    margin: float
    label: str = ""

    def __post_init__(self) -> None:
        if not math.isfinite(self.margin):
            raise ValueError(f"non-finite margin {self.margin!r} at t={self.t} ({self.label})")


@dataclass(frozen=True)
class VerificationReport:
    """Outcome of one check on one scenario.

    ``min_margin`` is ``None`` exactly when the report is inapplicable;
    otherwise it is the minimum over node margins and the verdict is
    ``pass`` iff it is at least minus the tolerance.
    """

    check_name: str
    background: str
    scenario_id: str
    nodes: tuple[NodeCheck, ...]
    tolerance: float
    min_margin: float | None
    status: str
    notes: tuple[str, ...] = ()

    def __post_init__(self) -> None:
        if self.status not in _STATUSES:
            raise ValueError(f"unknown status {self.status!r}")
        if self.status != INAPPLICABLE and not self.nodes:
            raise ValueError("applicable report requires at least one node")

    @property
    def passed(self) -> bool:
        return self.status == PASS

    def to_dict(self) -> dict:
        return {
            "check_name": self.check_name,
            "background": self.background,
            "scenario_id": self.scenario_id,
            "nodes": [{"t": n.t, "margin": n.margin, "label": n.label} for n in self.nodes],
            "tolerance": self.tolerance,
            "min_margin": self.min_margin,
            "status": self.status,
            "notes": list(self.notes),
        }


def report_from_dict(data: dict) -> VerificationReport:
    """Inverse of ``VerificationReport.to_dict`` (exact float round-trip)."""
    nodes = tuple(NodeCheck(t=n["t"], margin=n["margin"], label=n.get("label", "")) for n in data["nodes"])
    return VerificationReport(
        check_name=data["check_name"],
        background=data["background"],
        scenario_id=data["scenario_id"],
        nodes=nodes,
        tolerance=data["tolerance"],
        min_margin=data["min_margin"],
        status=data["status"],
        notes=tuple(data.get("notes", ())),
    )


def _report(
    check_name: str,
    bg: Background,
    scenario_id: str,
    nodes: list[NodeCheck],
    tolerance: float,
    notes: tuple[str, ...] = (),
    inapplicable_reason: str | None = None,
) -> VerificationReport:
    if inapplicable_reason is not None:
        return VerificationReport(
            check_name=check_name,
            background=bg.label(),
            scenario_id=scenario_id,
            nodes=tuple(nodes),
            tolerance=tolerance,
            min_margin=None,
            status=INAPPLICABLE,
            notes=notes + (inapplicable_reason,),
        )
    min_margin = min(n.margin for n in nodes)
    status = PASS if min_margin >= -tolerance else FAIL
    return VerificationReport(
        check_name=check_name,
        background=bg.label(),
        scenario_id=scenario_id,
        nodes=tuple(nodes),
        tolerance=tolerance,
        min_margin=min_margin,
        status=status,
        notes=notes,
    )


def merge_reports(
    bg: Background,
    reports: list[VerificationReport],
    *,
    label_prefixes: list[str] | None = None,
    notes: tuple[str, ...] | None = None,
) -> VerificationReport:
    """Fold several applicable runs of one check into one report.

    Nodes keep their order, labelled ``<prefix>:<label>`` when prefixes are
    given (one per report).  The tolerance is the largest of the parts, the
    notes are theirs in order unless ``notes`` replaces them, and the verdict
    comes from the same rule as every single-run report.
    """
    nodes: list[NodeCheck] = []
    for i, r in enumerate(reports):
        if label_prefixes is None:
            nodes.extend(r.nodes)
        else:
            nodes.extend(NodeCheck(t=n.t, margin=n.margin, label=f"{label_prefixes[i]}:{n.label}") for n in r.nodes)
    if notes is None:
        notes = tuple(note for r in reports for note in r.notes)
    first = reports[0]
    return _report(first.check_name, bg, first.scenario_id, nodes, max(r.tolerance for r in reports), notes)


def _is_zero_run(trace: FrequencyTrace) -> bool:
    return bool(np.all(trace.I == 0.0))


def _subsample(count: int, limit: int) -> np.ndarray:
    if count <= limit:
        return np.arange(count)
    return np.unique(np.round(np.linspace(0, count - 1, limit)).astype(int))


# ---------------------------------------------------------------------------
# frequency monotonicity and its equality case


def verify_frequency_monotonicity(
    traj: Trajectory,
    kappa_value: float | None = None,
    *,
    tolerance: float | None = None,
    scenario_id: str = "",
) -> VerificationReport:
    """Check that the weighted frequency is nondecreasing along the run.

    Margins come in two families: consecutive-node increments
    ``U(t_{i+1}) - U(t_i)`` and centered difference quotients at interior
    nodes (the differential form of the statement, compared against zero).

    Parameters
    ----------
    traj : Trajectory
        Evolution to check; meaningful for pure heat runs.
    kappa_value : float, optional
        Curvature weight exponent; defaults to the background's own value.
        The statement requires it to be at least that value.
    tolerance : float, optional
        Pass threshold; defaults to ``1e-9 * max(1, sup |U|)``.
    """
    bg = traj.background
    trace = trace_from_trajectory(traj, kappa_value)
    if _is_zero_run(trace):
        return _report(
            "frequency_monotonicity", bg, scenario_id, [], 0.0,
            inapplicable_reason="zero initial data: frequency undefined",
        )
    t = trace.t
    u = trace.U
    scale = max(1.0, float(np.max(np.abs(u))))
    tol = tolerance if tolerance is not None else 1e-9 * scale
    nodes: list[NodeCheck] = []
    for i in range(len(t) - 1):
        nodes.append(NodeCheck(t=float(t[i + 1]), margin=float(u[i + 1] - u[i]), label="increment"))
    for i in range(1, len(t) - 1):
        slope = (u[i + 1] - u[i - 1]) / (t[i + 1] - t[i - 1])
        nodes.append(NodeCheck(t=float(t[i]), margin=float(slope), label="centered-slope"))
    return _report("frequency_monotonicity", bg, scenario_id, nodes, tol)


def verify_equality_case(
    traj: Trajectory,
    kappa_value: float | None = None,
    *,
    tolerance: float = 1e-9,
    scenario_id: str = "",
) -> VerificationReport:
    """Certify the rigidity side: a flat frequency forces an eigenfunction.

    Wherever ``|U(t_{i+1}) - U(t_i)|`` falls below ``tolerance`` (scaled by
    ``sup |U|``), two assertions fire at both pair endpoints: the
    Cauchy-Schwarz defect is below ``tolerance * I^2``, and the fitted
    eigenvalue ``D / (2 I)`` agrees with ``U / (2 (-t)^(1+2 kappa))``.
    Margins embed the thresholds (``threshold - observed``), so the report
    tolerance is zero.  If no pair triggers, the implication holds vacuously
    and a single zero-margin node records that.

    The trigger compares a finite difference, so extremely fine grids can
    fire it on slowly drifting mixtures; keep node spacing above ~1e-3 when
    mixtures are in play.
    """
    bg = traj.background
    k = kappa(bg) if kappa_value is None else float(kappa_value)
    trace = trace_from_trajectory(traj, kappa_value)
    if _is_zero_run(trace):
        return _report(
            "equality_case", bg, scenario_id, [], 0.0,
            inapplicable_reason="zero initial data: frequency undefined",
        )
    t = trace.t
    u = trace.U
    i_vals = trace.I
    d_vals = trace.D
    cs = trace.cs_defect
    scale_u = max(1.0, float(np.max(np.abs(u))))
    trigger = tolerance * scale_u
    nodes: list[NodeCheck] = []
    for i in range(len(t) - 1):
        if abs(u[i + 1] - u[i]) >= trigger:
            continue
        for j in (i, i + 1):
            tj = float(t[j])
            mt = -tj
            defect_margin = tolerance * i_vals[j] ** 2 - cs[j]
            nodes.append(NodeCheck(t=tj, margin=float(defect_margin), label="defect-bound"))
            c_fit = d_vals[j] / (2.0 * i_vals[j])
            c_ref = u[j] / (2.0 * mt ** (1.0 + 2.0 * k))
            c_margin = tolerance * max(1.0, abs(c_ref)) - abs(c_fit - c_ref)
            nodes.append(NodeCheck(t=tj, margin=float(c_margin), label="eigenvalue-fit"))
    notes: tuple[str, ...] = ()
    if not nodes:
        nodes.append(NodeCheck(t=float(t[-1]), margin=0.0, label="no pair met the flatness trigger"))
        notes = ("vacuous: frequency never flat within the trigger, so the implication holds trivially",)
    return _report("equality_case", bg, scenario_id, nodes, 0.0, notes=notes)


# ---------------------------------------------------------------------------
# Harnack bounds for the mass I


def _harnack_endpoints(trace: FrequencyTrace) -> tuple[float, float, float, float, float]:
    return float(trace.t[0]), float(trace.t[-1]), float(trace.I[0]), float(trace.I[-1]), float(trace.U[0])


def verify_harnack(
    traj: Trajectory,
    kappa_value: float | None = None,
    *,
    tolerance: float = 1e-9,
    scenario_id: str = "",
) -> VerificationReport:
    """Check the two-time lower bound on the mass I against its endpoints.

    For positive curvature weight the bound reads

        I(b) >= I(a) * exp((1/(2 kappa)) ((-b)^(-2 kappa) - (-a)^(-2 kappa)) U(a))

    and the margin is its log-space slack.  At ``kappa = 0`` the governing
    form integrates the frequency directly:

        log I(b) - log I(a) >= -U(a) * log(b/a),

    which is exact on single-eigenvalue runs.  The companion printed variant
    (additive in U(a)) lives in ``verify_harnack_printed``; its margin is
    also surfaced here as a note.

    Zero data degenerates both sides to zero; that branch passes with a note
    rather than being dressed up as inapplicable, since 0 >= 0 is the
    backward-uniqueness content.
    """
    bg = traj.background
    k = kappa(bg) if kappa_value is None else float(kappa_value)
    trace = trace_from_trajectory(traj, kappa_value)
    if _is_zero_run(trace):
        nodes = [NodeCheck(t=traj.grid.b, margin=0.0, label="degenerate")]
        return _report(
            "harnack", bg, scenario_id, nodes, tolerance,
            notes=("zero data: both sides vanish and the bound degenerates to 0 >= 0",),
        )
    ta, tb, ia, ib, ua = _harnack_endpoints(trace)
    dlog = math.log(ib) - math.log(ia)
    notes: tuple[str, ...] = ()
    if k > 0.0:
        bound = (1.0 / (2.0 * k)) * ((-tb) ** (-2.0 * k) - (-ta) ** (-2.0 * k)) * ua
        margin = dlog - bound
        label = "log-bound"
    else:
        ratio = math.log(tb / ta)  # (-tb)/(-ta), both negative
        margin = dlog + ua * ratio
        label = "log-bound-derivation"
        printed = dlog + ua - ratio
        notes = (f"printed-variant margin at the same endpoints: {printed:.17g}",)
    nodes = [NodeCheck(t=tb, margin=float(margin), label=label)]
    return _report("harnack", bg, scenario_id, nodes, tolerance, notes=notes)


def verify_harnack_printed(
    traj: Trajectory,
    kappa_value: float | None = None,
    *,
    tolerance: float = 1e-9,
    scenario_id: str = "",
) -> VerificationReport:
    """Check the printed zero-weight variant of the two-time bound.

    The printed display replaces the derived ``(b/a)^(-U(a))`` factor with
    ``e^(-U(a)) * (b/a)``, which does not match its own derivation and fails
    on single-eigenvalue runs.  It is kept as a separate check (scenarios
    mark it report-only) so the discrepancy stays visible instead of being
    silently corrected.  For positive weight the printed and derived forms
    coincide, so this check is inapplicable there.
    """
    bg = traj.background
    k = kappa(bg) if kappa_value is None else float(kappa_value)
    if k > 0.0:
        return _report(
            "harnack_printed", bg, scenario_id, [], tolerance,
            inapplicable_reason="printed and derived forms coincide for positive curvature weight",
        )
    trace = trace_from_trajectory(traj, kappa_value)
    if _is_zero_run(trace):
        nodes = [NodeCheck(t=traj.grid.b, margin=0.0, label="degenerate")]
        return _report(
            "harnack_printed", bg, scenario_id, nodes, tolerance,
            notes=("zero data: both sides vanish and the bound degenerates to 0 >= 0",),
        )
    ta, tb, ia, ib, ua = _harnack_endpoints(trace)
    margin = (math.log(ib) - math.log(ia)) + ua - math.log(tb / ta)
    nodes = [NodeCheck(t=tb, margin=float(margin), label="log-bound-printed")]
    return _report("harnack_printed", bg, scenario_id, nodes, tolerance)


# ---------------------------------------------------------------------------
# weighted monotonicity for ambient test functions


def _graded_values(poly: AmbientPolynomial, pts: np.ndarray) -> list[tuple[int, np.ndarray]]:
    # split by total degree so a dilation costs one scalar power per grade
    grades: dict[int, np.ndarray] = {}
    for exps, c in sorted(poly.terms.items()):
        term = np.full(pts.shape[0], c)
        for axis, e in enumerate(exps):
            if e:
                term = term * pts[:, axis] ** e
        deg = sum(exps)
        grades[deg] = grades.get(deg, 0.0) + term
    return sorted(grades.items())


def _eval_graded(grades: list[tuple[int, np.ndarray]], s: float, count: int) -> np.ndarray:
    out = np.zeros(count)
    for deg, vals in grades:
        out += s**deg * vals
    return out


def standard_test_functions(bg: Background) -> dict[str, AmbientPolynomial]:
    """Packaged polynomial test functions for the weighted-derivative check.

    Chosen so the two sides exercise genuinely different code paths: pure
    coordinate squares (closed-form oracles), a mixed quartic where the
    projector matters, and a scaled sixth power whose third time derivative
    is small enough for centered differences to resolve the identity near
    machine precision.
    """
    d = bg.ambient_dim
    x = [AmbientPolynomial.coordinate(d, i) for i in range(d)]
    funcs: dict[str, AmbientPolynomial] = {
        "one": AmbientPolynomial.constant(d, 1.0),
        "x1_sq": x[0] * x[0],
        "x1_over4_pow6": x[0].scale(0.25).power(6),
    }
    if d >= 2:
        funcs["x1sq_x2sq"] = (x[0] * x[0]) * (x[1] * x[1])
    if d >= 3:
        funcs["x3_sq"] = x[2] * x[2]
        funcs["x3_over4_pow6"] = x[2].scale(0.25).power(6)
    if isinstance(bg, (Sphere, Cylinder)) or d >= 2:
        # radial square: constant on sphere slices, mixed elsewhere
        r2 = AmbientPolynomial.zero(d)
        for xi in x:
            r2 = r2 + xi * xi
        funcs["radius_sq"] = r2
    return funcs


def verify_weighted_monotonicity(
    bg: Background,
    test_function: AmbientPolynomial,
    grid: TimeGrid,
    *,
    resolution: int = 32,
    tolerance: float = 1e-7,
    scenario_id: str = "",
    function_name: str = "",
) -> VerificationReport:
    """Check the derivative law for weighted integrals of a static function.

    For an ambient polynomial f fixed in space, the weighted integral along
    the evolving background satisfies

        d/dt integral f dmu_t = - integral tr_P(Hess f) dmu_t,

    where tr_P contracts the ambient Hessian with the tangent projector (the
    drift term is exactly absorbed by the measure's self-similarity; the
    normal part of the position feeds the mean-curvature transport).  The
    left side is measured by centered differences of quadrature integrals,
    the right by closed-form Hessian contraction, and the margin at each
    interior node is ``-|residual|``.

    Raises
    ------
    UnsupportedBackgroundError
        If pointwise geometry is not available for ``bg``.
    """
    if len(grid.nodes) < 3:
        raise ValueError("centered differences need a grid with at least 3 nodes")
    rule = quadrature(bg, resolution)
    pts = rule.points
    w = rule.weights
    n_pts = pts.shape[0]
    if test_function.dim != bg.ambient_dim:
        raise ValueError(
            f"test function has dim {test_function.dim}, background needs {bg.ambient_dim}"
        )
    hess = test_function.hessian()
    # tr_P Hess f as one polynomial-valued quadrature profile per grade
    tr_grades: dict[int, np.ndarray] = {}
    d = bg.ambient_dim
    for a in range(d):
        for b in range(d):
            for deg, vals in _graded_values(hess[a][b], pts):
                contrib = rule.tangent_projector[:, a, b] * vals
                tr_grades[deg] = tr_grades.get(deg, 0.0) + contrib
    tr_graded = sorted(tr_grades.items())
    f_graded = _graded_values(test_function, pts)

    t = grid.as_array()
    scales = np.sqrt(-t)
    g = np.array([w @ _eval_graded(f_graded, s, n_pts) for s in scales])
    rhs = np.array([-(w @ _eval_graded(tr_graded, s, n_pts)) for s in scales])
    nodes: list[NodeCheck] = []
    for i in range(1, len(t) - 1):
        lhs = (g[i + 1] - g[i - 1]) / (t[i + 1] - t[i - 1])
        nodes.append(NodeCheck(t=float(t[i]), margin=-abs(float(lhs - rhs[i])), label="residual"))
    notes = (f"test function: {function_name or 'unnamed'}",)
    return _report("weighted_monotonicity", bg, scenario_id, nodes, tolerance, notes=notes)


# ---------------------------------------------------------------------------
# integral curvature identity for the drift operator


def _bochner_sides(f: CoefficientField, rule: QuadratureRule) -> tuple[float, float, float, float]:
    """Both sides of the integral identity at the field's own time.

    Returns (lhs, rhs_verbatim, rhs_corrected, grad_energy) where lhs is the
    integral of |Hess u|^2 + Ric(grad u, grad u), the rhs variants differ by
    the curvature pairing term, and grad_energy = integral |grad u|^2 dmu at
    the field's time scale.
    """
    w = rule.weights
    gbar = combine_on_rule(rule, f.coeff_map, "gradients")
    hbar = combine_on_rule(rule, f.coeff_map, "hessians")
    proj = rule.tangent_projector

    grad = np.einsum("nij,nj->ni", proj, gbar)
    if rule.normal is None:
        # full-dimensional plane: no normal direction, sff vanishes anyway
        nu_dot = np.zeros(len(w))
    else:
        nu_dot = np.einsum("ni,ni->n", rule.normal, gbar)
    hess_m = np.einsum("nij,njk,nkl->nil", proj, hbar, proj) + rule.sff * nu_dot[:, None, None]
    lap = np.einsum("nii->n", hess_m)
    drift = 0.5 * np.einsum("ni,ni->n", rule.x_tan, gbar)
    lu = lap - drift

    grad2 = np.einsum("ni,ni->n", grad, grad)
    hess2 = np.einsum("nij,nij->n", hess_m, hess_m)
    ric_q = np.einsum("nij,ni,nj->n", rule.ric, grad, grad)
    shape_q = np.einsum("nij,ni,nj->n", rule.shape_pairing, grad, grad)

    # every term carries the same (-t)^(-2) scaling from x = sqrt(-t) y
    factor = 1.0 / f.time**2
    lhs = float(w @ (hess2 + ric_q)) * factor
    rhs_verbatim = float(w @ (lu * lu) - 0.5 * (w @ grad2)) * factor
    rhs_corrected = rhs_verbatim + float(w @ shape_q) * factor
    grad_energy = float(w @ grad2) * factor * (-f.time)
    return lhs, rhs_verbatim, rhs_corrected, grad_energy


def verify_drift_bochner(
    bg: Background,
    f: CoefficientField,
    rule: QuadratureRule,
    *,
    tolerance: float = 1e-8,
    scenario_id: str = "",
) -> VerificationReport:
    """Check the integral curvature identity for the drift operator.

    The governing (corrected) form includes the curvature pairing of the
    gradient on the right:

        int |Hess u|^2 + Ric(grad u, grad u)
            = int (Lu)^2 - (1/(2(-t))) |grad u|^2 + <H, A(grad u, grad u)>.

    The extra pairing term arises because the intrinsic Hessian of the
    ambient distance-squared weight on a shrinker is the metric *minus* the
    curvature pairing, not the metric alone.  On planes the term vanishes and
    both variants coincide; on spheres it exactly cancels the gradient term,
    recovering the classical closed-manifold identity.  The verbatim variant
    without the term is checked separately in
    ``verify_drift_bochner_verbatim``; its residual is recorded here as a
    note for side-by-side comparison.
    """
    require_support(bg, CURVATURE_IDENTITY, "the integral curvature identity")
    lhs, rhs_a, rhs_b, grad_energy = _bochner_sides(f, rule)
    margin = -abs(lhs - rhs_b)
    notes = (
        f"verbatim-variant residual at the same field: {lhs - rhs_a:.17g}",
        f"gradient energy at this time: {grad_energy:.17g}",
    )
    nodes = [NodeCheck(t=f.time, margin=float(margin), label="integral-identity")]
    return _report("drift_bochner", bg, scenario_id, nodes, tolerance, notes=notes)


def verify_drift_bochner_verbatim(
    bg: Background,
    f: CoefficientField,
    rule: QuadratureRule,
    *,
    tolerance: float = 1e-8,
    scenario_id: str = "",
) -> VerificationReport:
    """Check the verbatim variant of the curvature identity (no pairing term).

    On curved backgrounds the residual equals the quadrature value of
    ``(1/(2(-t))) * integral |grad u|^2 dmu`` (nonzero whenever the field
    has gradient energy), which is exactly the documented discrepancy; the
    note carries that reference value so reports are self-explanatory.
    Scenarios list this check as report-only.
    """
    require_support(bg, CURVATURE_IDENTITY, "the integral curvature identity")
    lhs, rhs_a, _, grad_energy = _bochner_sides(f, rule)
    margin = -abs(lhs - rhs_a)
    expected = 0.0 if isinstance(bg, Plane) else grad_energy / (2.0 * (-f.time))
    notes = (f"expected residual from the missing pairing term: {expected:.17g}",)
    nodes = [NodeCheck(t=f.time, margin=float(margin), label="integral-identity-verbatim")]
    return _report("drift_bochner_verbatim", bg, scenario_id, nodes, tolerance, notes=notes)


# ---------------------------------------------------------------------------
# general (forced) bounds


def _third_difference_allowance(values: np.ndarray, t: np.ndarray) -> float:
    # centered-difference error is h^2 f'''/6; |third difference| ~ h^3 |f'''|.
    # The factor 2 covers the endpoint gap: the last complete third-difference
    # stencil sits 1.5h inside the interval, so where |f'''| peaks at the
    # boundary max|d3| undershoots the true truncation error by a hair.
    if len(values) < 4:
        return 0.0
    d3 = np.abs(np.diff(values, n=3))
    h_min = float(np.min(np.diff(t)))
    return 2.0 * float(np.max(d3)) / (6.0 * h_min)


def verify_general_bounds(
    traj: Trajectory,
    kappa_value: float | None = None,
    *,
    resolution: int = 24,
    tolerance: float | None = None,
    hypothesis_samples: int = 9,
    scenario_id: str = "",
) -> VerificationReport:
    """Check both differential bounds for forced runs at interior nodes.

    The two margins per node are

        (log I)'(t) - [(1 + C/2) (-t)^(-1-2 kappa) U(t) - 3 C(t)]
        U'(t) - C(t)^2 (U(t) - 2 (-t)^(1+2 kappa))

    with derivatives by centered differences.  Before any margin is trusted,
    the forcing hypothesis |f| <= C(t)(|grad u| + |u|) is certified pointwise
    on quadrature nodes at a subsample of times; if certification fails the
    report is inapplicable and names the offending time, because the bounds
    assume the hypothesis and say nothing without it.

    The tolerance folds in a discretization allowance estimated from third
    differences of the same data; raw margins are reported unmodified.
    """
    bg = traj.background
    k = kappa(bg) if kappa_value is None else float(kappa_value)
    trace = trace_from_trajectory(traj, kappa_value)
    if _is_zero_run(trace):
        return _report(
            "general_bounds", bg, scenario_id, [], 0.0,
            inapplicable_reason="zero initial data: frequency undefined",
        )
    notes: tuple[str, ...] = ()
    if traj.forcing is not None:
        rule = quadrature(bg, resolution)
        sample = _subsample(len(traj.grid.nodes), hypothesis_samples)
        for idx in sample:
            fld = traj.field_at(int(idx))
            m = forcing_bound_margin(fld, traj.forcing, rule)
            if m < -1e-12:
                return _report(
                    "general_bounds", bg, scenario_id, [], 0.0,
                    inapplicable_reason=(
                        f"forcing hypothesis fails at t={fld.time:.17g} (pointwise margin {m:.6e})"
                    ),
                )
        notes = (f"forcing hypothesis certified at {len(sample)} sampled nodes",)

    t = trace.t
    u = trace.U
    log_i = np.log(trace.I)
    rate = traj.forcing.rate if traj.forcing is not None else None
    c_of = (lambda s: rate(s)) if rate is not None else (lambda s: 0.0)

    nodes: list[NodeCheck] = []
    for i in range(1, len(t) - 1):
        ti = float(t[i])
        mt = -ti
        ci = c_of(ti)
        span = t[i + 1] - t[i - 1]
        dlog = (log_i[i + 1] - log_i[i - 1]) / span
        du = (u[i + 1] - u[i - 1]) / span
        bound_i = (1.0 + ci / 2.0) * mt ** (-1.0 - 2.0 * k) * u[i] - 3.0 * ci
        bound_u = ci**2 * (u[i] - 2.0 * mt ** (1.0 + 2.0 * k))
        nodes.append(NodeCheck(t=ti, margin=float(dlog - bound_i), label="mass-growth"))
        nodes.append(NodeCheck(t=ti, margin=float(du - bound_u), label="frequency-derivative"))

    allow = max(_third_difference_allowance(log_i, t), _third_difference_allowance(u, t))
    base = tolerance if tolerance is not None else 1e-9 * max(1.0, float(np.max(np.abs(u))))
    notes = notes + (f"centered-difference allowance folded into tolerance: {allow:.6e}",)
    return _report("general_bounds", bg, scenario_id, nodes, base + allow, notes=notes)


def verify_general_harnack(
    traj: Trajectory,
    kappa_value: float | None = None,
    *,
    tolerance: float = 1e-8,
    quad_tol: float = 1e-10,
    scenario_id: str = "",
) -> VerificationReport:
    """Check the integrated two-time bound for forced runs.

    The bound propagates U forward from the left endpoint through the
    frequency-derivative inequality and feeds it into the mass-growth
    inequality:

        log I(b) - log I(a) >=
            int_a^b (1 + C/2) (-t)^(-1-2k) [ (U(a) - 2(-a)^(1+2k)) e^{G(t)}
                                             + 2(-a)^(1+2k) ] dt
            - 3 int_a^b C dt,      G(t) = int_a^t C(s)^2 ds.

    The right side is integrated by grid-doubling trapezoid sums until two
    successive refinements agree to ``quad_tol`` (relative).  With no forcing
    the integrals collapse to the plain two-time bound.  Zero data passes
    through the degenerate 0 >= 0 branch: that is the backward-uniqueness
    statement itself.
    """
    bg = traj.background
    k = kappa(bg) if kappa_value is None else float(kappa_value)
    trace = trace_from_trajectory(traj, kappa_value)
    if _is_zero_run(trace):
        nodes = [NodeCheck(t=traj.grid.b, margin=0.0, label="degenerate")]
        return _report(
            "general_harnack", bg, scenario_id, nodes, tolerance,
            notes=("zero data: the bound degenerates to 0 >= 0 (vanishing at b forces vanishing throughout)",),
        )
    ta, tb, ia, ib, ua = _harnack_endpoints(trace)
    rate = traj.forcing.rate if traj.forcing is not None else None
    ma = (-ta) ** (1.0 + 2.0 * k)

    def bound_on(count: int) -> float:
        ts = np.linspace(ta, tb, count)
        c = rate.values_at(ts) if rate is not None else np.zeros(count)
        g = np.concatenate([[0.0], np.cumsum(0.5 * (c[1:] ** 2 + c[:-1] ** 2) * np.diff(ts))])
        integrand = (1.0 + c / 2.0) * (-ts) ** (-1.0 - 2.0 * k) * ((ua - 2.0 * ma) * np.exp(g) + 2.0 * ma)
        main = float(_trapz(integrand, ts))
        return main - 3.0 * float(_trapz(c, ts))

    count = 129
    bound = bound_on(count)
    converged = False
    while count <= (1 << 20) + 1:
        count = 2 * (count - 1) + 1
        refined = bound_on(count)
        if abs(refined - bound) <= quad_tol * max(1.0, abs(refined)):
            bound = refined
            converged = True
            break
        bound = refined
    notes = () if converged else ("warning: quadrature for the bound did not reach the requested tolerance",)
    margin = (math.log(ib) - math.log(ia)) - bound
    nodes = [NodeCheck(t=tb, margin=float(margin), label="log-bound-integrated")]
    return _report("general_harnack", bg, scenario_id, nodes, tolerance, notes=notes)


# ---------------------------------------------------------------------------
# eigenvalue monotonicity and self-similar rigidity


def verify_eigenvalue_monotonicity(
    bg: Background,
    grid: TimeGrid,
    kappa_value: float | None = None,
    *,
    tolerance: float = 1e-12,
    scenario_id: str = "",
) -> VerificationReport:
    """Check that the weighted first eigenvalue never increases along the flow.

    The scaled quantity ``(-t)^(1+2 kappa) lambda_1(t)`` equals
    ``mu_1 (-t)^(2 kappa)`` on these backgrounds, so it is constant for the
    flat weighting and strictly falling for curved ones; margins are
    consecutive differences ``q(t_i) - q(t_{i+1}) >= 0``.
    """
    k = kappa(bg) if kappa_value is None else float(kappa_value)
    t = grid.as_array()
    q = np.array([(-ti) ** (1.0 + 2.0 * k) * lambda1(bg, ti) for ti in t])
    nodes = [
        NodeCheck(t=float(t[i + 1]), margin=float(q[i] - q[i + 1]), label="scaled-eigenvalue-drop")
        for i in range(len(t) - 1)
    ]
    return _report("eigenvalue_monotonicity", bg, scenario_id, nodes, tolerance)


def verify_selfsimilar_scaling(
    traj: Trajectory,
    *,
    resolution: int = 24,
    tolerance: float | None = None,
    scenario_id: str = "",
) -> VerificationReport:
    """Check the pointwise self-similar form of constant-frequency runs.

    A run whose active modes share one eigenvalue mu satisfies

        u(x, t) = ((-t)/(-t_ref))^mu * u(x / sqrt(-t) * sqrt(-t_ref), t_ref)

    pointwise; in self-similar coordinates both sides live on the same fixed
    quadrature nodes, so the check is a sup-norm residual per node.  The
    reference slice is t = -1 when the grid contains it, else the left
    endpoint.  Trajectories mixing eigenvalues are inapplicable (their
    frequency is not constant and no such form exists).
    """
    bg = traj.background
    first = traj.field_at(0)
    if first.is_zero:
        return _report(
            "selfsimilar_scaling", bg, scenario_id, [], 0.0,
            inapplicable_reason="zero initial data: no frequency to scale by",
        )
    amps = np.abs(first.amplitudes)
    active = [m for m, a in zip(first.modes, amps) if a > 1e-13 * float(np.max(amps))]
    mus = sorted({m.mu for m in active})
    if len(mus) != 1:
        return _report(
            "selfsimilar_scaling", bg, scenario_id, [], 0.0,
            inapplicable_reason=f"multiple eigenvalues active ({mus}); frequency not constant",
        )
    mu = mus[0]
    rule = quadrature(bg, resolution)
    t = traj.grid.as_array()
    ref_idx = 0
    for i, ti in enumerate(t):
        if abs(ti + 1.0) < 1e-12:
            ref_idx = i
            break
    t_ref = float(t[ref_idx])
    v_ref = combine_on_rule(rule, traj.field_at(ref_idx).coeff_map)
    scale = max(1.0, float(np.max(np.abs(v_ref))))
    tol = tolerance if tolerance is not None else 1e-10 * scale
    nodes: list[NodeCheck] = []
    for i, ti in enumerate(t):
        v = combine_on_rule(rule, traj.field_at(i).coeff_map)
        predicted = ((-float(ti)) / (-t_ref)) ** mu * v_ref
        residual = float(np.max(np.abs(v - predicted)))
        nodes.append(NodeCheck(t=float(ti), margin=-residual, label="sup-residual"))
    notes = (f"single active eigenvalue mu={mu:.17g}; reference slice t={t_ref:.17g}",)
    return _report("selfsimilar_scaling", bg, scenario_id, nodes, tol, notes=notes)


def verify_quadrature_mass(
    bg: Background,
    *,
    resolution: int = 24,
    tolerance: float = 1e-12,
    scenario_id: str = "",
) -> VerificationReport:
    """Check the quadrature rule against the closed-form total mass."""
    rule = quadrature(bg, resolution)
    margin = -abs(rule.mass - total_mass(bg))
    scale = max(1.0, total_mass(bg))
    nodes = [NodeCheck(t=-1.0, margin=float(margin), label="mass")]
    return _report("quadrature_mass", bg, scenario_id, nodes, tolerance * scale)
