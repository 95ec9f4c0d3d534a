"""Signed-margin checks for the monotonicity, Harnack, and eigenvalue claims.

Every verifier reduces one inequality or integral identity to per-node
margins on a concrete evolution, computed as whole-array column expressions,
and wraps them with their times and labels in a ``VerificationReport``.
Verifiers read the run's data and never rebuild it: the frequency checks take
the run's ``FrequencyTrace`` (and its kappa), the pointwise checks take the
run's ``QuadratureRule`` (and its background).  Margin conventions:

* Inequality checks report the raw slack of the bound, so the statement
  holds at a node iff its margin is nonnegative (up to tolerance).
* Identity checks report ``-|residual|``, so the shared pass rule in
  ``_report`` (no margin below minus the tolerance) applies to both kinds.

Reports carry a three-state verdict.  ``inapplicable`` is reserved for runs
the statement genuinely does not speak about (zero initial data, a forcing
hypothesis that fails certification, a trajectory without a single active
eigenvalue) or cannot decide (a ``general_harnack`` quadrature that does not
converge); it is never a euphemism for failure.

Differential statements are checked by centered differences at interior grid
nodes.  On a uniform grid the discretization error of a centered slope is
h^2/6 times the third derivative.  Only ``verify_general_bounds`` estimates it,
from third differences of the same data, and folds it into its tolerance;
``verify_frequency_monotonicity`` and ``verify_weighted_monotonicity`` apply
their tolerance as given.  Raw margins are always reported unmodified so
callers can apply stricter budgets.

Two statements are checked in dual variants on purpose (see the module-level
notes in ``verify_harnack_printed`` and ``verify_drift_bochner_verbatim``):
where a printed bound disagrees with its own derivation, both forms are
computed and reported side by side, never silently merged.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .backgrounds import Background, Cylinder, QuadratureRule, Sphere, kappa, total_mass
from .evolution import CoefficientField, TimeGrid, Trajectory, float_powers, forcing_bound_margin
from .frequency import FrequencyTrace
from .modes import combine_on_rule, first_nonzero_eigenvalue
from .polynomials import AmbientPolynomial

_trapz = getattr(np, "trapezoid", None) or np.trapz

PASS = "pass"
FAIL = "fail"
INAPPLICABLE = "inapplicable"

_STATUSES = (PASS, FAIL, INAPPLICABLE)

_HYPOTHESIS_SAMPLES = 9  # grid nodes at which the general checks certify the forcing hypothesis
_HARNACK_QUAD_TOL = 1e-10  # relative agreement of two refinements that ends general_harnack's quadrature


@dataclass(frozen=True, eq=False)
class VerificationReport:
    """Outcome of one check on one scenario.

    The evaluated nodes are three columns of equal length: ``t`` and
    ``margin`` as read-only float arrays and ``labels`` as a tuple of str.
    Every margin must be finite.  ``min_margin`` is ``None`` exactly when the
    report is inapplicable; otherwise it is the minimum over node margins and
    the verdict is ``pass`` iff it is at least minus the tolerance.
    """

    check_name: str
    background: str
    scenario_id: str
    t: np.ndarray
    margin: np.ndarray
    labels: tuple[str, ...]
    tolerance: float
    min_margin: float | None
    status: str
    notes: tuple[str, ...] = ()

    def __post_init__(self) -> None:
        for name in ("t", "margin"):
            column = np.array(getattr(self, name), dtype=float).reshape(-1)
            column.setflags(write=False)
            object.__setattr__(self, name, column)
        object.__setattr__(self, "labels", tuple(self.labels))
        t, margin, labels = self.t, self.margin, self.labels
        if self.status not in _STATUSES:
            raise ValueError(f"unknown status {self.status!r}")
        if not len(t) == len(margin) == len(labels):
            raise ValueError(f"node columns differ in length: t {len(t)}, margin {len(margin)}, labels {len(labels)}")
        if self.status != INAPPLICABLE and not len(margin):
            raise ValueError("applicable report requires at least one node")
        if not np.isfinite(margin).all():
            i = int(np.argmin(np.isfinite(margin)))
            raise ValueError(f"non-finite margin {float(margin[i])!r} at t={float(t[i])} ({labels[i]})")

    @property
    def passed(self) -> bool:
        return self.status == PASS

    def to_dict(self, *, with_nodes: bool = True) -> dict:
        """Plain-data form; ``with_nodes=False`` leaves ``nodes`` None for a writer that formats the columns itself."""
        nodes = zip(self.t.tolist(), self.margin.tolist(), self.labels)
        return {
            "check_name": self.check_name,
            "background": self.background,
            "scenario_id": self.scenario_id,
            "nodes": [{"t": t, "margin": m, "label": lab} for t, m, lab in nodes] if with_nodes else None,
            "tolerance": self.tolerance,
            "min_margin": self.min_margin,
            "status": self.status,
            "notes": list(self.notes),
        }


def report_from_dict(data: dict) -> VerificationReport:
    """Inverse of ``VerificationReport.to_dict`` (exact float round-trip)."""
    nodes = data["nodes"]
    return VerificationReport(
        data["check_name"], data["background"], data["scenario_id"],
        [n["t"] for n in nodes], [n["margin"] for n in nodes], [n.get("label", "") for n in nodes],
        data["tolerance"], data["min_margin"], data["status"], tuple(data.get("notes", ())),
    )


def _report(
    check_name: str, bg: Background, scenario_id: str, t, margin, labels: tuple[str, ...], tolerance: float,
    notes: tuple[str, ...] = (),
) -> VerificationReport:
    """An applicable report from node columns; ``t`` and ``margin`` are anything ``np.array`` reads as floats."""
    margin = np.asarray(margin, dtype=float).reshape(-1)
    # the first minimum, as Python's min picks it: np.min may return -0.0 for [0.0, -0.0]
    min_margin = float(margin[np.argmin(margin)])
    status = PASS if min_margin >= -tolerance else FAIL
    label = bg.label()
    return VerificationReport(check_name, label, scenario_id, t, margin, labels, tolerance, min_margin, status, notes)


def _inapplicable(check_name: str, bg: Background, scenario_id: str, reason: str, tolerance: float = 0.0):
    return VerificationReport(check_name, bg.label(), scenario_id, [], [], (), tolerance, None, INAPPLICABLE, (reason,))


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
    if label_prefixes is None:
        labels = tuple(lab for r in reports for lab in r.labels)
    else:
        labels = tuple(f"{prefix}:{lab}" for prefix, r in zip(label_prefixes, reports, strict=True) for lab in r.labels)
    if notes is None:
        notes = tuple(note for r in reports for note in r.notes)
    first = reports[0]
    return _report(
        first.check_name, bg, first.scenario_id,
        np.concatenate([r.t for r in reports]), np.concatenate([r.margin for r in reports]), labels,
        max(r.tolerance for r in reports), notes,
    )


_NO_FREQUENCY = "zero initial data: frequency undefined"


def _is_zero_run(trace: FrequencyTrace) -> bool:
    return bool(np.all(trace.I == 0.0))


def _check_trace(traj: Trajectory, trace: FrequencyTrace) -> None:
    """Refuse a trace without one row per grid node of ``traj``."""
    if len(trace.t) != len(traj.grid.nodes):
        raise ValueError(f"trace ({len(trace.t)} nodes) does not belong to this run ({len(traj.grid.nodes)} nodes)")


def _subsample(count: int, limit: int) -> np.ndarray:
    if count <= limit:
        return np.arange(count)
    return np.unique(np.round(np.linspace(0, count - 1, limit)).astype(int))


def _centered_slopes(values: np.ndarray, t: np.ndarray) -> np.ndarray:
    """Centered difference quotients at the interior nodes."""
    return (values[2:] - values[:-2]) / (t[2:] - t[:-2])


# ---------------------------------------------------------------------------
# frequency monotonicity and its equality case


def verify_frequency_monotonicity(
    traj: Trajectory,
    trace: FrequencyTrace,
    *,
    tolerance: float | None = None,
    scenario_id: str = "",
) -> VerificationReport:
    """Check that the weighted frequency is nondecreasing along the run.

    Margins come in two families: consecutive-node increments
    ``U(t_{i+1}) - U(t_i)`` and centered difference quotients at interior
    nodes (the differential form of the statement, compared against zero).
    The statement is about pure heat runs, with the trace's kappa at least
    the background's own value.  ``tolerance`` defaults to
    ``1e-9 * max(1, sup |U|)``.
    """
    bg = traj.background
    _check_trace(traj, trace)
    if _is_zero_run(trace):
        return _inapplicable("frequency_monotonicity", bg, scenario_id, _NO_FREQUENCY)
    t = trace.t
    u = trace.U
    scale = max(1.0, float(np.max(np.abs(u))))
    tol = tolerance if tolerance is not None else 1e-9 * scale
    labels = ("increment",) * (len(t) - 1) + ("centered-slope",) * (len(t) - 2)
    margin = np.concatenate([np.diff(u), _centered_slopes(u, t)])
    return _report("frequency_monotonicity", bg, scenario_id, np.concatenate([t[1:], t[1:-1]]), margin, labels, tol)


def verify_equality_case(
    traj: Trajectory,
    trace: FrequencyTrace,
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
    _check_trace(traj, trace)
    k = trace.kappa_used
    if _is_zero_run(trace):
        return _inapplicable("equality_case", bg, scenario_id, _NO_FREQUENCY)
    u = trace.U
    trigger = tolerance * max(1.0, float(np.max(np.abs(u))))
    # a nan difference counts as flat, so its nan margins are rejected instead of skipped
    flat = np.flatnonzero(~(np.abs(np.diff(u)) >= trigger))
    if not len(flat):
        return _report(
            "equality_case", bg, scenario_id, [trace.t[-1]], [0.0], ("no pair met the flatness trigger",), 0.0,
            notes=("vacuous: frequency never flat within the trigger, so the implication holds trivially",),
        )
    # both endpoints of every flat pair, in pair order; two margins per endpoint
    j = np.column_stack([flat, flat + 1]).reshape(-1)
    tj, ij, uj = trace.t[j], trace.I[j], u[j]
    defect_margin = tolerance * float_powers(ij.tolist(), [2.0])[:, 0] - trace.cs_defect[j]
    c_fit = trace.D[j] / (2.0 * ij)
    c_ref = uj / (2.0 * float_powers((-tj).tolist(), [1.0 + 2.0 * k])[:, 0])
    c_margin = tolerance * np.maximum(1.0, np.abs(c_ref)) - np.abs(c_fit - c_ref)
    margin = np.column_stack([defect_margin, c_margin]).reshape(-1)
    labels = ("defect-bound", "eigenvalue-fit") * len(j)
    return _report("equality_case", bg, scenario_id, np.repeat(tj, 2), margin, labels, 0.0)


# ---------------------------------------------------------------------------
# Harnack bounds for the mass I


def _harnack_endpoints(trace: FrequencyTrace) -> tuple[float, float, float, float, float]:
    return float(trace.t[0]), float(trace.t[-1]), float(trace.I[0]), float(trace.I[-1]), float(trace.U[0])


def _harnack_bound(ta: float, tb: float, ua: float, k: float) -> float:
    """Closed-form right side of the unforced two-time bound on log I(b) - log I(a)."""
    if k > 0.0:
        return (1.0 / (2.0 * k)) * ((-tb) ** (-2.0 * k) - (-ta) ** (-2.0 * k)) * ua
    return -ua * math.log(tb / ta)  # (-tb)/(-ta), both negative


def _degenerate_harnack(check_name: str, bg: Background, scenario_id: str, tb: float, tolerance: float, note: str):
    return _report(check_name, bg, scenario_id, [tb], [0.0], ("degenerate",), tolerance, notes=(note,))


_ZERO_DATA_NOTE = "zero data: both sides vanish and the bound degenerates to 0 >= 0"


def verify_harnack(
    traj: Trajectory,
    trace: FrequencyTrace,
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
    _check_trace(traj, trace)
    k = trace.kappa_used
    if _is_zero_run(trace):
        return _degenerate_harnack("harnack", bg, scenario_id, traj.grid.b, tolerance, _ZERO_DATA_NOTE)
    ta, tb, ia, ib, ua = _harnack_endpoints(trace)
    dlog = math.log(ib) - math.log(ia)
    margin = dlog - _harnack_bound(ta, tb, ua, k)
    if k > 0.0:
        return _report("harnack", bg, scenario_id, [tb], [margin], ("log-bound",), tolerance)
    notes = (f"printed-variant margin at the same endpoints: {dlog + ua - math.log(tb / ta):.17g}",)
    return _report("harnack", bg, scenario_id, [tb], [margin], ("log-bound-derivation",), tolerance, notes=notes)


def verify_harnack_printed(
    traj: Trajectory,
    trace: FrequencyTrace,
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
    _check_trace(traj, trace)
    if trace.kappa_used > 0.0:
        reason = "printed and derived forms coincide for positive curvature weight"
        return _inapplicable("harnack_printed", bg, scenario_id, reason, tolerance)
    if _is_zero_run(trace):
        return _degenerate_harnack("harnack_printed", bg, scenario_id, traj.grid.b, tolerance, _ZERO_DATA_NOTE)
    ta, tb, ia, ib, ua = _harnack_endpoints(trace)
    margin = (math.log(ib) - math.log(ia)) + ua - math.log(tb / ta)
    return _report("harnack_printed", bg, scenario_id, [tb], [margin], ("log-bound-printed",), tolerance)


# ---------------------------------------------------------------------------
# weighted monotonicity for ambient test functions


def _graded_moments(poly: AmbientPolynomial, pts: np.ndarray, weights: np.ndarray) -> dict[int, float]:
    """``{k: weights . poly_k(pts)}`` over the nonzero degree-k homogeneous parts ``poly_k`` of ``poly``."""
    parts: dict[int, dict[tuple[int, ...], float]] = {}
    for exps, c in poly.terms.items():
        parts.setdefault(sum(exps), {})[exps] = c
    return {k: float(np.dot(weights, AmbientPolynomial(poly.dim, terms).eval(pts))) for k, terms in parts.items()}


def _graded_sum(moments: dict[int, float], scales: np.ndarray) -> np.ndarray:
    """``sum_k moments[k] * scales**k`` at every scale, added in ascending degree."""
    degrees = sorted(moments)
    powers = float_powers(scales.tolist(), degrees)
    out = np.zeros(len(scales))
    for j, k in enumerate(degrees):
        out = out + moments[k] * powers[:, j]
    return out


def standard_test_functions(bg: Background) -> dict[str, AmbientPolynomial]:
    """Packaged polynomial test functions for the weighted-derivative check.

    Chosen so the two sides exercise genuinely different code paths: pure
    coordinate squares (closed-form oracles), a mixed quartic where the
    projector matters, and scaled sixth powers, the only ones whose weighted
    integral has a nonzero third time derivative.  Centered differences miss
    their slope by h^2 g'''/6: about 1.1e-8 on plane(1) at spacing 6.25e-4,
    and the documented 1.83e-7 at spacing 2.5e-3, above the default 1e-7
    tolerance although the identity holds.
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
    test_function: AmbientPolynomial,
    grid: TimeGrid,
    rule: QuadratureRule,
    *,
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

    Both sides are polynomials in s = sqrt(-t): under x = s y the degree-k
    part of f scales by s^k.  So each integral is taken once per degree on
    the unit-scale rule, as the moments G_k = integral f_k dmu and
    R_k = sum_ab integral P_ab (d_a d_b f)_k dmu, and at every node
    g = sum_k G_k s^k and the right side is -sum_k R_k s^k.
    """
    bg = rule.background
    if len(grid.nodes) < 3:
        raise ValueError("centered differences need a grid with at least 3 nodes")
    if test_function.dim != bg.ambient_dim:
        raise ValueError(f"test function has dim {test_function.dim}, background needs {bg.ambient_dim}")
    pts, w = rule.points, rule.weights
    g_moments = _graded_moments(test_function, pts, w)
    r_moments: dict[int, float] = {}
    hess = test_function.hessian()
    for a in range(bg.ambient_dim):
        for b in range(bg.ambient_dim):
            for k, moment in _graded_moments(hess[a][b], pts, w * rule.tangent_projector[:, a, b]).items():
                r_moments[k] = r_moments.get(k, 0.0) + moment

    t = grid.as_array()
    scales = np.sqrt(-t)
    g = _graded_sum(g_moments, scales)
    rhs = -_graded_sum(r_moments, scales)
    margin = -np.abs(_centered_slopes(g, t) - rhs[1:-1])
    notes = (f"test function: {function_name or 'unnamed'}",)
    labels = ("residual",) * len(margin)
    return _report("weighted_monotonicity", bg, scenario_id, t[1:-1], margin, labels, tolerance, notes=notes)


# ---------------------------------------------------------------------------
# integral curvature identity for the drift operator


def _bochner_sides(f: CoefficientField, rule: QuadratureRule) -> tuple[float, float, float, float]:
    """Both sides of the integral identity at the field's own time.

    Returns (lhs, rhs_verbatim, pairing, grad_energy) where lhs is the
    integral of |Hess u|^2 + Ric(grad u, grad u), rhs_verbatim is the right
    side without the curvature pairing term, pairing is the integral of
    <H, A(grad u, grad u)> (so the corrected right side is
    rhs_verbatim + pairing), and grad_energy = integral |grad u|^2 dmu at the
    field's time scale.
    """
    rule.require_background(f.background)
    w = rule.weights
    gbar = combine_on_rule(rule, f.modes, f.amplitudes, "gradients")
    hbar = combine_on_rule(rule, f.modes, f.amplitudes, "hessians")
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
    pairing = float(w @ shape_q) * factor
    grad_energy = float(w @ grad2) * factor * (-f.time)
    return lhs, rhs_verbatim, pairing, grad_energy


def verify_drift_bochner(
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
    recovering the classical closed-manifold identity; on cylinders it is
    the gradient energy along the sphere factor only, over 2(-t).  The
    verbatim variant without the term is checked separately in
    ``verify_drift_bochner_verbatim``; its residual is recorded here as a
    note for side-by-side comparison.
    """
    bg = f.background
    lhs, rhs_a, pairing, grad_energy = _bochner_sides(f, rule)
    margin = -abs(lhs - (rhs_a + pairing))
    notes = (
        f"verbatim-variant residual at the same field: {lhs - rhs_a:.17g}",
        f"gradient energy at this time: {grad_energy:.17g}",
    )
    return _report("drift_bochner", bg, scenario_id, [f.time], [margin], ("integral-identity",), tolerance, notes)


def verify_drift_bochner_verbatim(
    f: CoefficientField,
    rule: QuadratureRule,
    *,
    tolerance: float = 1e-8,
    scenario_id: str = "",
) -> VerificationReport:
    """Check the verbatim variant of the curvature identity (no pairing term).

    The residual equals the pairing integral int <H, A(grad u, grad u)> that
    this variant leaves out, which is exactly the documented discrepancy: 0
    on planes, ``(1/(2(-t))) * integral |grad u|^2 dmu`` on spheres, and only
    the sphere-factor part of that gradient energy on cylinders.  The note
    carries that pairing integral so reports are self-explanatory.
    Scenarios list this check as report-only.
    """
    bg = f.background
    lhs, rhs_a, pairing, _ = _bochner_sides(f, rule)
    margin = -abs(lhs - rhs_a)
    notes = (f"expected residual from the missing pairing term: {pairing:.17g}",)
    label = ("integral-identity-verbatim",)
    return _report("drift_bochner_verbatim", bg, scenario_id, [f.time], [margin], label, tolerance, notes=notes)


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


def _forcing_hypothesis(traj: Trajectory, rule: QuadratureRule | None) -> tuple[bool, tuple[str, ...]]:
    """Certify |f| <= C(t)(|grad u| + |u|) on the nodes of ``rule`` at sampled grid times.

    Returns whether it holds and the note saying so, or naming the first time
    it fails.  A run without forcing holds with no note; only it may pass no rule.
    """
    if rule is not None:
        rule.require_background(traj.background)
    if traj.forcing is None:
        return True, ()
    if rule is None:
        raise ValueError("a forced run needs a quadrature rule to certify its forcing hypothesis")
    sample = _subsample(len(traj.grid.nodes), _HYPOTHESIS_SAMPLES)
    for idx in sample:
        fld = traj.field_at(int(idx))
        m = forcing_bound_margin(fld, traj.forcing, rule)
        if m < -1e-12:
            return False, (f"forcing hypothesis fails at t={fld.time:.17g} (pointwise margin {m:.6e})",)
    return True, (f"forcing hypothesis certified at {len(sample)} sampled nodes",)


def verify_general_bounds(
    traj: Trajectory,
    trace: FrequencyTrace,
    rule: QuadratureRule | None = None,
    *,
    tolerance: float | None = None,
    scenario_id: str = "",
) -> VerificationReport:
    """Check both differential bounds for forced runs at interior nodes.

    The two margins per node are

        (log I)'(t) - [(1 + C/2) (-t)^(-1-2 kappa) U(t) - 3 C(t)]
        U'(t) - C(t)^2 (U(t) - 2 (-t)^(1+2 kappa))

    with derivatives by centered differences.  Before any margin is trusted,
    the forcing hypothesis |f| <= C(t)(|grad u| + |u|) is certified pointwise
    on the nodes of ``rule`` at a subsample of times; if certification fails
    the report is inapplicable and names the offending time, because the
    bounds assume the hypothesis and say nothing without it.  ``rule`` may be
    None only for an unforced run.

    The tolerance folds in a discretization allowance estimated from third
    differences of the same data; raw margins are reported unmodified.
    """
    bg = traj.background
    _check_trace(traj, trace)
    k = trace.kappa_used
    holds, notes = _forcing_hypothesis(traj, rule)
    if _is_zero_run(trace):
        return _inapplicable("general_bounds", bg, scenario_id, _NO_FREQUENCY)
    if not holds:
        return _inapplicable("general_bounds", bg, scenario_id, notes[0])

    t = trace.t
    u = trace.U
    log_i = np.log(trace.I)
    ti, ui = t[1:-1], u[1:-1]
    c = traj.forcing.rate.values_at(ti) if traj.forcing is not None else np.zeros(len(ti))
    powers = float_powers((-ti).tolist(), [-1.0 - 2.0 * k, 1.0 + 2.0 * k])
    bound_i = (1.0 + c / 2.0) * powers[:, 0] * ui - 3.0 * c
    bound_u = float_powers(c.tolist(), [2.0])[:, 0] * (ui - 2.0 * powers[:, 1])
    # two margins per interior node, mass growth first
    margin = np.column_stack([_centered_slopes(log_i, t) - bound_i, _centered_slopes(u, t) - bound_u]).reshape(-1)

    allow = max(_third_difference_allowance(log_i, t), _third_difference_allowance(u, t))
    base = tolerance if tolerance is not None else 1e-9 * max(1.0, float(np.max(np.abs(u))))
    notes = notes + (f"centered-difference allowance folded into tolerance: {allow:.6e}",)
    labels = ("mass-growth", "frequency-derivative") * len(ti)
    return _report("general_bounds", bg, scenario_id, np.repeat(ti, 2), margin, labels, base + allow, notes=notes)


def verify_general_harnack(
    traj: Trajectory,
    trace: FrequencyTrace,
    rule: QuadratureRule | None = None,
    *,
    tolerance: float = 1e-8,
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

    With C = 0 the right side is ``verify_harnack``'s closed form, so only
    what the forcing adds to it is integrated, with m = (-a)^(1+2k):

        (-t)^(-1-2k) [ (U(a) - 2m) expm1(G) + (C/2) ((U(a) - 2m) e^G + 2m) ] - 3C,

    by grid-doubling trapezoid sums until two successive refinements agree
    to ``_HARNACK_QUAD_TOL`` (relative).  That excess is exactly 0 without
    forcing, so the margin is then ``verify_harnack``'s bit for bit.  A
    quadrature that never converges makes the report inapplicable.  Zero
    data passes through the degenerate 0 >= 0 branch: that is the
    backward-uniqueness statement itself.  The bound assumes the forcing
    hypothesis, certified on ``rule`` as ``verify_general_bounds`` does.
    """
    bg = traj.background
    _check_trace(traj, trace)
    k = trace.kappa_used
    holds, notes = _forcing_hypothesis(traj, rule)
    if _is_zero_run(trace):
        return _degenerate_harnack(
            "general_harnack", bg, scenario_id, traj.grid.b, tolerance,
            "zero data: the bound degenerates to 0 >= 0 (vanishing at b forces vanishing throughout)",
        )
    if not holds:
        return _inapplicable("general_harnack", bg, scenario_id, notes[0], tolerance)
    ta, tb, ia, ib, ua = _harnack_endpoints(trace)
    rate = traj.forcing.rate if traj.forcing is not None else None
    ma = (-ta) ** (1.0 + 2.0 * k)

    def excess_on(count: int) -> float:
        ts = np.linspace(ta, tb, count)
        c = rate.values_at(ts) if rate is not None else np.zeros(count)
        g = np.concatenate([[0.0], np.cumsum(0.5 * (c[1:] ** 2 + c[:-1] ** 2) * np.diff(ts))])
        # the excess integrand, built in place: at 524,289 points every extra array costs 4 MiB of peak memory
        integrand = np.exp(g) * (ua - 2.0 * ma) + 2.0 * ma
        integrand *= c / 2.0
        integrand += (ua - 2.0 * ma) * np.expm1(g)
        integrand *= (-ts) ** (-1.0 - 2.0 * k)
        integrand -= 3.0 * c
        return float(_trapz(integrand, ts))

    count, excess, gap = 129, excess_on(129), math.inf
    while gap > _HARNACK_QUAD_TOL * max(1.0, abs(excess)):
        if count > (1 << 20) + 1:
            reason = f"quadrature of the bound did not converge: last refinement gap {gap:.3e} at {count} points"
            return _inapplicable("general_harnack", bg, scenario_id, reason, tolerance)
        count = 2 * (count - 1) + 1
        refined = excess_on(count)
        gap, excess = abs(refined - excess), refined
    margin = (math.log(ib) - math.log(ia)) - _harnack_bound(ta, tb, ua, k) - excess
    return _report("general_harnack", bg, scenario_id, [tb], [margin], ("log-bound-integrated",), tolerance, notes)


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
    mt = -t
    q = float_powers(mt.tolist(), [1.0 + 2.0 * k])[:, 0] * (first_nonzero_eigenvalue(bg) / mt)  # lambda1 = mu_1/(-t)
    labels = ("scaled-eigenvalue-drop",) * (len(t) - 1)
    return _report("eigenvalue_monotonicity", bg, scenario_id, t[1:], q[:-1] - q[1:], labels, tolerance)


def verify_selfsimilar_scaling(
    traj: Trajectory,
    rule: QuadratureRule,
    *,
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
    rule.require_background(bg)
    first = traj.amplitudes[0]
    if not first.any():
        return _inapplicable("selfsimilar_scaling", bg, scenario_id, "zero initial data: no frequency to scale by")
    amps = np.abs(first)
    active = [m for m, a in zip(traj.modes, amps) if a > 1e-13 * float(np.max(amps))]
    mus = sorted({m.mu for m in active})
    if len(mus) != 1:
        reason = f"multiple eigenvalues active ({mus}); frequency not constant"
        return _inapplicable("selfsimilar_scaling", bg, scenario_id, reason)
    mu = mus[0]
    t = traj.grid.as_array()
    at_minus_one = np.flatnonzero(np.abs(t + 1.0) < 1e-12)
    ref_idx = int(at_minus_one[0]) if len(at_minus_one) else 0
    t_ref = float(t[ref_idx])
    v_ref = combine_on_rule(rule, traj.modes, traj.amplitudes[ref_idx])
    scale = max(1.0, float(np.max(np.abs(v_ref))))
    tol = tolerance if tolerance is not None else 1e-10 * scale
    residuals = [
        np.max(np.abs(combine_on_rule(rule, traj.modes, row) - ((-ti) / (-t_ref)) ** mu * v_ref))
        for row, ti in zip(traj.amplitudes, t.tolist())
    ]
    notes = (f"single active eigenvalue mu={mu:.17g}; reference slice t={t_ref:.17g}",)
    return _report(
        "selfsimilar_scaling", bg, scenario_id, t, -np.array(residuals), ("sup-residual",) * len(t), tol, notes=notes
    )


def verify_quadrature_mass(
    rule: QuadratureRule,
    *,
    tolerance: float = 1e-12,
    scenario_id: str = "",
) -> VerificationReport:
    """Check the quadrature rule against the closed-form total mass."""
    bg = rule.background
    margin = -abs(rule.mass - total_mass(bg))
    scale = max(1.0, total_mass(bg))
    return _report("quadrature_mass", bg, scenario_id, [-1.0], [margin], ("mass",), tolerance * scale)
