"""Signed-margin checks for the monotonicity, Harnack, and eigenvalue claims.

Every verifier reduces one inequality or integral identity to margins at
nodes of the run's time grid, computed as whole-array column expressions,
and wraps them in a ``VerificationReport`` as one column per label: the
label, the grid indices of its nodes and its margins there.
Every verifier takes one ``Run``: a trajectory with the kappa of its
frequency trace and the resolution of its quadrature rule.  The run builds
its trace, rule and curvature-identity sides on first read and keeps them, so
the checks of one run share each and none rebuilds it.  Margin conventions:

* Inequality checks report the raw slack of the bound, so the statement
  holds at a node iff its margin is nonnegative (up to tolerance).
* Identity checks report ``-|residual|``, so the one pass rule (no margin
  below minus the tolerance) applies to both kinds.

Reports carry a three-state verdict, which ``VerificationReport`` derives
from its columns and tolerance; no verifier states it.  A report without
columns is ``inapplicable``, which is reserved for runs
the statement genuinely does not speak about (zero initial data, a
trajectory without a single active eigenvalue) or cannot decide (a
``general_harnack`` quadrature that does not converge); it is never a
euphemism for failure.

``verify_weighted_monotonicity`` differentiates its weighted integrals
exactly, as polynomials in sqrt(-t), and ``verify_frequency_monotonicity``
reads the increments of U, which are the statement itself on a grid.  Only
``verify_general_bounds`` takes centered differences, at interior grid
nodes; on a uniform grid their discretization error is h^2/6 times the
third derivative, which it estimates from third differences of the same
data and folds into its tolerance.  Raw margins are always reported
unmodified so callers can apply stricter budgets.

Two statements are checked in dual variants on purpose (see the module-level
notes in ``verify_harnack_printed`` and ``verify_drift_bochner_verbatim``):
where a printed bound disagrees with its own derivation, both forms are
computed and reported side by side, never silently merged.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, fields
from functools import cached_property
from typing import Mapping, NamedTuple

import numpy as np

from .backgrounds import Background, QuadratureRule, monomial_moments, quadrature, total_mass
from .evolution import Drift, Rate, ScalarOnU, Trajectory, _rate_cuts, float_powers
from .frequency import FrequencyTrace, Sides, bochner_sides, trace_from_trajectory
from .modes import first_nonzero_eigenvalue
from .polynomials import AmbientPolynomial

PASS = "pass"
FAIL = "fail"
INAPPLICABLE = "inapplicable"

_HARNACK_QUAD_TOL = 1e-10  # relative extrapolation gap below which general_harnack's quadrature stops
_HARNACK_START_INTERVALS = 128  # trapezoid intervals per smooth piece before the first doubling
_HARNACK_MAX_POINTS = (1 << 21) + 1  # quadrature points, over all pieces, at which an unconverged excess gives up


class Column(NamedTuple):
    """One label's margins at nodes of the run's time grid: their indices and margins as read-only arrays, in step."""

    label: str
    nodes: np.ndarray
    margin: np.ndarray


def _frozen(values, dtype) -> np.ndarray:
    column = np.array(values, dtype=dtype).ravel()
    column.setflags(write=False)
    return column


def _runs(nodes: np.ndarray) -> list[list[int]]:
    """The maximal ``[start, stop)`` runs of consecutive indices in ``nodes``, in order."""
    cuts = [0, *(np.flatnonzero(np.diff(nodes) != 1) + 1).tolist(), len(nodes)]
    return [[int(nodes[i]), int(nodes[j - 1]) + 1] for i, j in zip(cuts, cuts[1:]) if i < j]


@dataclass(frozen=True, eq=False)
class VerificationReport:
    """Outcome of one check on one scenario: only what the check computed, not the run's identity.

    The evaluated nodes are ``columns``, one ``Column`` per label, built from
    ``(label, nodes, margin)`` triples; every margin must be finite, and the
    columns, if any, must hold one.  The verdict is derived, never given:
    without columns the report is ``inapplicable`` with ``min_margin`` None;
    else ``min_margin`` is the first smallest margin in column order (-0.0 is
    not 0.0) and ``status`` is ``pass`` iff it is at least minus the tolerance.
    """

    check_name: str
    columns: tuple[Column, ...]
    tolerance: float
    notes: tuple[str, ...] = ()
    min_margin: float | None = field(init=False)
    status: str = field(init=False)

    def __post_init__(self) -> None:
        columns = tuple(Column(c[0], _frozen(c[1], np.int64), _frozen(c[2], float)) for c in self.columns)
        object.__setattr__(self, "columns", columns)
        if isinstance(self.notes, str) or not all(isinstance(note, str) for note in self.notes):
            raise TypeError(f"notes must be a sequence of strings, got {self.notes!r}")
        object.__setattr__(self, "notes", tuple(self.notes))
        if not isinstance(self.check_name, str):
            raise TypeError(f"check_name must be a string, got {self.check_name!r}")
        if not self.tolerance >= 0.0:
            raise ValueError(f"tolerance must be at least 0, got {self.tolerance!r}")
        for label, nodes, margin in columns:
            if not isinstance(label, str):
                raise TypeError(f"column label must be a string, got {label!r}")
            if len(nodes) != len(margin):
                raise ValueError(f"column {label!r} has {len(nodes)} nodes but {len(margin)} margins")
            if not np.isfinite(margin).all():
                i = int(np.argmin(np.isfinite(margin)))
                raise ValueError(f"non-finite margin {float(margin[i])!r} at node {int(nodes[i])} ({label})")
        margin = np.concatenate([np.empty(0), *(c.margin for c in columns)])
        if columns and not len(margin):
            raise ValueError("applicable report requires at least one node")
        # the first minimum, as Python's min picks it: np.min may return -0.0 for [0.0, -0.0]
        min_margin = float(margin[np.argmin(margin)]) if columns else None
        status = (PASS if min_margin >= -self.tolerance else FAIL) if columns else INAPPLICABLE
        object.__setattr__(self, "min_margin", min_margin)
        object.__setattr__(self, "status", status)

    @property
    def passed(self) -> bool:
        return self.status == PASS

    def to_dict(self) -> dict:
        """Every field by name, each column as ``{"label", "runs", "margin"}`` with the ``_runs`` of its nodes;
        margins stay the report's read-only arrays, which ``json.dumps(..., default=np.ndarray.tolist)`` encodes."""
        columns = [{"label": c.label, "runs": _runs(c.nodes), "margin": c.margin} for c in self.columns]
        return {**{f.name: getattr(self, f.name) for f in fields(self)}, "columns": columns}


def report_from_dict(data: dict) -> VerificationReport:
    """Inverse of ``VerificationReport.to_dict`` (exact float round-trip of every column); other keys are ignored.

    The report is built from its check name, columns, tolerance and notes, which the constructor validates, and
    the file's ``min_margin`` (bit for bit: -0.0 is not 0.0) and ``status`` must be the pair it derives from them.
    """
    columns = [
        (c["label"], np.concatenate([np.arange(0), *(np.arange(a, b) for a, b in c["runs"])]), c["margin"])
        for c in data["columns"]
    ]
    report = VerificationReport(data["check_name"], columns, data["tolerance"], data["notes"])
    m, status = data["min_margin"], data["status"]
    derived = report.min_margin
    same = m is None if derived is None else isinstance(m, float) and m.hex() == derived.hex()
    if not (same and status == report.status):
        raise ValueError(f"{report.check_name}: min_margin {m!r} and status {status!r} do not follow from its columns")
    return report


def _at_last_node(run: Run, label: str, margin: float) -> list[tuple]:
    """The one column of a check made at the last node of the run's grid."""
    return [(label, [len(run.traj.grid.nodes) - 1], [margin])]


_NO_FREQUENCY = "zero initial data: frequency undefined"


def _is_zero_run(trace: FrequencyTrace) -> bool:
    return bool(np.all(trace.I == 0.0))


@dataclass(frozen=True, eq=False)
class Run:
    """One evolved run and the data its checks read, each built on first read and then kept.

    ``kappa_value`` weights the frequency trace (the background's own value
    when None); ``resolution`` is that of the quadrature rule, which only
    ``quadrature_mass`` reads.
    """

    traj: Trajectory
    kappa_value: float | None = None
    resolution: int = 24

    def __post_init__(self) -> None:
        if not isinstance(self.traj, Trajectory):
            raise TypeError(f"a Run needs a Trajectory (every node of a run), got {type(self.traj).__name__}")

    @cached_property
    def trace(self) -> FrequencyTrace:
        return trace_from_trajectory(self.traj, self.kappa_value)

    @cached_property
    def rule(self) -> QuadratureRule:
        return quadrature(self.traj.background, self.resolution)

    @cached_property
    def sides(self) -> Sides:
        return bochner_sides(self.traj)


def _centered_slopes(values: np.ndarray, t: np.ndarray) -> np.ndarray:
    """Centered difference quotients at the interior nodes."""
    return (values[2:] - values[:-2]) / (t[2:] - t[:-2])


# ---------------------------------------------------------------------------
# frequency monotonicity and its equality case


def verify_frequency_monotonicity(run: Run, *, tolerance: float | None = None) -> VerificationReport:
    """Check that the weighted frequency is nondecreasing along the run.

    On a grid the statement is exactly that every increment
    ``U(t_{i+1}) - U(t_i)`` is nonnegative, so the margins are those
    increments, one ``increment`` column over nodes 1..n-1.  A slope by
    differences would be a positive combination of them, adding no
    information and dividing their rounding by the node spacing.  The
    statement is about pure heat runs, with the trace's kappa at least the
    background's own value.  ``tolerance`` defaults to
    ``1e-9 * max(1, sup |U|)``.
    """
    trace = run.trace
    if _is_zero_run(trace):
        return VerificationReport("frequency_monotonicity", (), 0.0, (_NO_FREQUENCY,))
    u = trace.U
    tol = tolerance if tolerance is not None else 1e-9 * max(1.0, float(np.max(np.abs(u))))
    return VerificationReport("frequency_monotonicity", [("increment", range(1, len(u)), np.diff(u))], tol)


def verify_equality_case(run: Run, *, tolerance: float = 1e-9) -> VerificationReport:
    """Certify the rigidity side: a flat frequency forces an eigenfunction.

    Wherever ``|U(t_{i+1}) - U(t_i)|`` falls below ``tolerance`` (scaled by
    ``sup |U|``), two assertions fire at both pair endpoints, each node
    checked once however many flat pairs it ends: the
    Cauchy-Schwarz defect is below ``tolerance * I^2``, and the fitted
    eigenvalue ``D / (2 I)`` agrees with ``U / (2 (-t)^(1+2 kappa))``.
    Margins embed the thresholds (``threshold - observed``), so the report
    tolerance is zero.  If no pair triggers, the implication holds vacuously
    and a single zero-margin node records that.

    The trigger compares a finite difference, so extremely fine grids can
    fire it on slowly drifting mixtures; keep node spacing above ~1e-3 when
    mixtures are in play.
    """
    trace = run.trace
    k = trace.kappa_used
    if _is_zero_run(trace):
        return VerificationReport("equality_case", (), 0.0, (_NO_FREQUENCY,))
    u = trace.U
    trigger = tolerance * max(1.0, float(np.max(np.abs(u))))
    # a nan difference counts as flat, so its nan margins are rejected instead of skipped
    flat = ~(np.abs(np.diff(u)) >= trigger)
    if not flat.any():
        return VerificationReport(
            "equality_case", _at_last_node(run, "no pair met the flatness trigger", 0.0), 0.0,
            ("vacuous: frequency never flat within the trigger, so the implication holds trivially",),
        )
    # every endpoint of a flat pair once, in node order: node i ends pair i - 1 or starts pair i
    j = np.flatnonzero(np.append(False, flat) | np.append(flat, False))
    tj, ij, uj = trace.t[j], trace.I[j], u[j]
    defect_margin = tolerance * float_powers(ij.tolist(), [2.0])[:, 0] - trace.cs_defect[j]
    c_fit = trace.D[j] / (2.0 * ij)
    c_ref = uj / (2.0 * float_powers((-tj).tolist(), [1.0 + 2.0 * k])[:, 0])
    c_margin = tolerance * np.maximum(1.0, np.abs(c_ref)) - np.abs(c_fit - c_ref)
    columns = [("defect-bound", j, defect_margin), ("eigenvalue-fit", j, c_margin)]
    return VerificationReport("equality_case", columns, 0.0)


# ---------------------------------------------------------------------------
# Harnack bounds for the mass I


def _harnack_endpoints(trace: FrequencyTrace) -> tuple[float, float, float, float, float]:
    return float(trace.t[0]), float(trace.t[-1]), float(trace.I[0]), float(trace.I[-1]), float(trace.U[0])


def _harnack_bound(ta: float, tb: float, ua: float, k: float) -> float:
    """Closed-form right side of the unforced two-time bound on log I(b) - log I(a)."""
    if k > 0.0:
        return (1.0 / (2.0 * k)) * ((-tb) ** (-2.0 * k) - (-ta) ** (-2.0 * k)) * ua
    return -ua * math.log(tb / ta)  # (-tb)/(-ta), both negative


def _printed_harnack_margin(ta: float, tb: float, ia: float, ib: float, ua: float) -> float:
    """Log-space slack of the printed zero-weight bound I(b) >= I(a) e^(-U(a)) (b/a)."""
    return (math.log(ib) - math.log(ia)) + ua - math.log(tb / ta)


def _degenerate_harnack(check_name: str, run: Run, tolerance: float, note: str):
    return VerificationReport(check_name, _at_last_node(run, "degenerate", 0.0), tolerance, (note,))


_ZERO_DATA_NOTE = "zero data: both sides vanish and the bound degenerates to 0 >= 0"


def verify_harnack(run: Run, *, tolerance: float = 1e-9) -> VerificationReport:
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
    trace = run.trace
    k = trace.kappa_used
    if _is_zero_run(trace):
        return _degenerate_harnack("harnack", run, tolerance, _ZERO_DATA_NOTE)
    ta, tb, ia, ib, ua = ends = _harnack_endpoints(trace)
    margin = (math.log(ib) - math.log(ia)) - _harnack_bound(ta, tb, ua, k)
    if k > 0.0:
        return VerificationReport("harnack", _at_last_node(run, "log-bound", margin), tolerance)
    notes = (f"printed-variant margin at the same endpoints: {_printed_harnack_margin(*ends):.17g}",)
    return VerificationReport("harnack", _at_last_node(run, "log-bound-derivation", margin), tolerance, notes)


def verify_harnack_printed(run: Run, *, tolerance: float = 1e-9) -> VerificationReport:
    """Check the printed zero-weight variant of the two-time bound.

    The printed display replaces the derived ``(b/a)^(-U(a))`` factor with
    ``e^(-U(a)) * (b/a)``, which does not match its own derivation and fails
    on single-eigenvalue runs.  It is kept as a separate check (scenarios
    mark it report-only) so the discrepancy stays visible instead of being
    silently corrected.  For positive weight the printed and derived forms
    coincide, so this check is inapplicable there.
    """
    trace = run.trace
    if trace.kappa_used > 0.0:
        reason = "printed and derived forms coincide for positive curvature weight"
        return VerificationReport("harnack_printed", (), tolerance, (reason,))
    if _is_zero_run(trace):
        return _degenerate_harnack("harnack_printed", run, tolerance, _ZERO_DATA_NOTE)
    margin = _printed_harnack_margin(*_harnack_endpoints(trace))
    return VerificationReport("harnack_printed", _at_last_node(run, "log-bound-printed", margin), tolerance)


# ---------------------------------------------------------------------------
# weighted monotonicity for ambient test functions


def _graded_integrals(bg: Background, parts: list[tuple[int, tuple[int, ...], float]]) -> dict[int, float]:
    """``{k: sum of c * integral y^beta dmu}`` over the ``(k, beta, c)`` in ``parts``, each degree by ``math.fsum``."""
    betas = np.array([beta for _, beta, _ in parts], dtype=np.int64).reshape(len(parts), bg.ambient_dim)
    moments = monomial_moments(bg, betas)
    sums: dict[int, list[float]] = {}
    for (k, _, c), moment in zip(parts, moments.tolist()):
        sums.setdefault(k, []).append(c * moment)
    return {k: math.fsum(terms) for k, terms in sums.items()}


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
    integral has a nonzero third time derivative, which a slope taken by
    differences of the integral would miss.
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
    if d >= 2:
        # radial square: constant on sphere slices, mixed elsewhere
        r2 = AmbientPolynomial.zero(d)
        for xi in x:
            r2 = r2 + xi * xi
        funcs["radius_sq"] = r2
    return funcs


def verify_weighted_monotonicity(
    run: Run, functions: Mapping[str, AmbientPolynomial] | None = None, *, tolerance: float = 1e-7
) -> VerificationReport:
    """Check the derivative law for weighted integrals of static functions.

    For an ambient polynomial f fixed in space, the weighted integral along
    the evolving background satisfies

        d/dt integral f dmu_t = - integral tr_P(Hess f) dmu_t,

    where tr_P contracts the ambient Hessian with the tangent projector (the
    drift term is exactly absorbed by the measure's self-similarity; the
    normal part of the position feeds the mean-curvature transport).  The
    margin at every node is ``-|residual|``.

    Both sides are polynomials in s = sqrt(-t): under x = s y the degree-k
    part of f scales by s^k.  So each integral is taken once per degree at
    unit scale, in closed form by ``monomial_moments``, as G_k = integral
    f_k dmu and R_k = integral tr_P (Hess f)_k dmu, where on a round factor
    of radius r tr_P H = sum_a H_aa - r^-2 sum_(a, b round) y_a y_b H_ab.
    With g = sum_k G_k s^k and ds/dt = -1/(2s), the left side is exactly
    g' = -(1/2) sum_k k G_k s^(k-2), and the right side is -sum_k R_k s^k,
    so the residual carries no discretization error and neither the grid
    spacing nor the quadrature resolution matters.

    ``functions`` maps names to test functions and defaults to
    ``standard_test_functions`` of the run's background.  One report covers
    them all, in name order, each as one column ``<name>:residual`` over
    every node.
    """
    bg = run.traj.background
    d, n = bg.ambient_dim, bg.sphere_n
    funcs = standard_test_functions(bg) if functions is None else functions
    names = sorted(funcs)
    round_axes = range(n + 1 if n else 0)
    scales = np.sqrt(-run.traj.grid.nodes)
    columns = []
    for name in names:
        f = funcs[name]
        if f.dim != d:
            raise ValueError(f"test function {name!r} has dim {f.dim}, background needs {d}")
        g_moments = _graded_integrals(bg, [(sum(e), e, c) for e, c in f.terms.items()])
        hess = f.hessian()
        parts = [(sum(e), e, c) for a in range(d) for e, c in hess[a][a].terms.items()] + [
            (sum(e), tuple(ei + (i == a) + (i == b) for i, ei in enumerate(e)), -c / bg.radius_squared)
            for a in round_axes for b in round_axes for e, c in hess[a][b].terms.items()
        ]
        slope = -0.5 * _graded_sum({k - 2: k * moment for k, moment in g_moments.items() if k}, scales)
        residual = slope + _graded_sum(_graded_integrals(bg, parts), scales)
        columns.append((f"{name}:residual", range(len(scales)), -np.abs(residual)))
    return VerificationReport("weighted_monotonicity", columns, tolerance, (f"test functions: {', '.join(names)}",))


# ---------------------------------------------------------------------------
# integral curvature identity for the drift operator


def verify_drift_bochner(run: Run, *, tolerance: float = 1e-8) -> VerificationReport:
    """Check the integral curvature identity for the drift operator at both ends of the run.

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

    The identity is static per field, so it is checked at the first and the
    last node, one margin and two notes each, from the run's ``sides``.
    """
    ends = run.sides
    margin = [-abs(lhs - (rhs_a + pairing)) for lhs, rhs_a, pairing, _ in ends]
    notes = tuple(
        note
        for lhs, rhs_a, _, grad_energy in ends
        for note in (
            f"verbatim-variant residual at the same field: {lhs - rhs_a:.17g}",
            f"gradient energy at this time: {grad_energy:.17g}",
        )
    )
    columns = [("integral-identity", [0, len(run.traj.grid.nodes) - 1], margin)]
    return VerificationReport("drift_bochner", columns, tolerance, notes)


def verify_drift_bochner_verbatim(run: Run, *, tolerance: float = 1e-8) -> VerificationReport:
    """Check the verbatim variant of the curvature identity (no pairing term) at both ends of the run.

    The residual equals the pairing integral int <H, A(grad u, grad u)> that
    this variant leaves out, which is exactly the documented discrepancy: 0
    on planes, ``(1/(2(-t))) * integral |grad u|^2 dmu`` on spheres, and only
    the sphere-factor part of that gradient energy on cylinders.  One note
    per end carries that pairing integral so reports are self-explanatory.
    It reads the run's ``sides``, as ``verify_drift_bochner`` does.
    Scenarios list this check as report-only.
    """
    ends = run.sides
    margin = [-abs(lhs - rhs_a) for lhs, rhs_a, _, _ in ends]
    notes = tuple(f"expected residual from the missing pairing term: {pairing:.17g}" for _, _, pairing, _ in ends)
    columns = [("integral-identity-verbatim", [0, len(run.traj.grid.nodes) - 1], margin)]
    return VerificationReport("drift_bochner_verbatim", columns, tolerance, notes)


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


# why each coupling meets the forcing hypothesis |f| <= C(t)(|grad u| + |u|), which the general bounds assume; the
# general checks of a forced run note it
_HYPOTHESIS_NOTES = {
    ScalarOnU: (
        "forcing hypothesis holds identically: for f = C u with C >= 0 the margin C(|grad u| + |u|) - |f| is "
        "C |grad u| >= 0 everywhere"
    ),
    Drift: (
        "forcing hypothesis holds identically: for f = C du/dx_1 with C >= 0 the margin C(|grad u| + |u|) - |f| is "
        "C(|grad u| - |du/dx_1| + |u|) >= 0 everywhere"
    ),
}


def _hypothesis_notes(traj: Trajectory) -> tuple[str, ...]:
    return () if traj.forcing is None else (_HYPOTHESIS_NOTES[type(traj.forcing.coupling)],)


def verify_general_bounds(run: Run, *, tolerance: float | None = None) -> VerificationReport:
    """Check both differential bounds for forced runs at interior nodes.

    The two margins per interior node, one column each, are

        (log I)'(t) - [(1 + C/2) (-t)^(-1-2 kappa) U(t) - 3 C(t)]
        U'(t) - C(t)^2 (U(t) - 2 (-t)^(1+2 kappa))

    with derivatives by centered differences.  Both couplings meet the forcing
    hypothesis |f| <= C(t)(|grad u| + |u|) identically, and a note on a forced
    run says why (see ``_HYPOTHESIS_NOTES``).

    The tolerance folds in a discretization allowance estimated from third
    differences of the same data; raw margins are reported unmodified.
    """
    trace, traj = run.trace, run.traj
    k = trace.kappa_used
    if _is_zero_run(trace):
        return VerificationReport("general_bounds", (), 0.0, (_NO_FREQUENCY,))
    notes = _hypothesis_notes(traj)

    t, u = trace.t, trace.U
    log_i = np.log(trace.I)
    ti, ui = t[1:-1], u[1:-1]
    c = traj.forcing.rate.values_at(ti) if traj.forcing is not None else np.zeros(len(ti))
    powers = float_powers((-ti).tolist(), [-1.0 - 2.0 * k, 1.0 + 2.0 * k])
    bound_i = (1.0 + c / 2.0) * powers[:, 0] * ui - 3.0 * c
    bound_u = float_powers(c.tolist(), [2.0])[:, 0] * (ui - 2.0 * powers[:, 1])
    interior = range(1, len(t) - 1)
    columns = [
        ("mass-growth", interior, _centered_slopes(log_i, t) - bound_i),
        ("frequency-derivative", interior, _centered_slopes(u, t) - bound_u),
    ]

    allow = max(_third_difference_allowance(log_i, t), _third_difference_allowance(u, t))
    base = tolerance if tolerance is not None else 1e-9 * max(1.0, float(np.max(np.abs(u))))
    notes = notes + (f"centered-difference allowance folded into tolerance: {allow:.6e}",)
    return VerificationReport("general_bounds", columns, base + allow, notes)


def _forcing_excess(rate: Rate, ta: float, tb: float, ua: float, k: float):
    """(excess, last gap, pieces, points per piece, level) of the forcing's part of the bound, by Romberg.

    [ta, tb] is cut at the rate's kinks and the pieces are refined together.  C is linear on a piece from
    p0, so G(t) = G(p0) + (t - p0)(C(p0)^2 + C(p0) C(t) + C(t)^2)/3 is exact and each level evaluates only
    its new midpoints.  The level is None when ``_HARNACK_MAX_POINTS`` stopped the refinement.
    """
    ma = (-ta) ** (1.0 + 2.0 * k)
    cuts = _rate_cuts(rate, np.array([ta, tb]))
    length, c = np.diff(cuts), rate.values_at(cuts)
    steps = length * (c[:-1] ** 2 + c[:-1] * c[1:] + c[1:] ** 2) / 3.0
    p0, c0, g0 = cuts[:-1, None], c[:-1, None], np.concatenate([[0.0], np.cumsum(steps[:-1])])[:, None]

    def integrand(fractions: np.ndarray) -> np.ndarray:
        ts = p0 + fractions * length[:, None]
        cs = rate.values_at(ts.ravel()).reshape(ts.shape)
        g = g0 + (ts - p0) * (c0**2 + c0 * cs + cs**2) / 3.0
        growth = (ua - 2.0 * ma) * np.expm1(g) + cs / 2.0 * ((ua - 2.0 * ma) * np.exp(g) + 2.0 * ma)
        return (-ts) ** (-1.0 - 2.0 * k) * growth - 3.0 * cs

    n = _HARNACK_START_INTERVALS
    first = integrand(np.linspace(0.0, 1.0, n + 1))
    rows = [(first.sum(axis=1) - 0.5 * (first[:, 0] + first[:, -1])) * length / n]
    while True:
        n *= 2
        row = [0.5 * rows[0] + integrand(np.arange(1, n, 2) / n).sum(axis=1) * length / n]
        for j, prev in enumerate(rows, start=1):
            row.append(row[-1] + (row[-1] - prev) / (4.0**j - 1.0))
        gap, excess, rows = float(np.sum(np.abs(row[-1] - rows[-1]))), float(np.sum(row[-1])), row
        converged = gap < _HARNACK_QUAD_TOL * max(1.0, abs(excess))  # strictly: a zero tolerance never converges
        if converged or len(length) * n + 1 >= _HARNACK_MAX_POINTS:
            return excess, gap, len(length), n + 1, len(rows) - 1 if converged else None


def verify_general_harnack(run: Run, *, tolerance: float = 1e-8) -> VerificationReport:
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

        (-t)^(-1-2k) [ (U(a) - 2m) expm1(G) + (C/2) ((U(a) - 2m) e^G + 2m) ] - 3C.

    [a, b] is cut at a sampled rate's kinks, and each smooth piece is
    integrated by Romberg extrapolation of doubling trapezoid sums until the
    extrapolated gap is strictly below ``_HARNACK_QUAD_TOL`` (relative).  The
    last gap is added to the tolerance, and a note records the level,
    pieces, points per piece and gap; a quadrature still unconverged at
    ``_HARNACK_MAX_POINTS`` makes the report inapplicable.  Without forcing
    nothing is integrated, so the margin is ``verify_harnack``'s bit for bit.
    Zero data passes through the degenerate 0 >= 0 branch: that is the
    backward-uniqueness statement itself.  The bound assumes the forcing
    hypothesis, which holds identically and is noted as in
    ``verify_general_bounds``.
    """
    trace, traj = run.trace, run.traj
    k = trace.kappa_used
    if _is_zero_run(trace):
        return _degenerate_harnack(
            "general_harnack", run, tolerance,
            "zero data: the bound degenerates to 0 >= 0 (vanishing at b forces vanishing throughout)",
        )
    notes = _hypothesis_notes(traj)
    ta, tb, ia, ib, ua = _harnack_endpoints(trace)
    excess, gap = 0.0, 0.0
    if traj.forcing is not None:
        excess, gap, pieces, points, level = _forcing_excess(traj.forcing.rate, ta, tb, ua, k)
        work = f"{pieces} smooth piece(s) of {points} points each, last gap {gap:.3e}"
        if level is None:
            reason = f"quadrature of the bound did not converge: {work}"
            return VerificationReport("general_harnack", (), tolerance, (reason,))
        notes += (f"forcing excess by Romberg extrapolation at level {level} on {work}, added to the tolerance",)
    margin = (math.log(ib) - math.log(ia)) - _harnack_bound(ta, tb, ua, k) - excess
    columns = _at_last_node(run, "log-bound-integrated", margin)
    return VerificationReport("general_harnack", columns, tolerance + gap, notes)


# ---------------------------------------------------------------------------
# eigenvalue monotonicity and self-similar rigidity


def verify_eigenvalue_monotonicity(run: Run, *, tolerance: float = 1e-12) -> VerificationReport:
    """Check that the weighted first eigenvalue never increases along the flow.

    The scaled quantity ``(-t)^(1+2 kappa) lambda_1(t)`` equals
    ``mu_1 (-t)^(2 kappa)`` on these backgrounds, so it is constant for the
    flat weighting and strictly falling for curved ones; margins are
    consecutive differences ``q(t_i) - q(t_{i+1}) >= 0``, with the kappa of
    the run's trace.
    """
    bg, k = run.traj.background, run.trace.kappa_used
    mt = -run.traj.grid.nodes
    q = float_powers(mt.tolist(), [1.0 + 2.0 * k])[:, 0] * (first_nonzero_eigenvalue(bg) / mt)  # lambda1 = mu_1/(-t)
    columns = [("scaled-eigenvalue-drop", range(1, len(q)), q[:-1] - q[1:])]
    return VerificationReport("eigenvalue_monotonicity", columns, tolerance)


def verify_selfsimilar_scaling(run: Run, *, tolerance: float | None = None) -> VerificationReport:
    """Check the self-similar form of constant-frequency runs, in the weighted L^2 norm.

    A run whose active modes share one eigenvalue mu satisfies

        u(x, t) = ((-t)/(-t_ref))^mu * u(x / sqrt(-t) * sqrt(-t_ref), t_ref).

    In self-similar coordinates both sides are sums over the same modes,
    which are orthonormal in the time-invariant unit-scale measure, so the
    residual u(t) - f u(t_ref), f = ((-t)/(-t_ref))^mu, has the exact
    weighted L^2 norm sqrt(sum_j (a_j(t) - f a_j(t_ref))^2) of its
    amplitudes, with no rule.  The margin per node is minus that norm, the
    sum numpy's pairwise one, and ``tolerance`` defaults to
    ``1e-10 * max(1, sqrt(I(t_ref)))``.  The reference slice is t = -1 when
    the grid contains it, else the left endpoint.  Trajectories mixing
    eigenvalues are inapplicable (their frequency is not constant and no
    such form exists).
    """
    traj = run.traj
    first = traj.rows([0])[0]
    if not first.any():
        return VerificationReport("selfsimilar_scaling", (), 0.0, ("zero initial data: no frequency to scale by",))
    amps = np.abs(first)
    active = [m for m, a in zip(traj.modes, amps) if a > 1e-13 * float(np.max(amps))]
    mus = sorted({m.mu for m in active})
    if len(mus) != 1:
        reason = f"multiple eigenvalues active ({mus}); frequency not constant"
        return VerificationReport("selfsimilar_scaling", (), 0.0, (reason,))
    mu = mus[0]
    t = traj.grid.nodes
    at_minus_one = np.flatnonzero(np.abs(t + 1.0) < 1e-12)
    ref_idx = int(at_minus_one[0]) if len(at_minus_one) else 0
    t_ref = float(t[ref_idx])
    factors = float_powers([(-ti) / (-t_ref) for ti in t.tolist()], [mu])
    ref, residuals = traj.rows([ref_idx]), np.empty(len(t))
    for part, block in traj.blocks():  # each row sums alone, so the blocks change no bit
        residuals[part] = np.sqrt(np.add.reduce((block - factors[part] * ref) ** 2, axis=1))
    tol = tolerance if tolerance is not None else 1e-10 * max(1.0, math.sqrt(run.trace.I[ref_idx]))
    notes = (f"single active eigenvalue mu={mu:.17g}; reference slice t={t_ref:.17g}",)
    return VerificationReport("selfsimilar_scaling", [("weighted-l2-residual", range(len(t)), -residuals)], tol, notes)


def verify_quadrature_mass(run: Run, *, tolerance: float = 1e-12) -> VerificationReport:
    """Check the run's quadrature rule against the closed-form total mass, reported at the first node."""
    rule = run.rule
    mass = total_mass(rule.background)
    margin = -abs(rule.mass - mass)
    scale = max(1.0, mass)
    return VerificationReport("quadrature_mass", [("mass", [0], [margin])], tolerance * scale)
