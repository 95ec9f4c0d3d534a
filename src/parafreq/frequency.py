"""Weighted L^2 functionals and the parabolic frequency.

For a spectral field u = sum_j a_j(t) phi_j (modes orthonormal in the
time-invariant unit-scale measure):

    I(t) = int u^2 dmu_t            = sum a_j^2,
    D(t) = -2 int |grad u|^2 dmu_t  = 2 int u L_t u dmu_t
                                    = -(2 / (-t)) sum mu_j a_j^2 <= 0,
    N_raw(t) = (-t) D / I           = -2 * (weighted mean of mu),
    U(t)     = (-t)^(1 + 2 kappa) D / I = (-t)^(2 kappa) N_raw.

Both I and D also have an independent quadrature route (square resp.
projected-gradient square summed against the rule weights); the two routes
must agree and the test suite enforces that, so neither path may be deleted.

The Cauchy-Schwarz defect I * int (L u)^2 - (int u L u)^2 is the exact
eigenfunction residual: defect / I = int (L u - c u)^2 dmu at the fitted
c = D / (2 I), so it vanishes iff the field is a single eigenmode (all active
mu equal) and is strictly positive for genuine mixtures.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import evolution
from .backgrounds import QuadratureRule, kappa
from .evolution import CoefficientField, Trajectory, float_powers
from .modes import combine_on_rule


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
    return rule.integrate(values**2)


def compute_D_quadrature(field: CoefficientField, rule: QuadratureRule) -> float:
    """Independent route: -2 int |grad u|^2 dmu_t via projected ambient gradients."""
    rule.require_background(field.background)
    grads = combine_on_rule(rule, field.modes, field.amplitudes, "gradients")
    tangential = np.einsum("nij,nj->ni", rule.geometry().tangent_projector, grads)
    unit_scale = rule.integrate(np.sum(tangential**2, axis=1))
    return -2.0 * unit_scale / (-field.time)


# ---------------------------------------------------------------------------
# traces


@dataclass(frozen=True, eq=False)
class FrequencyTrace:
    """The functionals as columns, one entry per grid node."""

    kappa_used: float
    t: np.ndarray
    I: np.ndarray
    D: np.ndarray
    U: np.ndarray
    N_raw: np.ndarray
    cs_defect: np.ndarray


def trace_from_trajectory(traj: Trajectory, kappa_value: float | None = None) -> FrequencyTrace:
    """Tabulate the functionals along a trajectory as row reductions of its amplitudes.

    Each row equals what ``compute_I``, ``compute_D``, ``compute_N_raw``,
    ``compute_U`` and ``cauchy_schwarz_defect`` give on that node's snapshot.
    The sums run over blocks of at most ``evolution._BLOCK_ENTRIES // modes``
    rows, so the temporaries stay one block in size however long the run.
    Zero-field nodes keep I = D = cs_defect = 0 but carry U = N_raw = nan;
    verifiers treat such trajectories as inapplicable rather than failing.
    """
    k = kappa(traj.background) if kappa_value is None else float(kappa_value)
    t = traj.grid.as_array()
    mt = -t
    mus = np.array([m.mu for m in traj.modes], dtype=float)
    i_val, mu_sum, cross, c2_sum = (np.empty(len(t)) for _ in range(4))
    rows = max(1, evolution._BLOCK_ENTRIES // max(1, len(mus)))
    for lo in range(0, len(t), rows):  # each row sums alone, so the blocks change no bit
        part = slice(lo, lo + rows)
        sq = traj.amplitudes[part] ** 2
        c = -mus / mt[part, None]
        i_val[part] = np.sum(sq, axis=1)
        mu_sum[part] = np.sum(mus * sq, axis=1)
        cross[part] = np.sum(c * sq, axis=1)
        c2_sum[part] = np.sum(c**2 * sq, axis=1)
    d_val = -(2.0 / mt) * mu_sum
    cs = i_val * c2_sum - float_powers(cross.tolist(), [2.0])[:, 0]
    zero = i_val == 0.0
    with np.errstate(divide="ignore", invalid="ignore"):
        n_raw = np.where(zero, math.nan, mt * d_val / i_val)
    u_val = float_powers(mt.tolist(), [2.0 * k])[:, 0] * n_raw
    return FrequencyTrace(
        k, t, i_val, np.where(zero, 0.0, d_val), u_val, n_raw, np.where(zero, 0.0, cs)
    )
