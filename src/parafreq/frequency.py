"""Weighted L^2 functionals and the parabolic frequency.

For a spectral field u = sum_j a_j(t) phi_j (modes orthonormal in the
time-invariant unit-scale measure):

    I(t) = int u^2 dmu_t            = sum a_j^2,
    D(t) = -2 int |grad u|^2 dmu_t  = 2 int u L_t u dmu_t
                                    = -(2 / (-t)) sum mu_j a_j^2 <= 0,
    N_raw(t) = (-t) D / I           = -2 * (weighted mean of mu),
    U(t)     = (-t)^(1 + 2 kappa) D / I = (-t)^(2 kappa) N_raw.

``trace_from_trajectory`` is the package's one route to these.  The tests hold
it to the per-snapshot formulas (bit for bit) and to quadrature routes for I
and D (to 1e-8 relative), both in ``tests/oracles.py``, where they stay.
The integrals of the curvature identity (``bochner_sides``) are closed-form
moment sums over the polynomial u and its derivatives, with no rule.

The Cauchy-Schwarz defect I * int (L u)^2 - (int u L u)^2 is the exact
eigenfunction residual: defect / I = int (L u - c u)^2 dmu at the fitted
c = D / (2 I), so it vanishes iff the field is a single eigenmode (all active
mu equal) and is strictly positive for genuine mixtures.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .backgrounds import Background, kappa, monomial_moments
from .evolution import Trajectory, float_powers
from .modes import mode_function
from .polynomials import AmbientPolynomial


Sides = tuple[tuple[float, float, float, float], ...]  # what bochner_sides returns


def _pair_integral(bg: Background, p: AmbientPolynomial, q: AmbientPolynomial) -> float:
    """integral p q dmu as numpy's pairwise sum, not a BLAS dot, of c_alpha c_beta M(alpha + beta) over every exponent
    pair, M the moment, so the product polynomial is never built and no BLAS thread count changes a bit."""
    d = bg.ambient_dim
    ep, eq = (np.array(list(x.terms), dtype=np.int64).reshape(-1, d) for x in (p, q))
    cp, cq = (np.array(list(x.terms.values()), dtype=float) for x in (p, q))
    moments = monomial_moments(bg, (ep[:, None, :] + eq[None, :, :]).reshape(-1, d))
    return float(np.add.reduce(np.multiply.outer(cp, cq).ravel() * moments))


def _end_sides(bg: Background, modes, amplitudes: np.ndarray, time: float) -> tuple[float, float, float, float]:
    """(lhs, rhs_verbatim, pairing, grad_energy) for the field of ``amplitudes`` at ``time``, see ``bochner_sides``.

    u = sum_j a_j phi_j is one polynomial.  At unit scale, with nu = y_round / r, D the identity on the round
    factor's coordinates, Q = D - nu nu^T, P = I - nu nu^T and H = Hess u: Hess_M u = P H P - (nu . grad u / r) Q,
    Ric = (k - 1)/r^2 Q and <H, A> = k/r^2 Q.  So with w = nu . grad u every integral is a sum of ``_pair_integral``s,
    |Hess_M u|^2 = |H|^2 - 2 |H nu|^2 + (nu^T H nu)^2 - (2/r) w (tr D H - nu^T H nu) + (k/r^2) w^2.
    """
    d, n = bg.ambient_dim, bg.sphere_n
    zero, round_axes = AmbientPolynomial.zero(d), range(n + 1 if n else 0)
    curv, shape = (1.0 / bg.radius if n else 0.0), kappa(bg)  # 1/r and k/r^2, both 0 on planes

    def sq(p: AmbientPolynomial) -> float:
        return _pair_integral(bg, p, p)

    u = sum((mode_function(bg, m).scale(float(a)) for m, a in zip(modes, amplitudes) if a), zero)
    x = [AmbientPolynomial.coordinate(d, a) for a in range(d)]
    g = u.gradient()
    h = [[g[a].diff(b) for b in range(d)] for a in range(d)]
    w = sum((x[a].scale(curv) * g[a] for a in round_axes), zero)  # nu . grad u
    v = [sum((x[b].scale(curv) * h[a][b] for b in round_axes), zero) for a in range(d)]  # H nu
    q = sum((x[a].scale(curv) * v[a] for a in round_axes), zero)  # nu^T H nu
    grad_sq, w_sq = [sq(ga) for ga in g], sq(w)
    round_grad = math.fsum(grad_sq[: len(round_axes)]) - w_sq  # integral Q(grad u, grad u)
    hess_m = math.fsum([
        *((1.0 if a == b else 2.0) * sq(h[a][b]) for a in range(d) for b in range(a, d)),
        *(-2.0 * sq(va) for va in v), sq(q), shape * w_sq,
        -2.0 * curv * _pair_integral(bg, w, sum((h[a][a] for a in round_axes), q.scale(-1.0))),
    ])
    # Lu = tr Hess_M u - y_flat . grad u / 2, and tr Hess_M u = tr H - nu^T H nu - (k/r) nu . grad u
    flat = sum((x[a] * g[a] for a in range(len(round_axes), d)), zero)
    lap = sum((h[a][a] for a in range(d)), q.scale(-1.0)) + w.scale(-n * curv) + flat.scale(-0.5)
    grad2 = math.fsum(grad_sq) - w_sq
    # every term carries the same (-t)^(-2) scaling from x = sqrt(-t) y
    factor = 1.0 / time**2
    lhs = hess_m + (shape - curv**2) * round_grad  # Ric = (k - 1)/r^2 Q
    return lhs * factor, (sq(lap) - 0.5 * grad2) * factor, shape * round_grad * factor, grad2 * factor * (-time)


def bochner_sides(traj: Trajectory) -> Sides:
    """Both sides of the integral identity at the first and the last node of the run, one tuple per end.

    Each tuple is (lhs, rhs_verbatim, pairing, grad_energy) at that time: lhs
    integrates |Hess u|^2 + Ric(grad u, grad u), rhs_verbatim is the right
    side without the pairing term, pairing integrates <H, A(grad u, grad u)>
    (the corrected right side is rhs_verbatim + pairing), and grad_energy is
    integral |grad u|^2 dmu at the field's time scale.  Every integrand is a
    polynomial, so each side is exact in closed form (``_end_sides``) and
    reads no quadrature rule.
    """
    if not isinstance(traj, Trajectory):
        raise TypeError(f"bochner_sides needs a Trajectory (both ends of a run), got {type(traj).__name__}")
    ends = zip((traj.grid.a, traj.grid.b), traj.rows([0, -1]))
    return tuple(_end_sides(traj.background, traj.modes, row, t) for t, row in ends)


# ---------------------------------------------------------------------------
# traces


@dataclass(frozen=True, eq=False)
class FrequencyTrace:
    """The functionals as columns, one entry per grid node; ``t`` is the grid's ``nodes``."""

    kappa_used: float
    t: np.ndarray
    I: np.ndarray
    D: np.ndarray
    U: np.ndarray
    N_raw: np.ndarray
    cs_defect: np.ndarray


def trace_from_trajectory(traj: Trajectory, kappa_value: float | None = None) -> FrequencyTrace:
    """Tabulate the functionals along a trajectory as row reductions of its amplitudes.

    Each row equals, bit for bit, what the per-snapshot oracles of
    ``tests/oracles.py`` give on that node's field.  The trace's ``t`` is the
    grid's read-only ``nodes`` array itself, not a copy.
    The sums run over ``traj.blocks()``, of at most
    ``evolution._BLOCK_ENTRIES // modes`` rows each, so no (nodes, modes)
    array is built and the temporaries stay one block in size however long
    the run.
    Zero-field nodes keep I = D = cs_defect = 0 but carry U = N_raw = nan;
    verifiers treat such trajectories as inapplicable rather than failing.
    """
    k = kappa(traj.background) if kappa_value is None else float(kappa_value)
    t = traj.grid.nodes
    mt = -t
    mus = np.array([m.mu for m in traj.modes], dtype=float)
    i_val, mu_sum, cross, c2_sum = (np.empty(len(t)) for _ in range(4))
    with np.errstate(all="ignore"):  # an overflowing amplitude leaves inf or nan, which the reports refuse
        for part, amps in traj.blocks():  # each row sums alone, so the blocks change no bit
            sq = amps**2
            c = -mus / mt[part, None]
            i_val[part] = np.sum(sq, axis=1)
            mu_sum[part] = np.sum(mus * sq, axis=1)
            cross[part] = np.sum(c * sq, axis=1)
            c2_sum[part] = np.sum(c**2 * sq, axis=1)
        d_val = -(2.0 / mt) * mu_sum
        cs = i_val * c2_sum - float_powers(cross.tolist(), [2.0])[:, 0]
        zero = i_val == 0.0
        n_raw = np.where(zero, math.nan, mt * d_val / i_val)
    u_val = float_powers(mt.tolist(), [2.0 * k])[:, 0] * n_raw
    return FrequencyTrace(
        k, t, i_val, np.where(zero, 0.0, d_val), u_val, n_raw, np.where(zero, 0.0, cs)
    )
