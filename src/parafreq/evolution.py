"""Heat flow in exact spectral coordinates, plus forced perturbations.

Derivation fixing the coefficient law (this is the central design choice of
the package): write a solution as u(x, t) = v(y, t) with y = x / sqrt(-t).
Material points of the flow move with the normal velocity H; the homothety
x(t) = sqrt(-t) y0 moves with x / (2t), which differs from H = x_perp / (2t)
by the tangential vector x_tan / (2t).  Differentiating u along the homothety
therefore picks up a tangential transport term, and the heat equation
(d/dt - Delta_Mt) u = 0 becomes, at fixed y,

    dv/dt = Delta_Mt u - (1 / (2(-t))) <x_tan, grad u> = (1 / (-t)) L v,

where L = Delta_M - (1/2) <y_tan, grad .> is the unit-scale drift Laplacian.
The weighted measure is time-invariant in these coordinates (see the
backgrounds module), so expanding v in the orthonormal eigenbasis
L phi_j = -mu_j phi_j diagonalizes the flow exactly:

    a_j(t) = a_j(t0) * ((-t) / (-t0)) ** mu_j.

No time stepping, no spatial discretization error; amplitudes decay toward
t -> 0^- and the map is an exact two-sided semigroup, so backward evolution
is performed only through this closed form.  (Fields here are finite mode
sums, so the representation is definitional and no growth-class caveats about
non-uniqueness of backward heat flow arise.)

Forced runs solve a' = A(t) a, A = C(t) W - diag(mu/(-t)), with W = I for
f = C(t) u and a bounded constant matrix on a fixed mode list for f = C(t) W a;
both keep |f| <= C(t)(|grad u| + |u|) wherever the certified margin below is
nonnegative.  Off a ModeMatrix's modes A is diagonal, so each mode keeps the
closed form above, times exp(int_{t0}^t C) under f = C(t) u (a trapezoid over
the grid nodes and a sampled rate's kinks, exact on each linear piece): a
ScalarOnU run steps nothing.  A block solves tau a_tau = (diag mu - C tau W) a
in tau = -t, whose only singular point is tau = 0.  Between grid nodes and rate
kinks C is linear, and each step's transfer map is the Taylor series of that
system at the step's start, summed until a majorant of its tail is at most the
tolerance; steps are cut short enough that the majorant shrinks geometrically,
so a grid may end at any t < 0.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

from .backgrounds import Background, QuadratureRule
from .modes import Mode, combine_on_rule, mode_sort_key

_MAX_STEPS = 1 << 20  # Taylor steps one ModeMatrix block may take, counted before anything is built
# entries of one block: (rule points x ambient dim) x (grid rows) in forcing_margins, modes x (grid rows) in the
# trace, (steps) x m^2 in a ModeMatrix block's maps; a block bounds the temporaries
_BLOCK_ENTRIES = 1 << 15


@dataclass(frozen=True, eq=False)
class CoefficientField:
    """Spectral snapshot: amplitudes over modes of one background at one time t < 0.

    ``amplitudes`` is a read-only float array aligned with ``modes``, so a
    field is exactly one row of a ``Trajectory``.
    """

    background: Background
    time: float
    modes: tuple[Mode, ...]
    amplitudes: np.ndarray

    def __post_init__(self) -> None:
        if not (math.isfinite(self.time) and self.time < 0.0):
            raise ValueError(f"field time must be finite and negative, got {self.time!r}")
        if len(set(self.modes)) != len(self.modes):
            raise ValueError(f"duplicate mode in {[m.index for m in self.modes]!r}")
        amps = np.asarray(self.amplitudes, dtype=float).view()  # read-only without touching the caller's array
        if amps.shape != (len(self.modes),):
            raise ValueError(f"need one amplitude per mode ({len(self.modes)}), got shape {amps.shape}")
        finite = np.isfinite(amps)
        if not finite.all():
            raise ValueError(f"non-finite amplitude for mode {self.modes[int(np.argmin(finite))].index!r}")
        amps.setflags(write=False)
        object.__setattr__(self, "amplitudes", amps)

    @classmethod
    def from_dict(cls, background: Background, time: float, coeffs: Mapping[Mode, float]) -> "CoefficientField":
        modes = tuple(sorted(coeffs, key=mode_sort_key))
        return cls(background, float(time), modes, [float(coeffs[m]) for m in modes])


@dataclass(frozen=True)
class TimeGrid:
    """Strictly increasing nodes in (-inf, 0)."""

    nodes: tuple[float, ...]

    def __post_init__(self) -> None:
        if len(self.nodes) < 2:
            raise ValueError("time grid needs at least two nodes")
        for t in self.nodes:
            if not (math.isfinite(t) and t < 0.0):
                raise ValueError(f"grid node must be finite and negative, got {t!r}")
        for t0, t1 in zip(self.nodes, self.nodes[1:]):
            if not t1 > t0:
                raise ValueError("grid nodes must be strictly increasing")

    @classmethod
    def uniform(cls, a: float, b: float, count: int) -> "TimeGrid":
        if count < 2:
            raise ValueError("count must be >= 2")
        return cls(tuple(np.linspace(a, b, count).tolist()))

    @property
    def a(self) -> float:
        return self.nodes[0]

    @property
    def b(self) -> float:
        return self.nodes[-1]

    def as_array(self) -> np.ndarray:
        return np.array(self.nodes, dtype=float)


# ---------------------------------------------------------------------------
# forcing


@dataclass(frozen=True)
class ConstantRate:
    """C(t) = c0 >= 0."""

    c0: float

    def __post_init__(self) -> None:
        if not (math.isfinite(self.c0) and self.c0 >= 0.0):
            raise ValueError(f"rate must be finite and >= 0, got {self.c0!r}")

    def values_at(self, ts: np.ndarray) -> np.ndarray:
        """C at every time in ``ts``, as one array."""
        return np.full(len(ts), self.c0)


@dataclass(frozen=True)
class SampledRate:
    """Piecewise-linear C(t) from finitely many samples (held constant outside)."""

    times: tuple[float, ...]
    values: tuple[float, ...]

    def __post_init__(self) -> None:
        if len(self.times) != len(self.values) or len(self.times) < 2:
            raise ValueError("need matching times/values with at least two samples")
        for t0, t1 in zip(self.times, self.times[1:]):
            if not t1 > t0:
                raise ValueError("sample times must be strictly increasing")
        for v in self.values:
            if not (math.isfinite(v) and v >= 0.0):
                raise ValueError(f"rate samples must be finite and >= 0, got {v!r}")

    def values_at(self, ts: np.ndarray) -> np.ndarray:
        """C at every time in ``ts``, as one array, interpolated linearly between the samples."""
        return np.interp(ts, self.times, self.values)


Rate = ConstantRate | SampledRate


@dataclass(frozen=True)
class ScalarOnU:
    """Forcing proportional to the solution: f = C(t) u."""


@dataclass(frozen=True)
class ModeMatrix:
    """Forcing through a fixed bounded matrix on a mode list: f-coeffs = C(t) W a."""

    modes: tuple[Mode, ...]
    matrix: tuple[tuple[float, ...], ...]

    def __post_init__(self) -> None:
        k = len(self.modes)
        if len(self.matrix) != k or any(len(row) != k for row in self.matrix):
            raise ValueError(f"matrix must be {k}x{k} over the mode list")
        if len(set(self.modes)) != k:
            raise ValueError("duplicate modes in coupling list")
        for row in self.matrix:
            for w in row:
                if not math.isfinite(w):
                    raise ValueError("matrix values must be finite")

    def as_array(self) -> np.ndarray:
        return np.array(self.matrix, dtype=float)


@dataclass(frozen=True)
class Forcing:
    rate: Rate
    coupling: ScalarOnU | ModeMatrix


# ---------------------------------------------------------------------------
# trajectories


@dataclass(frozen=True, eq=False)
class Trajectory:
    """Amplitudes of one field on the nodes of a grid.

    ``amplitudes`` is a C-contiguous float array of shape (nodes, modes):
    row i holds the field at ``grid.nodes[i]``, columns follow ``modes``.
    A C-ordered float array is kept as given; any other is copied.
    """

    grid: TimeGrid
    background: Background
    modes: tuple[Mode, ...]
    amplitudes: np.ndarray
    forcing: Forcing | None = None

    def __post_init__(self) -> None:
        amps = np.ascontiguousarray(self.amplitudes, dtype=float)
        if amps.shape != (len(self.grid.nodes), len(self.modes)):
            raise ValueError(
                f"amplitudes must have shape (nodes, modes) = {(len(self.grid.nodes), len(self.modes))}, "
                f"got {amps.shape}"
            )
        if not np.all(np.isfinite(amps)):
            raise ValueError("non-finite amplitude in trajectory")
        object.__setattr__(self, "amplitudes", amps)


def float_powers(bases: Sequence[float], exponents: Sequence[float]) -> np.ndarray:
    """(len(bases), len(exponents)) array of ``base ** exponent``.

    The result is a transposed view, in F order: gather its columns with ``np.take(..., axis=1)``,
    which returns C order, where fancy indexing would keep F order.
    """
    # Python ** is libm pow; np.power can differ from it in the last ulp, which would change emitted bytes.
    # one list per exponent: a few long comprehensions, not one short one per base
    return np.array([[b**e for b in bases] for e in exponents], dtype=float).reshape(len(exponents), len(bases)).T


def evolve_exact_trajectory(field: CoefficientField, grid: TimeGrid) -> Trajectory:
    """The closed form a_j -> a_j * ((-t)/(-t0))**mu_j at every grid node, as one (nodes, modes) array."""
    modes = field.modes
    mus = sorted({m.mu for m in modes})
    column = {mu: j for j, mu in enumerate(mus)}
    powers = float_powers([(-t) / (-field.time) for t in grid.nodes], mus)
    amplitudes = np.take(powers, [column[m.mu] for m in modes], axis=1)
    amplitudes *= field.amplitudes  # in place: the one (nodes, modes) array, which Trajectory keeps
    return Trajectory(grid, field.background, modes, amplitudes)


# ---------------------------------------------------------------------------
# stepped (forced) evolution


def _amplitudes_on(field: CoefficientField | Trajectory, modes: Sequence[Mode]) -> np.ndarray:
    """The amplitude on each of ``modes`` of a field, or of every row of a trajectory; 0 where it has none."""
    position = {m: j for j, m in enumerate(field.modes)}
    out = np.zeros(field.amplitudes.shape[:-1] + (len(modes),))
    for i, m in enumerate(modes):
        if m in position:
            out[..., i] = field.amplitudes[..., position[m]]
    return out


def _taylor_maps(
    mus: np.ndarray, w: np.ndarray, tau: np.ndarray, h: np.ndarray, c: np.ndarray, s: np.ndarray, tol: float
) -> np.ndarray:
    """(steps, m, m): per step the map of tau a_tau = (diag mu - C tau W) a from ``tau`` to ``tau + h``.

    On the step C = c - s (tau' - tau), s = dC/dt.  The map is the sum of the Taylor terms B_0 = I and
    B_{j+1} = r/(j+1) [(diag mu - c tau W - j) B_j - (c - s tau) h W B_{j-1} + s h^2 W B_{j-2}], r = h/tau.
    The majorant e_j >= ||B_j||_inf takes the same recursion in norms, with g = ||diag mu - c tau W||_inf.
    Each later term is at most gamma = |r| max(1, (g + p + J)/(J + 1)) times the largest of the three before
    it, p = ||W||_inf (|(c - s tau) h| + |s| h^2), so once gamma < 1 the tail after term J is at most
    3 gamma max(e_J, e_{J-1}, e_{J-2}) / (1 - gamma); terms are added until that is at most ``tol`` on every step.
    """
    r, ct, alpha, beta = h / tau, c * tau, (c - s * tau) * h, s * h * h
    wn = np.abs(w).sum(axis=1).max()
    g = np.abs(np.diag(mus) - ct[:, None, None] * w).sum(axis=2).max(axis=1)
    lag1, lag2 = wn * np.abs(alpha), wn * np.abs(beta)  # the majorant's weights on e_{j-1} and e_{j-2}
    term = np.broadcast_to(np.eye(len(mus)), (len(tau), len(mus), len(mus)))
    phi, wb, e = term.copy(), [0.0, 0.0, w @ term], [0.0, 0.0, np.ones(len(tau))]  # W B and e at j - 2, j - 1, j
    r3, ct, alpha, beta = (x[:, None, None] for x in (r, ct, alpha, beta))
    j = 0
    while True:
        term = r3 / (j + 1) * ((mus[:, None] - j) * term - ct * wb[2] - alpha * wb[1] + beta * wb[0])
        phi += term
        e_next = np.abs(r) / (j + 1) * ((g + j) * e[2] + lag1 * e[1] + lag2 * e[0])
        wb, e, j = [wb[1], wb[2], w @ term], [e[1], e[2], e_next], j + 1
        gamma = np.abs(r) * np.maximum(1.0, (g + lag1 + lag2 + j) / (j + 1))
        if np.all((gamma < 1.0) & (3.0 * gamma * np.maximum(np.maximum(e[0], e[1]), e[2]) <= tol * (1.0 - gamma))):
            return phi


def evolve_forced(field: CoefficientField, grid: TimeGrid, forcing: Forcing, *, local_tol: float = 1e-8) -> Trajectory:
    """Trajectory of the forced system over the grid (forward only), from the field on its first node.

    ``local_tol`` bounds the tail of every Taylor step of a ModeMatrix block, the only modes stepped, in the
    max-row-sum norm of its map; a block that needs more than ``_MAX_STEPS`` steps is refused.
    """
    if field.time != grid.a:
        raise ValueError(f"field time {field.time!r} must equal grid start {grid.a!r}")
    if not (local_tol > 0.0 and math.isfinite(local_tol)):
        raise ValueError("local_tol must be positive")

    coupling, rate = forcing.coupling, forcing.rate
    block = getattr(coupling, "modes", ())  # coupled through W; W = I under ScalarOnU couples no two modes
    modes = tuple(sorted({*field.modes, *block}, key=mode_sort_key))
    m, free = len(block), tuple(x for x in modes if x not in block)  # free modes keep the closed form
    mus, w = np.array([x.mu for x in block]), np.array(getattr(coupling, "matrix", ())).reshape(m, m)

    nodes = grid.as_array()
    # a sampled rate's kinks cut the pieces, on which C is linear; a plain sort, as np.union1d would import numpy.ma
    on_grid = set(grid.nodes)
    kinks = [x for x in getattr(rate, "times", ()) if grid.a < x < grid.b and x not in on_grid]
    cuts = np.sort(np.concatenate([nodes, kinks]))
    at_nodes = np.searchsorted(cuts, nodes)
    start = CoefficientField(field.background, grid.a, free, _amplitudes_on(field, free))
    amps = np.empty((len(nodes), len(modes)))
    amps[:, [modes.index(x) for x in free]] = evolve_exact_trajectory(start, grid).amplitudes
    # a stiff rate overflows; Trajectory refuses what is not finite, the step budget what cannot be stepped
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        c = rate.values_at(cuts)
        if isinstance(coupling, ScalarOnU):
            integral = np.concatenate([[0.0], np.cumsum(0.5 * (c[1:] + c[:-1]) * np.diff(cuts))])
            amps *= np.exp(integral[at_nodes])[:, None]
        elif block:
            # each piece in steps of one ratio tau'/tau = 1 - rho with rho (max mu + tau C ||W|| + 1) <= 1/2, tau
            # and C their largest on the piece: every step then has |h| (max mu + tau c ||W|| + 1) / tau <= 1/2
            tau, c_max = -cuts, np.maximum(c[1:], c[:-1])
            rho = 0.5 / (mus.max() + 1.0 + tau[:-1] * c_max * np.abs(w).sum(axis=1).max())
            per_piece = np.maximum(1.0, np.ceil(np.log(tau[1:] / tau[:-1]) / np.log1p(-rho)))
            if not per_piece.sum() <= _MAX_STEPS:  # a NaN count too
                worst = int(np.argmax(per_piece))
                raise ValueError(
                    f"the ModeMatrix block needs {per_piece.sum():.4g} Taylor steps, above the budget of {_MAX_STEPS}; "
                    f"{per_piece[worst]:.4g} of them from t = {float(cuts[worst])!r} to {float(cuts[worst + 1])!r}"
                )
            counts = per_piece.astype(np.int64)
            piece, done = np.repeat(np.arange(len(counts)), counts), np.concatenate([[0], np.cumsum(counts)])
            place = np.arange(done[-1]) - done[:-1][piece]
            starts = tau[:-1][piece] * ((tau[1:] / tau[:-1]) ** (1.0 / per_piece))[piece] ** place
            h, slope = np.diff(np.append(starts, tau[-1])), (np.diff(c) / np.diff(cuts))[piece]
            c_start = rate.values_at(-starts)
            states, per_batch = np.empty((len(cuts), m)), max(1, _BLOCK_ENTRIES // (m * m))
            states[0] = state = _amplitudes_on(field, block)
            for lo in range(0, done[-1], per_batch):  # per_batch bounds the maps alive at once
                part = slice(lo, lo + per_batch)
                maps = _taylor_maps(mus, w, starts[part], h[part], c_start[part], slope[part], local_tol)
                run = [state]
                for phi in maps:
                    run.append(phi.dot(run[-1]))
                # the cuts this batch reaches: those whose step count lies in (lo, lo + len(maps)]
                state, (first, last) = run[-1], np.searchsorted(done, [lo + 1, lo + len(maps) + 1])
                states[first:last] = np.array(run)[done[first:last] - lo]
            amps[:, [modes.index(x) for x in block]] = states[at_nodes]
    return Trajectory(grid, field.background, modes, amps, forcing=forcing)


def forcing_margins(traj: Trajectory, rule: QuadratureRule) -> np.ndarray:
    """Certified pointwise margin min [ C(t)(|grad u| + |u|) - |f| ] over the rule's nodes, at every grid node.

    The run's forcing is a ``ModeMatrix``; a ``ScalarOnU`` one holds
    identically and needs no sampling.  Gradients are taken on the flowing
    surface at each node's time, so the unit-scale tangential gradient
    carries a 1/sqrt(-t) factor.  A nonnegative margin certifies the forcing
    hypothesis at that node.  Values, gradients and the image ``a W^T`` come
    from one ``combine_on_rule`` block per kind over the rows, in runs of at
    most ``_BLOCK_ENTRIES // rule.points.size`` rows; each row is combined
    and reduced on its own, so a margin is the same bit for bit in any run.
    """
    rule.require_background(traj.background)
    coupling, t = traj.forcing.coupling, traj.grid.as_array()
    c = traj.forcing.rate.values_at(t)
    # a stack of matrix-vector products, the same BLAS call as W @ a on one field
    f_coeffs = c[:, None] * (coupling.as_array() @ _amplitudes_on(traj, coupling.modes)[:, :, None])[:, :, 0]
    out, proj = np.empty(len(t)), rule.tangent_projector()
    rows = max(1, _BLOCK_ENTRIES // rule.points.size)
    for lo in range(0, len(t), rows):
        part, cs = slice(lo, lo + rows), c[lo : lo + rows, None]
        values = combine_on_rule(rule, traj.modes, traj.amplitudes[part])
        ambient_grads = combine_on_rule(rule, traj.modes, traj.amplitudes[part], "gradients")
        tangential = np.einsum("nij,rnj->rni", proj, ambient_grads)
        grad_norm = np.sqrt(np.sum(tangential**2, axis=2)) / np.sqrt(-t[part])[:, None]
        f_values = combine_on_rule(rule, coupling.modes, f_coeffs[part])
        out[part] = np.min(cs * (grad_norm + np.abs(values)) - np.abs(f_values), axis=1)
    return out
