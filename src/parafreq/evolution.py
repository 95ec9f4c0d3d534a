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
from typing import Iterator, Mapping, Sequence

import numpy as np

from .backgrounds import Background, QuadratureRule
from .modes import Mode, combine_on_rule, mode_sort_key

_MAX_STEPS = 1 << 20  # Taylor steps one ModeMatrix block may take, counted before anything is built
# entries of one block: (rule points x ambient dim) x (grid rows) in forcing_margins, modes x (grid rows) in
# Trajectory.blocks, which the trace and the checks read, (steps) x m^2 in a ModeMatrix block's maps; a block
# bounds the temporaries, 32 KiB of float64 each
_BLOCK_ENTRIES = 1 << 12


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
        object.__setattr__(self, "time", float(self.time))  # a Python float, so float_powers takes libm pow of it
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


@dataclass(frozen=True, eq=False)
class TimeGrid:
    """Strictly increasing nodes in (-inf, 0), held as one read-only float64 array ``nodes``."""

    nodes: np.ndarray

    def __post_init__(self) -> None:
        nodes = np.array(self.nodes, dtype=float)  # a copy, so freezing it leaves the caller's array writable
        if nodes.ndim != 1:
            raise ValueError(f"time grid nodes must be one-dimensional, got shape {nodes.shape}")
        if len(nodes) < 2:
            raise ValueError("time grid needs at least two nodes")
        bad = np.flatnonzero(~(np.isfinite(nodes) & (nodes < 0.0)))
        if len(bad):
            raise ValueError(f"grid node must be finite and negative, got {float(nodes[bad[0]])!r}")
        if not (np.diff(nodes) > 0.0).all():
            raise ValueError("grid nodes must be strictly increasing")
        nodes.setflags(write=False)
        object.__setattr__(self, "nodes", nodes)

    @classmethod
    def uniform(cls, a: float, b: float, count: int) -> "TimeGrid":
        return cls(np.linspace(a, b, count))

    @property
    def a(self) -> float:
        return float(self.nodes[0])

    @property
    def b(self) -> float:
        return float(self.nodes[-1])


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


def _rate_cuts(rate: Rate, nodes: np.ndarray) -> np.ndarray:
    """The increasing ``nodes`` with the rate's kinks strictly between their ends sorted in: C is linear between."""
    on_grid = set(nodes.tolist())
    kinks = [x for x in getattr(rate, "times", ()) if nodes[0] < x < nodes[-1] and x not in on_grid]
    return np.sort(np.concatenate([nodes, kinks]))  # a plain sort, as np.union1d would import numpy.ma


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


@dataclass(frozen=True)
class Forcing:
    rate: Rate
    coupling: ScalarOnU | ModeMatrix


# ---------------------------------------------------------------------------
# trajectories


@dataclass(frozen=True, eq=False)
class Trajectory:
    """Amplitudes of one field on the nodes of a grid, held factored as a power table, columns and a scale.

    Row i, the field at ``grid.nodes[i]``, entry i of the grid's one read-only
    array, is ``table[i, columns] * scale``: an unforced run's table is its
    (nodes, distinct mu) powers, ``columns`` picks each mode's mu and ``scale``
    holds the first node's amplitudes.  A forced run's table is its dense
    (nodes, modes) array, with the default identity ``columns`` and unit
    ``scale``, which multiplies exactly.  ``rows(part)`` builds one block of
    rows and ``blocks()`` walks the run in blocks.
    """

    grid: TimeGrid
    background: Background
    modes: tuple[Mode, ...]
    table: np.ndarray
    columns: np.ndarray | None = None
    scale: np.ndarray | None = None
    forcing: Forcing | None = None

    def __post_init__(self) -> None:
        k = len(self.modes)
        # views, so freezing them leaves the caller's arrays writable
        table = np.asarray(self.table, dtype=float).view()
        columns = np.asarray(range(k) if self.columns is None else self.columns, dtype=np.intp).view()
        scale = np.asarray(np.ones(k) if self.scale is None else self.scale, dtype=float).view()
        if table.ndim != 2 or len(table) != len(self.grid.nodes) or columns.shape != (k,) or scale.shape != (k,):
            raise ValueError(
                f"need a (nodes, columns) table with {len(self.grid.nodes)} rows and a column and a scale per mode "
                f"({k}), got shapes {table.shape}, {columns.shape} and {scale.shape}"
            )
        if k and not (0 <= columns.min() and columns.max() < table.shape[1]):
            raise ValueError(f"mode columns must index the table's {table.shape[1]} columns")
        # the largest |entry| of a mode is its column's largest |power| times |scale|, rounded: rounding is
        # monotone, so every entry is finite exactly when that product is
        with np.errstate(over="ignore", invalid="ignore"):
            largest = np.maximum(table.max(axis=0), -table.min(axis=0))[columns] * np.abs(scale)
        if not np.isfinite(largest).all():
            raise ValueError("non-finite amplitude in trajectory")
        for name, value in (("table", table), ("columns", columns), ("scale", scale)):
            value.setflags(write=False)
            object.__setattr__(self, name, value)

    def rows(self, part) -> np.ndarray:
        """A new C-ordered (rows, modes) array of the rows ``part`` (a slice or a list of indices) selects."""
        block = np.take(self.table[part], self.columns, axis=1)
        block *= self.scale
        return block

    def blocks(self, width: int | None = None) -> Iterator[tuple[slice, np.ndarray]]:
        """(part, rows(part)) over runs of at most ``_BLOCK_ENTRIES // width`` rows, ``width`` the mode count by
        default: a caller that reduces each row alone gets the same bits as from the whole array at once."""
        step = max(1, _BLOCK_ENTRIES // max(1, len(self.modes) if width is None else width))
        for lo in range(0, len(self.grid.nodes), step):
            part = slice(lo, lo + step)
            yield part, self.rows(part)


def float_powers(bases: Sequence[float], exponents: Sequence[float]) -> np.ndarray:
    """(len(bases), len(exponents)) array of ``base ** exponent``.

    One preallocated (exponents, bases) array is filled a row per exponent, and the result is its transposed
    view, in F order: gather its columns with ``np.take(..., axis=1)``, which returns C order, where fancy
    indexing would keep F order.
    """
    # Python ** is libm pow; np.power can differ from it in the last ulp, which would change emitted bytes.
    # one row per exponent: a few long comprehensions, not one short one per base
    out = np.empty((len(exponents), len(bases)))
    for row, e in zip(out, exponents):
        row[:] = [b**e for b in bases]
    return out.T


def evolve_exact_trajectory(field: CoefficientField, grid: TimeGrid) -> Trajectory:
    """The closed form a_j -> a_j * ((-t)/(-t0))**mu_j at every grid node, held factored.

    The trajectory keeps the (nodes, distinct mu) table of ((-t)/(-t0))**mu, each mode's column in it and the
    field's amplitudes as its scale, so no (nodes, modes) array exists until a block of rows is read.
    """
    mus = sorted({m.mu for m in field.modes})
    column = {mu: j for j, mu in enumerate(mus)}
    powers = float_powers([(-t) / (-field.time) for t in grid.nodes.tolist()], mus)
    columns = [column[m.mu] for m in field.modes]
    return Trajectory(grid, field.background, field.modes, powers, columns, field.amplitudes)


# ---------------------------------------------------------------------------
# stepped (forced) evolution


def _amplitudes_on(have: Sequence[Mode], amplitudes: np.ndarray, modes: Sequence[Mode]) -> np.ndarray:
    """The amplitude on each of ``modes`` of ``amplitudes`` over ``have``, a field's or a block of rows'; 0 where
    ``have`` has no such mode."""
    position = {m: j for j, m in enumerate(have)}
    out = np.zeros(amplitudes.shape[:-1] + (len(modes),))
    for i, m in enumerate(modes):
        if m in position:
            out[..., i] = amplitudes[..., position[m]]
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

    nodes = grid.nodes
    cuts = _rate_cuts(rate, nodes)  # the pieces, on each of which C is linear
    at_nodes = np.searchsorted(cuts, nodes)
    amps = np.empty((len(nodes), len(modes)))
    if free:  # a block that holds every mode leaves no closed form to evaluate
        start = CoefficientField(field.background, grid.a, free, _amplitudes_on(field.modes, field.amplitudes, free))
        amps[:, [modes.index(x) for x in free]] = evolve_exact_trajectory(start, grid).rows(slice(None))
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
            states[0] = state = _amplitudes_on(field.modes, field.amplitudes, block)
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
    return Trajectory(grid, field.background, modes, amps, forcing=forcing)  # dense: identity columns, unit scale


def forcing_margins(traj: Trajectory, rule: QuadratureRule) -> np.ndarray:
    """Certified pointwise margin min [ C(t)(|grad u| + |u|) - |f| ] over the rule's nodes, at every grid node.

    The run's forcing is a ``ModeMatrix``; a ``ScalarOnU`` one holds
    identically and needs no sampling.  Gradients are taken on the flowing
    surface at each node's time, so the unit-scale tangential gradient
    carries a 1/sqrt(-t) factor.  A nonnegative margin certifies the forcing
    hypothesis at that node.  Values, gradients and the image ``a W^T`` come
    from one ``combine_on_rule`` block per kind over the rows of one
    ``traj.blocks(rule.points.size)`` block; each row is combined and reduced
    on its own, so a margin is the same bit for bit in any run.
    """
    rule.require_background(traj.background)
    coupling, t = traj.forcing.coupling, traj.grid.nodes
    c, w = traj.forcing.rate.values_at(t), np.array(coupling.matrix)
    out, proj = np.empty(len(t)), rule.tangent_projector()
    for part, amps in traj.blocks(rule.points.size):
        cs = c[part, None]
        # a stack of matrix-vector products, the same BLAS call as W @ a on one field
        f_coeffs = cs * (w @ _amplitudes_on(traj.modes, amps, coupling.modes)[:, :, None])[:, :, 0]
        values = combine_on_rule(rule, traj.modes, amps)
        ambient_grads = combine_on_rule(rule, traj.modes, amps, "gradients")
        tangential = np.einsum("nij,rnj->rni", proj, ambient_grads)
        grad_norm = np.sqrt(np.sum(tangential**2, axis=2)) / np.sqrt(-t[part])[:, None]
        f_values = combine_on_rule(rule, coupling.modes, f_coeffs)
        out[part] = np.min(cs * (grad_norm + np.abs(values)) - np.abs(f_values), axis=1)
    return out
