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
ScalarOnU run steps nothing.  A block steps by RK4; A does not depend on a, so
a step is the matrix Phi = I + h/6 (K1 + 2 K2 + 2 K3 + K4), K1 = A(t0),
K2 = A(t0 + h/2)(I + h/2 K1), K3 = A(t0 + h/2)(I + h/2 K2), K4 = A(t0 + h)(I + h K3).
The maps of the intervals between nodes and kinks are built in batches, applied
as a[i+1] = Phi_half[i] a[i], and scored at once by the block's step-doubling
error max|(Phi_full - Phi_half) a[i]| / (15 (1 + max|a[i+1]|)).  From the first
interval whose error is not at most the tolerance (a NaN never is) on,
intervals are redone one at a time, a failing one by its two halves' maps,
recursively.  Grids with a block end at or below t = -1e-3: A stiffens like mu / (-t).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

from .backgrounds import Background, QuadratureRule
from .modes import Mode, combine_on_rule, mode_sort_key

_MAX_HALVINGS = 30
_END_TIME_FLOOR = -1e-3  # latest end time of a grid with a ModeMatrix block
_MAP_BATCH = 1 << 14  # (block entries m * m per piece) x (pieces) built at once
# entries of one block: (rule points x ambient dim) x (grid rows) in forcing_margins, modes x (grid rows) in the
# trace, (rule points) x 2 ends x (ambient dim)^2 in the curvature-identity sides; a block bounds the temporaries
_BLOCK_ENTRIES = 1 << 15


class ToleranceNotMetError(RuntimeError):
    """Stepped integration could not meet the local tolerance on some interval."""


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

    def field_at(self, i: int) -> CoefficientField:
        """The field at grid node ``i``: row ``i`` of ``amplitudes``."""
        return CoefficientField(self.background, self.grid.nodes[i], self.modes, self.amplitudes[i])


def float_powers(bases: Sequence[float], exponents: Sequence[float]) -> np.ndarray:
    """(len(bases), len(exponents)) array of ``base ** exponent``.

    The result is a transposed view, in F order: gather its columns with ``np.take(..., axis=1)``,
    which returns C order, where fancy indexing would keep F order.
    """
    # Python ** is libm pow; np.power can differ from it in the last ulp, which would change emitted bytes.
    # one list per exponent: a few long comprehensions, not one short one per base
    return np.array([[b**e for b in bases] for e in exponents], dtype=float).reshape(len(exponents), len(bases)).T


def evolve_exact(field: CoefficientField, t_target: float) -> CoefficientField:
    """Closed-form evolution a_j -> a_j * ((-T)/(-t0))**mu_j; valid both directions."""
    if not (math.isfinite(t_target) and t_target < 0.0):
        raise ValueError(f"target time must be negative, got {t_target!r}")
    ratio = (-t_target) / (-field.time)
    amps = [a * ratio**m.mu for m, a in zip(field.modes, field.amplitudes.tolist())]
    return CoefficientField(field.background, float(t_target), field.modes, amps)


def evolve_exact_trajectory(field: CoefficientField, grid: TimeGrid) -> Trajectory:
    """``evolve_exact`` at every grid node, as one (nodes, modes) array."""
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


def _rk4_maps(a_at, one: np.ndarray, start: np.ndarray, end: np.ndarray) -> np.ndarray:
    """(intervals, 2, k, k): per [start, end] the product of the two RK4 half-step maps, and the full-step map minus it.

    ``a_at(ts)`` is A at every time in ``ts``, one (k, k) matrix each; ``one`` is the (k, k) identity.
    """
    n, h = len(start), end - start
    t0 = np.concatenate([start, start, start + 0.5 * h])  # full step, first half, second half
    h = np.concatenate([h, 0.5 * h, 0.5 * h])
    k1 = a_at(t0)
    hs = h[:, None, None]
    mid = a_at(t0 + 0.5 * h)
    k2 = mid @ (one + 0.5 * hs * k1)
    k3 = mid @ (one + 0.5 * hs * k2)
    phi = one + (hs / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + a_at(t0 + h) @ (one + hs * k3))
    halved = phi[2 * n :] @ phi[n : 2 * n]
    return np.stack([halved, phi[:n] - halved], axis=1)


def evolve_forced(field: CoefficientField, grid: TimeGrid, forcing: Forcing, *, local_tol: float = 1e-8) -> Trajectory:
    """Trajectory of the forced system over the grid (forward only), from the field on its first node.

    ``local_tol`` bounds the step-doubling error of a ModeMatrix block, the only modes stepped;
    a grid with a block that ends above ``_END_TIME_FLOOR`` is refused.
    """
    if field.time != grid.a:
        raise ValueError(f"field time {field.time!r} must equal grid start {grid.a!r}")
    if not (local_tol > 0.0 and math.isfinite(local_tol)):
        raise ValueError("local_tol must be positive")

    coupling, rate = forcing.coupling, forcing.rate
    block = getattr(coupling, "modes", ())  # coupled through W; W = I under ScalarOnU couples no two modes
    if block and grid.b > _END_TIME_FLOOR:
        raise ValueError(
            f"grid ends at t = {grid.b!r}, above the stepped-solver floor {_END_TIME_FLOOR!r}; use exact evolution"
        )
    modes = tuple(sorted({*field.modes, *block}, key=mode_sort_key))
    m, free = len(block), tuple(x for x in modes if x not in block)  # free modes keep the closed form
    mus, w, eye = np.array([x.mu for x in block]), np.array(getattr(coupling, "matrix", ())).reshape(m, m), np.eye(m)

    def block_a(ts: np.ndarray) -> np.ndarray:
        return rate.values_at(ts)[:, None, None] * w - (mus / (-ts)[:, None])[:, :, None] * eye

    def sweep(maps: np.ndarray, s: np.ndarray) -> np.ndarray:
        """Apply the pieces' halved maps in turn from s[0] into s[1:]; return each piece's step-doubling error."""
        for j in range(len(maps)):
            s[j + 1] = maps[j, 0] @ s[j]
        change = np.einsum("nij,nj->ni", maps[:, 1], s[:-1])
        return np.max(np.abs(change), axis=1) / (15.0 * (1.0 + np.max(np.abs(s[1:]), axis=1)))

    def advance(maps: np.ndarray, s: np.ndarray, t: list, depth: int) -> None:
        """Fill s[1:] from s[0] across the pieces [t[j], t[j + 1]]: all pieces' halved maps at once, then from the
        first piece whose error fails the rule on, one piece at a time, a failing one by its two halves'."""
        err = sweep(maps, s)
        failed = np.flatnonzero(~(err <= local_tol))
        for j in range(failed[0] if len(failed) else len(err), len(err)):
            if j > failed[0]:  # the state the piece starts from has changed
                err[j] = sweep(maps[j : j + 1], s[j : j + 2])[0]
            if err[j] <= local_tol:  # a NaN error never passes
                continue
            if depth >= _MAX_HALVINGS:
                raise ToleranceNotMetError(
                    f"grid too coarse near t = {t[j]!r}: local error {err[j]:.3e} > tol {local_tol:.3e} "
                    f"after {depth} halvings"
                )
            halves, mid = np.concatenate([s[j : j + 1], np.empty((2, m))]), t[j] + 0.5 * (t[j + 1] - t[j])
            halved_maps = _rk4_maps(block_a, eye, np.array([t[j], mid]), np.array([mid, t[j + 1]]))
            advance(halved_maps, halves, [t[j], mid, t[j + 1]], depth + 1)
            s[j + 1] = halves[2]

    nodes = grid.as_array()
    # a sampled rate's kinks cut the pieces: the error rule assumes a smooth step, the trapezoid a linear one;
    # a plain sort, as np.union1d would import numpy.ma
    on_grid = set(grid.nodes)
    kinks = [x for x in getattr(rate, "times", ()) if grid.a < x < grid.b and x not in on_grid]
    cuts = np.sort(np.concatenate([nodes, kinks]))
    at_nodes = np.searchsorted(cuts, nodes)
    start = CoefficientField(field.background, grid.a, free, _amplitudes_on(field, free))
    amps = np.empty((len(nodes), len(modes)))
    amps[:, [modes.index(x) for x in free]] = evolve_exact_trajectory(start, grid).amplitudes
    with np.errstate(over="ignore", invalid="ignore"):  # a stiff rate overflows; Trajectory refuses what is not finite
        if isinstance(coupling, ScalarOnU):
            c = rate.values_at(cuts)
            integral = np.concatenate([[0.0], np.cumsum(0.5 * (c[1:] + c[:-1]) * np.diff(cuts))])
            amps *= np.exp(integral[at_nodes])[:, None]
        elif block:
            states, per_batch, ts = np.empty((len(cuts), m)), max(1, _MAP_BATCH // (m * m)), cuts.tolist()
            states[0] = _amplitudes_on(field, block)
            for lo in range(0, len(cuts) - 1, per_batch):  # per_batch bounds the map arrays alive at once
                maps = _rk4_maps(block_a, eye, cuts[:-1][lo : lo + per_batch], cuts[1:][lo : lo + per_batch])
                advance(maps, states[lo : lo + per_batch + 1], ts[lo : lo + per_batch + 1], 0)
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
    out, proj = np.empty(len(t)), rule.geometry().tangent_projector
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
