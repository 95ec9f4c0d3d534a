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
nonnegative.  A does not depend on a, so an RK4 step is the matrix
Phi = I + h/6 (K1 + 2 K2 + 2 K3 + K4), K1 = A(t0), K2 = A(t0 + h/2)(I + h/2 K1),
K3 = A(t0 + h/2)(I + h/2 K2), K4 = A(t0 + h)(I + h K3).  A is dense only on a
ModeMatrix's modes; on every other mode (all of them under f = C(t) u) it is
diagonal and Phi is a number.  The full-step and chained half-step maps of
the grid's intervals (a sampled rate's kinks cut them too) are built in
batches, applied as a[i+1] = Phi_half[i] a[i], and scored at once by the
step-doubling error max|(Phi_full - Phi_half) a[i]| / (15 (1 + max|a[i+1]|)).
From the first interval whose error is not at most the tolerance (a NaN never
is) on, intervals are redone one at a time, a failing one by its two halves'
maps, recursively.  The stepped solver runs forward only, on grids that end
at or below t = -1e-3, where the field stiffens like mu / (-t).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

from .backgrounds import Background, QuadratureRule
from .modes import Mode, combine_on_rule, mode_sort_key

__all__ = [
    "CoefficientField",
    "TimeGrid",
    "ConstantRate",
    "SampledRate",
    "ScalarOnU",
    "ModeMatrix",
    "Forcing",
    "Trajectory",
    "ToleranceNotMetError",
    "evolve_exact",
    "evolve_exact_trajectory",
    "evolve_forced",
    "forcing_bound_margin",
]

_MAX_HALVINGS = 30
_END_TIME_FLOOR = -1e-3  # latest end time of a forced grid
_MAP_BATCH = 1 << 14  # (map entries per piece) x (pieces) built at once


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

    def __call__(self, t: float) -> float:
        return self.c0

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

    def __call__(self, t: float) -> float:
        return float(np.interp(t, self.times, self.values))

    def values_at(self, ts: np.ndarray) -> np.ndarray:
        """C at every time in ``ts``, as one array (the same interpolation as a call)."""
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
    """(len(bases), len(exponents)) array of ``base ** exponent``."""
    # Python ** is libm pow; np.power can differ from it in the last ulp, which would change emitted bytes.
    return np.array([[b**e for e in exponents] for b in bases], dtype=float)


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
    gathered = powers[:, [column[m.mu] for m in modes]]
    return Trajectory(grid, field.background, modes, field.amplitudes * gathered)


# ---------------------------------------------------------------------------
# stepped (forced) evolution


def _amplitudes_on(field: CoefficientField, modes: Sequence[Mode]) -> np.ndarray:
    """The field's amplitude on each of ``modes``, 0 where the field has none."""
    position = {m: j for j, m in enumerate(field.modes)}
    return np.array([field.amplitudes[position[m]] if m in position else 0.0 for m in modes])


def _rk4_maps(a_at, mul, one: np.ndarray, start: np.ndarray, end: np.ndarray) -> np.ndarray:
    """(intervals, 2, ...): per [start, end] the product of the two RK4 half-step maps, and the full-step map minus it.

    ``a_at(ts)`` is A at every time in ``ts``; ``mul`` is its product and ``one`` its identity.
    """
    n, h = len(start), end - start
    if one.size == 0:
        return np.empty((n, 2) + one.shape)
    t0 = np.concatenate([start, start, start + 0.5 * h])  # full step, first half, second half
    h = np.concatenate([h, 0.5 * h, 0.5 * h])
    k1 = a_at(t0)
    hs = h.reshape((-1,) + (1,) * (k1.ndim - 1))
    mid = a_at(t0 + 0.5 * h)
    k2 = mul(mid, one + 0.5 * hs * k1)
    k3 = mul(mid, one + 0.5 * hs * k2)
    phi = one + (hs / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + mul(a_at(t0 + h), one + hs * k3))
    halved = mul(phi[2 * n :], phi[n : 2 * n])
    return np.stack([halved, phi[:n] - halved], axis=1)


def evolve_forced(
    field: CoefficientField,
    grid: TimeGrid,
    forcing: Forcing,
    *,
    local_tol: float = 1e-8,
) -> Trajectory:
    """RK4 trajectory of the forced system over the grid (forward only), by step maps built in batches.

    The field must sit on the first grid node.  Grids ending above
    ``_END_TIME_FLOOR`` are refused because the unforced part of the vector
    field blows up like mu / (-t).
    """
    if field.time != grid.a:
        raise ValueError(f"field time {field.time!r} must equal grid start {grid.a!r}")
    if grid.b > _END_TIME_FLOOR:
        raise ValueError(
            f"grid ends at t = {grid.b!r}, above the stepped-solver floor {_END_TIME_FLOOR!r}; use exact evolution"
        )
    if not (local_tol > 0.0 and math.isfinite(local_tol)):
        raise ValueError("local_tol must be positive")

    coupling, rate = forcing.coupling, forcing.rate
    block = getattr(coupling, "modes", ())  # coupled through W; W = I under ScalarOnU couples no two modes
    modes = tuple(sorted({*field.modes, *block}, key=mode_sort_key))
    run = [*block, *(x for x in modes if x not in block)]  # the block first, then the diagonal modes
    m, mus = len(block), np.array([x.mu for x in run])
    w, eye = np.array(getattr(coupling, "matrix", ()), dtype=float).reshape(m, m), np.eye(m)
    rate_on_diagonal = float(isinstance(coupling, ScalarOnU))

    def block_a(ts: np.ndarray) -> np.ndarray:
        return rate.values_at(ts)[:, None, None] * w - (mus[:m] / (-ts)[:, None])[:, :, None] * eye

    def diagonal_a(ts: np.ndarray) -> np.ndarray:
        return rate_on_diagonal * rate.values_at(ts)[:, None] - mus[m:] / (-ts)[:, None]

    def maps(start: np.ndarray, end: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Per [start, end]: the block's and the diagonal modes' maps, as ``_rk4_maps`` gives them."""
        block_maps = _rk4_maps(block_a, np.matmul, eye, start, end)
        return block_maps, _rk4_maps(diagonal_a, np.multiply, np.ones(len(run) - m), start, end)

    def sweep(block_maps: np.ndarray, diagonal_maps: np.ndarray, s: np.ndarray) -> np.ndarray:
        """Apply the pieces' halved maps in turn from s[0] into s[1:]; return each piece's step-doubling error."""
        for j in range(len(block_maps) if m else 0):
            s[j + 1, :m] = block_maps[j, 0] @ s[j, :m]
        s[:, m:] = np.cumprod(np.vstack([s[0, m:], diagonal_maps[:, 0]]), axis=0)
        change = np.einsum("nij,nj->ni", block_maps[:, 1], s[:-1, :m])
        change = np.concatenate([change, diagonal_maps[:, 1] * s[:-1, m:]], axis=1)
        return np.max(np.abs(change), axis=1) / (15.0 * (1.0 + np.max(np.abs(s[1:]), axis=1)))

    def advance(block_maps: np.ndarray, diagonal_maps: np.ndarray, s: np.ndarray, t: list, depth: int) -> None:
        """Fill s[1:] from s[0] across the pieces [t[j], t[j + 1]]: all pieces' halved maps at once, then from the
        first piece whose error fails the rule on, one piece at a time, a failing one by its two halves'."""
        err = sweep(block_maps, diagonal_maps, s)
        failed = np.flatnonzero(~(err <= local_tol))
        for j in range(failed[0] if len(failed) else len(err), len(err)):
            if j > failed[0]:  # the state the piece starts from has changed
                err[j] = sweep(block_maps[j : j + 1], diagonal_maps[j : j + 1], s[j : j + 2])[0]
            if err[j] <= local_tol:  # a NaN error never passes
                continue
            if depth >= _MAX_HALVINGS:
                raise ToleranceNotMetError(
                    f"grid too coarse near t = {t[j]!r}: local error {err[j]:.3e} > tol {local_tol:.3e} "
                    f"after {depth} halvings"
                )
            halves, mid = np.concatenate([s[j : j + 1], np.empty((2, len(run)))]), t[j] + 0.5 * (t[j + 1] - t[j])
            advance(*maps(np.array([t[j], mid]), np.array([mid, t[j + 1]])), halves, [t[j], mid, t[j + 1]], depth + 1)
            s[j + 1] = halves[2]

    nodes = grid.as_array()
    # a sampled rate's kinks are piece boundaries too, because the error rule assumes a smooth step
    cuts = np.union1d(nodes, [x for x in getattr(rate, "times", ()) if grid.a < x < grid.b])
    states = np.empty((len(cuts), len(run)))
    states[0] = _amplitudes_on(field, run)
    per_batch = max(1, _MAP_BATCH // (m * m + len(run)))  # bounds the map arrays alive at once
    ts = cuts.tolist()
    with np.errstate(over="ignore", invalid="ignore"):  # a stiff rate overflows the maps; the NaN errors fail
        for lo in range(0, len(cuts) - 1, per_batch):
            batch = maps(cuts[:-1][lo : lo + per_batch], cuts[1:][lo : lo + per_batch])
            advance(*batch, states[lo : lo + per_batch + 1], ts[lo : lo + per_batch + 1], 0)
    amps = states[np.searchsorted(cuts, nodes)][:, [run.index(x) for x in modes]]
    return Trajectory(grid, field.background, modes, amps, forcing=forcing)


def forcing_bound_margin(field: CoefficientField, forcing: Forcing, rule: QuadratureRule) -> float:
    """Certified pointwise margin min [ C(t)(|grad u| + |u|) - |f| ] over quadrature nodes.

    Gradients are taken on the flowing surface at the field's time, so the
    unit-scale tangential gradient carries a 1/sqrt(-t) factor.  Nonnegative
    margin certifies the forcing hypothesis at this snapshot.  Mode columns
    stay on ``rule`` for calls at other times.
    """
    rule.require_background(field.background)
    t = field.time
    c = forcing.rate(t)
    values = combine_on_rule(rule, field.modes, field.amplitudes)
    ambient_grads = combine_on_rule(rule, field.modes, field.amplitudes, "gradients")
    tangential = np.einsum("nij,nj->ni", rule.tangent_projector, ambient_grads)
    grad_norm = np.sqrt(np.sum(tangential**2, axis=1)) / math.sqrt(-t)

    if isinstance(forcing.coupling, ScalarOnU):
        f_values = c * values
    else:
        coupling = forcing.coupling
        f_coeffs = c * (coupling.as_array() @ _amplitudes_on(field, coupling.modes))
        f_values = combine_on_rule(rule, coupling.modes, f_coeffs)

    return float(np.min(c * (grad_norm + np.abs(values)) - np.abs(f_values)))
