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

Forced runs solve da/dt = -(mu_j / (-t)) a_j + C(t) * (coupling a)_j with a
classical fourth-order Runge-Kutta scheme, sub-stepped per grid interval by
step doubling until the local error estimate meets the requested tolerance.
The stepped solver integrates forward only and by default refuses grids that
end above t = -1e-3, where the vector field stiffens like mu / (-t); exact
evolution has no such restriction.  Two couplings are supported: the forcing
proportional to the solution itself (f = C(t) u), and a bounded constant
matrix acting on a fixed mode list (f = C(t) W a).  Both keep f inside the
inequality |f| <= C(t) (|grad u| + |u|) wherever the certified margin below
is nonnegative.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Mapping, Sequence

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
    """Amplitudes of one field on the nodes of a grid; method records how they were produced.

    ``amplitudes`` is a C-contiguous float array of shape (nodes, modes):
    row i holds the field at ``grid.nodes[i]``, columns follow ``modes``.
    """

    grid: TimeGrid
    background: Background
    modes: tuple[Mode, ...]
    amplitudes: np.ndarray
    method: str
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
    return Trajectory(grid, field.background, modes, field.amplitudes * gathered, method="exact")


# ---------------------------------------------------------------------------
# stepped (forced) evolution


def _amplitudes_on(field: CoefficientField, modes: Sequence[Mode]) -> np.ndarray:
    """The field's amplitude on each of ``modes``, 0 where the field has none."""
    position = {m: j for j, m in enumerate(field.modes)}
    return np.array([field.amplitudes[position[m]] if m in position else 0.0 for m in modes])


def _union_modes(field: CoefficientField, forcing: Forcing) -> tuple[Mode, ...]:
    modes = set(field.modes)
    if isinstance(forcing.coupling, ModeMatrix):
        modes.update(forcing.coupling.modes)
    return tuple(sorted(modes, key=mode_sort_key))


def _build_rhs(modes: tuple[Mode, ...], forcing: Forcing) -> Callable[[float, np.ndarray], np.ndarray]:
    mus = np.array([m.mu for m in modes], dtype=float)
    if isinstance(forcing.coupling, ScalarOnU):
        def rhs(t: float, a: np.ndarray) -> np.ndarray:
            return -(mus / (-t)) * a + forcing.rate(t) * a

        return rhs
    coupling = forcing.coupling
    positions = {m: i for i, m in enumerate(modes)}
    idx = np.array([positions[m] for m in coupling.modes], dtype=int)
    w = coupling.as_array()

    def rhs(t: float, a: np.ndarray) -> np.ndarray:
        out = -(mus / (-t)) * a
        out[idx] += forcing.rate(t) * (w @ a[idx])
        return out

    return rhs


def _rk4_step(rhs: Callable, t: float, a: np.ndarray, h: float, k1: np.ndarray) -> np.ndarray:
    k2 = rhs(t + 0.5 * h, a + 0.5 * h * k1)
    k3 = rhs(t + 0.5 * h, a + 0.5 * h * k2)
    k4 = rhs(t + h, a + h * k3)
    return a + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)


def _advance(rhs: Callable, t0: float, a0: np.ndarray, t1: float, tol: float, depth: int) -> np.ndarray:
    h = t1 - t0
    k1 = rhs(t0, a0)  # shared by the full step and the first half step
    full = _rk4_step(rhs, t0, a0, h, k1)
    mid = _rk4_step(rhs, t0, a0, 0.5 * h, k1)
    halved = _rk4_step(rhs, t0 + 0.5 * h, mid, 0.5 * h, rhs(t0 + 0.5 * h, mid))
    scale = 1.0 + float(np.max(np.abs(halved)))
    err = float(np.max(np.abs(full - halved))) / (15.0 * scale)
    if err <= tol:
        return halved
    if depth >= _MAX_HALVINGS:
        raise ToleranceNotMetError(
            f"grid too coarse near t = {t0!r}: local error {err:.3e} > tol {tol:.3e} after {depth} halvings"
        )
    mid_t = t0 + 0.5 * h
    left = _advance(rhs, t0, a0, mid_t, tol, depth + 1)
    return _advance(rhs, mid_t, left, t1, tol, depth + 1)


def evolve_forced(
    field: CoefficientField,
    grid: TimeGrid,
    forcing: Forcing,
    *,
    local_tol: float = 1e-8,
) -> Trajectory:
    """RK4 trajectory of the forced system over the grid (forward only).

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

    modes = _union_modes(field, forcing)
    amps = np.empty((len(grid.nodes), len(modes)))
    amps[0] = _amplitudes_on(field, modes)

    rhs = _build_rhs(modes, forcing)
    for i, (t0, t1) in enumerate(zip(grid.nodes, grid.nodes[1:])):
        amps[i + 1] = _advance(rhs, t0, amps[i], t1, local_tol, 0)
    return Trajectory(grid, field.background, modes, amps, method="stepped_rk4", forcing=forcing)


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
