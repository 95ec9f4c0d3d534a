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

Forced runs solve a' = A(t) a, A = C(t) W - diag(mu/(-t)), C >= 0, in two
closed forms, so nothing is stepped.  Under f = C(t) u (``ScalarOnU``) W = I
and each mode keeps the law above times exp(G), G(t) = int_{t0}^t C, a
trapezoid over the grid nodes and a sampled rate's kinks, exact on each linear
piece.  Under f = C(t) du/dx_1 along the first flat axis (``Drift``)
W = N / sqrt(-t): d/dy phi_n = sqrt(n/2) phi_{n-1} on a normalized Hermite
factor, so N lowers that axis's degree and is nilpotent.  N lowers mu by 1/2,
so conjugating by the unforced law, b_j = a_j ((-t)/(-t0))^(-mu_j), leaves
b' = C(t) N b / sqrt(-t0), and

    a(t) = sum_k G(t)^k / k! * (unforced run of (N / sqrt(-t0))^k a(t0)),

a finite sum over the modes of the field and every mode below them on that
axis.  Both forcings meet |f| <= C(t)(|grad u| + |u|) identically:
|C u| <= C |u| and |C du/dx_1| <= C |grad u|.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterator, Mapping, Sequence

import numpy as np

from .backgrounds import Background
from .modes import Mode, mode_from_index, mode_sort_key

# entries of one block of Trajectory.blocks, which the trace and the checks read: modes x (grid rows); a block
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
class Drift:
    """Forcing along the first flat axis: f = C(t) du/dx_1.

    Any constant unit drift across the flat factor is this one after a
    rotation or reflection of that factor, which leaves the measure and the
    operator unchanged, so the drift has no direction to set.
    """


@dataclass(frozen=True)
class Forcing:
    rate: Rate
    coupling: ScalarOnU | Drift


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
    ``scale``, which multiplies exactly: its rows are sums of unforced runs
    (see ``evolve_forced``), which keep no factored form.  ``rows(part)``
    builds one block of rows and ``blocks()`` walks the run in blocks.
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

    def blocks(self) -> Iterator[tuple[slice, np.ndarray]]:
        """(part, rows(part)) over runs of at most ``_BLOCK_ENTRIES // modes`` rows: a caller that reduces each row
        alone gets the same bits as from the whole array at once."""
        step = max(1, _BLOCK_ENTRIES // max(1, len(self.modes)))
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
# forced evolution


def _amplitudes_on(have: Sequence[Mode], amplitudes: np.ndarray, modes: Sequence[Mode]) -> np.ndarray:
    """The amplitude on each of ``modes`` of ``amplitudes`` over ``have``, a field's or a block of rows'; 0 where
    ``have`` has no such mode."""
    position = {m: j for j, m in enumerate(have)}
    out = np.zeros(amplitudes.shape[:-1] + (len(modes),))
    for i, m in enumerate(modes):
        if m in position:
            out[..., i] = amplitudes[..., position[m]]
    return out


def evolve_forced(field: CoefficientField, grid: TimeGrid, forcing: Forcing) -> Trajectory:
    """Trajectory of the forced system over the grid (forward only), from the field on its first node.

    Row i is exp(G_i) times the unforced row under ``ScalarOnU`` and sum_k G_i^k / k! times row i of the unforced
    run of c_k under a ``Drift``, with G_i = int_{t0}^{t_i} C, c_0 the field's amplitudes and
    c_k = N c_(k-1) / sqrt(-t0): (N c)_n = sqrt((n + 1)/2) c_(n+1) in the first flat axis's degree n.  A drift
    run's modes are the field's and every mode below them on that axis.
    """
    if field.time != grid.a:
        raise ValueError(f"field time {field.time!r} must equal grid start {grid.a!r}")
    bg, drift = field.background, isinstance(forcing.coupling, Drift)
    if drift and not bg.flat_m:
        raise ValueError(f"a drift runs along a flat axis, and {bg.label()} has none")
    axis = 2 if bg.sphere_n else 0  # the first flat axis's place in a mode index

    def at_degree(index: tuple[int, ...], n: int) -> tuple[int, ...]:
        return index[:axis] + (n,) + index[axis + 1 :]

    below = (mode_from_index(bg, at_degree(m.index, n)) for m in field.modes if drift for n in range(m.index[axis]))
    modes = tuple(sorted({*field.modes, *below}, key=mode_sort_key))

    def unforced(amplitudes: np.ndarray) -> np.ndarray:
        return evolve_exact_trajectory(CoefficientField(bg, grid.a, modes, amplitudes), grid).rows(slice(None))

    coeffs = _amplitudes_on(field.modes, field.amplitudes, modes)
    amps, nodes = unforced(coeffs), grid.nodes
    cuts = _rate_cuts(forcing.rate, nodes)  # the pieces, on each of which C is linear
    # a stiff rate overflows; Trajectory refuses what is not finite
    with np.errstate(over="ignore", invalid="ignore"):
        c = forcing.rate.values_at(cuts)
        g = np.concatenate([[0.0], np.cumsum(0.5 * (c[1:] + c[:-1]) * np.diff(cuts))])[np.searchsorted(cuts, nodes)]
        if not drift:
            amps *= np.exp(g)[:, None]
        else:
            position = {m.index: j for j, m in enumerate(modes)}
            upper = [j for j, m in enumerate(modes) if m.index[axis]]
            lower = [position[at_degree(modes[j].index, modes[j].index[axis] - 1)] for j in upper]
            lowering = np.sqrt([modes[j].index[axis] / 2.0 for j in upper]) / math.sqrt(-grid.a)
            weight = np.ones(len(nodes))
            for k in range(1, 1 + max((m.index[axis] for m in modes), default=0)):
                lowered = np.zeros(len(modes))
                lowered[lower] = lowering * coeffs[upper]
                coeffs, weight = lowered, weight * g / k
                amps += weight[:, None] * unforced(coeffs)
    return Trajectory(grid, bg, modes, amps, forcing=forcing)  # dense: identity columns, unit scale
