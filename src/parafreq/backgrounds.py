"""Analytic shrinker backgrounds: geometry, weighted measure, quadrature.

Each background is a fixed hypersurface M in Euclidean space satisfying the
self-shrinking soliton equation H = -x_perp/2 at unit scale, swept through
time as M_t = sqrt(-t) * M for t < 0.  The Gaussian-weighted area measure

    dmu_t = (-4 pi t)^(-n/2) * exp(|x|^2 / (4t)) dA_t

is invariant under the self-similar change of variables y = x / sqrt(-t):
substituting x = sqrt(-t) y gives |x|^2/(4t) = -|y|^2/4 and
dA_t = (-t)^(n/2) dA, so dmu_t pulls back to the fixed unit-scale measure
dmu = (4 pi)^(-n/2) exp(-|y|^2/4) dA on M.  Every integral in this package is
therefore taken once, at unit scale, with time entering only through scaling
factors.  Quadrature rules below discretize that unit-scale measure.

Every background is a round factor times flat axes, S^n_{sqrt(2n)} x R^m,
and declares the two numbers ``sphere_n`` = n (0 for no round factor) and
``flat_m`` = m; the round factor takes the first n + 1 ambient coordinates
and the axes the last m.  The radius sqrt(2n) is forced by H = -(n/r) nu
and x_perp = r nu on the round factor: -(n/r^2) x = -x/2.  The measure
factors over the product, so mass, kappa, the rule and the geometry are
each one path over the two numbers: the mass is the round factor's times 1
per axis (a standard Gaussian with variance 2), kappa is the round factor's
n / r^2 = 1/2 or 0, and a rule is the round factor's times Gauss-Hermite
per axis.  Every background carries closed-form pointwise support (modes,
geometry, quadrature); what it costs follows from its shape alone.

* ``Plane(n)``     -- (0, n): totally geodesic, x_perp = 0, kappa = 0.
* ``Sphere(n)``    -- (n, 0): the round n-sphere of radius sqrt(2n).
* ``Cylinder(k, m)`` -- (k, m): S^k_{sqrt(2k)} x R^m.

Every polynomial integrates in closed form by ``monomial_moments``.  Each
``QuadratureRule`` keeps its nodes and weights.  The curvature bound
sup <H, A> = kappa / (-t) reduces at unit scale to n / r^2 on a round
factor: 0 on planes and 1/2 on spheres and cylinders.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field, fields

import numpy as np

_MAX_RULE_POINTS = 1 << 20  # points of the largest rule quadrature builds; checks hold arrays of points x d x d


class Background:
    """S^sphere_n_{sqrt(2 sphere_n)} x R^flat_m, with sphere_n = 0 for no round factor; frozen and hashable."""

    sphere_n: int
    flat_m: int

    def __post_init__(self) -> None:
        if any(getattr(self, f.name) < 1 for f in fields(self)):
            raise ValueError(f"background sizes must be >= 1, got {self.label()}")

    @property
    def ambient_dim(self) -> int:
        return self.sphere_n + (self.sphere_n > 0) + self.flat_m

    @property
    def radius_squared(self) -> float:
        # forced by the soliton equation: H = -(n/r) nu must equal -r nu / 2
        return 2.0 * self.sphere_n

    @property
    def radius(self) -> float:
        return math.sqrt(self.radius_squared)

    def label(self) -> str:
        sizes = ",".join(f"{f.name}={getattr(self, f.name)}" for f in fields(self))
        return f"{type(self).__name__.lower()}({sizes})"


@dataclass(frozen=True)
class Plane(Background):
    n: int
    sphere_n = 0
    flat_m = property(lambda self: self.n)


@dataclass(frozen=True)
class Sphere(Background):
    n: int
    sphere_n = property(lambda self: self.n)
    flat_m = 0


@dataclass(frozen=True)
class Cylinder(Background):
    k: int
    m: int
    sphere_n = property(lambda self: self.k)
    flat_m = property(lambda self: self.m)


# ---------------------------------------------------------------------------
# measure


def unit_sphere_area(n: int) -> float:
    """Surface area of the unit n-sphere in R^{n+1}."""
    return 2.0 * math.pi ** ((n + 1) / 2.0) / math.gamma((n + 1) / 2.0)


def total_mass(bg: Background) -> float:
    """Closed-form total unit-scale Gaussian mass: the round factor's, times 1 per Gaussian axis."""
    n = bg.sphere_n
    if not n:
        return 1.0
    return (4.0 * math.pi) ** (-n / 2.0) * math.exp(-n / 2.0) * unit_sphere_area(n) * bg.radius**n


def kappa(bg: Background) -> float:
    """Curvature constant: sup of the largest eigenvalue of <H, A(.,.)> at unit scale.

    Planes are totally geodesic (0).  For a round factor of radius
    r = sqrt(2n), <H, A> = (n / r^2) g restricted to the factor, so the
    supremum is n / (2n) = 1/2 regardless of the factor dimension.
    """
    return bg.sphere_n / bg.radius_squared if bg.sphere_n else 0.0


def monomial_moments(bg: Background, exponents: np.ndarray) -> np.ndarray:
    """The integral of y^alpha over the unit-scale measure, for each row alpha of the (N, d) integer ``exponents``.

    A moment is the round factor's times, per axis, a Gaussian's of variance 2, alpha! / (alpha/2)!.  On S^k(r) it is
    rho r^(k + |alpha|) 2 prod Gamma((alpha_i + 1)/2) / Gamma((|alpha| + k + 1)/2), with rho = (4 pi)^(-k/2) e^(-k/2)
    the density there.  Any odd exponent gives 0.
    """
    exps, n = np.asarray(exponents, dtype=np.int64), bg.sphere_n
    odd = [e % 2 for e in range(int(exps.max(initial=0)) + 1)]
    axis = np.array([0.0 if o else float(math.factorial(e) // math.factorial(e // 2)) for e, o in enumerate(odd)])
    out = np.prod(axis[exps[:, n + (n > 0) :]], axis=1)
    if n:
        head, half = exps[:, : n + 1], np.array([0.0 if o else math.gamma((e + 1) / 2.0) for e, o in enumerate(odd)])
        rho, size = (4.0 * math.pi) ** (-n / 2.0) * math.exp(-n / 2.0), head.sum(axis=1)
        # r^(k + |alpha|) as r^k (2k)^(|alpha|/2); an odd |alpha| has an odd exponent, whose zero ``half`` carries
        degree = [rho * bg.radius**n * bg.radius_squared ** (s // 2) * 2.0 / math.gamma((s + n + 1) / 2.0)
                  for s in range(int(size.max(initial=0)) + 1)]
        out = out * np.array(degree)[size] * np.prod(half[head], axis=1)
    return out


# ---------------------------------------------------------------------------
# quadrature


@dataclass(frozen=True)
class QuadratureRule:
    """Nodes and weights for the unit-scale weighted measure of a background.

    ``sum(weights * f(points))`` approximates the dmu integral of f; the
    weights absorb the Gaussian density, so the weight sum equals the total
    mass (exactly 1 on planes).  The rule keeps only its points and weights.
    """

    background: Background
    resolution: int
    points: np.ndarray = field(repr=False)
    weights: np.ndarray = field(repr=False)

    def __post_init__(self) -> None:
        if self.points.ndim != 2 or self.weights.ndim != 1:
            raise ValueError("points must be (N, d), weights (N,)")
        if self.points.shape[0] != self.weights.shape[0]:
            raise ValueError("points/weights length mismatch")
        if not (np.all(self.weights > 0.0) and np.all(np.isfinite(self.points))):  # a NaN weight is not > 0
            raise ValueError("quadrature weights must be positive and points finite")

    @property
    def mass(self) -> float:
        return float(np.sum(self.weights))


def _gauss_rule(off: np.ndarray, mass: float) -> tuple[np.ndarray, np.ndarray]:
    """The read-only Gauss rule of the Jacobi matrix J, zero diagonal and off-diagonal ``off``, for total ``mass``.

    Sturm counts (negative LDL^T pivots of J - x I, -0.0 negative) cut all eigenvalue brackets in 16 until each holds
    one and is narrow; Newton on the orthonormal recurrence, derivative by complex step, refines them inside.  The
    weights are Christoffel's, mass / sum_(k<N) p_k(x)^2.  O(N) memory per section, no dense matrix.
    """
    size, radius, rows, cuts = len(off) + 1, 2.0 * off.max(initial=0.0), np.arange(len(off) + 1), np.arange(1, 16) / 16
    lo, hi, tol = np.full(size, -radius), np.full(size, radius), 4.0 * np.finfo(float).eps * radius
    with np.errstate(all="ignore"):
        while np.any(hi[:-1] > lo[1:]) or np.any(hi - lo > radius / 1024):  # eigenvalue i lies in (lo_i, hi_i]
            x = lo[:, None] + (hi - lo)[:, None] * cuts
            shift, pivot, count = -x, np.inf, 0
            for b in [0.0, *(off**2).tolist()]:
                pivot = shift - b / pivot
                count += np.signbit(pivot)
            cut, grid = np.sum(count <= rows[:, None], axis=1), np.column_stack([lo, x, hi])
            lo, hi = grid[rows, cut], grid[rows, cut + 1]
        x, step, positive_below = 0.5 * (lo + hi), np.inf, (size - rows) % 2 == 0  # p_N's sign below eigenvalue i
        for _ in range(64):
            last = np.all(np.abs(step) <= tol)  # a pass after steps below tol takes the weights and stops
            z, prev, cur, back, total = x + 1e-30j, 0.0, np.ones(size, complex), 0.0, np.ones(size)
            for b in off.tolist():
                prev, cur, back = cur, (z * cur - back * prev) / b, b
                if last:
                    total += cur.real**2
            if last:
                break
            q = z * cur - back * prev  # Im p(x + ih) = h p'(x)
            step, up = 1e-30 * q.real / q.imag, np.signbit(q.real) != positive_below
            lo, hi, x = np.where(up, x, lo), np.where(up, hi, x), x - step
            x = np.where((lo - tol <= x) & (x <= hi + tol), x, 0.5 * (lo + hi))  # may round past an end root
    weights = mass / total
    x.flags.writeable = weights.flags.writeable = False
    return x, weights


@functools.cache
def _gauss_gaussian_1d(resolution: int) -> tuple[np.ndarray, np.ndarray]:
    """Nodes/weights for int f(y) (4 pi)^(-1/2) e^(-y^2/4) dy, exact to degree 2*res - 1."""
    return _gauss_rule(np.sqrt(2.0 * np.arange(1, resolution)), 1.0)


@functools.cache
def _polar_rule(p: int, resolution: int) -> tuple[np.ndarray, np.ndarray]:
    """Gauss nodes and weights for the polar cosine of S^p, of weight (1 - u^2)^((p - 2)/2): Legendre at p = 2."""
    a, j = (p - 2) / 2.0, np.arange(1, resolution)
    off = np.sqrt(j * (j + 2.0 * a) / ((2.0 * j + 2.0 * a) ** 2 - 1.0))
    return _gauss_rule(off, math.sqrt(math.pi) * math.gamma(a + 1.0) / math.gamma(a + 1.5))


def _round_rule(bg: Background, resolution: int) -> tuple[np.ndarray, np.ndarray]:
    """The rule on the round factor: 2 * resolution angles on a circle, times one Gauss polar cosine per S^p, p >= 2.

    The polar cosine of S^n is outermost and the angle innermost: x_p = r u_p times the sines of the polar
    angles above p, and x_0, x_1 are those sines times r (cos, sin) of the angle.  Without a round factor it is
    one point.
    """
    n, r = bg.sphere_n, bg.radius
    if not n:
        return np.zeros((1, 0)), np.ones(1)
    count = 2 * resolution
    phi = 2.0 * math.pi * np.arange(count) / count
    if n == 1:
        return np.stack([r * np.cos(phi), r * np.sin(phi)], axis=1), np.full(count, total_mass(bg) / count)
    rho = (4.0 * math.pi) ** (-n / 2.0) * math.exp(-n / 2.0)
    scale, cols, wts = np.array([r]), [], np.array([rho * r**n])  # per point: r times the sines so far
    for p in range(n, 1, -1):
        u, w = _polar_rule(p, resolution)
        size, scale = len(scale), np.repeat(scale, resolution)
        cols = [scale * np.tile(u, size), *(np.repeat(c, resolution) for c in cols)]
        scale, wts = scale * np.tile(np.sqrt(1.0 - u**2), size), np.repeat(wts, resolution) * np.tile(w, size)
    pts = np.empty((len(scale) * count, n + 1))
    pts[:, 0] = np.repeat(scale, count) * np.tile(np.cos(phi), len(scale))
    pts[:, 1] = np.repeat(scale, count) * np.tile(np.sin(phi), len(scale))
    for i, col in enumerate(cols, start=2):
        pts[:, i] = np.repeat(col, count)
    return pts, np.repeat(wts, count) * (2.0 * math.pi / count)


def _tensor_product(
    pts_a: np.ndarray, w_a: np.ndarray, pts_b: np.ndarray, w_b: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    na, nb = pts_a.shape[0], pts_b.shape[0]
    left = np.repeat(pts_a, nb, axis=0)
    right = np.tile(pts_b, (na, 1))
    return np.concatenate([left, right], axis=1), np.repeat(w_a, nb) * np.tile(w_b, na)


def quadrature(bg: Background, resolution: int) -> QuadratureRule:
    """Build the unit-scale rule for a background: its round rule times Gauss-Hermite per axis.

    Each axis takes ``resolution`` Gauss-Hermite nodes (polynomial-exact to
    degree 2*resolution - 1 per axis).  A round factor S^k takes
    2*resolution uniform angles times ``resolution`` Gauss nodes in the polar
    cosine of each S^p, p = 2..k, of weight (1 - u^2)^((p-2)/2): Gauss-Legendre
    on S^2.  So S^k x R^m has 2N * N^(k-1) * N^m points for N = resolution,
    and the rule is exact for every polynomial of degree up to 2N - 1.  A rule
    above ``_MAX_RULE_POINTS`` points is refused before anything is built, and one
    whose smallest weight is not a normal float before its tensor product is.
    """
    if resolution < 1:
        raise ValueError(f"resolution must be >= 1, got {resolution}")
    size = (2 * resolution ** bg.sphere_n if bg.sphere_n else 1) * resolution**bg.flat_m
    if size > _MAX_RULE_POINTS:
        raise ValueError(
            f"resolution {resolution} asks for {size} quadrature points on {bg.label()}, "
            f"above the limit of {_MAX_RULE_POINTS}; state a smaller resolution"
        )

    pts, wts = _round_rule(bg, resolution)
    # a Gauss rule's smallest weight falls as it grows, and 512 nodes leave the normal floats: longer axes go unbuilt
    for nodes in dict.fromkeys((min(resolution, 512), resolution)) if bg.flat_m else ():
        y, w = _gauss_gaussian_1d(nodes)
        smallest = math.prod([wts.min(), *[w.min()] * bg.flat_m])  # in the order the tensor product multiplies
        if not smallest >= np.finfo(float).smallest_normal:
            raise ValueError(f"resolution {resolution} takes quadrature weights down to {smallest:.3g} on "
                             f"{bg.label()}, below the normal floats; state a smaller resolution")
    for _ in range(bg.flat_m):
        pts, wts = _tensor_product(pts, wts, y[:, None], w)
    return QuadratureRule(bg, resolution, pts, wts)
