"""Drift-Laplacian eigenmodes on the analytic backgrounds.

At unit scale the relevant operator is the drift Laplacian

    L v = Delta_M v - (1/2) <y_tan, grad v>,

self-adjoint in L^2(dmu).  Its spectrum is explicit on every
background, and each eigenfunction is the restriction of an ambient
polynomial, which is what makes exact gradients and Hessians available.
The operator, measure and spectrum factor over a background's round factor
S^n_{sqrt(2n)} and its m flat axes, so every mode is a round harmonic times
one Hermite-type polynomial per axis, and mu is the sum of the factors':

* per axis, h_k with h'' - (y/2) h' = -(k/2) h.  The integer-coefficient
  family is generated by h_{k+1} = y h_k - 2k h_{k-1} (h_0 = 1, h_1 = y)
  with norm^2 = 2^k k!, so an axis of degree k adds k / 2 to mu.
* on the round factor the position vector is purely normal, so the drift
  term vanishes and L = Delta_M.  Spherical harmonics of degree k give
  mu = k (k + n - 1) / (2n).  They are restrictions of homogeneous harmonic
  polynomials built by one recursion over the dimension: the circle's
  Re/Im (y1 + i y2)^k (cos/sin(k theta)), and on each S^p, p >= 2, a
  harmonic on S^(p-1) times the Gegenbauer factor of the polar cosine.

A mode is labeled by the integer multi-index (degree, harmonic) of its
round factor, absent on planes, followed by one Hermite degree per axis.
The harmonic is the position of its Gelfand-Tsetlin chain
k >= m_(n-1) >= ... >= m_2 >= |m_1| among those of degree k sorted by
(m_1, m_2, ...), with negative m_1 the sine branch: on S^2 it is m_1 + k,
and for n = 1 the harmonic 0/1 selects cos/sin.  Enumeration sorts by
(mu, index) with lexicographic tie-break.

Orthonormality is exact in closed form, with the norm from the Gegenbauer
norms, and is re-verified against quadrature in the test suite.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Iterator

from .backgrounds import Background, total_mass, unit_sphere_area
from .polynomials import AmbientPolynomial


@dataclass(frozen=True)
class Mode:
    """One eigenmode: integer multi-index label plus drift eigenvalue mu (L phi = -mu phi)."""

    index: tuple[int, ...]
    mu: float


def mode_sort_key(mode: Mode) -> tuple[float, tuple[int, ...]]:
    return (mode.mu, mode.index)


# ---------------------------------------------------------------------------
# spectra and enumeration


def sphere_degree_eigenvalue(n: int, k: int) -> float:
    return k * (k + n - 1) / (2.0 * n)


def sphere_multiplicity(n: int, k: int) -> int:
    """Dimension of the degree-k spherical-harmonic space on S^n."""
    if k == 0:
        return 1
    if k == 1:
        return n + 1
    return math.comb(n + k, k) - math.comb(n + k - 2, k - 2)


def _bounded_multi_indices(dims: int, max_sum: int) -> Iterator[tuple[int, ...]]:
    if dims == 0:
        yield ()
        return
    for head in range(max_sum + 1):
        for tail in _bounded_multi_indices(dims - 1, max_sum - head):
            yield (head,) + tail


def _round_degrees(n: int, mu_cutoff: float) -> Iterator[tuple[int, float, int]]:
    """(k, mu_k, multiplicity) of each harmonic degree k = 0, 1, ... on S^n with mu_k <= cutoff; for n = 0 the one
    degree 0, of eigenvalue 0 and one (empty) harmonic."""
    if not n:
        yield 0, 0.0, 1
        return
    k = 0
    while (mu := sphere_degree_eigenvalue(n, k)) <= mu_cutoff + 1e-12:
        yield k, mu, sphere_multiplicity(n, k)
        k += 1


def mode_from_index(bg: Background, index: tuple[int, ...]) -> Mode:
    """Validate a multi-index against the background and attach its eigenvalue."""
    idx, n = tuple(int(i) for i in index), bg.sphere_n
    head = 2 if n else 0
    if len(idx) != head + bg.flat_m or any(i < 0 for i in idx) or (n and idx[1] >= sphere_multiplicity(n, idx[0])):
        layout = ("degree, harmonic below its multiplicity, " if n else "") + f"{bg.flat_m} Hermite degrees"
        raise ValueError(f"a mode index on {bg.label()} is ({layout}), all nonnegative; got {index!r}")
    mu_round = sphere_degree_eigenvalue(n, idx[0]) if n else 0.0
    return Mode(idx, mu_round + sum(idx[head:]) / 2.0)


def mode_counts(bg: Background, mu_cutoff: float) -> Iterator[int]:
    """The number of modes with mu <= cutoff of each round degree k = 0, 1, ... in turn, none enumerated.

    Degree k's harmonics, of eigenvalue mu_k, each take every multiset of axial degrees summing to at most
    B = floor(2 (cutoff - mu_k)), C(B + m, m) of them on m axes.  Without a round factor there is one degree, and
    on a sphere the degrees run as long as mu_k <= cutoff: a caller that bounds the total stops early.
    """
    if mu_cutoff < 0:
        return
    for _, mu_round, size in _round_degrees(bg.sphere_n, mu_cutoff):
        axial_budget = int(math.floor(2.0 * (mu_cutoff - mu_round) + 1e-12))
        yield size * math.comb(axial_budget + bg.flat_m, bg.flat_m)


def enumerate_modes(bg: Background, mu_cutoff: float) -> tuple[Mode, ...]:
    """All modes with mu <= cutoff, sorted by (mu, index): each round harmonic times the axial degrees left."""
    if mu_cutoff < 0:
        return ()
    modes: list[Mode] = []
    for k, mu_round, size in _round_degrees(bg.sphere_n, mu_cutoff):
        axial_budget = int(math.floor(2.0 * (mu_cutoff - mu_round) + 1e-12))
        for head in [(k, j) for j in range(size)] if bg.sphere_n else [()]:
            for axial in _bounded_multi_indices(bg.flat_m, axial_budget):
                modes.append(Mode(head + axial, mu_round + sum(axial) / 2.0))
    modes.sort(key=mode_sort_key)
    return tuple(modes)


def first_nonzero_eigenvalue(bg: Background) -> float:
    """Smallest mu > 0: the least over the factors of a degree-1 harmonic and a degree-1 Hermite mode."""
    n = bg.sphere_n
    return min(([sphere_degree_eigenvalue(n, 1)] if n else []) + ([0.5] if bg.flat_m else []))


# ---------------------------------------------------------------------------
# closed-form polynomials


@functools.lru_cache(maxsize=None)
def _hermite_coeffs(k: int) -> tuple[float, ...]:
    # integer-coefficient family: h_{k+1} = y h_k - 2k h_{k-1}
    if k == 0:
        return (1.0,)
    if k == 1:
        return (0.0, 1.0)
    prev2, prev1 = _hermite_coeffs(k - 2), _hermite_coeffs(k - 1)
    out = [0.0] * (k + 1)
    for deg, c in enumerate(prev1):
        out[deg + 1] += c
    for deg, c in enumerate(prev2):
        out[deg] -= 2.0 * (k - 1) * c
    return tuple(out)


def hermite_polynomial(k: int, dim: int = 1, axis: int = 0) -> AmbientPolynomial:
    """Unnormalized integer-coefficient Hermite-type eigenpolynomial h_k on one axis."""
    if k < 0:
        raise ValueError("degree must be >= 0")
    return AmbientPolynomial.from_univariate(dim, axis, _hermite_coeffs(k))


def hermite_norm_squared(k: int) -> float:
    return float(2**k * math.factorial(k))


def _circle_harmonic(m1: int, dim: int) -> AmbientPolynomial:
    """Re (x_0 + i x_1)^m1, or Im (x_0 + i x_1)^|m1| when m1 < 0, in a dim-d space."""
    l = abs(m1)
    terms = {(l - i, i) + (0,) * (dim - 2): math.comb(l, i) * (-1.0) ** (i // 2) for i in range(m1 < 0, l + 1, 2)}
    return AmbientPolynomial(dim, terms)


@functools.lru_cache(maxsize=None)
def _chains(n: int, l: int) -> tuple[tuple[int, ...], ...]:
    """The Gelfand-Tsetlin chains (m_1, ..., m_n = l) of the degree-l harmonics on S^n, in label order.

    The degree on S^p is m_p, and |m_1| on the circle, whose sine branch is m_1 < 0.  On S^n, n >= 2, the
    chains sort by (m_1, m_2, ...); the circle lists its cosine first.
    """
    if n == 1:
        return ((l,), (-l,)) if l else ((0,),)
    return tuple(sorted(c + (l,) for m in range(l + 1) for c in _chains(n - 1, m)))


@functools.lru_cache(maxsize=None)
def _gegenbauer_derivative(p: int, l: int, m: int) -> tuple[float, ...]:
    """Power-basis coefficients of d^m/du^m C^lam_l(u), lam = (p - 1)/2, from the three-term recurrence in floats.

    k C_k = 2 (k + lam - 1) u C_(k-1) - (k + 2 lam - 2) C_(k-2); for lam = 1/2 (Legendre) every value is dyadic.
    """
    lam, prev, cur = (p - 1) / 2.0, [], [1.0]
    for k in range(1, l + 1):
        nxt = [2.0 * (k + lam - 1.0) * c for c in [0.0] + cur]
        for j, c in enumerate(prev):
            nxt[j] -= (k + 2.0 * lam - 2.0) * c
        prev, cur = cur, [c / k for c in nxt]
    return tuple(c * math.perm(j + m, m) for j, c in enumerate(cur[m:]))


def _gegenbauer_norm(p: int, l: int, m: int) -> float:
    """The integral of (1-u^2)^(m+(p-2)/2) (d^m/du^m C^((p-1)/2)_l)^2 over [-1, 1]: pi^[p odd] times one int / int."""
    h, f = (p - 1) // 2, math.factorial
    if p % 2:
        return math.pi * (f(l + m + p - 2) / (2 ** (p - 2) * f(l - m) * (l + h) * f(h - 1) ** 2))
    return 2 * 4**h * f(l + m + p - 2) * f(h) ** 2 / (f(l - m) * (2 * l + p - 1) * f(2 * h) ** 2)


def _round_harmonic(bg: Background, head: tuple[int, ...]) -> AmbientPolynomial:
    """The normalized harmonic ``head`` = (degree, label) on the round factor, or 1 without a round factor.

    The circle's harmonic is Re/Im (x_0 + i x_1)^|m_1|; each S^p, p >= 2, multiplies in
    sum_j q_j x_p^j |x|^(m_p - m - j) over its first p + 1 coordinates, m = |m_(p-1)| and q the coefficients
    of d^m/du^m C^((p-1)/2)_(m_p).  The squared norm is the density on the sphere times r^(2l) times the
    circle's integral and one Gegenbauer norm per S^p.
    """
    n, d = bg.sphere_n, bg.ambient_dim
    if not n:
        return AmbientPolynomial.constant(d, 1.0)
    chain = _chains(n, head[0])[head[1]]
    poly, m, angular = _circle_harmonic(chain[0], d), abs(chain[0]), math.pi * (2 if chain[0] == 0 else 1)
    for p, mp in enumerate(chain[1:], start=2):
        rho_sq = AmbientPolynomial(d, {tuple(2 * (i == a) for i in range(d)): 1.0 for a in range(p + 1)})
        radial = AmbientPolynomial.zero(d)
        for j, q in enumerate(_gegenbauer_derivative(p, mp, m)):
            if q:  # the coefficients have the parity of m_p - m
                x_p = AmbientPolynomial.monomial(d, [j * (i == p) for i in range(d)], q)
                radial = radial + rho_sq.power((mp - m - j) // 2) * x_p
        poly, angular, m = poly * radial, angular * _gegenbauer_norm(p, mp, m), mp
    norm_sq = total_mass(bg) / unit_sphere_area(n) * bg.radius ** (2 * head[0]) * angular
    return poly.scale(1.0 / math.sqrt(norm_sq))


@functools.lru_cache(maxsize=4096)
def mode_function(bg: Background, mode: Mode) -> AmbientPolynomial:
    """The normalized ambient polynomial of a mode (cached): round harmonic times normalized Hermite product."""
    d, head = bg.ambient_dim, 2 if bg.sphere_n else 0
    axial, norm_sq = AmbientPolynomial.constant(d, 1.0), 1.0
    for axis, deg in enumerate(mode.index[head:], start=d - bg.flat_m):
        axial = axial * hermite_polynomial(deg, dim=d, axis=axis)
        norm_sq *= hermite_norm_squared(deg)
    return _round_harmonic(bg, mode.index[:head]) * axial.scale(1.0 / math.sqrt(norm_sq))
