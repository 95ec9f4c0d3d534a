"""Sparse multivariate polynomials over ambient coordinates.

Every closed-form object in this package (plane Hermite modes, circle and
sphere harmonics, weighted-monotonicity test functions) is the restriction of
an ambient polynomial to the shrinker, so a single exact representation
covers evaluation, gradients, and Hessians for all of them.  Terms are kept
as a dict mapping exponent multi-indices to coefficients; arithmetic is exact
whenever the coefficients are (dyadic rationals stay dyadic under add, mul,
diff), which is what lets the spectral identities be checked coefficientwise
rather than at sample points.
"""

from __future__ import annotations

from typing import Iterable, Mapping

import numpy as np


class AmbientPolynomial:
    """Polynomial in ``dim`` ambient coordinates, stored term-sparse."""

    __slots__ = ("dim", "terms")

    def __init__(self, dim: int, terms: Mapping[tuple[int, ...], float]):
        if dim < 1:
            raise ValueError(f"dim must be >= 1, got {dim}")
        clean: dict[tuple[int, ...], float] = {}
        for exps, coeff in terms.items():
            key = tuple(int(e) for e in exps)
            if len(key) != dim or any(e < 0 for e in key):
                raise ValueError(f"bad exponent tuple {exps!r} for dim {dim}")
            c = float(coeff)
            if c != 0.0:
                clean[key] = clean.get(key, 0.0) + c
        self.dim = dim
        self.terms = {k: v for k, v in clean.items() if v != 0.0}

    # -- constructors ------------------------------------------------------

    @classmethod
    def zero(cls, dim: int) -> "AmbientPolynomial":
        return cls(dim, {})

    @classmethod
    def constant(cls, dim: int, value: float) -> "AmbientPolynomial":
        return cls(dim, {(0,) * dim: value})

    @classmethod
    def coordinate(cls, dim: int, axis: int) -> "AmbientPolynomial":
        exps = [0] * dim
        exps[axis] = 1
        return cls(dim, {tuple(exps): 1.0})

    @classmethod
    def monomial(cls, dim: int, exps: Iterable[int], coeff: float = 1.0) -> "AmbientPolynomial":
        return cls(dim, {tuple(exps): coeff})

    @classmethod
    def from_univariate(cls, dim: int, axis: int, coeffs: Iterable[float]) -> "AmbientPolynomial":
        """Lift 1-d power-basis coefficients (index = degree) onto one axis."""
        terms: dict[tuple[int, ...], float] = {}
        for deg, c in enumerate(coeffs):
            if c == 0.0:
                continue
            exps = [0] * dim
            exps[axis] = deg
            terms[tuple(exps)] = float(c)
        return cls(dim, terms)

    # -- algebra -----------------------------------------------------------

    def __add__(self, other: "AmbientPolynomial") -> "AmbientPolynomial":
        if self.dim != other.dim:
            raise ValueError("dimension mismatch")
        out = dict(self.terms)
        for exps, c in other.terms.items():
            out[exps] = out.get(exps, 0.0) + c
        return AmbientPolynomial(self.dim, out)

    def scale(self, factor: float) -> "AmbientPolynomial":
        return AmbientPolynomial(self.dim, {e: c * factor for e, c in self.terms.items()})

    def __mul__(self, other: "AmbientPolynomial") -> "AmbientPolynomial":
        if self.dim != other.dim:
            raise ValueError("dimension mismatch")
        out: dict[tuple[int, ...], float] = {}
        for e1, c1 in self.terms.items():
            for e2, c2 in other.terms.items():
                key = tuple(a + b for a, b in zip(e1, e2))
                out[key] = out.get(key, 0.0) + c1 * c2
        return AmbientPolynomial(self.dim, out)

    def power(self, exponent: int) -> "AmbientPolynomial":
        if exponent < 0:
            raise ValueError("negative power")
        result = AmbientPolynomial.constant(self.dim, 1.0)
        for _ in range(exponent):
            result = result * self
        return result

    def diff(self, axis: int) -> "AmbientPolynomial":
        out: dict[tuple[int, ...], float] = {}
        for exps, c in self.terms.items():
            e = exps[axis]
            if e == 0:
                continue
            key = exps[:axis] + (e - 1,) + exps[axis + 1 :]
            out[key] = out.get(key, 0.0) + c * e
        return AmbientPolynomial(self.dim, out)

    # -- queries -----------------------------------------------------------

    def __repr__(self) -> str:
        body = " + ".join(f"{c!r}*x^{e}" for e, c in sorted(self.terms.items())) or "0"
        return f"AmbientPolynomial({self.dim}, {body})"

    # -- evaluation --------------------------------------------------------

    def eval(self, points: np.ndarray) -> np.ndarray:
        """Evaluate at points of shape (N, dim); returns shape (N,)."""
        pts = np.asarray(points, dtype=float)
        if pts.ndim == 1:
            pts = pts[None, :]
        if pts.shape[1] != self.dim:
            raise ValueError(f"points have dim {pts.shape[1]}, polynomial has dim {self.dim}")
        out = np.zeros(pts.shape[0])
        powers: dict[tuple[int, int], np.ndarray] = {}  # (axis, exponent) -> that coordinate power, taken once
        for exps, c in sorted(self.terms.items()):
            term = np.full(pts.shape[0], c)
            for axis, e in enumerate(exps):
                if e:
                    if (axis, e) not in powers:
                        powers[axis, e] = pts[:, axis] ** e
                    term = term * powers[axis, e]
            out += term
        return out

    def gradient(self) -> tuple["AmbientPolynomial", ...]:
        return tuple(self.diff(axis) for axis in range(self.dim))

    def hessian(self) -> tuple[tuple["AmbientPolynomial", ...], ...]:
        grads = self.gradient()
        return tuple(tuple(g.diff(axis) for axis in range(self.dim)) for g in grads)
