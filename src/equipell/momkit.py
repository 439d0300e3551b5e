"""Truncated moment sequences, Riesz functionals, moment and localizing matrices.

A sequence of order 2t stores one value per exponent tuple of degree <= 2t.
Values are either all Fraction (exact backend) or all float.  The moment
matrix of order t has entries phi[a + b] over the graded-lex monomial basis;
the localizing matrix of a generator g is the moment matrix of the shifted
sequence (g . phi)_a = sum_gamma g_gamma phi_{a + gamma}.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .mvpoly import Poly, basis_size, monomial_basis


@dataclass(frozen=True)
class MomentSequence:
    """Finite moment vector (phi_alpha) for |alpha| <= order."""

    n: int
    order: int
    values: dict

    def __post_init__(self):
        zero = (0,) * self.n
        if zero not in self.values:
            raise ValueError("moment at alpha = 0 is missing")
        for alpha in self.values:
            if len(alpha) != self.n or sum(alpha) > self.order:
                raise ValueError(f"index {alpha} outside degree bound {self.order}")

    def require_positive_mass(self) -> "MomentSequence":
        """Check the measure-normalization invariant phi_0 > 0.

        Shifted sequences g . phi may carry any leading entry; sequences that
        stand for (probability) measures must pass this check.
        """
        if not self.values[(0,) * self.n] > 0:
            raise ValueError("moment at alpha = 0 must be strictly positive")
        return self

    @property
    def is_exact(self) -> bool:
        return isinstance(self.values[(0,) * self.n], (Fraction, int))

    def value(self, alpha):
        alpha = tuple(alpha)
        if sum(alpha) > self.order:
            raise ValueError(
                f"degree overflow: |{alpha}| > order {self.order}"
            )
        return self.values[alpha]

    def restrict(self, order: int) -> "MomentSequence":
        if order > self.order:
            raise ValueError(f"cannot restrict order {self.order} up to {order}")
        keep = {a: v for a, v in self.values.items() if sum(a) <= order}
        return MomentSequence(self.n, order, keep)

    def to_float(self) -> "MomentSequence":
        return MomentSequence(
            self.n, self.order, {a: float(v) for a, v in self.values.items()}
        )

    @classmethod
    def from_function(cls, n: int, order: int, fn) -> "MomentSequence":
        return cls(n, order, {a: fn(a) for a in monomial_basis(n, order)})

    @classmethod
    def from_model(cls, model, order: int) -> "MomentSequence":
        """Moments of a measure model (see measures.MeasureModel) up to `order`."""
        return cls.from_function(
            n=model.n, order=order, fn=model.moment
        ).require_positive_mass()


@dataclass(frozen=True)
class MomentMatrix:
    """Symmetric matrix over a monomial basis; entries exact (object dtype) or float."""

    basis: tuple
    entries: np.ndarray

    @property
    def size(self) -> int:
        return len(self.basis)

    @property
    def is_exact(self) -> bool:
        return self.entries.dtype == object

    def to_float(self) -> "MomentMatrix":
        if not self.is_exact:
            return self
        return MomentMatrix(self.basis, self.entries.astype(float))

    def to_jsonable(self) -> dict:
        # Row-major entries at 17 significant digits.
        flat = [float(f"%.17g" % float(v)) for v in self.entries.reshape(-1)]
        return {
            "basis": [list(a) for a in self.basis],
            "size": self.size,
            "entries": flat,
        }


@dataclass(frozen=True)
class GeneratorSet:
    """Description of S = {x : g_j(x) >= 0} with g_0 = 1 kept implicit.

    `radius` is an R > 0 with S contained in the ball of radius sqrt(R); it
    bounds the sampling box for feasible starts and the moment growth of
    solver outputs.
    """

    n: int
    generators: tuple
    radius: Fraction
    name: str = ""
    known_measure: str | None = None

    def __post_init__(self):
        if not self.radius > 0:
            raise ValueError("radius must be positive")
        for g in self.generators:
            if not isinstance(g, Poly) or g.n != self.n:
                raise ValueError("generators must be Poly values of matching dimension")

    @property
    def unit(self) -> Poly:
        return Poly.constant(self.n, 1)

    def all_generators(self) -> list:
        """g_0 = 1 followed by the listed generators."""
        return [self.unit, *self.generators]

    def active(self, t: int) -> list:
        """Generators with half-degree <= t (always includes g_0)."""
        return [g for g in self.all_generators() if g.half_degree <= t]

    def pell_constant(self, t: int) -> int:
        """sum over active g of basis_size(n, t - t_g)."""
        return sum(basis_size(self.n, t - g.half_degree) for g in self.active(t))


def riesz_apply(phi: MomentSequence, p: Poly):
    """Apply the Riesz functional: sum of p's coefficients against phi."""
    if p.n != phi.n:
        raise ValueError(f"dimension mismatch: {p.n} vs {phi.n}")
    if p.degree > phi.order:
        raise ValueError(f"degree overflow: deg p = {p.degree} > order {phi.order}")
    total = Fraction(0) if (phi.is_exact and p.exact) else 0.0
    for alpha, c in p.terms.items():
        total = total + c * phi.value(alpha)
    return total


def shifted_sequence(phi: MomentSequence, g: Poly) -> MomentSequence:
    """The sequence g . phi, of order reduced by 2 * half_degree(g)."""
    if g.n != phi.n:
        raise ValueError(f"dimension mismatch: {g.n} vs {phi.n}")
    new_order = phi.order - 2 * g.half_degree
    if new_order < 0:
        raise ValueError(
            f"degree overflow: order {phi.order} too small for generator of "
            f"half-degree {g.half_degree}"
        )
    values = {}
    for alpha in monomial_basis(phi.n, new_order):
        acc = None
        for gamma, c in g.terms.items():
            idx = tuple(a + b for a, b in zip(alpha, gamma))
            term = c * phi.value(idx)
            acc = term if acc is None else acc + term
        values[alpha] = acc if acc is not None else (Fraction(0) if phi.is_exact else 0.0)
    return MomentSequence(phi.n, new_order, values)


def moment_matrix(phi: MomentSequence, t: int) -> MomentMatrix:
    """M_t(phi) with entries phi[a + b]."""
    if 2 * t > phi.order:
        raise ValueError(f"degree overflow: 2t = {2 * t} > order {phi.order}")
    basis = monomial_basis(phi.n, t)
    m = len(basis)
    entries = np.empty((m, m), dtype=object if phi.is_exact else float)
    for i, a in enumerate(basis):
        for j in range(i, m):
            b = basis[j]
            v = phi.value(tuple(x + y for x, y in zip(a, b)))
            entries[i, j] = v
            entries[j, i] = v
    return MomentMatrix(basis, entries)


def localizing_matrix(phi: MomentSequence, g: Poly, t: int) -> MomentMatrix:
    """M_t(g . phi); requires order(phi) >= 2t + 2 * half_degree(g)."""
    if 2 * t + 2 * g.half_degree > phi.order:
        raise ValueError(
            f"degree overflow: need order {2 * t + 2 * g.half_degree}, "
            f"have {phi.order}"
        )
    return moment_matrix(shifted_sequence(phi.restrict(2 * t + 2 * g.half_degree), g), t)


def extension_distance(phi_low: MomentSequence, phi_high: MomentSequence) -> float:
    """Max-norm difference between phi_low and phi_high on phi_low's indices."""
    if phi_low.n != phi_high.n:
        raise ValueError(f"dimension mismatch: {phi_low.n} vs {phi_high.n}")
    if phi_high.order < phi_low.order:
        raise ValueError("phi_high must have order >= phi_low")
    return max(
        abs(float(phi_high.value(a)) - float(phi_low.value(a)))
        for a in monomial_basis(phi_low.n, phi_low.order)
    )
