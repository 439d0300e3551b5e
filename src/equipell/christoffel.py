"""Christoffel polynomials, orthonormal bases, and the normalized density probe.

The reciprocal Christoffel polynomial of a positive definite moment matrix M
over basis v is v(x)^T M^{-1} v(x).  On the float backend it is assembled as
sum of squares of the triangular orthonormal family obtained from a Cholesky
factor; on the exact backend M is inverted with Fraction arithmetic so that
polynomial identities come out exactly.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .momkit import (
    GeneratorSet,
    MomentMatrix,
    MomentSequence,
    localizing_matrix,
    riesz_apply,
)
from .mvpoly import Poly

# Reject pivots below this fraction of the largest diagonal entry: Christoffel
# coefficients scale like 1/pivot and would be pure noise past this point.
PIVOT_RTOL = 1e-12


class SingularMatrixError(ArithmeticError):
    """Moment matrix is singular or indefinite; carries the failing pivot."""

    def __init__(self, message, pivot=None, generator=None):
        super().__init__(message)
        self.pivot = pivot
        self.generator = generator


def _leading_pivot(m: np.ndarray, k: int) -> float:
    """Cholesky pivot k of m, from its leading block; -inf if it breaks down."""
    try:
        return np.linalg.cholesky(m[: k + 1, : k + 1])[k, k] ** 2
    except np.linalg.LinAlgError:
        return -np.inf


def checked_cholesky(m: np.ndarray) -> np.ndarray:
    """Lower Cholesky factor, or SingularMatrixError naming the failing pivot.

    The pivots are the squared diagonal of the factor.  Only when the
    factorization breaks down are they recomputed from leading blocks, to
    find where.
    """
    m = np.asarray(m, dtype=float)
    threshold = PIVOT_RTOL * float(np.max(np.diag(m)))
    try:
        lower = np.linalg.cholesky(m)
        pivots = np.diag(lower) ** 2
    except np.linalg.LinAlgError:
        pivots = np.array([_leading_pivot(m, k) for k in range(len(m))])
    bad = np.flatnonzero(pivots <= threshold)
    if bad.size:
        raise SingularMatrixError(
            f"matrix not positive definite: pivot {bad[0]} below "
            f"{threshold:.3e}",
            pivot=int(bad[0]),
        )
    return lower


def _lower_inverse(lower: np.ndarray) -> np.ndarray:
    """Inverse of a lower Cholesky factor.  np.linalg.inv pivots rows and
    leaves roundoff above the diagonal, which np.tril drops so that the
    orthonormal family stays triangular."""
    return np.tril(np.linalg.inv(lower))


def _exact_inverse(mat: MomentMatrix):
    """Fraction Gauss-Jordan inverse of a symmetric PD matrix.

    Eliminating on the diagonal without pivoting makes the pivots the LDL^T
    pivots, so positivity of each one certifies positive definiteness.
    """
    k = mat.size
    a = [[Fraction(mat.entries[i, j]) for j in range(k)] for i in range(k)]
    inv = [[Fraction(int(i == j)) for j in range(k)] for i in range(k)]
    for col in range(k):
        pivot = a[col][col]
        if pivot <= 0:
            raise SingularMatrixError(
                f"matrix not positive definite: pivot {col} is {pivot}",
                pivot=col,
            )
        inv_pivot = Fraction(1) / pivot
        a[col] = [v * inv_pivot for v in a[col]]
        inv[col] = [v * inv_pivot for v in inv[col]]
        for row in range(k):
            if row == col:
                continue
            factor = a[row][col]
            if factor:
                a[row] = [x - factor * y for x, y in zip(a[row], a[col])]
                inv[row] = [x - factor * y for x, y in zip(inv[row], inv[col])]
    return inv


def christoffel_inverse_poly(mat: MomentMatrix) -> Poly:
    """The polynomial v^T M^{-1} v; exact when the matrix is exact.

    On floats this is built as the sum of squares of the orthonormal family,
    which keeps it nonnegative by construction.
    """
    n = len(mat.basis[0])
    if mat.is_exact:
        inv = _exact_inverse(mat)
        out = Poly.zero(n)
        for i, a in enumerate(mat.basis):
            for j, b in enumerate(mat.basis):
                c = inv[i][j]
                if c:
                    out = out + Poly.monomial(tuple(x + y for x, y in zip(a, b)), c)
        return out
    polys = orthonormal_basis(mat).polys
    out = Poly.zero(n, exact=False)
    for p in polys:
        out = out + p * p
    return out


@dataclass(frozen=True)
class OrthonormalBasis:
    """Triangular family P_alpha with identity Gram matrix w.r.t. the source."""

    basis: tuple
    polys: tuple


def orthonormal_basis(mat: MomentMatrix) -> OrthonormalBasis:
    """Orthonormal polynomials from the inverse Cholesky factor.

    Row alpha of L^{-1} gives P_alpha's coefficients over the monomial basis;
    the family is triangular in the graded order with positive leading
    coefficients (L has a positive diagonal).
    """
    m = mat.to_float()
    inv_l = _lower_inverse(checked_cholesky(m.entries))
    n = len(mat.basis[0])
    polys = []
    for row in inv_l:
        terms = {a: c for a, c in zip(mat.basis, row) if c != 0.0}
        polys.append(Poly(n, terms, exact=False))
    return OrthonormalBasis(basis=mat.basis, polys=tuple(polys))


def christoffel_eval(mat: MomentMatrix, point) -> float:
    """Evaluate v^T M^{-1} v at a point as |L^{-1} v|^2, L the Cholesky factor."""
    m = mat.to_float()
    lower = checked_cholesky(m.entries)
    point = tuple(float(c) for c in point)
    v = np.array(
        [float(np.prod([c**e for c, e in zip(point, a)])) for a in mat.basis]
    )
    y = np.linalg.solve(lower, v)
    return float(y @ y)


def pstar_density(genset: GeneratorSet, phi: MomentSequence, t: int) -> Poly:
    """Normalized sum of the per-generator reciprocal Christoffel polynomials.

    Returns (1/c) * sum over active g of g * v^T M_{t-t_g}(g.phi)^{-1} v with
    c the sum of block sizes, so the result integrates to 1 against phi.
    """
    exact = phi.is_exact
    total = Poly.zero(genset.n, exact=exact)
    for g in genset.active(t):
        block = localizing_matrix(phi, g, t - g.half_degree)
        try:
            lam = christoffel_inverse_poly(block)
        except SingularMatrixError as err:
            raise SingularMatrixError(
                f"localizing matrix for generator {g!r} is singular "
                f"(pivot {err.pivot})",
                pivot=err.pivot,
                generator=g,
            ) from None
        contribution = (g if exact else g.to_float()) * lam
        total = total + contribution
    constant = genset.pell_constant(t)
    return total / constant if exact else total * (1.0 / constant)


def weak_convergence_probe(
    genset: GeneratorSet, source, f: Poly, t_list, density_sources=None
) -> list:
    """Integrals of f against the normalized density, one per order in t_list.

    `source` is either a measure model (closed-form moments) or a
    MomentSequence of sufficient order; each value is computed exactly through
    the Riesz functional, no sampling involved.  By default the order-t
    density is built from the restriction of `source` itself; when the
    densities come from separate per-order data (for instance each order's own
    solver output), pass them as `density_sources`, one MomentSequence per
    entry of t_list.
    """
    if density_sources is not None and len(density_sources) != len(t_list):
        raise ValueError("density_sources must match t_list in length")
    out = []
    for k, t in enumerate(t_list):
        needed = 2 * t + max(f.degree, 0)
        if isinstance(source, MomentSequence):
            if source.order < needed:
                raise ValueError(
                    f"degree overflow: probe at t={t} needs order {needed}, "
                    f"source has {source.order}"
                )
            phi = source
        else:
            phi = MomentSequence.from_model(source, needed)
        base = phi if density_sources is None else density_sources[k]
        density = pstar_density(genset, base.restrict(2 * t), t)
        if density.exact and f.exact:
            out.append(riesz_apply(phi, f * density))
        else:
            out.append(
                riesz_apply(phi.to_float(), f.to_float() * density.to_float())
            )
    return out


def trace_identity_value(mat: MomentMatrix) -> float:
    """<M, M^{-1}>, which equals the basis size for any PD matrix."""
    m = mat.to_float()
    inv_l = _lower_inverse(checked_cholesky(m.entries))
    return float(np.trace(inv_l.T @ inv_l @ m.entries))


def poly_grid_csv(poly: Poly, bounds, resolution: int, path) -> None:
    """Sample a 1D or 2D polynomial on a regular grid and write CSV rows.

    bounds is ((lo, hi), ...) per coordinate; output columns are the
    coordinates followed by the value, for plotting by external tools.
    """
    p = poly.to_float()
    axes = [np.linspace(lo, hi, resolution) for lo, hi in bounds]
    if p.n != len(axes):
        raise ValueError(f"bounds rank {len(axes)} does not match dimension {p.n}")
    with open(path, "w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow([f"x{i + 1}" for i in range(p.n)] + ["value"])
        if p.n == 1:
            for x in axes[0]:
                writer.writerow([repr(float(x)), repr(float(p.evaluate((x,))))])
        elif p.n == 2:
            for x in axes[0]:
                for y in axes[1]:
                    writer.writerow(
                        [repr(float(x)), repr(float(y)), repr(float(p.evaluate((x, y))))]
                    )
        else:
            raise ValueError("grid export supports 1 or 2 dimensions")
