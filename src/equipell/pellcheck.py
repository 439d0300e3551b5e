"""Verification of the classical and generalized Pell identities.

All checks are coefficientwise polynomial identities.  When the moment input
is exact the residual is an exact rational polynomial (zero when the identity
holds); a secondary evaluation at random points is kept as a smoke test only.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import comb

import numpy as np

from .christoffel import christoffel_inverse_poly, orthonormal_basis
from .momkit import (
    GeneratorSet,
    MomentMatrix,
    MomentSequence,
    block_map,
    localizing_matrix,
)
from .mvpoly import Poly, chebyshev, poly_to_literal

DEFAULT_TOL = 1e-9
SAMPLE_POINTS = 100


def chebyshev_pell_identity(order: int) -> Poly:
    """Residual T_n^2 + (1 - x^2) U_{n-1}^2 - 1, exactly zero for every n >= 1."""
    if order < 1:
        raise ValueError(f"order must be >= 1, got {order}")
    t_n = chebyshev("first", order)
    u_prev = chebyshev("second", order - 1)
    x = Poly.variable(1, 0)
    return t_n * t_n + (1 - x * x) * (u_prev * u_prev) - 1


@dataclass(frozen=True)
class PellReport:
    set_name: str
    t: int
    constant: int
    residual_max: float
    sample_max: float
    tol: float
    passed: bool
    exact: bool
    per_generator: tuple

    def to_jsonable(self) -> dict:
        return {
            "set": self.set_name,
            "t": self.t,
            "c_t": self.constant,
            "residual_max": self.residual_max,
            "sample_max": self.sample_max,
            "tol": self.tol,
            "pass": self.passed,
            "exact_arithmetic": self.exact,
            "per_generator": list(self.per_generator),
        }


def generalized_pell_residual(
    genset: GeneratorSet,
    phi: MomentSequence,
    t: int,
    tol: float = DEFAULT_TOL,
) -> PellReport:
    """Check sum over active g of g * (reciprocal Christoffel of g.phi) == c_t.

    The residual is reported as the largest absolute coefficient of the
    difference polynomial, with each generator's contribution kept in the
    report.
    """
    exact = phi.is_exact
    residual = Poly.zero(genset.n, exact=exact)
    per_generator = []
    for g in genset.active(t):
        block = localizing_matrix(phi, g, t - g.half_degree)
        term = christoffel_inverse_poly(block, g)
        residual = residual + term
        per_generator.append(
            {
                "generator": poly_to_literal(g),
                "half_degree": g.half_degree,
                "block_size": block.size,
                "contribution": poly_to_literal(term),
            }
        )
    constant = genset.pell_constant(t)
    residual = residual - constant
    residual_max = float(residual.max_coeff())
    sample_max = _sampled_residual(residual, genset.n)
    return PellReport(
        set_name=genset.name,
        t=t,
        constant=constant,
        residual_max=residual_max,
        sample_max=sample_max,
        tol=tol,
        passed=residual_max <= tol,
        exact=exact,
        per_generator=tuple(per_generator),
    )


def _sampled_residual(residual: Poly, n: int) -> float:
    rng = np.random.default_rng(2024)
    pts = rng.uniform(-1.0, 1.0, size=(SAMPLE_POINTS, n))
    p = residual.to_float()
    vals = p.evaluate(tuple(pts[:, i] for i in range(n)))
    if np.isscalar(vals):
        return abs(float(vals))
    return float(np.max(np.abs(vals)))


def top_slice_check(genset: GeneratorSet, phi: MomentSequence, t: int) -> Poly:
    """Residual of the top-degree slice identity at order t.

    Sums g times the squares of the top-degree orthonormal polynomials of each
    shifted measure and subtracts the binomial constant; the result is zero
    whenever the full identity holds at both t and t - 1.
    """
    if t < 1:
        raise ValueError(f"t must be >= 1, got {t}")
    n = genset.n
    residual = Poly.zero(n, exact=False)
    constant = 0
    for g in genset.active(t):
        deg = t - g.half_degree
        block = localizing_matrix(phi, g, deg)
        family = orthonormal_basis(block)
        g_float = g.to_float()
        for alpha, p in zip(family.basis, family.polys):
            if sum(alpha) == deg:
                residual = residual + g_float * (p * p)
        constant += comb(n - 1 + deg, n - 1)
    return residual - float(constant)


class CertificateError(ValueError):
    """Partition-of-unity identity violated; carries the residual polynomial."""

    def __init__(self, message, residual=None):
        super().__init__(message)
        self.residual = residual


@dataclass(frozen=True)
class CertificateMoments:
    moment_candidate: MomentMatrix
    shifted_candidate: MomentMatrix
    phi: MomentSequence
    fit_residual: float


def certificate_to_moments(
    p_gram: np.ndarray,
    q_gram: np.ndarray,
    g: Poly,
    t: int,
    tol: float = 1e-10,
) -> CertificateMoments:
    """Convert Gram certificates of 1 = p + g q into candidate moment matrices.

    p = v_t^T P v_t and q = v_{t-t_g}^T Q v_{t-t_g} must be positive definite
    and satisfy the identity to `tol`.  The inverses of P and Q are candidate
    moment and localizing matrices; a least-squares fit then measures whether
    a single moment sequence reproduces both.
    """
    n = g.n
    # phi -> M_t(phi) and phi -> M_{t-t_g}(g . phi), over the same alphas.
    maps = (block_map(Poly.constant(n, 1), t), block_map(g, t))
    p_gram = np.asarray(p_gram, dtype=float)
    q_gram = np.asarray(q_gram, dtype=float)
    for label, bmap, mat in (("p", maps[0], p_gram), ("q", maps[1], q_gram)):
        size = len(bmap.basis)
        if mat.shape != (size, size):
            raise ValueError(f"{label}_gram must be {size}x{size}")
        eigmin = float(np.min(np.linalg.eigvalsh(mat)))
        if eigmin <= 0:
            raise ValueError(
                f"{label} gram matrix is not positive definite "
                f"(min eigenvalue {eigmin:.3e})"
            )

    alphas = maps[0].alphas
    coeffs = maps[0].adjoint(p_gram) + maps[1].adjoint(q_gram)
    coeffs[0] -= 1.0
    identity = Poly(n, dict(zip(alphas, coeffs)), exact=False)
    if float(identity.max_coeff()) > tol:
        raise CertificateError(
            f"identity 1 = p + g*q violated (max residual coefficient "
            f"{float(identity.max_coeff()):.3e})",
            residual=identity,
        )

    moment_candidate = np.linalg.inv(p_gram)
    shifted_candidate = np.linalg.inv(q_gram)

    # Least-squares fit of one moment vector matching both candidates on
    # their upper triangles.
    unit = np.eye(len(alphas))
    rows, rhs = [], []
    for bmap, cand in zip(maps, (moment_candidate, shifted_candidate)):
        upper = np.triu_indices(len(bmap.basis))
        rows.append(bmap.matrix(unit)[upper])
        rhs.append(cand[upper])
    a_mat = np.vstack(rows)
    b_vec = np.concatenate(rhs)
    solution, *_ = np.linalg.lstsq(a_mat, b_vec, rcond=None)
    fit_residual = float(np.max(np.abs(a_mat @ solution - b_vec)))
    phi = MomentSequence(n, 2 * t, dict(zip(alphas, solution.tolist())))
    return CertificateMoments(
        moment_candidate=MomentMatrix(maps[0].basis, moment_candidate),
        shifted_candidate=MomentMatrix(maps[1].basis, shifted_candidate),
        phi=phi,
        fit_residual=fit_residual,
    )
