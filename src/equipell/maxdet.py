"""Damped-Newton interior solver for the log-det moment program.

Minimizes -sum_g log det M_{t-t_g}(g . phi) over moment vectors with phi_0
fixed to 1.  The normalization is handled by variable elimination, so the
unknowns are the moments phi_alpha for alpha != 0 up to degree 2t.  Each
block is an affine matrix function M_g(phi) = A_{g,0} + sum_a phi_a A_{g,a},
giving the classical expressions

    gradient   g_a  = -sum_g tr(M_g^{-1} A_{g,a})
    Hessian    H_ab =  sum_g tr(M_g^{-1} A_{g,a} M_g^{-1} A_{g,b})

and a self-concordant objective on which damped Newton with backtracking is
globally convergent.  Each block keeps its A_{g,a} as one dense stack over
the unknowns it touches, so with W = M_g^{-1} both are batched products over
that stack: the gradient is -A^T vec(W) and the Hessian A^T (W ⊗ W) A, formed
as (W A_a W) . A_b for all pairs at once.  The Newton decrement drives
termination; one final step is taken after the threshold is met, which
squares the remaining error.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np

from . import measures
from .christoffel import _lower_inverse
from .momkit import (
    GeneratorSet,
    MomentMatrix,
    MomentSequence,
    extension_distance,
)
from .mvpoly import Poly, monomial_basis

ARMIJO = 0.01
MIN_STEP = 1e-12
TIKHONOV = 1e-12


class SolveError(RuntimeError):
    pass


@dataclass(frozen=True)
class Block:
    """One affine matrix block M_g(x) = const + sum_k x[index[k]] stack[k]:
    the generator, its monomial basis, the coefficient matrix of phi_0 and
    the stacked coefficient matrices of the unknowns the block touches."""

    generator: Poly
    basis: tuple
    const: np.ndarray  # (s, s)
    index: np.ndarray  # (k,) positions in the unknown vector, increasing
    stack: np.ndarray  # (k, s, s)


@dataclass(frozen=True)
class Instance:
    genset: GeneratorSet
    t: int
    var_alphas: tuple
    blocks: tuple

    @property
    def n_vars(self) -> int:
        return len(self.var_alphas)

    def block_matrices(self, x: np.ndarray) -> list:
        return [b.const + np.tensordot(x[b.index], b.stack, axes=1) for b in self.blocks]

    def sequence(self, x: np.ndarray) -> MomentSequence:
        zero = (0,) * self.genset.n
        values = {zero: 1.0}
        values.update({a: float(v) for a, v in zip(self.var_alphas, x)})
        return MomentSequence(self.genset.n, 2 * self.t, values)

    def vector(self, phi: MomentSequence) -> np.ndarray:
        return np.array([float(phi.value(a)) for a in self.var_alphas])


def assemble_instance(genset: GeneratorSet, t: int) -> Instance:
    """Build the per-generator coefficient stacks for order t.

    Entry (i, j) of block g collects g_gamma at alpha = a_i + b_j + gamma.
    Exponents of degree <= 2t are coded in radix 2t + 1, where the code of a
    sum is the sum of the codes, so one table lookup finds each alpha.
    """
    active = genset.active(t)
    if not active:
        raise SolveError(f"no generator admissible at order t={t}")
    if len(active) == 1:
        raise SolveError(
            f"log-det program unbounded at order t={t}: only g_0 = 1 is active, "
            f"so the degree-{2 * t} diagonal moments can grow without limit"
        )
    n = genset.n
    full = monomial_basis(n, 2 * t)
    place = (2 * t + 1) ** np.arange(n)
    table = np.zeros((2 * t + 1) ** n, dtype=np.intp)
    table[np.array(full) @ place] = np.arange(len(full))
    blocks = []
    for g in active:
        basis = monomial_basis(n, t - g.half_degree)
        size = len(basis)
        codes = np.array(basis) @ place
        gammas = np.array(list(g.terms)) @ place
        values = np.array([float(c) for c in g.terms.values()])
        where = table[gammas[:, None, None] + codes[:, None] + codes[None, :]]
        used, slot = np.unique(where, return_inverse=True)
        dense = np.zeros((len(used), size, size))
        rows, cols = np.indices((size, size))
        np.add.at(dense, (slot.reshape(where.shape), rows, cols), values[:, None, None])
        has_const = int(used[0] == 0)
        blocks.append(
            Block(
                generator=g,
                basis=basis,
                const=dense[0] if has_const else np.zeros((size, size)),
                index=used[has_const:] - 1,
                stack=dense[has_const:],
            )
        )
    return Instance(genset=genset, t=t, var_alphas=full[1:], blocks=tuple(blocks))


def _try_cholesky(m: np.ndarray):
    try:
        return np.linalg.cholesky(m)
    except np.linalg.LinAlgError:
        return None


def _objective(instance: Instance, x: np.ndarray):
    """(objective, list of Cholesky factors) or (None, None) if infeasible."""
    factors = []
    total = 0.0
    for m in instance.block_matrices(x):
        lower = _try_cholesky(m)
        if lower is None:
            return None, None
        factors.append(lower)
        total -= 2.0 * float(np.sum(np.log(np.diag(lower))))
    return total, factors


def _derivatives(instance: Instance, factors: list):
    k = instance.n_vars
    grad = np.zeros(k)
    hess = np.zeros((k, k))
    for block, lower in zip(instance.blocks, factors):
        inv_l = _lower_inverse(lower)
        inv_m = inv_l.T @ inv_l
        flat = block.stack.reshape(len(block.index), -1)
        grad[block.index] -= flat @ inv_m.ravel()
        sandwich = (inv_m @ block.stack @ inv_m).reshape(flat.shape)
        hess[np.ix_(block.index, block.index)] += sandwich @ flat.T
    return grad, 0.5 * (hess + hess.T)


@dataclass
class SolveReport:
    set_name: str
    t: int
    rho: float
    rho_dual: float
    phi: MomentSequence
    q_matrices: dict
    stationarity_residual_max: float
    constant: int
    iterations: int
    backtracks: int
    wall_time: float
    converged: bool
    tol: float
    trace: list = field(default_factory=list)
    start_time: float | None = None  # seconds in feasible_start, set by solve()

    def to_jsonable(self, include_trace: bool = False) -> dict:
        basis = monomial_basis(self.phi.n, 2 * self.t)
        out = {
            "set": self.set_name,
            "t": self.t,
            "rho": self.rho,
            "rho_dual": self.rho_dual,
            "duality_gap": abs(self.rho - self.rho_dual),
            "c_t": self.constant,
            "moments": {
                " ".join(map(str, a)): float(self.phi.value(a)) for a in basis
            },
            "q_blocks": {k: m.to_jsonable() for k, m in self.q_matrices.items()},
            "stationarity_residual_max": self.stationarity_residual_max,
            "iterations": self.iterations,
            "backtracks": self.backtracks,
            "wall_time_s": self.wall_time,
            "start_time_s": self.start_time,
            "converged": self.converged,
            "tol": self.tol,
        }
        if include_trace:
            out["trace"] = self.trace
        return out


def _dual_residual_poly(instance: Instance, q_list: list) -> Poly:
    """sum_g g * v^T Q_g v minus the block-size constant, as a polynomial."""
    coeffs = np.zeros(instance.n_vars + 1)
    for block, q in zip(instance.blocks, q_list):
        coeffs[0] += np.vdot(block.const, q)
        coeffs[1 + block.index] += block.stack.reshape(len(block.index), -1) @ q.ravel()
    coeffs[0] -= instance.genset.pell_constant(instance.t)
    alphas = ((0,) * instance.genset.n, *instance.var_alphas)
    return Poly(instance.genset.n, dict(zip(alphas, coeffs.tolist())), exact=False)


def solve_primal(
    instance: Instance,
    start: MomentSequence,
    tol: float = 1e-10,
    max_iter: int = 200,
) -> SolveReport:
    """Damped Newton from a strictly feasible start."""
    begin = time.perf_counter()
    x = instance.vector(start.to_float())
    value, factors = _objective(instance, x)
    if value is None:
        raise SolveError("infeasible start: a block is not positive definite")

    trace = []
    total_backtracks = 0
    converged = False
    iterations = 0
    for iterations in range(1, max_iter + 1):
        grad, hess = _derivatives(instance, factors)
        shift = 0.0
        lower_h = _try_cholesky(hess)
        while lower_h is None:
            shift = TIKHONOV if shift == 0.0 else shift * 100.0
            if shift > 1.0:
                raise SolveError("Hessian numerically singular")
            lower_h = _try_cholesky(hess + shift * np.eye(len(grad)))
        direction = np.linalg.solve(lower_h.T, np.linalg.solve(lower_h, -grad))
        decrement_sq = float(-grad @ direction)
        if decrement_sq < 0.0:
            decrement_sq = 0.0

        step = 1.0
        backtracks = 0
        slope = float(grad @ direction)
        # Deep in the quadratic phase the predicted decrease drops below the
        # objective's floating-point resolution; requiring Armijo descent
        # there truncates the polishing step, so only feasibility is checked.
        resolvable = ARMIJO * abs(slope) > 64.0 * np.finfo(float).eps * max(1.0, abs(value))
        while True:
            candidate = x + step * direction
            cand_value, cand_factors = _objective(instance, candidate)
            if cand_value is not None and (
                not resolvable or cand_value <= value + ARMIJO * step * slope
            ):
                break
            step *= 0.5
            backtracks += 1
            if step < MIN_STEP:
                raise SolveError(
                    f"line search failed at iteration {iterations} "
                    f"(decrement^2 = {decrement_sq:.3e})"
                )
        x, value, factors = candidate, cand_value, cand_factors
        total_backtracks += backtracks
        trace.append(
            {
                "iter": iterations,
                "objective": value,
                "decrement_sq": decrement_sq,
                "step": step,
                "backtracks": backtracks,
            }
        )
        if 0.5 * decrement_sq <= tol:
            converged = True
            break
    if not converged:
        raise SolveError(f"max iterations ({max_iter}) exceeded")

    q_list = []
    rho_dual = 0.0
    for lower in factors:
        inv_l = _lower_inverse(lower)
        q = inv_l.T @ inv_l
        q_list.append(q)
        rho_dual += 2.0 * float(np.sum(np.log(np.diag(inv_l))))
    residual = _dual_residual_poly(instance, q_list)
    phi = instance.sequence(x)
    return SolveReport(
        set_name=instance.genset.name,
        t=instance.t,
        rho=value,
        rho_dual=rho_dual,
        phi=phi,
        q_matrices={
            poly_key(block.generator): MomentMatrix(block.basis, q)
            for block, q in zip(instance.blocks, q_list)
        },
        stationarity_residual_max=float(residual.max_coeff()),
        constant=instance.genset.pell_constant(instance.t),
        iterations=iterations,
        backtracks=total_backtracks,
        wall_time=time.perf_counter() - begin,
        converged=converged,
        tol=tol,
        trace=trace,
    )


def poly_key(g: Poly) -> str:
    return repr(g)


@dataclass(frozen=True)
class DualCertificate:
    constant: int
    residual_max: float
    duality_gap: float
    q_matrices: dict

    def to_jsonable(self) -> dict:
        return {
            "c_t": self.constant,
            "residual_max": self.residual_max,
            "duality_gap": self.duality_gap,
            "q_blocks": {k: m.to_jsonable() for k, m in self.q_matrices.items()},
        }


def dual_certificate(report: SolveReport) -> DualCertificate:
    """Package the dual optimum and its partition-of-unity residual."""
    if not report.converged:
        raise SolveError("dual certificate requires a converged report")
    return DualCertificate(
        constant=report.constant,
        residual_max=report.stationarity_residual_max,
        duality_gap=abs(report.rho - report.rho_dual),
        q_matrices=report.q_matrices,
    )


def feasible_start(
    genset: GeneratorSet,
    t: int,
    samples: int = 200_000,
    seed: int = 0,
    instance: Instance | None = None,
) -> MomentSequence:
    """Uniform-measure start, retried with a larger budget if a block is
    near-singular (possible only when too few points were accepted).
    `instance` is the order-t assembly, built here when not given."""
    if instance is None:
        instance = assemble_instance(genset, t)
    budget = samples
    for attempt in range(3):
        phi = measures.uniform_start_moments(genset, t, samples=budget, seed=seed + attempt)
        value, _ = _objective(instance, instance.vector(phi))
        if value is not None:
            return phi
        budget *= 4
    raise SolveError("could not produce a strictly feasible start")


def solve(
    genset: GeneratorSet,
    t: int,
    tol: float = 1e-10,
    samples: int = 200_000,
    seed: int = 0,
    max_iter: int = 200,
) -> SolveReport:
    """Assemble order t once, draw the feasible start and run damped Newton.
    The report's start_time holds the feasible-start seconds; its wall_time
    covers Newton and the dual only."""
    instance = assemble_instance(genset, t)
    begin = time.perf_counter()
    start = feasible_start(genset, t, samples=samples, seed=seed, instance=instance)
    start_time = time.perf_counter() - begin
    report = solve_primal(instance, start, tol=tol, max_iter=max_iter)
    report.start_time = start_time
    return report


@dataclass(frozen=True)
class SweepRow:
    t: int
    rho: float
    iterations: int


@dataclass(frozen=True)
class SweepTable:
    set_name: str
    rows: tuple
    distances: tuple  # (t, t + 1, max-norm distance, verdict)
    aborted_at: int | None = None

    def to_jsonable(self) -> dict:
        return {
            "set": self.set_name,
            "orders": [
                {"t": r.t, "rho": r.rho, "iterations": r.iterations}
                for r in self.rows
            ],
            "extensions": [
                {
                    "t_low": lo,
                    "t_high": hi,
                    "distance": d,
                    "verdict": v,
                }
                for lo, hi, d, v in self.distances
            ],
            "aborted_at": self.aborted_at,
        }


def extension_sweep(
    genset: GeneratorSet,
    t_from: int,
    t_to: int,
    tol: float = 1e-10,
    verdict_tol: float = 1e-4,
    samples: int = 200_000,
    seed: int = 0,
    max_iter: int = 200,
) -> SweepTable:
    """Solve consecutive orders and compare each optimum with the next.

    A small max-norm distance indicates the higher-order optimum extends the
    lower one (the finite-convergence signature); distances above verdict_tol
    are flagged as non-extensions.
    """
    if t_from > t_to:
        raise ValueError(f"t_from {t_from} exceeds t_to {t_to}")
    rows = []
    reports = []
    aborted_at = None
    for t in range(t_from, t_to + 1):
        try:
            report = solve(genset, t, tol=tol, samples=samples, seed=seed, max_iter=max_iter)
        except (SolveError, measures.SamplingError):
            aborted_at = t
            break
        rows.append(SweepRow(t=t, rho=report.rho, iterations=report.iterations))
        reports.append(report)
    distances = []
    for low, high in zip(reports, reports[1:]):
        d = extension_distance(low.phi, high.phi)
        verdict = "extension" if d <= verdict_tol else "not-an-extension"
        distances.append((low.t, high.t, d, verdict))
    return SweepTable(
        set_name=genset.name,
        rows=tuple(rows),
        distances=tuple(distances),
        aborted_at=aborted_at,
    )


def gradient_fd_check(instance: Instance, phi: MomentSequence, h: float = 1e-5) -> float:
    """Largest relative error of analytic gradient and Hessian-vector products
    against central finite differences at phi."""
    if not 1e-7 <= h <= 1e-4:
        raise ValueError(f"step h={h} outside [1e-7, 1e-4]")
    x = instance.vector(phi.to_float())
    value, factors = _objective(instance, x)
    if value is None:
        raise SolveError("finite-difference check requires a strictly feasible point")
    grad, hess = _derivatives(instance, factors)

    def f_at(y):
        v, _ = _objective(instance, y)
        if v is None:
            raise SolveError("finite-difference step left the feasible region")
        return v

    def grad_at(y):
        v, fac = _objective(instance, y)
        if v is None:
            raise SolveError("finite-difference step left the feasible region")
        return _derivatives(instance, fac)[0]

    scale = float(np.max(np.abs(grad))) or 1.0
    worst = 0.0
    for k in range(instance.n_vars):
        e = np.zeros(instance.n_vars)
        e[k] = h
        fd = (f_at(x + e) - f_at(x - e)) / (2.0 * h)
        worst = max(worst, abs(fd - grad[k]) / scale)
    hscale = float(np.max(np.abs(hess))) or 1.0
    for k in range(instance.n_vars):
        e = np.zeros(instance.n_vars)
        e[k] = h
        fd_col = (grad_at(x + e) - grad_at(x - e)) / (2.0 * h)
        worst = max(worst, float(np.max(np.abs(fd_col - hess[:, k]))) / hscale)
    return worst
