"""Reference values and report checks, computed without the package under test.

Nothing here imports `equipell`.  Equilibrium moments come from the binomial
form (interval, box) and the half-integer Gamma form (disc, simplex), Pell
constants and block sizes from the generators' degrees, and solver blocks are
rebuilt with plain numpy from the moments a report prints.  Every check
returns a list of failure messages; an empty list means the report passed.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import comb, factorial

import numpy as np

# Tolerances for float reports.  The solver stops on a Newton decrement of
# 1e-10; its moments then agree with the closed forms to 3e-14 at ball2d t=6
# and 5e-12 at simplex2d t=5.
MOMENT_TOL = 1e-8
# -sum log det recomputed from the printed moments, relative to max(1, |rho|).
RHO_TOL = 1e-9
# The CLI's own default for `verify --source solver`, and the bound every
# solver report's stationarity residual must meet.
STATIONARITY_TOL = 1e-6
# Riesz value of a float Christoffel contribution against exact moments,
# relative to its block size.
RIESZ_TOL = 1e-6
# `extension_sweep`'s default verdict threshold.
VERDICT_TOL = 1e-4

# Generators as {exponent tuple: coefficient}, the implicit g_0 = 1 first.
_GENERATORS = {
    "interval": (1, ({(0,): 1}, {(0,): 1, (2,): -1})),
    "box2d": (
        2,
        (
            {(0, 0): 1},
            {(0, 0): 1, (2, 0): -1},
            {(0, 0): 1, (0, 2): -1},
            {(0, 0): 1, (2, 0): -1, (0, 2): -1, (2, 2): 1},
        ),
    ),
    "ball2d": (2, ({(0, 0): 1}, {(0, 0): 1, (2, 0): -1, (0, 2): -1})),
    "simplex2d": (
        2,
        (
            {(0, 0): 1},
            {(1, 0): 1, (2, 0): -1, (1, 1): -1},
            {(0, 1): 1, (1, 1): -1, (0, 2): -1},
            {(1, 1): 1},
        ),
    ),
    "ellipsoids2": (
        2,
        ({(0, 0): 1}, {(0, 0): 1, (2, 0): -2, (0, 2): -3}, {(0, 0): 1, (2, 0): -3, (0, 2): -2}),
    ),
    "tvscreen": (2, ({(0, 0): 1}, {(0, 0): 1, (4, 0): -1, (0, 4): -1})),
}

CLOSED_FORM = ("interval", "box2d", "ball2d", "simplex2d")
# Sets invariant under x -> -x, y -> -y and x <-> y: odd moments vanish and
# phi_{a,b} = phi_{b,a} at the optimum (the optimum is unique).
SYMMETRIC = ("ball2d", "box2d", "ellipsoids2", "tvscreen")


def dimension(name: str) -> int:
    return _GENERATORS[name][0]


def half_degree(g: dict) -> int:
    return -(-max(sum(a) for a in g) // 2)


def active_generators(name: str, t: int) -> list:
    return [g for g in _GENERATORS[name][1] if half_degree(g) <= t]


def block_sizes(name: str, t: int) -> list:
    """C(n + t - t_g, n) for each generator with t_g <= t."""
    n = dimension(name)
    return [comb(n + t - half_degree(g), n) for g in active_generators(name, t)]


def pell_constant(name: str, t: int) -> int:
    return sum(block_sizes(name, t))


# -- equilibrium moments ----------------------------------------------------


def _half_gamma(k: int) -> Fraction:
    """Gamma(k + 1/2) / sqrt(pi) = (2k)! / (4^k k!)."""
    return Fraction(factorial(2 * k), 4**k * factorial(k))


def _interval(m: int) -> Fraction:
    return Fraction(0) if m % 2 else Fraction(comb(m, m // 2), 4 ** (m // 2))


@lru_cache(maxsize=None)
def equilibrium_moment(name: str, alpha: tuple) -> Fraction:
    """Exact moment x^alpha of the equilibrium measure of a closed-form set.

    Disc: E[x^2p y^2q] = G(p+1/2) G(q+1/2) sqrt(pi) / (2 pi G(p+q+3/2)).
    Simplex, the Dirichlet(1/2, 1/2, 1/2) law:
        E[x^a y^b] = G(3/2) G(a+1/2) G(b+1/2) / (G(1/2)^2 G(a+b+3/2)).
    Both reduce to h(.) h(.) / (2 h(. + . + 1)) with h(k) = G(k+1/2)/sqrt(pi).
    """
    if name == "interval":
        return _interval(alpha[0])
    if name == "box2d":
        return _interval(alpha[0]) * _interval(alpha[1])
    a, b = alpha
    if name == "ball2d":
        if a % 2 or b % 2:
            return Fraction(0)
        p, q = a // 2, b // 2
        return _half_gamma(p) * _half_gamma(q) / (2 * _half_gamma(p + q + 1))
    if name == "simplex2d":
        return _half_gamma(a) * _half_gamma(b) / (2 * _half_gamma(a + b + 1))
    raise KeyError(f"no closed-form moments for {name!r}")


@lru_cache(maxsize=None)
def monomials(n: int, d: int) -> tuple:
    """Exponent tuples of total degree <= d (graded; the order is immaterial
    to positive definiteness and log det)."""
    if n == 1:
        return tuple((k,) for k in range(d + 1))
    return tuple((k - j, j) for k in range(d + 1) for j in range(k + 1))


def blocks_from_moments(name: str, t: int, moment) -> list:
    """Moment and localizing matrices at order t, built with numpy from a
    moment lookup `moment(alpha) -> float`."""
    n = dimension(name)
    out = []
    for g in active_generators(name, t):
        basis = monomials(n, t - half_degree(g))
        size = len(basis)
        m = np.zeros((size, size))
        for i, a in enumerate(basis):
            for j in range(i, size):
                b = basis[j]
                v = sum(
                    float(c) * moment(tuple(x + y + z for x, y, z in zip(a, b, gamma)))
                    for gamma, c in g.items()
                )
                m[i, j] = m[j, i] = v
        out.append(m)
    return out


def neg_log_det(blocks: list):
    """-sum log det over the blocks, or None if one is not positive definite."""
    total = 0.0
    for m in blocks:
        try:
            lower = np.linalg.cholesky(m)
        except np.linalg.LinAlgError:
            return None
        total -= 2.0 * float(np.sum(np.log(np.diag(lower))))
    return total


def pell_residual(name: str, t: int, blocks: list) -> float:
    """Largest coefficient of sum_g g * v^T M_g^{-1} v - c_t, the generalized
    Pell identity that holds exactly at the log-det optimum."""
    n = dimension(name)
    total: dict = {(0,) * n: -float(pell_constant(name, t))}
    for g, m in zip(active_generators(name, t), blocks):
        basis = monomials(n, t - half_degree(g))
        inv = np.linalg.inv(m)
        for i, a in enumerate(basis):
            for j, b in enumerate(basis):
                for gamma, c in g.items():
                    key = tuple(x + y + z for x, y, z in zip(a, b, gamma))
                    total[key] = total.get(key, 0.0) + float(c) * inv[i, j]
    return max(abs(v) for v in total.values())


@lru_cache(maxsize=None)
def equilibrium_rho(name: str, t: int) -> float:
    """The log-det optimum at order t, from the closed-form moments."""
    return neg_log_det(
        blocks_from_moments(name, t, lambda a: float(equilibrium_moment(name, a)))
    )


# -- report parsing ---------------------------------------------------------


def _literal(items, exact: bool) -> dict:
    out: dict = {}
    for item in items:
        alpha = tuple(int(e) for e in item["exponents"])
        c = Fraction(item["coeff"]) if exact else float(item["coeff"])
        out[alpha] = out.get(alpha, 0) + c
    return {a: c for a, c in out.items() if c != 0}


def _moments(report: dict) -> dict:
    return {tuple(int(e) for e in k.split()): float(v) for k, v in report["moments"].items()}


def _header(report, rc, fields: dict) -> list:
    errors = [] if rc == 0 else [f"exit code {rc}, expected 0"]
    if report is None:
        return errors + ["no JSON report"]
    for key, want in fields.items():
        if report.get(key) != want:
            errors.append(f"{key} = {report.get(key)!r}, expected {want!r}")
    return errors


# -- checks -----------------------------------------------------------------


def check_cheb(report, rc, t: int) -> list:
    """Every order 1..t of T_n^2 + (1 - x^2) U_{n-1}^2 - 1 is the integer zero."""
    errors = _header(report, rc, {"max_order": t, "all_zero": True})
    if report is None:
        return errors
    orders = report.get("orders", [])
    if [row.get("n") for row in orders] != list(range(1, t + 1)):
        errors.append("orders do not list 1..t")
    for row in orders:
        if row.get("identically_zero") is not True or row.get("residual_max") != "0":
            errors.append(f"order {row.get('n')} is not identically zero")
    return errors


def _check_per_generator(report, name: str, t: int, exact: bool) -> tuple:
    """Generator order, half degrees and block sizes; returns (errors, contributions)."""
    errors = []
    rows = report.get("per_generator", [])
    gens = active_generators(name, t)
    if len(rows) != len(gens):
        return [f"{len(rows)} generators reported, expected {len(gens)}"], []
    contributions = []
    for row, g, size in zip(rows, gens, block_sizes(name, t)):
        if _literal(row["generator"], exact=True) != {a: Fraction(c) for a, c in g.items()}:
            errors.append(f"generator {row['generator']} out of order")
        if row.get("half_degree") != half_degree(g) or row.get("block_size") != size:
            errors.append(
                f"block of {row['generator']}: half degree {row.get('half_degree')}, "
                f"size {row.get('block_size')}, expected {half_degree(g)}, {size}"
            )
        contributions.append(_literal(row["contribution"], exact=exact))
    return errors, contributions


def _riesz(poly: dict, name: str):
    return sum(c * equilibrium_moment(name, a) for a, c in poly.items())


def check_verify_exact(report, rc, name: str, t: int) -> list:
    """Exact `verify` on closed-form moments.

    Beyond the reported zero residual, the per-generator contributions
    g * v^T M_g^{-1} v are summed here and must equal c_t exactly, and each
    one, integrated against the reference moments, must give its block size
    (the trace of M_g^{-1} M_g).
    """
    errors = _header(
        report,
        rc,
        {"set": name, "t": t, "c_t": pell_constant(name, t), "pass": True,
         "exact_arithmetic": True, "residual_max": 0.0},
    )
    if report is None:
        return errors
    more, contributions = _check_per_generator(report, name, t, exact=True)
    errors += more
    total: dict = {}
    for poly in contributions:
        for a, c in poly.items():
            total[a] = total.get(a, 0) + c
    residual = {a: c for a, c in total.items() if c != 0}
    if residual != {(0,) * dimension(name): pell_constant(name, t)}:
        errors.append("sum of contributions is not the constant c_t exactly")
    for poly, size in zip(contributions, block_sizes(name, t)):
        value = _riesz(poly, name)
        if value != size:
            errors.append(f"contribution integrates to {value}, expected {size}")
    return errors


def check_verify_solver(report, rc, name: str, t: int) -> list:
    """`verify --source solver`: the float identity holds within the CLI's
    default 1e-6, recomputed here from the per-generator contributions."""
    errors = _header(
        report,
        rc,
        {"set": name, "t": t, "c_t": pell_constant(name, t), "pass": True,
         "exact_arithmetic": False},
    )
    if report is None:
        return errors
    if not report.get("residual_max", np.inf) <= STATIONARITY_TOL:
        errors.append(f"residual {report.get('residual_max')} above {STATIONARITY_TOL}")
    more, contributions = _check_per_generator(report, name, t, exact=False)
    errors += more
    total: dict = {(0,) * dimension(name): -float(pell_constant(name, t))}
    for poly in contributions:
        for a, c in poly.items():
            total[a] = total.get(a, 0.0) + c
    worst = max(abs(c) for c in total.values())
    if not worst <= STATIONARITY_TOL:
        errors.append(f"recomputed Pell residual {worst:.3e} above {STATIONARITY_TOL}")
    if name in CLOSED_FORM:
        for poly, size in zip(contributions, block_sizes(name, t)):
            value = float(_riesz(poly, name))
            if not abs(value - size) <= RIESZ_TOL * size:
                errors.append(f"contribution integrates to {value!r}, expected {size}")
    return errors


def check_solve(report, rc, name: str, t: int) -> list:
    """`solve`: blocks rebuilt from the printed moments are positive definite,
    give the printed rho, and (for closed-form sets) the moments and rho are
    the equilibrium ones."""
    errors = _header(
        report, rc, {"set": name, "t": t, "c_t": pell_constant(name, t), "converged": True}
    )
    if report is None:
        return errors
    stationarity = report.get("stationarity_residual_max", np.inf)
    if not stationarity <= STATIONARITY_TOL:
        errors.append(f"stationarity residual {stationarity} above {STATIONARITY_TOL}")
    sizes = sorted(block["size"] for block in report.get("q_blocks", {}).values())
    if sizes != sorted(block_sizes(name, t)):
        errors.append(f"q block sizes {sizes}, expected {sorted(block_sizes(name, t))}")
    phi = _moments(report)
    n = dimension(name)
    if set(phi) != set(a for a in monomials(n, 2 * t)):
        return errors + ["moment table does not cover degree <= 2t"]
    if phi[(0,) * n] != 1.0:
        errors.append(f"phi_0 = {phi[(0,) * n]}, expected 1")
    blocks = blocks_from_moments(name, t, phi.__getitem__)
    rho = neg_log_det(blocks)
    if rho is None:
        return errors + ["a block rebuilt from the moments is not positive definite"]
    if not abs(rho - report["rho"]) <= RHO_TOL * max(1.0, abs(rho)):
        errors.append(f"-sum log det = {rho!r}, report says {report['rho']!r}")
    # rho is stationary at the optimum, so it barely moves with the moments;
    # the Pell identity does, which makes it the sharper check.
    residual = pell_residual(name, t, blocks)
    if not residual <= STATIONARITY_TOL:
        errors.append(f"Pell residual recomputed from the moments is {residual:.3e}")
    if name in CLOSED_FORM:
        gap = max(abs(v - float(equilibrium_moment(name, a))) for a, v in phi.items())
        if not gap <= MOMENT_TOL:
            errors.append(f"moments differ from the closed form by {gap:.3e}")
        ref = equilibrium_rho(name, t)
        if not abs(ref - report["rho"]) <= RHO_TOL * max(1.0, abs(ref)):
            errors.append(f"rho {report['rho']!r}, equilibrium optimum {ref!r}")
    if name in SYMMETRIC:
        skew = max(
            max(abs(v) for a, v in phi.items() if any(e % 2 for e in a)),
            max(abs(v - phi[a[::-1]]) for a, v in phi.items()),
        )
        if not skew <= MOMENT_TOL:
            errors.append(f"moments break the set's symmetry by {skew:.3e}")
    if name == "ellipsoids2" and t == 1 and not abs(phi[(2, 0)] - 0.1) <= MOMENT_TOL:
        errors.append(f"x^2 moment {phi[(2, 0)]!r}, expected 1/10")
    return errors


def check_sweep(report, rc, name: str, t_from: int, t_to: int, verdict: str) -> list:
    """`extension`: every order solved, each verdict consistent with its
    distance and equal to `verdict`, and closed-form rho at every order."""
    errors = _header(report, rc, {"set": name, "aborted_at": None})
    if report is None:
        return errors
    orders = report.get("orders", [])
    if [row.get("t") for row in orders] != list(range(t_from, t_to + 1)):
        errors.append("orders do not list t_from..t_to")
    pairs = report.get("extensions", [])
    if [(p.get("t_low"), p.get("t_high")) for p in pairs] != [
        (t, t + 1) for t in range(t_from, t_to)
    ]:
        errors.append("extension pairs are not consecutive orders")
    for p in pairs:
        implied = "extension" if p["distance"] <= VERDICT_TOL else "not-an-extension"
        if p.get("verdict") != implied:
            errors.append(f"verdict {p.get('verdict')!r} at distance {p['distance']!r}")
        if p.get("verdict") != verdict:
            errors.append(f"pair {p['t_low']}->{p['t_high']} is {p.get('verdict')!r}, expected {verdict!r}")
    if name in CLOSED_FORM:
        for row in orders:
            ref = equilibrium_rho(name, row["t"])
            if not abs(ref - row["rho"]) <= RHO_TOL * max(1.0, abs(ref)):
                errors.append(f"rho {row['rho']!r} at t={row['t']}, equilibrium {ref!r}")
    return errors
