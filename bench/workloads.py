"""Case lists of the three workloads.

A case is one CLI invocation of `equipell` plus the reference check that
judges its report.  A pass runs every case of its workload once, in order;
runs are made of whole passes so that the mix of cases never changes.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial

import reference as ref

# The simplex solves at t=5 and t=6 report `converged: true` but miss the
# generalized Pell identity (stationarity residual 0.49 and 92) because the
# monomial-basis moment matrices are ill-conditioned.  They are kept as known
# faults, run with a fixed seed so that they fail the same way in every run.
KNOWN_FAULT_SEED = 0
HIGHT_SAMPLES = 20_000


@dataclass(frozen=True)
class Case:
    id: str
    argv: tuple
    check: object  # check(report_or_None, exit_code) -> list of failure messages
    known_fault: str | None = None


def _cheb(t):
    return Case(f"cheb-t{t}", ("cheb", "--t", str(t)), partial(ref.check_cheb, t=t))


def _verify(name, t):
    return Case(
        f"verify-{name}-t{t}",
        ("verify", "--set", name, "--t", str(t)),
        partial(ref.check_verify_exact, name=name, t=t),
    )


def _verify_solver(name, t, seed):
    return Case(
        f"verify-solver-{name}-t{t}",
        ("verify", "--set", name, "--t", str(t), "--source", "solver", "--seed", str(seed)),
        partial(ref.check_verify_solver, name=name, t=t),
    )


def _solve(name, t, seed, samples=None, known_fault=None):
    argv = ("solve", "--set", name, "--t", str(t), "--seed", str(seed))
    if samples is not None:
        argv += ("--samples", str(samples))
    return Case(f"solve-{name}-t{t}", argv, partial(ref.check_solve, name=name, t=t),
                known_fault)


def _sweep(name, t_from, t_to, seed, verdict):
    return Case(
        f"extension-{name}-t{t_from}-{t_to}",
        ("extension", "--set", name, "--t-from", str(t_from), "--t-to", str(t_to),
         "--seed", str(seed)),
        partial(ref.check_sweep, name=name, t_from=t_from, t_to=t_to, verdict=verdict),
    )


def exact_pell(seed):
    """Exact Fraction path only; no case samples, so the seed is unused."""
    cases = [_cheb(55)]
    cases += [_verify("interval", t) for t in (5, 10, 15, 20, 25)]
    cases += [_verify("box2d", t) for t in (2, 4, 6)]
    cases += [_verify("ball2d", t) for t in (2, 4, 6)]
    cases += [_verify("simplex2d", t) for t in (2, 3, 4, 5)]
    return cases, "cheb-t55"


def solve_lowt(seed):
    """Low orders, where the sampled feasible start outweighs Newton.  Orders
    stay inside the solver's reliable range (simplex2d t <= 3, interval
    t <= 6, tvscreen t >= 2)."""
    cases = [
        _solve("interval", 6, seed),
        _solve("box2d", 3, seed),
        _solve("ball2d", 4, seed),
        _solve("simplex2d", 3, seed),
        _solve("ellipsoids2", 1, seed),
        _solve("ellipsoids2", 3, seed),
        _solve("tvscreen", 3, seed),
        _verify_solver("interval", 5, seed),
        _verify_solver("ball2d", 3, seed),
        _verify_solver("ellipsoids2", 2, seed),
        _sweep("ball2d", 1, 4, seed, "extension"),
        _sweep("tvscreen", 2, 4, seed, "not-an-extension"),
    ]
    return cases, "extension-ball2d-t1-4"


def solve_hight(seed):
    """Order-6 solves with a small sample budget, so Newton dominates."""
    fault = "converged, but the Pell identity misses 1e-6 (monomial-basis conditioning)"
    cases = [
        _solve("ball2d", 6, seed, HIGHT_SAMPLES),
        _solve("box2d", 6, seed, HIGHT_SAMPLES),
        _solve("tvscreen", 6, seed, HIGHT_SAMPLES),
        _solve("simplex2d", 5, KNOWN_FAULT_SEED, known_fault=fault),
        _solve("simplex2d", 6, KNOWN_FAULT_SEED, known_fault=fault),
    ]
    return cases, "solve-box2d-t6"


WORKLOADS = {"exact-pell": exact_pell, "solve-lowt": solve_lowt, "solve-hight": solve_hight}
# The calibration kernel whose slowdown on a busy host tracks the workload's
# (see hostspeed.py): solve-lowt is dominated by large-array sampling.
KERNEL = {"exact-pell": "interpreter", "solve-lowt": "array", "solve-hight": "interpreter"}
