#!/usr/bin/env python3
"""Self-test of the reference checks, run from the repository root:

    python3 bench/selftest.py

It confirms the closed-form reference moments against scipy's Beta function
and quadrature, then takes real CLI reports, confirms each passes its check,
and confirms the check rejects a corrupted copy: a moment shifted by 1e-6, a
nonzero exact residual, a flipped sweep verdict, and others.  Exits 1 on the
first check that accepts a corrupted report.
"""

import copy
import json
import os
import sys
from fractions import Fraction
from math import cos, pi, sin, sqrt

os.environ["OPENBLAS_NUM_THREADS"] = "1"

from scipy import integrate, special  # noqa: E402

import reference as ref  # noqa: E402
import run  # noqa: E402

failures = []


def expect(ok, what):
    print(("ok    " if ok else "FAIL  ") + what)
    if not ok:
        failures.append(what)


def test_moment_formulas():
    worst = 0.0
    for k in range(0, 9):
        quad = integrate.quad(lambda th: cos(th) ** k, 0.0, pi)[0] / pi
        worst = max(worst, abs(quad - float(ref.equilibrium_moment("interval", (k,)))))
    for p in range(0, 4):
        for q in range(0, 4):
            # Disc: angular 2 B(p+1/2, q+1/2) times radial B(p+q+1, 1/2) / 2, over 2 pi.
            disc = special.beta(p + 0.5, q + 0.5) * special.beta(p + q + 1, 0.5) / (2 * pi)
            worst = max(worst, abs(disc - float(ref.equilibrium_moment("ball2d", (2 * p, 2 * q)))))
            # Simplex: density 1/(2 pi sqrt(x y (1-x-y))), integrated as two Beta factors.
            simplex = special.beta(q + 0.5, 0.5) * special.beta(p + 0.5, q + 1) / (2 * pi)
            worst = max(worst, abs(simplex - float(ref.equilibrium_moment("simplex2d", (p, q)))))
    # One disc moment by direct quadrature in polar coordinates.
    radial = integrate.quad(lambda r: r**5 / sqrt(1 + r), 0, 1, weight="alg", wvar=(0, -0.5))[0]
    angular = integrate.quad(lambda th: cos(th) ** 2 * sin(th) ** 2, 0, 2 * pi)[0]
    worst = max(worst, abs(radial * angular / (2 * pi) - float(ref.equilibrium_moment("ball2d", (2, 2)))))
    expect(worst < 1e-12, f"closed forms match Beta forms and quadrature ({worst:.1e})")
    expect(ref.equilibrium_moment("ball2d", (2, 2)) == Fraction(1, 15), "disc x^2 y^2 moment is 1/15")
    expect([ref.pell_constant("ball2d", t) for t in (1, 2, 3)] == [4, 9, 16], "ball2d c_t = 4, 9, 16")
    expect([ref.pell_constant("box2d", t) for t in (1, 2)] == [5, 13], "box2d c_t = 5, 13")
    expect([ref.pell_constant("simplex2d", t) for t in (1, 2, 3)] == [6, 15, 28], "simplex2d c_t = 6, 15, 28")
    expect(ref.pell_constant("interval", 7) == 15, "interval c_t = 2t + 1")


def report_of(cli, argv):
    rc, out, _ = run._call(cli, argv)
    return json.loads(out), rc


def test_rejections(cli):
    def clean_and_corrupt(label, check, report, rc, corrupt):
        expect(not check(report, rc), f"{label}: clean report passes")
        for what, mutate in corrupt:
            bad = copy.deepcopy(report)
            bad_rc = mutate(bad)
            expect(bool(check(bad, rc if bad_rc is None else bad_rc)), f"{label}: rejects {what}")

    def shift(key, by):
        def mutate(r):
            r["moments"][key] += by
        return mutate

    for name in ("ball2d", "tvscreen"):
        report, rc = report_of(cli, ["solve", "--set", name, "--t", "3"])
        clean_and_corrupt(
            f"solve {name} t=3",
            lambda r, c, name=name: ref.check_solve(r, c, name=name, t=3),
            report, rc,
            [("a moment shifted by 1e-6", shift("2 2", 1e-6)),
             ("a moment shifted by -1e-6", shift("4 0", -1e-6)),
             ("a stationarity residual of 2e-6",
              lambda r: r.__setitem__("stationarity_residual_max", 2e-6)),
             ("exit code 3", lambda r: 3)],
        )

    report, rc = report_of(cli, ["verify", "--set", "simplex2d", "--t", "3"])

    def nudge_contribution(r):
        term = r["per_generator"][1]["contribution"][0]
        term["coeff"] = str(Fraction(term["coeff"]) + Fraction(1, 10**30))

    clean_and_corrupt(
        "verify simplex2d t=3", lambda r, c: ref.check_verify_exact(r, c, name="simplex2d", t=3),
        report, rc,
        [("a nonzero exact residual", lambda r: r.__setitem__("residual_max", 1e-30)),
         ("a contribution off by 1e-30", nudge_contribution),
         ("a wrong block size", lambda r: r["per_generator"][0].__setitem__("block_size", 9))],
    )

    report, rc = report_of(cli, ["verify", "--set", "ball2d", "--t", "3", "--source", "solver"])

    def shift_contribution(r):
        term = r["per_generator"][0]["contribution"][-1]
        term["coeff"] = repr(float(term["coeff"]) + 1e-5)

    clean_and_corrupt(
        "verify --source solver ball2d t=3",
        lambda r, c: ref.check_verify_solver(r, c, name="ball2d", t=3),
        report, rc, [("a contribution off by 1e-5", shift_contribution)],
    )

    report, rc = report_of(cli, ["extension", "--set", "ball2d", "--t-from", "1", "--t-to", "3"])

    def flip(r):
        r["extensions"][1]["verdict"] = "not-an-extension"

    clean_and_corrupt(
        "extension ball2d 1..3",
        lambda r, c: ref.check_sweep(r, c, name="ball2d", t_from=1, t_to=3, verdict="extension"),
        report, rc,
        [("a flipped sweep verdict", flip),
         ("an aborted sweep", lambda r: r.__setitem__("aborted_at", 3))],
    )

    report, rc = report_of(cli, ["cheb", "--t", "6"])
    clean_and_corrupt(
        "cheb t=6", lambda r, c: ref.check_cheb(r, c, t=6), report, rc,
        [("an order that is not identically zero",
          lambda r: r["orders"][3].__setitem__("identically_zero", False))],
    )


def main():
    test_moment_formulas()
    test_rejections(run._import_program())
    print(f"{len(failures)} failure(s)")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
