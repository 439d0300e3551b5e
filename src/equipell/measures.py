"""Moments of the reference equilibrium measures, plus quadrature and sampling.

Closed forms (all exact rationals; odd moments vanish by symmetry):

  interval  dx / (pi sqrt(1 - x^2)) on [-1, 1]:
      m_{2k} = C(2k, k) / 4^k.
  box       product of interval weights per axis, so moments factor.
  ball2d    dx dy / (2 pi sqrt(1 - x^2 - y^2)) on the unit disc.  In polar
      coordinates the angular Wallis factor (2p-1)!!(2q-1)!!/(2p+2q)!! and the
      radial Beta integral (p+q)! 2^(p+q) / (2p+2q+1)!! multiply to
      m_{2p,2q} = (2p-1)!! (2q-1)!! / (2p+2q+1)!!,
      reproducing the degree-4 matrix entries 1/3, 1/5, 1/15.
  simplex2d dx dy / (2 pi sqrt(x y (1 - x - y))), the Dirichlet(1/2,1/2,1/2)
      law, with E[x^a y^b] = G(3/2) G(a+1/2) G(b+1/2) / (G(1/2)^2 G(a+b+3/2)).
      Expanding the Gamma halves gives the rational form
      m_{a,b} = (2a-1)!! (2b-1)!! / (2a+2b+1)!!.
  gaussian  mean-zero normal with covariance Sigma; moments by Wick pairing.

The quadrature model absorbs each singular sqrt weight by a classical
substitution so that polynomial integrands become polynomial again, making
tensor Gauss rules exact up to the level bound.
"""

from __future__ import annotations

from fractions import Fraction
from math import comb, pi

import numpy as np

from .momkit import GeneratorSet, MomentSequence
from .mvpoly import basis_size, monomial_basis


class QuadratureOrderError(ValueError):
    """Requested degree exceeds what the quadrature level can integrate exactly."""


class SamplingError(RuntimeError):
    """Rejection sampling failed to produce enough interior points."""


def _double_factorial(k: int) -> int:
    # (-1)!! = 1 by convention.
    out = 1
    while k > 1:
        out *= k
        k -= 2
    return out


def interval_moment(m: int) -> Fraction:
    if m % 2:
        return Fraction(0)
    return Fraction(comb(m, m // 2), 4 ** (m // 2))


def ball2d_moment(a: int, b: int) -> Fraction:
    if a % 2 or b % 2:
        return Fraction(0)
    return Fraction(
        _double_factorial(a - 1) * _double_factorial(b - 1),
        _double_factorial(a + b + 1),
    )


def simplex2d_moment(a: int, b: int) -> Fraction:
    return Fraction(
        _double_factorial(2 * a - 1) * _double_factorial(2 * b - 1),
        _double_factorial(2 * (a + b) + 1),
    )


def _gaussian_moment(sigma: np.ndarray, alpha) -> float:
    # Wick pairing over the list of variable repetitions.
    slots = [i for i, e in enumerate(alpha) for _ in range(e)]

    def pair(rest):
        if not rest:
            return 1.0
        head, tail = rest[0], rest[1:]
        total = 0.0
        for j in range(len(tail)):
            total += sigma[head, tail[j]] * pair(tail[:j] + tail[j + 1 :])
        return total

    if len(slots) % 2:
        return 0.0
    return pair(slots)


class MeasureModel:
    """Moment oracle for one of the named reference measures."""

    def __init__(self, kind: str, n: int, sigma=None, weight=None, level=None, region=None):
        self.kind = kind
        self.n = n
        self.sigma = None if sigma is None else np.asarray(sigma, dtype=float)
        self.weight = weight
        self.level = level
        self.region = region

    @property
    def is_exact(self) -> bool:
        return self.kind in ("interval_arcsine", "box_arcsine", "ball2d", "simplex2d")

    def moment(self, alpha):
        alpha = tuple(alpha)
        if len(alpha) != self.n:
            raise ValueError(f"index {alpha} has wrong dimension for n={self.n}")
        if self.kind == "interval_arcsine":
            return interval_moment(alpha[0])
        if self.kind == "box_arcsine":
            out = Fraction(1)
            for e in alpha:
                out *= interval_moment(e)
            return out
        if self.kind == "ball2d":
            return ball2d_moment(*alpha)
        if self.kind == "simplex2d":
            return simplex2d_moment(*alpha)
        if self.kind == "gaussian":
            return _gaussian_moment(self.sigma, alpha)
        if self.kind == "quadrature":
            return quadrature_moment(self.weight, self.region, alpha, self.level)
        raise ValueError(f"unknown measure kind {self.kind!r}")

    def moments(self, order: int) -> MomentSequence:
        return MomentSequence.from_model(self, order)

    def __repr__(self):
        return f"MeasureModel({self.kind!r}, n={self.n})"


def interval_arcsine() -> MeasureModel:
    return MeasureModel("interval_arcsine", 1)


def box_arcsine(n: int) -> MeasureModel:
    return MeasureModel("box_arcsine", n)


def ball2d() -> MeasureModel:
    return MeasureModel("ball2d", 2)


def simplex2d() -> MeasureModel:
    return MeasureModel("simplex2d", 2)


def gaussian(sigma) -> MeasureModel:
    sigma = np.asarray(sigma, dtype=float)
    return MeasureModel("gaussian", sigma.shape[0], sigma=sigma)


def quadrature(weight, region: str, level: int) -> MeasureModel:
    n = 1 if region == "interval" else 2
    if region == "box" and weight is not None:
        n = weight.n
    return MeasureModel("quadrature", n, weight=weight, level=level, region=region)


MODEL_KEYS = {
    "interval": interval_arcsine,
    "box2d": lambda: box_arcsine(2),
    "ball2d": ball2d,
    "simplex2d": simplex2d,
}


def named_model(key: str) -> MeasureModel:
    try:
        return MODEL_KEYS[key]()
    except KeyError:
        raise ValueError(
            f"unknown model key {key!r}; choose from {sorted(MODEL_KEYS)}"
        ) from None


# -- quadrature -------------------------------------------------------------


def _chebyshev_nodes(level: int) -> np.ndarray:
    k = np.arange(1, level + 1)
    return np.cos((2 * k - 1) * pi / (2 * level))


def _legendre01(level: int):
    x, w = np.polynomial.legendre.leggauss(level)
    return 0.5 * (x + 1.0), 0.5 * w


def quadrature_moment(weight, region: str, alpha, level: int) -> float:
    """Integral of x^alpha * weight against the region's equilibrium measure.

    The sqrt singularities are removed by substitution, so the rule is exact
    (to roundoff) for any polynomial integrand within the level bound.
    """
    alpha = tuple(alpha)
    w_deg = 0 if weight is None else max(weight.degree, 0)
    needed = sum(alpha) + w_deg
    if level < needed + 2:
        raise QuadratureOrderError(
            f"insufficient order: level {level} < degree {needed} + 2"
        )
    wpoly = None if weight is None else weight.to_float()

    def f(coords):
        out = np.ones_like(coords[0])
        for c, e in zip(coords, alpha):
            if e:
                out = out * c**e
        if wpoly is not None:
            out = out * wpoly.evaluate(coords)
        return out

    if region == "interval":
        if len(alpha) != 1:
            raise ValueError("interval region is one-dimensional")
        x = _chebyshev_nodes(level)
        return float(np.mean(f((x,))))

    if region == "box":
        nodes = _chebyshev_nodes(level)
        grids = np.meshgrid(*([nodes] * len(alpha)), indexing="ij")
        return float(np.mean(f(tuple(grids))))

    if region == "ball2d":
        if len(alpha) != 2:
            raise ValueError("ball2d region is two-dimensional")
        # x = sqrt(1-u^2) cos(theta), y = sqrt(1-u^2) sin(theta): the radial
        # factor r dr / sqrt(1-r^2) becomes du on [0, 1].
        u, wu = _legendre01(level)
        m = 2 * level + 1
        theta = 2 * pi * np.arange(m) / m
        r = np.sqrt(1.0 - u**2)
        xs = r[:, None] * np.cos(theta)[None, :]
        ys = r[:, None] * np.sin(theta)[None, :]
        vals = f((xs, ys))
        return float(np.sum(wu[:, None] * vals) / m)

    if region == "simplex2d":
        if len(alpha) != 2:
            raise ValueError("simplex2d region is two-dimensional")
        # x = (1-w^2) cos^2(theta), y = (1-w^2) sin^2(theta): substituting
        # x = u^2, y = v^2 then polar coordinates turns the Dirichlet(1/2)
        # density into the uniform dw and a full-period trig factor.
        u, wu = _legendre01(level)
        m = 2 * level + 1
        theta = 2 * pi * np.arange(m) / m
        s = 1.0 - u**2
        xs = s[:, None] * np.cos(theta)[None, :] ** 2
        ys = s[:, None] * np.sin(theta)[None, :] ** 2
        vals = f((xs, ys))
        return float(np.sum(wu[:, None] * vals) / m)

    raise ValueError(f"unknown region {region!r}")


# -- feasible starts --------------------------------------------------------


# Points are drawn, tested and turned into moments this many at a time, so
# the working arrays stay small whatever the sample budget.  The draws and the
# acceptance test are the same as for one draw of all the points.
START_CHUNK = 1024


def _power_table(col: np.ndarray, top: int) -> np.ndarray:
    """Rows col^0 .. col^top, each row the previous one times col."""
    table = np.empty((top + 1, col.size))
    table[0] = 1.0
    for e in range(1, top + 1):
        np.multiply(table[e - 1], col, out=table[e])
    return table


def uniform_start_moments(
    genset: GeneratorSet,
    t: int,
    samples: int = 200_000,
    seed: int = 0,
) -> MomentSequence:
    """Moments up to degree 2t of the uniform probability measure on S.

    Estimated by rejection sampling in the bounding box [-sqrt(R), sqrt(R)]^n
    with a fixed seed, so starts are reproducible.  The result represents an
    interior-supported measure, hence its moment and localizing matrices are
    positive definite once enough points are accepted.
    """
    rng = np.random.default_rng(seed)
    half = float(np.sqrt(float(genset.radius)))
    generators = [g.to_float() for g in genset.generators]
    # The sum over points of x^alpha is one matrix product per chunk: the
    # monomials in all but the last coordinate (the distinct exponent heads)
    # against the powers of the last coordinate.
    basis = monomial_basis(genset.n, 2 * t)
    exponents = np.array(basis)
    heads, head_of = np.unique(exponents[:, :-1], axis=0, return_inverse=True)
    sums = np.zeros((len(heads), 2 * t + 1))
    kept = 0
    for lo in range(0, samples, START_CHUNK):
        pts = rng.uniform(-half, half, size=(min(START_CHUNK, samples - lo), genset.n))
        coords = tuple(pts[:, i] for i in range(genset.n))
        mask = np.ones(pts.shape[0], dtype=bool)
        for g in generators:
            mask &= g.evaluate(coords) >= 0.0
        chunk = pts[mask]
        kept += chunk.shape[0]
        lead = np.ones((len(heads), chunk.shape[0]))
        for i in range(genset.n - 1):
            lead *= _power_table(chunk[:, i], 2 * t)[heads[:, i]]
        sums += lead @ _power_table(chunk[:, -1], 2 * t).T
    minimum = max(1_000, 20 * basis_size(genset.n, 2 * t))
    if kept < minimum:
        raise SamplingError(
            f"acceptance rate {kept / samples:.2e} left {kept} points "
            f"(need {minimum}); increase the sample budget"
        )
    means = sums[head_of.reshape(-1), exponents[:, -1]] / kept
    return MomentSequence(genset.n, 2 * t, dict(zip(basis, means.tolist())))
