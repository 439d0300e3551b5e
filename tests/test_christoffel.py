"""Christoffel polynomials, orthonormal families, and the density probe."""

import csv
import math
from fractions import Fraction

import numpy as np
import pytest

import equipell as eq
from equipell.christoffel import (
    SingularMatrixError,
    checked_cholesky,
    christoffel_eval,
    christoffel_inverse_poly,
    orthonormal_basis,
    pstar_density,
    trace_identity_value,
    weak_convergence_probe,
)
from equipell.momkit import MomentMatrix, MomentSequence, moment_matrix, riesz_apply
from equipell.mvpoly import Poly, monomial_basis


def _random_pd_matrix(rng, size):
    a = rng.normal(size=(size, size))
    return a @ a.T + size * np.eye(size)


def test_gaussian_block_matrix_gives_quadratic():
    rng = np.random.default_rng(1)
    sigma = _random_pd_matrix(rng, 2)
    m = np.zeros((3, 3))
    m[0, 0] = 1.0
    m[1:, 1:] = sigma
    lam = christoffel_inverse_poly(MomentMatrix(monomial_basis(2, 1), m))
    inv = np.linalg.inv(sigma)
    expect = Poly(
        2,
        {
            (0, 0): 1.0,
            (2, 0): inv[0, 0],
            (1, 1): 2 * inv[0, 1],
            (0, 2): inv[1, 1],
        },
        exact=False,
    )
    assert float((lam - expect).max_coeff()) < 1e-12


def test_interval_t1_diagonal_inverse(arcsine_moments):
    # M = diag(1, 1/2), so the polynomial is 1 + 2 x^2 by direct inversion.
    lam = christoffel_inverse_poly(moment_matrix(arcsine_moments(2), 1))
    x = Poly.variable(1, 0)
    assert lam == 1 + 2 * x**2


def test_identity_matrix_gives_sum_of_monomial_squares():
    mat = MomentMatrix(monomial_basis(2, 1), np.eye(3))
    lam = christoffel_inverse_poly(mat)
    x, y = Poly.variable(2, 0).to_float(), Poly.variable(2, 1).to_float()
    assert float((lam - (1.0 + x * x + y * y)).max_coeff()) < 1e-15


def test_exact_and_float_routes_agree(model_moments):
    for key, t in (("ball2d", 2), ("simplex2d", 2), ("box2d", 2)):
        exact_mat = moment_matrix(model_moments(key, 2 * t), t)
        lam_exact = christoffel_inverse_poly(exact_mat).to_float()
        lam_float = christoffel_inverse_poly(exact_mat.to_float())
        assert float((lam_exact - lam_float).max_coeff()) < 1e-10


def test_orthonormal_family_is_scaled_chebyshev_first_kind(arcsine_moments):
    family = orthonormal_basis(moment_matrix(arcsine_moments(4), 2))
    for order in (1, 2):
        target = math.sqrt(2) * eq.chebyshev("first", order).to_float()
        err = float((family.polys[order] - target).max_coeff())
        assert err < 1e-12
    assert float((family.polys[0] - Poly.constant(1, 1.0, exact=False)).max_coeff()) < 1e-12


def test_orthonormal_family_under_generator_is_scaled_second_kind(arcsine_moments):
    x = Poly.variable(1, 0)
    phi = arcsine_moments(4)
    mat = eq.localizing_matrix(phi, 1 - x**2, 1)
    family = orthonormal_basis(mat)
    for order in (0, 1):
        target = math.sqrt(2) * eq.chebyshev("second", order).to_float()
        assert float((family.polys[order] - target).max_coeff()) < 1e-12


def test_orthonormal_identity_matrix_returns_monomials():
    family = orthonormal_basis(MomentMatrix(monomial_basis(2, 1), np.eye(3)))
    assert family.polys[1] == Poly.variable(2, 0).to_float()
    assert family.polys[2] == Poly.variable(2, 1).to_float()


def test_gram_identity(model_moments):
    phi = model_moments("simplex2d", 4)
    mat = moment_matrix(phi, 2)
    family = orthonormal_basis(mat)
    for i, p in enumerate(family.polys):
        for j, q in enumerate(family.polys):
            inner = float(riesz_apply(phi.to_float(), p * q))
            assert abs(inner - float(i == j)) < 1e-9


def test_sum_of_squares_matches_direct_inverse_on_random_pd():
    rng = np.random.default_rng(42)
    basis = monomial_basis(2, 2)
    for _ in range(10):
        m = _random_pd_matrix(rng, len(basis))
        mat = MomentMatrix(basis, m)
        lam = christoffel_inverse_poly(mat)
        inv = np.linalg.inv(m)
        direct = Poly.zero(2, exact=False)
        for i, a in enumerate(basis):
            for j, b in enumerate(basis):
                direct = direct + Poly.monomial(
                    tuple(u + v for u, v in zip(a, b)), inv[i, j], exact=False
                )
        assert float((lam - direct).max_coeff()) < 1e-10


def test_christoffel_poly_is_nonnegative_everywhere(model_moments):
    lam = christoffel_inverse_poly(moment_matrix(model_moments("ball2d", 4), 2))
    lam = lam.to_float()
    rng = np.random.default_rng(3)
    pts = rng.uniform(-2.0, 2.0, size=(1000, 2))
    vals = lam.evaluate((pts[:, 0], pts[:, 1]))
    assert np.min(vals) >= 0.0


def test_christoffel_eval_interval_points(arcsine_moments):
    mat = moment_matrix(arcsine_moments(2), 1)
    assert abs(christoffel_eval(mat, (0.0,)) - 1.0) < 1e-12
    assert abs(christoffel_eval(mat, (1.0,)) - 3.0) < 1e-12


def test_christoffel_eval_agrees_with_polynomial(model_moments):
    mat = moment_matrix(model_moments("simplex2d", 4), 2)
    lam = christoffel_inverse_poly(mat).to_float()
    rng = np.random.default_rng(9)
    for _ in range(20):
        pt = rng.uniform(-1.0, 1.0, size=2)
        assert abs(christoffel_eval(mat, pt) - lam.evaluate(tuple(pt))) < 1e-10


def test_eval_at_origin_is_top_left_inverse_entry():
    rng = np.random.default_rng(4)
    m = _random_pd_matrix(rng, 3)
    mat = MomentMatrix(monomial_basis(2, 1), m)
    assert abs(christoffel_eval(mat, (0.0, 0.0)) - np.linalg.inv(m)[0, 0]) < 1e-12


def test_singular_matrix_error_names_pivot():
    mat = MomentMatrix(monomial_basis(1, 1), np.array([[1.0, 1.0], [1.0, 1.0]]))
    with pytest.raises(SingularMatrixError) as err:
        christoffel_inverse_poly(mat)
    assert err.value.pivot == 1
    exact = MomentMatrix(
        monomial_basis(1, 1),
        np.array([[Fraction(1), Fraction(1)], [Fraction(1), Fraction(1)]], dtype=object),
    )
    with pytest.raises(SingularMatrixError):
        christoffel_inverse_poly(exact)


@pytest.mark.parametrize(
    "diagonal, pivot",
    [
        ([1.0, 1e-14], 1),  # factorizes; the pivot is read off the factor
        ([1.0, 1e-14, -1.0], 1),  # breaks down at 2, but pivot 1 is too small
        ([1.0, 2.0, -1.0], 2),
    ],
)
def test_checked_cholesky_names_first_pivot_below_tolerance(diagonal, pivot):
    with pytest.raises(SingularMatrixError) as err:
        checked_cholesky(np.diag(diagonal))
    assert err.value.pivot == pivot


def test_orthonormal_family_is_exactly_triangular(model_moments):
    rng = np.random.default_rng(11)
    basis = monomial_basis(2, 3)
    mats = (
        moment_matrix(model_moments("simplex2d", 8), 4).to_float(),
        MomentMatrix(basis, _random_pd_matrix(rng, len(basis))),
    )
    for mat in mats:
        for k, p in enumerate(orthonormal_basis(mat).polys):
            assert set(p.terms) <= set(mat.basis[: k + 1])
            assert mat.basis[k] in p.terms


def test_trace_identity(model_moments):
    for key, t in (("interval", 3), ("ball2d", 2), ("simplex2d", 1)):
        phi = model_moments(key, 2 * t)
        mat = moment_matrix(phi, t)
        assert abs(trace_identity_value(mat) - len(mat.basis)) < 1e-9
        # equivalently, the christoffel polynomial integrates to the basis size
        lam = christoffel_inverse_poly(mat)
        assert riesz_apply(phi, lam) == len(mat.basis)


@pytest.mark.parametrize("t", range(1, 9))
def test_pstar_interval_is_exactly_one(t, arcsine_moments):
    genset = eq.builtin_set("interval")
    phi = arcsine_moments(2 * t)
    assert pstar_density(genset, phi, t) == 1


def test_pstar_ball_t1_is_one(model_moments):
    genset = eq.builtin_set("ball2d")
    assert pstar_density(genset, model_moments("ball2d", 2), 1) == 1


def test_pstar_simplex_t1_is_one(model_moments):
    genset = eq.builtin_set("simplex2d")
    assert pstar_density(genset, model_moments("simplex2d", 2), 1) == 1


def test_pstar_integrates_to_one_float_route():
    genset = eq.builtin_set("ball2d")
    phi = eq.uniform_start_moments(genset, 2)
    density = pstar_density(genset, phi, 2)
    assert abs(riesz_apply(phi, density) - 1.0) < 1e-10


def test_pstar_singular_names_generator():
    genset = eq.builtin_set("ball2d")
    values = {a: Fraction(int(sum(a) == 0)) for a in monomial_basis(2, 2)}
    dirac = MomentSequence(2, 2, values)
    with pytest.raises(SingularMatrixError, match="generator"):
        pstar_density(genset, dirac, 1)


def test_probe_constant_function_gives_one(model_moments):
    genset = eq.builtin_set("ball2d")
    vals = weak_convergence_probe(
        genset, eq.named_model("ball2d"), Poly.constant(2, 1), [1, 2, 3]
    )
    assert vals == [1, 1, 1]


def test_probe_interval_square_function_exact():
    genset = eq.builtin_set("interval")
    f = Poly.variable(1, 0) ** 2
    vals = weak_convergence_probe(genset, eq.named_model("interval"), f, list(range(1, 9)))
    assert vals == [Fraction(1, 2)] * 8


def test_probe_rejects_short_sequences(model_moments):
    genset = eq.builtin_set("ball2d")
    f = Poly.variable(2, 0) ** 2
    with pytest.raises(ValueError, match="overflow"):
        weak_convergence_probe(genset, model_moments("ball2d", 4), f, [2])


def test_poly_grid_csv(tmp_path, model_moments):
    lam = christoffel_inverse_poly(moment_matrix(model_moments("ball2d", 2), 1))
    path = tmp_path / "grid.csv"
    eq.christoffel.poly_grid_csv(lam, ((-1, 1), (-1, 1)), 5, path)
    with open(path) as handle:
        rows = list(csv.reader(handle))
    assert rows[0] == ["x1", "x2", "value"]
    assert len(rows) == 1 + 25
    x, y, value = map(float, rows[1])
    assert abs(value - float(lam.to_float().evaluate((x, y)))) < 1e-12


@pytest.mark.parametrize("name,t", [("simplex2d", 3), ("box2d", 2)])
def test_weighted_christoffel_is_generator_times_plain(name, t, model_moments):
    genset = eq.builtin_set(name)
    phi = model_moments(name, 2 * t)
    for g in genset.active(t):
        block = eq.localizing_matrix(phi, g, t - g.half_degree)
        assert christoffel_inverse_poly(block, g) == g * christoffel_inverse_poly(block)
        block = block.to_float()
        weighted = christoffel_inverse_poly(block, g)
        product = g.to_float() * christoffel_inverse_poly(block)
        assert float((weighted - product).max_coeff()) <= 1e-12 * float(product.max_coeff())
