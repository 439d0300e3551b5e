"""Riesz functionals, shifted sequences, moment and localizing matrices."""

import random
from fractions import Fraction

import numpy as np
import pytest

import equipell as eq
from equipell.momkit import (
    MomentSequence,
    extension_distance,
    localizing_matrix,
    moment_matrix,
    riesz_apply,
    shifted_sequence,
)
from equipell.mvpoly import Poly, monomial_basis


def test_riesz_normalization(model_moments):
    for key in ("interval", "ball2d", "simplex2d"):
        phi = model_moments(key, 2)
        one = Poly.constant(phi.n, 1)
        assert riesz_apply(phi, one) == 1


def test_riesz_ball_generator_mass(model_moments):
    phi = model_moments("ball2d", 2)
    x, y = Poly.variable(2, 0), Poly.variable(2, 1)
    assert riesz_apply(phi, 1 - x**2 - y**2) == Fraction(1, 3)


def test_riesz_simplex_generator_mass(model_moments):
    phi = model_moments("simplex2d", 2)
    x, y = Poly.variable(2, 0), Poly.variable(2, 1)
    assert riesz_apply(phi, x * (1 - x - y)) == Fraction(1, 15)


def test_riesz_degree_overflow(model_moments):
    phi = model_moments("interval", 2)
    with pytest.raises(ValueError, match="overflow"):
        riesz_apply(phi, Poly.variable(1, 0) ** 3)


def test_shift_by_one_is_identity(model_moments):
    phi = model_moments("ball2d", 4)
    shifted = shifted_sequence(phi, Poly.constant(2, 1))
    assert shifted.values == phi.values
    assert shifted.order == phi.order


def test_shift_interval_mass(model_moments, arcsine_moments):
    # entry 0 of (1-x^2).phi is 1 - m_2 = 1/2; cross-checked by quadrature.
    phi = arcsine_moments(4)
    x = Poly.variable(1, 0)
    shifted = shifted_sequence(phi, 1 - x**2)
    assert shifted.value((0,)) == Fraction(1, 2)
    quad = eq.quadrature_moment(1 - x**2, "interval", (0,), 10)
    assert abs(float(shifted.value((0,))) - quad) < 1e-13


def test_shift_ball_entry(model_moments):
    phi = model_moments("ball2d", 4)
    x, y = Poly.variable(2, 0), Poly.variable(2, 1)
    shifted = shifted_sequence(phi, 1 - x**2 - y**2)
    assert shifted.value((2, 0)) == Fraction(1, 15)
    assert shifted.order == 2


def test_moment_matrix_ball_t1(model_moments):
    phi = model_moments("ball2d", 2)
    mat = moment_matrix(phi, 1)
    expect = [
        [1, 0, 0],
        [0, Fraction(1, 3), 0],
        [0, 0, Fraction(1, 3)],
    ]
    assert [[mat.entries[i, j] for j in range(3)] for i in range(3)] == expect


def test_localizing_matrix_ball_t1(model_moments):
    phi = model_moments("ball2d", 4)
    x, y = Poly.variable(2, 0), Poly.variable(2, 1)
    mat = localizing_matrix(phi, 1 - x**2 - y**2, 1)
    expect = [
        [Fraction(1, 3), 0, 0],
        [0, Fraction(1, 15), 0],
        [0, 0, Fraction(1, 15)],
    ]
    assert [[mat.entries[i, j] for j in range(3)] for i in range(3)] == expect


def test_dirac_at_origin_matrix():
    values = {a: Fraction(int(sum(a) == 0)) for a in monomial_basis(2, 2)}
    phi = MomentSequence(2, 2, values)
    mat = moment_matrix(phi, 1)
    dense = np.array([[float(v) for v in row] for row in mat.entries])
    assert dense[0, 0] == 1.0
    assert np.count_nonzero(dense) == 1


def test_localizing_with_unit_equals_moment_matrix(model_moments):
    phi = model_moments("simplex2d", 4)
    a = localizing_matrix(phi, Poly.constant(2, 1), 2)
    b = moment_matrix(phi, 2)
    assert (a.entries == b.entries).all()


def test_localizing_bilinearity(model_moments):
    phi = model_moments("box2d", 6)
    x, y = Poly.variable(2, 0), Poly.variable(2, 1)
    g, h = 1 - x**2, 1 - y**2
    a, b = Fraction(2, 3), Fraction(-3, 7)
    combo = localizing_matrix(phi, a * g + b * h, 2)
    left = a * localizing_matrix(phi, g, 2).entries + b * localizing_matrix(phi, h, 2).entries
    assert (combo.entries == left).all()


def test_shift_adjoint_identity():
    rng = random.Random(5)
    values = {}
    for alpha in monomial_basis(2, 8):
        values[alpha] = Fraction(rng.randint(1, 9), 10) if sum(alpha) else Fraction(1)
    phi = MomentSequence(2, 8, values)
    for _ in range(10):
        g = Poly(2, {a: Fraction(rng.randint(-3, 3)) for a in monomial_basis(2, 2)})
        p = Poly(2, {a: Fraction(rng.randint(-3, 3)) for a in monomial_basis(2, 2)})
        if g.is_zero():
            continue
        assert riesz_apply(shifted_sequence(phi, g), p) == riesz_apply(phi, g * p)


def test_moment_matrix_symmetry_and_psd(model_moments):
    for key, order in (("interval", 8), ("ball2d", 6), ("simplex2d", 6)):
        phi = model_moments(key, order)
        mat = moment_matrix(phi, order // 2).to_float()
        assert np.array_equal(mat.entries, mat.entries.T)
        assert np.min(np.linalg.eigvalsh(mat.entries)) >= -1e-12


def test_extension_distance_identical(model_moments):
    phi = model_moments("ball2d", 4)
    assert extension_distance(phi, phi) == 0.0


def test_extension_distance_equilibrium_orders(model_moments):
    low = model_moments("ball2d", 2)
    high = model_moments("ball2d", 4)
    assert extension_distance(low, high) == 0.0


def test_extension_distance_dimension_mismatch(model_moments):
    with pytest.raises(ValueError, match="dimension"):
        extension_distance(model_moments("interval", 2), model_moments("ball2d", 2))


def test_moment_sequence_validations():
    degenerate = MomentSequence(1, 2, {(0,): Fraction(0), (1,): Fraction(0), (2,): Fraction(0)})
    with pytest.raises(ValueError, match="strictly positive"):
        degenerate.require_positive_mass()
    with pytest.raises(ValueError, match="degree bound"):
        MomentSequence(1, 0, {(0,): Fraction(1), (3,): Fraction(1)})


def test_generator_set_constant_and_active():
    genset = eq.builtin_set("box2d")
    assert [g.half_degree for g in genset.all_generators()] == [0, 1, 1, 2]
    assert len(genset.active(1)) == 3  # degree-4 generator enters at t = 2
    assert genset.pell_constant(1) == 5
    assert genset.pell_constant(2) == 13


def test_matrix_json_round_trip(model_moments):
    mat = moment_matrix(model_moments("ball2d", 2), 1)
    data = mat.to_jsonable()
    assert data["size"] == 3
    assert data["basis"][1] == [1, 0]
    assert len(data["entries"]) == 9
    assert data["entries"][4] == pytest.approx(1 / 3, abs=1e-16)


def test_generator_set_rejects_zero_generator():
    with pytest.raises(ValueError, match="nonzero"):
        eq.GeneratorSet(n=1, generators=(Poly.zero(1),), radius=Fraction(1))
