"""Classical and generalized Pell identity checks, slices, and certificates."""

from fractions import Fraction

import numpy as np
import pytest

import equipell as eq
from equipell.christoffel import SingularMatrixError
from equipell.pellcheck import (
    CertificateError,
    certificate_to_moments,
    chebyshev_pell_identity,
    generalized_pell_residual,
    top_slice_check,
)
from equipell.mvpoly import Poly


@pytest.mark.parametrize("order", [1, 5, 20])
def test_chebyshev_identity_exactly_zero(order):
    residual = chebyshev_pell_identity(order)
    assert residual.is_zero()
    assert residual.max_coeff() == 0


def test_chebyshev_identity_rejects_zero_order():
    with pytest.raises(ValueError):
        chebyshev_pell_identity(0)


@pytest.mark.parametrize("t", range(1, 9))
def test_interval_identity_all_orders(t, arcsine_moments):
    genset = eq.builtin_set("interval")
    report = generalized_pell_residual(genset, arcsine_moments(2 * t), t)
    assert report.constant == 2 * t + 1
    assert report.residual_max == 0.0
    assert report.passed


@pytest.mark.parametrize("t,constant", [(1, 4), (2, 9), (3, 16)])
def test_ball_identity(t, constant, model_moments):
    genset = eq.builtin_set("ball2d")
    report = generalized_pell_residual(genset, model_moments("ball2d", 2 * t), t)
    assert report.constant == constant
    assert report.residual_max == 0.0


@pytest.mark.parametrize("t,constant", [(1, 5), (2, 13)])
def test_box_identity(t, constant, model_moments):
    genset = eq.builtin_set("box2d")
    report = generalized_pell_residual(genset, model_moments("box2d", 2 * t), t)
    assert report.constant == constant
    assert report.residual_max == 0.0


@pytest.mark.parametrize("t,constant", [(1, 6), (2, 15), (3, 28)])
def test_simplex_identity(t, constant, model_moments):
    genset = eq.builtin_set("simplex2d")
    report = generalized_pell_residual(genset, model_moments("simplex2d", 2 * t), t)
    assert report.constant == constant
    assert report.residual_max == 0.0


def test_float_route_residual_small(model_moments):
    genset = eq.builtin_set("ball2d")
    phi = model_moments("ball2d", 6).to_float()
    report = generalized_pell_residual(genset, phi, 3)
    assert not report.exact
    assert report.residual_max <= 1e-10
    assert report.sample_max <= 1e-10
    assert report.passed


def test_report_sampling_smoke_test_consistent():
    # on [-1,1]^n every monomial is bounded by 1, so the sampled residual is
    # at most (number of terms) * (largest coefficient)
    genset = eq.builtin_set("box2d")
    phi = eq.uniform_start_moments(genset, 2)
    report = generalized_pell_residual(genset, phi, 2, tol=1e-9)
    assert not report.passed  # uniform moments do not satisfy the identity
    assert report.sample_max > 1e-3
    bound = report.residual_max * len(eq.monomial_basis(2, 4))
    assert report.sample_max <= bound


def test_report_json_shape(model_moments):
    genset = eq.builtin_set("ball2d")
    report = generalized_pell_residual(genset, model_moments("ball2d", 4), 2)
    data = report.to_jsonable()
    assert data["c_t"] == 9
    assert data["pass"] is True
    assert len(data["per_generator"]) == 2
    assert data["per_generator"][0]["block_size"] == 6
    assert data["per_generator"][1]["block_size"] == 3


def test_top_slice_interval(arcsine_moments):
    genset = eq.builtin_set("interval")
    residual = top_slice_check(genset, arcsine_moments(8), 3)
    assert float(residual.max_coeff()) <= 1e-10


@pytest.mark.parametrize(
    "name,t,constant",
    [("ball2d", 2, 5), ("box2d", 2, 8), ("interval", 3, 2)],
)
def test_top_slice_constants(name, t, constant, model_moments):
    genset = eq.builtin_set(name)
    phi = model_moments(genset.known_measure, 2 * t)
    residual = top_slice_check(genset, phi, t)
    assert float(residual.max_coeff()) <= 1e-10
    # the slice of squares alone sums to the stated constant at the optimum:
    # adding the constant back and integrating gives it.
    squares = residual + float(constant)
    total = eq.riesz_apply(phi.to_float(), squares)
    assert abs(total - constant) < 1e-9


def test_top_slice_telescopes_residuals():
    # For any positive-definite moment input (equilibrium or not), the
    # difference of consecutive full residuals equals the top slice when the
    # active generator set does not change.
    genset = eq.builtin_set("ball2d")
    phi = eq.uniform_start_moments(genset, 2)
    r2 = _residual_poly(genset, phi, 2)
    r1 = _residual_poly(genset, phi.restrict(2), 1)
    slice_residual = top_slice_check(genset, phi, 2)
    gap = (r2 - r1) - slice_residual
    assert float(gap.max_coeff()) < 1e-9


def _residual_poly(genset, phi, t):
    out = Poly.zero(genset.n, exact=False)
    for g in genset.active(t):
        block = eq.localizing_matrix(phi, g, t - g.half_degree)
        out = out + g.to_float() * eq.christoffel_inverse_poly(block.to_float())
    return out - float(genset.pell_constant(t))


def test_certificate_interval_example():
    # p = (1 + 2x^2)/3 and q = 2/3 satisfy p + (1-x^2) q = 1; direct expansion
    # of 1 + 2x^2 + 2(1 - x^2) = 3 fixes the scaling.
    x = Poly.variable(1, 0)
    p_gram = np.diag([1 / 3, 2 / 3])
    q_gram = np.array([[2 / 3]])
    result = certificate_to_moments(p_gram, q_gram, 1 - x**2, 1)
    assert np.allclose(result.moment_candidate.entries, np.diag([3.0, 1.5]))
    assert np.allclose(result.shifted_candidate.entries, [[1.5]])
    assert result.fit_residual < 1e-12
    # consistent with three times the arcsine moments
    assert abs(result.phi.value((0,)) - 3.0) < 1e-12
    assert abs(result.phi.value((2,)) - 1.5) < 1e-12


def test_certificate_rejects_non_pd_q():
    x = Poly.variable(1, 0)
    with pytest.raises(ValueError, match="positive definite"):
        certificate_to_moments(np.eye(2), np.array([[0.0]]), 1 - x**2, 1)


def test_certificate_rejects_identity_violation():
    x = Poly.variable(1, 0)
    rng = np.random.default_rng(12)
    a = rng.normal(size=(2, 2))
    p_gram = a @ a.T + np.eye(2)
    with pytest.raises(CertificateError) as err:
        certificate_to_moments(p_gram, np.array([[1.0]]), 1 - x**2, 1)
    assert err.value.residual is not None


def test_pell_precondition_excludes_high_degree_generators(model_moments):
    # at t = 1 the degree-4 box generator is skipped, leaving constant 5
    genset = eq.builtin_set("box2d")
    report = generalized_pell_residual(genset, model_moments("box2d", 2), 1)
    assert report.constant == 5
    assert len(report.per_generator) == 3


def test_pell_residual_singular_names_generator():
    # uniform measure on the unit circle: the disc generator vanishes on it
    genset = eq.builtin_set("ball2d")
    half = Fraction(1, 2)
    values = {(0, 0): 1, (1, 0): 0, (0, 1): 0, (2, 0): half, (1, 1): 0, (0, 2): half}
    circle = eq.MomentSequence(2, 2, {a: Fraction(v) for a, v in values.items()})
    with pytest.raises(SingularMatrixError, match="generator") as err:
        generalized_pell_residual(genset, circle, 1)
    assert err.value.generator == genset.generators[0]
    assert err.value.pivot == 0
