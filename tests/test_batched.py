"""Cross-checks of the batched solver paths against per-index formulas."""

import json
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import equipell as eq
from equipell import cli, maxdet, measures
from equipell.maxdet import SolveError, assemble_instance, extension_sweep, feasible_start
from equipell.momkit import MomentSequence, localizing_matrix
from equipell.mvpoly import Poly, monomial_basis

CASES = [(name, t) for name in sorted(eq.BUILTIN) for t in range(1, 5)]


def unbounded(name, t):
    return len(eq.builtin_set(name).active(t)) == 1


@pytest.mark.parametrize("name,t", CASES)
def test_block_matrices_match_localizing(name, t):
    genset = eq.builtin_set(name)
    if unbounded(name, t):
        with pytest.raises(SolveError, match=f"unbounded at order t={t}"):
            assemble_instance(genset, t)
        return
    rng = np.random.default_rng(t)
    basis = monomial_basis(genset.n, 2 * t)
    phi = MomentSequence(genset.n, 2 * t, dict(zip(basis, [1.0, *rng.normal(size=len(basis) - 1)])))
    instance = assemble_instance(genset, t)
    mats = instance.block_matrices(instance.vector(phi))
    assert len(mats) == len(genset.active(t))
    for block, mat in zip(instance.blocks, mats):
        g = block.generator
        direct = localizing_matrix(phi, g, t - g.half_degree).entries.astype(float)
        assert mat.shape == direct.shape
        assert np.max(np.abs(mat - direct)) <= 1e-14 * max(1.0, np.max(np.abs(direct)))


def unit_sequence(n, order, alpha):
    values = {a: 0.0 for a in monomial_basis(n, order)}
    values[alpha] = 1.0
    return MomentSequence(n, order, values)


@pytest.mark.parametrize("name,t", [("interval", 4), ("ball2d", 3), ("box2d", 2), ("tvscreen", 2)])
def test_derivatives_match_trace_formulas(name, t):
    genset = eq.builtin_set(name)
    instance = assemble_instance(genset, t)
    phi = feasible_start(genset, t)
    value, factors = maxdet._objective(instance, instance.vector(phi))
    assert value is not None
    grad, hess = maxdet._derivatives(instance, factors)

    k = instance.n_vars
    ref_grad = np.zeros(k)
    ref_hess = np.zeros((k, k))
    for g in genset.active(t):
        order = t - g.half_degree
        w = np.linalg.inv(localizing_matrix(phi, g, order).entries.astype(float))
        mats = [
            localizing_matrix(unit_sequence(genset.n, 2 * t, a), g, order).entries.astype(float)
            for a in instance.var_alphas
        ]
        for i, a_i in enumerate(mats):
            ref_grad[i] -= np.trace(w @ a_i)
            for j, a_j in enumerate(mats):
                ref_hess[i, j] += np.trace(w @ a_i @ w @ a_j)
    assert np.max(np.abs(grad - ref_grad)) <= 1e-12 * np.max(np.abs(ref_grad))
    assert np.max(np.abs(hess - ref_hess)) <= 1e-12 * np.max(np.abs(ref_hess))
    assert np.array_equal(hess, hess.T)


@pytest.mark.parametrize("name", ["ball2d", "box2d"])
def test_start_moments_match_naive_mean(name):
    genset = eq.builtin_set(name)
    t, samples, seed = 3, 50_000, 5
    phi = measures.uniform_start_moments(genset, t, samples=samples, seed=seed)
    # the same draws and acceptance test, then one np.mean per monomial
    rng = np.random.default_rng(seed)
    half = float(np.sqrt(float(genset.radius)))
    pts = rng.uniform(-half, half, size=(samples, genset.n))
    keep = np.ones(samples, dtype=bool)
    for g in genset.generators:
        keep &= g.to_float().evaluate(tuple(pts.T)) >= 0.0
    pts = pts[keep]
    for alpha in monomial_basis(genset.n, 2 * t):
        mono = np.prod([c**e for c, e in zip(pts.T, alpha)], axis=0)
        # relative to the mean magnitude, the scale of the summation error
        scale = np.mean(np.abs(mono))
        assert abs(phi.value(alpha) - np.mean(mono)) <= 1e-13 * scale, alpha


def test_only_unit_generator_fails_before_sampling(monkeypatch, capsys):
    genset = eq.builtin_set("tvscreen")
    with pytest.raises(SolveError, match="unbounded at order t=1"):
        assemble_instance(genset, 1)
    bare = eq.GeneratorSet(n=1, generators=(), radius=Fraction(1), name="line")
    with pytest.raises(SolveError, match="unbounded at order t=2"):
        assemble_instance(bare, 2)

    def never(*args, **kwargs):
        raise AssertionError("sampled or iterated on an unbounded program")

    monkeypatch.setattr(measures, "uniform_start_moments", never)
    monkeypatch.setattr(maxdet, "_derivatives", never)
    assert cli.main(["solve", "--set", "tvscreen", "--t", "1"]) == cli.NUMERICAL
    assert "unbounded at order t=1" in capsys.readouterr().err
    table = extension_sweep(genset, 1, 2)
    assert table.aborted_at == 1
    assert table.rows == ()


def test_solve_report_has_start_time(capsys):
    assert cli.main(["solve", "--set", "interval", "--t", "2"]) == cli.PASS
    report = json.loads(capsys.readouterr().out)
    assert report["start_time_s"] > 0.0
    assert report["wall_time_s"] > 0.0
    genset = eq.builtin_set("interval")
    direct = maxdet.solve_primal(assemble_instance(genset, 2), feasible_start(genset, 2))
    assert direct.to_jsonable()["start_time_s"] is None


semi_axis_sq = st.fractions(min_value=Fraction(1, 16), max_value=4, max_denominator=16)


@settings(max_examples=15, deadline=None, database=None)
@given(a2=semi_axis_sq, b2=semi_axis_sq, t=st.integers(min_value=1, max_value=3))
def test_feasible_start_on_random_ellipses(a2, b2, t):
    x, y = Poly.variable(2, 0), Poly.variable(2, 1)
    genset = eq.GeneratorSet(
        n=2, generators=(1 - x**2 / a2 - y**2 / b2,), radius=max(a2, b2), name="ellipse"
    )
    phi = feasible_start(genset, t)
    instance = assemble_instance(genset, t)
    for mat in instance.block_matrices(instance.vector(phi)):
        assert np.linalg.eigvalsh(mat)[0] > 0.0
