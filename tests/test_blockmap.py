"""The localizing map and its adjoint against per-entry sums written here."""

import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import equipell as eq
from equipell.momkit import MomentSequence, block_map, localizing_matrix
from equipell.mvpoly import monomial_basis

CASES = [
    (name, j, t)
    for name in sorted(eq.BUILTIN)
    for j, g in enumerate(eq.builtin_set(name).all_generators())
    for t in range(1, 5)
    if g.half_degree <= t
]


def random_fraction(rng):
    return Fraction(rng.randint(-60, 60), rng.randint(1, 15))


def random_moments(n, order, seed):
    rng = random.Random(seed)
    values = {a: random_fraction(rng) for a in monomial_basis(n, order)}
    values[(0,) * n] = Fraction(1)
    return MomentSequence(n, order, values)


def generator(name, j):
    return eq.builtin_set(name).all_generators()[j]


@pytest.mark.parametrize("name,j,t", CASES)
def test_localizing_matrix_is_the_entrywise_sum(name, j, t):
    g = generator(name, j)
    phi = random_moments(g.n, 2 * t, seed=len(CASES) * j + t)
    mat = localizing_matrix(phi, g, t - g.half_degree)
    basis = monomial_basis(g.n, t - g.half_degree)
    assert mat.basis == basis
    for i, a in enumerate(basis):
        for k, b in enumerate(basis):
            expected = sum(
                c * phi.values[tuple(x + y + z for x, y, z in zip(a, b, gamma))]
                for gamma, c in g.terms.items()
            )
            assert mat.entries[i, k] == expected
            assert isinstance(mat.entries[i, k], Fraction)


@settings(max_examples=100, deadline=None)
@given(case=st.sampled_from(CASES), rnd=st.randoms(use_true_random=False))
def test_adjoint_is_exact_transpose(case, rnd):
    """<A_g(phi), Q> == <phi, A_g^*(Q)> for symmetric Fraction Q."""
    g = generator(*case[:2])
    bmap = block_map(g, case[2])
    size = len(bmap.basis)
    q = np.empty((size, size), dtype=object)
    for i in range(size):
        for k in range(i, size):
            q[i, k] = q[k, i] = random_fraction(rnd)
    phi = np.array([random_fraction(rnd) for _ in bmap.alphas], dtype=object)
    lhs = sum(bmap.matrix(phi).ravel() * q.ravel())
    rhs = sum(phi * bmap.adjoint(q))
    assert isinstance(lhs, Fraction)
    assert lhs == rhs
