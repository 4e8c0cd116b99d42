"""Quadrature rules against the Dirichlet closed form

    int_T lambda^alpha dx = d! V prod(alpha_i!) / (d + |alpha|)!

on the reference simplex (V = 1/6 for the unit tet, 1/2 for the triangle).
"""

import math
from itertools import product

import numpy as np

from hmaxwell.quadrature import (
    grundmann_moeller,
    segment_rule,
    tet_rule_degree2,
    triangle_rule,
)


def bary_moment(alpha, dim):
    """Mean of prod(lambda_i^alpha_i) over a simplex: d! prod(a_i!)/(d+|a|)!."""
    num = math.factorial(dim) * np.prod([math.factorial(a) for a in alpha])
    return num / math.factorial(dim + sum(alpha))


def rule_moment(bary, w, alpha, volume):
    vals = np.prod(bary ** np.asarray(alpha), axis=1)
    return volume * float(w @ vals)


def test_degree2_shortcut_matches_generic_rule():
    b2, w2 = tet_rule_degree2()
    assert b2.shape == (4, 4)
    for alpha in product(range(3), repeat=4):
        if sum(alpha) > 2:
            continue
        a = rule_moment(b2, w2, alpha, 1.0)
        b = bary_moment(alpha, 3)
        assert abs(a - b) < 1e-14


def test_triangle_rule_moments():
    for degree in range(1, 7):
        bary, w = triangle_rule(degree)
        for alpha in product(range(degree + 1), repeat=3):
            if sum(alpha) > degree:
                continue
            exact = bary_moment(alpha, 2)
            got = rule_moment(bary, w, alpha, 1.0)
            assert abs(got - exact) < 1e-13


def test_segment_rule_is_gauss_legendre_on_unit_interval():
    for degree in range(1, 10):
        t, w = segment_rule(degree)
        assert np.all((t > 0) & (t < 1))
        for p in range(degree + 1):
            exact = 1.0 / (p + 1)
            assert abs(w @ t**p - exact) < 1e-13


def test_grundmann_moeller_weights_sum_to_one():
    for dim in (2, 3):
        for s in range(4):
            bary, w = grundmann_moeller(dim, s)
            assert bary.shape[1] == dim + 1
            assert abs(w.sum() - 1.0) < 1e-12
            # rule must be exact through degree 2s+1
            for alpha in product(range(2 * s + 2), repeat=dim + 1):
                if sum(alpha) > 2 * s + 1:
                    continue
                exact = bary_moment(alpha, dim)
                assert abs(rule_moment(bary, w, alpha, 1.0) - exact) < 1e-12
