"""Quadrature rules on segments, triangles and tetrahedra.

Simplex rules come from the Grundmann-Moeller construction, which yields a
rule of any odd degree 2s+1 in any dimension from a single closed formula.
Points are returned in barycentric coordinates and weights are normalized to
sum to 1, so integrating f over a simplex S reads

    integral = measure(S) * sum(w_q * f(x_q)).
"""

from functools import lru_cache
from math import factorial

import numpy as np


def _compositions(total, parts):
    # nonnegative integer tuples of given length summing to total, lexicographic
    return [b for b in np.ndindex((total + 1,) * parts) if sum(b) == total]


@lru_cache(maxsize=None)
def grundmann_moeller(dim: int, s: int):
    """Degree-(2s+1) rule on the dim-simplex: (barycentric points, weights)."""
    d = 2 * s + 1
    pts, wts = [], []
    for i in range(s + 1):
        t = d + dim - 2 * i
        coef = (-1.0) ** i * 2.0 ** (-2 * s) * float(t) ** d / (
            factorial(i) * factorial(d + dim - i)
        )
        for beta in _compositions(s - i, dim + 1):
            pts.append([(2 * b + 1) / t for b in beta])
            wts.append(coef)
    pts = np.array(pts)
    wts = np.array(wts)
    return pts, wts / wts.sum()


@lru_cache(maxsize=None)
def tet_rule_degree2():
    """Classical 4-point tet rule, exact for quadratics."""
    a = (5.0 + 3.0 * np.sqrt(5.0)) / 20.0
    b = (5.0 - np.sqrt(5.0)) / 20.0
    pts = np.full((4, 4), b)
    np.fill_diagonal(pts, a)
    return pts, np.full(4, 0.25)


def triangle_rule(degree: int):
    s = max(0, (degree - 1 + 1) // 2)
    return grundmann_moeller(2, s)


@lru_cache(maxsize=None)
def segment_rule(degree: int):
    """Gauss-Legendre nodes/weights on [0, 1], exact for the given degree."""
    npts = max(1, (degree + 2) // 2)  # 2*npts - 1 >= degree
    x, w = np.polynomial.legendre.leggauss(npts)
    return (x + 1.0) / 2.0, w / 2.0
