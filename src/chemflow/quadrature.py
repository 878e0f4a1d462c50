"""Symmetric Gaussian quadrature rules on triangles.

Rules are stored in barycentric coordinates with weights relative to the
element area, so that

    integral over K of f  =  area(K) * sum_i w_i * f(p_i).

Orbit data is from the classical symmetric-rule tables (Dunavant 1985);
requested degrees without a positive-weight rule of their own are served
by the next rule up, so every returned rule has positive weights.
"""

import numbers
from dataclasses import dataclass

import numpy as np

MAX_DEGREE = 8


@dataclass(frozen=True)
class TriangleRule:
    """Quadrature rule exact for polynomials of total degree <= degree."""

    degree: int
    points: np.ndarray  # (nq, 3) barycentric coordinates
    weights: np.ndarray  # (nq,), sums to 1


def _orbits(*groups):
    """Expand (weight, barycentric triple) orbit data into point lists.

    Triples with two equal entries generate 3 cyclic permutations, fully
    distinct triples generate all 6 permutations.
    """
    pts, wts = [], []
    for w, triple in groups:
        a, b, c = triple
        if a == b == c:
            perms = [(a, b, c)]
        elif b == c:
            perms = [(a, b, c), (b, a, c), (b, c, a)]
        else:
            perms = [
                (a, b, c), (c, a, b), (b, c, a),
                (a, c, b), (b, a, c), (c, b, a),
            ]
        for p in perms:
            pts.append(p)
            wts.append(w)
    return np.array(pts), np.array(wts)


_THIRD = 1.0 / 3.0

# degree -> orbit data (weights relative to element area)
_RULES = {
    1: [(1.0, (_THIRD, _THIRD, _THIRD))],
    2: [(_THIRD, (2.0 / 3.0, 1.0 / 6.0, 1.0 / 6.0))],
    4: [
        (0.223381589678011, (0.108103018168070, 0.445948490915965, 0.445948490915965)),
        (0.109951743655322, (0.816847572980459, 0.091576213509771, 0.091576213509771)),
    ],
    5: [
        (0.225, (_THIRD, _THIRD, _THIRD)),
        (0.132394152788506, (0.059715871789770, 0.470142064105115, 0.470142064105115)),
        (0.125939180544827, (0.797426985353087, 0.101286507323456, 0.101286507323456)),
    ],
    6: [
        (0.116786275726379, (0.501426509658179, 0.249286745170910, 0.249286745170910)),
        (0.050844906370207, (0.873821971016996, 0.063089014491502, 0.063089014491502)),
        (0.082851075618374, (0.053145049844817, 0.310352451033784, 0.636502499121399)),
    ],
    8: [
        (0.144315607677787, (_THIRD, _THIRD, _THIRD)),
        (0.095091634267285, (0.081414823414554, 0.459292588292723, 0.459292588292723)),
        (0.103217370534718, (0.658861384496480, 0.170569307751760, 0.170569307751760)),
        (0.032458497623198, (0.898905543365938, 0.050547228317031, 0.050547228317031)),
        (0.027230314174435, (0.008394777409958, 0.263112829634638, 0.728492392955404)),
    ],
}

# degrees 3 and 7 only have rules with a negative weight at this point
# count; promote them to the next positive rule
_DEGREE_TO_RULE = {1: 1, 2: 2, 3: 4, 4: 4, 5: 5, 6: 6, 7: 8, 8: 8}

_CACHE = {}


def triangle_rule(degree):
    """Return a rule exact for all polynomials of total degree <= degree.

    Raises
    ------
    ValueError
        If degree is not an integer (numpy's count, a bool does not) in 1..MAX_DEGREE.
    """
    integral = isinstance(degree, numbers.Integral) and not isinstance(degree, bool)
    if not (integral and 1 <= degree <= MAX_DEGREE):
        raise ValueError(f"quadrature degree must be an integer in 1..{MAX_DEGREE}, got {degree!r}")
    if degree not in _CACHE:
        pts, wts = _orbits(*_RULES[_DEGREE_TO_RULE[degree]])
        pts.setflags(write=False)
        wts.setflags(write=False)
        _CACHE[degree] = TriangleRule(degree=int(degree), points=pts, weights=wts)
    return _CACHE[degree]
