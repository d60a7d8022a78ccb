"""Brute-force matrix-group computations.

Everything here works on plain matrices over an explicit field, with no
black box in sight. ``closure`` and ``matrix_order_direct`` enumerate:
``selftest`` and the tests use them as independent ground truth at desk
scale. ``random_sl2`` draws the verification inputs and ``psl_canon``
picks a coset representative of the center quotient.
"""
from __future__ import annotations

import random

from .backend import Matrix, mat_identity, mat_mul, mat_neg
from .errors import InputError
from .field import ExplicitField


def psl_canon(F: ExplicitField):
    """Canonical coset representative map for the center quotient."""
    if F.p == 2:
        return lambda m: m
    return lambda m: min(m, mat_neg(F, m))


def closure(F: ExplicitField, gens, canon=None, limit: int = 3_000_000):
    """The subgroup generated by gens, as a set of (canonical) matrices."""
    canon = canon or (lambda m: m)
    gens = [canon(g) for g in gens]
    seen = {canon(mat_identity(F))}
    frontier = list(seen)
    while frontier:
        new = []
        for x in frontier:
            for g in gens:
                y = canon(mat_mul(F, x, g))
                if y not in seen:
                    seen.add(y)
                    new.append(y)
        if len(seen) > limit:
            raise InputError("closure too large to enumerate")
        frontier = new
    return seen


def matrix_order_direct(F: ExplicitField, m: Matrix) -> int:
    """Order by repeated multiplication, no exponent arithmetic."""
    ident = mat_identity(F)
    x, o = m, 1
    while x != ident:
        x = mat_mul(F, x, m)
        o += 1
        if o > F.order ** 4:
            raise InputError("matrix order exceeds the group bound")
    return o


def random_sl2(F: ExplicitField, rng: random.Random) -> Matrix:
    """Uniform over SL2: uniform nonzero top row, uniform fiber below."""
    while True:
        a, b = rng.randrange(F.order), rng.randrange(F.order)
        if a or b:
            break
    if a:
        c = rng.randrange(F.order)
        d = F.mul(F.inv(a), F.add(F.one, F.mul(b, c)))
    else:
        c = F.neg(F.inv(b))
        d = rng.randrange(F.order)
    return ((a, b), (c, d))
