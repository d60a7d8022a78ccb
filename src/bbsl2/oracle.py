"""Brute-force matrix-group computations.

Everything here works on plain matrices over an explicit field, with no
black box in sight. The acceptance tests use these enumerations as the
independent ground truth that the black box algorithms are checked
against at desk scale.
"""
from __future__ import annotations

import random

from .backend import Matrix, mat_identity, mat_inv2, mat_mul, mat_neg
from .errors import InputError
from .field import ExplicitField


def u_mat(F: ExplicitField, t: int) -> Matrix:
    return ((F.one, t), (0, F.one))


def v_mat(F: ExplicitField, t: int) -> Matrix:
    return ((F.one, 0), (t, F.one))


def h_mat(F: ExplicitField, t: int) -> Matrix:
    return ((t, 0), (0, F.inv(t)))


def n_mat(F: ExplicitField, t: int) -> Matrix:
    ti = F.inv(t)
    return ((0, t), (ti if F.p == 2 else F.neg(ti), 0))


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


def centralizer_set(F: ExplicitField, elements, m: Matrix, canon=None):
    canon = canon or (lambda m: m)
    m = canon(m)
    out = set()
    for x in elements:
        if canon(mat_mul(F, x, m)) == canon(mat_mul(F, m, x)):
            out.add(x)
    return out


def unipotent_upper_set(F: ExplicitField):
    return {u_mat(F, t) for t in F.elements()}


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


def conj_mat(F: ExplicitField, x: Matrix, g: Matrix) -> Matrix:
    return mat_mul(F, mat_inv2(F, g), mat_mul(F, x, g))
