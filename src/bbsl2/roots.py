"""Roots in an ``ExplicitField`` of polynomials over its prime field.

Polynomials are coefficient lists, low degree first, with entries in the
field F that every function takes as its first argument.
``explicit_isomorphism`` uses ``find_root`` to map a generator of one
presentation onto a root of its minimal polynomial in another.
"""
from __future__ import annotations

import random
from itertools import zip_longest

from . import modp
from .errors import ContractViolation


def _fp_trim(f):
    f = list(f)
    while f and f[-1] == 0:
        f.pop()
    return f


def _fp_mod(F, f, g):
    g = _fp_trim(g)
    f = list(f)
    inv = F.inv(g[-1])
    for i in range(len(f) - len(g), -1, -1):
        c = F.mul(f[i + len(g) - 1], inv)
        if c:
            for j, y in enumerate(g):
                f[i + j] = F.sub(f[i + j], F.mul(c, y))
    return _fp_trim(f[: len(g) - 1])


def _fp_mul(F, f, g):
    out = [0] * (len(f) + len(g) - 1) if f and g else []
    for i, x in enumerate(f):
        if x:
            for j, y in enumerate(g):
                out[i + j] = F.add(out[i + j], F.mul(x, y))
    return _fp_trim(out)


def _fp_gcd(F, f, g):
    f, g = _fp_trim(f), _fp_trim(g)
    while g:
        f, g = g, _fp_mod(F, f, g)
    if f:
        inv = F.inv(f[-1])
        f = [F.mul(c, inv) for c in f]
    return f


def _fp_powmod(F, f, e: int, g):
    out = [F.one]
    f = _fp_mod(F, f, g)
    while e:
        if e & 1:
            out = _fp_mod(F, _fp_mul(F, out, f), g)
        f = _fp_mod(F, _fp_mul(F, f, f), g)
        e >>= 1
    return out


def _smallest_root_char2(f_over_f2: modp.Poly, F) -> int:
    """The smallest root in F, of characteristic 2, of a polynomial over F_2.

    f(a) is the XOR of the powers a^i over the terms i of f; for a != 0,
    a^i = exp[i * log(a) mod (q - 1)] is read from the field's tables.
    """
    if not f_over_f2[0] % 2:
        return 0
    log, exp, _ = F._tables
    n = F.order - 1
    terms = [i for i, c in enumerate(f_over_f2) if c % 2]
    for a in range(1, F.order):
        la, acc = log[a], 0
        for i in terms:
            acc ^= exp[i * la % n]
        if not acc:
            return a
    raise ContractViolation("polynomial has no root in target field")


def find_root(f_over_fp: modp.Poly, F, rng: random.Random) -> int:
    """A root in F of a monic polynomial with prime-subfield coefficients.

    For p = 2, and for any F of order up to 10,000, the smallest root in
    integer order.
    """
    if F.p == 2:
        return _smallest_root_char2(f_over_fp, F)
    f = [F.scalar(c) for c in f_over_fp]
    if F.order <= 10_000:
        for a in F.elements():
            acc = 0
            for c in reversed(f):
                acc = F.add(F.mul(acc, a), c)
            if acc == 0:
                return a
        raise ContractViolation("polynomial has no root in target field")
    # Cantor-Zassenhaus equal-degree splitting, odd characteristic
    x = [0, F.one]
    xq = _fp_powmod(F, x, F.order, f)
    f = _fp_gcd(F, [F.sub(a, b) for a, b in zip_longest(xq, x, fillvalue=0)], f)
    if len(f) < 2:
        raise ContractViolation("polynomial has no root in target field")
    while len(f) > 2:
        a = rng.randrange(F.order)
        shifted = _fp_powmod(F, [a, F.one], (F.order - 1) // 2, f)
        shifted = [F.sub(c, F.one) if i == 0 else c for i, c in enumerate(shifted)] or [F.neg(F.one)]
        g = _fp_gcd(F, shifted, f)
        if 1 < len(g) < len(f):
            f = g
    return F.neg(F.mul(f[0], F.inv(f[1])))
