"""Involution machinery for black box groups.

Random involutions by powering, Bray's construction, which turns random
group elements into centralizer elements of a given involution, and the
search for an order-3 element inverted by an involution, which closes
the dihedral frame in characteristic 2; that search rejects a candidate
by one power and cubes the power of the accepted one down to order 3,
so it computes no element order.
"""
from __future__ import annotations

import random

from .blackbox import BlackBoxGroup, ElementString, element_order
from .errors import ContractViolation, InputError, MonteCarloFailure

_INVOLUTION_SAMPLES = 600
_ORDER3_SAMPLES = 600


def is_involution(box: BlackBoxGroup, x: ElementString) -> bool:
    """x^2 = 1 and x != 1, tested in that order: a random x mostly fails the first."""
    return box.is_identity(box.mul(x, x)) and not box.is_identity(x)


def to_involution(box: BlackBoxGroup, x: ElementString) -> ElementString | None:
    """Power x up to an involution, or None if x has odd order."""
    o = element_order(box, x)
    if o % 2:
        return None
    return box.power(x, o // 2)


def random_involution(box: BlackBoxGroup, rng: random.Random) -> ElementString:
    for _ in range(_INVOLUTION_SAMPLES):
        i = to_involution(box, box.sample(rng))
        if i is not None:
            return i
    raise MonteCarloFailure("involution search", "no even-order element found")


def bray_element(box: BlackBoxGroup, i: ElementString, g: ElementString) -> ElementString:
    """One element of the centralizer of involution i, from one random g.

    With w = i * i^g of order m, the element g * w^((m-1)/2) centralizes i
    when m is odd (and is then as uniform as g was); w^(m/2) centralizes i
    when m is even.
    """
    w = box.mul(i, box.conj(i, g))
    m = element_order(box, w)
    if m % 2:
        return box.mul(g, box.power(w, (m - 1) // 2))
    return box.power(w, m // 2)


def bray_centralizer(
    box: BlackBoxGroup,
    i: ElementString,
    rng: random.Random,
    count: int = 40,
) -> list[ElementString]:
    """Generators for the centralizer of involution i (Monte Carlo)."""
    out = [i]
    for _ in range(count):
        z = bray_element(box, i, box.sample(rng))
        if not box.commutes(z, i):
            raise ContractViolation("Bray element does not centralize the involution")
        out.append(z)
    return out


def find_order3_inverted(box: BlackBoxGroup, r: ElementString, rng: random.Random) -> ElementString:
    """An element of order 3 inverted by the involution r.

    Products r^x * r are inverted by r for free, and so is every power
    of one; a constant fraction of samples has order divisible by 3 at
    desk scale. With e the box exponent without its factors of 3, the
    power t = s^e is the identity exactly when 3 does not divide the
    order of s, which rejects the candidate. Otherwise t has order 3^a,
    the 3-part of the order of s, and cubing t while t^3 != 1 leaves
    s^(e * 3^(a-1)), of order 3. No element order is computed. The
    exponent bounds the cubings: a t still above order 3 after as many
    cubings as the exponent has factors 3 shows that the box breaks its
    exponent.
    """
    if box.is_identity(r):
        raise InputError("need a nontrivial involution")
    e, cubings = box.exponent, 0
    while e % 3 == 0:
        e, cubings = e // 3, cubings + 1
    for _ in range(_ORDER3_SAMPLES):
        t = box.power(box.mul(box.conj(r, box.sample(rng)), r), e)
        if box.is_identity(t):
            continue
        for _ in range(cubings):
            t3 = box.power(t, 3)
            if box.is_identity(t3):
                return t
            t = t3
        raise ContractViolation("element does not satisfy the advertised exponent")
    raise MonteCarloFailure("order-3 companion", "no conjugate product with order divisible by 3")
