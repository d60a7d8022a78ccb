"""Involution machinery for black box groups.

Random involutions by powering, Bray's construction, which turns random
group elements into centralizer elements of a given involution, and the
search for an order-3 element inverted by an involution, which closes
the dihedral frame in characteristic 2.
"""
from __future__ import annotations

import random

from .blackbox import BlackBoxGroup, ElementString, element_order
from .errors import ContractViolation, InputError, MonteCarloFailure


def is_involution(box: BlackBoxGroup, x: ElementString) -> bool:
    return not box.is_identity(x) and box.is_identity(box.mul(x, x))


def to_involution(box: BlackBoxGroup, x: ElementString) -> ElementString | None:
    """Power x up to an involution, or None if x has odd order."""
    o = element_order(box, x)
    if o % 2:
        return None
    return box.power(x, o // 2)


def random_involution(box: BlackBoxGroup, rng: random.Random, budget: int = 400) -> ElementString:
    for _ in range(budget):
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
    check: bool = True,
) -> list[ElementString]:
    """Generators for the centralizer of involution i (Monte Carlo)."""
    out = [i]
    for _ in range(count):
        z = bray_element(box, i, box.sample(rng))
        if check and not box.commutes(z, i):
            raise ContractViolation("Bray element does not centralize the involution")
        out.append(z)
    return out


def find_order3_inverted(
    box: BlackBoxGroup, r: ElementString, rng: random.Random, budget: int = 600
) -> ElementString:
    """An element of order 3 inverted by the involution r.

    Products r^x * r are inverted by r for free, so powering one to its
    3-part gives the result whenever 3 divides the order; a constant
    fraction of samples does at desk scale.
    """
    if box.is_identity(r):
        raise InputError("need a nontrivial involution")
    for _ in range(budget):
        s = box.mul(box.conj(r, box.sample(rng)), r)
        if box.is_identity(s):
            continue
        o = element_order(box, s)
        if o % 3:
            continue
        return box.power(s, o // 3)
    raise MonteCarloFailure("order-3 companion", "no conjugate product with order divisible by 3")
