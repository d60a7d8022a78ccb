"""Frobenius maps on black box (P)SL2(p^k) via the cyclic shift trick.

Inside the direct power X^k, take the subgroup Y generated by the
constant tuples over the unipotent and Weyl generators together with the
twisted diagonal torus tuple (h, h^p, ..., h^(p^(k-1))). Rotating the k
coordinates one step to the left is computable on strings, restricts to
an automorphism of Y, fixes both constant generators, and raises the
torus tuple to its p-th power: on Y it behaves exactly like the field
Frobenius, which is what the field recovery downstream needs.
``FrobeniusMap`` is Y itself: a ``SubgroupBox`` over X^k whose call is
the one-step rotation, and which projects onto coordinate 0.
"""
from __future__ import annotations

import random

from .blackbox import BlackBoxGroup, ElementString, SubgroupBox
from .errors import ContractViolation, InputError
from .field import check_field


class FrobeniusMap(SubgroupBox):
    """Y = <u_bar, h_bar, n_bar> inside X^k; calling it is the Frobenius.

    The call shifts a raw string's coordinates one step to the left: a
    tuple's string concatenates its coordinates, so no re-encoding is
    involved and the operation stays legal on opaque boxes.
    """

    def __init__(self, base, p, u_bar, h_bar, n_bar, rng: random.Random):
        super().__init__(base, (u_bar, h_bar, n_bar), rng)
        self.p, self.u_bar, self.h_bar, self.n_bar = p, u_bar, h_bar, n_bar

    def __call__(self, y: ElementString) -> ElementString:
        parts = self.split(y)
        return self.join(parts[1:] + parts[:1])

    def project(self, y: ElementString) -> ElementString:
        """Coordinate-0 projection back into the base group."""
        return self.split(y)[0]


def frobenius_on_sl2(
    box: BlackBoxGroup,
    u: ElementString,
    h: ElementString,
    n: ElementString,
    p: int,
    k: int,
    rng: random.Random,
) -> FrobeniusMap:
    """Build the shifted copy of <u, h, n> carrying a Frobenius action.

    (u, h, n) must be standard generators: u of order p, h normalizing
    the unipotent subgroup through u, n inverting h. The shift fixes the
    constant tuples u_bar and n_bar by construction; only its action on
    the torus tuple depends on the group, and is checked: the order of h
    must divide p^k - 1, else the torus tuple is not a twisted diagonal.
    """
    check_field(p, k)
    if box.is_identity(u) or not box.is_identity(box.power(u, p)):
        raise InputError("u is not a nontrivial element of order p")
    if not box.commutes(box.conj(u, h), u):
        raise InputError("h does not normalize the unipotent subgroup through u")
    if not box.compare(box.conj(h, n), box.inv(h)):
        raise InputError("n does not invert h")
    u_bar = SubgroupBox.join((u,) * k)
    h_bar = SubgroupBox.join([box.power(h, p**i) for i in range(k)])
    n_bar = SubgroupBox.join((n,) * k)
    fro = FrobeniusMap(box, p, u_bar, h_bar, n_bar, rng)
    if not fro.compare(fro(h_bar), fro.power(h_bar, p)):
        raise ContractViolation(
            "rotation is not the p-th power on the torus tuple; "
            "the order of h does not divide p^k - 1"
        )
    return fro
