"""Frobenius maps on black box (P)SL2(p^k) via the cyclic shift trick.

Inside the direct power X^k, take the subgroup Y generated by the
constant tuples over the unipotent and Weyl generators together with the
twisted diagonal torus tuple (h, h^p, ..., h^(p^(k-1))). Rotating the k
coordinates one step to the left is computable on strings, restricts to
an automorphism of Y, fixes both constant generators, and raises the
torus tuple to its p-th power: on Y it behaves exactly like the field
Frobenius, which is what the field recovery downstream needs.
"""
from __future__ import annotations

import random
from dataclasses import dataclass

from .blackbox import BlackBoxGroup, DirectProductBox, ElementString, SubgroupBox
from .errors import ContractViolation, InputError


@dataclass
class FrobeniusMap:
    """The shifted copy of <u, h, n> with the rotation acting as Frobenius.

    ``box`` is the subgroup of ``product`` = X^k generated by u_bar,
    h_bar and n_bar. Rotation works on raw strings because the direct
    product concatenates component strings; no re-encoding is involved,
    so the operation stays legal on opaque boxes.
    """

    product: DirectProductBox
    box: SubgroupBox
    k: int
    p: int
    u_bar: ElementString
    h_bar: ElementString
    n_bar: ElementString

    def rotate(self, y: ElementString, j: int = 1) -> ElementString:
        parts = self.product.split(y)
        j %= self.k
        return self.product.join(parts[j:] + parts[:j])

    def __call__(self, y: ElementString) -> ElementString:
        return self.rotate(y, 1)

    def project(self, y: ElementString) -> ElementString:
        """Coordinate-0 projection back into the base group."""
        return self.product.split(y)[0]


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
    the unipotent subgroup through u, n inverting h. The order of h must
    divide p^k - 1, else the torus tuple is not a twisted diagonal.
    """
    if k < 1:
        raise InputError("need k >= 1")
    if box.is_identity(u) or not box.is_identity(box.power(u, p)):
        raise InputError("u is not a nontrivial element of order p")
    if not box.commutes(box.conj(u, h), u):
        raise InputError("h does not normalize the unipotent subgroup through u")
    if not box.compare(box.conj(h, n), box.inv(h)):
        raise InputError("n does not invert h")
    product = DirectProductBox([box] * k)
    u_bar = product.join((u,) * k)
    h_bar = product.join([box.power(h, p**i) for i in range(k)])
    n_bar = product.join((n,) * k)
    y = SubgroupBox(product, [u_bar, h_bar, n_bar], rng)
    fro = FrobeniusMap(product=product, box=y, k=k, p=p, u_bar=u_bar, h_bar=h_bar, n_bar=n_bar)
    if not product.compare(fro(u_bar), u_bar):
        raise ContractViolation("rotation moved the constant unipotent tuple")
    if not product.compare(fro(n_bar), n_bar):
        raise ContractViolation("rotation moved the constant Weyl tuple")
    if not product.compare(fro(h_bar), product.power(h_bar, p)):
        raise ContractViolation(
            "rotation is not the p-th power on the torus tuple; "
            "the order of h does not divide p^k - 1"
        )
    if not product.compare(fro.rotate(h_bar, k), h_bar):
        raise ContractViolation("rotation does not have order dividing k")
    return fro
