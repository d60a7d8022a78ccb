"""Brute-force matrices and sets in SL2 over an explicit field, for the tests.

The frame matrices u(t), v(t), h(t), n(t), conjugation, centralizers and
the upper unipotent group, computed on plain matrices with no black box
in sight: the tests' independent ground truth at desk scale, beside
``bbsl2.oracle``; the Frobenius map and absolute trace of an explicit
field, and its presentation on a random new basis; reference copies of
box searches that the package now runs more cheaply; and random
elements of a recovered field.
"""
import random

from bbsl2 import modp
from bbsl2.backend import Matrix, mat_inv2, mat_mul
from bbsl2.blackbox import element_order
from bbsl2.field import ExplicitField
from bbsl2.sl2char2 import Char2Field


def frobenius(F: ExplicitField, a: int) -> int:
    return F.pow(a, F.p)


def trace(F: ExplicitField, a: int) -> int:
    """Absolute trace down to F_p, returned as an int in [0, p)."""
    acc, x = 0, a
    for _ in range(F.k):
        acc = F.add(acc, x)
        x = frobenius(F, x)
    # the trace is rational: a prime-field multiple of unity
    return next(n for n in range(F.p) if F.scalar(n) == acc)


def scrambled(F: ExplicitField, seed: int) -> ExplicitField:
    """Rewrite F's structure constants on a random new basis."""
    rng = random.Random(seed)
    p, k = F.p, F.k
    while True:
        T = tuple(tuple(rng.randrange(p) for _ in range(k)) for _ in range(k))
        if modp.mat_det(T, p) != 0:
            break
    Tinv = modp.mat_inv(T, p)
    # new basis vectors are rows of T in old coordinates
    new_c = []
    for i in range(k):
        plane = []
        for j in range(k):
            prod = F.mul(F.element(T[i]), F.element(T[j]))
            plane.append(modp.vec_mat(F.coords(prod), Tinv, p))
        new_c.append(tuple(plane))
    return ExplicitField(p, k, tuple(new_c))


def u_mat(F: ExplicitField, t: int) -> Matrix:
    return ((F.one, t), (0, F.one))


def v_mat(F: ExplicitField, t: int) -> Matrix:
    return ((F.one, 0), (t, F.one))


def h_mat(F: ExplicitField, t: int) -> Matrix:
    return ((t, 0), (0, F.inv(t)))


def n_mat(F: ExplicitField, t: int) -> Matrix:
    ti = F.inv(t)
    return ((0, t), (ti if F.p == 2 else F.neg(ti), 0))


def conj_mat(F: ExplicitField, x: Matrix, g: Matrix) -> Matrix:
    return mat_mul(F, mat_inv2(F, g), mat_mul(F, x, g))


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


def find_order3_inverted_reference(box, r, rng, budget: int = 600):
    """The order-3 search with an order computation for every candidate.

    ``bbsl2.involutions.find_order3_inverted`` must accept the same
    candidate from the same samples and return the same element.
    """
    for _ in range(budget):
        s = box.mul(box.conj(r, box.sample(rng)), r)
        if box.is_identity(s):
            continue
        o = element_order(box, s)
        if o % 3:
            continue
        return box.power(s, o // 3)
    raise AssertionError("no candidate of order divisible by 3")


def random_element(field, rng: random.Random):
    """A uniform element of a recovered field: a ``BlackBoxField`` from k
    coordinate draws in [0, p), a ``Char2Field`` from one index draw in
    [0, 2^k), lifted."""
    if isinstance(field, Char2Field):
        return field.lift_int(rng.randrange(1 << field.k))
    return field.from_coords([rng.randrange(field.p) for _ in range(field.k)])
