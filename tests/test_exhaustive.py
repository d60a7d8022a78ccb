"""Recovered morphisms against the whole group, at small q.

``brute.exhaustive_check`` tests phi on every matrix of SL2(q), so a
map that is wrong at a single field element fails it, where the Monte
Carlo ``verify`` stage of a recognition can miss such a fault.
"""
import dataclasses
import random

import pytest

from bbsl2 import make_matrix_blackbox, oracle, recognize
from bbsl2.backend import MatrixBackend
from bbsl2.field import ExplicitField
from bbsl2.sl2odd import SteinbergMorphism

import brute

# (p, k, center quotient) and the number of images, |SL2(q)| or |PSL2(q)|
_GROUPS = [
    (5, 1, False, 120), (5, 1, True, 60), (3, 2, False, 720), (3, 2, True, 360),
    (13, 1, False, 2184), (13, 1, True, 1092), (17, 1, False, 4896), (17, 1, True, 2448),
    (2, 3, False, 504), (2, 4, False, 4080),
]


def _name(g):
    return f"{'PSL2' if g[2] else 'SL2'}({g[0]}^{g[1]})"


@pytest.fixture(scope="module", params=_GROUPS, ids=_name)
def recognized(request):
    p, k, cq, images = request.param
    box = make_matrix_blackbox(p, k, center_quotient=cq, opaque=True, seed=1000)
    res = recognize(box, p, k, random.Random(0), trials=10)
    assert len(brute.sl2_matrices(res.explicit)) == images * (2 if cq else 1)
    return box, res


def _fresh(box, res):
    """The result with a new morphism on the same field and Weyl element."""
    phi = SteinbergMorphism(box, res.field, res.morphism.weyl, res.explicit)
    return dataclasses.replace(res, morphism=phi)


def test_recovered_morphism_passes_the_exhaustive_check(recognized):
    brute.exhaustive_check(recognized[1], recognized[0])


def test_one_point_fault_fails_the_exhaustive_check(recognized):
    # the cached unipotent u(t0) replaced by u(t0) u(1): phi is wrong at one
    # field element, and so on every matrix whose Bruhat word uses u(t0)
    box, res = recognized
    res = _fresh(box, res)
    phi, E = res.morphism, res.explicit
    t0 = random.Random(E.order).randrange(2, E.order)
    phi._unipotents[t0] = box.mul(phi._u_int(t0), phi._u_int(E.one))
    with pytest.raises(AssertionError):
        brute.exhaustive_check(res, box)


def test_weyl_fault_fails_the_exhaustive_check(recognized):
    # the Weyl element replaced by weyl u(1), after the build check passed
    box, res = recognized
    res = _fresh(box, res)
    phi = res.morphism
    phi.weyl = box.mul(phi.weyl, phi._u_int(res.explicit.one))
    phi.weyl_inv = box.inv(phi.weyl)
    with pytest.raises(AssertionError):
        brute.exhaustive_check(res, box)


# the inputs beyond the standard generators over the standard field: a
# random generating pair, and the standard generators over two scrambled
# presentations; they stay out of the mutation tests above
_OTHER_GROUPS = [(3, 2, False), (3, 2, True), (13, 1, False), (13, 1, True), (2, 3, False)]


def _random_pair(F: ExplicitField, rng: random.Random):
    """Two uniform matrices of SL2 over F, redrawn until they generate it."""
    order = F.order * (F.order**2 - 1)
    while True:
        gens = [oracle.random_sl2(F, rng) for _ in range(2)]
        if len(brute.closure(F, gens)) == order:
            return gens


@pytest.mark.parametrize("scramble", [None, 3, 19], ids=["random-pair", "scrambled-3", "scrambled-19"])
@pytest.mark.parametrize("group", _OTHER_GROUPS, ids=_name)
def test_exhaustive_check_beyond_the_standard_generators(group, scramble):
    p, k, cq = group
    F = ExplicitField.polynomial_field(p, k)
    if scramble is None:
        box = MatrixBackend(F, center_quotient=cq, seed=1000).blackbox(_random_pair(F, random.Random(1)))
    else:
        box = MatrixBackend(brute.scrambled(F, seed=scramble), center_quotient=cq, seed=1000).blackbox()
    res = recognize(box, p, k, random.Random(0), trials=10)
    brute.exhaustive_check(res, box)
