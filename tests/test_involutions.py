"""Involution machinery: Bray's construction and conjugating elements."""
import random

import pytest

from bbsl2 import involutions
from bbsl2.blackbox import element_order
from bbsl2.backend import make_matrix_blackbox
from bbsl2.errors import ContractViolation, InputError
from bbsl2.involutions import (
    bray_centralizer,
    bray_element,
    find_order3_inverted,
    is_involution,
    random_involution,
    to_involution,
)

import brute


def test_to_involution(sl2_13, rng):
    # the only involution in SL2(13) is -1, so every even-order element powers to it
    be = sl2_13.backend
    neg_one = be.field.neg(be.field.one)
    minus = ((neg_one, 0), (0, neg_one))
    hits = 0
    for _ in range(60):
        x = sl2_13.sample(rng)
        z = to_involution(sl2_13, x)
        if z is None:
            assert element_order(sl2_13, x) % 2 == 1
        else:
            hits += 1
            assert is_involution(sl2_13, z)
            assert be.decode(z) == minus
    assert hits > 10


def test_random_involution_psl(psl2_13, rng):
    be = psl2_13.backend
    for _ in range(10):
        z = random_involution(psl2_13, rng)
        assert is_involution(psl2_13, z)
        m = be.decode(z)
        assert be.field.add(m[0][0], m[1][1]) == 0  # involutions mod center have trace 0


def test_bray_element_commutes(psl2_13, rng):
    i = random_involution(psl2_13, rng)
    for _ in range(50):
        g = psl2_13.sample(rng)
        z = bray_element(psl2_13, i, g)
        assert psl2_13.commutes(z, i)


def test_bray_element_commutes_char2(sl2_8, rng):
    i = random_involution(sl2_8, rng)
    for _ in range(50):
        z = bray_element(sl2_8, i, sl2_8.sample(rng))
        assert sl2_8.commutes(z, i)


def test_bray_centralizer_generates_full_centralizer(rng):
    # PSL2(13): the centralizer of an involution is dihedral of order 12
    box = make_matrix_blackbox(13, 1, center_quotient=True, opaque=False, seed=2)
    be = box.backend
    canon = brute.psl_canon(be.field)
    i = random_involution(box, rng)
    gens = bray_centralizer(box, i, rng, count=40)
    for z in gens:
        assert box.commutes(z, i)
    got = brute.closure(be.field, [be.decode(z) for z in gens], canon=canon)
    group = brute.closure(be.field, be.standard_generators(), canon=canon)
    want = brute.centralizer_set(be.field, group, be.decode(i), canon=canon)
    assert got == want
    assert len(want) == 12


def test_bray_centralizer_char2_is_unipotent_group(rng):
    box = make_matrix_blackbox(2, 3, opaque=False, seed=2)
    be = box.backend
    i = random_involution(box, rng)
    gens = bray_centralizer(box, i, rng, count=40)
    got = brute.closure(be.field, [be.decode(z) for z in gens])
    group = brute.closure(be.field, be.standard_generators())
    want = brute.centralizer_set(be.field, group, be.decode(i))
    assert got == want
    assert len(want) == 8  # C(r) is the full unipotent subgroup, order q


def test_find_order3_inverted(sl2_8, rng):
    r = random_involution(sl2_8, rng)
    theta = find_order3_inverted(sl2_8, r, rng)
    assert element_order(sl2_8, theta) == 3
    assert sl2_8.compare(sl2_8.conj(theta, r), sl2_8.inv(theta))


def test_find_order3_inverted_span(rng):
    # <theta, r> is dihedral of order 6
    box = make_matrix_blackbox(2, 2, opaque=False, seed=5)
    be = box.backend
    r = random_involution(box, rng)
    theta = find_order3_inverted(box, r, rng)
    span = brute.closure(be.field, [be.decode(r), be.decode(theta)])
    assert len(span) == 6


@pytest.mark.parametrize("n", [2, 3, 4, 8])
def test_find_order3_inverted_matches_the_reference_search(n, monkeypatch):
    # two boxes from one seed draw the same samples from the same rng; the
    # search rejects by one power whatever the reference rejects by its
    # order, and cubes the power of the accepted candidate, computing no order
    boxes = [make_matrix_blackbox(2, n, opaque=True, seed=23) for _ in range(2)]
    rngs = [random.Random(n), random.Random(n)]
    rs = [random_involution(box, g) for box, g in zip(boxes, rngs)]
    want = brute.find_order3_inverted_reference(boxes[0], rs[0], rngs[0])
    orders = []
    monkeypatch.setattr(
        involutions, "element_order", lambda box, x: orders.append(x) or element_order(box, x)
    )
    got = find_order3_inverted(boxes[1], rs[1], rngs[1])
    assert boxes[1].backend.decode(got) == boxes[0].backend.decode(want)
    assert boxes[1].stats["samples"] == boxes[0].stats["samples"]
    assert not orders


def test_find_order3_inverted_catches_a_broken_exponent(monkeypatch):
    # SL2(8) advertising 14, its exponent 126 without the factor 9: a
    # candidate of order 3 or 9 survives the power, and no cubing is allowed
    box = make_matrix_blackbox(2, 3, seed=5)
    rng = random.Random(1)
    r = random_involution(box, rng)
    monkeypatch.setattr(box, "exponent", 14)
    with pytest.raises(ContractViolation, match="advertised exponent"):
        find_order3_inverted(box, r, rng)


def test_find_order3_inverted_rejects_identity(sl2_8, rng):
    with pytest.raises(InputError):
        find_order3_inverted(sl2_8, sl2_8.identity, rng)
