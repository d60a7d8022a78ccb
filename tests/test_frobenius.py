"""The cyclic-shift Frobenius construction on tuple subgroups."""
import random

import pytest

from bbsl2.backend import make_matrix_blackbox
from bbsl2.blackbox import ElementString
from bbsl2.errors import InputError
from bbsl2.frobenius import frobenius_on_sl2

import brute


def _standard_frame(box):
    be = box.backend
    F = be.field
    u = be.encode(brute.u_mat(F, F.one))
    h = be.encode(brute.h_mat(F, F.primitive_element()))
    n = be.encode(brute.n_mat(F, F.one))
    return u, h, n


@pytest.fixture(scope="module")
def fro9():
    box = make_matrix_blackbox(3, 2, opaque=True, seed=12)
    u, h, n = _standard_frame(box)
    return frobenius_on_sl2(box, u, h, n, 3, 2, random.Random(0))


def test_shift_is_automorphism(fro9, rng):
    for _ in range(60):
        a, b = fro9.sample(rng), fro9.sample(rng)
        assert fro9.compare(fro9(fro9.mul(a, b)), fro9.mul(fro9(a), fro9(b)))


def test_shift_order_divides_k(fro9, rng):
    for _ in range(60):
        x = y = fro9.sample(rng)
        for _ in range(fro9.k):
            y = fro9(y)
        assert fro9.compare(y, x)


def test_generator_images(fro9):
    assert fro9.compare(fro9(fro9.u_bar), fro9.u_bar)
    assert fro9.compare(fro9(fro9.n_bar), fro9.n_bar)
    assert fro9.compare(fro9(fro9.h_bar), fro9.power(fro9.h_bar, 3))


def test_project_recovers_base_coordinates(fro9, rng):
    box = fro9.base
    x = fro9.sample(rng)
    first = fro9.project(x)
    assert len(first.data) == box.string_bytes
    # projection is a homomorphism onto the base box
    y = fro9.sample(rng)
    assert box.compare(fro9.project(fro9.mul(x, y)), box.mul(fro9.project(x), fro9.project(y)))


@pytest.mark.parametrize("opaque", (True, False))
def test_tuple_strings_given_by_bytes_agree_with_handles(opaque):
    # a string from outside the box is given by its bytes: the box splits it
    # into base strings of bytes, where its own strings hold their parts
    box = make_matrix_blackbox(3, 2, opaque=opaque, seed=12)
    fro = frobenius_on_sl2(box, *_standard_frame(box), 3, 2, random.Random(0))
    rng = random.Random(1)
    for _ in range(20):
        x, y = fro.sample(rng), fro.sample(rng)
        bx, by = ElementString(x.data), ElementString(y.data)
        assert fro.compare(bx, x) and fro.compare(x, bx)
        for a, b in ((bx, by), (bx, y), (x, by)):
            assert fro.compare(fro.mul(a, b), fro.mul(x, y))
            assert fro.compare(a, b) == fro.compare(x, y)
        assert fro.compare(fro.inv(bx), fro.inv(x))
        assert fro.compare(fro(bx), fro(x))
        assert fro.project(bx).data == fro.project(x).data
        assert box.compare(fro.project(bx), fro.project(x))


def test_lift_constant_is_fixed_by_shift(fro9, rng):
    box = fro9.base
    x = box.sample(rng)
    bar = fro9.join((x,) * fro9.k)
    assert fro9.compare(fro9(bar), bar)
    assert box.compare(fro9.project(bar), x)


def test_frobenius_in_char_13(rng):
    # k = 1: the map is the identity; still a valid (trivial) shift
    box = make_matrix_blackbox(13, 1, opaque=True, seed=12)
    u, h, n = _standard_frame(box)
    fro = frobenius_on_sl2(box, u, h, n, 13, 1, random.Random(0))
    for _ in range(20):
        x = fro.sample(rng)
        assert fro.compare(fro(x), x)


def test_rejects_bad_standard_relations(rng):
    box = make_matrix_blackbox(3, 2, opaque=True, seed=12)
    u, h, n = _standard_frame(box)
    with pytest.raises(InputError):
        frobenius_on_sl2(box, box.identity, h, n, 3, 2, random.Random(0))
    with pytest.raises(InputError):
        frobenius_on_sl2(box, u, h, u, 3, 2, random.Random(0))  # u does not invert h
    with pytest.raises(InputError):
        frobenius_on_sl2(box, u, h, n, 3, 0, random.Random(0))


def test_shifted_samples_have_matched_coordinates(fro9, rng):
    # every sample of the tuple group projects to Frobenius-linked entries:
    # decoding coordinate j+1 must equal the entrywise cube of coordinate j
    be = fro9.base.backend
    F = be.field
    for _ in range(30):
        parts = fro9.split(fro9.sample(rng))
        m0, m1 = (be.decode(s) for s in parts)
        cubed = tuple(tuple(brute.frobenius(F, x) for x in row) for row in m0)
        assert m1 == cubed
