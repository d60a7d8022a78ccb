"""Black box group axioms over the matrix backend, opaque and transparent."""
import random

import pytest

from bbsl2 import oracle
from bbsl2.blackbox import DirectProductBox, SubgroupBox, element_order, global_exponent_gl
from bbsl2.backend import MatrixBackend, make_matrix_blackbox
from bbsl2.errors import InputError
from bbsl2.field import ExplicitField


def test_global_exponent_frozen_values():
    assert global_exponent_gl(2, 13, 1) == 2184
    assert global_exponent_gl(2, 3, 2) == 240
    assert global_exponent_gl(2, 2, 3) == 2 * (2**6 - 1)
    assert global_exponent_gl(2, 2, 1) == 6


def test_exponent_kills_all_samples(rng):
    for p, k, special in [(13, 1, True), (3, 2, False), (2, 3, True)]:
        F = ExplicitField.polynomial_field(p, k)
        box = MatrixBackend(F, special=special, opaque=True, seed=9).blackbox()
        for _ in range(60):
            x = box.sample(rng)
            assert box.is_identity(box.power(x, box.exponent))


def test_identity_word_independence(sl2_13, rng):
    g0, g1 = sl2_13.generators[:2]
    i1 = sl2_13.mul(g0, sl2_13.inv(g0))
    i2 = sl2_13.mul(g1, sl2_13.inv(g1))
    assert sl2_13.compare(i1, i2)
    assert sl2_13.is_identity(i1)
    # opaque encodings are nonce-randomized: equal elements, different strings
    assert i1.data != i2.data
    assert len(i1.data) == sl2_13.string_bytes


def test_mul_inv_match_matrices(rng):
    from bbsl2.backend import mat_mul

    box = make_matrix_blackbox(13, 1, opaque=True, seed=4)
    be = box.backend
    ident = ((be.field.one, 0), (0, be.field.one))
    for _ in range(80):
        x, y = box.sample(rng), box.sample(rng)
        mx, my = be.decode(x), be.decode(y)
        assert be.decode(box.mul(x, y)) == mat_mul(be.field, mx, my)
        assert mat_mul(be.field, mx, be.decode(box.inv(x))) == ident
        assert box.is_identity(box.mul(x, box.inv(x)))


def test_power_matches_decode(rng):
    box = make_matrix_blackbox(3, 2, opaque=True, seed=4)
    be = box.backend
    from bbsl2.backend import mat_mul

    for e in [0, 1, 2, 7, 80, -1, -5]:
        x = box.sample(rng)
        want = ((be.field.one, 0), (0, be.field.one))
        base = be.decode(x) if e >= 0 else be.decode(box.inv(x))
        for _ in range(abs(e)):
            want = mat_mul(be.field, want, base)
        assert be.decode(box.power(x, e)) == want


def test_sampling_is_spread_out(rng):
    # near-uniform sampling should hit most of SL2(5) in 400 draws
    box = make_matrix_blackbox(5, 1, opaque=False, seed=2)
    be = box.backend
    seen = {be.decode(box.sample(rng)) for _ in range(400)}
    assert len(seen) >= 100  # |SL2(5)| = 120
    closure = oracle.closure(be.field, be.standard_generators())
    assert seen <= closure


def test_element_order_vs_direct_powering(rng):
    box = make_matrix_blackbox(13, 1, opaque=True, seed=6)
    be = box.backend
    for _ in range(120):
        x = box.sample(rng)
        assert element_order(box, x) == oracle.matrix_order_direct(be.field, be.decode(x))
    assert element_order(box, box.identity) == 1


def test_commutes_and_conj(rng):
    box = make_matrix_blackbox(13, 1, opaque=True, seed=8)
    be = box.backend
    u = be.encode(oracle.u_mat(be.field, 1))
    u2 = be.encode(oracle.u_mat(be.field, 5))
    h = be.encode(oracle.h_mat(be.field, 2))
    assert box.commutes(u, u2)
    assert not box.commutes(u, h)
    got = be.decode(box.conj(u, h))
    assert got == oracle.conj_mat(be.field, oracle.u_mat(be.field, 1), oracle.h_mat(be.field, 2))


def test_direct_product_box(rng):
    a = make_matrix_blackbox(5, 1, opaque=True, seed=1)
    b = make_matrix_blackbox(13, 1, opaque=True, seed=2)
    prod = DirectProductBox([a, b])
    x = prod.join([a.sample(rng), b.sample(rng)])
    y = prod.join([a.sample(rng), b.sample(rng)])
    xa, xb = prod.split(x)
    ya, yb = prod.split(y)
    za, zb = prod.split(prod.mul(x, y))
    assert a.compare(za, a.mul(xa, ya)) and b.compare(zb, b.mul(xb, yb))
    ia, ib = prod.split(prod.inv(x))
    assert a.compare(ia, a.inv(xa)) and b.compare(ib, b.inv(xb))
    assert prod.compare(x, prod.join([xa, xb]))
    assert not prod.compare(x, y) or (a.compare(xa, ya) and b.compare(xb, yb))
    assert prod.is_identity(prod.join([a.identity, b.identity]))
    s = prod.sample(rng)
    assert len(prod.split(s)) == 2


def test_generated_subbox_stays_inside(rng):
    box = make_matrix_blackbox(13, 1, opaque=False, seed=5)
    be = box.backend
    u = be.encode(oracle.u_mat(be.field, 1))
    sub = SubgroupBox(box, [u], rng)
    uppers = oracle.unipotent_upper_set(be.field)
    for _ in range(60):
        assert be.decode(sub.sample(rng)) in uppers
    assert sub.exponent == box.exponent


def test_backend_rejects_bad_generators():
    F = ExplicitField.polynomial_field(13, 1)
    be = MatrixBackend(F, special=True, opaque=True, seed=0)
    with pytest.raises(InputError):
        be.blackbox([((1, 0), (0, 2))])  # det 2
    with pytest.raises(InputError):
        be.blackbox([((0, 0), (0, 0))])
    with pytest.raises(InputError):
        MatrixBackend(F, special=False, center_quotient=True)


def test_psl_canonicalization():
    box = make_matrix_blackbox(13, 1, center_quotient=True, opaque=True, seed=0)
    be = box.backend
    m = oracle.h_mat(be.field, 2)
    neg = tuple(tuple(be.field.neg(x) for x in row) for row in m)
    assert box.compare(be.encode(m), be.encode(neg))
