"""Black box group axioms over the matrix backend, opaque and transparent."""
import hashlib
import itertools
import random

import pytest

from bbsl2 import backend, oracle
from bbsl2.blackbox import DirectProductBox, ElementString, SubgroupBox, element_order, global_exponent_gl
from bbsl2.backend import MatrixBackend, make_matrix_blackbox, mat_neg
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


def _codec_digest() -> str:
    """sha256 over the strings and decoded matrices of a fixed sequence of box ops."""
    h = hashlib.sha256()
    # entry widths 1 (q = 13, 81) and 2 (q = 729, 2^10); SL and PSL; both codecs
    for (p, k), cq, opaque in itertools.product(
        [(13, 1), (3, 4), (3, 6), (2, 10)], (False, True), (True, False)
    ):
        box = make_matrix_blackbox(p, k, center_quotient=cq, opaque=opaque, seed=p**k + cq)
        rng = random.Random(p * k)
        xs = list(box.generators)
        for _ in range(16):
            x = box.mul(rng.choice(xs), rng.choice(xs))
            xs.append(box.inv(x) if rng.random() < 0.25 else x)
        for x in xs:
            h.update(x.data)
            h.update(repr(box.backend.decode(x)).encode())
    return h.hexdigest()


def test_codec_strings_pinned():
    assert _codec_digest() == "383af1be8c0ab71e2ab524d0c1b73e2f38b7fabe2df9f4d7c26d3f257eb5f6d9"


def test_decode_rejects_malformed_strings():
    for opaque in (True, False):
        box = make_matrix_blackbox(13, 1, opaque=opaque, seed=3)
        with pytest.raises(InputError):
            box.backend.decode(ElementString(box.generators[0].data + b"\0"))
        with pytest.raises(InputError):
            box.backend.decode(ElementString(box.generators[0].data[:-1]))
    # transparent strings are the entries themselves: one entry >= q
    be13 = make_matrix_blackbox(13, 1, opaque=False, seed=3).backend
    with pytest.raises(InputError):
        be13.decode(ElementString(bytes([1, 13, 0, 1])))
    be1024 = make_matrix_blackbox(2, 10, opaque=False, seed=3).backend
    entries = lambda *xs: ElementString(b"".join(x.to_bytes(2, "big") for x in xs))
    assert be1024.decode(entries(1, 0, 0, 1)) == ((1, 0), (0, 1))
    with pytest.raises(InputError):
        be1024.decode(entries(1, 0, 0, 1024))


# entry widths 1 (q = 13, 81) and 2 (q = 729, 2^10), SL and PSL
_MEMO_CASES = list(itertools.product([(13, 1), (3, 4), (3, 6), (2, 10)], (False, True)))


def _random_ops(box, rng, n):
    """The strings of ``n`` muls and invs of earlier results, from the generators on."""
    xs = list(box.generators)
    for _ in range(n):
        x = box.inv(rng.choice(xs)) if rng.random() < 0.25 else box.mul(rng.choice(xs), rng.choice(xs))
        xs.append(x)
        yield x


@pytest.mark.parametrize("pk, cq", _MEMO_CASES)
def test_memo_agrees_with_fresh_decrypt(pk, cq):
    (p, k), seed = pk, 40 + cq
    box = make_matrix_blackbox(p, k, center_quotient=cq, opaque=True, seed=seed)
    be = box.backend
    # decoded right after it is made, each string is served by the memo
    seen = [(x, be.decode(x)) for x in _random_ops(box, random.Random(p * k), 300)]
    fresh = MatrixBackend(be.field, center_quotient=cq, opaque=True, seed=seed)
    for x, m in seen:
        assert fresh.decode(x) == m


@pytest.mark.parametrize("pk, cq", _MEMO_CASES)
def test_memo_stays_bounded(pk, cq):
    p, k = pk
    box = make_matrix_blackbox(p, k, center_quotient=cq, opaque=True, seed=7)
    be = box.backend
    for _ in _random_ops(box, random.Random(k), 10_000):
        pass
    assert len(be._recent) + len(be._older) <= 2 * backend._MEMO_SIZE


def test_decode_checks_length_before_memo():
    box = make_matrix_blackbox(13, 1, opaque=True, seed=3)
    be = box.backend
    short = box.generators[0].data[:-1]
    be._recent[short] = be._older[short] = ((1, 0), (0, 1))
    with pytest.raises(InputError):
        be.decode(ElementString(short))


@pytest.mark.parametrize("pk, cq", _MEMO_CASES)
def test_flipped_bit_decodes_as_the_cipher_says(pk, cq):
    p, k = pk
    box = make_matrix_blackbox(p, k, center_quotient=cq, opaque=True, seed=5)
    be = box.backend
    for x in itertools.islice(_random_ops(box, random.Random(1), 20), 15, None):
        for bit in range(8 * len(x.data)):
            data = bytearray(x.data)
            data[bit >> 3] ^= 1 << (bit & 7)
            data = bytes(data)
            try:
                want = be._parse(be._feistel(data, decrypt=True))
            except InputError:
                with pytest.raises(InputError):
                    be.decode(ElementString(data))
            else:
                assert be.decode(ElementString(data)) == want


def test_psl_decode_is_canonical():
    for opaque in (True, False):
        box = make_matrix_blackbox(13, 1, center_quotient=True, opaque=opaque, seed=2)
        be = box.backend
        m = oracle.h_mat(be.field, 2)
        pair = (m, mat_neg(be.field, m))
        canon = min(pair)
        for mat in pair:
            s = be.encode(mat)
            assert be.decode(s) == canon  # a memo hit when opaque
            fresh = MatrixBackend(be.field, center_quotient=True, opaque=opaque, seed=2)
            assert fresh.decode(s) == canon  # a memo miss when opaque
            # a string whose plain bytes are not the canonical entries
            raw = be._pack(mat)
            if opaque:
                raw = be._feistel(raw + bytes(backend._NONCE_BYTES), decrypt=False)
            assert fresh.decode(ElementString(raw)) == canon
