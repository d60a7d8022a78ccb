"""Black box group axioms over the matrix backend, opaque and transparent."""
import hashlib
import itertools
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

from bbsl2 import backend, oracle
from bbsl2.blackbox import BlackBoxGroup, ElementString, SubgroupBox, element_order
from bbsl2.backend import MatrixBackend, make_matrix_blackbox
from bbsl2.errors import InputError
from bbsl2.field import ExplicitField
from bbsl2.sl2char2 import recognize

import brute
from brute import mat_mul, mat_neg

SRC = Path(__file__).resolve().parents[1] / "src"


def test_global_exponent_frozen_values():
    # p(q^2 - 1), the exponent of GL2(q)
    for p, k, exponent in [(13, 1, 2184), (3, 2, 240), (2, 3, 2 * (2**6 - 1)), (2, 1, 6)]:
        assert make_matrix_blackbox(p, k).exponent == exponent


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

    for e in [0, 1, 2, 7, 80, 100, -1, -5]:
        x = box.sample(rng)
        want = ((be.field.one, 0), (0, be.field.one))
        base = be.decode(x) if e >= 0 else be.decode(box.inv(x))
        for _ in range(abs(e)):
            want = mat_mul(be.field, want, base)
        before = dict(box.stats)
        assert be.decode(box.power(x, e)) == want
        # square and multiply from the identity: bitlen(e) - 1 squarings and
        # popcount(e) products, so 5 muls for e = 7 and 9 for e = 100; an
        # inverse first for e < 0, and nothing at all for e = 0
        n = abs(e)
        muls = n.bit_length() + bin(n).count("1") - 1 if n else 0
        spent = {key: box.stats[key] - before[key] for key in before}
        assert spent == {"samples": 0, "muls": muls, "invs": int(e < 0), "compares": 0}, e


def test_sampling_is_spread_out(rng):
    # near-uniform sampling should hit most of SL2(5) and SL2(4) in 400 draws
    for p, k, order in [(5, 1, 120), (2, 2, 60)]:
        box = make_matrix_blackbox(p, k, opaque=False, seed=2)
        be = box.backend
        seen = {be.decode(box.sample(rng)) for _ in range(400)}
        assert len(seen) >= order * 5 // 6
        closure = brute.closure(be.field, be.standard_generators())
        assert len(closure) == order
        assert seen <= closure


def test_sampling_needs_a_generator(rng):
    # the product replacement walk reads the box's generators itself
    box = BlackBoxGroup(1, 2, [], ElementString(b"\x00"))
    with pytest.raises(InputError, match="at least one generator"):
        box.sample(rng)


def test_element_order_vs_direct_powering(rng):
    box = make_matrix_blackbox(13, 1, opaque=True, seed=6)
    be = box.backend
    for _ in range(120):
        x = box.sample(rng)
        assert element_order(box, x) == brute.matrix_order_direct(be.field, be.decode(x))
    assert element_order(box, box.identity) == 1


def test_commutes_and_conj(rng):
    box = make_matrix_blackbox(13, 1, opaque=True, seed=8)
    be = box.backend
    u = be.encode(brute.u_mat(be.field, 1))
    u2 = be.encode(brute.u_mat(be.field, 5))
    h = be.encode(brute.h_mat(be.field, 2))
    assert box.commutes(u, u2)
    assert not box.commutes(u, h)
    got = be.decode(box.conj(u, h))
    assert got == brute.conj_mat(be.field, brute.u_mat(be.field, 1), brute.h_mat(be.field, 2))


def test_tuple_subgroup_box_acts_coordinatewise(rng):
    box = make_matrix_blackbox(5, 2, opaque=True, seed=1)
    gens = [SubgroupBox.join(box.sample(rng) for _ in range(3)) for _ in range(2)]
    tuples = SubgroupBox(box, gens, rng)
    assert (tuples.k, tuples.string_bytes) == (3, 3 * box.string_bytes)
    x, y = tuples.sample(rng), tuples.sample(rng)
    xs, ys = tuples.split(x), tuples.split(y)
    for z, w in zip(tuples.split(tuples.mul(x, y)), map(box.mul, xs, ys)):
        assert box.compare(z, w)
    for z, w in zip(tuples.split(tuples.inv(x)), map(box.inv, xs)):
        assert box.compare(z, w)
    assert tuples.compare(x, tuples.join(xs))
    assert tuples.compare(x, y) == all(map(box.compare, xs, ys))
    assert tuples.identity.data == b"".join([box.identity.data] * 3)
    assert tuples.is_identity(tuples.mul(x, tuples.inv(x)))


def test_subgroup_box_rejects_mismatched_generator_lengths(rng):
    box = make_matrix_blackbox(13, 1, opaque=True, seed=2)
    g = box.generators[0]
    for gens in ([], [SubgroupBox.join([g] * 2), g], [ElementString(g.data + b"x")]):
        with pytest.raises(InputError):
            SubgroupBox(box, gens, rng)


def test_subgroup_box_rejects_strings_of_the_wrong_length(rng):
    # a string is sliced into base strings: one base string, or three,
    # would compare equal to a pair with the missing or extra part ignored;
    # so would a handle joined from one part or three
    box = make_matrix_blackbox(13, 1, opaque=True, seed=2)
    g = box.generators[0]
    sub = SubgroupBox(box, [SubgroupBox.join([g, g])], rng)
    x = sub.generators[0]
    wrong = [ElementString(g.data), ElementString(g.data * 3)]
    wrong += [SubgroupBox.join([g]), SubgroupBox.join([g, g, g])]
    for y in wrong:
        for op in (lambda: sub.compare(y, x), lambda: sub.mul(y, x), lambda: sub.inv(y)):
            with pytest.raises(InputError):
                op()


def test_generated_subbox_stays_inside(rng):
    box = make_matrix_blackbox(13, 1, opaque=False, seed=5)
    be = box.backend
    u = be.encode(brute.u_mat(be.field, 1))
    sub = SubgroupBox(box, [u], rng)
    uppers = brute.unipotent_upper_set(be.field)
    for _ in range(60):
        assert be.decode(sub.sample(rng)) in uppers
    assert sub.exponent == box.exponent


def test_wrapper_draws_count_once_on_the_base_box(rng):
    # a stage recorded on the base box sees draws from wrapper boxes: one
    # per draw, through a subgroup of the base box or of its direct power
    box = make_matrix_blackbox(13, 1, opaque=True, seed=5)
    g = box.generators[0]
    sub = SubgroupBox(box, [g], rng)
    tuples = SubgroupBox(box, [SubgroupBox.join([g] * 3)], rng)
    assert box.stats["samples"] == 0  # burn-in draws nothing
    for _ in range(5):
        sub.sample(rng)
    for _ in range(7):
        tuples.sample(rng)
    assert (sub.stats["samples"], tuples.stats["samples"]) == (5, 7)
    assert box.stats["samples"] == 12


def test_backend_rejects_bad_generators():
    F = ExplicitField.polynomial_field(13, 1)
    be = MatrixBackend(F, special=True, opaque=True, seed=0)
    with pytest.raises(InputError):
        be.blackbox([((1, 0), (0, 2))])  # det 2
    with pytest.raises(InputError):
        be.blackbox([((0, 0), (0, 0))])
    # no entry but an int: int() would read 1.9, True and "1" as 1, the identity
    for x in (1.9, True, "1"):
        with pytest.raises(InputError):
            be.blackbox([((x, 0), (0, 1))])
    for m in ([[1, 0, 0], [0, 1]], 5, [[1, 0]]):
        with pytest.raises(InputError):
            be.blackbox([m])
    with pytest.raises(InputError):
        MatrixBackend(F, special=False, center_quotient=True)


@pytest.mark.parametrize("seed", ["3", None, 2.0, True], ids=repr)
def test_backend_seed_is_an_int(seed):
    # the codec key is f"{seed}", so seed="3" made the strings of seed=3
    F = ExplicitField.polynomial_field(5, 1)
    with pytest.raises(InputError, match="seed must be an int"):
        MatrixBackend(F, seed=seed)
    with pytest.raises(InputError, match="seed must be an int"):
        make_matrix_blackbox(5, 1, seed=seed)


@pytest.mark.parametrize("value", ["yes", 0, 1, None], ids=repr)
@pytest.mark.parametrize("flag", ["special", "center_quotient", "opaque"])
def test_backend_flags_are_bools(flag, value):
    # "yes", 0 and None would each be read by truth value
    F = ExplicitField.polynomial_field(5, 1)
    with pytest.raises(InputError, match=f"{flag} must be a bool"):
        MatrixBackend(F, **{flag: value})
    if flag != "special":
        with pytest.raises(InputError, match=f"{flag} must be a bool"):
            make_matrix_blackbox(5, 1, **{flag: value})


def test_psl_canonicalization():
    box = make_matrix_blackbox(13, 1, center_quotient=True, opaque=True, seed=0)
    be = box.backend
    m = brute.h_mat(be.field, 2)
    neg = tuple(tuple(be.field.neg(x) for x in row) for row in m)
    assert box.compare(be.encode(m), be.encode(neg))


def _codec_digest(opaque: bool) -> str:
    """sha256 over the strings and decoded matrices of a fixed sequence of box ops."""
    h = hashlib.sha256()
    # entry widths 1 (q = 13, 81) and 2 (q = 729, 2^10); SL and PSL
    for (p, k), cq in itertools.product([(13, 1), (3, 4), (3, 6), (2, 10)], (False, True)):
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
    # transparent strings are the entries themselves; they outlive any cipher
    assert _codec_digest(False) == "056893782ccf14180c1090759ecbe43a282937731187964141086cfa1ae7f398"


def test_opaque_codec_strings_pinned():
    assert _codec_digest(True) == "ea572098dbb69e21b433139fdc848f967109b9fb9dd17989387b1cb3fed38ffd"


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
_CODEC_CASES = list(itertools.product([(13, 1), (3, 4), (3, 6), (2, 10)], (False, True)))


def _random_ops(box, rng, n):
    """The strings of ``n`` muls and invs of earlier results, from the generators on."""
    xs = list(box.generators)
    for _ in range(n):
        x = box.inv(rng.choice(xs)) if rng.random() < 0.25 else box.mul(rng.choice(xs), rng.choice(xs))
        xs.append(x)
        yield x


@pytest.mark.parametrize("pk, cq", _CODEC_CASES)
def test_foreign_strings_decode_from_their_bytes(pk, cq):
    (p, k), seed = pk, 40 + cq
    box = make_matrix_blackbox(p, k, center_quotient=cq, opaque=True, seed=seed)
    be = box.backend
    # the box's own backend reads each handle's matrix; a fresh backend of
    # the same key decrypts the handle's bytes
    seen = [(x, be.decode(x)) for x in _random_ops(box, random.Random(p * k), 300)]
    fresh = MatrixBackend(be.field, center_quotient=cq, opaque=True, seed=seed)
    for x, m in seen:
        assert fresh.decode(x) == m


@pytest.mark.parametrize("pk, cq", _CODEC_CASES)
def test_strings_are_sealed_only_when_read(pk, cq):
    # a box's strings hold no bytes until ``data`` is read, and then hold the
    # bytes a twin backend of the same seed makes when it seals the same
    # matrices in the same order; the box's own backend reads its handles'
    # matrices without sealing them, so the two seal in lockstep
    p, k = pk
    for opaque in (True, False):
        box = make_matrix_blackbox(p, k, center_quotient=cq, opaque=opaque, seed=13)
        be = box.backend
        twin = MatrixBackend(be.field, center_quotient=cq, opaque=opaque, seed=13)
        rng = random.Random(p * k + cq)
        xs = list(box.generators)
        for _ in range(50):
            x, y = rng.choice(xs), rng.choice(xs)
            if rng.random() < 0.25:
                z = box.inv(x)
                assert z._data is None
                want = twin.encode(twin.inv(be.decode(x)))
            else:
                z = box.mul(x, y)
                assert z._data is None
                want = twin.encode(twin.mul(be.decode(x), be.decode(y)))
            assert z.data == want.data
            xs.append(z)
        assert all(x._data is None for x in (*box.generators, box.identity))


@pytest.mark.parametrize("pk, cq", _CODEC_CASES)
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
                want = be._parse(be._decrypt(data))
            except InputError:
                with pytest.raises(InputError):
                    be.decode(ElementString(data))
            else:
                assert be.decode(ElementString(data)) == want


@pytest.mark.parametrize("pk, cq", _CODEC_CASES)
def test_flipped_bit_is_not_the_flipped_plaintext(pk, cq):
    # a malleable cipher decodes a string with one bit flipped to its
    # plaintext, entries || nonce, with the same bit flipped: the entries with
    # that bit flipped, or the same entries when the bit lies in the nonce
    p, k = pk
    box = make_matrix_blackbox(p, k, center_quotient=cq, opaque=True, seed=9)
    be = box.backend
    plain = 4 * be.width
    for x in itertools.islice(_random_ops(box, random.Random(2), 20), 15, None):
        entries = b"".join(e.to_bytes(be.width, "big") for row in be.decode(x) for e in row)
        for bit in range(8 * len(x.data)):
            data, forged = bytearray(x.data), bytearray(entries)
            data[bit >> 3] ^= 1 << (bit & 7)
            if bit < 8 * plain:
                forged[bit >> 3] ^= 1 << (bit & 7)
            try:
                m = be.decode(ElementString(bytes(data)))
                want = be._parse(bytes(forged))
            except InputError:
                continue
            assert m != want


def test_psl_decode_is_canonical():
    for opaque in (True, False):
        box = make_matrix_blackbox(13, 1, center_quotient=True, opaque=opaque, seed=2)
        be = box.backend
        m = brute.h_mat(be.field, 2)
        pair = (m, mat_neg(be.field, m))
        canon = min(pair)
        for mat in pair:
            s = be.encode(mat)
            assert be.decode(s) == canon  # the matrix the handle holds
            fresh = MatrixBackend(be.field, center_quotient=True, opaque=opaque, seed=2)
            assert fresh.decode(s) == canon  # decoded from the bytes
            # a string whose plain bytes are not the canonical entries: the
            # same key and nonce stream over SL2(13), which does not canonicalize
            raw = MatrixBackend(be.field, opaque=opaque, seed=2).encode(mat)
            assert fresh.decode(raw) == canon


# the backend kernels against the reference definitions: integers mod p
# (q = 5, 13), log/Zech tables (q = 9, 81, 169) and log tables with XOR
# (q = 16, 256); k = 1 also on the basis 1/c, where basis_0^2 = c * basis_0
def _kernel_fields():
    for p, k in [(5, 1), (3, 2), (13, 1), (2, 4), (3, 4), (13, 2), (2, 8)]:
        yield ExplicitField.polynomial_field(p, k)
    for p, c in [(5, 3), (13, 5), (13, 12)]:
        yield ExplicitField(p, 1, (((c,),),))


_KERNEL_FIELDS = list(_kernel_fields())


def _field_id(F):
    return f"q={F.order}" + (f"-c={F._c00}" if F._c00 != 1 else "")


def _entry(F, rng):
    # zero entries a quarter of the time: the table kernels treat zero apart
    return 0 if rng.random() < 0.25 else rng.randrange(1, F.order)


def _matrices(F, rng, n):
    """n arbitrary matrices, singular ones included."""
    return [((_entry(F, rng), _entry(F, rng)), (_entry(F, rng), _entry(F, rng))) for _ in range(n)]


@pytest.mark.parametrize("F", _KERNEL_FIELDS, ids=_field_id)
def test_kernel_mul_matches_mat_mul(F):
    be = MatrixBackend(F, opaque=False)
    rng = random.Random(F.order)
    ms = _matrices(F, rng, 400)
    for a, b in zip(ms, ms[1:]):
        assert be.mul(a, b) == mat_mul(F, a, b)
        # the off-diagonal sums of a times its adjugate cancel to zero
        (x, y), (z, w) = a
        adj = ((w, F.neg(y)), (F.neg(z), x))
        assert be.mul(a, adj) == mat_mul(F, a, adj)


@pytest.mark.parametrize("F", [F for F in _KERNEL_FIELDS if F.p != 2], ids=_field_id)
def test_kernel_canonical_form_matches_mat_neg(F):
    be = MatrixBackend(F, center_quotient=True, opaque=True)
    for m in _matrices(F, random.Random(F.order), 300):
        assert be.neg(m) == mat_neg(F, m)
        assert be.decode(be.encode(m)) == min(m, mat_neg(F, m))


@pytest.mark.parametrize("F", _KERNEL_FIELDS, ids=_field_id)
def test_kernel_inverse_matches_mat_inv2(F):
    rng = random.Random(F.order)
    ident = backend.mat_identity(F)
    special = MatrixBackend(F, opaque=False)
    for _ in range(200):
        m = oracle.random_sl2(F, rng)
        assert special.inv(m) == backend.mat_inv2(F, m)
    # a GL box still inverts through the determinant
    gl = MatrixBackend(F, special=False, opaque=False)
    dets = set()
    for m in _matrices(F, rng, 200):
        det = backend.mat_det2(F, m)
        if det:
            dets.add(det)
            assert gl.inv(m) == backend.mat_inv2(F, m)
            assert mat_mul(F, m, gl.inv(m)) == ident
    assert len(dets) > 1


@pytest.mark.parametrize("F", _KERNEL_FIELDS, ids=_field_id)
def test_transparent_strings_are_the_packed_entries(F):
    width = max(1, (F.order - 1).bit_length() + 7 >> 3)
    for cq in (False, True) if F.p != 2 else (False,):
        be = MatrixBackend(F, center_quotient=cq, opaque=False)
        for m in _matrices(F, random.Random(F.order + cq), 100):
            canon = min(m, mat_neg(F, m)) if cq else m
            packed = b"".join(x.to_bytes(width, "big") for row in canon for x in row)
            assert be.encode(m).data == packed


# SL and PSL, k = 1, k > 1 and p = 2
_FUSED_CASES = [(13, 1, False), (13, 1, True), (3, 4, False), (3, 4, True), (2, 8, False)]


@pytest.mark.parametrize("p, k, cq", _FUSED_CASES)
@pytest.mark.parametrize("opaque", (True, False))
def test_fused_raw_ops_match_the_backend_steps(p, k, cq, opaque):
    # the box's raw ops are closures over the backend's codec and kernels;
    # a twin backend of the same seed, driven step by step, makes the same
    # bytes as long as both draw the same nonces in the same order
    box = make_matrix_blackbox(p, k, center_quotient=cq, opaque=opaque, seed=11)
    twin = MatrixBackend(box.backend.field, center_quotient=cq, opaque=opaque, seed=11)
    assert [x.data for x in twin.blackbox().generators] == [x.data for x in box.generators]
    rng = random.Random(p * k + cq)
    xs = list(box.generators)
    for _ in range(600):
        x, y = rng.choice(xs), rng.choice(xs)
        assert box._compare(x, y) == (twin.decode(x) == twin.decode(y))
        if rng.random() < 0.25:
            z, want = box._inv(x), twin.encode(twin.inv(twin.decode(x)))
        else:
            z, want = box._mul(x, y), twin.encode(twin.mul(twin.decode(x), twin.decode(y)))
        assert z.data == want.data
        xs.append(z)


@pytest.mark.parametrize("p, k, cq", _FUSED_CASES)
@pytest.mark.parametrize("opaque", (True, False))
def test_raw_ops_read_other_strings_from_their_bytes(p, k, cq, opaque):
    # a box reads its own handles inline; a handle of another backend over the
    # same field, under another key, must be read from its bytes and never
    # from the matrix it holds, so each raw op gives what the bytes decode to
    # under this box's key, or raises InputError where they decode to none
    box = make_matrix_blackbox(p, k, center_quotient=cq, opaque=opaque, seed=11)
    be = box.backend
    other = make_matrix_blackbox(p, k, center_quotient=cq, opaque=opaque, seed=12)
    rng = random.Random(p * k + cq)
    xs = [*_random_ops(box, rng, 30), *_random_ops(other, rng, 30)]
    canon = (lambda m: min(m, be.neg(m))) if cq else (lambda m: m)

    def outcome(f, *args):
        try:
            return f(*args)
        except InputError:
            return InputError

    def read(x):
        return be.decode(ElementString(x.data))

    for _ in range(300):
        x, y = rng.choice(xs), rng.choice(xs)
        want = outcome(lambda: canon(be.mul(read(x), read(y))))
        assert outcome(lambda: be.decode(box._mul(x, y))) == want
        assert outcome(lambda: be.decode(box._inv(x))) == outcome(lambda: canon(be.inv(read(x))))
        assert outcome(box._compare, x, y) == outcome(lambda: read(x) == read(y))


@pytest.mark.parametrize("p, k, cq", _FUSED_CASES)
@pytest.mark.parametrize("opaque", (True, False))
def test_bytes_copies_act_as_the_handles(p, k, cq, opaque):
    # a twin box of the same seed, given bytes copies of the box's handles,
    # makes the same product bytes: once the generators are read on both
    # sides, each side seals one product per op, in one order
    box = make_matrix_blackbox(p, k, center_quotient=cq, opaque=opaque, seed=11)
    twin = make_matrix_blackbox(p, k, center_quotient=cq, opaque=opaque, seed=11)
    assert [x.data for x in twin.generators] == [x.data for x in box.generators]
    rng = random.Random(p * k + cq)
    xs = list(box.generators)
    for _ in range(300):
        x, y = rng.choice(xs), rng.choice(xs)
        cx, cy = ElementString(x.data), ElementString(y.data)
        assert twin._compare(cx, cy) == box._compare(x, y)
        if rng.random() < 0.25:
            z, w = box._inv(x), twin._inv(cx)
        else:
            z, w = box._mul(x, y), twin._mul(cx, cy)
        assert z.data == w.data
        xs.append(z)


def test_a_recognition_that_reads_no_bytes_seals_nothing():
    # a recognition of SL2(2^4) reads the bytes of no string, so its opaque
    # box seals none and draws no nonce: a fresh handle then seals to the
    # bytes that a fresh twin backend gives for the same matrix as its first
    box = make_matrix_blackbox(2, 4, opaque=True, seed=7)
    res = recognize(box, 2, 4, random.Random(0), trials=20)
    assert res.verification["phi_homomorphism_checks"] == {"trials": 20, "passes": 20}
    be = box.backend
    m = brute.u_mat(be.field, 3)
    twin = MatrixBackend(be.field, opaque=True, seed=7)
    assert be.encode(m).data == twin.encode(m).data


@pytest.mark.parametrize(
    "p, k, cq", [(13, 1, False), (3, 4, False), (3, 4, True), (13, 2, True), (3, 6, False), (2, 8, False)],
    ids=["SL2(13)", "SL2(81)", "PSL2(81)", "PSL2(169)", "SL2(729)", "SL2(256)"],
)
def test_a_recognition_seals_no_string(p, k, cq, monkeypatch):
    # boxes read their handles' matrices and parts, and a tuple box reads its
    # degree off its generators' parts, so no recognition reads the bytes of
    # a string that has none yet, in either characteristic
    sealed, read = [], ElementString.data.fget

    def data(x):
        if x._data is None:
            sealed.append(x)
        return read(x)

    monkeypatch.setattr(ElementString, "data", property(data))
    box = make_matrix_blackbox(p, k, center_quotient=cq, seed=1000)
    recognize(box, p, k, random.Random(0), trials=200)
    assert sealed == []


def test_a_plain_subgroup_box_seals_none_of_its_generators(rng):
    # at k = 1 a handle of the base box is one base string: reading the degree
    # and the sampler's burn-in leave it unsealed
    box = make_matrix_blackbox(13, 1, opaque=True, seed=2)
    gens = box.generators
    sub = SubgroupBox(box, gens, rng)
    assert sub.k == 1
    for _ in range(5):
        sub.compare(sub.sample(rng), gens[0])
    assert all(g._data is None for g in gens)


def test_import_loads_no_openssl():
    # the codec's BLAKE2b is CPython's own _blake2 module; hashlib would also
    # load _hashlib and OpenSSL's libcrypto, which nothing here calls
    env = dict(os.environ, PYTHONPATH=str(SRC))
    code = "import sys, bbsl2, bbsl2.cli; print(sorted({'hashlib', '_hashlib'} & set(sys.modules)))"
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"
    # and it is the same constructor, so every string keeps its bytes
    assert backend.blake2b is hashlib.blake2b
