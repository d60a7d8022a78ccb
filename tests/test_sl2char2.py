"""Recognition of SL2(2^n) and the pair-carried field."""
import random

import pytest

from bbsl2 import oracle
from bbsl2.backend import make_matrix_blackbox
from bbsl2.bbfield import combine
from bbsl2.blackbox import element_order
from bbsl2.errors import ContractViolation, InputError
from bbsl2.involutions import bray_element, find_order3_inverted
from bbsl2.sl2char2 import (
    Char2Field,
    _bray_step,
    dihedral_frame,
    enumerate_unipotent,
    involution_sample,
    recover_char2,
)

import brute
from counting import count_base_ops


def test_involution_sample(sl2_8, rng):
    for _ in range(10):
        r = involution_sample(sl2_8, rng)
        assert not sl2_8.is_identity(r)
        assert sl2_8.is_identity(sl2_8.power(r, 2))


def test_involution_sample_budget_grows_with_q():
    # about 1 sample in q is an involution, so a fixed 4000 samples miss at
    # SL2(2^12) with probability about exp(-4000/4096); 40q samples do not
    for seed in range(10):
        box = make_matrix_blackbox(2, 12, seed=seed)
        r = involution_sample(box, random.Random(seed))
        assert not box.is_identity(r) and box.is_identity(box.mul(r, r))


def test_involution_sample_tests_x_only_on_a_hit():
    # a miss costs one mul and one compare (x^2 = 1?); only a hit also
    # compares x with the identity
    box = make_matrix_blackbox(2, 4, opaque=True, seed=3)
    rng = random.Random(2)
    box.sample(rng)  # the sampler's burn-in stays outside the count
    samples, compares = box.stats["samples"], box.stats["compares"]
    involution_sample(box, rng)
    draws = box.stats["samples"] - samples
    assert draws > 1
    assert box.stats["compares"] - compares == draws + 1


@pytest.mark.parametrize("seed", [0, 1, 2])
@pytest.mark.parametrize("n", [2, 3, 4, 8])
def test_dihedral_frame_relations(n, seed):
    # dihedral_frame checks nothing: the relations below hold in every
    # group for an order-3 theta inverted by r, and here they are shown
    box = make_matrix_blackbox(2, n, opaque=True, seed=50 + n)
    rng = random.Random(seed)
    r = involution_sample(box, rng)
    theta = find_order3_inverted(box, r, rng)
    assert element_order(box, theta) == 3
    assert box.compare(box.conj(theta, r), box.inv(theta))
    frame = dihedral_frame(box, r, theta)
    assert element_order(box, frame.weyl) == 2
    assert element_order(box, frame.v1) == 2
    assert not box.commutes(frame.r, frame.weyl)
    # conjugation by the Weyl candidate swaps r onto the opposite unipotent
    assert box.compare(box.conj(frame.r, frame.weyl), frame.v1)


def test_dihedral_frame_costs_three_muls():
    box = make_matrix_blackbox(2, 4, opaque=True, seed=5)
    rng = random.Random(1)
    r = involution_sample(box, rng)
    theta = find_order3_inverted(box, r, rng)
    ops = count_base_ops(box)
    dihedral_frame(box, r, theta)
    assert ops.snapshot() == (3, 0, 0)


@pytest.mark.parametrize("n", [2, 3, 4])
def test_enumerate_unipotent_is_the_full_subgroup(n, rng):
    box = make_matrix_blackbox(2, n, opaque=False, seed=4)
    be = box.backend
    r = involution_sample(box, rng)
    elements, basis = enumerate_unipotent(box, r, rng, n)
    assert len(elements) == 2**n
    assert len(basis) == n
    assert box.is_identity(elements[0])
    decoded = {be.decode(x) for x in elements}
    group = brute.closure(be.field, be.standard_generators())
    want = brute.centralizer_set(be.field, group, be.decode(r))
    assert decoded == want  # C(r) is exactly the unipotent subgroup through r
    # index arithmetic: products track bitwise xor of indices
    for i in (1, 3, 2**n - 1):
        for j in (1, 2, 2**n - 2):
            assert be.decode(box.mul(elements[i], elements[j])) == be.decode(
                elements[i ^ j]
            )


@pytest.fixture(scope="module")
def field8():
    box = make_matrix_blackbox(2, 3, opaque=True, seed=9)
    rng = random.Random(17)
    r = involution_sample(box, rng)
    theta = find_order3_inverted(box, r, rng)
    frame = dihedral_frame(box, r, theta)
    return Char2Field(box, frame, 3, rng)


def test_char2field_lift_read_roundtrip(field8):
    for j in range(8):
        assert field8.read_int(field8.lift_int(j)) == j
    # an index is an int: True and 1.0 are not the index 1
    for j in (8, -1, True, 1.0, "1"):
        with pytest.raises(InputError, match="no field element with index"):
            field8.lift_int(j)


def test_char2field_addition_is_xor_of_indices(field8):
    for i in range(8):
        for j in range(8):
            s = field8.add(field8.lift_int(i), field8.lift_int(j))
            assert field8.read_int(s) == i ^ j


def test_char2field_axioms(field8):
    rng = random.Random(3)
    one, zero = field8.one, field8.zero
    for _ in range(60):
        a = brute.random_element(field8, rng)
        b = brute.random_element(field8, rng)
        c = brute.random_element(field8, rng)
        assert field8.eq(field8.mul(a, b), field8.mul(b, a))
        assert field8.eq(
            field8.mul(a, field8.mul(b, c)), field8.mul(field8.mul(a, b), c)
        )
        assert field8.eq(
            field8.mul(a, field8.add(b, c)),
            field8.add(field8.mul(a, b), field8.mul(a, c)),
        )
        assert field8.eq(field8.mul(one, a), a)
        assert field8.is_zero(field8.add(a, a))  # characteristic 2
        assert field8.is_zero(field8.mul(zero, a))
        if not field8.is_zero(a):
            assert field8.eq(field8.mul(a, field8.inv(a)), one)
    with pytest.raises(ZeroDivisionError):
        field8.inv(zero)


def _ops(box):
    return box.stats["muls"], box.stats["invs"], box.stats["compares"]


def test_char2field_lift_and_add_make_no_witness(field8):
    # a lift and a sum only multiply markers; the witness bridge, with
    # its inverse and its compare, waits for a use that needs it
    box = field8.box
    before = _ops(box)
    elements = [field8.lift_int(j) for j in range(8)]
    sums = [field8.add(a, b) for a in elements for b in elements]
    muls, invs, compares = (b - a for a, b in zip(before, _ops(box)))
    assert (invs, compares) == (0, 0) and muls > 0
    assert all(a[0] is None for a in elements[1:] + sums)


def test_char2field_witnesses_on_demand_give_field_results(field8):
    E = field8.to_explicit()
    for i in range(1, 8):
        a = field8.lift_int(i)
        assert field8.read_int(field8.inv(a)) == E.inv(i)
        for j in range(8):
            b = field8.lift_int(j)
            s = field8.add(a, b)  # zero when j == i
            assert field8.read_int(s) == i ^ j
            assert field8.read_int(field8.mul(a, b)) == E.mul(i, j)
            assert field8.read_int(field8.mul(s, a)) == E.mul(i ^ j, i)
            if j != i:
                assert field8.read_int(field8.inv(s)) == E.inv(i ^ j)
            else:
                assert field8.is_zero(s)
                with pytest.raises(ZeroDivisionError):
                    field8.inv(s)


def test_char2field_failed_witness_bridge_raises_through_mul(field8, monkeypatch):
    a, b = field8.lift_int(3), field8.lift_int(5)
    # a wrong constant tail: the bridge lands off the marker, and the
    # check inside _witness catches it when mul asks for a witness
    monkeypatch.setattr(field8, "_bridge_tail", field8.r)
    with pytest.raises(ContractViolation, match="witness bridge"):
        field8.mul(a, b)


def test_char2field_multiplicative_group_order(field8):
    # the nonzero elements form a cyclic group of order 7 (prime): every
    # element besides one is a generator
    a = field8.lift_int(3)
    seen = {field8.read_int(a)}
    x = a
    for _ in range(6):
        x = field8.mul(x, a)
        seen.add(field8.read_int(x))
    assert seen == set(range(1, 8))


def test_char2field_explicit_table_matches(field8):
    E = field8.to_explicit()
    E.validate()
    for i in range(8):
        for j in range(8):
            assert field8.read_int(field8.mul(field8.lift_int(i), field8.lift_int(j))) == E.mul(i, j)


@pytest.mark.parametrize("n", [2, 3, 4, 8])
def test_char2field_halved_traces_match_direct(n):
    box = make_matrix_blackbox(2, n, opaque=True, seed=31)
    rng = random.Random(n)
    r = involution_sample(box, rng)
    frame = dihedral_frame(box, r, find_order3_inverted(box, r, rng))
    field = Char2Field(box, frame, n, rng)
    assert len(field._cpow) == 3 * n + 1
    muls = box.stats["muls"]
    direct = [None] + [field._trace(w) for w in field._cpow[1:]]
    per_trace = (box.stats["muls"] - muls) / (3 * n)
    muls = box.stats["muls"]
    assert field._power_traces(field._cpow) == direct
    # only the odd m of 1..3n reach the box
    assert box.stats["muls"] - muls == per_trace * ((3 * n + 1) // 2)


@pytest.fixture(scope="module", params=[2, 3, 4, 8], ids=lambda n: f"n={n}")
def field_n(request):
    n = request.param
    box = make_matrix_blackbox(2, n, opaque=True, seed=41)
    rng = random.Random(n)
    r = involution_sample(box, rng)
    frame = dihedral_frame(box, r, find_order3_inverted(box, r, rng))
    return Char2Field(box, frame, n, rng)


def test_char2field_lift_is_the_product_of_its_basis_markers(field_n):
    # the marker of j is combine() of the bits of j, built from its first
    # factor: popcount(j) - 1 muls, and no inverse or compare
    box, n = field_n.box, field_n.k
    for j in range(1, 1 << n):
        before = _ops(box)
        witness, marker = field_n.lift_int(j)
        cost = tuple(b - a for a, b in zip(before, _ops(box)))
        assert witness is None
        assert cost == (bin(j).count("1") - 1, 0, 0), j
        assert box.compare(marker, combine(box, field_n._s, [j >> i & 1 for i in range(n)], 2)), j


def test_bray_step_is_bray_element(field_n):
    # w = r * r^g is the identity for g in U, an involution for g in the
    # normalizer of U outside it (the conjugator c), and of odd order for
    # almost every random g
    box, r, n = field_n.box, field_n.r, field_n.k
    rng = random.Random(5)
    gs = [box.identity, r, field_n.lift_int(3)[1], field_n._cpow[1]]
    gs += [box.sample(rng) for _ in range(8)]
    kinds = set()
    for g in gs:
        w = box.mul(r, box.conj(r, g))
        if box.is_identity(w):
            kinds.add("identity")
        else:
            kinds.add("involution" if box.is_identity(box.mul(w, w)) else "odd")
        assert box.compare(_bray_step(box, r, g, n), bray_element(box, r, g))
    assert kinds == {"identity", "involution", "odd"}


def test_recover_char2_rejects_small_n(rng):
    box = make_matrix_blackbox(2, 2, opaque=True, seed=1)
    with pytest.raises(InputError):
        recover_char2(box, 1, rng)


@pytest.mark.parametrize("trials", [0, -5, 2.5, True, "3", None])
def test_recover_char2_rejects_trials_below_one(trials, sl2_8, rng):
    with pytest.raises(InputError):
        recover_char2(sl2_8, 3, rng, trials=trials)
    assert sl2_8.stats["samples"] == 0  # rejected before any search


@pytest.mark.parametrize("n", [2, 3])
def test_recover_char2_full_run(n, rng):
    box = make_matrix_blackbox(2, n, opaque=True, seed=23)
    res = recover_char2(box, n, rng, trials=60)
    v = res.verification
    assert v["phi_homomorphism_checks"] == {"trials": 60, "passes": 60}
    assert set(v) == {"phi_homomorphism_checks", "is_center_quotient"}
    assert not v["is_center_quotient"] and len(res.extras["iso_matrix"]) == n
    assert box.compare(res.field.to_box(res.field.one), res.frame.r)
    assert (res.explicit.p, res.explicit.k, res.explicit.order) == (2, n, 2**n)


def test_recover_char2_image_generates_whole_group(rng):
    box = make_matrix_blackbox(2, 3, opaque=False, seed=29)
    be = box.backend
    res = recover_char2(box, 3, rng, trials=10)
    phi = res.morphism
    E = res.explicit
    one, tau = E.one, E.primitive_element()
    imgs = [
        be.decode(phi(((one, one), (0, one)))),
        be.decode(phi(((0, one), (one, 0)))),
        be.decode(phi(((tau, 0), (0, E.inv(tau))))),
    ]
    assert len(brute.closure(be.field, imgs)) == 504  # |SL2(8)|


def test_recover_char2_morphism_preserves_traces(rng):
    box = make_matrix_blackbox(2, 3, opaque=False, seed=29)
    be = box.backend
    F = be.field
    res = recover_char2(box, 3, rng, trials=10)
    phi, E = res.morphism, res.explicit
    from bbsl2 import modp

    iso = res.extras["iso_matrix"]
    for _ in range(60):
        m = oracle.random_sl2(E, rng)
        got = be.decode(phi(m))
        want_tr = F.element(modp.vec_mat(E.coords(E.add(m[0][0], m[1][1])), iso, 2))
        assert F.add(got[0][0], got[1][1]) == want_tr


def test_recover_char2_reads_coordinates_without_a_scan():
    # coordinates come from the trace form; reading them by a search
    # through the 2^10 elements of U took over 46,000 compares here
    box = make_matrix_blackbox(2, 10, opaque=True, seed=1001)
    res = recover_char2(box, 10, random.Random(1), trials=20)
    assert res.verification["phi_homomorphism_checks"] == {"trials": 20, "passes": 20}
    assert box.stats["compares"] < 5000
