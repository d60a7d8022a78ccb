"""Oracle cost of the Steinberg morphism, counted on the base box's raw operations.

``box.stats`` misses the work that ``SubgroupBox`` wrappers (including
the Frobenius tuple group, a subgroup of box^k) route to the base box's
raw ``_mul``, ``_inv`` and ``_compare``, so the counts here come from
``perfbench/counting.count_base_ops``, which wraps those on the base box
instance itself: the counter of the benchmark and of ``scripts/bench.py``.
"""
import random

import pytest

from bbsl2 import make_matrix_blackbox, recognize, recover_char2, recover_psl2

from counting import count_base_ops

# (label, p, k, center quotient): the groups of the morphism-apply benchmark
_GROUPS = [("PSL2(13)", 13, 1, True), ("SL2(81)", 3, 4, False), ("SL2(16)", 2, 4, False)]


@pytest.fixture(scope="module", params=_GROUPS, ids=lambda g: g[0])
def recognized(request):
    _, p, k, cq = request.param
    box = make_matrix_blackbox(p, k, center_quotient=cq, seed=7)
    ops = count_base_ops(box)
    res = recognize(box, p, k, random.Random(3), trials=20)
    assert res.verification["phi_homomorphism_checks"] == {"trials": 20, "passes": 20}
    return box, ops, res


def _inputs(E):
    """One matrix with c != 0 and one with c = 0, both of determinant 1."""
    t = E.primitive_element()
    with_c = ((t, E.one), (E.neg(E.one), 0))
    without_c = ((t, E.mul(t, t)), (0, E.inv(t)))
    return with_c, without_c


def test_image_costs_six_muls_and_no_inverse(recognized):
    box, ops, res = recognized
    for mat in _inputs(res.explicit):
        res.morphism(mat)  # lifts its entries' unipotents, once
        before = ops.snapshot()
        res.morphism(mat)
        muls, invs, compares = (b - a for a, b in zip(before, ops.snapshot()))
        assert (muls, invs, compares) == (6, 0, 0), mat


def test_images_are_fresh_strings(recognized):
    # the morphism keeps unipotents, never images: an image asked for twice
    # is the same element under a new encryption
    box, _, res = recognized
    for mat in _inputs(res.explicit):
        x, y = res.morphism(mat), res.morphism(mat)
        assert box.compare(x, y)
        assert x.data != y.data


def test_sl2_81_recognition_cost_is_pinned():
    # the count of every raw operation is fixed by the seed; the muls match
    # the pin of the benchmark's own counter test
    box = make_matrix_blackbox(3, 4, seed=1000)
    ops = count_base_ops(box)
    res = recover_psl2(box, 3, 4, random.Random(0), trials=200)
    assert res.verification["phi_homomorphism_checks"] == {"trials": 200, "passes": 200}
    assert ops.muls == 13_340
    assert ops.invs == 1_476
    assert ops.compares == 1_285


def test_psl2_81_recognition_cost_is_pinned():
    # SL2 and PSL2 share one Weyl search, by random conjugates of u; with
    # a separate search through Bray's involution centralizer this run
    # took 13,492 muls, 910 invs and 873 compares
    box = make_matrix_blackbox(3, 4, center_quotient=True, seed=1000)
    ops = count_base_ops(box)
    res = recover_psl2(box, 3, 4, random.Random(0), trials=200)
    assert res.verification["phi_homomorphism_checks"] == {"trials": 200, "passes": 200}
    assert ops.snapshot() == (13_434, 1_475, 1_289)


def test_sl2_256_recognition_cost_is_pinned():
    # lifts and sums carry markers only, so no lift pays for the witness
    # bridge; a witness per lift made this run 12,753 muls, 764 invs and
    # 650 compares. A lift multiplies basis markers from its first factor,
    # Bray steps square instead of computing orders, and the order-3
    # search computes the order of its accepted candidate alone; before
    # that the run took 7,653 muls, 254 invs and 395 compares. The dihedral
    # frame tested relations that hold in every group, at 6 muls, 1 inv
    # and 6 compares: with them the run took 5,992, 254 and 339. The
    # structure check built each row from the identity, two muls per set
    # bit, where the field's own lift starts from its first factor: with
    # that the run took 5,986, 253 and 333. A field element was a (witness,
    # marker) pair, mul derived the witnesses of both factors, and the
    # order-3 search computed the order of its accepted candidate: with
    # that the run took 5,736, 253 and 333
    box = make_matrix_blackbox(2, 8, seed=1001)
    ops = count_base_ops(box)
    res = recover_char2(box, 8, random.Random(1), trials=200)
    assert res.verification["phi_homomorphism_checks"] == {"trials": 200, "passes": 200}
    assert ops.snapshot() == (5_608, 254, 329)


# the field map of each pinned recognition above; the root search picks the
# first root in integer order, so the matrix is fixed by the seed too
_ISO_PINS = [
    (
        3, 4, 1000, 0,
        ((2, 0, 2, 0), (2, 2, 2, 0), (2, 0, 2, 1), (2, 1, 0, 2)),
    ),
    (
        2, 8, 1001, 1,
        (
            (0, 0, 0, 0, 0, 1, 0, 0), (0, 0, 1, 1, 0, 1, 1, 0), (1, 1, 1, 1, 0, 1, 0, 0),
            (1, 1, 1, 0, 1, 0, 0, 1), (1, 0, 1, 1, 1, 1, 1, 0), (1, 0, 0, 1, 1, 1, 0, 0),
            (1, 0, 0, 0, 0, 1, 1, 0), (0, 0, 1, 0, 1, 0, 0, 1),
        ),
    ),
]


@pytest.mark.parametrize("p, k, box_seed, seed, matrix", _ISO_PINS, ids=["SL2(81)", "SL2(256)"])
def test_pinned_recognitions_iso_matrix(p, k, box_seed, seed, matrix):
    box = make_matrix_blackbox(p, k, seed=box_seed)
    res = recognize(box, p, k, random.Random(seed), trials=200)
    assert res.extras["iso_matrix"] == matrix
