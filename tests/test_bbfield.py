"""Field recovery on the unipotent subgroup and primitive prime divisors."""
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bbsl2.arith import factorint
from bbsl2.backend import make_matrix_blackbox
from bbsl2.bbfield import ppd_prime
from bbsl2.sl2odd import recover_psl2


def _mult_order_naive(p, r):
    o, x = 1, p % r
    while x != 1:
        x = x * p % r
        o += 1
    return o


def test_ppd_frozen_values():
    assert ppd_prime(3, 4) == 5
    assert ppd_prime(2, 4) == 5
    assert ppd_prime(13, 2) == 7
    assert ppd_prime(13, 1) == 3
    assert ppd_prime(3, 1) == 2
    assert ppd_prime(29, 1) == 7


def test_ppd_exceptional_pairs_return_none():
    assert ppd_prime(2, 6) is None
    assert ppd_prime(2, 1) is None
    for p in (3, 7, 31, 127):  # Mersenne characteristics, n = 2
        assert ppd_prime(p, 2) is None


@given(st.sampled_from([2, 3, 5, 7, 11, 13, 17, 29]), st.integers(min_value=1, max_value=8))
@settings(max_examples=120, deadline=None)
def test_ppd_is_largest_new_order_prime(p, n):
    if p**n >= 10**9:
        return
    r = ppd_prime(p, n)
    qualifying = [
        s for s in factorint(p**n - 1) if _mult_order_naive(p, s) == n
    ]
    if r is None:
        assert qualifying == []
    else:
        assert r == max(qualifying)
        assert (p**n - 1) % r == 0


@pytest.fixture(scope="module", params=[(13, 1), (3, 2), (3, 4)], ids=lambda s: f"q={s[0]**s[1]}")
def recovered(request):
    p, k = request.param
    box = make_matrix_blackbox(p, k, opaque=True, seed=21)
    return recover_psl2(box, p, k, random.Random(13), trials=20)


def test_field_lift_read_roundtrip(recovered):
    f = recovered.field
    for j in range(min(f.p**f.k, 100)):
        assert f.read_int(f.lift_int(j)) == j


def test_field_ops_match_explicit_table(recovered, rng):
    f, E = recovered.field, recovered.explicit
    q = E.order
    for _ in range(40):
        a, b = rng.randrange(q), rng.randrange(q)
        assert f.read_int(f.mul(f.lift_int(a), f.lift_int(b))) == E.mul(a, b)
        assert f.read_int(f.add(f.lift_int(a), f.lift_int(b))) == E.add(a, b)
        if a:
            assert f.read_int(f.inv(f.lift_int(a))) == E.inv(a)
            assert f.eq(f.mul(f.lift_int(a), f.inv(f.lift_int(a))), f.one)
    assert f.read_int(f.one) == E.one
    assert f.is_zero(f.zero) and f.read_int(f.zero) == 0


def test_field_addition_is_box_multiplication(recovered, rng):
    # the carrier is the unipotent subgroup: + upstairs is * downstairs
    f = recovered.field
    box = f.box
    a, b = f.random_element(rng), f.random_element(rng)
    assert box.compare(f.add(a, b), box.mul(a, b))


def test_gram_determinant_nonzero(recovered):
    assert recovered.field.gram_det % recovered.field.p != 0


def test_explicit_presentation_validates(recovered):
    E = recovered.explicit
    E.validate(random.Random(3), trials=128)
    assert E.same_presentation(recovered.field.to_explicit())


def test_structure_constants_prime_case_is_unit():
    box = make_matrix_blackbox(13, 1, opaque=True, seed=2)
    res = recover_psl2(box, 13, 1, random.Random(4), trials=10)
    assert res.field.structure == (((1,),),)
