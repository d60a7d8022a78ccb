"""Field recovery on the unipotent subgroup and primitive prime divisors."""
import functools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bbsl2 import bbfield, modp, sl2char2
from bbsl2.arith import factorint
from bbsl2.backend import make_matrix_blackbox
from bbsl2.bbfield import ppd_prime, trace_form
from bbsl2.errors import ContractViolation, InputError
from bbsl2.field import ExplicitField
from bbsl2.sl2odd import recover_psl2

import brute


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


def test_ppd_rejects_bad_input():
    # p an int prime and n an int >= 1, with no bool, float or str
    bad = [(1, 2), (0, 2), (-3, 2), (4, 2), (91, 2), (2.0, 3), (True, 3), ("3", 2)]
    bad += [(3, 0), (3, -1), (3, True), (3, 2.0), (3, "2")]
    # p^n above 2^40: trial division of 3^43 - 1 would run for hours
    bad += [(3, 43), (2, 41), (2**40 + 15, 1)]
    for p, n in bad:
        with pytest.raises(InputError):
            ppd_prime(p, n)
    # n is bounded by p^n <= 2^40, not as a field's k is: 2^21 - 1 = 7^2 * 127 * 337
    assert ppd_prime(2, 21) == 337
    # 2^40 - 1 = 3 * 5^2 * 11 * 17 * 31 * 41 * 61681, 3^25 - 1 = 2 * 11^2 * 8951 * 391151
    assert (ppd_prime(2, 40), ppd_prime(3, 25)) == (61681, 391151)


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
    # an index is an int: True and 1.0 are not the index 1
    for j in (f.p**f.k, -1, True, 1.0, "1"):
        with pytest.raises(InputError, match="no field element with index"):
            f.lift_int(j)


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
    a, b = brute.random_element(f, rng), brute.random_element(f, rng)
    assert box.compare(f.add(a, b), box.mul(a, b))


def test_gram_determinant_nonzero(recovered):
    assert brute.gram_det(recovered.field) != 0


def test_explicit_presentation_validates(recovered):
    E = recovered.explicit
    E.validate()
    assert E.to_dict() == recovered.field.to_explicit().to_dict()


@pytest.fixture
def shifted_constant(monkeypatch):
    """Both fields read a trace form whose first structure constant, the
    first coordinate of gamma^1 * gamma^1, is shifted by 1 mod p."""
    real = bbfield.trace_form

    def shifted(T, p, k):
        if (form := real(T, p, k)) is None:
            return None
        ginv, ((row, *rows), *planes) = form
        row = ((row[0] + 1) % p, *row[1:])
        return ginv, ((row, *rows), *planes)

    monkeypatch.setattr(bbfield, "trace_form", shifted)
    monkeypatch.setattr(sl2char2, "trace_form", shifted)


_DISAGREE = "structure constants disagree with the box on a basis product"


@pytest.mark.parametrize("p,k", [(3, 2), (3, 4)], ids=["q=9", "q=81"])
def test_black_box_field_rejects_a_wrong_structure_constant(shifted_constant, p, k):
    box = make_matrix_blackbox(p, k, opaque=True, seed=21)
    with pytest.raises(ContractViolation, match=_DISAGREE):
        recover_psl2(box, p, k, random.Random(13), trials=20)


@pytest.mark.parametrize("n", [3, 8], ids=lambda n: f"n={n}")
def test_char2_field_rejects_a_wrong_structure_constant(shifted_constant, n):
    box = make_matrix_blackbox(2, n, opaque=True, seed=41)
    with pytest.raises(ContractViolation, match=_DISAGREE):
        sl2char2.recover_char2(box, n, random.Random(n), trials=20)


def test_structure_constants_prime_case_is_unit():
    box = make_matrix_blackbox(13, 1, opaque=True, seed=2)
    res = recover_psl2(box, 13, 1, random.Random(4), trials=10)
    assert res.field.structure == (((1,),),)


@pytest.mark.parametrize("p,k", [(3, 2), (2, 4), (13, 2), (5, 3)])
def test_trace_form_on_a_prime_field_element_and_a_generator(p, k):
    F = ExplicitField.polynomial_field(p, k)

    def power_traces(gamma):
        return [None] + [brute.trace(F, F.pow(gamma, m)) for m in range(1, 3 * k + 1)]

    assert trace_form(power_traces(F.scalar(p - 1)), p, k) is None  # gamma in F_p
    gamma = brute.field_generator(F)
    ginv, structure = trace_form(power_traces(gamma), p, k)
    gram = [[brute.trace(F, F.pow(gamma, i + j)) for j in range(1, k + 1)] for i in range(1, k + 1)]
    assert modp.mat_mul(gram, ginv, p) == tuple(tuple(int(i == j) for j in range(k)) for i in range(k))
    for i in range(1, k + 1):
        for j in range(1, k + 1):
            terms = [F.mul(F.scalar(c), F.pow(gamma, l)) for l, c in enumerate(structure[i - 1][j - 1], 1)]
            assert functools.reduce(F.add, terms, 0) == F.pow(gamma, i + j)
