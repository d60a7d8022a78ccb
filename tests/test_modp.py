"""Linear algebra and polynomial arithmetic over prime fields."""
import itertools
import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bbsl2 import modp

from brute import det

_PRIMES = st.sampled_from([2, 3, 5, 13])


def _rand_mat(draw, p, k):
    return tuple(
        tuple(draw(st.integers(min_value=0, max_value=p - 1)) for _ in range(k))
        for _ in range(k)
    )


def _identity(k):
    return tuple(tuple(int(i == j) for j in range(k)) for i in range(k))


@st.composite
def _invertible(draw):
    p = draw(_PRIMES)
    k = draw(st.integers(min_value=1, max_value=4))
    for _ in range(40):
        m = _rand_mat(draw, p, k)
        if det(m, p) != 0:
            return p, m
    # fall back to the identity rather than reject-loop forever
    return p, _identity(k)


@given(_invertible())
@settings(max_examples=100, deadline=None)
def test_mat_inv_roundtrip(pm):
    p, m = pm
    k = len(m)
    assert modp.mat_mul(m, modp.mat_inv(m, p), p) == _identity(k)
    assert modp.mat_mul(modp.mat_inv(m, p), m, p) == _identity(k)


def _leibniz(m, p):
    """det m mod p as the signed sum over permutations; the sign is the
    parity of the inversion count."""
    k = len(m)
    total = 0
    for perm in itertools.permutations(range(k)):
        inversions = sum(perm[i] > perm[j] for i in range(k) for j in range(i + 1, k))
        total += (-1) ** inversions * math.prod(m[i][perm[i]] for i in range(k))
    return total % p


@pytest.mark.parametrize("p", [2, 3, 13])
def test_brute_det_matches_leibniz(p):
    # the tests' determinant, which criterion 7's Gram check and the
    # basis draw of brute.scrambled rest on, against its definition
    rng = random.Random(p)
    singular = 0
    for k in range(1, 5):
        for _ in range(60):
            m = tuple(tuple(rng.randrange(p) for _ in range(k)) for _ in range(k))
            assert det(m, p) == _leibniz(m, p), m
            singular += not det(m, p)
    assert singular  # both branches of the elimination ran


def test_solve_rectangular_consistent_and_inconsistent():
    rows = [(1, 0), (0, 1), (1, 1)]
    assert modp.solve_rectangular(rows, [2, 3, 5], 7) == (2, 3)
    assert modp.solve_rectangular(rows, [2, 3, 6], 7) is None
    # underdetermined but solvable
    sol = modp.solve_rectangular([(1, 1)], [4], 5)
    assert sol is not None and sum(sol) % 5 == 4


def _poly_eval(f, x, p):
    acc = 0
    for c in reversed(f):
        acc = (acc * x + c) % p
    return acc


def _monic(p, k):
    """Every monic polynomial of degree k over F_p."""
    for n in range(p**k):
        coeffs = []
        for _ in range(k):
            coeffs.append(n % p)
            n //= p
        yield tuple(coeffs) + (1,)


def test_irreducibility_matches_root_search_deg2_deg3():
    for p in (2, 3, 5):
        for k in (2, 3):
            for f in _monic(p, k):
                # degree 2 and 3: irreducible over F_p iff no root
                rootless = all(_poly_eval(f, x, p) != 0 for x in range(p))
                assert modp.is_irreducible(f, p) == rootless, (p, f)


def _has_small_factor(f, p):
    k = len(f) - 1
    return any(not modp.poly_mod(f, g, p) for d in range(1, k // 2 + 1) for g in _monic(p, d))


@pytest.mark.parametrize("p, k", [(2, 4), (2, 5), (2, 6), (3, 4), (3, 5), (3, 6), (5, 4)])
def test_irreducibility_matches_factor_search(p, k):
    # from degree 4 on, a reducible polynomial can have no root, such as
    # (x^2 + 1)^2 over F_3, so a root search would not do
    rootless_reducible = 0
    for f in _monic(p, k):
        reducible = _has_small_factor(f, p)
        assert modp.is_irreducible(f, p) == (not reducible), (p, f)
        rootless_reducible += reducible and all(_poly_eval(f, x, p) for x in range(p))
    assert rootless_reducible


# the standard presentations, on which the golden iso matrices and pins rest
_SMALLEST_IRREDUCIBLE = {
    (2, 2): (1, 1, 1),  # x^2 + x + 1
    (2, 3): (1, 1, 0, 1),  # x^3 + x + 1
    (3, 2): (1, 0, 1),  # x^2 + 1
    (2, 4): (1, 1, 0, 0, 1),
    (2, 8): (1, 1, 0, 1, 1, 0, 0, 0, 1),
    (2, 9): tuple(int(i in {0, 1, 9}) for i in range(10)),
    (2, 12): (1, 0, 0, 1, 0, 0, 0, 0, 0, 0, 0, 0, 1),
    (2, 16): tuple(int(i in {0, 1, 3, 5, 16}) for i in range(17)),
    (2, 20): tuple(int(i in {0, 3, 20}) for i in range(21)),
    (3, 4): (2, 1, 0, 0, 1),
    (3, 6): (2, 1, 0, 0, 0, 0, 1),
    (3, 8): (2, 0, 1, 0, 0, 0, 0, 0, 1),
    (5, 4): (2, 0, 0, 0, 1),
    (13, 2): (2, 0, 1),
    (13, 1): (0, 1),
    (29, 1): (0, 1),
}


def test_smallest_irreducible_frozen():
    for (p, k), f in _SMALLEST_IRREDUCIBLE.items():
        assert modp.smallest_irreducible(p, k) == f, (p, k)
        assert modp.is_irreducible(f, p)


@pytest.mark.parametrize("p, k", [(p, k) for p in (2, 3, 5, 7) for k in range(2, 12) if p**k <= 2_401])
def test_smallest_irreducible_is_the_first_ben_or_accepts(p, k):
    # the root check before Ben-Or rejects only reducible candidates
    first = next(f for f in _monic(p, k) if modp.is_irreducible(f, p))
    assert modp.smallest_irreducible(p, k) == first


def test_bit_mask_ben_or_matches_the_tuple_reference():
    # bit i of the mask is the coefficient of x^i
    for k in range(1, 11):
        for f in _monic(2, k):
            mask = sum(c << i for i, c in enumerate(f))
            assert modp._is_irreducible2(mask) == modp.is_irreducible(f, 2), f


@given(
    st.sampled_from([2, 3, 5]),
    st.lists(st.integers(min_value=0, max_value=4), min_size=1, max_size=5),
    st.integers(min_value=0, max_value=40),
)
@settings(max_examples=80, deadline=None)
def test_poly_powmod_matches_naive(p, f, e):
    f = tuple(c % p for c in f)
    g = modp.smallest_irreducible(p, 3)
    out = modp.poly_powmod(f, e, g, p)
    naive = (1,)
    for _ in range(e):
        naive = modp.poly_mod(modp.poly_mul(naive, f, p), g, p)
    assert out == naive


def test_mat_inv_singular_raises():
    with pytest.raises(ZeroDivisionError):
        modp.mat_inv(((1, 1), (1, 1)), 5)
