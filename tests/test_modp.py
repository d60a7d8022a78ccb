"""Linear algebra and polynomial arithmetic over prime fields."""
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bbsl2 import modp

_PRIMES = st.sampled_from([2, 3, 5, 13])


def _rand_mat(draw, p, k):
    return tuple(
        tuple(draw(st.integers(min_value=0, max_value=p - 1)) for _ in range(k))
        for _ in range(k)
    )


@st.composite
def _invertible(draw):
    p = draw(_PRIMES)
    k = draw(st.integers(min_value=1, max_value=4))
    for _ in range(40):
        m = _rand_mat(draw, p, k)
        if modp.mat_det(m, p) != 0:
            return p, m
    # fall back to the identity rather than reject-loop forever
    return p, modp.mat_identity(k)


@given(_invertible())
@settings(max_examples=100, deadline=None)
def test_mat_inv_roundtrip(pm):
    p, m = pm
    k = len(m)
    assert modp.mat_mul(m, modp.mat_inv(m, p), p) == modp.mat_identity(k)
    assert modp.mat_mul(modp.mat_inv(m, p), m, p) == modp.mat_identity(k)


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


def test_irreducibility_matches_root_search_deg2_deg3():
    for p in (2, 3, 5):
        for k in (2, 3):
            for n in range(p**k):
                coeffs = []
                m = n
                for _ in range(k):
                    coeffs.append(m % p)
                    m //= p
                f = tuple(coeffs) + (1,)  # monic degree k
                # degree 2 and 3: irreducible over F_p iff no root
                rootless = all(_poly_eval(f, x, p) != 0 for x in range(p))
                assert modp.is_irreducible(f, p) == rootless, (p, f)


def test_smallest_irreducible_frozen():
    assert modp.smallest_irreducible(2, 2) == (1, 1, 1)  # x^2 + x + 1
    assert modp.smallest_irreducible(2, 3) == (1, 1, 0, 1)  # x^3 + x + 1
    assert modp.smallest_irreducible(3, 2) == (1, 0, 1)  # x^2 + 1
    for p, k in [(2, 8), (3, 4), (13, 2)]:
        f = modp.smallest_irreducible(p, k)
        assert len(f) == k + 1 and f[-1] == 1
        assert modp.is_irreducible(f, p)


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
