"""Integer arithmetic helpers: factorization and part extraction."""
import itertools
import math
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bbsl2 import arith
from bbsl2.arith import coprime_part, factorint, p_part
from bbsl2.errors import InputError
from bbsl2.field import MAX_ORDER, check_field

SRC = Path(__file__).resolve().parents[1] / "src"
# primes just above 1,000, whose products and powers have no factor
# below 1,000, so trial division has to run past d = 1,000
_ABOVE_TRIAL_BOUND = (1009, 1013, 1019, 1021, 1031, 1033)


def _trial_division(n: int) -> dict[int, int]:
    out: dict[int, int] = {}
    d = 2
    while d * d <= n:
        while n % d == 0:
            out[d] = out.get(d, 0) + 1
            n //= d
        d += 1
    if n > 1:
        out[n] = out.get(n, 0) + 1
    return out


def _assert_factorization(n: int, f: dict[int, int]) -> None:
    assert math.prod(p**e for p, e in f.items()) == n
    assert f == _trial_division(n)


def test_factorint_frozen_group_orders():
    # |GL2(13)| and the global exponents the pipelines factor routinely
    assert factorint(2184) == {2: 3, 3: 1, 7: 1, 13: 1}
    assert factorint(26208) == {2: 5, 3: 2, 7: 1, 13: 1}
    assert factorint(240) == {2: 4, 3: 1, 5: 1}
    assert factorint(28560) == {2: 4, 3: 1, 5: 1, 7: 1, 17: 1}


@given(st.integers(min_value=2, max_value=10**12))
@settings(max_examples=150, deadline=None)
def test_factorint_matches_trial_division_and_rebuilds(n):
    _assert_factorization(n, factorint(n))


@pytest.mark.parametrize("p, q", itertools.combinations((997,) + _ABOVE_TRIAL_BOUND, 2))
def test_factorint_semiprimes_above_trial_bound(p, q):
    f = factorint(p * q)
    assert f == {p: 1, q: 1}
    _assert_factorization(p * q, f)


def test_factorint_prime_powers_above_trial_bound():
    # a square or cube must come out as one prime with its multiplicity
    arith._factorint_cached.cache_clear()
    for p in _ABOVE_TRIAL_BOUND:
        for e in (2, 3):
            f = factorint(p**e)
            assert f == {p: e}
            _assert_factorization(p**e, f)


def test_factorint_mersenne_numbers_and_odd_grid_orders():
    for n in range(2, 25):
        _assert_factorization(2**n - 1, factorint(2**n - 1))
    assert factorint(2**23 - 1) == {47: 1, 178_481: 1}
    for q in (9, 13, 29, 81, 169):
        _assert_factorization(q * q - 1, factorint(q * q - 1))


_COLD_START = """
import tracemalloc
tracemalloc.start()
from bbsl2 import make_matrix_blackbox
from bbsl2.arith import factorint
after_import = tracemalloc.get_traced_memory()[0]
cells = [(p, k, psl) for p, k in ((3, 2), (13, 1), (29, 1), (3, 4), (13, 2)) for psl in (False, True)]
cells += [(2, n, False) for n in (2, 3, 4, 8)]
boxes = [make_matrix_blackbox(p, k, center_quotient=psl, seed=1) for p, k, psl in cells]
for box in boxes:
    factorint(box.exponent)
print(tracemalloc.get_traced_memory()[0] - after_import)
"""


def test_cold_start_memory_is_sized_to_the_input():
    # in a fresh interpreter: the odd-grid and char2-grid boxes of the
    # benchmark, and the factorizations of their exponents, hold under
    # 1 MB beyond the import; a table of the primes below 10^6 alone
    # takes about 3 MB, so no set-up table may grow past its input
    env = dict(os.environ, PYTHONPATH=str(SRC))
    proc = subprocess.run([sys.executable, "-c", _COLD_START], capture_output=True, text=True,
                          env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert int(proc.stdout) < 1 << 20


def _check_field_message(p: int, k: int = 1) -> str | None:
    try:
        check_field(p, k)
    except InputError as exc:
        return str(exc)
    return None


@given(st.integers(min_value=2, max_value=MAX_ORDER + 2**10))
@settings(max_examples=200, deadline=None)
def test_is_prime_matches_trial_division(n):
    # check_field makes the one primality decision, and only up to the bound
    msg = _check_field_message(n)
    if n > MAX_ORDER:
        assert "out of scope" in msg
    elif _trial_division(n) == {n: 1}:
        assert msg is None
    else:
        assert msg == f"p = {n} is not a prime"


def test_check_field_edge_cases():
    assert check_field(1_048_573, 1) == 1_048_573  # the largest prime below 2^20
    for p in (1_048_583, 10**30):  # a prime above the bound, and a huge composite
        start = time.perf_counter()
        assert "out of scope" in _check_field_message(p)
        assert time.perf_counter() - start < 0.01
    for p in (-3, 0, 1, 9, 21):
        assert _check_field_message(p) == f"p = {p} is not a prime"


@given(st.integers(min_value=1, max_value=10**9), st.sampled_from([2, 3, 5, 13]))
@settings(max_examples=150, deadline=None)
def test_part_decomposition(n, p):
    pp, cp = p_part(n, p), coprime_part(n, p)
    assert pp * cp == n
    assert cp % p != 0
    while pp % p == 0:  # pp must be a pure power of p
        pp //= p
    assert pp == 1


def test_odd_part():
    # the odd part of n is its 2'-part
    assert coprime_part(96, 2) == 3
    assert coprime_part(13, 2) == 13
    assert coprime_part(1, 2) == 1
