"""Integer helpers: primality, factorization, p-parts, and the one
square-and-multiply, shared by box, field and polynomial powers.

Factorization is trial division by every d with d^2 at most the
cofactor left. The inputs are the global exponents p(q^2 - 1) of groups
over fields of at most 2^20 elements, their divisors, and p^n - 1 for
such fields: every prime factor is at most q + 1, so d never passes
2^20 + 1. Primality is Miller-Rabin, which rejects a huge p at once.
"""
from __future__ import annotations

from functools import lru_cache

_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


def is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin; the base set covers all n < 3.3e24."""
    if n < 2:
        return False
    for p in _MR_BASES:
        if n % p == 0:
            return n == p
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _MR_BASES:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


@lru_cache(maxsize=4096)
def _factorint_cached(n: int) -> tuple[tuple[int, int], ...]:
    out: dict[int, int] = {}
    d = 2
    while d * d <= n:
        while n % d == 0:
            out[d] = out.get(d, 0) + 1
            n //= d
        d += 1
    if n > 1:
        out[n] = 1
    return tuple(out.items())


def factorint(n: int) -> dict[int, int]:
    """Prime factorization as {prime: multiplicity}."""
    if n <= 0:
        raise ValueError("factorint wants a positive integer")
    return dict(_factorint_cached(n))


def p_part(n: int, p: int) -> int:
    """Largest power of p dividing n."""
    out = 1
    while n % p == 0:
        out *= p
        n //= p
    return out


def coprime_part(n: int, p: int) -> int:
    return n // p_part(n, p)


def power(mul, one, x, e: int):
    """x^e for e >= 0 under the product ``mul``, from ``one``: one product
    per set bit of e and one squaring per bit below the top one."""
    acc = one
    while e:
        if e & 1:
            acc = mul(acc, x)
        e >>= 1
        if e:
            x = mul(x, x)
    return acc
