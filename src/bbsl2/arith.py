"""Integer helpers: factorization, p-parts, and the one
square-and-multiply, shared by box, field and polynomial powers.

Factorization is trial division by every d with d^2 at most the
cofactor left. The inputs are the global exponents p(q^2 - 1) of groups
over fields of at most 2^20 elements, their divisors, and p^n - 1 for
such fields: every prime factor is at most q + 1, so d never passes
2^20 + 1. ``field.check_field`` tests primality by it, for p <= 2^20 only.
"""
from __future__ import annotations

from functools import lru_cache


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
