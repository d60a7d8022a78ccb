"""Integer helpers: primality, factorization, p-parts, and the one
square-and-multiply, shared by box, field and polynomial powers.

Factorization is trial division by the 168 primes below 1,000, then
Pollard's rho with Brent cycling on any cofactor left. The inputs are
global exponents of small matrix groups, whose prime factors are mostly
tiny, so this is fast, dependency-free and next to free to set up.
"""
from __future__ import annotations

import math
import random
from functools import lru_cache

_TRIAL_PRIMES = tuple(n for n in range(2, 1000) if all(n % d for d in range(2, math.isqrt(n) + 1)))
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


def _brent_rho(n: int, rng: random.Random) -> int:
    # returns a nontrivial factor of composite odd n
    while True:
        y, c, m = rng.randrange(1, n), rng.randrange(1, n), 128
        g, r, q = 1, 1, 1
        while g == 1:
            x = y
            for _ in range(r):
                y = (y * y + c) % n
            k = 0
            while k < r and g == 1:
                ys = y
                for _ in range(min(m, r - k)):
                    y = (y * y + c) % n
                    q = q * abs(x - y) % n
                g = math.gcd(q, n)
                k += m
            r *= 2
        if g == n:
            g = 1
            while g == 1:
                ys = (ys * ys + c) % n
                g = math.gcd(abs(x - ys), n)
        if g != n:
            return g


@lru_cache(maxsize=4096)
def _factorint_cached(n: int) -> tuple[tuple[int, int], ...]:
    out: dict[int, int] = {}
    for p in _TRIAL_PRIMES:
        if p * p > n:
            break
        while n % p == 0:
            out[p] = out.get(p, 0) + 1
            n //= p
    if n > 1:
        stack = [n]
        rng = random.Random(0xBB)
        while stack:
            m = stack.pop()
            if is_prime(m):
                out[m] = out.get(m, 0) + 1
                continue
            d = _brent_rho(m, rng)
            stack.extend((d, m // d))
    return tuple(sorted(out.items()))


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
