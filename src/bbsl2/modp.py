"""Dense linear algebra and univariate polynomials over a prime field.

Everything works on plain tuples of ints reduced mod p, except the
search for an irreducible over F_2, which holds a polynomial as one int
whose bit i is the coefficient of x^i. Dimensions in this package never
exceed a dozen, so Gauss-Jordan with no pivot tricks is the right tool.
"""
from __future__ import annotations

from functools import cache

from .arith import power

Vec = tuple[int, ...]
Mat = tuple[Vec, ...]


def mat_mul(a: Mat, b: Mat, p: int) -> Mat:
    cols = list(zip(*b))
    return tuple(
        tuple(sum(x * y for x, y in zip(row, col)) % p for col in cols) for row in a
    )


def vec_mat(v: Vec, m: Mat, p: int) -> Vec:
    """Row vector times matrix."""
    return tuple(sum(v[i] * m[i][j] for i in range(len(v))) % p for j in range(len(m[0])))


def _reduce(m: list[list[int]], ncols: int, p: int) -> list[int]:
    """Gauss-Jordan on the rows m, entries in [0, p), over their first ncols columns.

    Returns the pivot columns in order. The pivot rows come first and
    are scaled to a leading 1.
    """
    pivots = []
    for col in range(ncols):
        r = len(pivots)
        piv = next((i for i in range(r, len(m)) if m[i][col]), None)
        if piv is None:
            continue
        m[r], m[piv] = m[piv], m[r]
        inv = pow(m[r][col], -1, p)
        m[r] = [x * inv % p for x in m[r]]
        for i in range(len(m)):
            if i != r and m[i][col]:
                f = m[i][col]
                m[i] = [(x - f * y) % p for x, y in zip(m[i], m[r])]
        pivots.append(col)
    return pivots


def mat_inv(a: Mat, p: int) -> Mat:
    k = len(a)
    m = [[x % p for x in row] + [int(i == j) for j in range(k)] for i, row in enumerate(a)]
    if len(_reduce(m, k, p)) < k:
        raise ZeroDivisionError("singular matrix mod %d" % p)
    return tuple(tuple(row[k:]) for row in m)


def solve_rectangular(rows, rhs, p: int) -> Vec | None:
    """One solution of rows @ x = rhs for any shape, or None if inconsistent.

    Free variables are set to zero.
    """
    m = [[x % p for x in r] + [b % p] for r, b in zip(rows, rhs)]
    ncols = len(rows[0]) if m else 0
    pivots = _reduce(m, ncols, p)
    if any(row[ncols] for row in m[len(pivots):]):
        return None
    x = [0] * ncols
    for row, col in zip(m, pivots):
        x[col] = row[ncols]
    return tuple(x)


# ---------------------------------------------------------------------------
# polynomials, coefficient lists low degree first

Poly = tuple[int, ...]


def poly_trim(f: list[int] | Poly) -> Poly:
    f = list(f)
    while f and f[-1] == 0:
        f.pop()
    return tuple(f)


def poly_add(f: Poly, g: Poly, p: int) -> Poly:
    n = max(len(f), len(g))
    f = tuple(f) + (0,) * (n - len(f))
    g = tuple(g) + (0,) * (n - len(g))
    return poly_trim([(x + y) % p for x, y in zip(f, g)])


def poly_mul(f: Poly, g: Poly, p: int) -> Poly:
    if not f or not g:
        return ()
    out = [0] * (len(f) + len(g) - 1)
    for i, x in enumerate(f):
        if x:
            for j, y in enumerate(g):
                out[i + j] = (out[i + j] + x * y) % p
    return poly_trim(out)


def poly_mod(f: Poly, g: Poly, p: int) -> Poly:
    g = poly_trim(g)
    if not g:
        raise ZeroDivisionError("polynomial mod by zero")
    f = list(f)
    inv = pow(g[-1], -1, p)
    for i in range(len(f) - len(g), -1, -1):
        c = f[i + len(g) - 1] % p
        if c:
            c = c * inv % p
            for j, y in enumerate(g):
                f[i + j] = (f[i + j] - c * y) % p
    return poly_trim(f[: len(g) - 1])


def poly_powmod(f: Poly, e: int, g: Poly, p: int) -> Poly:
    return power(lambda a, b: poly_mod(poly_mul(a, b, p), g, p), (1,), poly_mod(f, g, p), e)


def poly_gcd(f: Poly, g: Poly, p: int) -> Poly:
    """A greatest common divisor, up to a unit factor."""
    f, g = poly_trim(f), poly_trim(g)
    while g:
        f, g = g, poly_mod(f, g, p)
    return f


def is_irreducible(f: Poly, p: int) -> bool:
    """Ben-Or: f of degree k >= 1 is irreducible over F_p exactly when
    gcd(x^(p^i) - x, f) = 1 for every i <= k/2, since a reducible f has an
    irreducible factor of degree i <= k/2, and x^(p^i) - x is the product
    of the monic irreducibles of degree dividing i."""
    f = poly_trim(f)
    k = len(f) - 1
    if k < 1:
        return False
    y = poly_mod((0, 1), f, p)  # x^(p^i) mod f
    for _ in range(k // 2):
        y = poly_powmod(y, p, f, p)
        if len(poly_gcd(poly_add(y, (0, p - 1), p), f, p)) > 1:
            return False
    return True


def _has_root(f: Poly, p: int) -> bool:
    """Whether f vanishes at some a in F_p, by Horner."""
    for a in range(p):
        acc = 0
        for c in reversed(f):
            acc = (acc * a + c) % p
        if not acc:
            return True
    return False


def _mod2(a: int, f: int) -> int:
    """a mod f for bit-mask polynomials over F_2."""
    d = f.bit_length()
    while (s := a.bit_length() - d) >= 0:
        a ^= f << s
    return a


def _is_irreducible2(f: int) -> bool:
    """Ben-Or, as ``is_irreducible``, on a bit-mask polynomial over F_2.

    y = x^(2^i) mod f is squared carry-free: reading the binary digits of
    y in base 4 spreads bit j to bit 2j. The gcd is Euclid's with ``_mod2``.
    """
    y = 2  # x
    for _ in range((f.bit_length() - 1) // 2):
        y = _mod2(int(format(y, "b"), 4), f)
        a, b = f, y ^ 2
        while b:
            a, b = b, _mod2(a, b)
        if a != 1:
            return False
    return True


@cache
def smallest_irreducible(p: int, k: int) -> Poly:
    """Lexicographically smallest monic irreducible of degree k over F_p.

    For k >= 2 a candidate with a root in F_p has a linear factor, so it
    is rejected before Ben-Or. Over F_2 the candidates are the bit masks
    2^k + code in numeric order, the same order, and a root at 0 or 1 is
    an even constant term or an even number of terms. A pure function
    of (p, k), so it is computed once per process.
    """
    if p == 2 and k > 1:
        for f in range(1 << k | 1, 2 << k, 2):
            if f.bit_count() & 1 and _is_irreducible2(f):
                return tuple(f >> i & 1 for i in range(k + 1))
    # enumerate constant-first coefficient tuples in numeric order
    for code in range(p**k):
        coeffs = []
        c = code
        for _ in range(k):
            coeffs.append(c % p)
            c //= p
        f = tuple(coeffs) + (1,)
        if (k == 1 or not _has_root(f, p)) and is_irreducible(f, p):
            return f
    raise RuntimeError("unreachable: irreducibles of every degree exist")
