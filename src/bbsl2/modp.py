"""Dense linear algebra and univariate polynomials over a prime field.

Everything works on plain tuples of ints reduced mod p. Dimensions in
this package never exceed a dozen, so Gauss-Jordan with no pivot tricks
is the right tool.
"""
from __future__ import annotations

Vec = tuple[int, ...]
Mat = tuple[Vec, ...]


def mat_identity(k: int) -> Mat:
    return tuple(tuple(1 if i == j else 0 for j in range(k)) for i in range(k))


def mat_mul(a: Mat, b: Mat, p: int) -> Mat:
    cols = list(zip(*b))
    return tuple(
        tuple(sum(x * y for x, y in zip(row, col)) % p for col in cols) for row in a
    )


def vec_mat(v: Vec, m: Mat, p: int) -> Vec:
    """Row vector times matrix."""
    return tuple(sum(v[i] * m[i][j] for i in range(len(v))) % p for j in range(len(m[0])))


def mat_det(a: Mat, p: int) -> int:
    m = [list(row) for row in a]
    k = len(m)
    det = 1
    for col in range(k):
        pivot = next((r for r in range(col, k) if m[r][col] % p), None)
        if pivot is None:
            return 0
        if pivot != col:
            m[col], m[pivot] = m[pivot], m[col]
            det = -det
        det = det * m[col][col] % p
        inv = pow(m[col][col], -1, p)
        for r in range(col + 1, k):
            f = m[r][col] * inv % p
            if f:
                m[r] = [(x - f * y) % p for x, y in zip(m[r], m[col])]
    return det % p


def mat_inv(a: Mat, p: int) -> Mat:
    k = len(a)
    m = [list(row) + [1 if i == j else 0 for j in range(k)] for i, row in enumerate(a)]
    for col in range(k):
        pivot = next((r for r in range(col, k) if m[r][col] % p), None)
        if pivot is None:
            raise ZeroDivisionError("singular matrix mod %d" % p)
        m[col], m[pivot] = m[pivot], m[col]
        inv = pow(m[col][col], -1, p)
        m[col] = [x * inv % p for x in m[col]]
        for r in range(k):
            if r != col and m[r][col]:
                f = m[r][col]
                m[r] = [(x - f * y) % p for x, y in zip(m[r], m[col])]
    return tuple(tuple(row[k:]) for row in m)


def solve_rectangular(rows, rhs, p: int) -> Vec | None:
    """One solution of rows @ x = rhs for any shape, or None if inconsistent.

    Free variables are set to zero.
    """
    m = [[x % p for x in r] + [b % p] for r, b in zip(rows, rhs)]
    nrows = len(m)
    ncols = len(rows[0]) if nrows else 0
    pivots = []
    r = 0
    for col in range(ncols):
        piv = next((i for i in range(r, nrows) if m[i][col]), None)
        if piv is None:
            continue
        m[r], m[piv] = m[piv], m[r]
        inv = pow(m[r][col], -1, p)
        m[r] = [x * inv % p for x in m[r]]
        for i in range(nrows):
            if i != r and m[i][col]:
                f = m[i][col]
                m[i] = [(x - f * y) % p for x, y in zip(m[i], m[r])]
        pivots.append(col)
        r += 1
        if r == nrows:
            break
    if any(m[i][ncols] for i in range(r, nrows)):
        return None
    x = [0] * ncols
    for i, col in enumerate(pivots):
        x[col] = m[i][ncols]
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
    out: Poly = (1,)
    f = poly_mod(f, g, p)
    while e:
        if e & 1:
            out = poly_mod(poly_mul(out, f, p), g, p)
        f = poly_mod(poly_mul(f, f, p), g, p)
        e >>= 1
    return out


def poly_gcd(f: Poly, g: Poly, p: int) -> Poly:
    f, g = poly_trim(f), poly_trim(g)
    while g:
        f, g = g, poly_mod(f, g, p)
    if f:
        inv = pow(f[-1], -1, p)
        f = tuple(c * inv % p for c in f)
    return f


def is_irreducible(f: Poly, p: int) -> bool:
    """Rabin test: x^(p^k) = x mod f and no proper-subfield collapse."""
    f = poly_trim(f)
    k = len(f) - 1
    if k < 1:
        return False
    x: Poly = (0, 1)
    if poly_powmod(x, p**k, f, p) != poly_mod(x, f, p):
        return False
    from .arith import factorint

    for ell in factorint(k):
        h = poly_add(poly_powmod(x, p ** (k // ell), f, p), tuple(-c % p for c in x), p)
        if len(poly_gcd(h, f, p)) > 1:
            return False
    return True


def smallest_irreducible(p: int, k: int) -> Poly:
    """Lexicographically smallest monic irreducible of degree k over F_p."""
    if k == 1:
        return (0, 1)
    # enumerate constant-first coefficient tuples in numeric order
    for code in range(p**k):
        coeffs = []
        c = code
        for _ in range(k):
            coeffs.append(c % p)
            c //= p
        f = tuple(coeffs) + (1,)
        if is_irreducible(f, p):
            return f
    raise RuntimeError("unreachable: irreducibles of every degree exist")
