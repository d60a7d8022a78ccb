"""Brute-force matrices and sets in SL2 over an explicit field, for the tests.

The reference definitions that the package's kernels are checked
against live here and nowhere in ``src``: the 2x2 product ``mat_mul``
and negation ``mat_neg`` over an explicit field, written with its
``add``, ``mul`` and ``neg``, and ``det``, a determinant mod p by its own
elimination, apart from the Gauss-Jordan of ``bbsl2.modp``. The
digit-wise product ``ExplicitField._mul_raw`` stays in the package, where
the benchmark's trace hooks it.

The frame matrices u(t), v(t), h(t), n(t), conjugation, the center
quotient's coset representatives, the subgroup generated by a set of
matrices, element orders by repeated multiplication, centralizers and
the upper unipotent group, computed on plain matrices with no black box
in sight: the tests' independent ground truth at desk scale. They use
only the reference ``mat_mul`` and the package's GL2 inverse
``mat_inv2``, never a backend kernel.
Also the digit-wise sum, Frobenius map and absolute trace of an explicit
field, its presentation on a random new basis, and the table of the map
that a field isomorphism's matrix defines; the minimal polynomial and
the first generator of an explicit field by their definitions, which
``explicit_isomorphism`` reads off one elimination; reference copies of
box searches that the package now runs more cheaply; the marker of an
index in the characteristic-2 field; random elements of a recovered
field; and ``exhaustive_check``, a recognition's morphism checked on
every matrix of SL2(q).
"""
import random

from bbsl2 import modp
from bbsl2.arith import p_part
from bbsl2.backend import Matrix, mat_identity, mat_inv2
from bbsl2.blackbox import element_order
from bbsl2.field import ExplicitField
from bbsl2.sl2char2 import Char2Field


def mat_mul(F: ExplicitField, a: Matrix, b: Matrix) -> Matrix:
    add, mul = F.add, F.mul
    (a00, a01), (a10, a11) = a
    (b00, b01), (b10, b11) = b
    return (
        (add(mul(a00, b00), mul(a01, b10)), add(mul(a00, b01), mul(a01, b11))),
        (add(mul(a10, b00), mul(a11, b10)), add(mul(a10, b01), mul(a11, b11))),
    )


def mat_neg(F: ExplicitField, m: Matrix) -> Matrix:
    neg = F.neg
    (a, b), (c, d) = m
    return ((neg(a), neg(b)), (neg(c), neg(d)))


def det(a, p: int) -> int:
    """det a mod p for a square integer matrix, by Gaussian elimination
    that tracks row swaps and pivots."""
    m = [[x % p for x in row] for row in a]
    d = 1
    for c in range(len(m)):
        r = next((i for i in range(c, len(m)) if m[i][c]), None)
        if r is None:
            return 0
        if r != c:
            m[c], m[r] = m[r], m[c]
            d = -d
        d = d * m[c][c] % p
        inv = pow(m[c][c], -1, p)
        for i in range(c + 1, len(m)):
            f = m[i][c] * inv % p
            m[i] = [(x - f * y) % p for x, y in zip(m[i], m[c])]
    return d % p


def digit_add(F: ExplicitField, a: int, b: int) -> int:
    """a + b by the definition: the coordinate-wise sum mod p."""
    return F.element(x + y for x, y in zip(F.coords(a), F.coords(b)))


def iso_table(A: ExplicitField, B: ExplicitField, m) -> list[int]:
    """phi(a) for every a in A, phi the map with coords(phi(a)) = coords(a) @ m,
    one ``modp.vec_mat`` per element: the packed ``_linear_map`` is not used."""
    return [B.element(modp.vec_mat(A.coords(a), m, A.p)) for a in A.elements()]


def frobenius(F: ExplicitField, a: int) -> int:
    return F.pow(a, F.p)


def minimal_polynomial(F: ExplicitField, a: int) -> modp.Poly:
    """Monic minimal polynomial of a over F_p, low degree first.

    Its degree d is the least with a^(p^d) = a. The powers below a^d
    are then independent, so ``modp.solve_rectangular`` finds the one
    combination a^d = sum_(i<d) x_i * a^i, and the polynomial is
    (-x_0, ..., -x_(d-1), 1).
    """
    p = F.p
    d = next(d for d in range(1, F.k + 1) if F.pow(a, p**d) == a)
    powers = [F.coords(F.pow(a, i)) for i in range(d + 1)]
    sol = modp.solve_rectangular(list(zip(*powers[:d])), powers[d], p)
    return tuple(-s % p for s in sol) + (1,)


def field_generator(F: ExplicitField) -> int:
    """The first element, in integer order, whose minimal polynomial has degree k."""
    return next(a for a in range(1, F.order) if len(minimal_polynomial(F, a)) == F.k + 1)


def trace(F: ExplicitField, a: int) -> int:
    """Absolute trace down to F_p, returned as an int in [0, p)."""
    acc, x = 0, a
    for _ in range(F.k):
        acc = F.add(acc, x)
        x = frobenius(F, x)
    # the trace is rational: a prime-field multiple of unity
    return next(n for n in range(F.p) if F.scalar(n) == acc)


def scrambled(F: ExplicitField, seed: int) -> ExplicitField:
    """Rewrite F's structure constants on a random new basis."""
    rng = random.Random(seed)
    p, k = F.p, F.k
    while True:
        T = tuple(tuple(rng.randrange(p) for _ in range(k)) for _ in range(k))
        if det(T, p) != 0:
            break
    Tinv = modp.mat_inv(T, p)
    # new basis vectors are rows of T in old coordinates
    new_c = []
    for i in range(k):
        plane = []
        for j in range(k):
            prod = F.mul(F.element(T[i]), F.element(T[j]))
            plane.append(modp.vec_mat(F.coords(prod), Tinv, p))
        new_c.append(tuple(plane))
    return ExplicitField(p, k, tuple(new_c))


def u_mat(F: ExplicitField, t: int) -> Matrix:
    return ((F.one, t), (0, F.one))


def v_mat(F: ExplicitField, t: int) -> Matrix:
    return ((F.one, 0), (t, F.one))


def h_mat(F: ExplicitField, t: int) -> Matrix:
    return ((t, 0), (0, F.inv(t)))


def n_mat(F: ExplicitField, t: int) -> Matrix:
    ti = F.inv(t)
    return ((0, t), (ti if F.p == 2 else F.neg(ti), 0))


def conj_mat(F: ExplicitField, x: Matrix, g: Matrix) -> Matrix:
    return mat_mul(F, mat_inv2(F, g), mat_mul(F, x, g))


def psl_canon(F: ExplicitField):
    """Canonical coset representative map for the center quotient."""
    if F.p == 2:
        return lambda m: m
    return lambda m: min(m, mat_neg(F, m))


def closure(F: ExplicitField, gens, canon=None, limit: int = 3_000_000):
    """The subgroup generated by gens, as a set of (canonical) matrices."""
    canon = canon or (lambda m: m)
    gens = [canon(g) for g in gens]
    seen = {canon(mat_identity(F))}
    frontier = list(seen)
    while frontier:
        new = []
        for x in frontier:
            for g in gens:
                y = canon(mat_mul(F, x, g))
                if y not in seen:
                    seen.add(y)
                    new.append(y)
        assert len(seen) <= limit, "closure too large to enumerate"
        frontier = new
    return seen


def matrix_order_direct(F: ExplicitField, m: Matrix) -> int:
    """Order by repeated multiplication, no exponent arithmetic."""
    ident = mat_identity(F)
    x, o = m, 1
    while x != ident:
        x = mat_mul(F, x, m)
        o += 1
        assert o <= F.order ** 4, "matrix order exceeds the group bound"
    return o


def centralizer_set(F: ExplicitField, elements, m: Matrix, canon=None):
    canon = canon or (lambda m: m)
    m = canon(m)
    out = set()
    for x in elements:
        if canon(mat_mul(F, x, m)) == canon(mat_mul(F, m, x)):
            out.add(x)
    return out


def unipotent_upper_set(F: ExplicitField):
    return {u_mat(F, t) for t in F.elements()}


def find_order3_inverted_reference(box, r, rng, budget: int = 600):
    """The order-3 search with an order computation for every candidate.

    ``bbsl2.involutions.find_order3_inverted`` must accept the same
    candidate from the same samples and return the same element,
    s^(e * 3^(a-1)) for e the box exponent without its factors of 3
    and 3^a the 3-part of the order of s.
    """
    e = box.exponent
    while e % 3 == 0:
        e //= 3
    for _ in range(budget):
        s = box.mul(box.conj(r, box.sample(rng)), r)
        if box.is_identity(s):
            continue
        o = element_order(box, s)
        if o % 3:
            continue
        return box.power(s, e * p_part(o, 3) // 3)
    raise AssertionError("no candidate of order divisible by 3")


def gram_det(field) -> int:
    """det G mod p of a ``BlackBoxField``'s trace form, G[i][j] = T[i+j],
    rebuilt from its power traces ``_T``."""
    k = field.k
    return det([[field._T[i + j] for j in range(1, k + 1)] for i in range(1, k + 1)], field.p)


def char2_marker(field: Char2Field, j: int):
    """The marker of j in a ``Char2Field`` by its definition: the product,
    multiplied up from the identity, of the basis markers s_(i+1) over the
    set bits i of j."""
    box, out = field.box, field.box.identity
    for i in range(field.k):
        if j >> i & 1:
            out = box.mul(out, field._s[i + 1])
    return out


def random_element(field, rng: random.Random):
    """A uniform element of a recovered field: a ``BlackBoxField`` from k
    coordinate draws in [0, p), a ``Char2Field`` from one index draw in
    [0, 2^k), lifted."""
    if isinstance(field, Char2Field):
        return field.lift_int(rng.randrange(1 << field.k))
    return field.from_coords([rng.randrange(field.p) for _ in range(field.k)])


def sl2_matrices(F: ExplicitField) -> list[Matrix]:
    """All q(q^2 - 1) matrices of SL2 over F: d = 1/a when c = 0, else b = (ad - 1)/c."""
    out = [((a, b), (0, F.inv(a))) for a in F.elements() if a for b in F.elements()]
    for c in range(1, F.order):
        ci = F.inv(c)
        out += [
            ((a, F.mul(F.sub(F.mul(a, d), F.one), ci)), (c, d))
            for a in F.elements()
            for d in F.elements()
        ]
    return out


def exhaustive_check(res, box) -> None:
    """Assert that ``res.morphism`` maps SL2 over ``res.explicit`` onto the box
    as a homomorphism whose kernel is the center exactly for a center quotient.

    phi(I) = 1 and phi(M g) = phi(M) phi(g) for every M and every g in the
    generating set {u(p^i) : i < k} with n(1) make phi a homomorphism, by
    induction on the length of a word in those g. The images, decoded by
    the backend, must then number |SL2(q)|, or |PSL2(q)| for a center
    quotient: phi is onto, with the expected kernel.
    """
    E, phi, be = res.explicit, res.morphism, box.backend
    mats = sl2_matrices(E)
    images = {m: phi(m) for m in mats}
    assert box.is_identity(images[mat_identity(E)]), "phi(I) is not the identity"
    gens = [u_mat(E, E.p**i) for i in range(E.k)] + [n_mat(E, E.one)]
    for m in mats:
        for g in gens:
            assert box.compare(
                images[mat_mul(E, m, g)], box.mul(images[m], images[g])
            ), f"phi(M g) != phi(M) phi(g) at M = {m}, g = {g}"
    want = len(mats) // (2 if be.center_quotient and E.p > 2 else 1)
    assert len({be.decode(x) for x in images.values()}) == want, "wrong number of images"
