"""Finite fields presented by structure constants.

An ``ExplicitField`` stores F_(p^k) as a k-dimensional F_p vector space
with a multiplication table on a basis: basis_i * basis_j =
sum_l c[i][j][l] * basis_l. The basis need not contain the unity; the
unity is recovered by linear algebra. Elements are plain ints in
[0, p^k) whose base-p digits are the coordinates.

``explicit_isomorphism`` connects two presentations of the same field by
mapping a generator of the first onto a root of its minimal polynomial
in the second.
"""
from __future__ import annotations

import json
import random
from dataclasses import dataclass

from . import modp
from .arith import is_prime
from .errors import ContractViolation, InputError

_TABLE_LIMIT = 400  # build order^2 lookup tables below this order


class ExplicitField:
    def __init__(self, p: int, k: int, c):
        if not is_prime(p) or k < 1:
            raise InputError("need a prime p and k >= 1")
        c = tuple(tuple(tuple(int(x) % p for x in row) for row in plane) for plane in c)
        if len(c) != k or any(len(pl) != k or any(len(r) != k for r in pl) for pl in c):
            raise InputError("structure constants must form a k*k*k array")
        self.p = p
        self.k = k
        self.c = c
        self.order = p**k
        self._one: int | None = None
        self._primitive: int | None = None
        self._mul_table: list[int] | None = None
        self._inv_table: dict[int, int] = {}

    # -- coordinates ----------------------------------------------------
    def coords(self, a: int) -> tuple[int, ...]:
        out = []
        for _ in range(self.k):
            out.append(a % self.p)
            a //= self.p
        return tuple(out)

    def element(self, coords) -> int:
        a = 0
        for d in reversed(tuple(coords)):
            a = a * self.p + d % self.p
        return a

    def elements(self):
        return range(self.order)

    # -- ring operations ------------------------------------------------
    def add(self, a: int, b: int) -> int:
        if self.p == 2:
            return a ^ b
        return self.element(x + y for x, y in zip(self.coords(a), self.coords(b)))

    def neg(self, a: int) -> int:
        if self.p == 2:
            return a
        return self.element(-x % self.p for x in self.coords(a))

    def sub(self, a: int, b: int) -> int:
        return self.add(a, self.neg(b))

    def _mul_raw(self, a: int, b: int) -> int:
        av, bv, c, p = self.coords(a), self.coords(b), self.c, self.p
        out = [0] * self.k
        for i, x in enumerate(av):
            if not x:
                continue
            ci = c[i]
            for j, y in enumerate(bv):
                if not y:
                    continue
                f = x * y
                row = ci[j]
                for l in range(self.k):
                    out[l] += f * row[l]
        return self.element(v % p for v in out)

    def mul(self, a: int, b: int) -> int:
        if self.order <= _TABLE_LIMIT:
            if self._mul_table is None:
                n = self.order
                self._mul_table = [self._mul_raw(x, y) for x in range(n) for y in range(n)]
            return self._mul_table[a * self.order + b]
        return self._mul_raw(a, b)

    @property
    def one(self) -> int:
        if self._one is None:
            # solve e * basis_i = basis_i for all i
            rows, rhs = [], []
            for i in range(self.k):
                for l in range(self.k):
                    rows.append(tuple(self.c[j][i][l] for j in range(self.k)))
                    rhs.append(1 if l == i else 0)
            sol = modp.solve_rectangular(rows, rhs, self.p)
            if sol is None:
                raise ContractViolation("presentation has no unity")
            self._one = self.element(sol)
        return self._one

    @property
    def zero(self) -> int:
        return 0

    def scalar(self, n: int) -> int:
        """Image of the integer n in the prime subfield."""
        return self.element((n % self.p) * x % self.p for x in self.coords(self.one))

    def pow(self, a: int, e: int) -> int:
        if e < 0:
            return self.pow(self.inv(a), -e)
        out = self.one
        while e:
            if e & 1:
                out = self.mul(out, a)
            a = self.mul(a, a)
            e >>= 1
        return out

    def inv(self, a: int) -> int:
        if a == 0:
            raise ZeroDivisionError("inverting zero")
        hit = self._inv_table.get(a)
        if hit is None:
            hit = self.pow(a, self.order - 2)
            if self.mul(a, hit) != self.one:
                raise ContractViolation("element with no inverse: not a field")
            self._inv_table[a] = hit
        return hit

    def frobenius(self, a: int) -> int:
        return self.pow(a, self.p)

    def trace(self, a: int) -> int:
        """Absolute trace down to F_p, returned as an int in [0, p)."""
        acc, x = 0, a
        for _ in range(self.k):
            acc = self.add(acc, x)
            x = self.frobenius(x)
        # the trace is rational: express as a prime-field multiple of unity
        for n in range(self.p):
            if self.scalar(n) == acc:
                return n
        raise ContractViolation("trace not a prime-field multiple of unity")

    def multiplicative_order(self, a: int) -> int:
        from .arith import factorint

        if a == 0:
            raise InputError("zero has no multiplicative order")
        o = self.order - 1
        for q in factorint(o):
            while o % q == 0 and self.pow(a, o // q) == self.one:
                o //= q
        return o

    def minimal_polynomial(self, a: int) -> modp.Poly:
        """Monic minimal polynomial of a over F_p, low degree first."""
        powers = [self.coords(self.one)]
        x = a
        for _ in range(self.k):
            powers.append(self.coords(x))
            x = self.mul(x, a)
        for d in range(1, self.k + 1):
            rows = [tuple(powers[i][l] for i in range(d)) for l in range(self.k)]
            rhs = [powers[d][l] for l in range(self.k)]
            sol = modp.solve_rectangular(rows, rhs, self.p)
            if sol is not None:
                return modp.poly_trim([-s % self.p for s in sol] + [1])
        raise ContractViolation("no minimal polynomial of degree <= k")

    def field_generator(self) -> int:
        for a in range(1, self.order):
            if len(self.minimal_polynomial(a)) == self.k + 1:
                return a
        raise ContractViolation("no generating element: not a degree-k field")

    def primitive_element(self) -> int:
        """An element of multiplicative order p^k - 1."""
        if self._primitive is None:
            for a in range(1, self.order):
                if a != self.one and self.multiplicative_order(a) == self.order - 1:
                    self._primitive = a
                    break
            else:
                if self.order == 2:
                    self._primitive = self.one
                else:
                    raise ContractViolation("no primitive element: not a field")
        return self._primitive

    def validate(self, rng: random.Random, trials: int = 64) -> None:
        """Spot-check the field axioms; raises ContractViolation."""
        one = self.one
        for _ in range(trials):
            a = rng.randrange(self.order)
            b = rng.randrange(self.order)
            c = rng.randrange(self.order)
            if self.mul(a, b) != self.mul(b, a):
                raise ContractViolation("multiplication not commutative")
            if self.mul(a, self.mul(b, c)) != self.mul(self.mul(a, b), c):
                raise ContractViolation("multiplication not associative")
            if self.mul(a, self.add(b, c)) != self.add(self.mul(a, b), self.mul(a, c)):
                raise ContractViolation("multiplication not distributive")
            if self.mul(one, a) != a:
                raise ContractViolation("unity fails")
            if a and b and self.mul(a, b) == 0:
                raise ContractViolation("zero divisors present")

    # -- serialization ----------------------------------------------------
    def to_json(self) -> str:
        return json.dumps({"p": self.p, "k": self.k, "c": [[list(r) for r in pl] for pl in self.c]})

    @classmethod
    def from_json(cls, text: str) -> "ExplicitField":
        try:
            data = json.loads(text)
            return cls(int(data["p"]), int(data["k"]), data["c"])
        except (KeyError, TypeError, ValueError, json.JSONDecodeError) as e:
            raise InputError(f"bad field JSON: {e}") from e

    @classmethod
    def polynomial_field(cls, p: int, k: int) -> "ExplicitField":
        """Standard presentation on the power basis of the smallest irreducible."""
        if not is_prime(p):
            raise InputError(f"p = {p} is not a prime")
        f = modp.smallest_irreducible(p, k)
        basis = [tuple(1 if i == j else 0 for j in range(k)) for i in range(k)]
        c = []
        for i in range(k):
            plane = []
            for j in range(k):
                prod = [0] * (i + j) + [1]
                rem = modp.poly_mod(tuple(prod), f, p)
                plane.append(tuple(rem) + (0,) * (k - len(rem)))
            c.append(tuple(plane))
        fld = cls(p, k, tuple(c))
        fld._one = 1  # basis vector 0 is the polynomial 1
        return fld

    def same_presentation(self, other: "ExplicitField") -> bool:
        return self.p == other.p and self.k == other.k and self.c == other.c


# ---------------------------------------------------------------------------
# polynomials with coefficients in an ExplicitField


def _fp_trim(f):
    f = list(f)
    while f and f[-1] == 0:
        f.pop()
    return f


def _fp_mod(F: ExplicitField, f, g):
    g = _fp_trim(g)
    f = list(f)
    inv = F.inv(g[-1])
    for i in range(len(f) - len(g), -1, -1):
        c = F.mul(f[i + len(g) - 1], inv)
        if c:
            for j, y in enumerate(g):
                f[i + j] = F.sub(f[i + j], F.mul(c, y))
    return _fp_trim(f[: len(g) - 1])


def _fp_mul(F: ExplicitField, f, g):
    out = [0] * (len(f) + len(g) - 1) if f and g else []
    for i, x in enumerate(f):
        if x:
            for j, y in enumerate(g):
                out[i + j] = F.add(out[i + j], F.mul(x, y))
    return _fp_trim(out)


def _fp_gcd(F: ExplicitField, f, g):
    f, g = _fp_trim(f), _fp_trim(g)
    while g:
        f, g = g, _fp_mod(F, f, g)
    if f:
        inv = F.inv(f[-1])
        f = [F.mul(c, inv) for c in f]
    return f


def _fp_powmod(F: ExplicitField, f, e: int, g):
    out = [F.one]
    f = _fp_mod(F, f, g)
    while e:
        if e & 1:
            out = _fp_mod(F, _fp_mul(F, out, f), g)
        f = _fp_mod(F, _fp_mul(F, f, f), g)
        e >>= 1
    return out


def _find_root(f_over_fp: modp.Poly, F: ExplicitField, rng: random.Random) -> int:
    """A root in F of a monic polynomial with prime-subfield coefficients."""
    f = [F.scalar(c) for c in f_over_fp]
    if F.order <= 10_000 or F.p == 2:
        for a in F.elements():
            acc = 0
            for c in reversed(f):
                acc = F.add(F.mul(acc, a), c)
            if acc == 0:
                return a
        raise ContractViolation("polynomial has no root in target field")
    # Cantor-Zassenhaus equal-degree splitting, odd characteristic
    x = [0, F.one]
    xq = _fp_powmod(F, x, F.order, f)
    f = _fp_gcd(F, [F.sub(a, b) for a, b in _zip_pad(xq, x, F)], f)
    if len(f) < 2:
        raise ContractViolation("polynomial has no root in target field")
    while len(f) > 2:
        a = rng.randrange(F.order)
        shifted = _fp_powmod(F, [a, F.one], (F.order - 1) // 2, f)
        shifted = [F.sub(c, F.one) if i == 0 else c for i, c in enumerate(shifted)] or [F.neg(F.one)]
        g = _fp_gcd(F, shifted, f)
        if 1 < len(g) < len(f):
            f = g
    return F.neg(F.mul(f[0], F.inv(f[1])))


def _zip_pad(a, b, F: ExplicitField):
    n = max(len(a), len(b))
    a = list(a) + [0] * (n - len(a))
    b = list(b) + [0] * (n - len(b))
    return list(zip(a, b))


@dataclass
class FieldIsomorphism:
    src: ExplicitField
    dst: ExplicitField
    matrix: modp.Mat
    inverse: modp.Mat

    def __call__(self, a: int) -> int:
        return self.dst.element(modp.vec_mat(self.src.coords(a), self.matrix, self.src.p))

    def inverse_map(self, b: int) -> int:
        return self.src.element(modp.vec_mat(self.dst.coords(b), self.inverse, self.src.p))


def explicit_isomorphism(
    a_field: ExplicitField, b_field: ExplicitField, rng: random.Random | None = None
) -> FieldIsomorphism:
    """Field isomorphism between two presentations of the same finite field."""
    if a_field.order != b_field.order or a_field.p != b_field.p:
        raise InputError("fields have different orders")
    rng = rng or random.Random(0x15)
    k, p = a_field.k, a_field.p
    if a_field.same_presentation(b_field):
        ident = modp.mat_identity(k)
        return FieldIsomorphism(a_field, b_field, ident, ident)
    g = a_field.field_generator()
    minpoly = a_field.minimal_polynomial(g)
    root = _find_root(minpoly, b_field, rng)
    gmat = _power_matrix(a_field, g)
    rmat = _power_matrix(b_field, root)
    fwd = modp.mat_mul(modp.mat_inv(gmat, p), rmat, p)
    bwd = modp.mat_mul(modp.mat_inv(rmat, p), gmat, p)
    iso = FieldIsomorphism(a_field, b_field, fwd, bwd)
    _check_ring_map(iso, rng)
    return iso


def _power_matrix(F: ExplicitField, g: int) -> modp.Mat:
    rows, x = [], F.one
    for _ in range(F.k):
        rows.append(F.coords(x))
        x = F.mul(x, g)
    return tuple(rows)


def _check_ring_map(iso: FieldIsomorphism, rng: random.Random, trials: int = 64) -> None:
    A, B = iso.src, iso.dst
    if iso(A.one) != B.one:
        raise ContractViolation("isomorphism does not preserve unity")
    for _ in range(trials):
        x, y = rng.randrange(A.order), rng.randrange(A.order)
        if iso(A.add(x, y)) != B.add(iso(x), iso(y)):
            raise ContractViolation("isomorphism not additive")
        if iso(A.mul(x, y)) != B.mul(iso(x), iso(y)):
            raise ContractViolation("isomorphism not multiplicative")
        if iso.inverse_map(iso(x)) != x:
            raise ContractViolation("isomorphism not invertible")
