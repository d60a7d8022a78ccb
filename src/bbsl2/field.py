"""Finite fields presented by structure constants.

An ``ExplicitField`` stores F_(p^k) as a k-dimensional F_p vector space
with a multiplication table on a basis: basis_i * basis_j =
sum_l c[i][j][l] * basis_l. The basis need not contain the unity; the
unity is recovered by linear algebra. Elements are plain ints in
[0, p^k) whose base-p digits are the coordinates.

``explicit_isomorphism`` connects two presentations of the same field by
mapping a generator of the first onto the smallest root, in integer
order, of its minimal polynomial in the second; ``find_root`` finds it
by one Horner scan over the second field's elements.

For p = 2 an element already is its coordinate bit vector, so the
ring sum ``add`` is an XOR, and every F_2-linear map (multiplication by
a fixed element, an isomorphism) reads its input a byte at a time, each
byte indexing a table of the XOR sums of 8 images of basis elements. For
odd p a linear map adds digit multiples of its rows, packed into slots
of ints.

For k = 1, a stands for a * basis_0 and basis_0^2 = c[0][0][0] * basis_0,
so the ring operations are integer arithmetic mod p. For k > 1 they are
lookups in one set of log, power and Zech tables (``_tables``), built on
first use, once per field, by walking the powers of a primitive element
with the linear map "times it", whose rows are read from ``c``. The
digit-wise product ``_mul_raw`` is the definition that the tests compare
against; no program path calls it. The backend and the verify stage
take their 2x2 matrix product, ``matmul``, and the rule for a matrix,
``check_matrix``, from here. ``polynomial_field(p, k)`` is one object
per (p, k) per process, so its tables and ``matmul`` are built once.

``validate`` proves a presentation to be F_q, with no sampling. Any
tables make a field with the coordinate sum: g^i * g^j = g^(i+j), on the
q - 1 images of the unity under the powers of a linear map R, is the
product of the field F_p[R]. So the map M onto the standard field that
``explicit_isomorphism`` builds from them is invertible. The product
by structure constants and the standard product are bilinear, so
M(c[i][j]) = M(b_i) * M(b_j) on the k^2 ordered basis pairs, with the
basis products read from ``c``, makes M a field isomorphism (M(1) = 1
by construction), and the tables compute the definition. For k = 1 the
ring operations are the definitions, and M is a nonzero scalar.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, lru_cache

from . import modp
from .arith import factorint, power
from .errors import ContractViolation, InputError

MAX_ORDER = 1 << 20  # every field is held as O(q) tables

Matrix = tuple[tuple[int, ...], ...]


def check_field(p: int, k: int) -> int:
    """q = p^k for p prime, k >= 1 and q <= MAX_ORDER; else InputError, before any large power.
    In order: int p and k, p < 2, trial division for p <= MAX_ORDER only, k >= 1, the bound."""
    if type(p) is not int or type(k) is not int:  # no bool, float or str
        raise InputError("p and k must be integers")
    if p < 2 or p <= MAX_ORDER and factorint(p) != {p: 1}:
        raise InputError(f"p = {p} is not a prime")
    if k < 1:
        raise InputError(f"need k >= 1, not k = {k}")
    if k >= MAX_ORDER.bit_length() or p**k > MAX_ORDER:
        raise InputError(f"GF({p}^{k}) is out of scope: fields have at most 2^20 elements")
    return p**k


def check_matrix(F: ExplicitField, m) -> Matrix:
    """m as a 2x2 tuple of ints in [0, q), the elements of F; InputError
    otherwise. A bool, float or out-of-range entry would index a table."""
    try:
        (a, b), (c, d) = m
    except (TypeError, ValueError) as exc:
        raise InputError("a matrix must be 2x2") from exc
    if not (type(a) is type(b) is type(c) is type(d) is int and 0 <= min(a, b, c, d) and max(a, b, c, d) < F.order):
        raise InputError("matrix entries must be field elements in [0, q)")
    return ((a, b), (c, d))


class ExplicitField:
    def __init__(self, p: int, k: int, c):
        self.order = check_field(p, k)
        try:
            shaped = len(c) == k and all(len(pl) == k and all(len(r) == k for r in pl) for pl in c)
        except TypeError:  # c, a plane or a row with no length: an int or None
            shaped = False
        if not shaped:
            raise InputError("structure constants must form a k*k*k array")
        # no bool, float or str: x % p would accept or parse it
        if any(type(x) is not int for pl in c for r in pl for x in r):
            raise InputError("the structure constants must be integers")
        self.p = p
        self.k = k
        self.c = c = tuple(tuple(tuple(x % p for x in r) for r in pl) for pl in c)
        self._c00 = c[0][0][0]

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

    # -- the definition: product by structure constants
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

    def _times(self, g: int):
        """x -> x * g as an F_p-linear map: row i is basis_i * g, the sum of
        g_j * c[i][j] over the nonzero digits g_j of g (``_linear_map`` reduces mod p)."""
        rows = [(0,) * self.k] * self.k
        for j, d in enumerate(self.coords(g)):
            if d:
                rows = [[r + d * x for r, x in zip(row, ci[j])] for row, ci in zip(rows, self.c)]
        return _linear_map(self, self, rows)

    @cached_property
    def _tables(self) -> tuple[list[int], list[int], list[int] | None]:
        """(L, E, zech) on the powers of g, the first element of order q - 1.

        The one layout, read by the ring operations below and by
        ``matmul``. With n = q - 1, L[x] is the log of x, and the log
        of zero, L[0] = Z = 3n, exceeds every sum of two logs of nonzero
        elements. E[i] = g^i for i < 3n, then Z + 1 zeros, so a sum of logs
        with Z in it reads zero. For odd p and k > 1, zech[t] = L[1 + g^t]
        over two periods, so Z where 1 + g^t = 0, with 1 + x read from a
        table of all q sums built one base-p digit of the unity at a time.
        k = 1 uses only g. The walk tries g = 1, 2, ... once each, following
        the powers of g by the linear map ``_times(g)`` until one repeats,
        and stops at the first g whose q - 1 powers are distinct and close
        at the unity. For k > 1 it skips the multiples c * 1 of the unity,
        whose powers c^i * 1 repeat within p - 1 < q - 1 steps. In a field,
        times g != 0 permutes the nonzero elements, so its walk from the
        unity returns there; a walk that stops at zero or at another repeat
        x * g = y * g, x != y, shows g to be a zero divisor, and raises."""
        n, one, p = self.order - 1, self.one, self.p
        Z = 3 * n
        skip = {self.scalar(c) for c in range(1, p)} if self.k > 1 else ()
        for g in range(1, self.order):
            if g in skip:
                continue
            times = self._times(g)
            log, exp, x = [Z] * self.order, [], one
            while x and log[x] == Z:
                log[x] = len(exp)
                exp.append(x)
                x = times(x)
            if x != one:
                raise ContractViolation(f"{g} is a zero divisor: not a field")
            if len(exp) == n:
                break
        else:
            raise ContractViolation("no element of order q - 1: not a field")
        zech = None
        if p > 2 and self.k > 1:
            plus, s = [0], 1  # plus[x] = x + 1 over the digits below s
            for d in self.coords(one):
                plus = [c * s + y for c in [(t + d) % p for t in range(p)] for y in plus]
                s *= p
            zech = [log[plus[e]] for e in exp] * 2
        return log, exp * 3 + [0] * (Z + 1), zech

    # -- ring operations ------------------------------------------------
    def add(self, a: int, b: int) -> int:
        if self.k == 1:
            return (a + b) % self.p
        if self.p == 2:
            return a ^ b
        L, E, zech = self._tables
        s, t, Z = L[a], L[b], L[0]
        # a + b = g^s * (1 + g^(t - s)), or one term when the other is zero
        return E[t] if s == Z else E[s] if t == Z else E[s + zech[t - s]]

    def neg(self, a: int) -> int:
        if self.k == 1:
            return -a % self.p
        if self.p == 2:
            return a
        L, E, _ = self._tables
        return E[L[a] + (self.order - 1) // 2]  # -1 = g^((q - 1) / 2)

    def sub(self, a: int, b: int) -> int:
        return self.add(a, self.neg(b))

    def mul(self, a: int, b: int) -> int:
        if self.k == 1:
            return a * b * self._c00 % self.p
        L, E, _ = self._tables
        return E[L[a] + L[b]]

    @cached_property
    def matmul(self):
        """The product of two 2x2 matrices over this field, ``backend.mat_mul``
        inlined for its representation: integers mod p for k = 1, else a
        read of ``_tables`` as laid out there, with XOR sums for p = 2."""
        p = self.p
        if self.k == 1:
            c = self._c00

            def mul(a: Matrix, b: Matrix) -> Matrix:
                (a00, a01), (a10, a11) = a
                (b00, b01), (b10, b11) = b
                return (
                    ((a00 * b00 + a01 * b10) * c % p, (a00 * b01 + a01 * b11) * c % p),
                    ((a10 * b00 + a11 * b10) * c % p, (a10 * b01 + a11 * b11) * c % p),
                )

            return mul
        L, E, zech = self._tables
        Z = L[0]
        if p == 2:

            def mul(a: Matrix, b: Matrix) -> Matrix:
                (a00, a01), (a10, a11) = a
                (b00, b01), (b10, b11) = b
                l00, l01, l10, l11 = L[a00], L[a01], L[a10], L[a11]
                m00, m01, m10, m11 = L[b00], L[b01], L[b10], L[b11]
                return (
                    (E[l00 + m00] ^ E[l01 + m10], E[l00 + m01] ^ E[l01 + m11]),
                    (E[l10 + m00] ^ E[l11 + m10], E[l10 + m01] ^ E[l11 + m11]),
                )

            return mul
        # g^s + g^t = g^(s + zech(t - s)), or g^t when s is the log of zero;
        # two periods of zech cover every difference of two sums of logs
        def mul(a: Matrix, b: Matrix) -> Matrix:
            (a00, a01), (a10, a11) = a
            (b00, b01), (b10, b11) = b
            l00, l01, l10, l11 = L[a00], L[a01], L[a10], L[a11]
            m00, m01, m10, m11 = L[b00], L[b01], L[b10], L[b11]
            s, t = l00 + m00, l01 + m10
            e00 = E[t] if s >= Z else E[s] if t >= Z else E[s + zech[t - s]]
            s, t = l00 + m01, l01 + m11
            e01 = E[t] if s >= Z else E[s] if t >= Z else E[s + zech[t - s]]
            s, t = l10 + m00, l11 + m10
            e10 = E[t] if s >= Z else E[s] if t >= Z else E[s + zech[t - s]]
            s, t = l10 + m01, l11 + m11
            e11 = E[t] if s >= Z else E[s] if t >= Z else E[s + zech[t - s]]
            return ((e00, e01), (e10, e11))

        return mul

    @cached_property
    def one(self) -> int:
        # solve e * basis_i = basis_i for all i
        rows, rhs = [], []
        for i in range(self.k):
            for l in range(self.k):
                rows.append(tuple(self.c[j][i][l] for j in range(self.k)))
                rhs.append(1 if l == i else 0)
        sol = modp.solve_rectangular(rows, rhs, self.p)
        if sol is None:
            raise ContractViolation("presentation has no unity")
        return self.element(sol)

    def scalar(self, n: int) -> int:
        """Image of the integer n in the prime subfield."""
        return self.element((n % self.p) * x % self.p for x in self.coords(self.one))

    def pow(self, a: int, e: int) -> int:
        if e < 0:
            return self.pow(self.inv(a), -e)
        return power(self.mul, self.one, a, e)

    def inv(self, a: int) -> int:
        if a == 0:
            raise ZeroDivisionError("inverting zero")
        if self.k == 1:
            one = self.one  # 1 / c[0][0][0], so a * x * c = one at x = one^2 / a
            return pow(a, -1, self.p) * one * one % self.p
        L, E, _ = self._tables
        return E[self.order - 1 - L[a]]

    def minimal_polynomial(self, a: int) -> modp.Poly:
        """Monic minimal polynomial of a over F_p, low degree first.

        Its degree d is the least with a^(p^d) = a. The powers below a^d
        are then independent, so ``modp.solve_rectangular`` finds the one
        combination a^d = sum_(i<d) x_i * a^i, and the polynomial is
        (-x_0, ..., -x_(d-1), 1).
        """
        p = self.p
        d = next(d for d in range(1, self.k + 1) if self.pow(a, p**d) == a)
        powers = [self.coords(self.pow(a, i)) for i in range(d + 1)]
        sol = modp.solve_rectangular(list(zip(*powers[:d])), powers[d], p)
        return tuple(-s % p for s in sol) + (1,)

    def field_generator(self) -> int:
        # some a qualifies: minimal_polynomial needs the unity and, at k > 1, the
        # tables, which prove this a field of order p^k, and so one with a degree-k element
        return next(a for a in range(1, self.order) if len(self.minimal_polynomial(a)) == self.k + 1)

    def primitive_element(self) -> int:
        """The first element, in integer order, of multiplicative order p^k - 1."""
        return self._tables[1][1]

    def validate(self) -> "FieldIsomorphism":
        """The structure-constants step: the isomorphism onto
        ``polynomial_field(p, k)``, proved exact on the basis products;
        raises ContractViolation if the presentation is not F_q."""
        return explicit_isomorphism(self, ExplicitField.polynomial_field(self.p, self.k))

    # -- serialization: the dict {"p", "k", "c"} -----------------------------
    def to_dict(self) -> dict:
        return {"p": self.p, "k": self.k, "c": [[list(r) for r in pl] for pl in self.c]}

    @classmethod
    def from_dict(cls, data: dict) -> "ExplicitField":
        try:
            return cls(data["p"], data["k"], data["c"])
        except (KeyError, TypeError, ValueError) as e:
            raise InputError(f"bad field JSON: {e}") from e

    @classmethod
    @lru_cache(maxsize=None, typed=True)  # typed: 2.0 and True are not the ints 2 and 1
    def polynomial_field(cls, p: int, k: int) -> "ExplicitField":
        """Standard presentation on the power basis of the smallest irreducible.

        One object per (p, k) per process, so its tables are built once:
        a field never changes after construction, apart from its lazy
        unity and tables, which come out the same whoever builds them.
        """
        check_field(p, k)
        f = modp.smallest_irreducible(p, k)
        powers = []  # x^s mod f; x^i * x^j depends on i + j only
        for s in range(2 * k - 1):
            rem = modp.poly_mod((0,) * s + (1,), f, p)
            powers.append(tuple(rem) + (0,) * (k - len(rem)))
        fld = cls(p, k, tuple(tuple(powers[i + j] for j in range(k)) for i in range(k)))
        fld.one = 1  # basis vector 0 is the polynomial 1
        return fld


@dataclass
class FieldIsomorphism:
    src: ExplicitField
    dst: ExplicitField
    matrix: modp.Mat

    def __post_init__(self):
        self._fwd = _linear_map(self.src, self.dst, self.matrix)

    def __call__(self, a: int) -> int:
        return self._fwd(a)


def _linear_map(A: ExplicitField, B: ExplicitField, m: modp.Mat):
    """a -> the element of B with coordinates coords(a) @ m.

    For p = 2 the rows are split into blocks of 8, and the XOR span of
    each block, its 2^8 (or fewer) sums indexed by their bit masks, is
    built by doubling, so a byte of a picks its sum in one lookup: for
    k <= 8 the map is the list's own ``__getitem__``. For odd p each row
    of m is packed into one int of k slots of w bits, wide enough for a
    sum of k products of two digits, so a single integer product adds a
    digit of a times a whole row.
    """
    p = A.p
    if p == 2:
        rows, spans = [B.element(row) for row in m], []
        for i in range(0, A.k, 8):
            span = [0]
            for r in rows[i:i + 8]:
                span += [x ^ r for x in span]
            spans.append(span)
        if len(spans) == 1:
            return spans[0].__getitem__
        s0, s1, s2 = (spans + [[0]])[:3]  # k <= 20 by MAX_ORDER: at most three bytes
        return lambda a: s0[a & 255] ^ s1[a >> 8 & 255] ^ s2[a >> 16]
    w = (A.k * (p - 1) ** 2).bit_length()
    rows = [sum(d % p << w * l for l, d in enumerate(row)) for row in m]
    mask, powers = (1 << w) - 1, [p**l for l in range(B.k)]

    def apply(a: int) -> int:
        acc = 0
        for row in rows:
            acc += a % p * row
            a //= p
        b = 0
        for q in powers:
            b += (acc & mask) % p * q
            acc >>= w
        return b

    return apply


def explicit_isomorphism(a_field: ExplicitField, b_field: ExplicitField) -> FieldIsomorphism:
    """Field isomorphism between two presentations of the same finite field."""
    if a_field.order != b_field.order:
        raise InputError("fields have different orders")
    p = a_field.p
    g = a_field.field_generator()
    root = find_root(a_field.minimal_polynomial(g), b_field)
    gmat = _power_matrix(a_field, g)
    rmat = _power_matrix(b_field, root)
    iso = FieldIsomorphism(a_field, b_field, modp.mat_mul(modp.mat_inv(gmat, p), rmat, p))
    _check_basis_products(iso)
    return iso


def find_root(f_over_fp: modp.Poly, F: ExplicitField) -> int:
    """The smallest root in F, in integer order, of a polynomial over F_p."""
    f = [F.scalar(c) for c in reversed(f_over_fp)]
    for a in F.elements():
        acc = 0
        for c in f:
            acc = F.add(F.mul(acc, a), c)
        if acc == 0:
            return a
    raise ContractViolation("polynomial has no root in target field")


def _power_matrix(F: ExplicitField, g: int) -> modp.Mat:
    rows, x = [], F.one
    for _ in range(F.k):
        rows.append(F.coords(x))
        x = F.mul(x, g)
    return tuple(rows)


def _check_basis_products(iso: FieldIsomorphism) -> None:
    """M(c[i][j]) = M(b_i) * M(b_j) on all k^2 ordered basis pairs, the source
    products read from its structure constants: by bilinearity, M is then
    multiplicative everywhere. M(1) = 1 untested: row 0 of each
    ``_power_matrix`` is the unity."""
    A, B = iso.src, iso.dst
    basis = [A.p**i for i in range(A.k)]
    for i, x in enumerate(basis):
        for j, y in enumerate(basis):
            if iso(A.element(A.c[i][j])) != B.mul(iso(x), iso(y)):
                raise ContractViolation(f"isomorphism not multiplicative on basis pair ({i}, {j})")
