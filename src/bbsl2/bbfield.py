"""Recovering an explicit copy of F_(p^k) inside a black box group.

The carrier of the field is the unipotent subgroup containing a chosen
additive unity: group multiplication there is field addition.
Multiplication is transported by conjugation with a fixed square root
of a torus element, and a Frobenius map turns the field trace into a
computable functional. Reading traces of basis products yields the Gram
matrix of the trace form, and with it coordinates, structure constants,
and inverses, all by small linear algebra over F_p.

Elements of the recovered field are strings of the ambient box; all
equality goes through the box.
"""
from __future__ import annotations

import random

from . import modp
from .arith import factorint
from .blackbox import BlackBoxGroup, ElementString, element_order
from .errors import ContractViolation, InputError
from .field import ExplicitField


def _mult_order(a: int, r: int) -> int:
    """Multiplicative order of a modulo prime r."""
    o = r - 1
    for q in factorint(o):
        while o % q == 0 and pow(a, o // q, r) == 1:
            o //= q
    return o


def ppd_prime(p: int, n: int) -> int | None:
    """Largest prime dividing p^n - 1 but no earlier p^i - 1, or None.

    Equivalently the largest prime r with multiplicative order of
    p modulo r exactly n. None on the Zsigmondy exceptions.
    """
    if n < 1:
        raise InputError("need n >= 1")
    best = None
    for r in factorint(p**n - 1):
        if _mult_order(p, r) == n and (best is None or r > best):
            best = r
    return best


class BlackBoxField:
    """F_(p^k) whose elements are strings of the ambient box."""

    def __init__(
        self,
        box: BlackBoxGroup,
        unity: ElementString,
        conjugator: ElementString,
        phi,
        p: int,
        k: int,
    ):
        self.box = box
        self.unity = unity
        self.phi = phi
        self.p = p
        self.k = k
        if box.is_identity(unity):
            raise InputError("the additive unity must be nontrivial")
        if not box.is_identity(box.power(unity, p)):
            raise ContractViolation("unity does not have additive order p")
        if not box.compare(phi(unity), unity):
            raise ContractViolation("the Frobenius map moves the unity")

        # multiples j * unity for prime-field reads
        mults = [box.identity]
        for _ in range(p - 1):
            mults.append(box.mul(mults[-1], unity))
        self._mults = mults

        # conjugator powers and the basis s_i = unity ^ (c^i)
        cpow = [box.identity]
        for _ in range(3 * k):
            cpow.append(box.mul(cpow[-1], conjugator))
        self._cpow = cpow
        self._s = [unity] + [box.conj(unity, cpow[i]) for i in range(1, 3 * k + 1)]

        # power traces T_m = read(trace(s_m)); the Gram matrix of the
        # trace form in the s-basis is A[i][j] = T_(i+j)
        self._T = [None] + [self._read(self.trace(self._s[m])) for m in range(1, 3 * k + 1)]
        gram = tuple(
            tuple(self._T[i + j] for j in range(1, k + 1)) for i in range(1, k + 1)
        )
        self.gram = gram
        self.gram_det = modp.mat_det(gram, p)
        if self.gram_det == 0:
            raise ContractViolation("degenerate trace form: basis does not span the field")
        self._gram_inv = modp.mat_inv(gram, p)

        self.unity_coords = modp.vec_mat(
            tuple(self._T[j] for j in range(1, k + 1)), self._gram_inv, p
        )

        # structure constants, each row cross-checked against the box
        structure = []
        for i in range(1, k + 1):
            plane = []
            for j in range(1, k + 1):
                row = modp.vec_mat(
                    tuple(self._T[i + j + l] for l in range(1, k + 1)),
                    self._gram_inv,
                    p,
                )
                if not box.compare(self._s[i + j], self.from_coords(row)):
                    raise ContractViolation(
                        "structure constants disagree with the box on a basis product"
                    )
                plane.append(row)
            structure.append(tuple(plane))
        self.structure = tuple(structure)
        self._lift_cache: dict[int, ElementString] = {}

    # -- additive layer ---------------------------------------------------
    @property
    def zero(self) -> ElementString:
        return self.box.identity

    def is_zero(self, x: ElementString) -> bool:
        return self.box.is_identity(x)

    def eq(self, x: ElementString, y: ElementString) -> bool:
        return self.box.compare(x, y)

    def add(self, x: ElementString, y: ElementString) -> ElementString:
        return self.box.mul(x, y)

    def neg(self, x: ElementString) -> ElementString:
        return self.box.inv(x)

    def sub(self, x: ElementString, y: ElementString) -> ElementString:
        return self.box.mul(x, self.box.inv(y))

    # -- reading ------------------------------------------------------------
    def trace(self, x: ElementString) -> ElementString:
        acc, cur = x, x
        for _ in range(self.k - 1):
            cur = self.phi(cur)
            acc = self.box.mul(acc, cur)
        return acc

    def _read(self, x: ElementString) -> int:
        for j, m in enumerate(self._mults):
            if self.box.compare(x, m):
                return j
        raise ContractViolation("trace value is not a prime-field multiple of the unity")

    def coords(self, x: ElementString) -> modp.Vec:
        beta = tuple(
            self._read(self.trace(self.box.conj(x, self._cpow[j])))
            for j in range(1, self.k + 1)
        )
        return modp.vec_mat(beta, self._gram_inv, self.p)

    def from_coords(self, coords) -> ElementString:
        out = self.box.identity
        for l, a in enumerate(coords, start=1):
            if a % self.p:
                out = self.box.mul(out, self.box.power(self._s[l], a % self.p))
        return out

    # -- multiplicative layer -----------------------------------------------
    def mul(self, x: ElementString, y: ElementString) -> ElementString:
        """Bilinear: x*y = sum_l y_l (x conjugated by the l-th twist)."""
        out = self.box.identity
        for l, a in enumerate(self.coords(y), start=1):
            if a:
                out = self.box.mul(out, self.box.power(self.box.conj(x, self._cpow[l]), a))
        return out

    def inv(self, x: ElementString) -> ElementString:
        if self.is_zero(x):
            raise ZeroDivisionError("inverting the field zero")
        rows = [self.coords(self.box.conj(x, self._cpow[l])) for l in range(1, self.k + 1)]
        sol = modp.solve_rectangular(list(zip(*rows)), self.unity_coords, self.p)
        if sol is None:
            raise ContractViolation("element has no inverse: carrier is not a field")
        z = self.from_coords(sol)
        if not self.eq(self.mul(x, z), self.one):
            raise ContractViolation("inverse failed its defining identity")
        return z

    @property
    def one(self) -> ElementString:
        return self.unity

    def pow(self, x: ElementString, e: int) -> ElementString:
        if e < 0:
            return self.pow(self.inv(x), -e)
        out = self.one
        while e:
            if e & 1:
                out = self.mul(out, x)
            x = self.mul(x, x)
            e >>= 1
        return out

    # -- explicit coordinates -------------------------------------------------
    def read_int(self, x: ElementString) -> int:
        a = 0
        for d in reversed(self.coords(x)):
            a = a * self.p + d
        return a

    def lift_int(self, n: int) -> ElementString:
        hit = self._lift_cache.get(n)
        if hit is not None:
            return hit
        m, digits = n, []
        for _ in range(self.k):
            digits.append(m % self.p)
            m //= self.p
        out = self.from_coords(digits)
        self._lift_cache[n] = out
        return out

    def random_element(self, rng: random.Random) -> ElementString:
        return self.from_coords([rng.randrange(self.p) for _ in range(self.k)])

    def to_explicit(self) -> ExplicitField:
        return ExplicitField(self.p, self.k, self.structure)


def build_field_on_U(
    box: BlackBoxGroup,
    unity: ElementString,
    h_tilde: ElementString | None,
    phi,
    p: int,
    k: int,
    sqrt_override: ElementString | None = None,
) -> BlackBoxField:
    """Assemble the field: pick the conjugation twist, then build.

    For k = 1 the identity twist is canonical (any twist works; the
    identity makes the lone structure constant exactly 1). Otherwise the
    twist is the square root h_tilde^((m+1)/2) of the odd-order torus
    part, unless the caller supplies an explicit square root, which is
    how fields without a primitive prime divisor are handled.
    """
    if k == 1:
        conj = box.identity
    elif sqrt_override is not None:
        conj = sqrt_override
    else:
        if h_tilde is None:
            raise InputError("need a torus element for k >= 2")
        m = element_order(box, h_tilde)
        if m % 2 == 0:
            raise InputError("torus twist must have odd order unless a root is supplied")
        conj = box.power(h_tilde, (m + 1) // 2)
    return BlackBoxField(box, unity, conj, phi, p, k)
