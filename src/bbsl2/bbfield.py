"""Recovering an explicit copy of F_(p^k) inside a black box group.

The carrier of the field is the unipotent subgroup containing a chosen
additive unity: group multiplication there is field addition.
Multiplication is transported by conjugation with a fixed square root
of a torus element, and a Frobenius map turns the field trace into a
computable functional. Reading traces of basis products yields the Gram
matrix of the trace form, and with it coordinates, structure constants,
and inverses, all by small linear algebra over F_p. ``trace_form`` and
``check_structure`` serve the characteristic-2 field of ``sl2char2`` too.

Elements of the recovered field are strings of the Frobenius box, and
``to_box`` maps one to the base-box string carrying it; all equality
goes through the box.
"""
from __future__ import annotations

from . import modp
from .arith import factorint, p_part
from .blackbox import BlackBoxGroup, ElementString, element_order
from .errors import ContractViolation, InputError
from .field import ExplicitField
from .frobenius import FrobeniusMap


def ppd_prime(p: int, n: int) -> int | None:
    """Largest prime dividing p^n - 1 but no earlier p^i - 1, or None.

    Equivalently the largest prime r with multiplicative order of
    p modulo r exactly n. None on the Zsigmondy exceptions. InputError
    unless p is an int prime, n an int >= 1 and p^n <= 2^40 (n = 2k over
    a field of at most 2^20 elements), so trial division stays at 2^20 + 1.
    """
    ints = type(p) is int and type(n) is int  # no bool, float or str
    if not ints or not 1 <= n <= 40 or p < 2 or p**n > 1 << 40 or factorint(p) != {p: 1}:
        raise InputError(f"need a prime p and n >= 1 with p^n <= 2^40, not p = {p!r}, n = {n!r}")
    ppds = [r for r in factorint(p**n - 1) if all(pow(p, i, r) != 1 for i in range(1, n))]
    return max(ppds, default=None)


def trace_form(T, p: int, k: int):
    """The trace form in the basis gamma^1..gamma^k of F_(p^k), from power traces.

    T[m] = Tr(gamma^m) for m = 1..3k (T[0] is unused). The Gram matrix
    is G[i][j] = T[i+j]; the coordinates of an element x are
    (Tr(x gamma^j))_j G^-1, so those of gamma^(i+j) are the structure
    constants (T[i+j+l])_l G^-1. Returns (G^-1, structure), or None
    when G is singular, that is when gamma generates a proper subfield.
    """
    gram = tuple(tuple(T[i + j] for j in range(1, k + 1)) for i in range(1, k + 1))
    try:
        ginv = modp.mat_inv(gram, p)
    except ZeroDivisionError:
        return None
    structure = tuple(
        tuple(
            modp.vec_mat(tuple(T[i + j + l] for l in range(1, k + 1)), ginv, p)
            for j in range(1, k + 1)
        )
        for i in range(1, k + 1)
    )
    return ginv, structure


def combine(box: BlackBoxGroup, s, coords, p: int) -> ElementString:
    """The box element sum_l coords[l-1] * gamma^l, with gamma^l carried by s[l]."""
    out = box.identity
    for l, a in enumerate(coords, start=1):
        if a % p:
            out = box.mul(out, box.power(s[l], a % p))
    return out


def check_structure(box: BlackBoxGroup, s, structure, p: int) -> None:
    """Cross-check every row against the box: gamma^i * gamma^j is s[i+j]."""
    for i, plane in enumerate(structure, start=1):
        for j, row in enumerate(plane, start=1):
            if not box.compare(s[i + j], combine(box, s, row, p)):
                raise ContractViolation(
                    "structure constants disagree with the box on a basis product"
                )


class BlackBoxField:
    """F_(p^k) on the Frobenius box ``fro``: the unity is ``fro.u_bar``, p and
    k are the box's, and calling the box is the Frobenius. ``to_box``
    projects an element to the base-box string that carries it."""

    def __init__(self, fro: FrobeniusMap, conjugator: ElementString):
        self.box = box = fro
        self.unity = unity = fro.u_bar
        self.p = p = fro.p
        self.k = k = fro.k
        if box.is_identity(unity):
            raise InputError("the additive unity must be nontrivial")
        if not box.is_identity(box.power(unity, p)):
            raise ContractViolation("unity does not have additive order p")
        if not box.compare(box(unity), unity):
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

        # power traces T_m = read(trace(s_m)), m = 1..3k
        self._T = [None] + [self._read(self.trace(self._s[m])) for m in range(1, 3 * k + 1)]
        if (form := trace_form(self._T, p, k)) is None:
            raise ContractViolation("degenerate trace form: basis does not span the field")
        self._gram_inv, self.structure = form
        self.unity_coords = modp.vec_mat(
            tuple(self._T[j] for j in range(1, k + 1)), self._gram_inv, p
        )
        check_structure(box, self._s, self.structure, p)

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

    # -- reading ------------------------------------------------------------
    def trace(self, x: ElementString) -> ElementString:
        acc, cur = x, x
        for _ in range(self.k - 1):
            cur = self.box(cur)
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
        return combine(self.box, self._s, coords, self.p)

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

    # -- explicit coordinates -------------------------------------------------
    def to_box(self, x: ElementString) -> ElementString:
        return self.box.project(x)

    def read_int(self, x: ElementString) -> int:
        return sum(d * self.p**i for i, d in enumerate(self.coords(x)))

    def lift_int(self, n: int) -> ElementString:
        if type(n) is not int or not 0 <= n < self.p**self.k:  # no bool or float
            raise InputError(f"no field element with index {n!r}")
        return self.from_coords([n // self.p**i % self.p for i in range(self.k)])

    def to_explicit(self) -> ExplicitField:
        return ExplicitField(self.p, self.k, self.structure)


def build_field_on_U(fro: FrobeniusMap, torus_order: int) -> BlackBoxField:
    """The field on the unipotent subgroup through ``fro.u_bar``, over
    p and k of the Frobenius box, with the conjugation twist chosen here.

    For k = 1 the twist is the identity: any twist works, and the identity
    makes the lone structure constant exactly 1. For k > 1 it is the
    square root h_tilde^((m+1)/2) of h_tilde, the part of ``fro.h_bar``
    whose order m is r = ``ppd_prime(p, k)``, an odd prime. Where p^k - 1
    has no primitive prime divisor (the Zsigmondy exceptions, such as
    q = 9) it is h_bar itself, a square root of h_bar^2.
    """
    p, k = fro.p, fro.k
    if k == 1:
        conj = fro.identity
    elif (r := ppd_prime(p, k)) is None:
        conj = fro.h_bar
    else:
        h_tilde = fro.power(fro.h_bar, torus_order // p_part(torus_order, r))
        # m is r, but the box is asked, as the pinned oracle counts include it
        conj = fro.power(h_tilde, (element_order(fro, h_tilde) + 1) // 2)
    return BlackBoxField(fro, conj)
