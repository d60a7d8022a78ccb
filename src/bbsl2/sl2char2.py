"""Constructive recognition of black box SL2(2^n).

Characteristic 2 turns the odd-characteristic difficulty order on its
head. Involutions ARE the nontrivial unipotent elements, so a single
random involution r seeds the unipotent subgroup, and its centralizer
equals that subgroup exactly, making the subgroup enumerable through
involution-centralizer sampling at desk scale.

The Weyl element comes from a dihedral triangle: r times the standard
Weyl element has order 3 in SL2(2^n), and conversely every involution
pair with product of order 3 is conjugate to the standard pair, so any
order-3 element inverted by r closes a valid frame.

Field structure rides on the unipotent subgroup U through r. Addition
is the group operation of U. For multiplication, note that every group
element conjugating r into U normalizes U and acts on it as
multiplication by a fixed field scalar; a field element is therefore
carried as a pair (witness, marker) with marker = r^witness in U.
Witnesses compose under multiplication. Addition multiplies markers and
re-derives a witness deterministically: marker times the opposite
unipotent always has odd order, so a two-step bridge of square roots
(obtained by powering, no search) conjugates r onto any nonzero marker.
"""
from __future__ import annotations

import random
from dataclasses import dataclass

from .blackbox import BlackBoxGroup, ElementString
from .errors import ContractViolation, InputError, MonteCarloFailure
from .field import ExplicitField
from .involutions import bray_centralizer, find_order3_inverted, is_involution
from .sl2odd import finish_recognition
from .stages import RecognitionResult, StageRecorder


@dataclass
class Char2Frame:
    """Seed involution (the frame's u(1)), matched Weyl element, and r^weyl."""

    r: ElementString
    weyl: ElementString
    v1: ElementString


def involution_sample(
    box: BlackBoxGroup, rng: random.Random, budget: int = 4000
) -> ElementString:
    """A random involution, by direct search.

    In SL2(2^n) all even-order elements already are involutions, so
    power tricks buy nothing; the hit rate is about 1/q per sample.
    """
    for _ in range(budget):
        x = box.sample(rng)
        if box.is_identity(x):
            continue
        if box.is_identity(box.mul(x, x)):
            return x
    raise MonteCarloFailure("involution sample", "no element of order 2")


def dihedral_frame(box: BlackBoxGroup, r: ElementString, theta: ElementString) -> Char2Frame:
    """Close the triangle: weyl := r*theta^2 and v1 := theta^2*r are involutions.

    Both orientations of theta close valid frames (they differ by
    conjugation by r), so no disambiguation step is needed.
    """
    t2 = box.mul(theta, theta)
    weyl = box.mul(r, t2)
    v1 = box.mul(t2, r)
    if not (is_involution(box, weyl) and is_involution(box, v1)):
        raise ContractViolation("dihedral companion does not close a triangle of involutions")
    if box.commutes(r, weyl):
        raise ContractViolation("Weyl candidate centralizes the seed involution")
    if not box.compare(box.conj(r, weyl), v1):
        raise ContractViolation("frame wiring: r^weyl must be the opposite unipotent")
    return Char2Frame(r=r, weyl=weyl, v1=v1)


def enumerate_unipotent(
    box: BlackBoxGroup,
    r: ElementString,
    rng: random.Random,
    n: int,
    candidate_budget: int | None = None,
) -> tuple[list[ElementString], list[ElementString]]:
    """All 2^n elements of the unipotent subgroup through r, plus a basis.

    The returned list is ordered so that elements[i] is the product of
    the basis elements at the set bits of i; the list index therefore
    doubles as the coordinate vector of the element over the basis.
    """
    size = 1 << n
    if candidate_budget is None:
        candidate_budget = 40 * n + 200
    elements = [box.identity]
    basis: list[ElementString] = []
    spent = 0
    while len(elements) < size and spent < candidate_budget:
        for cand in bray_centralizer(box, r, rng, count=8):
            spent += 1
            if len(elements) >= size:
                break
            if not box.is_identity(box.mul(cand, cand)):
                raise ContractViolation("involution centralizer contains a non-involution")
            if any(box.compare(cand, e) for e in elements):
                continue
            basis.append(cand)
            elements += [box.mul(e, cand) for e in elements]
    if len(elements) != size:
        raise MonteCarloFailure(
            "unipotent enumeration", f"span stuck at {len(elements)} of {size}"
        )
    return elements, basis


def _index_of(box: BlackBoxGroup, elements: list[ElementString], x: ElementString) -> int:
    for i, e in enumerate(elements):
        if box.compare(x, e):
            return i
    raise ContractViolation("element does not lie in the enumerated unipotent subgroup")


class Char2Field:
    """Field of order 2^n carried on the unipotent subgroup through r.

    Elements are pairs (witness, marker) with marker = r^witness; zero
    is (None, identity) and one is (identity, r). Equality and addition
    look only at markers; multiplication composes witnesses. Any valid
    witness works: witnesses for the same marker differ by a centralizer
    element of r, which lies in U and acts trivially there.
    """

    def __init__(
        self,
        box: BlackBoxGroup,
        frame: Char2Frame,
        elements: list[ElementString],
        basis: list[ElementString],
        n: int,
    ):
        self.box = box
        self.r = frame.r
        self.v1 = frame.v1
        self.p = 2
        self.k = n
        self.elements = elements
        self.basis = basis
        self._sqrt_exp = 1 << (2 * n - 1)
        self._bridge_tail = box.power(box.mul(frame.v1, frame.r), self._sqrt_exp)
        self.zero = (None, box.identity)
        self.one = (box.identity, frame.r)
        self._explicit: ExplicitField | None = None
        self._lift_cache: dict[int, tuple] = {}

    def _witness(self, marker: ElementString) -> ElementString:
        """A group element conjugating r onto the given nonzero marker.

        marker * v1 has odd order d for every nonzero marker in U, so
        its d-th square root is a plain power (exponent 2^(2n-1), which
        halves exponents mod any divisor of 2^(2n)-1); chaining the
        bridge r -> v1 -> marker through two such roots lands exactly.
        The tail factor of the chain is constant and precomputed.
        """
        head = self.box.power(self.box.mul(marker, self.v1), self._sqrt_exp)
        t = self.box.inv(self.box.mul(head, self._bridge_tail))
        if not self.box.compare(self.box.conj(self.r, t), marker):
            raise ContractViolation("witness bridge failed: even order where odd was promised")
        return t

    def is_zero(self, a) -> bool:
        return self.box.is_identity(a[1])

    def eq(self, a, b) -> bool:
        return self.box.compare(a[1], b[1])

    def add(self, a, b):
        m = self.box.mul(a[1], b[1])
        if self.box.is_identity(m):
            return self.zero
        return (self._witness(m), m)

    def sub(self, a, b):
        return self.add(a, b)

    def neg(self, a):
        return a

    def mul(self, a, b):
        if self.is_zero(a) or self.is_zero(b):
            return self.zero
        return (self.box.mul(a[0], b[0]), self.box.conj(a[1], b[0]))

    def inv(self, a):
        if self.is_zero(a):
            raise ZeroDivisionError("zero has no multiplicative inverse")
        t = self.box.inv(a[0])
        return (t, self.box.conj(self.r, t))

    def read_int(self, a) -> int:
        """Index of a's marker in the enumeration: its coordinate vector as bits."""
        return _index_of(self.box, self.elements, a[1])

    def lift_int(self, j: int):
        if not 0 <= j < len(self.elements):
            raise InputError(f"no field element with index {j}")
        if j == 0:
            return self.zero
        hit = self._lift_cache.get(j)
        if hit is None:
            marker = self.elements[j]
            hit = (self._witness(marker), marker)
            self._lift_cache[j] = hit
        return hit

    def random_element(self, rng: random.Random):
        return self.lift_int(rng.randrange(len(self.elements)))

    def to_explicit(self) -> ExplicitField:
        """Structure constants over the enumeration basis, as an explicit field."""
        if self._explicit is None:
            n = self.k
            pairs = [self.lift_int(1 << i) for i in range(n)]
            rows = []
            for i in range(n):
                row = []
                for j in range(n):
                    idx = self.read_int(self.mul(pairs[i], pairs[j]))
                    row.append(tuple((idx >> l) & 1 for l in range(n)))
                rows.append(tuple(row))
            self._explicit = ExplicitField(2, n, tuple(rows))
        return self._explicit


def recover_char2(
    box: BlackBoxGroup, n: int, rng: random.Random, trials: int = 200
) -> RecognitionResult:
    """Full recognition run for SL2(2^n); see the module docstring."""
    if n < 2:
        raise InputError("n must be at least 2: SL2(2) is solvable and out of scope")
    q = 1 << n
    rec = StageRecorder(box)

    with rec.stage("involution"):
        r = involution_sample(box, rng, budget=max(4000, 40 * q))
    with rec.stage("weyl"):
        theta = find_order3_inverted(box, r, rng)
        frame = dihedral_frame(box, r, theta)
    with rec.stage("unipotent-enumeration"):
        elements, basis = enumerate_unipotent(box, r, rng, n)

    with rec.stage("field"):
        field = Char2Field(box, frame, elements, basis, n)
    checks = {"carrier_size": len(elements), "is_center_quotient": False}
    return finish_recognition(box, rec, rng, field, frame, lambda a: a[1], trials, checks)
