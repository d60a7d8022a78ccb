"""Constructive recognition of black box SL2(2^n).

Characteristic 2 turns the odd-characteristic difficulty order on its
head. Involutions ARE the nontrivial unipotent elements, so a single
random involution r seeds the unipotent subgroup U, and its
centralizer equals U exactly, so one Bray step samples U. Every odd
order divides 2^(2n) - 1, so that step takes its square root by
squarings, with no order computation.

The Weyl element comes from a dihedral triangle: r times the standard
Weyl element has order 3 in SL2(2^n), and conversely every involution
pair with product of order 3 is conjugate to the standard pair, so any
order-3 element inverted by r closes a valid frame; the frame's
relations then hold in every group, so none is tested.

Field structure rides on the unipotent subgroup U through r. Addition
is the group operation of U. For multiplication, note that every group
element conjugating r into U normalizes U and acts on it as
multiplication by a fixed field scalar. A field element is therefore
its marker, a string of U: zero is the identity and one is r. Addition
multiplies markers, and the lift of j multiplies the basis markers at
the set bits of j, popcount(j) - 1 muls. Multiplication, inversion and
a coordinate read need a witness, a group element conjugating r onto
a marker, and derive one for the one marker they need; the Steinberg
morphism lifts markers only, so its lifts never pay for one. A witness
is derived deterministically: marker times the opposite unipotent
always has odd order, so a two-step bridge of square roots (obtained by
squaring, no search) conjugates r onto any nonzero marker.

Coordinates are read through the trace form, as in odd characteristic
(``bbfield.trace_form``). The Frobenius is squaring, so the element
with witness w has trace prod_(i<n) r^(w^(2^i)), which is the identity
or r. The basis is r^(c^m), m = 1..n, for the witness c of a random
element of U; its Gram determinant is zero only when c's scalar lies in
a proper subfield, and then c is redrawn. Nothing is linear in q except
the involution search.
"""
from __future__ import annotations

import random
from dataclasses import dataclass
from functools import reduce
from math import isqrt

from . import modp
from .bbfield import check_structure, trace_form
from .blackbox import BlackBoxGroup, ElementString
from .errors import ContractViolation, InputError, MonteCarloFailure
from .field import ExplicitField
from .involutions import bray_centralizer, find_order3_inverted, is_involution
from .sl2odd import (
    check_exponent,
    check_params,
    check_rng,
    check_trials,
    finish_recognition,
    recover_psl2,
)
from .stages import RecognitionResult, StageRecorder


@dataclass
class Char2Frame:
    """Seed involution (the frame's u(1)), matched Weyl element, and r^weyl."""

    r: ElementString
    weyl: ElementString
    v1: ElementString


def involution_sample(box: BlackBoxGroup, rng: random.Random) -> ElementString:
    """A random involution, by direct search over max(4000, 40q) samples.

    All even-order elements of SL2(2^n) are involutions, so power tricks buy
    nothing; about 1 sample in q hits, q read off the exponent 2(q^2 - 1). A
    miss costs one mul and one compare: x != 1 is tested only when x^2 = 1.
    """
    for _ in range(max(4000, 40 * isqrt(box.exponent // 2 + 1))):
        x = box.sample(rng)
        if is_involution(box, x):
            return x
    raise MonteCarloFailure("involution sample", "no element of order 2")


def dihedral_frame(box: BlackBoxGroup, r: ElementString, theta: ElementString) -> Char2Frame:
    """Close the triangle: weyl := r*theta^2 and v1 := theta^2*r.

    theta must have order 3 and be inverted by r, as ``find_order3_inverted``
    returns it. In every group such a pair makes weyl and v1 involutions,
    r*weyl = theta^2 and weyl*r = theta, so r and weyl do not commute, and
    r^weyl = r*theta = v1. No box could fail a test of these, so none is
    made. Both orientations of theta close valid frames (they differ by
    conjugation by r), so no disambiguation step is needed.
    """
    t2 = box.mul(theta, theta)
    return Char2Frame(r=r, weyl=box.mul(r, t2), v1=box.mul(t2, r))


def enumerate_unipotent(
    box: BlackBoxGroup,
    r: ElementString,
    rng: random.Random,
    n: int,
) -> tuple[list[ElementString], list[ElementString]]:
    """All 2^n elements of the unipotent subgroup through r, plus a basis.

    The tests' brute-force oracle, linear in q: elements[i] is the
    product of the basis elements at the set bits of i.
    """
    size = 1 << n
    elements = [box.identity]
    basis: list[ElementString] = []
    spent = 0
    while len(elements) < size and spent < 40 * n + 200:
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


def _sqrt(box: BlackBoxGroup, x: ElementString, n: int) -> ElementString:
    """x^(2^(2n-1)), by 2n - 1 squarings: the square root of x when its
    order is odd, since every odd order in SL2(2^n) divides 2^(2n) - 1."""
    for _ in range(2 * n - 1):
        x = box.mul(x, x)
    return x


def _bray_step(box: BlackBoxGroup, r: ElementString, g: ElementString, n: int) -> ElementString:
    """``bray_element(box, r, g)`` in SL2(2^n), without an order computation.

    w = r * r^g is the identity (Bray's element is g), an involution
    (it is w), or of odd order m; then w^((m-1)/2) is the inverse of
    the square root of w, so the element g * w^((m-1)/2) is reached by
    squarings alone.
    """
    w = box.mul(r, box.conj(r, g))
    if box.is_identity(box.mul(w, w)):
        return g if box.is_identity(w) else w
    return box.mul(g, _sqrt(box, box.inv(w), n))


# draws of the conjugator before the box is declared no SL2(2^n); on a true
# SL2(2^n) a draw fails (its element is the identity, or its scalar lies in
# a proper subfield) with probability at most 1/2, so all fail with at most 2^-40
_CONJUGATOR_BUDGET = 40


class Char2Field:
    """Field of order 2^n carried on the unipotent subgroup through r.

    An element is its marker, a base-box string of U, as a
    ``BlackBoxField`` element is one string of the Frobenius box: zero
    is the identity and one is r. Equality, addition and lifts act on
    markers; ``mul``, ``inv`` and ``read_int`` each derive the witness of
    the one marker they need (``_witness``), so a witness is made only
    where it is used. Any valid witness works: witnesses for the same
    marker differ by a centralizer element of r, which lies in U and
    acts trivially there.

    Coordinates come from the trace form, as in ``BlackBoxField``, over
    the basis s_m = r^(c^m), m = 1..n, of a conjugator c drawn from U.
    """

    def __init__(self, box: BlackBoxGroup, frame: Char2Frame, n: int, rng: random.Random):
        self.box = box
        self.r = frame.r
        self.v1 = frame.v1
        self.p = 2
        self.k = n
        self._bridge_tail = _sqrt(box, box.mul(frame.v1, frame.r), n)
        self.zero = box.identity
        self.one = frame.r
        for _ in range(_CONJUGATOR_BUDGET):
            z = _bray_step(box, frame.r, box.sample(rng), n)
            if box.is_identity(z):
                continue
            c = self._witness(z)
            cpow = [box.identity, c]
            for _ in range(3 * n - 1):
                cpow.append(box.mul(cpow[-1], c))
            T = self._power_traces(cpow)
            if (form := trace_form(T, 2, n)) is not None:
                break
        else:
            raise ContractViolation(
                f"no conjugator generated the field in {_CONJUGATOR_BUDGET} draws, which a "
                f"true SL2(2^{n}) allows with probability at most 2^-{_CONJUGATOR_BUDGET}"
            )
        self._gram_inv, self.structure = form
        self._cpow = cpow
        self._s = [frame.r] + [box.conj(frame.r, w) for w in cpow[1 : 2 * n + 1]]
        check_structure(self, self._s)

    def _witness(self, marker: ElementString) -> ElementString:
        """A group element conjugating r onto the given nonzero marker.

        marker * v1 has odd order d for every nonzero marker in U, so
        its square root is a plain power (``_sqrt``: exponent 2^(2n-1),
        which halves exponents mod any divisor of 2^(2n)-1); chaining the
        bridge r -> v1 -> marker through two such roots lands exactly.
        The tail factor of the chain is constant and precomputed.
        """
        box = self.box
        t_inv = box.mul(_sqrt(box, box.mul(marker, self.v1), self.k), self._bridge_tail)
        t = box.inv(t_inv)
        if not box.compare(box.conj(self.r, t, t_inv), marker):
            raise ContractViolation("witness bridge failed: even order where odd was promised")
        return t

    def _power_traces(self, cpow: list[ElementString]) -> list:
        """[None, T_1, .., T_3n], T_m the trace of the element with witness cpow[m].

        Tr(x^2) = Tr(x) in characteristic 2, so T_2m = T_m and only the
        traces at odd m are read from the box.
        """
        T = [None]
        for m in range(1, len(cpow)):
            T.append(self._trace(cpow[m]) if m % 2 else T[m // 2])
        return T

    def _trace(self, w: ElementString) -> int:
        """The trace of the element with witness w, read as 0 or 1.

        The Frobenius is squaring, and the element with witness w^(2^i)
        has marker r^(w^(2^i)); the product of these n markers is the
        trace, which is the identity or r.
        """
        box = self.box
        acc = box.conj(self.r, w)
        for _ in range(self.k - 1):
            w = box.mul(w, w)
            acc = box.mul(acc, box.conj(self.r, w))
        if box.is_identity(acc):
            return 0
        if box.compare(acc, self.r):
            return 1
        raise ContractViolation("trace value is neither the identity nor r")

    def is_zero(self, a: ElementString) -> bool:
        return self.box.is_identity(a)

    def eq(self, a: ElementString, b: ElementString) -> bool:
        return self.box.compare(a, b)

    def add(self, a: ElementString, b: ElementString) -> ElementString:
        return self.box.mul(a, b)

    def mul(self, a: ElementString, b: ElementString) -> ElementString:
        if self.is_zero(a) or self.is_zero(b):
            return self.zero
        return self.box.conj(a, self._witness(b))

    def inv(self, a: ElementString) -> ElementString:
        if self.is_zero(a):
            raise ZeroDivisionError("zero has no multiplicative inverse")
        return self.box.conj(self.r, self.box.inv(self._witness(a)))

    def to_box(self, a: ElementString) -> ElementString:
        return a

    def read_int(self, a: ElementString) -> int:
        """Coordinates over s_1..s_n from the traces Tr(a * s_j), as bits."""
        if self.is_zero(a):
            return 0
        w = self._witness(a)
        beta = tuple(self._trace(self.box.mul(w, self._cpow[j])) for j in range(1, self.k + 1))
        return sum(d << i for i, d in enumerate(modp.vec_mat(beta, self._gram_inv, 2)))

    def lift_int(self, j: int) -> ElementString:
        """The marker of j: the product of the basis markers s_(i+1) over the
        set bits i of j, which costs popcount(j) - 1 muls."""
        if type(j) is not int or not 0 <= j < 1 << self.k:  # no bool or float
            raise InputError(f"no field element with index {j!r}")
        if j == 0:
            return self.zero
        return reduce(self.box.mul, (self._s[i + 1] for i in range(self.k) if j >> i & 1))

    def to_explicit(self) -> ExplicitField:
        return ExplicitField(2, self.k, self.structure)


def recover_char2(
    box: BlackBoxGroup, n: int, rng: random.Random, trials: int = 200
) -> RecognitionResult:
    """Full recognition run for SL2(2^n); see the module docstring."""
    check_trials(trials)
    check_rng(rng)
    check_exponent(box, 2, check_params(2, n))
    rec = StageRecorder(box)

    with rec.stage("involution"):
        r = involution_sample(box, rng)
    with rec.stage("weyl"):
        theta = find_order3_inverted(box, r, rng)
        frame = dihedral_frame(box, r, theta)

    with rec.stage("field"):
        field = Char2Field(box, frame, n, rng)
    return finish_recognition(box, rec, rng, field, frame, trials, {"is_center_quotient": False})


def recognize(
    box: BlackBoxGroup, p: int, k: int, rng: random.Random, trials: int = 200
) -> RecognitionResult:
    """Recognize (P)SL2(p^k): ``recover_char2`` at p = 2, ``recover_psl2`` otherwise."""
    if p == 2:
        return recover_char2(box, k, rng, trials=trials)
    return recover_psl2(box, p, k, rng, trials=trials)
