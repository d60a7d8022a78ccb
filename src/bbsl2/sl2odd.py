"""Constructive recognition of black box (P)SL2(q) in odd characteristic.

The pipeline: take p-power parts of random elements until one is a
nontrivial unipotent u; decide SL versus PSL from the centrality of a
random involution (in SL2 the unique involution is -1, in PSL2 every
involution is noncentral); find a torus element h of full order
normalizing the unipotent subgroup through u; sweep torus translates of
opposite unipotents, random conjugates of u, to pin the Weyl element
matched to u, by one search for SL2 and PSL2 alike; carry a
Frobenius map on the shifted copy; recover the field on the unipotent
subgroup; and assemble the explicit isomorphism from 2x2 matrices over
the recovered field into the box via Bruhat decomposition. The last
three stages, from structure constants to verification, are
``finish_recognition``, which characteristic 2 shares.
"""
from __future__ import annotations

import random
from dataclasses import dataclass

from . import oracle
from .arith import coprime_part, p_part
from .bbfield import build_field_on_U
from .blackbox import BlackBoxGroup, ElementString, element_order
from .errors import ContractViolation, InputError, MonteCarloFailure
from .field import check_field, check_matrix
from .frobenius import frobenius_on_sl2
from .involutions import random_involution
from .stages import RecognitionResult, StageRecorder

# sample budgets of the frame search; the Weyl search also stops after
# sweeping this many opposite unipotents
_UNIPOTENT_SAMPLES = 6000
_TORUS_SAMPLES = 40000
_WEYL_SAMPLES = 40000
_WEYL_SWEEPS = 24


@dataclass
class StandardFrame:
    """A unipotent, a full-order torus element, and the matched Weyl element."""

    u: ElementString
    h: ElementString
    weyl: ElementString
    is_psl: bool
    torus_order: int


def unipotent_element(box: BlackBoxGroup, p: int, rng: random.Random) -> ElementString:
    """A nontrivial element of order p, as a p'-power of a random element."""
    ep = coprime_part(box.exponent, p)
    for _ in range(_UNIPOTENT_SAMPLES):
        u = box.power(box.sample(rng), ep)
        if not box.is_identity(u):
            if not box.is_identity(box.power(u, p)):
                raise ContractViolation("p-part of a random element has order not dividing p")
            return u
    raise MonteCarloFailure("unipotent element", f"no element of order divisible by {p}")


def in_unipotent_of(box: BlackBoxGroup, u: ElementString, p: int, x: ElementString) -> bool:
    """Membership in the unipotent subgroup through u: x^p = 1 and [x, u] = 1."""
    return box.is_identity(box.power(x, p)) and box.commutes(x, u)


def classify_center(box: BlackBoxGroup, rng: random.Random) -> tuple[bool, ElementString]:
    """(True, i) if the box is a center quotient, judged by involution centrality."""
    i = random_involution(box, rng)
    return not all(box.commutes(i, g) for g in box.generators), i


def torus_element(
    box: BlackBoxGroup,
    u: ElementString,
    p: int,
    torus_order: int,
    rng: random.Random,
) -> ElementString:
    """A torus element of exact order torus_order normalizing <u>'s unipotent.

    Random elements land in the Borel with probability about 1/q; their
    p'-parts are torus elements, full order with density phi(D)/D.
    """
    for _ in range(_TORUS_SAMPLES):
        b = box.sample(rng)
        if not in_unipotent_of(box, u, p, box.conj(u, b)):
            continue
        o = element_order(box, b)
        h = box.power(b, p_part(o, p))
        if o // p_part(o, p) != torus_order:
            continue
        if not in_unipotent_of(box, u, p, box.conj(u, h)):
            raise ContractViolation("torus candidate does not normalize the unipotent subgroup")
        return h
    raise MonteCarloFailure("torus element", f"no Borel element of torus order {torus_order}")


def weyl_element(
    box: BlackBoxGroup,
    u: ElementString,
    h: ElementString,
    torus_order: int,
    is_psl: bool,
    rng: random.Random,
) -> ElementString:
    """A Weyl element matched to u, inverting h.

    A random conjugate v0 of u that does not commute with u but commutes
    with its h-conjugate is an opposite unipotent. The word
    u * v0^(h^j) * u is a Weyl element exactly when the hidden parameters
    multiply to -1, which happens for at most one torus translate. One
    test finds it without seeing any parameter: the word's square is the
    central element, h^(torus_order/2) in SL2 and 1 in PSL2. The word is
    never 1, for then vj = u^-2 would lie in U, which h normalizes and v0
    avoids. Each candidate covers the matched parameter with probability
    1/2.
    """
    central = box.identity if is_psl else box.power(h, torus_order // 2)
    h_inv = box.inv(h)
    sweeps = 0
    for _ in range(_WEYL_SAMPLES):
        if sweeps >= _WEYL_SWEEPS:
            break
        v0 = box.conj(u, box.sample(rng))
        if box.commutes(v0, u) or not box.commutes(box.conj(v0, h, h_inv), v0):
            continue
        sweeps += 1
        vj = v0
        for j in range(torus_order):
            if j:
                vj = box.conj(vj, h, h_inv)
            m = box.mul(box.mul(u, vj), u)
            if not box.compare(box.mul(m, m), central):
                continue
            if not box.compare(m, box.mul(box.mul(u, box.conj(u, m)), u)):
                raise ContractViolation("Weyl candidate fails the standard-triple identity")
            if not box.compare(box.conj(h, m), h_inv):
                raise ContractViolation("Weyl candidate does not invert the torus")
            return m
    raise MonteCarloFailure("weyl element", "no opposite unipotent produced a zero-trace word")


def find_standard_generators(
    box: BlackBoxGroup, p: int, k: int, rng: random.Random, rec: StageRecorder
) -> StandardFrame:
    """The frame (u, h, weyl), one recorded stage per step."""
    if p == 2:
        raise InputError("this pipeline wants odd characteristic")
    check_rng(rng)
    q = check_params(p, k)
    check_exponent(box, p, q)
    with rec.stage("unipotent"):
        u = unipotent_element(box, p, rng)
    with rec.stage("classify"):
        is_psl, _ = classify_center(box, rng)
        torus_order = (q - 1) // (2 if is_psl else 1)
    with rec.stage("torus"):
        h = torus_element(box, u, p, torus_order, rng)
    with rec.stage("weyl"):
        weyl = weyl_element(box, u, h, torus_order, is_psl, rng)
    return StandardFrame(u=u, h=h, weyl=weyl, is_psl=is_psl, torus_order=torus_order)


class SteinbergMorphism:
    """Explicit morphism from 2x2 matrices over the recovered field into the box.

    The images are Bruhat words in the frame consisting of the field
    carrier (unipotent images, mapped into the box by ``field.to_box``),
    the matched Weyl element, and torus words derived from both. The
    Bruhat bookkeeping runs in the explicit presentation and only the
    final entries get lifted, each once: the unipotent u(t) is kept
    per explicit int t, which keeps carrier arithmetic (expensive on a
    black box field) off the per-matrix path. Images are never kept, so
    each one is a fresh string. An image costs 6 box muls.
    """

    def __init__(self, box, field, weyl, explicit):
        self.box = box
        self.field = field
        self.weyl = weyl
        self.weyl_inv = box.inv(weyl)
        self.explicit = explicit
        self._unipotents: dict[int, ElementString] = {}
        # n(1) = u(1) v(-1) u(1) from the carriers themselves, so the check
        # also exercises the recovered field's own inversion
        a = field.to_box(field.one)
        mid = box.conj(field.to_box(field.inv(field.one)), weyl, self.weyl_inv)
        if not box.compare(box.mul(box.mul(a, mid), a), weyl):
            raise ContractViolation("Weyl element is not matched to the field unity")

    def _u_int(self, t: int) -> ElementString:
        u = self._unipotents.get(t)
        if u is None:
            u = self._unipotents[t] = self.field.to_box(self.field.lift_int(t))
        return u

    def _n_int(self, t: int) -> ElementString:
        a = self._u_int(t)
        mid = self.box.conj(self._u_int(self.explicit.inv(t)), self.weyl, self.weyl_inv)
        return self.box.mul(self.box.mul(a, mid), a)

    def _h_int(self, t: int) -> ElementString:
        return self.box.mul(self._n_int(t), self.weyl_inv)

    def __call__(self, mat) -> ElementString:
        """Apply to a 2x2 matrix with entries in self.explicit (ints)."""
        E = self.explicit
        (a, b), (c, d) = check_matrix(E, mat)
        if E.sub(E.mul(a, d), E.mul(b, c)) != E.one:
            raise InputError("matrix does not have determinant 1 over the recovered field")
        if c != 0:
            ci = E.inv(c)
            word = self.box.mul(self._u_int(E.mul(a, ci)), self._n_int(E.neg(ci)))
            return self.box.mul(word, self._u_int(E.mul(d, ci)))
        return self.box.mul(self._h_int(a), self._u_int(E.mul(E.inv(a), b)))

    def homomorphism_passes(self, trials: int, rng: random.Random) -> int:
        """How many of ``trials`` random pairs (m1, m2) of ``oracle.random_sl2``
        matrices have phi(m1 m2) = phi(m1) phi(m2) in the box."""
        box, E, passes = self.box, self.explicit, 0
        for _ in range(trials):
            m1, m2 = oracle.random_sl2(E, rng), oracle.random_sl2(E, rng)
            passes += box.compare(self(E.matmul(m1, m2)), box.mul(self(m1), self(m2)))
        return passes


def check_trials(trials: int) -> None:
    if type(trials) is not int or trials < 1:  # no bool, float or str
        raise InputError(f"need at least one verification trial as an int, got {trials!r}")


def check_rng(rng: random.Random) -> None:
    if not isinstance(rng, random.Random):
        raise InputError(f"rng must be a random.Random, not {rng!r}")


def check_params(p: int, k: int) -> int:
    """q = p^k if (P)SL2(q) is in scope: p prime, k >= 1 (k >= 2 at p = 2),
    q at most 2^20, and q = 1 mod 4 at odd p; InputError otherwise."""
    q = check_field(p, k)
    if p == 2 and k < 2:
        raise InputError("the degree must be at least 2: SL2(2) is solvable and out of scope")
    if p > 2 and q % 4 != 1:
        raise InputError("q must be 1 mod 4")
    return q


def check_exponent(box: BlackBoxGroup, p: int, q: int) -> None:
    """ContractViolation unless the element-order lcm L of the declared group
    divides ``box.exponent``: L = p(q^2 - 1)/4 for odd q, the lcm of
    PSL2(q), which divides that of SL2(q), and 2(q^2 - 1) for q = 2^n. A box
    whose exponent L does not divide breaks its contract or is another
    group, so no sample is drawn. The gate is one-sided: any multiple of L
    passes."""
    lcm = 2 * (q * q - 1) if p == 2 else p * (q * q - 1) // 4
    if box.exponent % lcm:
        raise ContractViolation(
            f"box exponent {box.exponent} is not a multiple of {lcm}, the element-order "
            f"lcm of the declared group over GF({q})"
        )


def finish_recognition(
    box: BlackBoxGroup,
    rec: StageRecorder,
    rng: random.Random,
    field,
    frame,
    trials: int,
    checks: dict,
) -> RecognitionResult:
    """The tail both characteristics share, from a recovered field to the result.

    Reads the field's structure constants and proves them F_q by their
    isomorphism onto the standard presentation (``extras["iso_matrix"]``;
    a presentation that is not F_q raises), builds the Steinberg morphism
    on ``frame.weyl``, and verifies it as a homomorphism on ``trials``
    random pairs. The verification record holds those pair counts, and
    ``checks`` joins it.
    """
    with rec.stage("structure-constants"):
        explicit = field.to_explicit()
        iso_matrix = explicit.validate()

    with rec.stage("steinberg"):
        morphism = SteinbergMorphism(box, field, frame.weyl, explicit)

    with rec.stage("verify"):
        passes = morphism.homomorphism_passes(trials, rng)
        verification = {
            "phi_homomorphism_checks": {"trials": trials, "passes": passes},
            **checks,
        }

    return RecognitionResult(
        frame=frame,
        field=field,
        explicit=explicit,
        morphism=morphism,
        stages=rec.stages,
        verification=verification,
        extras={"iso_matrix": iso_matrix},
    )


def recover_psl2(
    box: BlackBoxGroup,
    p: int,
    k: int,
    rng: random.Random,
    trials: int = 200,
) -> RecognitionResult:
    """Full recognition run; see the module docstring for the stages."""
    check_trials(trials)
    rec = StageRecorder(box)
    frame = find_standard_generators(box, p, k, rng, rec)
    torus_order = frame.torus_order

    with rec.stage("frobenius"):
        fro = frobenius_on_sl2(box, frame.u, frame.h, frame.weyl, p, k, rng)

    with rec.stage("field"):
        field = build_field_on_U(fro, torus_order)

    checks = {"is_center_quotient": frame.is_psl, "torus_order": torus_order}
    return finish_recognition(box, rec, rng, field, frame, trials, checks)
