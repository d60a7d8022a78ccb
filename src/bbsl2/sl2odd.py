"""Constructive recognition of black box (P)SL2(q) in odd characteristic.

The pipeline: take p-power parts of random elements until one is a
nontrivial unipotent u; decide SL versus PSL from the centrality of a
random involution (in SL2 the unique involution is -1, in PSL2 every
involution is noncentral); find a torus element h of full order
normalizing the unipotent subgroup through u; sweep torus translates of
an opposite unipotent to pin the Weyl element matched to u; carry a
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
from .arith import coprime_part, is_prime, p_part
from .backend import mat_mul
from .bbfield import build_field_on_U, ppd_prime
from .blackbox import (
    BlackBoxGroup,
    ElementString,
    SubgroupBox,
    element_order,
)
from .errors import ContractViolation, InputError, MonteCarloFailure
from .field import ExplicitField, explicit_isomorphism
from .frobenius import frobenius_on_sl2
from .involutions import bray_centralizer, random_involution
from .stages import RecognitionResult, StageRecorder


@dataclass
class StandardFrame:
    """A unipotent, a full-order torus element, and the matched Weyl element."""

    u: ElementString
    h: ElementString
    weyl: ElementString
    is_psl: bool
    torus_order: int


def unipotent_element(
    box: BlackBoxGroup, p: int, rng: random.Random, budget: int = 6000
) -> ElementString:
    """A nontrivial element of order p, as a p'-power of a random element."""
    ep = coprime_part(box.exponent, p)
    for _ in range(budget):
        u = box.power(box.sample(rng), ep)
        if not box.is_identity(u):
            if not box.is_identity(box.power(u, p)):
                raise ContractViolation("p-part of a random element has order not dividing p")
            return u
    raise MonteCarloFailure("unipotent element", f"no element of order divisible by {p}")


def in_unipotent_of(box: BlackBoxGroup, u: ElementString, p: int, x: ElementString) -> bool:
    """Membership in the unipotent subgroup through u: x^p = 1 and [x, u] = 1."""
    return box.is_identity(box.power(x, p)) and box.commutes(x, u)


def classify_center(
    box: BlackBoxGroup, rng: random.Random, budget: int = 600
) -> tuple[bool, ElementString]:
    """(True, i) if the box is a center quotient, judged by involution centrality."""
    i = random_involution(box, rng, budget=budget)
    return not all(box.commutes(i, g) for g in box.generators), i


def torus_element(
    box: BlackBoxGroup,
    u: ElementString,
    p: int,
    torus_order: int,
    rng: random.Random,
    budget: int = 40000,
) -> ElementString:
    """A torus element of exact order torus_order normalizing <u>'s unipotent.

    Random elements land in the Borel with probability about 1/q; their
    p'-parts are torus elements, full order with density phi(D)/D.
    """
    for _ in range(budget):
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


def _weyl_sweep(
    box: BlackBoxGroup,
    u: ElementString,
    h: ElementString,
    v0: ElementString,
    torus_order: int,
    is_psl: bool,
    central_involution: ElementString | None,
) -> ElementString | None:
    """Scan u * v0^(h^j) * u for the zero-trace (matched Weyl) word.

    The word is a Weyl element exactly when the hidden parameters
    multiply to -1, which happens for at most one torus translate; the
    order test (square is the central involution, or trivial in the
    center quotient) detects it without seeing any parameter.
    """
    vj = v0
    for j in range(torus_order):
        if j:
            vj = box.conj(vj, h)
        m = box.mul(box.mul(u, vj), u)
        m2 = box.mul(m, m)
        if is_psl:
            hit = box.is_identity(m2) and not box.is_identity(m)
        else:
            hit = central_involution is not None and box.compare(m2, central_involution)
        if not hit:
            continue
        if not box.compare(m, box.mul(box.mul(u, box.conj(u, m)), u)):
            raise ContractViolation("Weyl candidate fails the standard-triple identity")
        if not box.compare(box.conj(h, m), box.inv(h)):
            raise ContractViolation("Weyl candidate does not invert the torus")
        return m
    return None


def weyl_disambiguate(
    box: BlackBoxGroup,
    u: ElementString,
    h: ElementString,
    n0: ElementString,
    torus_order: int,
    is_psl: bool,
    central_involution: ElementString | None = None,
) -> ElementString:
    """The matched Weyl element, from any torus-inverting candidate n0.

    n0 itself is a Weyl element for some parameter; the sweep over torus
    translates retunes it to the parameter matched to u. For candidates
    of this shape the sweep always covers the matched value.
    """
    v0 = box.conj(u, n0)
    if box.commutes(v0, u):
        raise InputError("candidate does not move the unipotent subgroup off itself")
    m = _weyl_sweep(box, u, h, v0, torus_order, is_psl, central_involution)
    if m is None:
        raise MonteCarloFailure("weyl disambiguation", "torus sweep found no zero-trace word")
    return m


def weyl_element(
    box: BlackBoxGroup,
    u: ElementString,
    h: ElementString,
    torus_order: int,
    is_psl: bool,
    rng: random.Random,
    sample_budget: int = 40000,
    sweep_budget: int = 24,
) -> ElementString:
    """A Weyl element matched to u, inverting h.

    In the center quotient with even torus order, reflections live in
    the centralizer of the torus involution and Bray's construction
    reaches them. Otherwise (in particular in SL2, whose torus
    involution is central and useless) random conjugates of u provide
    opposite unipotents, and the same sweep applies; each candidate
    covers the matched parameter with probability 1/2.
    """
    central = box.power(h, torus_order // 2) if torus_order % 2 == 0 else None
    if is_psl and central is not None:
        for _ in range(6):
            gens = bray_centralizer(box, central, rng, count=24)
            csub = SubgroupBox(box, gens, rng, burn_in=60)
            for _ in range(300):
                z = csub.sample(rng)
                if box.is_identity(z) or not box.is_identity(box.mul(z, z)):
                    continue
                if not box.compare(box.conj(h, z), box.inv(h)):
                    continue
                try:
                    return weyl_disambiguate(box, u, h, z, torus_order, True, central)
                except (MonteCarloFailure, InputError):
                    continue
        raise MonteCarloFailure("weyl element", "no reflection found in the involution centralizer")

    sweeps = 0
    for _ in range(sample_budget):
        if sweeps >= sweep_budget:
            break
        v0 = box.conj(u, box.sample(rng))
        if box.commutes(v0, u):
            continue
        if not box.commutes(box.conj(v0, h), v0):
            continue
        sweeps += 1
        m = _weyl_sweep(box, u, h, v0, torus_order, is_psl, central)
        if m is not None:
            return m
    raise MonteCarloFailure("weyl element", "no opposite unipotent produced a zero-trace word")


def _check_odd_params(p: int, k: int) -> int:
    if p == 2 or p < 2:
        raise InputError("this pipeline wants odd characteristic")
    if not is_prime(p):
        raise InputError(f"p = {p} is not a prime")
    if k < 1:
        raise InputError("need k >= 1")
    q = p**k
    if q % 4 != 1:
        raise InputError("q must be 1 mod 4")
    return q


def find_standard_generators(
    box: BlackBoxGroup, p: int, k: int, rng: random.Random, rec: StageRecorder
) -> StandardFrame:
    """The frame (u, h, weyl), one recorded stage per step."""
    q = _check_odd_params(p, k)
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
    carrier (unipotent images), the matched Weyl element, and torus
    words derived from both. ``project`` maps field carriers to box
    strings; the identity when the carrier already lives in the box.
    The Bruhat bookkeeping runs in the explicit presentation and only
    the final entries get lifted, which keeps carrier arithmetic
    (expensive on a black box field) off the per-matrix path.
    """

    def __init__(self, box, field, weyl, project=None, explicit=None):
        self.box = box
        self.field = field
        self.weyl = weyl
        self.project = project if project is not None else (lambda s: s)
        self.explicit = explicit if explicit is not None else field.to_explicit()
        # n(1) = u(1) v(-1) u(1) from the carriers themselves, so the check
        # also exercises the recovered field's own inversion
        a = self.project(field.one)
        mid = box.conj(self.project(field.inv(field.one)), weyl)
        if not box.compare(box.mul(box.mul(a, mid), a), weyl):
            raise ContractViolation("Weyl element is not matched to the field unity")

    def _u_int(self, t: int) -> ElementString:
        return self.project(self.field.lift_int(t))

    def _n_int(self, t: int) -> ElementString:
        E = self.explicit
        a = self._u_int(t)
        mid = self.box.conj(self._u_int(E.inv(t)), self.weyl)
        return self.box.mul(self.box.mul(a, mid), a)

    def _h_int(self, t: int) -> ElementString:
        return self.box.mul(self._n_int(t), self.box.inv(self.weyl))

    def __call__(self, mat) -> ElementString:
        """Apply to a 2x2 matrix with entries in self.explicit (ints)."""
        E = self.explicit
        a, b = mat[0]
        c, d = mat[1]
        if E.sub(E.mul(a, d), E.mul(b, c)) != E.one:
            raise InputError("matrix does not have determinant 1 over the recovered field")
        if c != 0:
            ci = E.inv(c)
            word = self.box.mul(self._u_int(E.mul(a, ci)), self._n_int(E.neg(ci)))
            return self.box.mul(word, self._u_int(E.mul(d, ci)))
        return self.box.mul(self._h_int(a), self._u_int(E.mul(E.inv(a), b)))


def finish_recognition(
    box: BlackBoxGroup,
    rec: StageRecorder,
    rng: random.Random,
    field,
    frame,
    project,
    trials: int,
    checks: dict,
    frobenius=None,
) -> RecognitionResult:
    """The tail both characteristics share, from a recovered field to the result.

    Reads the field's structure constants and matches them to the
    standard presentation, builds the Steinberg morphism on
    ``frame.weyl``, and verifies it as a homomorphism on ``trials``
    random pairs; ``checks`` joins the verification record.
    """
    with rec.stage("structure-constants"):
        explicit = field.to_explicit()
        explicit.validate(random.Random(rng.getrandbits(32)))
        standard = ExplicitField.polynomial_field(field.p, field.k)
        iso = explicit_isomorphism(explicit, standard, rng)

    with rec.stage("steinberg"):
        morphism = SteinbergMorphism(box, field, frame.weyl, project=project, explicit=explicit)

    with rec.stage("verify"):
        passes = 0
        for _ in range(trials):
            m1 = oracle.random_sl2(explicit, rng)
            m2 = oracle.random_sl2(explicit, rng)
            lhs = morphism(mat_mul(explicit, m1, m2))
            if box.compare(lhs, box.mul(morphism(m1), morphism(m2))):
                passes += 1
        verification = {
            "phi_homomorphism_checks": {"trials": trials, "passes": passes},
            "ring_iso_to_standard": True,
            **checks,
        }

    return RecognitionResult(
        params={"p": field.p, "k": field.k, "q": explicit.order},
        frame=frame,
        field=field,
        explicit=explicit,
        morphism=morphism,
        stages=rec.stages,
        verification=verification,
        frobenius=frobenius,
        structure=explicit.c,
        extras={"iso_matrix": iso.matrix},
    )


def recover_psl2(
    box: BlackBoxGroup,
    p: int,
    k: int,
    rng: random.Random,
    trials: int = 200,
) -> RecognitionResult:
    """Full recognition run; see the module docstring for the stages."""
    rec = StageRecorder(box)
    frame = find_standard_generators(box, p, k, rng, rec)
    torus_order = frame.torus_order

    with rec.stage("frobenius"):
        fro = frobenius_on_sl2(box, frame.u, frame.h, frame.weyl, p, k, rng)

    with rec.stage("field"):
        h_tilde = None
        sqrt_override = None
        if k >= 2:
            r = ppd_prime(p, k)
            if r is not None:
                rp = p_part(torus_order, r)
                if rp == 1:
                    raise ContractViolation("full-order torus misses the primitive prime part")
                h_tilde = fro.box.power(fro.h_bar, torus_order // rp)
            else:
                # no primitive prime divisor (e.g. q = 9): the torus
                # element itself is a working square root of its square
                sqrt_override = fro.h_bar
        field = build_field_on_U(fro.box, fro.u_bar, h_tilde, fro, p, k, sqrt_override)

    checks = {
        "gram_det_nonzero": field.gram_det != 0,
        "is_center_quotient": frame.is_psl,
        "torus_order": torus_order,
    }
    return finish_recognition(
        box, rec, rng, field, frame, fro.project, trials, checks, frobenius=fro
    )
