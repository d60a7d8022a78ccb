"""Recognition of (P)SL2(q) in odd characteristic."""
import random

import pytest

from bbsl2 import oracle
from bbsl2.backend import make_matrix_blackbox
from bbsl2.bbfield import BlackBoxField
from bbsl2.blackbox import element_order
from bbsl2.errors import ContractViolation, InputError, MonteCarloFailure
from bbsl2.field import ExplicitField
from bbsl2.frobenius import frobenius_on_sl2
from bbsl2.stages import StageRecorder
from bbsl2.sl2odd import (
    SteinbergMorphism,
    classify_center,
    find_standard_generators,
    in_unipotent_of,
    recover_psl2,
    torus_element,
    unipotent_element,
    weyl_element,
)

import brute


def test_unipotent_element_has_order_p(rng):
    for p, k, cq in [(13, 1, False), (13, 1, True), (3, 2, False)]:
        box = make_matrix_blackbox(p, k, center_quotient=cq, opaque=True, seed=3)
        u = unipotent_element(box, p, rng)
        assert element_order(box, u) == p


def test_in_unipotent_of(sl2_13, rng):
    be = sl2_13.backend
    F = be.field
    u = be.encode(brute.u_mat(F, F.one))
    for t in range(1, 13):
        assert in_unipotent_of(sl2_13, u, 13, be.encode(brute.u_mat(F, t)))
    assert in_unipotent_of(sl2_13, u, 13, sl2_13.identity)
    assert not in_unipotent_of(sl2_13, u, 13, be.encode(brute.v_mat(F, F.one)))
    assert not in_unipotent_of(sl2_13, u, 13, be.encode(brute.h_mat(F, 2)))


def test_classify_center(rng):
    box = make_matrix_blackbox(13, 1, opaque=True, seed=3)
    is_psl, z = classify_center(box, rng)
    assert not is_psl
    be = box.backend
    neg = be.field.neg(be.field.one)
    assert be.decode(z) == ((neg, 0), (0, neg))  # the central involution is -1
    pbox = make_matrix_blackbox(13, 1, center_quotient=True, opaque=True, seed=3)
    is_psl, z = classify_center(pbox, rng)
    assert is_psl
    assert any(not pbox.commutes(z, g) for g in pbox.generators)


@pytest.mark.parametrize(
    "p,k,cq,order", [(13, 1, False, 12), (13, 1, True, 6), (3, 2, False, 8)]
)
def test_torus_element_order(p, k, cq, order, rng):
    box = make_matrix_blackbox(p, k, center_quotient=cq, opaque=True, seed=5)
    u = unipotent_element(box, p, rng)
    h = torus_element(box, u, p, order, rng)
    assert element_order(box, h) == order
    assert in_unipotent_of(box, u, p, box.conj(u, h))


@pytest.mark.parametrize(
    "p,k,cq",
    [(13, 1, False), (13, 1, True), (5, 1, True), (3, 2, True), (3, 2, False)],
    ids=["SL2(13)", "PSL2(13)", "PSL2(5)", "PSL2(9)", "SL2(9)"],
)
def test_weyl_element_inverts_torus(p, k, cq, rng):
    # PSL2(5) and PSL2(9) have the smallest torus orders, 2 and 4
    box = make_matrix_blackbox(p, k, center_quotient=cq, opaque=True, seed=7)
    u = unipotent_element(box, p, rng)
    torus_order = (p**k - 1) // (2 if cq else 1)
    h = torus_element(box, u, p, torus_order, rng)
    w = weyl_element(box, u, h, torus_order, cq, rng)
    assert box.compare(box.conj(h, w), box.inv(h))
    # w swaps the two opposite unipotent subgroups; its square is central
    assert box.is_identity(box.mul(box.power(w, 2), box.power(w, 2)))
    assert element_order(box, w) == (2 if cq else 4)  # in SL2, w^2 = -1


def test_find_standard_generators_frame(rng):
    box = make_matrix_blackbox(3, 2, opaque=True, seed=8)
    rec = StageRecorder(box)
    frame = find_standard_generators(box, 3, 2, rng, rec)
    assert not frame.is_psl and frame.torus_order == 8
    assert [s.name for s in rec.stages] == ["unipotent", "classify", "torus", "weyl"]
    assert sum(s.samples_used for s in rec.stages) == box.stats["samples"]
    box = make_matrix_blackbox(13, 1, center_quotient=True, opaque=True, seed=8)
    frame = find_standard_generators(box, 13, 1, rng, StageRecorder(box))
    assert frame.is_psl and frame.torus_order == 6


@pytest.mark.parametrize("p,k", [(7, 1), (3, 3), (11, 1)])
def test_rejects_q_equal_3_mod_4(p, k, rng):
    box = make_matrix_blackbox(p, k, opaque=True, seed=1)
    with pytest.raises(InputError):
        recover_psl2(box, p, k, rng)


@pytest.mark.parametrize("p", [21, 1, 0])
def test_rejects_composite_characteristic(p, rng):
    # 21 = 1 mod 4, so only a primality check stops the frame search; 1 and 0
    # are named no prime, not an even characteristic
    box = make_matrix_blackbox(13, 1, opaque=True, seed=1)
    with pytest.raises(InputError, match="not a prime"):
        recover_psl2(box, p, 1, rng)
    assert box.stats["samples"] == 0


def test_rejects_even_characteristic(rng):
    box = make_matrix_blackbox(2, 3, opaque=True, seed=1)
    with pytest.raises(InputError):
        recover_psl2(box, 2, 3, rng)


@pytest.mark.parametrize("trials", [0, -5])
def test_recover_psl2_rejects_trials_below_one(trials, sl2_13, rng):
    with pytest.raises(InputError):
        recover_psl2(sl2_13, 13, 1, rng, trials=trials)
    assert sl2_13.stats["samples"] == 0  # rejected before any search


def _standard_field(box, n):
    """The field on the Frobenius box (k = 1) of the standard u(1), h(tau), n."""
    be = box.backend
    F = be.field
    u = be.encode(brute.u_mat(F, F.one))
    h = be.encode(brute.h_mat(F, F.primitive_element()))
    fro = frobenius_on_sl2(box, u, h, n, F.p, 1, random.Random(0))
    return BlackBoxField(fro, fro.identity)


def _standard_morphism(p, k, cq=False):
    """Morphism built on the standard frame of a transparent backend."""
    box = make_matrix_blackbox(p, k, center_quotient=cq, opaque=False, seed=0)
    be = box.backend
    assert k == 1, "helper only supports prime fields"
    n = be.encode(brute.n_mat(be.field, be.field.one))
    field = _standard_field(box, n)
    return box, be, SteinbergMorphism(box, field, n, field.to_explicit())


def test_steinberg_morphism_is_identity_on_standard_frame(rng):
    # with the standard frame the reconstruction must reproduce each matrix
    box, be, phi = _standard_morphism(13, 1)
    F = be.field
    for _ in range(200):
        m = oracle.random_sl2(F, rng)
        assert be.decode(phi(m)) == m


def test_steinberg_morphism_psl_standard_frame(rng):
    box, be, phi = _standard_morphism(13, 1, cq=True)
    F = be.field
    canon = brute.psl_canon(F)
    for _ in range(100):
        m = oracle.random_sl2(F, rng)
        assert canon(be.decode(phi(m))) == canon(m)


def test_steinberg_images_match_standard_matrices():
    box, be, phi = _standard_morphism(13, 1)
    F = be.field
    for t in range(1, 13):
        assert be.decode(phi(brute.u_mat(F, t))) == brute.u_mat(F, t)
        assert be.decode(phi(brute.h_mat(F, t))) == brute.h_mat(F, t)
        assert be.decode(phi(brute.n_mat(F, t))) == brute.n_mat(F, t)
        assert be.decode(phi(brute.v_mat(F, t))) == brute.v_mat(F, t)


def test_steinberg_rejects_non_unit_determinant():
    # an entry outside [0, q) is rejected too: it would wrap as a list
    # index, overflow a table, or reduce mod p to a valid entry
    # and so is an entry that is no int, which would index a table as a float
    box, be, phi = _standard_morphism(13, 1)
    bad = [((2, 0), (0, 2)), ((1, 13), (0, 1)), ((14, 0), (0, 14)), ((1, -1), (0, 1))]
    # and a shape that is not 2x2, which unpacking would reject with a Python error
    bad += [[[1, 0, 0], [0, 1]], 5, [[1, 0]]]
    for m in bad + [((1, 0.5), (0, 1)), ((1.0, 1), (0, 1)), ((1, True), (0, 1))]:
        with pytest.raises(InputError):
            phi(m)
    res = recover_psl2(make_matrix_blackbox(3, 2, seed=1000), 3, 2, random.Random(0), trials=10)
    one = res.explicit.one
    for m in [((one, -1), (0, one)), ((one, 9), (0, one))]:
        with pytest.raises(InputError):
            res.morphism(m)


def test_steinberg_build_check_rejects_mismatched_weyl():
    box = make_matrix_blackbox(13, 1, opaque=False, seed=0)
    be = box.backend
    F = be.field
    field = _standard_field(box, be.encode(brute.n_mat(F, F.one)))
    wrong = be.encode(brute.n_mat(F, 2))  # n(2) is not matched to u(1)
    with pytest.raises(ContractViolation):
        SteinbergMorphism(box, field, wrong, field.to_explicit())


def test_recover_psl2_image_generates_whole_group(rng):
    # surjectivity at desk scale: images of a generating set generate
    box = make_matrix_blackbox(13, 1, opaque=False, seed=6)
    be = box.backend
    F = be.field
    res = recover_psl2(box, 13, 1, rng, trials=10)
    phi = res.morphism
    imgs = [be.decode(phi(brute.u_mat(F, 1))), be.decode(phi(brute.n_mat(F, 1))),
            be.decode(phi(brute.h_mat(F, 2)))]
    assert len(brute.closure(F, imgs)) == 2184


def test_recover_psl2_full_run_sl(rng):
    box = make_matrix_blackbox(13, 1, opaque=True, seed=31)
    res = recover_psl2(box, 13, 1, rng, trials=60)
    v = res.verification
    assert v["phi_homomorphism_checks"] == {"trials": 60, "passes": 60}
    assert v["gram_det_nonzero"] and v["ring_iso_to_standard"]
    assert not v["is_center_quotient"]
    assert box.compare(res.field.to_box(res.field.one), res.frame.u)
    assert (res.explicit.p, res.explicit.k, res.explicit.order) == (13, 1, 13)
    assert [s.ok for s in res.stages] == [True] * len(res.stages)
    assert res.explicit.to_dict() == ExplicitField(13, 1, res.explicit.c).to_dict()


def test_recover_psl2_full_run_psl(rng):
    box = make_matrix_blackbox(13, 1, center_quotient=True, opaque=True, seed=31)
    res = recover_psl2(box, 13, 1, rng, trials=60)
    assert res.verification["is_center_quotient"]
    assert res.verification["phi_homomorphism_checks"]["passes"] == 60
    assert res.frame.torus_order == 6


def test_recover_psl2_q9_without_ppd(rng):
    # q = 9 has no primitive prime divisor; the torus square root is used
    box = make_matrix_blackbox(3, 2, opaque=True, seed=31)
    res = recover_psl2(box, 3, 2, rng, trials=60)
    assert res.verification["phi_homomorphism_checks"]["passes"] == 60
    assert res.explicit.order == 9


def test_recover_reports_monte_carlo_failure_with_stage():
    # the trivial group cannot contain a unipotent element
    box = make_matrix_blackbox(13, 1, opaque=True, seed=0)
    trivial = box.backend.blackbox([((box.backend.field.one, 0), (0, box.backend.field.one))])
    with pytest.raises(MonteCarloFailure) as err:
        recover_psl2(trivial, 13, 1, random.Random(0))
    assert "unipotent" in err.value.stage
    assert err.value.stages[-1].name == "unipotent"
    assert not err.value.stages[-1].ok


def test_morphism_images_through_iso_match_oracle(rng):
    # pull the recovered presentation back to the standard field and compare
    # decoded images entrywise: phi must be conjugation-equivalent to the
    # standard embedding, so traces are preserved
    box = make_matrix_blackbox(13, 1, opaque=False, seed=44)
    be = box.backend
    F = be.field
    res = recover_psl2(box, 13, 1, rng, trials=10)
    phi = res.morphism
    for _ in range(60):
        m = oracle.random_sl2(res.explicit, rng)
        got = be.decode(phi(m))
        # determinant and trace are conjugation invariants; map trace through
        # the recovered-to-standard isomorphism
        iso = res.extras["iso_matrix"]
        tr = res.explicit.add(m[0][0], m[1][1])
        from bbsl2 import modp

        want_tr = F.element(modp.vec_mat(res.explicit.coords(tr), iso, 13))
        assert F.add(got[0][0], got[1][1]) == want_tr
