"""Acceptance gate: every criterion prints a PASS/FAIL line in the summary.

Tolerances are pinned here and nowhere else: success-rate floors,
trial counts, and timing ceilings appear as literals in each test.
"""
import json
import math
import random
import time

import pytest

from bbsl2 import modp
from bbsl2.arith import factorint
from bbsl2.backend import MatrixBackend, make_matrix_blackbox
from bbsl2.bbfield import ppd_prime
from bbsl2.blackbox import element_order
from bbsl2.cli import main as cli_main
from bbsl2.errors import MonteCarloFailure
from bbsl2.field import ExplicitField, explicit_isomorphism
from bbsl2.frobenius import frobenius_on_sl2
from bbsl2.involutions import find_order3_inverted
from bbsl2.sl2char2 import dihedral_frame, enumerate_unipotent, involution_sample, recover_char2
from bbsl2.sl2odd import recover_psl2

import brute

from conftest import ACCEPTANCE_LINES
from counting import count_base_ops

_ODD_SIZES = [(3, 2), (13, 1), (29, 1), (3, 4), (13, 2)]  # q = 9, 13, 29, 81, 169
_RUNS_PER_SIZE = 20
_SUCCESS_FLOOR = 18
_VERIFY_TRIALS = 200
_RUN_TIME_CEILING_S = 300.0


def _report(num: int, desc: str, ok: bool, detail: str = "") -> bool:
    tail = f": {detail}" if detail else ""
    line = f"CRITERION {num} ({desc}): {'PASS' if ok else 'FAIL'}{tail}"
    ACCEPTANCE_LINES.append(line)
    print(line)
    return ok


def _iso_to_standard_checked(explicit: ExplicitField, pair_budget: int, rng) -> bool:
    standard = ExplicitField.polynomial_field(explicit.p, explicit.k)
    iso = explicit_isomorphism(explicit, standard)
    q = explicit.order
    if q * q <= pair_budget:
        pairs = ((a, b) for a in range(q) for b in range(q))
    else:
        pairs = ((rng.randrange(q), rng.randrange(q)) for _ in range(pair_budget))
    for a, b in pairs:
        if iso(explicit.mul(a, b)) != standard.mul(iso(a), iso(b)):
            return False
        if iso(explicit.add(a, b)) != standard.add(iso(a), iso(b)):
            return False
    return True


@pytest.fixture(scope="session")
def criterion1_runs():
    """20 seeded recognition runs per field size, SL and PSL alternating."""
    runs = []
    for p, k in _ODD_SIZES:
        q = p**k
        for seed in range(_RUNS_PER_SIZE):
            cq = seed % 2 == 1
            entry = {"q": q, "p": p, "k": k, "center_quotient": cq, "seed": seed}
            box = make_matrix_blackbox(
                p, k, center_quotient=cq, opaque=True, seed=1000 + seed
            )
            t0 = time.perf_counter()
            try:
                res = recover_psl2(box, p, k, random.Random(seed), trials=_VERIFY_TRIALS)
            except MonteCarloFailure as exc:
                entry.update(success=False, error=str(exc), elapsed=time.perf_counter() - t0)
            else:
                rng = random.Random(10_000 + seed)
                checks = res.verification["phi_homomorphism_checks"]
                entry.update(
                    success=checks == {"trials": _VERIFY_TRIALS, "passes": _VERIFY_TRIALS},
                    gram_ok=brute.gram_det(res.field) != 0,
                    iso_ok=_iso_to_standard_checked(
                        res.explicit, 500 if q > 81 else q * q, rng
                    ),
                    elapsed=time.perf_counter() - t0,
                )
            runs.append(entry)
    return runs


def test_criterion_1_odd_recognition_success_rate(criterion1_runs):
    ok = True
    details = []
    for p, k in _ODD_SIZES:
        q = p**k
        mine = [r for r in criterion1_runs if r["q"] == q]
        good = [r for r in mine if r.get("success") and r.get("iso_ok")]
        slow = [r for r in mine if r["elapsed"] > _RUN_TIME_CEILING_S]
        details.append(f"q={q}: {len(good)}/{len(mine)}")
        if len(good) < _SUCCESS_FLOOR or slow:
            ok = False
    assert _report(
        1,
        "recognize at odd p succeeds on 18/20 seeded runs per q with exact "
        "homomorphism checks and standard-field isomorphism",
        ok,
        ", ".join(details),
    )


def test_criterion_2_frobenius_on_gf81():
    box = make_matrix_blackbox(3, 4, opaque=True, seed=81)
    be = box.backend
    F = be.field
    u = be.encode(brute.u_mat(F, F.one))
    h = be.encode(brute.h_mat(F, F.primitive_element()))
    n = be.encode(brute.n_mat(F, F.one))
    rng = random.Random(81)
    fro = frobenius_on_sl2(box, u, h, n, 3, 4, rng)
    order_ok = mult_ok = 0
    for _ in range(100):
        x = y = fro.sample(rng)
        for _ in range(4):
            y = fro(y)
        if fro.compare(y, x):
            order_ok += 1
        a, b = fro.sample(rng), fro.sample(rng)
        if fro.compare(fro(fro.mul(a, b)), fro.mul(fro(a), fro(b))):
            mult_ok += 1
    gens_ok = (
        fro.compare(fro(fro.u_bar), fro.u_bar)
        and fro.compare(fro(fro.n_bar), fro.n_bar)
        and fro.compare(fro(fro.h_bar), fro.power(fro.h_bar, 3))
    )
    ok = order_ok == 100 and mult_ok == 100 and gens_ok
    assert _report(
        2,
        "Frobenius on SL2(81): phi^4 trivial, phi(h)=h^3, generators fixed, "
        "multiplicative on 100 pairs",
        ok,
        f"order {order_ok}/100, mult {mult_ok}/100, generator images {gens_ok}",
    )


def test_criterion_3_char2_recognition():
    ok = True
    details = []
    for n in (2, 3, 4, 8):
        box = make_matrix_blackbox(2, n, opaque=True, seed=n)
        res = recover_char2(box, n, random.Random(n), trials=_VERIFY_TRIALS)
        checks = res.verification["phi_homomorphism_checks"]
        mult_ok = checks == {"trials": _VERIFY_TRIALS, "passes": _VERIFY_TRIALS}
        f = res.field
        rng = random.Random(100 + n)
        axioms = 0
        for _ in range(200):
            a, b, c = (brute.random_element(f, rng) for _ in range(3))
            good = (
                f.eq(f.mul(a, b), f.mul(b, a))
                and f.eq(f.mul(a, f.mul(b, c)), f.mul(f.mul(a, b), c))
                and f.eq(f.mul(a, f.add(b, c)), f.add(f.mul(a, b), f.mul(a, c)))
                and f.is_zero(f.add(a, a))
                and (f.is_zero(a) or f.eq(f.mul(a, f.inv(a)), f.one))
            )
            axioms += good
        carrier_ok = True
        if n <= 4:
            # enumerate U through the lift: 2^n distinct markers, each read back
            lifts = [f.lift_int(j) for j in range(2**n)]
            markers = [m for _, m in lifts]
            carrier_ok = (
                all(f.read_int(a) == j for j, a in enumerate(lifts))
                and all(box.commutes(m, f.r) and box.is_identity(box.mul(m, m)) for m in markers)
                and all(
                    not box.compare(markers[i], markers[j])
                    for i in range(len(markers))
                    for j in range(i + 1, len(markers))
                )
            )
        details.append(f"n={n}: mult {checks['passes']}/200, axioms {axioms}/200")
        ok = ok and mult_ok and axioms == 200 and carrier_ok
    assert _report(
        3,
        "SL2(2^n) recognition for n in 2,3,4,8 with exact field axioms and "
        "full carrier enumeration",
        ok,
        "; ".join(details),
    )


def _canon_set(be, strings, canon):
    return {canon(be.decode(s)) for s in strings}


def test_criterion_4_subgroup_decoding_matches_enumeration():
    ok = True
    details = []
    for p, k, cq in [(5, 1, False), (3, 2, False), (13, 1, False), (13, 1, True)]:
        q = p**k
        box = make_matrix_blackbox(p, k, center_quotient=cq, opaque=False, seed=40)
        be = box.backend
        F = be.field
        canon = brute.psl_canon(F) if cq else (lambda m: m)
        group = brute.closure(F, be.standard_generators(), canon=canon)
        res = recover_psl2(box, p, k, random.Random(4), trials=10)
        f, frame = res.field, res.frame
        # field carriers live in the Frobenius tuple group: map them into the box first
        proj = res.field.to_box
        u_dec = be.decode(frame.u)
        # canonical representatives of unipotent classes have matrix order
        # p, or 2p when the center quotient picked the negated matrix
        unip_orders = (1, p, 2 * p) if cq else (1, p)
        # U: carrier of the recovered field
        u_set = _canon_set(be, (proj(f.lift_int(j)) for j in range(q)), canon)
        u_want = {
            m
            for m in brute.centralizer_set(F, group, u_dec, canon=canon)
            if brute.matrix_order_direct(F, m) in unip_orders
        }
        # V: the opposite unipotent subgroup, image of U under the Weyl element
        v_set = {
            canon(be.decode(box.conj(proj(f.lift_int(j)), frame.weyl)))
            for j in range(q)
        }
        v_want = {
            m
            for m in brute.centralizer_set(
                F, group, brute.conj_mat(F, u_dec, be.decode(frame.weyl)), canon=canon
            )
            if brute.matrix_order_direct(F, m) in unip_orders
        }
        # torus: centralizer of the sampled torus element
        t_set = _canon_set(
            be, (box.power(frame.h, i) for i in range(frame.torus_order)), canon
        )
        t_want = brute.centralizer_set(F, group, be.decode(frame.h), canon=canon)
        # torus normalizer: torus plus the Weyl coset
        n_set = t_set | {
            canon(be.decode(box.mul(frame.weyl, box.power(frame.h, i))))
            for i in range(frame.torus_order)
        }
        # h generates its centralizer, so N(T) = { m : h^m lies in T }
        h_dec = be.decode(frame.h)
        n_want = {m for m in group if canon(brute.conj_mat(F, h_dec, m)) in t_want}
        label = f"q={q}{'(psl)' if cq else ''}"
        good = u_set == u_want and v_set == v_want and t_set == t_want and n_set == n_want
        details.append(f"{label} {'ok' if good else 'MISMATCH'}")
        ok = ok and good
    for n in (2, 3):
        box = make_matrix_blackbox(2, n, opaque=False, seed=41)
        be = box.backend
        F = be.field
        group = brute.closure(F, be.standard_generators())
        rng = random.Random(4)
        r = involution_sample(box, rng)
        theta = find_order3_inverted(box, r, rng)
        frame = dihedral_frame(box, r, theta)
        elements, _ = enumerate_unipotent(box, r, rng, n)
        u_set = {be.decode(x) for x in elements}
        u_want = brute.centralizer_set(F, group, be.decode(r))
        v_set = {be.decode(box.conj(x, frame.weyl)) for x in elements}
        v_want = brute.centralizer_set(F, group, be.decode(frame.v1))
        span = brute.closure(F, [be.decode(r), be.decode(theta)])
        good = u_set == u_want and v_set == v_want and len(span) == 6
        details.append(f"n={n} {'ok' if good else 'MISMATCH'}")
        ok = ok and good
    assert _report(
        4,
        "decoded subgroups equal brute-force enumeration at desk scale",
        ok,
        "; ".join(details),
    )


def test_criterion_5_element_order_vs_direct_powering():
    ok = True
    details = []
    for p, k in [(13, 1), (3, 2)]:
        F = ExplicitField.polynomial_field(p, k)
        box = MatrixBackend(F, special=False, opaque=True, seed=50).blackbox()
        be = box.backend
        rng = random.Random(50)
        agree = 0
        for _ in range(1000):
            x = box.sample(rng)
            agree += element_order(box, x) == brute.matrix_order_direct(F, be.decode(x))
        details.append(f"GL2({p**k}): {agree}/1000")
        ok = ok and agree == 1000
    assert _report(5, "element_order agrees with direct powering", ok, ", ".join(details))


def test_criterion_6_ppd_exceptions_and_random_pairs():
    exceptions_ok = ppd_prime(2, 6) is None and all(
        ppd_prime(p, 2) is None for p in (3, 7, 31, 127)
    )
    rng = random.Random(6)
    primes = [p for p in range(2, 200) if all(p % d for d in range(2, p))]
    checked = 0
    random_ok = True
    while checked < 50:
        p = rng.choice(primes)
        n = rng.randint(1, 12)
        if p**n >= 10**9:
            continue
        if (p, n) in ((2, 1), (2, 6)) or (n == 2 and all(c == "1" for c in bin(p)[2:])):
            continue  # skip the exceptional pairs: no ppd exists there
        r = ppd_prime(p, n)
        if r is None:
            random_ok = False
            break
        # verify by trial division: r prime, divides p^n - 1, fresh order,
        # and maximal among qualifying primes
        divisors = factorint(p**n - 1)
        if any(r % d == 0 for d in range(2, int(math.isqrt(r)) + 1)):
            random_ok = False
            break
        if (p**n - 1) % r or any(
            (p**m - 1) % r == 0 for m in range(1, n)
        ):
            random_ok = False
            break
        qualifying = [
            s for s in divisors if all((p**m - 1) % s for m in range(1, n))
        ]
        if r != max(qualifying):
            random_ok = False
            break
        checked += 1
    ok = exceptions_ok and random_ok
    assert _report(
        6,
        "ppd exceptional pairs return none; 50 random pairs verified by trial division",
        ok,
        f"exceptions {'ok' if exceptions_ok else 'BAD'}, random pairs {checked}/50",
    )


def test_criterion_7_gram_determinant_always_invertible(criterion1_runs):
    reached = [r for r in criterion1_runs if "gram_ok" in r]
    bad = [r for r in reached if not r["gram_ok"]]
    ok = bool(reached) and not bad
    assert _report(
        7,
        "trace form determinant nonzero in 100% of criterion-1 runs",
        ok,
        f"{len(reached) - len(bad)}/{len(reached)} runs",
    )


def test_criterion_8_opaque_transparent_identical_statistics(tmp_path):
    # the statistics are the verification, the stage samples and the
    # complete base-box muls, invs and compares, wrapper calls included
    ok = True
    details = []
    for p, k in [(13, 1), (3, 4)]:
        stats = []
        for opaque in (True, False):
            box = make_matrix_blackbox(p, k, opaque=opaque, seed=8)
            ops = count_base_ops(box)
            res = recover_psl2(box, p, k, random.Random(8), trials=60)
            stats.append(
                (res.verification, [s.samples_used for s in res.stages], ops.snapshot())
            )
        same = stats[0] == stats[1]
        details.append(f"q={p**k}: {'identical' if same else 'DIFFER'}")
        ok = ok and same
    stats = []
    for opaque in (True, False):
        box = make_matrix_blackbox(2, 3, opaque=opaque, seed=8)
        ops = count_base_ops(box)
        res = recover_char2(box, 3, random.Random(8), trials=60)
        stats.append((res.verification, [s.samples_used for s in res.stages], ops.snapshot()))
    same = stats[0] == stats[1]
    details.append(f"n=3: {'identical' if same else 'DIFFER'}")
    ok = ok and same
    reports = []
    for flags, opaque in (([], True), (["--transparent"], False)):
        out = tmp_path / f"rep{opaque}.json"
        rc = cli_main(
            ["recognize", "--p", "13", "--k", "1", "--seed", "8",
             "--trials", "30", *flags, "--out", str(out)]
        )
        rep = json.loads(out.read_text())
        for s in rep["stages"]:
            s["elapsed_ms"] = 0.0
        assert rep["params"].pop("opaque") is opaque
        reports.append((rc, rep["verification"], rep["stages"]))
    cli_same = reports[0] == reports[1]
    details.append(f"cli: {'identical' if cli_same else 'DIFFER'}")
    ok = ok and cli_same
    assert _report(
        8,
        "same seed gives identical verification statistics opaque vs transparent",
        ok,
        "; ".join(details),
    )
