"""Structure-constant field presentations and isomorphisms between them."""
import collections
import itertools
import json
import random
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bbsl2 import make_matrix_blackbox, modp, recognize
from bbsl2.errors import ContractViolation, InputError
from bbsl2.field import ExplicitField, explicit_isomorphism, find_root
from bbsl2.frobenius import frobenius_on_sl2

from brute import digit_add, frobenius, scrambled, trace

_SIZES = [(2, 1), (2, 2), (2, 4), (3, 1), (3, 2), (5, 1), (13, 1), (13, 2)]


@pytest.fixture(scope="module", params=_SIZES, ids=lambda s: f"q={s[0]**s[1]}")
def F(request):
    p, k = request.param
    return ExplicitField.polynomial_field(p, k)


def test_validate_and_unity(F):
    # on the standard presentation validate is the identity, so check a scrambled copy
    G = scrambled(F, seed=5)
    iso = G.validate()
    assert iso.src is G and iso.dst is F and modp.mat_det(iso.matrix, F.p) != 0
    assert F.one == 1  # basis vector 0 is the constant polynomial 1
    assert F.mul(F.one, F.one) == F.one
    assert F.scalar(1) == F.one
    assert F.scalar(F.p) == 0


def test_coords_element_roundtrip(F):
    for a in F.elements():
        assert F.element(F.coords(a)) == a


@given(data=st.data())
@settings(max_examples=60, deadline=None)
def test_field_axioms(F, data):
    a = data.draw(st.integers(min_value=0, max_value=F.order - 1))
    b = data.draw(st.integers(min_value=0, max_value=F.order - 1))
    c = data.draw(st.integers(min_value=0, max_value=F.order - 1))
    assert F.add(a, b) == F.add(b, a)
    assert F.mul(a, b) == F.mul(b, a)
    assert F.mul(a, F.mul(b, c)) == F.mul(F.mul(a, b), c)
    assert F.mul(a, F.add(b, c)) == F.add(F.mul(a, b), F.mul(a, c))
    assert F.add(a, F.neg(a)) == 0
    assert F.sub(a, b) == F.add(a, F.neg(b))
    if a:
        assert F.mul(a, F.inv(a)) == F.one


def test_frobenius_is_field_automorphism(F):
    for a in F.elements():
        for b in F.elements():
            if F.order > 32:
                break
            assert frobenius(F, F.add(a, b)) == F.add(frobenius(F, a), frobenius(F, b))
            assert frobenius(F, F.mul(a, b)) == F.mul(frobenius(F, a), frobenius(F, b))
    x = F.order - 1
    for _ in range(F.k):
        x = frobenius(F, x)
    assert x == F.order - 1 or F.k == 1  # phi^k is the identity map
    y = 3 % F.order
    z = y
    for _ in range(F.k):
        z = frobenius(F, z)
    assert z == y


def test_trace_values(F):
    # the trace is F_p-linear and onto; fixed points of phi have trace k*a
    p, k = F.p, F.k
    seen = set()
    for a in F.elements():
        t = trace(F, a)
        assert 0 <= t < p
        seen.add(t)
        if F.order > 256:
            break
    if F.order <= 256:
        assert seen == set(range(p))
    assert trace(F, F.one) == k % p


def test_primitive_element_order(F):
    g = F.primitive_element()
    assert len({F.pow(g, i) for i in range(F.order - 1)}) == F.order - 1


def test_minimal_polynomial_of_power_basis_generator(F):
    if F.k == 1:
        assert F.minimal_polynomial(F.scalar(1)) == (F.p - 1, 1)
        return
    # integer p has coordinates (0, 1, 0, ...): the polynomial x itself
    assert F.minimal_polynomial(F.p) == modp.smallest_irreducible(F.p, F.k)


def test_isomorphism_to_scrambled_presentation(F):
    G = scrambled(F, seed=17)
    G.validate()
    iso = explicit_isomorphism(F, G)
    # explicit_isomorphism self-checks; verify unity and a full pass here
    assert iso(F.one) == G.one
    for a in list(F.elements())[:64]:
        for b in (1, 2, F.order - 1):
            assert iso(F.mul(a, b % F.order)) == G.mul(iso(a), iso(b % F.order))
    assert modp.mat_det(iso.matrix, F.p) != 0


def test_isomorphism_same_presentation_is_identity(F):
    iso = explicit_isomorphism(F, F)
    assert iso.matrix == tuple(tuple(int(i == j) for j in range(F.k)) for i in range(F.k))
    for a in list(F.elements())[:50]:
        assert iso(a) == a


def test_json_roundtrip(F):
    G = ExplicitField.from_dict(json.loads(json.dumps(F.to_dict())))
    assert G.to_dict() == F.to_dict()


@pytest.mark.parametrize("p, k", [(2, 0), (5, 0), (3, -1)])
def test_standard_field_rejects_degree_below_one(p, k):
    with pytest.raises(InputError):
        ExplicitField.polynomial_field(p, k)


def test_box_above_2_20_elements_rejected_before_a_polynomial_search(monkeypatch):
    # GF(3^14): the irreducible search alone would run before the tables
    def no_search(p, k):
        raise AssertionError(f"searched for an irreducible of degree {k} over F_{p}")

    monkeypatch.setattr(modp, "smallest_irreducible", no_search)
    with pytest.raises(InputError):
        make_matrix_blackbox(3, 14)


def test_p_and_k_must_be_ints():
    # a float, str or bool p or k, or a c that is not a k*k*k nest, is rejected input
    box = make_matrix_blackbox(13, 1, seed=1)
    make_matrix_blackbox(3, 2)  # so a cache that took 2.0 for 2 would answer
    calls = [
        lambda: make_matrix_blackbox(3, 2.0),
        lambda: make_matrix_blackbox(3, True),
        lambda: recognize(box, "13", 1, random.Random(0)),
        lambda: recognize(box, 13, 1.0, random.Random(0)),
        lambda: recognize(box, 2, "4", random.Random(0)),  # p = 2 compares k with 2
        lambda: frobenius_on_sl2(box, *[box.identity] * 3, 13, "1", random.Random(0)),
        lambda: ExplicitField(3, 2, 5),
        lambda: ExplicitField(3, 1, None),
        lambda: ExplicitField(3, 2, ((1, 0), (0, 1))),
    ]
    for call in calls:
        with pytest.raises(InputError):
            call()


def test_isomorphism_rejects_mismatched_orders():
    with pytest.raises(InputError):
        explicit_isomorphism(
            ExplicitField.polynomial_field(3, 2), ExplicitField.polynomial_field(5, 2)
        )


def test_degenerate_presentations_rejected():
    zero_c = (((0,),),)
    with pytest.raises(ContractViolation):
        _ = ExplicitField(5, 1, zero_c).one
    # zero divisors: c makes basis^2 = 0 with unity glued on a second axis
    bad = ExplicitField(3, 2, (((0, 0), (0, 0)), ((0, 0), (0, 1))))
    with pytest.raises(ContractViolation):
        bad.validate()
    # p, k and c hold ints only: int() would read 1.5 and True as c = 1
    for p, k, c in [(13, 1, [[[1.5]]]), (13, 1, [[[True]]]), (13.0, 1, [[[1]]]), (13, True, [[[1]]])]:
        with pytest.raises(InputError):
            ExplicitField(p, k, c)


def test_minimal_polynomial_is_irreducible_and_annihilates(F):
    for a in F.elements():
        f = F.minimal_polynomial(a)
        assert f[-1] == 1 and modp.is_irreducible(f, F.p), (a, f)
        assert F.k % (len(f) - 1) == 0
        acc = 0
        for c in reversed(f):
            acc = F.add(F.mul(acc, a), F.scalar(c))
        assert acc == 0, (a, f)


def test_isomorphism_maps_match_vec_mat(F):
    G = scrambled(F, seed=29)
    iso = explicit_isomorphism(F, G)
    for a in F.elements():
        assert iso(a) == G.element(modp.vec_mat(F.coords(a), iso.matrix, F.p))


# composite orders up to 2^8 in characteristics 2, 3, 5, 7 and 13: the table path
_KERNEL_SIZES = [(2, 2), (2, 3), (3, 2), (2, 4), (5, 2), (3, 3), (7, 2), (3, 4), (13, 2), (2, 8)]


def _check_kernel(F: ExplicitField) -> None:
    """Every product, sum, difference, negation and inverse against the
    digit-wise definitions, each element's coordinates read once. The
    reference product is linear in b: with j the place of b's lowest
    nonzero digit and e_j = p^j, a * b is the digit-wise sum of
    a * (b - e_j), met earlier, and a * e_j, one of the k products taken
    from the definition ``_mul_raw``."""
    p, k, one = F.p, F.k, F.one
    coords = [F.coords(a) for a in F.elements()]
    for a, av in enumerate(coords):
        a_e = [coords[F._mul_raw(a, p**j)] for j in range(k)]
        ref = [coords[0]]  # ref[b]: the coordinates of a * b
        for b, bv in enumerate(coords):
            if b:
                j = next(j for j, d in enumerate(bv) if d)
                ref.append(tuple((x + y) % p for x, y in zip(ref[b - p**j], a_e[j])))
            assert F.mul(a, b) == F.element(ref[b])
            assert F.add(a, b) == F.element(x + y for x, y in zip(av, bv))
            assert F.sub(a, b) == F.element(x - y for x, y in zip(av, bv))
        assert F.neg(a) == F.element(-x for x in av)
        if a:
            assert F.mul(F.inv(a), a) == one


@pytest.mark.parametrize("size", _KERNEL_SIZES, ids=lambda s: f"q={s[0]**s[1]}")
def test_kernel_matches_reference(size):
    F = ExplicitField.polynomial_field(*size)
    _check_kernel(F)
    _check_kernel(scrambled(F, seed=size[0] * 100 + size[1]))


@pytest.mark.parametrize("p, c", [(13, 5), (13, 1), (7, 3), (2, 1), (29, 17)])
def test_prime_kernel_matches_reference(p, c):
    # basis_0^2 = c * basis_0, so unity is 1/c and a * b = a b c
    F = ExplicitField(p, 1, (((c,),),))
    assert F._mul_raw(F.one, F.one) == F.one
    _check_kernel(F)
    F.validate()


@pytest.mark.parametrize("k", range(1, 9))
def test_packed_gf2_ops_match_digitwise(k):
    F = ExplicitField.polynomial_field(2, k)
    for E in (F, scrambled(F, seed=40 + k)):
        for a in E.elements():
            for b in E.elements():
                assert E.add(a, b) == digit_add(E, a, b)


# primitive_element() of the standard presentations; it fixes the torus
# generator of every standard box, so these values must never move
_PRIMITIVE = {
    (2, 1): 1, (2, 2): 2, (2, 3): 2, (2, 4): 2, (2, 5): 2, (2, 6): 2, (2, 7): 2,
    (2, 8): 3, (2, 9): 7, (2, 10): 2, (3, 1): 2, (3, 2): 4, (3, 3): 3, (3, 4): 3,
    (3, 5): 3, (3, 6): 3, (5, 1): 2, (5, 2): 6, (5, 3): 9, (5, 4): 6, (7, 1): 3,
    (7, 2): 9, (7, 3): 22, (11, 1): 2, (11, 2): 15, (13, 1): 2, (13, 2): 15,
    (17, 1): 3, (19, 1): 2, (23, 1): 5, (29, 1): 2, (31, 1): 3, (37, 1): 2,
    (101, 1): 2, (197, 1): 2,
}


def test_primitive_elements_pinned():
    got = {pk: ExplicitField.polynomial_field(*pk).primitive_element() for pk in _PRIMITIVE}
    assert got == _PRIMITIVE


def test_non_field_presentations_rejected_after_tables():
    # F_3[x]/(x^2 - 1) = F_3 x F_3: unity, commutative, associative, zero divisors
    split = ExplicitField(3, 2, (((1, 0), (0, 1)), ((0, 1), (1, 0))))
    assert split.one == 1
    with pytest.raises(ContractViolation):
        split.mul(2, 2)
    with pytest.raises(ContractViolation):
        split.validate()
    with pytest.raises(ContractViolation):
        split.primitive_element()


@pytest.mark.parametrize("pk", [(2, 4), (3, 2)], ids=str)
def test_every_changed_structure_constant_is_rejected(pk):
    # one constant raised by 1 mod p: the k^2 basis products leave no product unchecked
    p, k = pk
    G = scrambled(ExplicitField.polynomial_field(p, k), seed=11)
    G.validate()
    caught = collections.Counter()
    for i, j, l in itertools.product(range(k), repeat=3):
        c = [[list(r) for r in plane] for plane in G.c]
        c[i][j][l] = (c[i][j][l] + 1) % p
        with pytest.raises(ContractViolation) as e:
            ExplicitField(p, k, c).validate()
        caught[next(m for m in ("no unity", "basis pair", "zero divisor") if m in str(e.value))] += 1
    # in GF(2^4) half the changes keep a unity; of those, 7 give a zero
    # divisor that the table walk meets and 25 keep a primitive element
    assert caught == ({"no unity": 32, "basis pair": 25, "zero divisor": 7} if p == 2 else {"no unity": 8})


def _power_basis(f, k: int):
    """Structure constants of F_2[x]/(f) on 1, x, ..., x^(k-1), for any f of degree k."""
    powers = [modp.poly_mod((0,) * s + (1,), f, 2) for s in range(2 * k - 1)]
    powers = [tuple(r) + (0,) * (k - len(r)) for r in powers]
    return tuple(tuple(powers[i + j] for j in range(k)) for i in range(k))


@pytest.mark.parametrize("k, f", [(12, {0, 12}), (14, {0, 1, 14})], ids=str)
def test_reducible_presentation_is_rejected_at_its_first_zero_divisor(k, f):
    # x^12 + 1 and x^14 + x + 1 are reducible: the walk from the unity under
    # times g stops short of it at the first zero divisor g, instead of trying
    # every g for an element of order q - 1, which took minutes at k = 14
    R = ExplicitField(2, k, _power_basis(tuple(int(i in f) for i in range(k + 1)), k))
    t0 = time.perf_counter()
    with pytest.raises(ContractViolation, match="zero divisor"):
        R.validate()
    assert time.perf_counter() - t0 < 1


def _walk_candidates(F: ExplicitField, g: int) -> list[int]:
    """1, ..., g without the multiples c * 1 of the unity, which for k > 1 cannot be primitive."""
    units = {F.scalar(c) for c in range(1, F.p)} if F.k > 1 else set()
    return [a for a in range(1, g + 1) if a not in units]


@pytest.mark.parametrize("pk", [(3, 4), (5, 2), (7, 3), (11, 2), (13, 2)], ids=str)
@pytest.mark.parametrize("scramble", [None, 3, 19])
def test_odd_tables_walk_only_the_primitive_element(pk, scramble, monkeypatch):
    # the walk stops at the primitive element g: it tries each candidate
    # below g that is not a multiple of the unity once, and nothing past g;
    # a fresh copy, as the shared standard field may have its tables already
    F = ExplicitField.polynomial_field(*pk)
    F = ExplicitField(F.p, F.k, F.c) if scramble is None else scrambled(F, seed=scramble)
    walked, times = [], ExplicitField._times
    monkeypatch.setattr(ExplicitField, "_times", lambda self, g: walked.append(g) or times(self, g))
    g = F.primitive_element()
    assert walked == _walk_candidates(F, g)
    assert next(a for a in range(1, F.order) if _order(F, a) == F.order - 1) == g


def _order(F: ExplicitField, a: int) -> int:
    x, o = a, 1
    while x != F.one:
        x, o = F._mul_raw(x, a), o + 1
    return o


def _walked_presentations():
    """Fields, fresh standard and scrambled, and k = 1 with basis_0^2 = c * basis_0, c != 1.

    GF(2^8) reads its linear maps from one span of a byte, GF(2^9) from a
    byte and a partial byte.
    """
    for pk in [(3, 2), (3, 4), (5, 3), (13, 2), (2, 8), (2, 9)]:
        F = ExplicitField.polynomial_field(*pk)
        yield ExplicitField(F.p, F.k, F.c)
        yield from (scrambled(F, seed=s) for s in (3, 19))
    yield from (ExplicitField(p, 1, (((c,),),)) for p, c in [(13, 5), (7, 3), (29, 17)])


def test_walk_skips_the_multiples_of_the_unity(monkeypatch):
    # for k > 1 the order of c * 1 divides p - 1 < q - 1, so the walk never tries it
    walked, times = [], ExplicitField._times
    monkeypatch.setattr(ExplicitField, "_times", lambda self, g: walked.append(g) or times(self, g))
    for F in (F for F in _walked_presentations() if F.k > 1):
        walked.clear()
        F.primitive_element()
        for c in range(1, F.p):
            assert _order(F, F.scalar(c)) < F.order - 1, (F.c, c)
            assert F.scalar(c) not in walked, (F.c, c)


def test_times_is_multiplication_by_the_definition():
    for F in _walked_presentations():
        for g in {0, 1, 2, F.order - 1, F.primitive_element(), F.one}:
            times = F._times(g)
            assert [times(x) for x in F.elements()] == [F._mul_raw(x, g) for x in F.elements()], (F.c, g)


def test_tables_match_a_walk_by_the_definition():
    for F in _walked_presentations():
        # the first element in integer order whose powers under _mul_raw cover q - 1 elements
        g = next(a for a in range(1, F.order) if _order(F, a) == F.order - 1)
        exp = [F.one]
        while len(exp) < F.order - 1:
            exp.append(F._mul_raw(exp[-1], g))
        # the log of zero is Z = 3(q - 1); E is three periods and a zero tail
        Z = 3 * (F.order - 1)
        log = [Z] * F.order
        for i, x in enumerate(exp):
            log[x] = i
        zech = None if F.k == 1 or F.p == 2 else [log[digit_add(F, F.one, x)] for x in exp] * 2
        assert F._tables == (log, exp * 3 + [0] * (Z + 1), zech), F.c


def test_isomorphism_maps_the_unity_to_the_unity():
    # no check tests M(1) = 1: row 0 of both power matrices is the unity
    for F in _walked_presentations():
        assert explicit_isomorphism(F, ExplicitField.polynomial_field(F.p, F.k))(F.one) == 1, F.c


def test_no_program_path_needs_the_digitwise_product(monkeypatch):
    # _mul_raw is the reference the tests compare against: tables, validate
    # and whole recognitions must run without it
    def no_mul_raw(self, a, b):
        raise AssertionError("called the digit-wise product")

    monkeypatch.setattr(ExplicitField, "_mul_raw", no_mul_raw)
    for pk in [(2, 8), (2, 9), (3, 4), (13, 2)]:
        ExplicitField.polynomial_field.__wrapped__(ExplicitField, *pk)._tables  # a fresh, uncached build
        scrambled(ExplicitField.polynomial_field(*pk), seed=7).validate()
    for p, k in [(2, 4), (3, 2)]:
        res = recognize(make_matrix_blackbox(p, k, seed=1000), p, k, random.Random(0))
        assert res.explicit.order == p**k


def test_standard_field_and_its_tables_are_built_once_per_process(monkeypatch):
    assert ExplicitField.polynomial_field(3, 4) is ExplicitField.polynomial_field(3, 4)
    ExplicitField.polynomial_field.cache_clear()
    walked, times = [], ExplicitField._times
    monkeypatch.setattr(ExplicitField, "_times", lambda self, g: walked.append(g) or times(self, g))
    sl2 = make_matrix_blackbox(3, 4, seed=1)
    psl2 = make_matrix_blackbox(3, 4, center_quotient=True, seed=1)
    assert sl2.backend.field is psl2.backend.field is ExplicitField.polynomial_field(3, 4)
    assert walked == [3]  # 1 and 2 are the unity and its negative


def _evaluate(F: ExplicitField, f, a: int) -> int:
    acc = 0
    for c in reversed(f):
        acc = F.add(F.mul(acc, a), F.scalar(c))
    return acc


def _root_search_field(p: int, k: int) -> ExplicitField:
    if k == 1:
        return ExplicitField(p, 1, [[[5]]])  # basis_0^2 = 5 basis_0: 1 is not basis_0
    return scrambled(ExplicitField.polynomial_field(p, k), seed=p * 100 + k)


@pytest.mark.parametrize("p, k", [(2, 3), (2, 4), (2, 8), (3, 4), (5, 3), (13, 2), (13, 1)])
def test_find_root_is_the_smallest_root(p, k):
    # random polynomials over F_p, some times x so that 0 is a root, and
    # minimal polynomials, which always have a root: the search returns the
    # smallest root in integer order
    F = _root_search_field(p, k)
    rng = random.Random(p * 100 + k)
    polys = [[rng.randrange(p) for _ in range(rng.randrange(2 * k))] + [1] for _ in range(30)]
    polys += [[0] + f for f in polys[:5]]
    polys += [F.minimal_polynomial(rng.randrange(1, F.order)) for _ in range(10)]
    seen = set()
    for f in polys:
        roots = [a for a in F.elements() if _evaluate(F, f, a) == 0]
        if roots:
            seen.add("zero" if roots[0] == 0 else "nonzero")
            assert find_root(f, F) == roots[0], f
        else:
            seen.add("none")
            with pytest.raises(ContractViolation):
                find_root(f, F)
    assert seen == {"zero", "nonzero", "none"}


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_isomorphism_maps_the_generator_to_the_smallest_root(seed):
    # q = 10,201: at every field size the generator goes to the smallest root
    standard = ExplicitField.polynomial_field(101, 2)
    G = scrambled(standard, seed=seed)
    g = G.field_generator()
    f = G.minimal_polynomial(g)
    smallest = next(a for a in standard.elements() if _evaluate(standard, f, a) == 0)
    assert explicit_isomorphism(G, standard)(g) == smallest
