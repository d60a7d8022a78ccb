"""Matrix-group realizations of black boxes, transparent or opaque.

The backend is the trusted side of every experiment: it knows the
matrices. ``MatrixBackend.blackbox()`` wraps 2x2 matrices over an
explicit field as a black box. In transparent mode strings are the
canonical entry bytes. In opaque mode each string is a keyed 4-round
Feistel encryption of the canonical bytes plus a fresh 8-byte nonce, so
the same element gets a different string every time it is produced and
nothing about the matrix leaks without the key.

The nonce stream is drawn from a dedicated RNG owned by the backend, not
from the caller's algorithm RNG: an algorithm run consumes exactly the
same randomness against the opaque box as against the transparent one.
"""
from __future__ import annotations

import random
from hashlib import blake2b

from .blackbox import BlackBoxGroup, ElementString, global_exponent_gl
from .errors import InputError
from .field import ExplicitField

Matrix = tuple[tuple[int, ...], ...]

_NONCE_BYTES = 8
_ROUNDS = 4


def mat_mul(F: ExplicitField, a: Matrix, b: Matrix) -> Matrix:
    add, mul = F.add, F.mul
    (a00, a01), (a10, a11) = a
    (b00, b01), (b10, b11) = b
    return (
        (add(mul(a00, b00), mul(a01, b10)), add(mul(a00, b01), mul(a01, b11))),
        (add(mul(a10, b00), mul(a11, b10)), add(mul(a10, b01), mul(a11, b11))),
    )


def mat_identity(F: ExplicitField) -> Matrix:
    return ((F.one, 0), (0, F.one))


def mat_det2(F: ExplicitField, m: Matrix) -> int:
    return F.sub(F.mul(m[0][0], m[1][1]), F.mul(m[0][1], m[1][0]))


def mat_inv2(F: ExplicitField, m: Matrix) -> Matrix:
    d = mat_det2(F, m)
    if d == 0:
        raise ZeroDivisionError("singular matrix")
    di = F.inv(d)
    return (
        (F.mul(di, m[1][1]), F.mul(di, F.neg(m[0][1]))),
        (F.mul(di, F.neg(m[1][0])), F.mul(di, m[0][0])),
    )


def mat_neg(F: ExplicitField, m: Matrix) -> Matrix:
    neg = F.neg
    (a, b), (c, d) = m
    return ((neg(a), neg(b)), (neg(c), neg(d)))


class MatrixBackend:
    """Encoder/decoder between 2x2 matrices and black box strings."""

    def __init__(
        self,
        field: ExplicitField,
        special: bool = True,
        center_quotient: bool = False,
        opaque: bool = True,
        seed: int = 0,
    ):
        if center_quotient and not special:
            raise InputError("center quotient is only supported over the special group")
        self.field = field
        self.n = 2
        self.special = special
        self.center_quotient = center_quotient
        self.opaque = opaque
        self.width = max(1, (field.order - 1).bit_length() + 7 >> 3)
        self._plain_bytes = 4 * self.width
        self.string_bytes = self._plain_bytes + (_NONCE_BYTES if opaque else 0)
        key = blake2b(f"opacity-key:{seed}".encode(), digest_size=32).digest()
        # round r masks one half with the keyed hash of r and the other half;
        # each round's state has absorbed the key and r already
        half = self.string_bytes // 2
        self._rounds = [
            blake2b(bytes([r]), key=key, digest_size=self.string_bytes - half if r % 2 else half)
            for r in range(_ROUNDS)
        ]
        self._nonce_rng = random.Random(f"opacity-nonce:{seed}")

    # -- canonical form ---------------------------------------------------
    def canonical_matrix(self, m: Matrix) -> Matrix:
        if self.center_quotient and self.field.p != 2:
            return min(m, mat_neg(self.field, m))
        return m

    def canonical_bytes(self, m: Matrix) -> bytes:
        """The four entries, row by row, as fixed-width big-endian integers."""
        (a, b), (c, d) = self.canonical_matrix(m)
        s = 8 * self.width
        return (((a << s | b) << s | c) << s | d).to_bytes(self._plain_bytes, "big")

    def _parse(self, blob: bytes) -> Matrix:
        s = 8 * self.width
        x = int.from_bytes(blob[: self._plain_bytes], "big")
        mask = (1 << s) - 1
        a, b, c, d = x >> 3 * s, x >> 2 * s & mask, x >> s & mask, x & mask
        q = self.field.order
        if a >= q or b >= q or c >= q or d >= q:
            raise InputError("string does not decode to field entries")
        return ((a, b), (c, d))

    # -- the keyed permutation --------------------------------------------
    def _feistel(self, block: bytes, decrypt: bool) -> bytes:
        a = len(block) // 2
        left, right = block[:a], block[a:]
        for r in range(_ROUNDS - 1, -1, -1) if decrypt else range(_ROUNDS):
            h = self._rounds[r].copy()
            if r % 2 == 0:
                h.update(right)
                x = int.from_bytes(left, "big") ^ int.from_bytes(h.digest(), "big")
                left = x.to_bytes(a, "big")
            else:
                h.update(left)
                x = int.from_bytes(right, "big") ^ int.from_bytes(h.digest(), "big")
                right = x.to_bytes(len(block) - a, "big")
        return left + right

    # -- string codec -------------------------------------------------------
    def encode(self, m: Matrix) -> ElementString:
        blob = self.canonical_bytes(m)
        if not self.opaque:
            return ElementString(blob)
        nonce = self._nonce_rng.getrandbits(8 * _NONCE_BYTES).to_bytes(_NONCE_BYTES, "big")
        return ElementString(self._feistel(blob + nonce, decrypt=False))

    def decode(self, s: ElementString) -> Matrix:
        data = s.data
        if len(data) != self.string_bytes:
            raise InputError("string has the wrong length for this box")
        return self._parse(self._feistel(data, decrypt=True) if self.opaque else data)

    # -- matrices of the standard frame -------------------------------------
    def standard_generators(self) -> list[Matrix]:
        F = self.field
        one, zero = F.one, 0
        tau = F.primitive_element()
        u1 = ((one, one), (zero, one))
        h_tau = ((tau, zero), (zero, F.inv(tau)))
        n1 = ((zero, one), (one if F.p == 2 else F.neg(one), zero))
        gens = [u1, h_tau, n1]
        if not self.special:
            gens.append(((tau, zero), (zero, one)))
        return gens

    def validate_element(self, m: Matrix) -> Matrix:
        if len(m) != 2 or any(len(r) != 2 for r in m):
            raise InputError("elements must be 2x2 matrices")
        m = tuple(tuple(int(x) for x in row) for row in m)
        if any(x < 0 or x >= self.field.order for row in m for x in row):
            raise InputError("matrix entries must be field elements in [0, q)")
        d = mat_det2(self.field, m)
        if d == 0:
            raise InputError("matrix is singular")
        if self.special and d != self.field.one:
            raise InputError("matrix determinant is not 1")
        return m

    def blackbox(self, generators=None) -> "MatrixBlackBox":
        mats = self.standard_generators() if generators is None else [
            self.validate_element(g) for g in generators
        ]
        return MatrixBlackBox(self, mats)


class MatrixBlackBox(BlackBoxGroup):
    def __init__(self, backend: MatrixBackend, generator_matrices):
        F = backend.field
        exponent = global_exponent_gl(backend.n, F.p, F.k)
        super().__init__(
            backend.string_bytes,
            exponent,
            [backend.encode(m) for m in generator_matrices],
        )
        self.backend = backend
        self._identity = backend.encode(mat_identity(F))

    def _mul(self, a, b):
        be = self.backend
        return be.encode(mat_mul(be.field, be.decode(a), be.decode(b)))

    def _inv(self, a):
        be = self.backend
        return be.encode(mat_inv2(be.field, be.decode(a)))

    def _compare(self, a, b):
        be = self.backend
        return be.canonical_matrix(be.decode(a)) == be.canonical_matrix(be.decode(b))


def make_matrix_blackbox(
    p: int,
    k: int,
    special: bool = True,
    center_quotient: bool = False,
    opaque: bool = True,
    seed: int = 0,
) -> MatrixBlackBox:
    """Convenience constructor over the standard polynomial field."""
    field = ExplicitField.polynomial_field(p, k)
    backend = MatrixBackend(
        field,
        special=special,
        center_quotient=center_quotient,
        opaque=opaque,
        seed=seed,
    )
    return backend.blackbox()
