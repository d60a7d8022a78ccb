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

Nearly every string a box is handed was made by its own backend shortly
before, so an opaque backend remembers the matrices of its recent
strings and decrypts only strings it has not seen lately.
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
# strings per generation of the decode memo; a backend holds at most twice this
_MEMO_SIZE = 64


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
        self._half = half = self.string_bytes // 2
        self._rounds = tuple(
            blake2b(bytes([r]), key=key, digest_size=self.string_bytes - half if r % 2 else half)
            for r in range(_ROUNDS)
        )
        self._nonce_rng = random.Random(f"opacity-nonce:{seed}")
        # decode memo, ciphertext -> canonical matrix, in two generations:
        # when _recent fills up it becomes _older and the old _older is dropped
        self._recent: dict[bytes, Matrix] = {}
        self._older: dict[bytes, Matrix] = {}

    # -- canonical form ---------------------------------------------------
    def canonical_matrix(self, m: Matrix) -> Matrix:
        if self.center_quotient and self.field.p != 2:
            return min(m, mat_neg(self.field, m))
        return m

    def _pack(self, m: Matrix) -> bytes:
        """The four entries, row by row, as fixed-width big-endian integers."""
        (a, b), (c, d) = m
        s = 8 * self.width
        return (((a << s | b) << s | c) << s | d).to_bytes(self._plain_bytes, "big")

    def _parse(self, blob: bytes) -> Matrix:
        """The canonical matrix whose entries lead ``blob``."""
        s = 8 * self.width
        x = int.from_bytes(blob[: self._plain_bytes], "big")
        mask = (1 << s) - 1
        a, b, c, d = x >> 3 * s, x >> 2 * s & mask, x >> s & mask, x & mask
        q = self.field.order
        if a >= q or b >= q or c >= q or d >= q:
            raise InputError("string does not decode to field entries")
        return self.canonical_matrix(((a, b), (c, d)))

    # -- the keyed permutation --------------------------------------------
    def _feistel(self, block: bytes, decrypt: bool) -> bytes:
        # rounds 0..3 mask left, right, left, right in turn; decryption runs
        # them backwards, which is the same four steps with the halves swapped
        a = self._half
        if decrypt:
            s0, s1, s2, s3 = self._rounds[::-1]
            x, y = block[a:], block[:a]
        else:
            s0, s1, s2, s3 = self._rounds
            x, y = block[:a], block[a:]
        nx, ny = len(x), len(y)
        h = s0.copy()
        h.update(y)
        x = (int.from_bytes(x, "big") ^ int.from_bytes(h.digest(), "big")).to_bytes(nx, "big")
        h = s1.copy()
        h.update(x)
        y = (int.from_bytes(y, "big") ^ int.from_bytes(h.digest(), "big")).to_bytes(ny, "big")
        h = s2.copy()
        h.update(y)
        x = (int.from_bytes(x, "big") ^ int.from_bytes(h.digest(), "big")).to_bytes(nx, "big")
        h = s3.copy()
        h.update(x)
        y = (int.from_bytes(y, "big") ^ int.from_bytes(h.digest(), "big")).to_bytes(ny, "big")
        return y + x if decrypt else x + y

    # -- string codec -------------------------------------------------------
    def _remember(self, data: bytes, m: Matrix) -> None:
        recent = self._recent
        recent[data] = m
        if len(recent) >= _MEMO_SIZE:
            self._older, self._recent = recent, {}

    def encode(self, m: Matrix) -> ElementString:
        m = self.canonical_matrix(m)
        blob = self._pack(m)
        if not self.opaque:
            return ElementString(blob)
        nonce = self._nonce_rng.getrandbits(8 * _NONCE_BYTES).to_bytes(_NONCE_BYTES, "big")
        data = self._feistel(blob + nonce, decrypt=False)
        self._remember(data, m)
        return ElementString(data)

    def decode(self, s: ElementString) -> Matrix:
        """The canonical matrix of ``s``."""
        data = s.data
        if len(data) != self.string_bytes:
            raise InputError("string has the wrong length for this box")
        if not self.opaque:
            return self._parse(data)
        m = self._recent.get(data)
        if m is None:
            m = self._older.get(data)
            if m is None:
                m = self._parse(self._feistel(data, decrypt=True))
            self._remember(data, m)
        return m

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
        return be.decode(a) == be.decode(b)


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
