"""Matrix-group realizations of black boxes, transparent or opaque.

The backend is the trusted side of every experiment: it knows the
matrices. ``MatrixBackend.blackbox()`` wraps 2x2 matrices over an
explicit field as a black box. In transparent mode a string's bytes are
the canonical entry bytes. In opaque mode they are the canonical bytes
encrypted with a fresh 8-byte nonce under two keyed hashes, in the
shape of OAEP (Bellare and Rogaway, EUROCRYPT 1994), so the same element
gets a different string every time it is produced, nothing about the
matrix leaks without the key, and a string with a changed bit decodes
to an unrelated matrix or to none.

The nonce stream is drawn from a dedicated RNG owned by the backend, not
from the caller's algorithm RNG: an algorithm run consumes exactly the
same randomness against the opaque box as against the transparent one.

Every string a backend makes is a handle that holds its canonical
matrix and seals its bytes on first read, ciphertext under a nonce
drawn then when opaque; decoding it reads the matrix, and any other
string is decoded from its bytes. A box's raw operations are closures
bound once per box.

The hashes are BLAKE2b from ``_blake2``, which ``hashlib`` re-exports:
importing ``hashlib`` would also load OpenSSL's libcrypto, which the
codec never calls, and add about 3.6 MB to every process's peak memory.

A backend multiplies with its field's ``ExplicitField.matmul``, built
once per field, and inverts in GL2 with ``mat_inv2``. The reference
product and negation, which only tests read, are in ``tests/brute.py``.
"""
from __future__ import annotations

import random
from functools import partial
from _blake2 import blake2b

from .blackbox import BlackBoxGroup, ElementString
from .errors import InputError
from .field import ExplicitField, Matrix, check_matrix

_NONCE_BYTES = 8


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


class MatrixBackend:
    """Encoder/decoder between 2x2 matrices and black box strings.

    ``mul``, ``neg`` and ``inv`` act on matrices: the field's
    ``matmul``, entry-wise negation, and ``mat_inv2`` or, on a special
    group, the adjugate. ``encode``, which makes handles, and ``decode``,
    with the steps ``_parse`` and ``_decrypt`` of its bytes path, are
    closures built once per instance (see ``_bind_codec``).
    """

    def __init__(
        self,
        field: ExplicitField,
        special: bool = True,
        center_quotient: bool = False,
        opaque: bool = True,
        seed: int = 0,
    ):
        if type(seed) is not int:  # the codec key is f"{seed}", so "3" would be 3
            raise InputError(f"seed must be an int, not {seed!r}")
        for name, flag in (("special", special), ("center_quotient", center_quotient), ("opaque", opaque)):
            if type(flag) is not bool:
                raise InputError(f"{name} must be a bool, not {flag!r}")
        if center_quotient and not special:
            raise InputError("center quotient is only supported over the special group")
        self.field = field
        self.special = special
        self.center_quotient = center_quotient
        self.opaque = opaque
        self.width = max(1, (field.order - 1).bit_length() + 7 >> 3)
        self.string_bytes = 4 * self.width + (_NONCE_BYTES if opaque else 0)
        self.mul = field.matmul
        N = [field.neg(x) for x in range(field.order)]

        def neg(m: Matrix) -> Matrix:
            (a, b), (c, d) = m
            return ((N[a], N[b]), (N[c], N[d]))

        def adjugate(m: Matrix) -> Matrix:
            (a, b), (c, d) = m
            return ((d, N[b]), (N[c], a))

        self.neg = neg
        self.inv = adjugate if special else partial(mat_inv2, field)
        self._bind_codec(seed)

    def _bind_codec(self, seed: int) -> None:
        """Build the string codec as closures over its constants and state.

        A string's bytes are the four entries, row by row, as fixed-width
        big-endian integers. An opaque one is s || t for a fresh nonce r,
        with s = entries ^ G(r) and t = r ^ H(s), where G (``pad``) and
        H (``seal``) are ``_blake2``'s BLAKE2b, not ``hashlib``'s (see the
        module docstring), keyed with the backend's key and told apart by
        their personalization. Decoding undoes it with the same two
        hashes: r = t ^ H(s), then entries = s ^ G(r). A changed bit of s
        or t changes r and with it the whole pad G(r), so a changed string
        decodes to unrelated entries.

        ``encode`` makes a handle: the canonical matrix and ``to_bytes``,
        which packs, draws the nonce and encrypts only when the string's
        ``data`` is first read, so opaque bytes follow the order of first
        reads. ``decode`` returns the matrix of a handle of its own and
        decodes any other string from its bytes.
        """
        neg, canonical, opaque = self.neg, self.center_quotient, self.opaque
        q, s, plain, size = self.field.order, 8 * self.width, 4 * self.width, self.string_bytes
        mask = (1 << s) - 1
        key = blake2b(f"opacity-key:{seed}".encode(), digest_size=32).digest()
        # each state has absorbed the key already; copying it is cheaper than keying
        pad = blake2b(key=key, digest_size=plain, person=b"opacity-G").copy
        seal = blake2b(key=key, digest_size=_NONCE_BYTES, person=b"opacity-H").copy
        nonce = random.Random(f"opacity-nonce:{seed}").getrandbits
        nonce_bits = 8 * _NONCE_BYTES
        from_bytes, new = int.from_bytes, object.__new__

        def parse(blob: bytes) -> Matrix:
            """The canonical matrix whose entries are ``blob``."""
            x = from_bytes(blob, "big")
            a, b, c, d = x >> 3 * s, x >> 2 * s & mask, x >> s & mask, x & mask
            if a >= q or b >= q or c >= q or d >= q:
                raise InputError("string does not decode to field entries")
            m = ((a, b), (c, d))
            return min(m, neg(m)) if canonical else m

        def decrypt(block: bytes) -> bytes:
            """The entry bytes of the opaque string ``block``."""
            sb = block[:plain]
            h = seal()
            h.update(sb)
            r = from_bytes(block[plain:], "big") ^ from_bytes(h.digest(), "big")
            h = pad()
            h.update(r.to_bytes(_NONCE_BYTES, "big"))
            return (from_bytes(sb, "big") ^ from_bytes(h.digest(), "big")).to_bytes(plain, "big")

        def to_bytes(m: Matrix) -> bytes:
            """The bytes of the string of canonical matrix ``m``; opaque ones under a nonce drawn now."""
            (a, b), (c, d) = m
            v = ((a << s | b) << s | c) << s | d
            if not opaque:
                return v.to_bytes(plain, "big")
            r = nonce(nonce_bits)
            h = pad()
            h.update(r.to_bytes(_NONCE_BYTES, "big"))
            sb = (v ^ from_bytes(h.digest(), "big")).to_bytes(plain, "big")
            h = seal()
            h.update(sb)
            return sb + (r ^ from_bytes(h.digest(), "big")).to_bytes(_NONCE_BYTES, "big")

        def encode(m: Matrix) -> ElementString:
            if canonical:
                m = min(m, neg(m))
            e = new(ElementString)
            e._data, e._value, e._seal = None, m, to_bytes
            return e

        def decode(e: ElementString) -> Matrix:
            """The canonical matrix of ``e``."""
            if e._seal is to_bytes:
                return e._value
            data = e.data
            if len(data) != size:
                raise InputError("string has the wrong length for this box")
            return parse(decrypt(data) if opaque else data)

        self._parse, self._decrypt, self._to_bytes = parse, decrypt, to_bytes
        self.encode, self.decode = encode, decode

    # -- matrices of the standard frame -------------------------------------
    def standard_generators(self) -> list[Matrix]:
        F = self.field
        one, zero = F.one, 0
        tau = F.primitive_element()
        u1 = ((one, one), (zero, one))
        h_tau = ((tau, zero), (zero, F.inv(tau)))
        n1 = ((zero, one), (F.neg(one), zero))
        gens = [u1, h_tau, n1]
        if not self.special:
            gens.append(((tau, zero), (zero, one)))
        return gens

    def validate_element(self, m: Matrix) -> Matrix:
        m = check_matrix(self.field, m)
        det = mat_det2(self.field, m)
        if det == 0:
            raise InputError("matrix is singular")
        if self.special and det != self.field.one:
            raise InputError("matrix determinant is not 1")
        return m

    def blackbox(self, generators=None) -> "MatrixBlackBox":
        mats = self.standard_generators() if generators is None else [
            self.validate_element(g) for g in generators
        ]
        return MatrixBlackBox(self, mats)


class MatrixBlackBox(BlackBoxGroup):
    """A black box on a ``MatrixBackend``.

    The raw operations are closures bound per instance: read the
    operands, run the backend's kernel, encode, with no attribute lookup
    per call. A handle of the backend's own is read inline from its
    matrix; any other string, a bytes copy or another backend's handle,
    is decoded from its bytes. Each result, generator and the identity
    is a handle, sealed only if read.
    """

    def __init__(self, backend: MatrixBackend, generator_matrices):
        F = backend.field
        encode, decode, kernel, inv = backend.encode, backend.decode, backend.mul, backend.inv
        own = backend._to_bytes
        gens = [encode(m) for m in generator_matrices]
        # every element order of GL2(q) divides p(q - 1) or q^2 - 1
        super().__init__(backend.string_bytes, F.p * (F.order**2 - 1), gens, encode(mat_identity(F)))
        self.backend = backend

        def _mul(a, b):
            return encode(kernel(
                a._value if a._seal is own else decode(a), b._value if b._seal is own else decode(b)
            ))

        def _inv(a):
            return encode(inv(a._value if a._seal is own else decode(a)))

        def _compare(a, b):
            return (a._value if a._seal is own else decode(a)) == (b._value if b._seal is own else decode(b))

        self._mul, self._inv, self._compare = _mul, _inv, _compare


def make_matrix_blackbox(
    p: int,
    k: int,
    center_quotient: bool = False,
    opaque: bool = True,
    seed: int = 0,
) -> MatrixBlackBox:
    """(P)SL2(p^k) over the standard polynomial field; GL2 boxes come
    from ``MatrixBackend(F, special=False)``."""
    field = ExplicitField.polynomial_field(p, k)
    return MatrixBackend(field, center_quotient=center_quotient, opaque=opaque, seed=seed).blackbox()
