"""Black box group interface.

A black box group hands out fixed-length strings for its elements and
supports only four operations: sampling, multiplication, inversion, and
an equality test. The encoding need not be unique, so client code must
never compare strings directly; everything goes through ``compare``.
Each box also carries a known multiple ``exponent`` of every element
order, which is what makes order computations possible at all.

``SubgroupBox`` is the one wrapper: a subgroup of the direct power
base^k, whose strings concatenate k base strings. With k = 1 it is a
subgroup of the base box. The Frobenius construction uses it at every
degree k, k = 1 included.
"""
from __future__ import annotations

import random

from .arith import factorint, power
from .errors import ContractViolation, InputError

_BURN_IN = 100


class ElementString:
    """Opaque handle for one group element. Compare only via the box.

    ``ElementString(data)`` is a string given by its bytes. A box makes
    its strings as handles instead (``MatrixBackend.encode`` fills their
    slots directly): ``value`` is what the box reads back (a canonical
    matrix, or a tuple of parts), and ``seal(value)`` computes the bytes
    on the first read of ``data``, an opaque backend's under a nonce it
    draws then. Equality and hash are identity, and ``repr`` shows the
    bytes as they stand, so printing a handle never seals it.
    """

    __slots__ = ("_data", "_value", "_seal")

    def __init__(self, data: bytes | None, value=None, seal=None):
        self._data, self._value, self._seal = data, value, seal

    @property
    def data(self) -> bytes:
        """The string's bytes, sealed on first read."""
        if self._data is None:
            self._data = self._seal(self._value)
        return self._data

    def __repr__(self) -> str:
        return f"ElementString(data={self._data!r})"


class BlackBoxGroup:
    """Abstract box; concrete subclasses provide the raw string operations."""

    def __init__(self, string_bytes: int, exponent: int, generators, identity: ElementString):
        self.string_bytes = string_bytes
        self.exponent = exponent
        self.generators: tuple[ElementString, ...] = tuple(generators)
        self.identity = identity
        self.stats = {"samples": 0, "muls": 0, "invs": 0, "compares": 0}
        self._pr: ProductReplacer | None = None

    # raw operations, implemented by subclasses
    def _mul(self, a: ElementString, b: ElementString) -> ElementString:
        raise NotImplementedError

    def _inv(self, a: ElementString) -> ElementString:
        raise NotImplementedError

    def _compare(self, a: ElementString, b: ElementString) -> bool:
        raise NotImplementedError

    # counted wrappers
    def mul(self, a: ElementString, b: ElementString) -> ElementString:
        self.stats["muls"] += 1
        return self._mul(a, b)

    def inv(self, a: ElementString) -> ElementString:
        self.stats["invs"] += 1
        return self._inv(a)

    def compare(self, a: ElementString, b: ElementString) -> bool:
        self.stats["compares"] += 1
        return self._compare(a, b)

    def is_identity(self, x: ElementString) -> bool:
        return self.compare(x, self.identity)

    def sample(self, rng: random.Random) -> ElementString:
        if self._pr is None:
            self._pr = ProductReplacer(self, self.generators, rng)
        return self._pr.sample(rng)

    def _count_sample(self) -> None:
        """Count one draw of this box's sampler, here and on every box it wraps."""
        self.stats["samples"] += 1

    # derived operations
    def power(self, x: ElementString, e: int) -> ElementString:
        if e < 0:
            x = self.inv(x)
            e = -e
        return power(self.mul, self.identity, x, e)

    def conj(self, x: ElementString, g: ElementString, g_inv: ElementString | None = None) -> ElementString:
        """x conjugated by g, i.e. g^-1 x g; a caller holding g^-1 passes it as g_inv."""
        return self.mul(self.inv(g) if g_inv is None else g_inv, self.mul(x, g))

    def commutes(self, x: ElementString, y: ElementString) -> bool:
        return self.compare(self.mul(x, y), self.mul(y, x))


class ProductReplacer:
    """Product replacement walk with an accumulator ('rattle') per sample."""

    def __init__(self, box: BlackBoxGroup, gens, rng: random.Random):
        gens = tuple(gens)
        if not gens:
            raise InputError("product replacement needs at least one generator")
        self.box = box
        n = max(10, 2 * len(gens))
        self.slots = [gens[i % len(gens)] for i in range(n)]
        self.acc = box.identity
        for _ in range(_BURN_IN):
            self._step(rng)

    def _step(self, rng: random.Random) -> None:
        box = self.box
        n = len(self.slots)
        i = rng.randrange(n)
        j = rng.randrange(n - 1)
        if j >= i:
            j += 1
        t = self.slots[j]
        if rng.getrandbits(1):
            t = box.inv(t)
        if rng.getrandbits(1):
            self.slots[i] = box.mul(self.slots[i], t)
        else:
            self.slots[i] = box.mul(t, self.slots[i])
        s = self.slots[i]
        if rng.getrandbits(1):
            s = box.inv(s)
        if rng.getrandbits(1):
            self.acc = box.mul(self.acc, s)
        else:
            self.acc = box.mul(s, self.acc)

    def sample(self, rng: random.Random) -> ElementString:
        self._step(rng)
        self.box._count_sample()
        return self.acc


def element_order(box: BlackBoxGroup, x: ElementString) -> int:
    """Exact order of x, by peeling primes off the box exponent."""
    o = box.exponent
    if not box.is_identity(box.power(x, o)):
        raise ContractViolation("element does not satisfy the advertised exponent")
    for q in factorint(o):
        while o % q == 0 and box.is_identity(box.power(x, o // q)):
            o //= q
    return o


def _join_bytes(parts) -> bytes:
    return b"".join(p.data for p in parts)


class SubgroupBox(BlackBoxGroup):
    """The subgroup generated by ``gens`` inside base^k, with its own sampler.

    A string is a handle over k base strings, its bytes theirs joined; a
    string given by its bytes is sliced into k. A string of another length,
    or a handle over another number of parts, is an InputError. k is read
    from the generators' length; k = 1 is a plain subgroup of ``base``.
    The raw operations act on each coordinate through the base box's raw
    ones, looked up per call, so a counter rebinding them on the base
    instance sees every oracle call. Each draw counts once here and once
    on the base box, so a stage recorded on the base box sees it.
    """

    def __init__(self, base: BlackBoxGroup, gens, rng: random.Random):
        gens = tuple(gens)
        n = len(gens[0].data) if gens else 0
        if not n or n % base.string_bytes or any(len(g.data) != n for g in gens):
            raise InputError("generators must be tuples of base strings of one length")
        self.base = base
        self.k = n // base.string_bytes
        super().__init__(n, base.exponent, gens, self.join([base.identity] * self.k))
        self._pr = ProductReplacer(self, self.generators, rng)

    def split(self, x: ElementString) -> tuple[ElementString, ...]:
        if x._seal is _join_bytes:
            if len(x._value) == self.k:
                return x._value
        elif len(d := x.data) == self.string_bytes:
            w = self.base.string_bytes
            return tuple(ElementString(d[i : i + w]) for i in range(0, len(d), w))
        raise InputError("string has the wrong length for this box")

    @staticmethod
    def join(parts) -> ElementString:
        return ElementString(None, tuple(parts), _join_bytes)

    def _mul(self, a, b):
        return self.join(map(self.base._mul, self.split(a), self.split(b)))

    def _inv(self, a):
        return self.join(map(self.base._inv, self.split(a)))

    def _compare(self, a, b):
        return all(map(self.base._compare, self.split(a), self.split(b)))

    def _count_sample(self) -> None:
        super()._count_sample()
        self.base._count_sample()
