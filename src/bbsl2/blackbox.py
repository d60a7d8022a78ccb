"""Black box group interface.

A black box group hands out fixed-length strings for its elements and
supports only four operations: sampling, multiplication, inversion, and
an equality test. The encoding need not be unique, so client code must
never compare strings directly; everything goes through ``compare``.
Each box also carries a known multiple ``exponent`` of every element
order, which is what makes order computations possible at all.
"""
from __future__ import annotations

import random
from dataclasses import dataclass
from math import lcm

from .arith import factorint
from .errors import ContractViolation, InputError


@dataclass(frozen=True, eq=False, slots=True)
class ElementString:
    """Opaque handle for one group element. Compare only via the box."""

    data: bytes


class BlackBoxGroup:
    """Abstract box; concrete subclasses provide the raw string operations."""

    def __init__(self, string_bytes: int, exponent: int, generators):
        self.string_bytes = string_bytes
        self.exponent = exponent
        self.generators: tuple[ElementString, ...] = tuple(generators)
        self.stats = {"samples": 0, "muls": 0, "invs": 0, "compares": 0}
        self._identity: ElementString | None = None
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

    @property
    def identity(self) -> ElementString:
        if self._identity is None:
            if not self.generators:
                raise InputError("a box without generators needs an explicit identity")
            g = self.generators[0]
            self._identity = self._mul(g, self._inv(g))
        return self._identity

    def is_identity(self, x: ElementString) -> bool:
        return self.compare(x, self.identity)

    def sample(self, rng: random.Random) -> ElementString:
        if self._pr is None:
            self._pr = ProductReplacer(self, self.generators, rng)
        return self._pr.sample(rng)

    # derived operations
    def power(self, x: ElementString, e: int) -> ElementString:
        if e < 0:
            x = self.inv(x)
            e = -e
        acc = self.identity
        while e:
            if e & 1:
                acc = self.mul(acc, x)
            e >>= 1
            if e:
                x = self.mul(x, x)
        return acc

    def conj(self, x: ElementString, g: ElementString) -> ElementString:
        """x conjugated by g, i.e. g^-1 x g."""
        return self.mul(self.inv(g), self.mul(x, g))

    def commutator(self, x: ElementString, y: ElementString) -> ElementString:
        return self.mul(self.inv(x), self.mul(self.inv(y), self.mul(x, y)))

    def commutes(self, x: ElementString, y: ElementString) -> bool:
        return self.compare(self.mul(x, y), self.mul(y, x))


class ProductReplacer:
    """Product replacement walk with an accumulator ('rattle') per sample."""

    def __init__(self, box: BlackBoxGroup, gens, rng: random.Random, slots: int | None = None, burn_in: int = 100):
        gens = tuple(gens)
        if not gens:
            raise InputError("product replacement needs at least one generator")
        self.box = box
        n = slots if slots is not None else max(10, 2 * len(gens))
        self.slots = [gens[i % len(gens)] for i in range(n)]
        self.acc = box.identity
        for _ in range(burn_in):
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
        self.box.stats["samples"] += 1
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


def global_exponent_gl(n: int, p: int, k: int) -> int:
    """Exponent of GL_n(p^k): every element order divides this."""
    e = 1
    while p**e < n:
        e += 1
    return p**e * lcm(*[p ** (i * k) - 1 for i in range(1, n + 1)])


class DirectProductBox(BlackBoxGroup):
    """Direct product of component boxes; strings are concatenations.

    With no generators supplied, sampling draws each component
    independently, which samples the full product group.
    """

    def __init__(self, components, generators=()):
        self.components = tuple(components)
        if not self.components:
            raise InputError("empty direct product")
        widths = [c.string_bytes for c in self.components]
        self._offsets = [sum(widths[:i]) for i in range(len(widths) + 1)]
        super().__init__(
            sum(widths), lcm(*[c.exponent for c in self.components]), generators
        )

    def split(self, x: ElementString) -> tuple[ElementString, ...]:
        return tuple(
            ElementString(x.data[self._offsets[i] : self._offsets[i + 1]])
            for i in range(len(self.components))
        )

    def join(self, parts) -> ElementString:
        parts = tuple(parts)
        if len(parts) != len(self.components):
            raise InputError("component count mismatch")
        return ElementString(b"".join(p.data for p in parts))

    def _mul(self, a, b):
        return ElementString(
            b"".join(
                c._mul(x, y).data
                for c, x, y in zip(self.components, self.split(a), self.split(b))
            )
        )

    def _inv(self, a):
        return ElementString(
            b"".join(c._inv(x).data for c, x in zip(self.components, self.split(a)))
        )

    def _compare(self, a, b):
        return all(
            c._compare(x, y)
            for c, x, y in zip(self.components, self.split(a), self.split(b))
        )

    @property
    def identity(self) -> ElementString:
        if self._identity is None:
            self._identity = self.join([c.identity for c in self.components])
        return self._identity

    def sample(self, rng: random.Random) -> ElementString:
        if self.generators:
            return super().sample(rng)
        self.stats["samples"] += 1
        return self.join([c.sample(rng) for c in self.components])


class SubgroupBox(BlackBoxGroup):
    """The subgroup generated by ``gens``: parent operations, own sampler."""

    def __init__(self, parent: BlackBoxGroup, gens, rng: random.Random, burn_in: int = 100):
        super().__init__(parent.string_bytes, parent.exponent, gens)
        self.parent = parent
        self._identity = parent.identity
        self._pr = ProductReplacer(self, self.generators, rng, burn_in=burn_in)

    def _mul(self, a, b):
        return self.parent._mul(a, b)

    def _inv(self, a):
        return self.parent._inv(a)

    def _compare(self, a, b):
        return self.parent._compare(a, b)
