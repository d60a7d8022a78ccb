"""Base-box oracle counter shared by the timed and traced runs.

``box.stats`` counts only calls made through a box's own ``mul``,
``inv`` and ``compare``. ``SubgroupBox``, ``DirectProductBox`` and the
Frobenius tuple group call the base box's raw ``_mul``, ``_inv`` and
``_compare`` directly, so that work never reaches ``stats``. This
counter sits on the raw operations of one base ``MatrixBlackBox``
instance, so every oracle call is counted once, whichever wrapper
routed it.
"""
from __future__ import annotations


class BaseOps:
    """Running totals of raw oracle calls on one base box."""

    __slots__ = ("muls", "invs", "compares")

    def __init__(self) -> None:
        self.muls = 0
        self.invs = 0
        self.compares = 0

    @property
    def total(self) -> int:
        return self.muls + self.invs + self.compares

    def snapshot(self) -> tuple[int, int, int]:
        return (self.muls, self.invs, self.compares)


def count_base_ops(box, ops: BaseOps | None = None) -> BaseOps:
    """Count every raw operation of ``box`` into ``ops`` from now on.

    The wrappers are instance attributes, so other boxes, and the class,
    are untouched. Passing one ``BaseOps`` to several boxes pools them.
    """
    ops = BaseOps() if ops is None else ops
    mul, inv, compare = box._mul, box._inv, box._compare

    def _mul(a, b):
        ops.muls += 1
        return mul(a, b)

    def _inv(a):
        ops.invs += 1
        return inv(a)

    def _compare(a, b):
        ops.compares += 1
        return compare(a, b)

    box._mul, box._inv, box._compare = _mul, _inv, _compare
    return ops
