"""Random matrices of SL2 over an explicit field.

``random_sl2`` draws the inputs on which a recovered morphism is
verified. It works on plain matrices and never touches a black box; the
brute-force enumerators that the tests use as ground truth live in
``tests/brute.py``.
"""
from __future__ import annotations

import random

from .field import ExplicitField, Matrix


def random_sl2(F: ExplicitField, rng: random.Random) -> Matrix:
    """Uniform over SL2: uniform nonzero top row, uniform fiber below."""
    while True:
        a, b = rng.randrange(F.order), rng.randrange(F.order)
        if a or b:
            break
    if a:
        c = rng.randrange(F.order)
        d = F.mul(F.inv(a), F.add(F.one, F.mul(b, c)))
    else:
        c = F.neg(F.inv(b))
        d = rng.randrange(F.order)
    return ((a, b), (c, d))
