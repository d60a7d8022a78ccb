"""Tests of the base-box counter: ``python3 -m pytest perfbench -q`` from the root."""
import random
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from bbsl2 import make_matrix_blackbox, recover_psl2  # noqa: E402

from counting import count_base_ops  # noqa: E402


def test_counter_equals_stats_on_direct_calls():
    box = make_matrix_blackbox(13, 1, seed=5)
    ops = count_base_ops(box)
    g, h = box.generators[:2]
    x = box.mul(g, h)
    for _ in range(4):
        x = box.mul(x, box.inv(g))
        box.compare(x, h)
    box.power(x, 11)
    assert ops.snapshot() == (box.stats["muls"], box.stats["invs"], box.stats["compares"])
    assert ops.invs == 4 and ops.compares == 4


def test_counter_sees_wrapper_work_that_stats_miss():
    # SubgroupBox, DirectProductBox and the Frobenius tuple group call the
    # base box's raw operations, which box.stats does not count
    box = make_matrix_blackbox(3, 4, seed=1000)
    ops = count_base_ops(box)
    res = recover_psl2(box, 3, 4, random.Random(0), trials=200)
    assert res.verification["phi_homomorphism_checks"]["passes"] == 200
    assert ops.muls > box.stats["muls"]
    # the count of every base multiplication is fixed by the seed
    assert ops.muls == 13_340
