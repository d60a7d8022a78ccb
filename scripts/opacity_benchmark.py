#!/usr/bin/env python3
"""Measure what string encryption costs and check it changes no statistics.

Runs the same seeded recognition per size on encrypted strings and on
canonical ones, then reports the wall-time ratio and verifies that
stage-by-stage sample counts, verification results and the base box's
mul, inv and compare counts agree exactly.
Each mode is timed after an untimed warm-up run, as the fastest of
three runs, so one-off set-up is charged to neither side. Any
disagreement means an algorithm peeked at string internals, which
would invalidate every black box claim.

First it prints the cost of each backend operation in microseconds,
the best of five rounds of 200 calls, on both kinds of strings: mul,
inv, compare, encode, and decode of a string the backend made lately
(a memo hit) or has never seen (a miss, which decrypts). Transparent
strings have no memo; each decode parses them. A "morphism image" row
per group of the benchmark's morphism-apply workload follows: the us
per image of a recovered morphism, and the base box's muls, invs and
compares per image, once the unipotents its inputs need are lifted.
A "char-2 lift" row per SL2(16) and SL2(2^8) gives the base box's
muls, invs and compares per ``lift_int`` of the recovered field, over
its nonzero elements; a lift of j multiplies the popcount(j) basis
markers of its bits, popcount(j) - 1 muls, and carries no witness, so
it neither inverts nor compares.

An "off-box field work" row per field gives the ms of the steps of the
structure-constants stage, which make no oracle call, on the
presentation a recognition recovered: the log tables of a fresh copy
(``tables``), then ``validate`` once they are built, which finds the
isomorphism to ``polynomial_field(p, k)`` and proves it on the k^2
basis products. The standard presentation the box was built over is
one object per (p, k) per process, and so has its tables already. The
two add up to the stage.

A "cold start" table follows: in a fresh interpreter, the ms of
importing bbsl2 and then of building the ten boxes of the benchmark's
odd-grid workload, each with the process's peak resident set size
(``ru_maxrss``, MB) after it; the best of three interpreters. Every
process that recognizes a group pays this before its first sample.

    python3 scripts/opacity_benchmark.py --trials 200
"""
import argparse
import json
import os
import random
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

import bbsl2
from bbsl2 import make_matrix_blackbox, oracle, recover_char2, recover_psl2
from bbsl2.backend import MatrixBackend
from bbsl2.field import ExplicitField

_OP_ROUNDS = 5
_OP_CALLS = 200
# strings cycled by the ops on recent strings; fewer than a memo generation
_OP_RECENT = 40
# (label, p, k, center quotient) of the morphism image rows
_IMAGE_GROUPS = [("PSL2(13)", 13, 1, True), ("SL2(81)", 3, 4, False), ("SL2(16)", 2, 4, False)]
# (label, n) of the char-2 lift rows
_LIFT_GROUPS = [("SL2(16)", 4), ("SL2(2^8)", 8)]
# (label, p, k) of the off-box field rows
_FIELDS = [("GF(2^4)", 2, 4), ("GF(2^8)", 2, 8), ("GF(2^12)", 2, 12), ("GF(3^4)", 3, 4), ("GF(13^2)", 13, 2)]
_COLD_RUNS = 3
# run in a fresh interpreter: import bbsl2, then build the odd-grid boxes
# (q = 9, 13, 29, 81, 169, as SL2 and PSL2); prints ms and peak MB of each
_COLD_START = """
import json, resource, sys, time
t0 = time.perf_counter()
import bbsl2
t1 = time.perf_counter()
rss1 = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
boxes = [bbsl2.make_matrix_blackbox(p, k, center_quotient=cq, seed=int(sys.argv[1]))
         for p, k in ((3, 2), (13, 1), (29, 1), (3, 4), (13, 2)) for cq in (False, True)]
t2 = time.perf_counter()
rss2 = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
print(json.dumps([[1e3 * (t1 - t0), rss1], [1e3 * (t2 - t1), rss2]]))
"""


@dataclass
class BenchConfig:
    trials: int = 200
    seed: int = 0


def _timed_run(recognize, opaque: bool, cfg: BenchConfig):
    """The result of a warm-up run and the fastest of three timed runs."""
    res = recognize(opaque, random.Random(cfg.seed), cfg.trials)
    best = float("inf")
    for _ in range(3):
        t0 = time.perf_counter()
        recognize(opaque, random.Random(cfg.seed), cfg.trials)
        best = min(best, time.perf_counter() - t0)
    return res, best


def _base_counts(res) -> tuple[int, int, int]:
    """Muls, invs and compares of the recognized box itself."""
    stats = res.morphism.box.stats
    return stats["muls"], stats["invs"], stats["compares"]


def _compare(label: str, recognize, cfg: BenchConfig) -> bool:
    res_o, t_o = _timed_run(recognize, True, cfg)
    res_t, t_t = _timed_run(recognize, False, cfg)
    counts = _base_counts(res_o)
    same_stats = (
        res_o.verification == res_t.verification
        and [s.samples_used for s in res_o.stages] == [s.samples_used for s in res_t.stages]
        and counts == _base_counts(res_t)
    )
    ratio = t_o / t_t if t_t > 0 else float("inf")
    print(
        f"{label:>12}: opaque {t_o:6.2f}s, transparent {t_t:6.2f}s,"
        f" overhead x{ratio:4.2f}, stats {'identical' if same_stats else 'DIFFER'},"
        " base box {} muls, {} invs, {} compares".format(*counts)
    )
    return same_stats


def _best_us(run, fresh=None) -> float:
    """Fastest round of ``run`` over _OP_CALLS calls, in us per call.

    ``fresh``, if given, is called before each round, untimed, and its
    result is passed to ``run``.
    """
    best = float("inf")
    for _ in range(_OP_ROUNDS):
        arg = fresh() if fresh else None
        t0 = time.perf_counter()
        run(arg)
        best = min(best, time.perf_counter() - t0)
    return best / _OP_CALLS * 1e6


def _op_row(label: str, p: int, k: int, cq: bool, opaque: bool, seed: int) -> str:
    box = make_matrix_blackbox(p, k, center_quotient=cq, opaque=opaque, seed=seed)
    be = box.backend
    rng = random.Random(seed)
    mats = [be.decode(box.sample(rng)) for _ in range(_OP_CALLS)]
    # ops on strings the backend made lately, as in a recognition, where
    # most decodes hit the memo; cycling a few of them keeps them in it
    xs = [be.encode(m) for m in mats[:_OP_RECENT]] * (_OP_CALLS // _OP_RECENT)
    pairs = list(zip(xs, xs[1:] + xs[:1]))

    def mul(_):
        for x, y in pairs:
            box._mul(x, y)

    def inv(_):
        for x in xs:
            box._inv(x)

    def compare(_):
        for x, y in pairs:
            box._compare(x, y)

    def encode(_):
        for m in mats:
            be.encode(m)

    def decode(arg):
        backend, strings = arg
        for x in strings:
            backend.decode(x)

    def fresh():
        return MatrixBackend(be.field, center_quotient=cq, opaque=opaque, seed=seed)

    cells = [_best_us(op) for op in (mul, inv, compare, encode)]
    hit = None
    if opaque:
        hb = fresh()
        made = [hb.encode(m) for m in mats[:_OP_RECENT]] * (_OP_CALLS // _OP_RECENT)
        hit = _best_us(decode, lambda: (hb, made))
    strings = [be.encode(m) for m in mats]
    miss = _best_us(decode, lambda: (fresh(), strings))
    return f"{label:>10} {'opaque' if opaque else 'transparent':>11}" + "".join(
        f" {v:8.2f}" if v is not None else f" {'-':>8}" for v in cells + [hit, miss]
    )


def _image_row(label: str, p: int, k: int, cq: bool, opaque: bool, cfg: BenchConfig) -> str:
    """us per image of a recovered morphism, then base-box muls, invs and compares per image."""
    box = make_matrix_blackbox(p, k, center_quotient=cq, opaque=opaque, seed=cfg.seed)
    rng = random.Random(cfg.seed)
    if p == 2:
        res = recover_char2(box, k, rng, trials=cfg.trials)
    else:
        res = recover_psl2(box, p, k, rng, trials=cfg.trials)
    mats = [oracle.random_sl2(res.explicit, rng) for _ in range(_OP_CALLS)]

    def images(_):
        for m in mats:
            res.morphism(m)

    # the first pass lifts the unipotents the inputs need; the lifts work
    # in the Frobenius tuple group, whose raw calls box.stats would miss
    images(None)
    before = dict(box.stats)
    images(None)
    ops = [(box.stats[key] - before[key]) / _OP_CALLS for key in ("muls", "invs", "compares")]
    return f"{label:>10} {'opaque' if opaque else 'transparent':>11}" + "".join(
        f" {v:8.2f}" for v in [_best_us(images)] + ops
    )


def _lift_row(label: str, n: int, cfg: BenchConfig) -> str:
    """Base-box muls, invs and compares per lift_int of the recovered field of SL2(2^n)."""
    box = make_matrix_blackbox(2, n, seed=cfg.seed)
    field = recover_char2(box, n, random.Random(cfg.seed), trials=cfg.trials).field
    before = dict(box.stats)
    for j in range(1, 1 << n):
        field.lift_int(j)
    lifts = (1 << n) - 1
    ops = [(box.stats[key] - before[key]) / lifts for key in ("muls", "invs", "compares")]
    return f"{label:>10}" + "".join(f" {v:8.2f}" for v in ops)


def _field_row(label: str, p: int, k: int, cfg: BenchConfig) -> str:
    """ms of the off-box steps of the structure-constants stage, best of _OP_ROUNDS."""
    box = make_matrix_blackbox(p, k, seed=cfg.seed)
    rng = random.Random(cfg.seed)
    if p == 2:
        res = recover_char2(box, k, rng, trials=cfg.trials)
    else:
        res = recover_psl2(box, p, k, rng, trials=cfg.trials)
    c = res.explicit.c
    best = [float("inf")] * 2
    for _ in range(_OP_ROUNDS):
        E = ExplicitField(p, k, c)
        t0 = time.perf_counter()
        E._tables
        t1 = time.perf_counter()
        E.validate()
        t2 = time.perf_counter()
        best = [min(b, t) for b, t in zip(best, (t1 - t0, t2 - t1))]
    return f"{label:>10}" + "".join(f" {1e3 * v:10.2f}" for v in best)


def _cold_start_rows(cfg: BenchConfig) -> list[str]:
    """ms and peak MB of the import and the box building, best of _COLD_RUNS interpreters."""
    env = dict(os.environ, PYTHONPATH=str(Path(bbsl2.__file__).resolve().parents[1]))
    cmd = [sys.executable, "-c", _COLD_START, str(cfg.seed)]
    runs = [json.loads(subprocess.run(cmd, capture_output=True, text=True, env=env, check=True).stdout)
            for _ in range(_COLD_RUNS)]
    return [f"{label:>10}" + "".join(f" {min(v):10.2f}" for v in zip(*steps))
            for label, steps in zip(("import", "boxes"), zip(*runs))]


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--trials", type=int, default=200)
    ap.add_argument("--seed", type=int, default=0)
    ns = ap.parse_args()
    cfg = BenchConfig(trials=ns.trials, seed=ns.seed)

    print(f"per op, us: best of {_OP_ROUNDS} rounds of {_OP_CALLS} calls")
    print(f"{'group':>10} {'strings':>11}" + "".join(
        f" {h:>8}" for h in ("mul", "inv", "compare", "encode", "dec-hit", "dec-miss")
    ))
    for label, p, k, cq in [("PSL2(13)", 13, 1, True), ("SL2(81)", 3, 4, False),
                            ("SL2(169)", 13, 2, False), ("SL2(2^8)", 2, 8, False)]:
        for opaque in (True, False):
            print(_op_row(label, p, k, cq, opaque, cfg.seed))
    print(f"morphism image: us, and base-box ops per image, over {_OP_CALLS} images")
    print(f"{'group':>10} {'strings':>11}" + "".join(
        f" {h:>8}" for h in ("us", "muls", "invs", "compares")
    ))
    for label, p, k, cq in _IMAGE_GROUPS:
        for opaque in (True, False):
            print(_image_row(label, p, k, cq, opaque, cfg))
    print("char-2 lift: base-box ops per lift_int, over the nonzero field elements")
    print(f"{'group':>10}" + "".join(f" {h:>8}" for h in ("muls", "invs", "compares")))
    for label, n in _LIFT_GROUPS:
        print(_lift_row(label, n, cfg))
    print(f"off-box field work, ms: the structure-constants stage, best of {_OP_ROUNDS} rounds")
    print(f"{'field':>10}" + "".join(f" {h:>10}" for h in ("tables", "validate")))
    for label, p, k in _FIELDS:
        print(_field_row(label, p, k, cfg))
    print(f"cold start: a fresh interpreter imports bbsl2, then builds the odd-grid boxes;"
          f" best of {_COLD_RUNS}")
    print(f"{'step':>10}" + "".join(f" {h:>10}" for h in ("ms", "maxrss-mb")))
    for row in _cold_start_rows(cfg):
        print(row)
    print()

    all_same = True
    for p, k in [(13, 1), (29, 1), (3, 4), (13, 2)]:
        def recognize(opaque, rng, trials, p=p, k=k):
            box = make_matrix_blackbox(p, k, opaque=opaque, seed=cfg.seed)
            return recover_psl2(box, p, k, rng, trials=trials)

        all_same &= _compare(f"SL2({p**k})", recognize, cfg)
    for n in [3, 8]:
        def recognize(opaque, rng, trials, n=n):
            box = make_matrix_blackbox(2, n, opaque=opaque, seed=cfg.seed)
            return recover_char2(box, n, rng, trials=trials)

        all_same &= _compare(f"SL2(2^{n})", recognize, cfg)

    print("opacity regression:", "clean" if all_same else "STATISTICS DIFFER")
    return 0 if all_same else 1


if __name__ == "__main__":
    raise SystemExit(main())
