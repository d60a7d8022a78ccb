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

    python3 scripts/opacity_benchmark.py --trials 200
"""
import argparse
import random
import time
from dataclasses import dataclass

from bbsl2 import make_matrix_blackbox, recover_char2, recover_psl2


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


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--trials", type=int, default=200)
    ap.add_argument("--seed", type=int, default=0)
    ns = ap.parse_args()
    cfg = BenchConfig(trials=ns.trials, seed=ns.seed)

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
