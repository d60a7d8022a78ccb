#!/usr/bin/env python3
"""Measure the costs of recognition and print them as one JSON document.

Oracle counts are complete base-box totals from
``perfbench/counting.count_base_ops``, which also sees the raw calls of
``SubgroupBox``, the Frobenius tuple group among them. Times are the best of five
rounds unless said otherwise. The sections:

- ``meta``: the Python version, ``os.cpu_count()``, ``cpu_model``, the
  first "model name" of ``/proc/cpuinfo`` (null where there is none),
  ``src_lines``, the line count of the package, as
  ``cat src/bbsl2/*.py src/bbsl2/*.json | wc -l``, ``max_module_tokens``,
  the parser tokens (all but comments and blank lines) of its largest
  module, which compiling without a bytecode cache holds in memory at
  once, ``exports``, the number of names in ``bbsl2.__all__``, and
  ``ref_loop_ms``, the ms of a fixed pure-Python loop, best of
  _ROUNDS, timed ``before`` and ``after`` the rest: divide a wall time by
  it to compare hosts.
- ``per_op``: us per backend op over 200 calls, on opaque and transparent
  strings: mul, inv, compare and encode on strings the backend made,
  which are handles; decode of such a string (``decode``) and of a copy
  given by its bytes (``decode_bytes``, which decrypts when opaque); and
  ``seal``, the first read of a handle's ``data``, which draws the
  string's nonce and encrypts when opaque.
- ``images``: per morphism-apply group and kind of string, us per image of
  a recovered morphism, and the muls, invs and compares of ``images``
  images once the unipotents their inputs need are lifted.
- ``lifts``: the muls, invs and compares of ``lift_int`` over the ``lifts``
  nonzero elements of the field recovered from SL2(2^n): popcount(j) - 1
  muls for j, and no witness, so no inv or compare.
- ``off_box``: ms of the oracle-free steps of the structure-constants
  stage on a recovered presentation: a fresh copy's log tables, then
  ``validate``, which finds and proves the isomorphism to the standard one.
- ``standard_fields``: ms of the three steps that build a standard
  presentation from cold ``@cache``s, best of three: the irreducible
  search ``smallest_irreducible``, then ``polynomial_field`` with the
  polynomial known, then its log tables; and ``constructor_ms``, the
  ``ExplicitField`` constructor alone on the same structure constants.
- ``cold_start``: ms and peak RSS (MB) of a fresh interpreter's import of
  bbsl2, then of its building the ten odd-grid boxes, then the four
  char2-grid boxes, whose fields the odd ones do not share; best of three.
- ``detection``: per cost-table group, recognized once, how many of
  ``faults`` one-point faults pass all ``trials`` homomorphism checks
  (``escaped``). Fault i replaces the cached image of one unipotent u(t0)
  by u(t0)·u(1), so the map is wrong at one field element; t0 is the first
  draw of ``Random(i)`` in [2, q), the verify loop's pairs its next draws.
  ``lifts_per_trial`` is λ, the mean number of distinct nonzero t that
  one trial lifts through ``SteinbergMorphism._u_int``, over ``trials``
  trials drawn from ``Random("lifts")`` after the faults, and
  ``predicted`` the escapes that the law faults·exp(−λ·trials/q) expects.
- ``runs``: per group of the grid and seed, the stage samples,
  verification, base-box counts, ``stage_ops`` (the base-box muls, invs
  and compares of each stage, which sum to the counts) and seconds of a
  run on opaque strings. Seed 0 also runs on transparent strings, each
  kind timed after a warm-up as the fastest of three runs, and all but
  the seconds must match (``identical``), stage by stage: else an
  algorithm peeked at string internals.
  A failed, inexact or not identical run makes the script exit 1.

    python3 scripts/bench.py --odd 13,1 29,1 --char2 3 4 --seeds 10 --center-quotient
"""
import argparse
import json
import math
import os
import random
import subprocess
import sys
import time
import tokenize
from contextlib import contextmanager
from pathlib import Path

import bbsl2
from bbsl2 import make_matrix_blackbox, modp, oracle, recognize
from bbsl2.blackbox import ElementString
from bbsl2.errors import ContractViolation, MonteCarloFailure
from bbsl2.field import ExplicitField
from bbsl2.stages import StageRecorder

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))
from counting import count_base_ops  # noqa: E402

_ROUNDS = 5
_CALLS = 200
_STRINGS = {True: "opaque", False: "transparent"}
_OPS = ("muls", "invs", "compares")
# (p, k, center quotient) of the per-op, image and lift rows; (p, k) of the off-box rows
_OP_GROUPS = [(13, 1, True), (3, 4, False), (13, 2, False), (2, 8, False)]
_IMAGE_GROUPS = [(13, 1, True), (3, 4, False), (2, 4, False)]
_LIFT_GROUPS = [(2, 4, False), (2, 8, False)]
_FIELDS = [(2, 4), (2, 8), (2, 12), (3, 4), (13, 2)]
_STANDARD_FIELDS = [(2, 8), (2, 12), (2, 16), (3, 6)]
_DETECTION_GROUPS = [(13, 1, False), (3, 4, False), (13, 2, False), (5, 4, False), (3, 6, False),
                     (2, 8, False), (2, 12, False)]
_FAULTS = 40
# run in a fresh interpreter: import bbsl2, build the odd-grid boxes (q = 9,
# 13, 29, 81, 169, as SL2 and PSL2), then the char2-grid boxes (2^2, 2^3,
# 2^4, 2^8); prints ms and peak MB of each step. The peak is VmHWM, the high
# water mark of the interpreter's own memory map: ru_maxrss keeps the peak of
# the process that spawned it across exec, here the larger bench process
_COLD_START = """
import json, time
def peak():
    with open("/proc/self/status") as f:
        return next(int(line.split()[1]) for line in f if line.startswith("VmHWM:")) / 1024
t0 = time.perf_counter()
import bbsl2
t1 = time.perf_counter()
rss1 = peak()
boxes = [bbsl2.make_matrix_blackbox(p, k, center_quotient=cq, seed=0)
         for p, k in ((3, 2), (13, 1), (29, 1), (3, 4), (13, 2)) for cq in (False, True)]
t2 = time.perf_counter()
rss2 = peak()
boxes += [bbsl2.make_matrix_blackbox(2, n, seed=0) for n in (2, 3, 4, 8)]
t3 = time.perf_counter()
rss3 = peak()
print(json.dumps([[1e3 * (t1 - t0), rss1], [1e3 * (t2 - t1), rss2], [1e3 * (t3 - t2), rss3]]))
"""


def _label(p: int, k: int, cq: bool) -> str:
    return f"SL2(2^{k})" if p == 2 else f"{'P' if cq else ''}SL2({p**k})"


def _pair(text: str) -> tuple:
    p, k = map(int, text.split(","))
    return p, k


def _recognize(group, seed: int, opaque: bool, trials: int):
    """The result, live base-box counter, seconds and per-stage counts
    (``_stage_counts``) of a recognition on a fresh box."""
    p, k, cq = group
    box = make_matrix_blackbox(p, k, center_quotient=cq, opaque=opaque, seed=seed)
    ops = count_base_ops(box)
    rng = random.Random(seed)
    stage_ops = {}
    with _stage_counts(ops, stage_ops):
        t0 = time.perf_counter()
        res = recognize(box, p, k, rng, trials=trials)
        seconds = time.perf_counter() - t0
    return res, ops, seconds, stage_ops


@contextmanager
def _stage_counts(ops, into: dict):
    """Within it, each ``StageRecorder`` stage also records into ``into``, by
    name, the base-box muls, invs and compares made inside it."""
    stage = StageRecorder.stage

    @contextmanager
    def counted(rec, name):
        before = ops.snapshot()
        with stage(rec, name):
            yield
        into[name] = _since(ops, before)

    StageRecorder.stage = counted
    try:
        yield
    finally:
        StageRecorder.stage = stage


def _since(ops, before) -> dict:
    """The base-box muls, invs and compares made since the snapshot ``before``."""
    return dict(zip(_OPS, (b - a for a, b in zip(before, ops.snapshot()))))


def _cost(ops, work) -> dict:
    """The base-box muls, invs and compares that ``work()`` makes."""
    before = ops.snapshot()
    work()
    return _since(ops, before)


def _best_us(run, fresh=lambda: None) -> float:
    """us per call of ``run(fresh())`` over _CALLS calls, the best of _ROUNDS; untimed ``fresh``."""
    best = float("inf")
    for _ in range(_ROUNDS):
        arg = fresh()
        t0 = time.perf_counter()
        run(arg)
        best = min(best, time.perf_counter() - t0)
    return best / _CALLS * 1e6


def _per_op(group, opaque: bool) -> dict:
    p, k, cq = group
    box = make_matrix_blackbox(p, k, center_quotient=cq, opaque=opaque, seed=0)
    be = box.backend
    rng = random.Random(0)
    mats = [be.decode(box.sample(rng)) for _ in range(_CALLS)]
    xs = [be.encode(m) for m in mats]
    pairs = list(zip(xs, xs[1:] + xs[:1]))
    copies = [ElementString(x.data) for x in xs]

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

    def decode(strings):
        for x in strings:
            be.decode(x)

    def seal(strings):
        for x in strings:
            x.data

    row = {"group": _label(*group), "strings": _STRINGS[opaque]}
    row.update((op.__name__, _best_us(op)) for op in (mul, inv, compare, encode))
    row["decode"] = _best_us(decode, lambda: xs)
    row["decode_bytes"] = _best_us(decode, lambda: copies)
    row["seal"] = _best_us(seal, lambda: [be.encode(m) for m in mats])
    return row


def _images(group, opaque: bool, trials: int) -> dict:
    res, ops, *_ = _recognize(group, 0, opaque, trials)
    rng = random.Random(1)
    mats = [oracle.random_sl2(res.explicit, rng) for _ in range(_CALLS)]

    def images(_):
        for m in mats:
            res.morphism(m)

    images(None)  # lifts the unipotents the inputs need
    return {"group": _label(*group), "strings": _STRINGS[opaque], "us": _best_us(images),
            "images": _CALLS, **_cost(ops, lambda: images(None))}


def _lifts(group, trials: int) -> dict:
    res, ops, *_ = _recognize(group, 0, True, trials)
    lifts = range(1, 1 << group[1])
    cost = _cost(ops, lambda: [res.field.lift_int(j) for j in lifts])
    return {"group": _label(*group), "lifts": len(lifts), **cost}


def _off_box(p: int, k: int, trials: int) -> dict:
    c = _recognize((p, k, False), 0, True, trials)[0].explicit.c
    tables = validate = float("inf")
    for _ in range(_ROUNDS):
        E = ExplicitField(p, k, c)
        t0 = time.perf_counter()
        E._tables
        t1 = time.perf_counter()
        E.validate()
        t2 = time.perf_counter()
        tables, validate = min(tables, t1 - t0), min(validate, t2 - t1)
    return {"field": f"GF({p}^{k})", "tables_ms": 1e3 * tables, "validate_ms": 1e3 * validate}


def _standard_field(p: int, k: int) -> dict:
    best = [float("inf")] * 4
    for _ in range(3):
        modp.smallest_irreducible.cache_clear()
        ExplicitField.polynomial_field.cache_clear()
        t0 = time.perf_counter()
        modp.smallest_irreducible(p, k)
        t1 = time.perf_counter()
        F = ExplicitField.polynomial_field(p, k)
        t2 = time.perf_counter()
        F._tables
        t3 = time.perf_counter()
        ExplicitField(p, k, F.c)
        t4 = time.perf_counter()
        best = [min(b, t) for b, t in zip(best, (t1 - t0, t2 - t1, t3 - t2, t4 - t3))]
    steps = ("smallest_irreducible_ms", "polynomial_field_ms", "tables_ms", "constructor_ms")
    return {"field": f"GF({p}^{k})", **{step: 1e3 * t for step, t in zip(steps, best)}}


def _cold_start() -> list:
    env = dict(os.environ, PYTHONPATH=str(Path(bbsl2.__file__).resolve().parents[1]))
    cmd = [sys.executable, "-c", _COLD_START]
    runs = [json.loads(subprocess.run(cmd, capture_output=True, text=True, env=env, check=True).stdout)
            for _ in range(3)]
    return [{"step": step, "ms": min(ms), "maxrss_mb": min(mb)}
            for step, (ms, mb) in zip(("import", "boxes", "char2-boxes"), (zip(*s) for s in zip(*runs)))]


def _detection(group, trials: int) -> dict:
    res = _recognize(group, 0, True, trials)[0]
    phi, box, q = res.morphism, res.morphism.box, res.explicit.order
    escaped = 0
    for i in range(_FAULTS):
        rng = random.Random(i)
        t0 = rng.randrange(2, q)
        true_u = phi._u_int(t0)
        phi._unipotents[t0] = box.mul(true_u, phi._u_int(res.explicit.one))
        escaped += phi.homomorphism_passes(trials, rng) == trials
        phi._unipotents[t0] = true_u
    lam = _lifts_per_trial(phi, trials)
    return {"group": _label(*group), "trials": trials, "faults": _FAULTS, "escaped": escaped,
            "lifts_per_trial": lam, "predicted": _FAULTS * math.exp(-lam * trials / q)}


def _lifts_per_trial(phi, trials: int) -> float:
    """The mean number of distinct nonzero t whose u(t) one verify trial
    lifts through ``_u_int``, over ``trials`` trials of its own rng."""
    rng, lifted, total = random.Random("lifts"), set(), 0
    lift = phi._u_int
    phi._u_int = lambda t: lifted.add(t) or lift(t)
    for _ in range(trials):
        lifted.clear()
        phi.homomorphism_passes(1, rng)
        total += len(lifted - {0})
    del phi._u_int
    return total / trials


def _stats(res, ops, seconds: float, stage_ops: dict) -> dict:
    """What a run on one kind of string gave; all but ``s`` must match across kinds."""
    return {"samples": {s.name: s.samples_used for s in res.stages},
            "verification": res.verification, **dict(zip(_OPS, ops.snapshot())),
            "stage_ops": stage_ops, "s": seconds}


def _run(group, seed: int, trials: int) -> dict:
    """One record of ``runs``; seed 0 runs on both kinds of string, timed as best of three."""
    record = {"group": _label(*group), "seed": seed}
    for opaque in (True, False) if seed == 0 else (True,):
        try:
            res, ops, seconds, stage_ops = _recognize(group, seed, opaque, trials)
            if seed == 0:
                seconds = min(_recognize(group, seed, opaque, trials)[2] for _ in range(3))
        except (MonteCarloFailure, ContractViolation) as exc:
            record.update(exact=False, error=f"{type(exc).__name__}: {exc}")
            return record
        record[_STRINGS[opaque]] = _stats(res, ops, seconds, stage_ops)
    checks = record["opaque"]["verification"]["phi_homomorphism_checks"]
    record["exact"] = checks["passes"] == checks["trials"]
    if seed == 0:
        strip = [{k: v for k, v in record[s].items() if k != "s"} for s in _STRINGS.values()]
        record["identical"] = strip[0] == strip[1]
    return record


def _meta() -> dict:
    src = Path(bbsl2.__file__).parent
    files = [*src.glob("*.py"), *src.glob("*.json")]
    return {
        "python": sys.version.split()[0],
        "cpu_count": os.cpu_count(),
        "cpu_model": _cpu_model(),
        "src_lines": sum(f.read_bytes().count(b"\n") for f in files),
        "max_module_tokens": max(map(_parser_tokens, src.glob("*.py"))),
        "exports": len(bbsl2.__all__),
        "ref_loop_ms": {"before": _ref_loop_ms()},
    }


def _cpu_model() -> str | None:
    try:
        with open("/proc/cpuinfo") as fh:
            return next((line.split(":", 1)[1].strip() for line in fh if line.startswith("model name")), None)
    except OSError:
        return None


def _ref_loop_ms() -> float:
    """ms of a fixed pure-Python loop, the best of _ROUNDS."""
    best = float("inf")
    for _ in range(_ROUNDS):
        t0 = time.perf_counter()
        acc = 0
        for i in range(100_000):
            acc = (acc * 31 + i) & 0xFFFF
        best = min(best, time.perf_counter() - t0)
    return 1e3 * best


def _parser_tokens(path: Path) -> int:
    with path.open("rb") as fh:
        toks = tokenize.tokenize(fh.readline)
        return sum(t.type not in (tokenize.COMMENT, tokenize.NL, tokenize.ENCODING) for t in toks)


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--odd", nargs="*", type=_pair, metavar="p,k", help="odd prime powers of the grid",
                    default=[(3, 2), (13, 1), (29, 1), (3, 4), (13, 2)])
    ap.add_argument("--char2", nargs="*", type=int, metavar="n", default=[2, 3, 4, 8],
                    help="degrees of the grid's SL2(2^n)")
    ap.add_argument("--seeds", type=int, default=5, help="seeds 0..N-1 per group of the grid")
    ap.add_argument("--trials", type=int, default=200, help="verification trials per recognition")
    ap.add_argument("--center-quotient", action="store_true", help="run the grid's odd groups as PSL")
    ns = ap.parse_args()
    grid = [(p, k, ns.center_quotient) for p, k in ns.odd] + [(2, n, False) for n in ns.char2]

    doc = {
        "meta": _meta(),
        "per_op": [_per_op(g, opaque) for g in _OP_GROUPS for opaque in (True, False)],
        "images": [_images(g, opaque, ns.trials) for g in _IMAGE_GROUPS for opaque in (True, False)],
        "lifts": [_lifts(g, ns.trials) for g in _LIFT_GROUPS],
        "off_box": [_off_box(p, k, ns.trials) for p, k in _FIELDS],
        "standard_fields": [_standard_field(p, k) for p, k in _STANDARD_FIELDS],
        "cold_start": _cold_start(),
        "detection": [_detection(g, ns.trials) for g in _DETECTION_GROUPS],
        "runs": [_run(g, seed, ns.trials) for g in grid for seed in range(ns.seeds)],
    }
    doc["meta"]["ref_loop_ms"]["after"] = _ref_loop_ms()
    print(json.dumps(doc, indent=1))
    return int(any(not r["exact"] or not r.get("identical", True) for r in doc["runs"]))


if __name__ == "__main__":
    raise SystemExit(main())
