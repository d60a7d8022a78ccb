#!/usr/bin/env python3
"""bbsl2 benchmark: one workload, one seed, one closed-loop run.

    python3 perfbench/run.py --workload odd-grid --seed 1 --seconds 20 --trace 0

Run from the root of a source checkout; the package is imported from
``src/``. One caller runs a fixed number of passes of the workload back
to back, as many as fill ``--seconds`` on the reference host (at least
two), checks every output outside the timed region, scales every time
by a host-speed probe (``scale``), and prints as the
last line one JSON object: ``correct``, ``attempted``, ``failed`` and
``metrics``. ``--trace 0`` gives the end-to-end metrics, ``--trace 1``
the per-layer metrics of a traced run. The line before it holds the run
metadata, and the full record goes to ``.bench_out/`` in the checkout.
See ``perfbench/README.md``.
"""
from __future__ import annotations

import argparse
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import traceback
from contextlib import nullcontext
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter

from counting import BaseOps, count_base_ops
from tracing import FIELD_CONSTRUCT, Tracer, summarize

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
SETUP_SAMPLES = 4  # cold set-ups per run, each in a fresh interpreter
PROBE_EVERY_S = 0.5  # host-speed probes at least this far apart in the timed loop
# The probe's time on the development machine when quiet. Every reported
# time is scaled to a host on which the probe takes this long (``scale``).
PROBE_REFERENCE_S = 0.005
TAIL_LADDER = (99, 95, 90, 75, 50)
CHILD_TIMEOUT_S = 170


def _import_package():
    if not (SRC / "bbsl2" / "__init__.py").is_file():
        sys.exit(f"error: no package at {SRC / 'bbsl2'}; run from a bbsl2 source checkout")
    sys.path.insert(0, str(SRC))
    import bbsl2

    if Path(bbsl2.__file__).resolve().parent != SRC / "bbsl2":
        sys.exit(f"error: imported bbsl2 from {bbsl2.__file__}, not from {SRC}")


# ---------------------------------------------------------------------------
# run metadata


def _reference_loop(n: int = 2_000_000) -> float:
    """A fixed pure-Python loop; its time tells host drift from program change."""
    t0 = perf_counter()
    acc = 0
    for i in range(n):
        acc = (acc * 31 + i) % 1_000_003
    return perf_counter() - t0


def host_probe() -> float:
    """The host's current speed: the fastest of three short reference loops, in seconds."""
    return min(_reference_loop(50_000) for _ in range(3))


def scale(probes: list[float]) -> float:
    """The factor that takes a time measured amid ``probes`` to the reference host.

    The host this benchmark was built on ran the same work up to 2.4
    times slower in spells of seconds to minutes, with no steal time
    showing: other tenants share its cores and caches. A spell slows the
    probe too, though less than the program's memory-heavy work, so a
    time multiplied by this factor keeps only part of the spell. The
    probe is not program code, so a change to the program does not move
    it. The median of the probes damps the noise of any single one.
    """
    return PROBE_REFERENCE_S / statistics.median(probes)


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _src_lines() -> int:
    """``wc -l`` over the files of src/bbsl2."""
    total = 0
    for path in sorted((SRC / "bbsl2").iterdir()):
        if path.is_file():
            with open(path, "rb") as fh:
                total += fh.read().count(b"\n")
    return total


def run_metadata() -> dict:
    return {
        "python": platform.python_version(),
        "cpu": _cpu_model(),
        "nproc": len(os.sched_getaffinity(0)),
        "src_bbsl2_lines": _src_lines(),
    }


# ---------------------------------------------------------------------------
# the timed loop


@dataclass
class OpRecord:
    op: object
    seconds: float  # wall time as measured
    ok: bool
    oracle_calls: int
    error: str | None = None
    probe: int = 0  # index of the last host probe before the op
    scaled_s: float = 0.0  # ``seconds`` taken to the reference host


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def timed_loop(wl, state, seed: int, passes: int, tracer=None) -> tuple[list[OpRecord], list]:
    """``passes`` passes of the same ops; only ``wl.run`` is timed, not the preparing and checks.

    A host probe runs before an op when the last one is ``PROBE_EVERY_S``
    old, and once at the end. Each op's time is scaled by the three probes
    before it and the three after it. Returns the records and the probe
    times.
    """
    records: list[OpRecord] = []
    probes = [host_probe()]
    probe_at = perf_counter()
    for pass_no in range(passes):
        for op in wl.ops(seed, pass_no, len(records)):
            wl.prepare(state, op, seed, tracer)
            if perf_counter() - probe_at > PROBE_EVERY_S:
                probes.append(host_probe())
                probe_at = perf_counter()
            span = tracer.op(op_id(op), "run", op.cell.name) if tracer else nullcontext()
            calls0 = state.base_ops.total
            out, error = None, None
            t0 = perf_counter()
            try:
                with span:
                    out = wl.run(state, op)
            except Exception:  # a failed op is counted, not fatal
                error = traceback.format_exc(limit=3)
            dt = perf_counter() - t0
            calls = state.base_ops.total - calls0
            ok = False
            if error is None:
                if tracer:
                    tracer.record_stages(op_id(op), wl.stages(out))
                try:
                    ok = wl.check(state, op, out)
                except Exception:
                    error = traceback.format_exc(limit=3)
            records.append(OpRecord(op, dt, ok, calls, error, len(probes) - 1))
    probes.append(host_probe())
    for r in records:
        r.scaled_s = r.seconds * scale(probes[max(0, r.probe - 2):r.probe + 4])
    return records, probes


def op_id(op) -> str:
    return f"{op.pass_no}/{op.index}"


def _tail(ms: list[float]) -> tuple[float, int]:
    """The highest ladder percentile with at least ten samples beyond it, else the maximum."""
    n = len(ms)
    pct = next((p for p in TAIL_LADDER if n * (100 - p) >= 1000), None)
    if pct is None:
        return max(ms), 100
    return statistics.quantiles(ms, n=100, method="inclusive")[pct - 1], pct


def cell_stats(records: list[OpRecord]) -> dict:
    """Per cell: the fastest run of each of its ops, and figures over those.

    Passes repeat the same ops, so the runs of one op differ by host noise
    only, and the fastest is the figure that noise disturbs least. A
    cell's mean, median and tail are taken over the fastest runs of its
    ops; a cell with an op that failed in any pass gets infinity. Times
    are scaled to the reference host; ``mean_ms_all_runs`` is raw.
    """
    slots: dict[tuple, list] = {}
    for r in records:
        slots.setdefault((r.op.cell.name, r.op.slot), []).append(r)
    fastest: dict[str, list] = {}
    for (name, _), runs in slots.items():
        ok = all(r.ok for r in runs)
        fastest.setdefault(name, []).append(min(r.scaled_s for r in runs) * 1000.0 if ok else math.inf)
    out = {}
    for name, ms in fastest.items():
        if math.inf in ms:
            mean = p50 = tail = math.inf
            pct = None
        else:
            mean, p50 = statistics.fmean(ms), statistics.median(ms)
            tail, pct = _tail(ms)
        runs = [r.seconds * 1000.0 for r in records if r.op.cell.name == name]
        out[name] = {"ops": len(ms), "runs": len(runs), "mean_ms": mean, "p50_ms": p50,
                     "tail_ms": tail, "tail_pct": pct, "mean_ms_all_runs": statistics.fmean(runs)}
    return out


def geomean(values) -> float:
    """Geometric mean across cells; every cell counts equally whatever its size."""
    values = list(values)
    if any(v == 0 for v in values):
        return 0.0
    if any(math.isinf(v) for v in values):
        return math.inf
    return statistics.geometric_mean(values)


# ---------------------------------------------------------------------------
# cold set-ups in child processes


def _setup_child(args) -> dict:
    """One cold set-up in a fresh interpreter."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds), "--role", "setup"]
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S, cwd=ROOT)
    if proc.returncode != 0:
        raise RuntimeError(f"set-up child failed ({proc.returncode}): {proc.stderr[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def timed_setup(wl, seed: int, base_ops: BaseOps):
    """The workload's set-up, and its seconds, raw and scaled by probes taken around it."""
    before = [host_probe() for _ in range(3)]
    t0 = perf_counter()
    state = wl.setup(seed, base_ops)
    raw = perf_counter() - t0
    after = [host_probe() for _ in range(3)]
    return state, {"raw_s": raw, "scaled_s": raw * scale(before + after)}


# ---------------------------------------------------------------------------
# metrics


def metric(value, unit: str) -> dict:
    return {"value": value, "unit": unit}


def ops_per_s(cells) -> float:
    mean_ms = geomean(c["mean_ms"] for c in cells)
    return 1000.0 / mean_ms if mean_ms else 0.0


def end_to_end(records, setup_s: float, rss_mb: float) -> dict:
    """Per cell figures, summarised across cells by the geometric mean.

    Cells differ in cost by an order of magnitude, so a pooled figure would
    follow the largest cell and jump with its random search; the geometric
    mean weighs every cell equally. Times come from the fastest run of
    each op (``cell_stats``).
    """
    cells = cell_stats(records).values()
    calls: dict[str, list] = {}
    for r in records:
        calls.setdefault(r.op.cell.name, []).append(r.oracle_calls)
    return {
        "setup_s": metric(setup_s, "s"),
        "ops_per_s": metric(ops_per_s(cells), "1/s"),
        "op_ms_p50": metric(geomean(c["p50_ms"] for c in cells), "ms"),
        "op_ms_tail": metric(geomean(c["tail_ms"] for c in cells), "ms"),
        "oracle_calls_per_op": metric(geomean(statistics.fmean(v) for v in calls.values()), "count"),
        "peak_rss_mb": metric(rss_mb, "MB"),
    }


STAGES = ("unipotent", "classify", "torus", "weyl", "frobenius", "field", "structure-constants",
          "steinberg", "verify", "involution", "unipotent-enumeration")


def per_layer(tracer, records) -> dict:
    from workloads import ALL_CELL_NAMES

    scope = {op_id(r.op) for r in records}
    spans = tracer.in_scope(scope)
    hot: dict[str, list] = {}
    for sp in spans:
        for name, (calls, incl, _own) in sp.agg.items():
            row = hot.setdefault(name, [0, 0.0])
            row[0] += calls
            row[1] += incl

    def calls(name):
        return hot.get(name, (0, 0.0))[0]

    def busy(name):
        return hot.get(name, (0, 0.0))[1]

    def mean_us(*names):
        n = sum(calls(x) for x in names)
        return sum(busy(x) for x in names) / n * 1e6 if n else 0.0

    def named(name):
        return [sp for sp in spans if sp.name == name]

    by_sid = tracer.spans

    def outermost_field(sp):
        parent = sp.parent
        while parent is not None:
            if by_sid[parent].name in FIELD_CONSTRUCT:
                return False
            parent = by_sid[parent].parent
        return True

    m = {
        "backend.mul_us": metric(mean_us("backend.mul"), "us"),
        "backend.inv_us": metric(mean_us("backend.inv"), "us"),
        "backend.compare_us": metric(mean_us("backend.compare"), "us"),
        "backend.codec_us": metric(mean_us("backend.encode", "backend.decode"), "us"),
        "backend.busy_s": metric(busy("backend.mul") + busy("backend.inv") + busy("backend.compare"), "s"),
        "backend.muls": metric(calls("backend.mul"), "count"),
        "backend.invs": metric(calls("backend.inv"), "count"),
        "backend.compares": metric(calls("backend.compare"), "count"),
        "field.construct_s": metric(
            sum(sp.dur for sp in spans if sp.name in FIELD_CONSTRUCT and outermost_field(sp)), "s"),
        "field.mul.calls": metric(calls("field.mul"), "count"),
        "field.mul_raw.calls": metric(calls("field.mul_raw"), "count"),
    }

    # stages: the recognitions of the passes, and those of set-up (morphism-apply)
    stage_scope = scope | {"setup"}
    rows = [row for key, rs in tracer.stage_rows.items() if key in stage_scope for row in rs]
    stage_spans = [sp for sp in tracer.in_scope(stage_scope) if sp.name.startswith("stage.")]
    for name in STAGES:
        mine = [r for r in rows if r[0] == name]
        m[f"stage.{name}.ms"] = metric(sum(r[2] for r in mine), "ms")
        m[f"stage.{name}.samples"] = metric(sum(r[1] for r in mine), "count")
        m[f"stage.{name}.oracle_calls"] = metric(
            sum(sum(sp.oracle_delta()) for sp in stage_spans if sp.name == f"stage.{name}"), "count")

    orders = named("blackbox.element_order")
    brays = named("involutions.bray_element")
    morphs = named("sl2odd.morphism")
    lifts = named("bbfield.lift_int") + named("sl2char2.lift_int")
    m.update({
        "blackbox.element_order.calls": metric(len(orders), "count"),
        "blackbox.element_order.ms": metric(sum(sp.dur for sp in orders) * 1000.0, "ms"),
        "blackbox.samples": metric(calls("blackbox.sample"), "count"),
        "involutions.bray_element.calls": metric(len(brays), "count"),
        "involutions.bray_element.ms": metric(sum(sp.dur for sp in brays) * 1000.0, "ms"),
        "morphism.calls": metric(len(morphs), "count"),
        "morphism.us": metric(statistics.fmean(sp.dur for sp in morphs) * 1e6 if morphs else 0.0, "us"),
        "carrier.lift.calls": metric(len(lifts), "count"),
        "carrier.lift.hit_ratio": metric(
            sum(1 for sp in lifts if not any(sp.oracle_delta())) / len(lifts) if lifts else 0.0, "ratio"),
    })
    cells = cell_stats(records)
    for name in ALL_CELL_NAMES:
        m[f"cell.{name}.ms"] = metric(cells[name]["mean_ms"] if name in cells else 0.0, "ms")
    return m


# ---------------------------------------------------------------------------
# tracing overhead


def trace_overhead(tracer, wl, state, seed: int) -> dict:
    """Time one replay untraced and traced, twice, in the order T U U T.

    A replay does the same work every time (``wl.replay``), so the ratio
    of the traced to the untraced seconds is the cost of tracing alone.
    """
    seconds = {"traced": 0.0, "untraced": 0.0}
    for i, mode in enumerate(("traced", "untraced", "untraced", "traced")):
        traced = mode == "traced"
        if traced:
            tracer.install()
        work = wl.replay(state, seed, tracer if traced else None)
        span = tracer.op(f"overhead/{i}", "overhead", "replay") if traced else nullcontext()
        t0 = perf_counter()
        with span:
            work()
        seconds[mode] += perf_counter() - t0
        if traced:
            tracer.uninstall()
    return {**seconds, "overhead": seconds["traced"] / seconds["untraced"] - 1.0}


# ---------------------------------------------------------------------------
# opacity cross-check


def opacity_check(tracer, workload: str, seed: int) -> dict:
    """Replay one cell on opaque and on transparent boxes: stage counts must agree exactly."""
    from workloads import OPACITY_CELLS, derive, make_box, recognize

    cell = OPACITY_CELLS.get(workload)
    if cell is None:
        return {"checked": False}
    rng_seed = derive(seed, workload, "opacity", cell.name)
    per_mode = {}
    for opaque in (True, False):
        key = f"opacity/{'opaque' if opaque else 'transparent'}"
        box = make_box(cell, seed, opaque=opaque)
        count_base_ops(box, tracer.base_ops)
        with tracer.op(key, "opacity", cell.name):
            res = recognize(box, cell, rng_seed)
        spans = {sp.name[len("stage."):]: sp.oracle_delta()
                 for sp in tracer.in_scope({key}) if sp.name.startswith("stage.")}
        per_mode[key] = [[s.name, s.samples_used, *spans[s.name]] for s in res.stages]
    rows = list(per_mode.values())
    return {"checked": True, "cell": cell.name, "identical": rows[0] == rows[1],
            "columns": ["stage", "samples", "muls", "invs", "compares"], **per_mode}


# ---------------------------------------------------------------------------


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    # cold set-up samples run as child processes
    ap.add_argument("--role", choices=("main", "setup"), default="main", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)

    _import_package()
    from workloads import WORKLOADS, passes_for

    wl = WORKLOADS.get(args.workload)
    if wl is None:
        ap.error(f"unknown workload {args.workload!r}; choose from {', '.join(WORKLOADS)}")

    if args.role == "setup":
        print(json.dumps(timed_setup(wl, args.seed, BaseOps())[1]))
        return 0

    passes = passes_for(wl, args.seconds)
    meta = run_metadata()
    meta.update(workload=args.workload, seed=args.seed, seconds=args.seconds, trace=args.trace,
                passes=passes)
    ref_loop = [_reference_loop()]
    record: dict = {}
    base_ops = BaseOps()
    tracer = None
    if args.trace:
        tracer = Tracer(base_ops)
        tracer.install()
        t0 = perf_counter()
        with tracer.op("setup", "setup", "all"):
            state = wl.setup(args.seed, base_ops, tracer)
        setup_samples = [{"raw_s": perf_counter() - t0}]
    else:
        setup_samples = [_setup_child(args) for _ in range(SETUP_SAMPLES - 1)]
        state, sample = timed_setup(wl, args.seed, base_ops)
        setup_samples.append(sample)

    records, probes = timed_loop(wl, state, args.seed, passes, tracer)
    rss_mb = peak_rss_mb()
    attempted = len(records)
    failed = sum(not r.ok for r in records)
    correct = failed == 0
    pass_s = [sum(r.seconds for r in records if r.op.pass_no == p) for p in range(passes)]
    record.update(
        timed_s=sum(pass_s),
        pass_s=pass_s,
        setup_samples=setup_samples,
        probes_s=probes,
        cells=cell_stats(records),
        errors=[r.error for r in records if r.error][:5],
    )

    if tracer is None:
        metrics = end_to_end(records, min(s["scaled_s"] for s in setup_samples), rss_mb)
    else:
        opacity = opacity_check(tracer, args.workload, args.seed)
        correct = correct and opacity.get("identical", True)
        tracer.uninstall()
        overhead = trace_overhead(tracer, wl, state, args.seed)
        metrics = per_layer(tracer, records)
        scope = {op_id(r.op) for r in records}
        record.update(
            opacity=opacity,
            overhead=overhead,
            trace=summarize(tracer.in_scope(scope)),
            setup_trace=summarize(tracer.in_scope({"setup"})),
        )

    ref_loop.append(_reference_loop())
    meta["reference_loop_s"] = ref_loop
    meta["probe_reference_s"] = PROBE_REFERENCE_S
    if "overhead" in record:
        meta["trace_overhead"] = record["overhead"]["overhead"]
    result = {"correct": bool(correct), "attempted": attempted, "failed": failed, "metrics": metrics}

    OUT.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    with open(OUT / f"{stem}.json", "w") as fh:
        json.dump({"meta": meta, "result": result, **record}, fh, indent=1)
    if tracer is not None:
        tracer.write(OUT / f"{stem}-spans.json", scope | {"setup"})
    print(json.dumps({"meta": meta}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
