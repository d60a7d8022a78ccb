#!/usr/bin/env python3
"""Medians and quartile spreads of benchmark records, per workload and metric.

    python3 perfbench/summarize.py [DIR] [--json OUT]

    python3 perfbench/summarize.py DIR --against OTHER

DIR holds the ``<workload>-seed<n>-trace<t>.json`` records that
``run.py`` writes (default ``.bench_out``). The spread is the distance
between the first and third quartile as a share of the median, the
figure the bounds in ``BENCHMARK.json`` are checked against.
``--against`` compares the medians of DIR with those of the records in
OTHER, taken as the reference: for each end-to-end metric it prints the
share by which DIR is worse, and whether that share and both spreads
are within the metric's bound.
"""
from __future__ import annotations

import argparse
import json
import statistics
from pathlib import Path

BENCHMARK = Path(__file__).resolve().parent.parent / "BENCHMARK.json"


def summarize(directory: Path) -> dict:
    values: dict[tuple, list] = {}
    for path in sorted(directory.glob("*-trace[01].json")):
        rec = json.loads(path.read_text())
        meta = rec["meta"]
        key = (meta["workload"], meta["trace"])
        runs = values.setdefault(key, [])
        runs.append(rec)
    out: dict = {}
    for (workload, trace), runs in sorted(values.items()):
        metrics: dict = {}
        for name in runs[0]["result"]["metrics"]:
            xs = [r["result"]["metrics"][name]["value"] for r in runs]
            med = statistics.median(xs)
            q1, _, q3 = statistics.quantiles(xs, n=4) if len(xs) > 1 else (xs[0],) * 3
            metrics[name] = {
                "unit": runs[0]["result"]["metrics"][name]["unit"],
                "median": med,
                "q1": q1,
                "q3": q3,
                "spread": (q3 - q1) / med if med else 0.0,
            }
        out[f"{workload}/trace{trace}"] = {
            "seeds": [r["meta"]["seed"] for r in runs],
            "all_correct": all(r["result"]["correct"] for r in runs),
            "failed": sum(r["result"]["failed"] for r in runs),
            "attempted": sum(r["result"]["attempted"] for r in runs),
            "reference_loop_s": [x for r in runs for x in r["meta"]["reference_loop_s"]],
            "metrics": metrics,
        }
    return out


def compare(summary: dict, reference: dict) -> bool:
    """Print, per end-to-end metric, how much worse ``summary`` is than ``reference``."""
    spec = {m["name"]: m for m in json.loads(BENCHMARK.read_text())["end_to_end"]}
    all_ok = True
    for group, s in summary.items():
        ref = reference.get(group)
        if ref is None or not group.endswith("/trace0"):
            continue
        print(f"{group} against the reference:")
        for name, m in s["metrics"].items():
            r = ref["metrics"][name]
            sign = 1.0 if spec[name]["better"] == "lower" else -1.0
            worse = sign * (m["median"] - r["median"]) / r["median"]
            bound = spec[name]["bound"]
            spreads_ok = name == "setup_s" or max(m["spread"], r["spread"]) <= bound
            ok = worse <= bound and spreads_ok
            all_ok = all_ok and ok
            print(f"  {name:34s} worse by {worse:+.3f} (bound {bound}), spreads "
                  f"{r['spread']:.3f} / {m['spread']:.3f}  {'ok' if ok else 'OUT OF BOUND'}")
    return all_ok


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("directory", nargs="?", default=".bench_out", type=Path)
    ap.add_argument("--json", type=Path, help="also write the summary here")
    ap.add_argument("--against", type=Path, help="records to compare the medians with")
    args = ap.parse_args()
    summary = summarize(args.directory)
    for group, s in summary.items():
        print(f"{group}: seeds {s['seeds']}, failed {s['failed']}/{s['attempted']}, "
              f"correct {s['all_correct']}")
        for name, m in s["metrics"].items():
            print(f"  {name:34s} {m['median']:14.6g} {m['unit']:6s} spread {m['spread']:.3f}")
    if args.json:
        args.json.write_text(json.dumps(summary, indent=1) + "\n")
    if args.against:
        return 0 if compare(summary, summarize(args.against)) else 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
