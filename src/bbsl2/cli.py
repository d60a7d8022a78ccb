"""Command-line driver for the recognition pipelines.

Modes: recognize ((P)SL2(p^k) recovery, by the characteristic-2
pipeline at p = 2 and the odd one otherwise), field-report (prove an
explicit field file to be F_q and report its isomorphism to the standard
presentation), selftest (recognize SL2(5), PSL2(9) and SL2(16), one box
per backend kernel, on opaque and on transparent strings).

recognize takes the group from --p and --k (default 1) over the
standard generators, or from --input alone, a JSON file {"p": int,
"k": int, "center_quotient": bool, "generators": [[[entries]]]} holding
nested 2x2 matrices whose entries are ints, read as prime-field scalars,
or length-k coordinate vectors over the prime field in the polynomial
basis; any other key is rejected.
field-report takes only --input, a field serialization {"p", "k", "c"}
such as the structure_constants object of a recognition report, and
--out. selftest takes only --seed and --out. A seed below 0 is rejected.

Reports are JSON: {"mode", "seed", "params", "stages": [{name,
samples_used, elapsed_ms, ok}], "verification": {...}} plus optional
"structure_constants"; field-report draws nothing at random and reports
no "seed". They validate against report.schema.json shipped with the
package. Exit codes: 0 verified success, 1 rejected input, 2 Monte
Carlo budget exhausted, 3 contract violation.
"""
from __future__ import annotations

import argparse
import json
import os
import random
import sys

from .backend import MatrixBackend, make_matrix_blackbox
from .errors import ContractViolation, InputError, MonteCarloFailure
from .field import ExplicitField
from .sl2char2 import recognize
from .sl2odd import check_params, check_trials


class _Parser(argparse.ArgumentParser):
    # argparse exits 2 on usage errors; 2 means Monte Carlo failure here
    def error(self, message):
        self.exit(1, f"{self.prog}: error: {message}\n")


def _build_parser() -> _Parser:
    out = argparse.ArgumentParser(add_help=False)
    out.add_argument("--out", help="write the JSON report here instead of stdout")
    seeded = argparse.ArgumentParser(add_help=False, parents=[out])
    seeded.add_argument("--seed", type=int, default=0, help="PRNG seed (default 0)")
    parser = _Parser(prog="bbsl2", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="mode", required=True)
    rec = sub.add_parser("recognize", parents=[seeded])
    rec.add_argument("--p", type=int, help="field characteristic")
    rec.add_argument("--k", type=int, help="field degree over F_p (default 1)")
    rec.add_argument("--input", help="JSON group description file, instead of --p and --k")
    rec.add_argument("--trials", type=int, default=200, help="verification trials (default 200)")
    rec.add_argument("--transparent", dest="opaque", action="store_false",
                     help="canonical byte strings instead of encrypted ones")
    report = sub.add_parser("field-report", parents=[out])
    report.add_argument("--input", required=True, help="explicit field file {p, k, c}")
    sub.add_parser("selftest", parents=[seeded])
    return parser


def _load_json(path: str) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            data = json.load(fh)
    except (OSError, ValueError) as exc:  # ValueError: bad JSON or bytes that are not UTF-8
        raise InputError(f"cannot read JSON from {path}: {exc}") from exc
    if not isinstance(data, dict):
        raise InputError("input file must hold a JSON object")
    return data


def _entry_to_element(field: ExplicitField, entry) -> int:
    # type() and not isinstance(): JSON true is a bool, which is an int subclass
    if type(entry) is int:
        return field.scalar(entry)
    if isinstance(entry, list) and len(entry) == field.k and all(type(x) is int for x in entry):
        return field.element(tuple(x % field.p for x in entry))
    raise InputError("matrix entries must be residues or length-k residue vectors")


def _parse_matrix(field: ExplicitField, mat):
    if not (isinstance(mat, list) and len(mat) == 2
            and all(isinstance(row, list) and len(row) == 2 for row in mat)):
        raise InputError("each generator must be a 2x2 matrix [[a, b], [c, d]]")
    return tuple(tuple(_entry_to_element(field, e) for e in row) for row in mat)


_GROUP_KEYS = ("p", "k", "center_quotient", "generators")


def _box_from_args(args, params: dict, desc: dict | None):
    """Build the black box, recording p, k, and input details in params."""
    if desc is None:
        if args.p is None:
            raise InputError("need --p (or --input)")
        p, k, cq, mats = args.p, 1 if args.k is None else args.k, False, None
    else:
        if args.p is not None or args.k is not None:
            raise InputError("--input gives p and k; drop --p and --k")
        unknown = [key for key in desc if key not in _GROUP_KEYS]
        if unknown:
            raise InputError(f"group description file has unknown key {unknown[0]!r}; "
                             f"its keys are {', '.join(_GROUP_KEYS)}")
        mats = desc.get("generators")
        if not isinstance(mats, list) or not mats:
            raise InputError("group description file needs a nonempty 'generators' list")
        p, k = desc.get("p"), desc.get("k", 1)
        cq = desc.get("center_quotient", False)
        if not isinstance(cq, bool):
            raise InputError("'center_quotient' must be true or false")
    # reject a bad p, k or q before any field table is built
    q = check_params(p, k)
    field = ExplicitField.polynomial_field(p, k)
    if mats is not None:
        mats = [_parse_matrix(field, g) for g in mats]
    backend = MatrixBackend(field, center_quotient=cq, opaque=args.opaque, seed=args.seed)
    box = backend.blackbox(mats)
    params.update({"p": p, "k": k, "q": q, "center_quotient": cq, "opaque": args.opaque})
    return box, p, k


def _report(args, params: dict, stages, verification: dict, explicit=None) -> dict:
    """The report of every mode, successful or not; json writes tuples as lists."""
    report = {
        "mode": args.mode,
        "params": params,
        "stages": [s.as_json() for s in stages],
        "verification": verification,
    }
    if "seed" in args:  # field-report draws nothing at random
        report["seed"] = args.seed
    if explicit is not None:
        report["structure_constants"] = explicit.to_dict()
    return report


def _recognize(args, params: dict, desc: dict | None) -> dict:
    check_trials(args.trials)
    box, p, k = _box_from_args(args, params, desc)
    result = recognize(box, p, k, random.Random(args.seed), args.trials)
    verification = {**result.extras, **result.verification}
    return _report(args, params, result.stages, verification, result.explicit)


def _mode_field_report(args, params: dict, desc: dict) -> dict:
    explicit = ExplicitField.from_dict(desc)
    params.update({"p": explicit.p, "k": explicit.k, "q": explicit.order})
    iso = explicit.validate()
    verification = {"iso_matrix": iso.matrix}
    return _report(args, params, (), verification, explicit)


# one box per kernel: integers mod p, log/Zech tables with the PSL
# canonical form, and log tables with XOR addition
_SELFTEST_GROUPS = {"sl2_5": (5, 1, False), "psl2_9": (3, 2, True), "sl2_16": (2, 4, False)}
_SELFTEST_TRIALS = 200


def _mode_selftest(args, params: dict, desc: None) -> dict:
    """Recognize each group on opaque and on transparent strings.

    Both runs must verify on every trial and agree on every count, since
    the algorithm draws the same randomness from both. On groups this
    small no budget runs out by chance, so any exception is a failure.
    """
    params["trials"] = _SELFTEST_TRIALS
    checks: dict[str, bool] = {}
    for name, (p, k, cq) in _SELFTEST_GROUPS.items():
        runs = []
        try:
            for opaque in (True, False):
                box = make_matrix_blackbox(p, k, center_quotient=cq, opaque=opaque, seed=args.seed)
                res = recognize(box, p, k, random.Random(args.seed), _SELFTEST_TRIALS)
                stages = [(s.name, s.samples_used) for s in res.stages]
                runs.append((stages, res.verification, box.stats))
        except Exception as exc:
            sys.stderr.write(f"bbsl2: selftest {name}: {type(exc).__name__}: {exc}\n")
            runs = []
        passes = [v["phi_homomorphism_checks"]["passes"] for _, v, _ in runs]
        checks[f"{name}_verified"] = passes == [_SELFTEST_TRIALS] * 2
        checks[f"{name}_opaque_matches_transparent"] = bool(runs) and runs[0] == runs[1]

    # a backend that ignored opaque would pass every check above
    box = make_matrix_blackbox(5, 1, opaque=True, seed=args.seed)
    i1, i2 = (box.mul(g, box.inv(g)) for g in box.generators[:2])
    checks["identity_encodings_differ_bitwise"] = i1.data != i2.data

    if not all(checks.values()):
        failing = ", ".join(name for name, good in checks.items() if not good)
        exc = ContractViolation(f"selftest failed: {failing}")
        exc.verification = checks
        raise exc
    return _report(args, params, (), checks)


_MODES = {
    "recognize": _recognize,
    "field-report": _mode_field_report,
    "selftest": _mode_selftest,
}


def _emit(report: dict, out: str | None) -> None:
    text = json.dumps(report, indent=2, sort_keys=True) + "\n"
    if out:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _summarize(report: dict) -> None:
    for stage in report.get("stages", []):
        status = "ok" if stage["ok"] else "FAILED"
        sys.stderr.write(
            f"stage {stage['name']}: {status}, {stage['samples_used']} samples, "
            f"{stage['elapsed_ms']:.1f} ms\n"
        )
    sys.stderr.write(f"{report['mode']}: done\n")


def _failure_report(args, params: dict, exc: Exception) -> dict:
    stages = getattr(exc, "stages", [])
    failed = next((s.name for s in stages if not s.ok), None)
    verification = {"ok": False, "error": str(exc), "failed_stage": failed}
    extra = getattr(exc, "verification", None)
    if isinstance(extra, dict):
        verification.update(extra)
    return _report(args, params, stages, verification)


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    params: dict = {}
    try:
        if getattr(args, "seed", 0) < 0:  # Random(-s) draws the stream of Random(s)
            raise InputError(f"--seed must be at least 0, got {args.seed}")
        if args.out and (os.path.isdir(args.out) or not os.path.isdir(os.path.dirname(args.out) or ".")):
            raise InputError(f"--out is a directory or in a missing one: {args.out}")
        desc = _load_json(args.input) if getattr(args, "input", None) else None
        report = _MODES[args.mode](args, params, desc)
    except InputError as exc:
        sys.stderr.write(f"bbsl2: rejected input: {exc}\n")
        return 1
    except MonteCarloFailure as exc:
        sys.stderr.write(f"bbsl2: {exc}\n")
        _emit(_failure_report(args, params, exc), args.out)
        return 2
    except ContractViolation as exc:
        sys.stderr.write(f"bbsl2: contract violation: {exc}\n")
        _emit(_failure_report(args, params, exc), args.out)
        return 3
    _emit(report, args.out)
    _summarize(report)
    return 0


if __name__ == "__main__":
    sys.exit(main())
