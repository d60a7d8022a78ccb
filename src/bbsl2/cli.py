"""Command-line driver for the recognition pipelines.

Modes: recognize-odd (odd-characteristic (P)SL2(p^k) recovery),
recognize-char2 (SL2(2^n) recovery), frobenius (build and verify the
cyclic-shift Frobenius map), field-report (emit structure constants and
the isomorphism to the standard presentation), selftest (quick
oracle-vs-backend consistency suite).

The group comes either from --p/--k/--n, building a backend over the
standard generators, or from --input, a JSON file {"p": int, "k": int,
"n": int, "center_quotient": bool, "generators": [[[entries]]]} holding
row-major 2x2 matrices whose entries are residues (k = 1) or
length-k coordinate vectors over the prime field in the polynomial
basis (k > 1). field-report also accepts an explicit field
serialization {"p", "k", "c"} and then skips recognition.

Reports are JSON: {"mode", "seed", "params", "stages": [{name,
samples_used, elapsed_ms, ok}], "verification": {...}} plus optional
"structure_constants"; they validate against report.schema.json shipped
with the package. Exit codes: 0 verified success, 1 rejected input,
2 Monte Carlo budget exhausted, 3 contract violation.
"""
from __future__ import annotations

import argparse
import json
import random
import sys

from . import oracle
from .backend import MatrixBackend, make_matrix_blackbox, mat_mul
from .blackbox import element_order, global_exponent_gl
from .errors import ContractViolation, InputError, MonteCarloFailure
from .field import ExplicitField, explicit_isomorphism
from .frobenius import frobenius_on_sl2
from .sl2char2 import recover_char2
from .sl2odd import find_standard_generators, recover_psl2
from .stages import StageRecorder


class _Parser(argparse.ArgumentParser):
    # argparse exits 2 on usage errors; 2 means Monte Carlo failure here
    def error(self, message):
        self.exit(1, f"{self.prog}: error: {message}\n")


def _build_parser() -> _Parser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--input", help="JSON group description or explicit field file")
    common.add_argument("--p", type=int, help="field characteristic")
    common.add_argument("--k", type=int, help="field degree over the prime field")
    common.add_argument("--n", type=int, help="degree synonym used in characteristic 2")
    common.add_argument("--seed", type=int, default=0, help="PRNG seed (default 0)")
    common.add_argument("--trials", type=int, default=200, help="verification trials")
    common.add_argument("--out", help="write the JSON report here instead of stdout")
    opacity = common.add_mutually_exclusive_group()
    opacity.add_argument(
        "--opaque", dest="opaque", action="store_true", help="encrypted strings (default)"
    )
    opacity.add_argument(
        "--transparent", dest="opaque", action="store_false", help="canonical byte strings"
    )
    common.set_defaults(opaque=True)

    parser = _Parser(prog="bbsl2", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="mode", required=True)
    for mode in ("recognize-odd", "recognize-char2", "frobenius", "field-report", "selftest"):
        sub.add_parser(mode, parents=[common])
    return parser


def _load_json(path: str) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            data = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise InputError(f"cannot read JSON from {path}: {exc}") from exc
    if not isinstance(data, dict):
        raise InputError("input file must hold a JSON object")
    return data


def _entry_to_element(field: ExplicitField, entry) -> int:
    if isinstance(entry, int):
        return field.scalar(entry)
    if isinstance(entry, list):
        if len(entry) != field.k or not all(isinstance(x, int) for x in entry):
            raise InputError("matrix entries must be residues or length-k residue vectors")
        return field.element(tuple(x % field.p for x in entry))
    raise InputError("matrix entries must be residues or length-k residue vectors")


def _parse_matrix(field: ExplicitField, mat):
    if isinstance(mat, list) and len(mat) == 4:
        mat = [mat[:2], mat[2:]]
    if not (isinstance(mat, list) and len(mat) == 2 and all(len(row) == 2 for row in mat)):
        raise InputError("each generator must be a 2x2 matrix, nested or row-major flat")
    return tuple(tuple(_entry_to_element(field, e) for e in row) for row in mat)


def _degree(args, fallback: int | None = None) -> int | None:
    if args.k is not None and args.n is not None and args.k != args.n:
        raise InputError("--k and --n disagree")
    k = args.k if args.k is not None else args.n
    return k if k is not None else fallback


def _box_from_args(args, params: dict):
    """Build the black box, recording p, k, and input details in params."""
    if args.input:
        desc = _load_json(args.input)
        if "generators" not in desc:
            raise InputError("group description file needs a 'generators' list")
        p = desc.get("p")
        if not isinstance(p, int):
            raise InputError("group description file needs an integer 'p'")
        k = desc.get("k", desc.get("n", 1))
        if not isinstance(k, int) or k < 1:
            raise InputError("group description degree must be a positive integer")
        if args.p is not None and args.p != p:
            raise InputError("--p disagrees with the input file")
        if _degree(args) not in (None, k):
            raise InputError("--k/--n disagrees with the input file")
        cq = bool(desc.get("center_quotient", False))
        field = ExplicitField.polynomial_field(p, k)
        backend = MatrixBackend(
            field, special=True, center_quotient=cq, opaque=args.opaque, seed=args.seed
        )
        gens = [_parse_matrix(field, g) for g in desc["generators"]]
        if not gens:
            raise InputError("group description file needs at least one generator")
        box = backend.blackbox(gens)
    else:
        if args.p is None:
            raise InputError("need --p (or --input)")
        p = args.p
        k = _degree(args, fallback=1)
        cq = False
        box = make_matrix_blackbox(
            p, k, special=True, center_quotient=False, opaque=args.opaque, seed=args.seed
        )
    params.update({"p": p, "k": k, "q": p**k, "center_quotient": cq, "opaque": args.opaque})
    return box, p, k


def _structure_json(explicit: ExplicitField) -> dict:
    return {
        "p": explicit.p,
        "k": explicit.k,
        "c": [[list(row) for row in plane] for plane in explicit.c],
    }


def _jsonable(value):
    if isinstance(value, (list, tuple)):
        return [_jsonable(v) for v in value]
    return value


def _result_report(mode: str, args, result) -> dict:
    verification = {k: _jsonable(v) for k, v in result.verification.items()}
    for key, value in result.extras.items():
        verification.setdefault(key, _jsonable(value))
    return {
        "mode": mode,
        "seed": args.seed,
        "params": dict(result.params),
        "stages": [s.as_json() for s in result.stages],
        "verification": verification,
        "structure_constants": _structure_json(result.explicit),
    }


def _mode_recognize_odd(args, params: dict) -> dict:
    box, p, k = _box_from_args(args, params)
    if p == 2:
        raise InputError("recognize-odd wants odd characteristic; use recognize-char2")
    result = recover_psl2(box, p, k, random.Random(args.seed), trials=args.trials)
    result.params.update({"center_quotient": params["center_quotient"], "opaque": args.opaque})
    return _result_report("recognize-odd", args, result)


def _mode_recognize_char2(args, params: dict) -> dict:
    if args.p not in (None, 2):
        raise InputError("recognize-char2 works in characteristic 2 only")
    if args.p is None:
        args.p = 2
    box, p, n = _box_from_args(args, params)
    if p != 2:
        raise InputError("recognize-char2 works in characteristic 2 only")
    result = recover_char2(box, n, random.Random(args.seed), trials=args.trials)
    result.params.update({"center_quotient": False, "opaque": args.opaque})
    return _result_report("recognize-char2", args, result)


def _mode_frobenius(args, params: dict) -> dict:
    box, p, k = _box_from_args(args, params)
    if p == 2:
        raise InputError("the Frobenius pipeline here wants odd characteristic")
    rng = random.Random(args.seed)
    rec = StageRecorder(box)
    frame = find_standard_generators(box, p, k, rng, rec)
    with rec.stage("frobenius"):
        fro = frobenius_on_sl2(box, frame.u, frame.h, frame.weyl, p, k, rng)
    with rec.stage("verify"):
        y = fro.box
        order_passes = 0
        mult_passes = 0
        for _ in range(args.trials):
            x = y.sample(rng)
            if fro.product.compare(fro.rotate(x, k), x):
                order_passes += 1
            a, b = y.sample(rng), y.sample(rng)
            if fro.product.compare(fro(fro.product.mul(a, b)), fro.product.mul(fro(a), fro(b))):
                mult_passes += 1
        verification = {
            "shift_order_identity": {"trials": args.trials, "passes": order_passes},
            "shift_multiplicative": {"trials": args.trials, "passes": mult_passes},
            "fixes_unipotent_tuple": fro.product.compare(fro(fro.u_bar), fro.u_bar),
            "fixes_weyl_tuple": fro.product.compare(fro(fro.n_bar), fro.n_bar),
            "torus_tuple_power_map": fro.product.compare(
                fro(fro.h_bar), fro.product.power(fro.h_bar, p)
            ),
            "is_center_quotient": frame.is_psl,
        }
    return {
        "mode": "frobenius",
        "seed": args.seed,
        "params": dict(params),
        "stages": [s.as_json() for s in rec.stages],
        "verification": verification,
    }


def _mode_field_report(args, params: dict) -> dict:
    rng = random.Random(args.seed)
    if args.input:
        desc = _load_json(args.input)
        if "c" in desc:
            explicit = ExplicitField.from_json(json.dumps(desc))
            params.update({"p": explicit.p, "k": explicit.k, "q": explicit.order})
            explicit.validate(rng)
            standard = ExplicitField.polynomial_field(explicit.p, explicit.k)
            iso = explicit_isomorphism(explicit, standard, rng)
            return {
                "mode": "field-report",
                "seed": args.seed,
                "params": dict(params),
                "stages": [],
                "verification": {
                    "ring_iso_to_standard": True,
                    "iso_matrix": _jsonable(iso.matrix),
                },
                "structure_constants": _structure_json(explicit),
            }
    box, p, k = _box_from_args(args, params)
    if p == 2:
        result = recover_char2(box, k, random.Random(args.seed), trials=args.trials)
    else:
        result = recover_psl2(box, p, k, random.Random(args.seed), trials=args.trials)
    report = _result_report("field-report", args, result)
    report["mode"] = "field-report"
    return report


def _mode_selftest(args, params: dict) -> dict:
    rng = random.Random(args.seed)
    checks: dict[str, bool] = {}

    box5 = make_matrix_blackbox(5, 1, opaque=args.opaque, seed=args.seed)
    be = box5.backend
    ok = True
    for _ in range(50):
        x, y = box5.sample(rng), box5.sample(rng)
        ok = ok and be.decode(box5.mul(x, y)) == mat_mul(be.field, be.decode(x), be.decode(y))
    checks["backend_multiplication_matches_matrices"] = ok

    f5 = be.field
    checks["sl2_5_closure_order_120"] = (
        len(oracle.closure(f5, be.standard_generators())) == 120
    )
    f4 = ExplicitField.polynomial_field(2, 2)
    be4 = MatrixBackend(f4, opaque=args.opaque, seed=args.seed)
    checks["sl2_4_closure_order_60"] = len(oracle.closure(f4, be4.standard_generators())) == 60

    box13 = make_matrix_blackbox(13, 1, opaque=args.opaque, seed=args.seed)
    be13 = box13.backend
    ok = True
    for _ in range(100):
        x = box13.sample(rng)
        ok = ok and element_order(box13, x) == oracle.matrix_order_direct(
            be13.field, be13.decode(x)
        )
    checks["element_order_matches_direct_powering"] = ok

    checks["gl2_13_exponent_2184"] = global_exponent_gl(2, 13, 1) == 2184

    i1 = box5.mul(box5.generators[0], box5.inv(box5.generators[0]))
    i2 = box5.mul(box5.generators[1], box5.inv(box5.generators[1]))
    checks["identity_compare_across_words"] = box5.compare(i1, i2)
    if args.opaque:
        checks["identity_encodings_differ_bitwise"] = i1.data != i2.data

    if not all(checks.values()):
        failing = ", ".join(name for name, good in checks.items() if not good)
        exc = ContractViolation(f"selftest failed: {failing}")
        exc.verification = checks
        raise exc
    return {
        "mode": "selftest",
        "seed": args.seed,
        "params": {"opaque": args.opaque},
        "stages": [],
        "verification": checks,
    }


_MODES = {
    "recognize-odd": _mode_recognize_odd,
    "recognize-char2": _mode_recognize_char2,
    "frobenius": _mode_frobenius,
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
    verification = {
        "ok": False,
        "error": str(exc),
        "failed_stage": failed if failed is not None else getattr(exc, "stage", None),
    }
    extra = getattr(exc, "verification", None)
    if isinstance(extra, dict):
        verification.update(extra)
    return {
        "mode": args.mode,
        "seed": args.seed,
        "params": dict(params),
        "stages": [s.as_json() for s in stages],
        "verification": verification,
    }


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    params: dict = {}
    try:
        report = _MODES[args.mode](args, params)
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
