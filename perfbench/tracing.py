"""Run-time spans around the library's public calls, for the traced run.

Nothing under ``src/`` changes: ``Tracer.install`` rebinds functions and
methods in the loaded ``bbsl2`` modules to timing wrappers, inside this
process only. Two kinds of wrapper exist:

* a *span* (op, stage, or a layer call such as ``element_order``) records
  name, start, end, parent and op id, plus the base-box oracle counts at
  both ends;
* a *hot* call (raw backend ops, encode/decode, ``power``, sampling,
  explicit-field products computed rather than looked up) is too
  frequent for a span each, so it is kept as a per-parent counter with
  inclusive and self time; ``ExplicitField.mul`` is only counted.

A span's self time is its duration minus its child spans and its
outermost hot calls. Spans are held in memory and written at the end.
"""
from __future__ import annotations

import json
import sys
from contextlib import contextmanager
from time import perf_counter

from counting import BaseOps


class Span:
    __slots__ = ("sid", "parent", "op", "name", "t0", "t1", "ops0", "ops1", "child", "hot", "agg")

    def __init__(self, sid, parent, op, name, t0, ops0):
        self.sid, self.parent, self.op, self.name = sid, parent, op, name
        self.t0, self.t1, self.ops0, self.ops1 = t0, t0, ops0, ops0
        self.child = 0.0  # time covered by child spans and outermost hot calls
        self.hot: list[float] = []  # nested-time accumulators of the open hot calls
        self.agg: dict[str, list] = {}  # hot name -> [calls, inclusive s, self s]

    @property
    def dur(self) -> float:
        return self.t1 - self.t0

    @property
    def self_time(self) -> float:
        return self.dur - self.child

    def oracle_delta(self) -> tuple[int, int, int]:
        return tuple(b - a for a, b in zip(self.ops0, self.ops1))


# (module, qualified name, span or hot name); the layer is the name's prefix
SPANS = [
    ("bbsl2.blackbox", "element_order", "blackbox.element_order"),
    ("bbsl2.field", "ExplicitField.polynomial_field", "field.polynomial_field"),
    ("bbsl2.field", "ExplicitField.primitive_element", "field.primitive_element"),
    ("bbsl2.field", "ExplicitField.validate", "field.validate"),
    ("bbsl2.field", "explicit_isomorphism", "field.explicit_isomorphism"),
    ("bbsl2.sl2odd", "unipotent_element", "sl2odd.unipotent_element"),
    ("bbsl2.sl2odd", "classify_center", "sl2odd.classify_center"),
    ("bbsl2.sl2odd", "torus_element", "sl2odd.torus_element"),
    ("bbsl2.sl2odd", "weyl_element", "sl2odd.weyl_element"),
    ("bbsl2.sl2odd", "SteinbergMorphism.__call__", "sl2odd.morphism"),
    ("bbsl2.sl2char2", "involution_sample", "sl2char2.involution_sample"),
    ("bbsl2.sl2char2", "dihedral_frame", "sl2char2.dihedral_frame"),
    ("bbsl2.sl2char2", "enumerate_unipotent", "sl2char2.enumerate_unipotent"),
    ("bbsl2.sl2char2", "Char2Field.to_explicit", "sl2char2.to_explicit"),
    ("bbsl2.sl2char2", "Char2Field.lift_int", "sl2char2.lift_int"),
    ("bbsl2.bbfield", "BlackBoxField.lift_int", "bbfield.lift_int"),
    ("bbsl2.bbfield", "build_field_on_U", "bbfield.build_field_on_U"),
    ("bbsl2.frobenius", "frobenius_on_sl2", "frobenius.frobenius_on_sl2"),
    ("bbsl2.involutions", "to_involution", "involutions.to_involution"),
    ("bbsl2.involutions", "bray_element", "involutions.bray_element"),
    ("bbsl2.involutions", "bray_centralizer", "involutions.bray_centralizer"),
    ("bbsl2.involutions", "find_order3_inverted", "involutions.find_order3_inverted"),
]
HOT = [
    ("bbsl2.blackbox", "BlackBoxGroup.power", "blackbox.power"),
    ("bbsl2.blackbox", "ProductReplacer.sample", "blackbox.sample"),
    ("bbsl2.field", "ExplicitField._mul_raw", "field.mul_raw"),
]
# a table lookup is cheaper than reading the clock twice, so only counted
COUNTED = [
    ("bbsl2.field", "ExplicitField.mul", "field.mul"),
]
FIELD_CONSTRUCT = {
    "field.polynomial_field",
    "field.primitive_element",
    "field.validate",
    "field.explicit_isomorphism",
}


class Tracer:
    def __init__(self, base_ops: BaseOps):
        self.base_ops = base_ops
        self.stack: list[Span] = []
        self.spans: list[Span] = []
        self.stage_rows: dict[str, list] = {}  # op id -> [(stage, samples, ms)]
        self._undo: list = []

    # -- spans ---------------------------------------------------------------
    def begin(self, name: str, op: str | None = None) -> Span:
        parent = self.stack[-1] if self.stack else None
        sp = Span(
            len(self.spans),
            parent.sid if parent else None,
            op if op is not None else (parent.op if parent else None),
            name,
            perf_counter(),
            self.base_ops.snapshot(),
        )
        self.spans.append(sp)
        self.stack.append(sp)
        return sp

    def end(self, sp: Span) -> None:
        sp.t1 = perf_counter()
        sp.ops1 = self.base_ops.snapshot()
        self.stack.pop()
        if self.stack:
            parent = self.stack[-1]
            if parent.hot:
                parent.hot[-1] += sp.dur
            else:
                parent.child += sp.dur

    @contextmanager
    def op(self, op_id: str, kind: str, cell: str):
        sp = self.begin(f"op.{kind}.{cell}", op=op_id)
        try:
            yield sp
        finally:
            self.end(sp)

    def record_stages(self, op_id: str, stages) -> None:
        rows = self.stage_rows.setdefault(op_id, [])
        rows.extend((s.name, s.samples_used, s.elapsed_ms) for s in stages)

    # -- wrappers ------------------------------------------------------------
    def _span_wrapper(self, name, fn):
        def traced(*args, **kwargs):
            if not self.stack:
                return fn(*args, **kwargs)
            sp = self.begin(name)
            try:
                return fn(*args, **kwargs)
            finally:
                self.end(sp)

        return traced

    def _hot_wrapper(self, name, fn):
        stack = self.stack

        def hot(*args, **kwargs):
            if not stack:
                return fn(*args, **kwargs)
            sp = stack[-1]
            sp.hot.append(0.0)
            t0 = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = perf_counter() - t0
                nested = sp.hot.pop()
                if sp.hot:
                    sp.hot[-1] += dt
                else:
                    sp.child += dt
                row = sp.agg.get(name)
                if row is None:
                    sp.agg[name] = [1, dt, dt - nested]
                else:
                    row[0] += 1
                    row[1] += dt
                    row[2] += dt - nested

        return hot

    def _count_wrapper(self, name, fn):
        stack = self.stack

        def counted(*args):
            if stack:
                row = stack[-1].agg.get(name)
                if row is None:
                    stack[-1].agg[name] = [1, 0.0, 0.0]
                else:
                    row[0] += 1
            return fn(*args)

        return counted

    def _rebind(self, module_name: str, qualname: str, make) -> None:
        module = sys.modules[module_name]
        owner_name, _, attr = qualname.rpartition(".")
        if owner_name:
            owner = getattr(module, owner_name)
            raw = owner.__dict__[attr]
            if isinstance(raw, classmethod):
                wrapped = classmethod(make(raw.__func__))
            else:
                wrapped = make(raw)
            self._undo.append((owner, attr, raw))
            setattr(owner, attr, wrapped)
            return
        # a module-level function may be imported by name into sibling modules
        orig = getattr(module, attr)
        wrapped = make(orig)
        for mod in [m for n, m in sys.modules.items() if n == "bbsl2" or n.startswith("bbsl2.")]:
            for key, value in list(vars(mod).items()):
                if value is orig:
                    self._undo.append((mod, key, orig))
                    setattr(mod, key, wrapped)

    def install(self) -> None:
        import bbsl2.stages

        for module_name, qualname, name in SPANS:
            self._rebind(module_name, qualname, lambda fn, name=name: self._span_wrapper(name, fn))
        for module_name, qualname, name in HOT:
            self._rebind(module_name, qualname, lambda fn, name=name: self._hot_wrapper(name, fn))
        for module_name, qualname, name in COUNTED:
            self._rebind(module_name, qualname, lambda fn, name=name: self._count_wrapper(name, fn))

        recorder = bbsl2.stages.StageRecorder
        orig_stage = recorder.stage
        tracer = self

        @contextmanager
        def stage(rec, name):
            sp = tracer.begin(f"stage.{name}")
            try:
                with orig_stage(rec, name):
                    yield
            finally:
                tracer.end(sp)

        self._undo.append((recorder, "stage", orig_stage))
        recorder.stage = stage

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, value = self._undo.pop()
            setattr(owner, attr, value)

    def attach_box(self, box) -> None:
        """Time the raw ops and the codec of one base box (already counted)."""
        for attr, name in (("_mul", "backend.mul"), ("_inv", "backend.inv"), ("_compare", "backend.compare")):
            setattr(box, attr, self._hot_wrapper(name, getattr(box, attr)))
        backend = box.backend
        backend.encode = self._hot_wrapper("backend.encode", backend.encode)
        backend.decode = self._hot_wrapper("backend.decode", backend.decode)

    # -- summaries -------------------------------------------------------------
    def in_scope(self, op_ids) -> list[Span]:
        return [sp for sp in self.spans if sp.op in op_ids]

    def write(self, path, op_ids) -> None:
        """The spans of these ops as rows; the column names head the file."""
        spans = self.in_scope(op_ids)
        base = spans[0].t0 if spans else 0.0
        rows = [
            [
                sp.sid, sp.parent, sp.op, sp.name, sp.t0 - base, sp.dur, sp.self_time,
                *sp.oracle_delta(), sp.agg,
            ]
            for sp in spans
        ]
        with open(path, "w") as fh:
            json.dump({"columns": ["id", "parent", "op", "name", "start_s", "dur_s", "self_s",
                                   "muls", "invs", "compares", "hot"], "spans": rows}, fh)


def layer_of(name: str) -> str:
    head = name.split(".", 1)[0]
    return "stages" if head == "stage" else head


def summarize(spans: list[Span]) -> dict:
    """Self time by layer and by name, and how much of each op the spans cover."""
    by_name: dict[str, list] = {}
    by_layer: dict[str, float] = {}
    ops_total = ops_covered = 0.0
    for sp in spans:
        row = by_name.setdefault(sp.name, [0, 0.0, 0.0])
        row[0] += 1
        row[1] += sp.dur
        row[2] += sp.self_time
        layer = layer_of(sp.name)
        by_layer[layer] = by_layer.get(layer, 0.0) + sp.self_time
        if sp.parent is None:
            ops_total += sp.dur
            ops_covered += sp.child
        for hot_name, (calls, incl, own) in sp.agg.items():
            row = by_name.setdefault(hot_name, [0, 0.0, 0.0])
            row[0] += calls
            row[1] += incl
            row[2] += own
            hot_layer = layer_of(hot_name)
            by_layer[hot_layer] = by_layer.get(hot_layer, 0.0) + own
    return {
        "op_time_s": ops_total,
        "op_coverage": ops_covered / ops_total if ops_total else 0.0,
        "self_s_by_layer": dict(sorted(by_layer.items(), key=lambda kv: -kv[1])),
        "by_name": {
            name: {"calls": c, "total_s": t, "self_s": s}
            for name, (c, t, s) in sorted(by_name.items(), key=lambda kv: -kv[1][2])
        },
    }
