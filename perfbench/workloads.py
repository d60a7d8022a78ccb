"""The three benchmark workloads: set-up, one op, and its correctness gate.

A workload is a list of cells (one group each), a set-up that builds the
boxes (and, for ``morphism-apply``, the recognitions and inputs), and a
pass: the fixed sequence of ops that the timed loop repeats. Every pass
does the same work: its ops are derived from the benchmark seed, the cell
and the op's slot in the pass, not from the pass number, and a
recognition gets a fresh box built from the same seed before it runs. So
the runs of one op differ by host noise only. Box building and checks
run outside the timed region.
"""
from __future__ import annotations

import random
from dataclasses import dataclass, field

from bbsl2 import make_matrix_blackbox, modp, oracle, recover_char2, recover_psl2
from bbsl2.backend import MatrixBackend, mat_det2

from counting import BaseOps, count_base_ops

TRIALS = 200
MORPHISM_INPUTS_PER_CELL = 1000


@dataclass(frozen=True)
class Cell:
    p: int
    k: int
    psl: bool = False

    @property
    def name(self) -> str:
        return f"{'PSL2' if self.psl else 'SL2'}_{self.p ** self.k}"


ODD_CELLS = tuple(
    Cell(p, k, psl) for p, k in ((3, 2), (13, 1), (29, 1), (3, 4), (13, 2)) for psl in (False, True)
)
CHAR2_CELLS = tuple(Cell(2, n) for n in (2, 3, 4, 8))
# SL2(2^4), not 2^8: set-up is timed four times per run, and the 2^8
# recognition would triple its cost; char2-grid covers the 2^8 tables
MORPHISM_CELLS = (Cell(13, 1, True), Cell(3, 4), Cell(2, 4))
ALL_CELL_NAMES = tuple(dict.fromkeys(c.name for c in ODD_CELLS + CHAR2_CELLS + MORPHISM_CELLS))


def derive(*parts) -> int:
    """A 32-bit seed from the benchmark seed and a label; stable across processes."""
    return random.Random(":".join(map(str, parts))).getrandbits(32)


@dataclass
class Op:
    index: int
    pass_no: int
    slot: int  # position in the pass: the same slot is the same work in every pass
    cell: Cell
    payload: object  # recognition seed, or (input index) for morphism-apply


@dataclass
class State:
    """Everything set-up builds; ``base_ops`` pools the raw-op counts of all boxes."""

    base_ops: BaseOps
    boxes: dict = field(default_factory=dict)
    results: dict = field(default_factory=dict)
    inputs: dict = field(default_factory=dict)
    galois: dict = field(default_factory=dict)
    verified: dict = field(default_factory=dict)  # (cell, input index) -> checked image


def make_box(cell: Cell, seed: int, opaque: bool = True, field=None):
    """The box of ``cell``; given the ``field`` of an earlier one, the same box anew.

    A box over an existing field skips building the field and its
    tables, and starts from the same state as a box built from scratch.
    """
    box_seed = derive(seed, "box", cell.name)
    if field is None:
        return make_matrix_blackbox(cell.p, cell.k, center_quotient=cell.psl, opaque=opaque,
                                    seed=box_seed)
    return MatrixBackend(field, center_quotient=cell.psl, opaque=opaque, seed=box_seed).blackbox()


def new_box(cell: Cell, seed: int, state: State, trace=None, field=None):
    """A counted base box for ``cell``; timed as well when tracing."""
    box = make_box(cell, seed, field=field)
    count_base_ops(box, state.base_ops)
    if trace is not None:
        trace.attach_box(box)
    return box


def recognize(box, cell: Cell, rng_seed: int):
    rng = random.Random(rng_seed)
    if cell.p == 2:
        return recover_char2(box, cell.k, rng, trials=TRIALS)
    return recover_psl2(box, cell.p, cell.k, rng, trials=TRIALS)


def _iso_to_standard(res, standard):
    """The map from the recovered explicit field to ``standard``, from ``extras``."""
    E, M = res.explicit, res.extras["iso_matrix"]
    return lambda a: standard.element(modp.vec_mat(E.coords(a), M, E.p))


def recognition_ok(res, standard, rng: random.Random, pairs: int = 64) -> bool:
    """Verification passed every trial and the field maps onto the standard one."""
    if res.verification["phi_homomorphism_checks"] != {"trials": TRIALS, "passes": TRIALS}:
        return False
    E = res.explicit
    iso = _iso_to_standard(res, standard)
    if iso(E.one) != standard.one:
        return False
    for _ in range(pairs):
        a, b = rng.randrange(E.order), rng.randrange(E.order)
        if iso(E.add(a, b)) != standard.add(iso(a), iso(b)):
            return False
        if iso(E.mul(a, b)) != standard.mul(iso(a), iso(b)):
            return False
    return True


class RecognitionGrid:
    """``recover_psl2`` / ``recover_char2`` per cell per pass, each on a fresh box.

    A cell runs ``searches[cell]`` recognitions a pass (default one), each
    with its own seed, so that cheap cells average the luck of their
    random search over several. A recognition samples from its box's
    product-replacement state, so ``prepare`` builds a fresh box from the
    same seed, over the field built in set-up, before every op; the same
    seeds then make the same search on every pass.
    """

    def __init__(self, name: str, cells, pass_seconds: float, searches=None):
        self.name = name
        self.cells = cells
        self.pass_seconds = pass_seconds
        self.searches = searches or {}

    def setup(self, seed: int, base_ops: BaseOps, trace=None) -> State:
        state = State(base_ops=base_ops)
        for cell in self.cells:
            state.boxes[cell] = new_box(cell, seed, state, trace)
        return state

    def prepare(self, state: State, op: Op, seed: int, trace=None) -> None:
        field = state.boxes[op.cell].backend.field
        state.boxes[op.cell] = new_box(op.cell, seed, state, trace, field)

    def ops(self, seed: int, pass_no: int, start: int) -> list[Op]:
        cells = [(c, j) for c in self.cells for j in range(self.searches.get(c, 1))]
        return [
            Op(start + i, pass_no, i, c, derive(seed, self.name, c.name, j))
            for i, (c, j) in enumerate(cells)
        ]

    def run(self, state: State, op: Op):
        return recognize(state.boxes[op.cell], op.cell, op.payload)

    def check(self, state: State, op: Op, res) -> bool:
        box = state.boxes[op.cell]
        return recognition_ok(res, box.backend.field, random.Random(derive(op.payload, "check")))

    def stages(self, res):
        return res.stages

    def replay(self, state: State, seed: int, trace=None):
        """A recognition that does the same work on every call: fresh box, fixed seeds."""
        cell = OPACITY_CELLS[self.name]
        rng_seed = derive(seed, self.name, "opacity", cell.name)
        return lambda: recognize(new_box(cell, seed, state, trace), cell, rng_seed)


class MorphismApply:
    """Evaluate recovered morphisms on pre-generated matrices, three groups interleaved."""

    name = "morphism-apply"
    cells = MORPHISM_CELLS
    pass_seconds = 1.5

    def setup(self, seed: int, base_ops: BaseOps, trace=None) -> State:
        state = State(base_ops=base_ops)
        for cell in self.cells:
            box = new_box(cell, seed, state, trace)
            rec_seed = derive(seed, self.name, "recognize", cell.name)
            res = recognize(box, cell, rec_seed)
            if trace is not None:
                trace.record_stages("setup", res.stages)
            if not recognition_ok(res, box.backend.field, random.Random(derive(rec_seed, "check"))):
                raise RuntimeError(f"set-up recognition of {cell.name} failed its check")
            rng = random.Random(derive(seed, self.name, "inputs", cell.name))
            state.boxes[cell] = box
            state.results[cell] = res
            state.inputs[cell] = [
                oracle.random_sl2(res.explicit, rng) for _ in range(MORPHISM_INPUTS_PER_CELL)
            ]
            state.galois[cell] = set(range(cell.k))
        return state

    def prepare(self, state: State, op: Op, seed: int, trace=None) -> None:
        """Nothing to rebuild: an evaluation leaves only its lift caches behind."""

    def ops(self, seed: int, pass_no: int, start: int) -> list[Op]:
        out = []
        for i in range(MORPHISM_INPUTS_PER_CELL):
            for cell in self.cells:
                out.append(Op(start + len(out), pass_no, len(out), cell, i))
        return out

    def run(self, state: State, op: Op):
        return state.results[op.cell].morphism(state.inputs[op.cell][op.payload])

    def check(self, state: State, op: Op, image) -> bool:
        """Decode through the trusted backend: det 1 and the trace of the input, mapped.

        ``extras["iso_matrix"]`` fixes the field map only up to a Galois
        automorphism x -> x^(p^j), since any root of the minimal polynomial
        serves. The morphism has one such j, so the check keeps the set of
        j consistent with every evaluation so far and fails an image that
        matches none of them. Traces agree up to sign in PSL. An image equal
        to one that passed this check for the same input passes at once.
        """
        key = (op.cell, op.payload)
        if state.verified.get(key) == image:
            return True
        backend = state.boxes[op.cell].backend
        F = backend.field
        m = backend.decode(image)
        if mat_det2(F, m) != F.one:
            return False
        res = state.results[op.cell]
        E = res.explicit
        (a, _), (_, d) = state.inputs[op.cell][op.payload]
        want = _iso_to_standard(res, F)(E.add(a, d))
        got = F.add(m[0][0], m[1][1])
        allowed = {got, F.neg(got)} if op.cell.psl else {got}
        admissible = state.galois[op.cell]
        matching = {j for j in admissible if F.pow(want, F.p**j) in allowed}
        if not matching:
            return False
        state.galois[op.cell] = matching
        state.verified[key] = image
        return True

    def stages(self, res):
        return ()

    def replay(self, state: State, seed: int, trace=None):
        """The first pass again; the caches it meets are warm on every call."""
        ops = self.ops(seed, 0, 0)
        return lambda: [self.run(state, op) for op in ops]


# pass_seconds: the length of one pass on the reference host (2-CPU Xeon,
# Python 3.11). A run makes a fixed number of passes, derived from
# --seconds and this figure only, so the count never depends on speed.
WORKLOADS = {
    "odd-grid": RecognitionGrid("odd-grid", ODD_CELLS, pass_seconds=11.0),
    "char2-grid": RecognitionGrid("char2-grid", CHAR2_CELLS, pass_seconds=6.0,
                                  searches={c: 3 for c in CHAR2_CELLS if c.k < 8}),
    "morphism-apply": MorphismApply(),
}


def passes_for(wl, seconds: float) -> int:
    """Whole passes that fill ``seconds`` on the reference host; at least two."""
    return max(2, round(seconds / wl.pass_seconds))

# the cell of each recognition workload that the traced run replays, on
# opaque and transparent boxes and for the tracing overhead: PSL2(81) runs
# every odd stage including the Bray centralizer and the k = 4 Frobenius;
# SL2(16) every char-2 stage
OPACITY_CELLS = {"odd-grid": Cell(3, 4, True), "char2-grid": Cell(2, 4)}
