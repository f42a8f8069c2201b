"""Truth sets, brute-force frame validity, and model-level modal depth.

Everything here is pure and works over immutable inputs. There is one
compiler and one evaluator. ``_compile`` turns the DAG below one or more
root formulas into a flat instruction list, children first, in one
explicit-stack walk that also measures each instruction's modal depth and
smallest variable index and checks its modality ids; ``_evaluate`` runs a
list of instructions under one valuation with point sets as bitmasks, each
instruction writing its own slot of a value list, and reads a diamond from
``pre``, the frame's ``preimages`` per modality (one list lookup on at most
``frames.TABLE_POINTS`` points). ``extents_and_depths`` compiles many roots
into one program, so subformulas the roots share are walked, measured and
evaluated once; ``extent`` is its one-root case. ``validity_bruteforce``
enumerates the valuations incrementally (change propagation): it runs the
whole program once, then after each step re-runs only the instructions
whose smallest variable changed, so variable-free instructions run once per
call. It drops the variable instructions: its odometer writes each changed
variable's extent straight into the slots of that variable's occurrences.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from . import partitions
from .frames import Frame, mask_of, points_of, restriction
from .partitions import CapExceeded, Partition
from .syntax import And, Dia, Falsum, Formula, Imp, Neg, Or, Var

DEFAULT_VALUATION_CAP = 1 << 24


@dataclass(frozen=True)
class Model:
    """A frame with a k-valuation (one extent per variable p0..p(k-1))."""

    frame: Frame
    k: int
    valuation: tuple[frozenset[int], ...]

    def __post_init__(self):
        object.__setattr__(self, "valuation", tuple(frozenset(v) for v in self.valuation))
        if self.k < 0 or len(self.valuation) != self.k:
            raise ValueError(f"expected {self.k} extents, got {len(self.valuation)}")
        for ext in self.valuation:
            for p in ext:
                if not 0 <= p < self.frame.n:
                    raise ValueError(f"extent point {p} out of range")


_VAR, _FALSE, _NEG, _AND, _OR, _IMP, _DIA, _BOX = range(8)
_NO_VAR = math.inf  # the level of a variable-free instruction: above every variable
_INNER = frozenset((Neg, Dia, And, Or, Imp))


def _compile(frame: Frame, *roots: Formula):
    """One instruction list over the unique nodes below all roots, in the
    order of ``iter_nodes(*roots)``. Each instruction is ``(slot, op, x, y)``
    and writes ``vals[slot]``, its position in the list. Returns ``(prog,
    depths, lows, outs, vars_)``: the instructions, the modal depth of each
    slot's subformula, the smallest variable index in it (``_NO_VAR`` when it
    has none), each root's slot, and the sorted variable indices. Rejects
    modality ids outside the frame's alphabet."""
    index: dict[int, int] = {}  # id -> slot, -1 while the node waits for its children
    prog: list[tuple[int, int, int, int]] = []
    depths: list[int] = []
    lows: list[float] = []
    vars_, bad = set(), set()
    size = len(frame.alphabet)
    stack = list(reversed(roots))  # the walk of iter_nodes, without a generator
    while stack:
        g = stack.pop()
        t, k = type(g), id(g)
        slot = index.get(k)
        if slot is None and t in _INNER:  # compiled when it comes back up
            index[k] = -1
            stack += (g, g.child) if t is Neg or t is Dia else (g, g.right, g.left)
            continue
        if slot is not None and slot >= 0:
            continue
        i = len(prog)
        if t is Var:
            ins, d, lo = (i, _VAR, g.index, 0), 0, g.index
            vars_.add(lo)
        elif t is Falsum:
            ins, d, lo = (i, _FALSE, 0, 0), 0, _NO_VAR
        elif t is Neg:
            x = index[id(g.child)]
            ins, d, lo = (i, _NEG, x, 0), depths[x], lows[x]
        elif t is Dia:
            x = index[id(g.child)]
            ins, d, lo = (i, _BOX if g.boxed else _DIA, g.mod, x), 1 + depths[x], lows[x]
            if g.mod >= size:
                bad.add(g.mod)
        elif t in _INNER:  # And, Or, Imp
            x, y = index[id(g.left)], index[id(g.right)]
            op = _AND if t is And else _OR if t is Or else _IMP
            ins, d = (i, op, x, y), max(depths[x], depths[y])
            lo = lows[x] if lows[x] < lows[y] else lows[y]
        else:
            raise TypeError(f"not a formula: {g!r}")
        index[k] = i
        prog.append(ins)
        depths.append(d)
        lows.append(lo)
    if bad:
        raise ValueError(f"modality ids {sorted(bad)} outside alphabet of size {size}")
    return prog, depths, lows, [index[id(f)] for f in roots], sorted(vars_)


def _evaluate(prog, pre, var_masks, full: int, vals: list[int]) -> None:
    """Run the instructions in order under one valuation, each writing its
    point mask to its own slot of ``vals``; ``pre[mod]`` is the frame's
    preimage mapping of a modality. The slots an instruction reads must
    already hold current values: written earlier in ``prog`` or left valid
    by an earlier run. The cases are tested most frequent first."""
    for i, op, x, y in prog:
        if op == _OR:
            vals[i] = vals[x] | vals[y]
        elif op == _AND:
            vals[i] = vals[x] & vals[y]
        elif op == _DIA:
            vals[i] = pre[x][vals[y]]
        elif op == _IMP:
            vals[i] = (vals[x] ^ full) | vals[y]
        elif op == _NEG:
            vals[i] = vals[x] ^ full
        elif op == _VAR:
            vals[i] = var_masks[x]
        elif op == _FALSE:
            vals[i] = 0
        else:  # _BOX: no successor outside the target
            vals[i] = pre[x][vals[y] ^ full] ^ full


def extents_and_depths(model: Model, roots) -> list[tuple[int, int]]:
    """Extent (as a point bitmask) and modal depth of each root formula.

    The roots are compiled into one program, so a subformula they share is
    walked, measured and evaluated once."""
    prog, depths, _, outs, vars_ = _compile(model.frame, *roots)
    bad = [v for v in vars_ if v >= model.k]
    if bad:
        raise ValueError(f"variables {bad} outside the {model.k}-valuation")
    full = (1 << model.frame.n) - 1
    var_masks = [mask_of(ext) for ext in model.valuation]
    vals = [0] * len(prog)
    pre = [model.frame.preimages(mod) for mod in range(len(model.frame.alphabet))]
    _evaluate(prog, pre, var_masks, full, vals)
    return [(vals[i], depths[i]) for i in outs]


def extent(model: Model, f: Formula) -> frozenset[int]:
    """Points of the model where the formula is true (standard Kripke
    semantics; a diamond is the relational preimage of its child's extent)."""
    [(mask, _)] = extents_and_depths(model, [f])
    return points_of(mask)


def validity_bruteforce(frame: Frame, f: Formula, cap: int = DEFAULT_VALUATION_CAP) -> bool:
    """True iff the formula is true at every point under every valuation of
    its occurring variables. Raises CapExceeded when the assignment space
    2^(k*n) is larger than ``cap``.

    Valuations are counted like an odometer, the lowest-index variable
    fastest: under counter t, the occurring variable at position p (in
    index order) takes the n-bit digit p of t as its extent, written into
    the slots of its occurrences. A step that changes the variables at
    positions 0..j re-runs only the instructions whose smallest variable
    sits at one of them."""
    prog, _, lows, outs, vars_ = _compile(frame, f)
    n = frame.n
    total = (1 << n) ** len(vars_)
    if total > cap:
        raise CapExceeded(
            f"{len(vars_)} variables on {n} points need {total} assignments (cap {cap})"
        )
    full = (1 << n) - 1
    # Highest level first, a stable sort: a child's level is at least its
    # parent's, so children still come first, and the instructions that
    # position j reaches form the suffix from start[j].
    prog.sort(key=lambda ins: lows[ins[0]], reverse=True)
    # the odometer writes the slots of each position's occurrences itself,
    # so the variable instructions go
    slots = [[i for i, op, x, _ in prog if op == _VAR and x == v] for v in vars_]
    prog = [ins for ins in prog if ins[1] != _VAR]
    start = [sum(lows[ins[0]] > v for ins in prog) for v in vars_]
    pre = [frame.preimages(mod) for mod in range(len(frame.alphabet))]
    vals = [0] * len(lows)  # all variables start empty
    _evaluate(prog, pre, (), full, vals)
    root = outs[0]
    if vals[root] != full:
        return False
    if not vars_:
        return True
    first, fast = slots[0], prog[start[0]:]
    for t in range(1, total):
        digit = t & full
        if digit:  # only the fastest variable changed
            for s in first:
                vals[s] = digit
            _evaluate(fast, pre, (), full, vals)
        else:
            j = ((t & -t).bit_length() - 1) // n  # the slowest position that changed
            for p in range(j + 1):
                for s in slots[p]:
                    vals[s] = t >> (p * n) & full
            _evaluate(prog[start[j]:], pre, (), full, vals)
        if vals[root] != full:
            return False
    return True


def model_depth(model: Model) -> tuple[int, list[Partition]]:
    """Stabilization index of the refinement sequence induced by the
    valuation extents, together with the full partition trace."""
    trace, stab = partitions.refine_sequence(model.frame, model.valuation)
    return stab, trace


def restrict_model(model: Model, points) -> Model:
    """Restriction of frame and valuation to a point subset, reindexed along
    sorted(points)."""
    pts = sorted(set(points))
    sub = restriction(model.frame, pts)
    pos = {p: i for i, p in enumerate(pts)}
    val = tuple(
        frozenset(pos[p] for p in ext if p in pos) for ext in model.valuation
    )
    return Model(sub, model.k, val)
