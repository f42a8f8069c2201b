"""Truth sets, brute-force frame validity, and model-level modal depth.

Everything here is pure and works over immutable inputs. There is one
compiler and one evaluator. ``_compile`` turns the DAG below one or more
root formulas into a flat instruction list, children first, and records
each instruction's modal depth on the way; ``_evaluate`` runs that list
under one valuation with point sets as bitmasks. ``extents_and_depths``
compiles many roots into one program, so subformulas the roots share are
walked, measured and evaluated once; ``extent`` is its one-root case, and
``validity_bruteforce`` reruns one program per valuation.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

from . import partitions
from .frames import Frame, mask_of, points_of, restriction
from .partitions import CapExceeded, Partition
from .syntax import And, Dia, Falsum, Formula, Imp, Neg, Or, Var, iter_nodes

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


def _compile(frame: Frame, *roots: Formula):
    """One instruction list over the unique nodes below all roots, children
    first. Returns ``(prog, depths, outs, vars_)``: the instructions, the
    modal depth of each instruction's subformula, each root's instruction
    index, and the sorted variable indices. Rejects modality ids outside
    the frame's alphabet."""
    index: dict[int, int] = {}
    prog: list[tuple[int, int, int]] = []
    depths: list[int] = []
    for g in iter_nodes(*roots):
        if isinstance(g, Var):
            ins, d = (_VAR, g.index, 0), 0
        elif isinstance(g, Falsum):
            ins, d = (_FALSE, 0, 0), 0
        elif isinstance(g, Neg):
            x = index[id(g.child)]
            ins, d = (_NEG, x, 0), depths[x]
        elif isinstance(g, Dia):
            x = index[id(g.child)]
            ins, d = (_BOX if g.boxed else _DIA, g.mod, x), 1 + depths[x]
        elif isinstance(g, (And, Or, Imp)):
            op = _AND if isinstance(g, And) else _OR if isinstance(g, Or) else _IMP
            x, y = index[id(g.left)], index[id(g.right)]
            ins, d = (op, x, y), max(depths[x], depths[y])
        else:
            raise TypeError(f"not a formula: {g!r}")
        index[id(g)] = len(prog)
        prog.append(ins)
        depths.append(d)
    size = len(frame.alphabet)
    bad = sorted({x for op, x, _ in prog if op >= _DIA and x >= size})
    if bad:
        raise ValueError(f"modality ids {bad} outside alphabet of size {size}")
    outs = [index[id(f)] for f in roots]
    return prog, depths, outs, sorted({x for op, x, _ in prog if op == _VAR})


def _evaluate(prog, frame: Frame, var_masks, full: int) -> list[int]:
    """The point mask of every instruction under one valuation."""
    preimage = frame.preimage_mask
    vals = [0] * len(prog)
    i = 0
    for op, x, y in prog:
        if op == _VAR:
            v = var_masks[x]
        elif op == _FALSE:
            v = 0
        elif op == _NEG:
            v = vals[x] ^ full
        elif op == _AND:
            v = vals[x] & vals[y]
        elif op == _OR:
            v = vals[x] | vals[y]
        elif op == _IMP:
            v = (vals[x] ^ full) | vals[y]
        elif op == _DIA:
            v = preimage(x, vals[y])
        else:  # _BOX: no successor outside the target
            v = preimage(x, vals[y] ^ full) ^ full
        vals[i] = v
        i += 1
    return vals


def extents_and_depths(model: Model, roots) -> list[tuple[int, int]]:
    """Extent (as a point bitmask) and modal depth of each root formula.

    The roots are compiled into one program, so a subformula they share is
    walked, measured and evaluated once."""
    prog, depths, outs, vars_ = _compile(model.frame, *roots)
    bad = [v for v in vars_ if v >= model.k]
    if bad:
        raise ValueError(f"variables {bad} outside the {model.k}-valuation")
    full = (1 << model.frame.n) - 1
    var_masks = [mask_of(ext) for ext in model.valuation]
    vals = _evaluate(prog, model.frame, var_masks, full)
    return [(vals[i], depths[i]) for i in outs]


def extent(model: Model, f: Formula) -> frozenset[int]:
    """Points of the model where the formula is true (standard Kripke
    semantics; a diamond is the relational preimage of its child's extent)."""
    [(mask, _)] = extents_and_depths(model, [f])
    return points_of(mask)


def validity_bruteforce(frame: Frame, f: Formula, cap: int = DEFAULT_VALUATION_CAP) -> bool:
    """True iff the formula is true at every point under every valuation of
    its occurring variables. Raises CapExceeded when the assignment space
    2^(k*n) is larger than ``cap``."""
    prog, _, _, vars_ = _compile(frame, f)
    n = frame.n
    total = (1 << n) ** len(vars_)
    if total > cap:
        raise CapExceeded(
            f"{len(vars_)} variables on {n} points need {total} assignments (cap {cap})"
        )
    full = (1 << n) - 1
    var_masks = [0] * (max(vars_, default=-1) + 1)
    # the first variable changes fastest; product varies its last slot fastest
    order = vars_[::-1]
    for combo in itertools.product(range(1 << n), repeat=len(vars_)):
        for v, m in zip(order, combo):
            var_masks[v] = m
        if _evaluate(prog, frame, var_masks, full)[-1] != full:  # the root is last
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
