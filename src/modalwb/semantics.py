"""Truth sets, brute-force frame validity, and model-level modal depth.

Everything here is pure and works over immutable inputs. There is one
compiler and one evaluator. ``_compile`` turns the DAG below one or more
root formulas into a flat instruction list, children first, in one
explicit-stack walk that compiles a node once its children have slots
(pushing only the children that lack one), measures each instruction's
modal depth and checks its modality ids; ``_evaluate`` runs a list of
instructions under one valuation with point sets as bitmasks, each
instruction writing its own slot of a value list, and reads a diamond
from ``pre``, the frame's ``preimages`` per modality (an OR of the
predecessor rows of the argument's points).
``extents_and_depths`` compiles many roots into one program, so subformulas
the roots share are walked, measured and evaluated once; ``extent`` is its
one-root case. ``validity_bruteforce`` counts valuations with an odometer
and runs every instruction bit-sliced (Biham, FSE 1997): one int holds
every point's lanes, so the evaluator runs a chunk of 2^c values of the
fastest variable in one pass, with ``_Lanes`` as the preimage mappings.
A formula without variables is one chunk of one lane (c = 0) through the
same ``_Lanes``: its values are plain point masks, and a one-bit lane
makes ``_Lanes`` equal to the frame's preimage mapping. After the first
chunk an instruction re-runs only when a variable it reads changes
(change propagation), so variable-free ones, and on at most 8 points
those of the fastest variable alone, run once per call. The odometer
keeps each variable's sliced extent, updates it with one XOR with a
precomputed run of points, and writes it straight into the slots of
its occurrences.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from . import partitions
from .frames import Frame, _checked_mask, _project, iter_bits, mask_of, points_of, restriction
from .partitions import CapExceeded, Partition
from .syntax import And, Dia, Falsum, Formula, Imp, Neg, Or, Var, _index, _nat, _var_index

# At this cap validity_bruteforce took 1.0-1.4 s for 3 variables on 8 points
# and 4.6-8.3 s for 1 variable on 24 points (valid formulas, several runs on a
# 2-core x86-64 host whose speed varies, CPython 3.11).
DEFAULT_VALUATION_CAP = 1 << 24
# validity_bruteforce slices its fastest variable on at most this many
# points: 2^8 lanes, so a sliced value takes 256 bits a point. Slicing
# min(n*k, 8) counter bits instead, the slower variables too, measured 2.5x
# the bench's validity ops/s but +20% peak RSS, which grows with the bench's
# per-op records; it waits for a bench whose memory does not grow per op.
_LANE_POINTS = 8


@dataclass(frozen=True)
class Model:
    """A frame with a k-valuation (one extent per variable p0..p(k-1))."""

    frame: Frame
    k: int
    valuation: tuple[frozenset[int], ...]

    def __post_init__(self):
        masks = [_checked_mask(self.frame.n, v) for v in self.valuation]
        object.__setattr__(self, "valuation", tuple(map(points_of, masks)))
        object.__setattr__(self, "k", _index(self.k, "k"))
        if self.k < 0 or len(masks) != self.k:
            raise ValueError(f"expected {self.k} extents, got {len(masks)}")


_VAR, _FALSE, _NEG, _AND, _OR, _IMP, _DIA, _BOX = range(8)
_NO_VAR = math.inf  # the level of an instruction that no odometer step re-runs
_BINARY = {And: _AND, Or: _OR, Imp: _IMP}


def _compile(frame: Frame, *roots: Formula):
    """One instruction list over the unique nodes below all roots, in the
    order of ``iter_nodes(*roots)``. Each instruction is ``(slot, op, x, y)``
    and writes ``vals[slot]``, its position in the list. Returns ``(prog,
    depths, outs, vars_)``: the instructions, the modal depth of each slot's
    subformula, each root's slot, and the sorted variable indices. Rejects
    modality ids outside the frame's alphabet, negative variable indices,
    and ids and indices that are not ints (a ``TypeError``).

    The walk reads the top of an explicit stack: a node already compiled is
    popped, a node whose children all have slots is compiled and popped, and
    otherwise only the children without a slot are pushed, right then left,
    so the node is compiled when it is met again. A node whose children are
    already compiled, as shared subformulas often are, takes one visit."""
    index: dict[int, int] = {}  # id -> slot
    prog: list[tuple[int, int, int, int]] = []
    depths: list[int] = []
    vars_, bad = set(), set()
    size = len(frame.alphabet)
    stack = list(reversed(roots))
    while stack:
        g = stack[-1]
        k = id(g)
        if k in index:
            stack.pop()
            continue
        t = type(g)
        i = len(prog)
        op = _BINARY.get(t)
        if op is not None:
            x, y = index.get(id(g.left)), index.get(id(g.right))
            if x is None or y is None:
                if y is None:
                    stack.append(g.right)
                if x is None:
                    stack.append(g.left)
                continue
            dx, dy = depths[x], depths[y]
            ins, d = (i, op, x, y), dx if dx > dy else dy
        elif t is Neg or t is Dia:
            x = index.get(id(g.child))
            if x is None:
                stack.append(g.child)
                continue
            if t is Neg:
                ins, d = (i, _NEG, x, 0), depths[x]
            else:
                mod = _index(g.mod, "modality id")
                ins, d = (i, _BOX if g.boxed else _DIA, mod, x), 1 + depths[x]
                if not 0 <= mod < size:
                    bad.add(mod)
        elif t is Var:
            ins, d = (i, _VAR, _var_index(g), 0), 0
            vars_.add(g.index)
        elif t is Falsum:
            ins, d = (i, _FALSE, 0, 0), 0
        else:
            raise TypeError(f"not a formula: {g!r}")
        stack.pop()
        index[k] = i
        prog.append(ins)
        depths.append(d)
    if bad:
        raise ValueError(f"modality ids {sorted(bad)} outside alphabet of size {size}")
    vars_ = sorted(vars_)
    if vars_ and vars_[0] < 0:
        raise ValueError(f"variable indices {[v for v in vars_ if v < 0]} are negative")
    return prog, depths, [index[id(f)] for f in roots], vars_


def _levels(prog, position) -> list[float]:
    """The level of each instruction of a ``_compile`` program, in one
    children-first pass: the smallest ``position[v]`` over the variables v
    its subformula reads, ``_NO_VAR`` when it reads none."""
    levels: list[float] = []
    for _, op, x, y in prog:
        if op == _VAR:
            level = position[x]
        elif op == _FALSE:
            level = _NO_VAR
        elif op == _NEG:
            level = levels[x]
        elif op == _DIA or op == _BOX:
            level = levels[y]
        else:
            lx, ly = levels[x], levels[y]
            level = lx if lx < ly else ly
        levels.append(level)
    return levels


def _evaluate(prog, pre, var_masks, full: int, vals: list[int]) -> None:
    """Run the instructions in order under one valuation, each writing its
    point mask to its own slot of ``vals``; ``pre[mod]`` is the frame's
    preimage mapping of a modality (``_Lanes`` on sliced values). The slots
    an instruction reads must already hold current values: written earlier
    in ``prog`` or left valid by an earlier run. The cases are tested most
    frequent first."""
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


def _stride(mask: int, width: int) -> int:
    """Bit a*width set for each point a of the mask."""
    return sum(1 << a * width for a in iter_bits(mask))


class _Lanes:
    """Lane-wise preimages under one modality, from its predecessor rows:
    point b's lanes, masked out and multiplied by a bit at the field of each
    predecessor of b, land in every predecessor's field without carries."""

    __slots__ = ("terms", "lane")

    def __init__(self, pred: list[int], width: int):
        self.terms = [(b * width, _stride(row, width)) for b, row in enumerate(pred) if row]
        self.lane = (1 << width) - 1

    def __getitem__(self, v: int) -> int:
        lane, acc = self.lane, 0
        for shift, m in self.terms:
            acc |= (v >> shift & lane) * m
        return acc


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
    index order) takes the n-bit digit p of t as its extent. Every
    instruction runs bit-sliced, on chunks of 2^c counters, c = min(n, 8)
    (c = 0 without variables): bits a*2^c .. a*2^c + 2^c - 1 of a sliced
    value are point a's lanes, lane l holds point a < c in the fastest
    variable iff bit a of l is set, and a point a >= c in any variable iff
    bit a of that variable's digit of the chunk's counter is set. ``_Lanes``
    maps diamonds; a formula without variables is one chunk of one lane
    through the same ``_Lanes``, its sliced values plain point masks.

    The odometer keeps each position's sliced digit. Stepping the counter
    by 2^c flips counter bits c .. z, z its lowest set bit: in the digit of
    position j = z // n that is a run of points, one XOR with a
    precomputed mask of their lanes, and the positions below j reset. An instruction's
    level is the smallest position it reads that can change (a digit wholly
    in the lanes, position 0 when n <= 8, never does). The first chunk runs
    every instruction; a later one writes the slots of the positions that
    changed and re-runs only the instructions whose level is at most j
    (change propagation), so an instruction that reads no changing position
    runs once per call.
    The formula is valid iff its sliced value is all ones in every chunk."""
    cap = _nat(cap, "cap")
    prog, _, outs, vars_ = _compile(frame, f)
    n, k = frame.n, len(vars_)
    bits = n * k
    if cap < 1 or bits >= cap.bit_length():  # exactly 2^bits > cap
        raise CapExceeded(f"{k} variables on {n} points need 2^{bits} assignments (cap {cap})")
    c = min(n, _LANE_POINTS) if vars_ else 0  # no variables: one lane, point masks
    # a position whose digit lies wholly in the lanes (0 when n <= c) never changes
    levels = _levels(prog, {v: p if (p + 1) * n > c else _NO_VAR for p, v in enumerate(vars_)})
    # Highest level first, a stable sort: a child's level is at least its
    # parent's, so children still come first, and the instructions that
    # position j reaches form a suffix, suffixes[j].
    prog.sort(key=lambda ins: levels[ins[0]], reverse=True)
    # the odometer writes the slots of each position's occurrences itself,
    # so the variable instructions go
    slots = [[i for i, op, x, _ in prog if op == _VAR and x == v] for v in vars_]
    prog = [ins for ins in prog if ins[1] != _VAR]
    suffixes = [prog[sum(levels[ins[0]] > j for ins in prog):] for j in range(k)]
    width = 1 << c
    lane, ones = (1 << width) - 1, (1 << n * width) - 1
    lanes = [_Lanes(frame.preimages(mod).pred, width) for mod in range(len(frame.alphabet))]
    # lane l of point a < c has bit a of l: runs of 2^a clear, 2^a set lanes
    low = sum((lane // ((1 << (1 << a)) + 1)) << (1 << a) << a * width for a in range(c))
    # a carry up to counter bit z flips every lane of points lo .. hi of
    # digit j = z // n, lo = max(c - j*n, 0) and hi = z - j*n: bits
    # lo*2^c .. (hi+1)*2^c - 1
    flips = [(1 << (z % n + 1) * width) - (1 << max(c - z // n * n, 0) * width)
             for z in range(bits)]
    # each position's sliced digit under counter 0: position 0 holds its lane points
    start = [low] + [0] * (k - 1) if k else []
    cur = start[:]
    sliced, root = [0] * len(levels), outs[0]
    run, j = prog, k - 1  # the first chunk writes every position and runs everything
    for t in range(0, 1 << bits, width):
        if t:
            z = (t & -t).bit_length() - 1
            j = z // n  # the slowest position that changed
            run = suffixes[j]
            cur[:j] = start[:j]  # the positions its carry reset
            cur[j] ^= flips[z]
        for p in range(j + 1):
            value = cur[p]
            for s in slots[p]:
                sliced[s] = value
        _evaluate(run, lanes, (), ones, sliced)
        if sliced[root] != ones:
            return False
    return True


def model_depth(model: Model) -> tuple[int, list[Partition]]:
    """A model's modal depth: the stabilization index of the refinement
    sequence induced by the valuation extents, and the partition trace."""
    trace, stab = partitions.refine_sequence(model.frame, model.valuation)
    return stab, trace


def restrict_model(model: Model, points) -> Model:
    """Restriction of frame and valuation to a point subset, reindexed along
    sorted(points)."""
    pts = sorted(set(points))
    return Model(restriction(model.frame, pts), model.k, _project(model.valuation, pts))
