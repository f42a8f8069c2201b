"""Partitions of frame points: tuned partitions, induced refinement
sequences, coarsest tuned refinements, frame modal depth, and subalgebra
counting.

Refinement from a family of point sets runs through one staged loop,
``_stages`` (exact modal depth has its own, below): stage 0 is the
partition induced by the family, and each later stage splits the previous
one by the modal preimages of its blocks. Only the blocks the previous
stage created need to split it: a block that survived from the stage
before has already split it once, so every block lies inside or outside
its preimage. Blocks only ever split, so a stage is the fixpoint exactly
when its successor has as many blocks, and on an n-point frame the loop
stops within n stages. The fixpoint is tuned, and it is the coarsest tuned
refinement of the seed: every tuned refinement of the seed also refines it.
The stabilization index (the number of the fixpoint stage) is the modal
depth of the seeding data, and the maximum over all seed partitions is the
modal depth of the frame. ``is_tuned`` has no stage before, so it splits a
partition once by the preimages of all its blocks and checks that nothing
splits.

One stage is one call of ``_split_masks``, the only split loop: the
blocks, split by the preimage of every new block under every modality. A
preimage is the OR of the frame's predecessor rows over the block's points
(``Frame.preimages``), the standard step of partition refinement; taking
only new blocks as splitters is the rule of Hopcroft (1971) and
Paige & Tarjan (1987). Many splitters repeat, or miss or cover every block;
the split loop skips them, stops each splitter at the block that holds the
last of its points, and returns the blocks in min-element order.

Exact frame modal depth does not run that loop either: it refines every
set partition of the points at once, one bit lane per partition
(bit-slicing, Biham 1997, over the naive stage of Kanellakis & Smolka
1990). ``eq[a][b]`` is one int whose bit s is set iff points a and b share
a block in lane s. In one stage, bit s of ``hit_m[a][c]`` is set iff a has
an m-successor in c's block, the m-successors' ``eq`` rows folded by
``map(or_, ...)``, and a and b stay together in a lane iff their hits agree
there for every modality and point. A lane that stops splitting stays
fixed, so the modal depth is the number of stages in which some lane
splits; a pair apart in every lane drops out. The table is built per call
from label bit-planes: bit s of plane k of a point is bit k of its block
number in lane s, blocks numbered by least point (restricted growth, Knuth
TAOCP 7.2.1.5), and ``eq[a][b]`` holds the lanes where all planes agree.
Point a needs a.bit_length() planes, as its block number is at most a.
The lanes are grouped by block count and grown point by point: group c
for i + 1 points is c copies of group c for i points, point i joining
block j in copy j, then group c - 1 with point i opening block c - 1. A
kept plane is copied by one multiplication; plane k of point i is
stamped from its runs, the copies with bit k set coming in runs of 2^k
every 2^(k + 1), by two shifts of the period marks and a subtraction, the
marks doubling from plane to plane down to the copies themselves. The
last point's groups go straight into the merged planes.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass
from functools import partial, reduce
from operator import or_, xor
from typing import Iterable, Sequence

from .frames import Frame, _checked_mask, disjoint_sum, iter_bits, mask_of, points_of
from .syntax import _index, _nat


class CapExceeded(RuntimeError):
    """Raised when a brute-force enumeration would exceed its cap."""


@dataclass(frozen=True)
class Partition:
    """Disjoint nonempty blocks covering {0..n-1}, in min-element order.

    ``birth`` (present on partitions produced by refinement) records, per
    block, the first stage at which the block appeared.
    """

    n: int
    blocks: tuple[frozenset[int], ...]
    birth: tuple[int, ...] | None = None

    @classmethod
    def of(cls, n: int, blocks: Iterable[Iterable[int]]) -> "Partition":
        n = _nat(n, "n")
        masks = []
        seen = 0
        for b in blocks:
            m = _checked_mask(n, b)
            if not m:
                raise ValueError("empty block in partition")
            twice = m & seen
            if twice:
                raise ValueError(f"point {(twice & -twice).bit_length() - 1} occurs in two blocks")
            seen |= m
            masks.append(m)
        if seen != (1 << n) - 1:
            raise ValueError("blocks do not cover all points")
        return cls(n, tuple(points_of(m) for m in sorted(masks, key=lambda m: m & -m)))

    def __len__(self):
        return len(self.blocks)


def refines(fine: Partition, coarse: Partition) -> bool:
    """True iff every block of ``fine`` lies inside a block of ``coarse``,
    the order in which a coarsest tuned refinement is coarsest."""
    return all(any(b <= c for c in coarse.blocks) for b in fine.blocks)


def _split_masks(blocks: list[int], splitters: Iterable[int]) -> list[int]:
    """The blocks split by every splitter, in min-element order. A repeated
    splitter, or one that misses or covers every block, splits nothing and
    is skipped, and a splitter stops at the block that holds the last of
    its points."""
    cover = 0
    for b in blocks:
        cover |= b
    out = list(blocks)
    for s in {s & cover for s in splitters} - {0, cover}:
        left = s  # its points in no block seen yet
        # the part outside s, appended, is not split by s again
        for i, b in enumerate(out):
            inside = b & left
            if inside:
                if inside != b:
                    out[i] = inside
                    out.append(b ^ inside)
                left ^= inside
                if not left:
                    break
    out.sort(key=lambda m: m & -m)
    return out


def _induced_masks(n: int, set_masks: Iterable[int]) -> list[int]:
    full = (1 << n) - 1
    if full == 0:
        return []
    return _split_masks([full], set_masks)


def induced_partition(n: int, family: Iterable[Iterable[int]]) -> Partition:
    """Partition into classes of equal membership profile across the family."""
    n = _nat(n, "n")
    blocks = tuple(points_of(m) for m in _induced_masks(n, [_checked_mask(n, s) for s in family]))
    return Partition(n, blocks)


def _check_partition(frame: Frame, partition: Partition) -> None:
    if partition.n != frame.n:
        raise ValueError("partition is over a different point count")
    Partition.of(frame.n, partition.blocks)


def _stages(frame: Frame, initial_masks: Iterable[int]):
    """Block masks of every refinement stage from the partition induced by
    the masks, up to and including the first fixpoint.

    A stage splits the previous one only by the preimages of the blocks
    the previous stage created (at stage 0, every block): a block that
    survived from the stage before already split it, so every block lies
    inside or outside its preimage."""
    pres = [frame.preimages(mod) for mod in range(len(frame.alphabet))]
    cur = fresh = _induced_masks(frame.n, initial_masks)
    while True:
        yield cur
        nxt = _split_masks(cur, [pre[b] for pre in pres for b in fresh])
        if len(nxt) == len(cur):
            return
        old = set(cur)
        fresh = [b for b in nxt if b not in old]
        cur = nxt


def is_tuned(frame: Frame, partition: Partition, modalities: Sequence[int] | None = None) -> bool:
    """True iff block-to-block visibility is all-or-nothing: for every
    modality and blocks U, V, either U lies inside the preimage of V or it
    misses it entirely."""
    _check_partition(frame, partition)
    mods = range(len(frame.alphabet)) if modalities is None else modalities
    pres = [frame.preimages(mod) for mod in mods]
    blocks = [mask_of(b) for b in partition.blocks]
    return len(_split_masks(blocks, [pre[b] for pre in pres for b in blocks])) == len(blocks)


def refine_sequence(
    frame: Frame, initial: Iterable[Iterable[int]]
) -> tuple[list[Partition], int]:
    """Iterated refinement by modal preimages.

    Stage 0 is the partition induced by the initial family; stage d is
    induced by the blocks of stage d-1 together with every relation's
    preimage of each of those blocks. Returns the trace of partitions up to
    and including the first fixpoint, and the stabilization index (the
    least d with stage d equal to stage d+1). Each partition in the trace
    carries per-block birth stages.
    """
    n = frame.n
    births: dict[int, int] = {}
    trace = []
    for stage, blocks in enumerate(_stages(frame, [_checked_mask(n, s) for s in initial])):
        births = {b: births.get(b, stage) for b in blocks}
        trace.append(
            Partition(
                n,
                tuple(points_of(b) for b in blocks),
                tuple(births[b] for b in blocks),
            )
        )
    return trace, len(trace) - 1


def coarsest_tuned_refinement(frame: Frame, partition: Partition) -> Partition:
    """Stabilized refinement of the partition; tuned, refines the input, and
    is refined by every tuned refinement of the input."""
    _check_partition(frame, partition)
    trace, _ = refine_sequence(frame, partition.blocks)
    return trace[-1]


def _stabilization_masks(frame: Frame, initial_masks: list[int]) -> int:
    return sum(1 for _ in _stages(frame, initial_masks)) - 1


def _random_partition_masks(rng: random.Random, n: int) -> list[int]:
    if n == 0:
        return []
    labels = [0] * n
    used = 1
    for i in range(1, n):
        labels[i] = rng.randint(0, used)
        used = max(used, labels[i] + 1)
    out = [0] * used
    for p, l in enumerate(labels):
        out[l] |= 1 << p
    return out


def _lane_table(n: int) -> list[list[int]]:
    """``eq[a][b]`` over one lane per set partition of the n points: bit s
    is set iff a and b share a block in lane s."""
    # group c: its lane count and planes, point by point: point a has
    # a.bit_length() of them, its block number being at most a, and bit s of
    # its plane k is bit k of that number in the group's lane s
    groups = [(1, [])]  # no points: one lane, the empty partition
    planes, offset = [], 0  # the last point's groups, merged side by side
    for i in range(n):
        held = len(groups[0][1])  # planes of the points before i
        groups.append((0, [0] * held))
        grown = [(0, [0] * (held + i.bit_length()))]
        if i == n - 1:  # the merged planes start as that group's zeros
            planes = grown[0][1]
        for c in range(1, i + 2):
            # c copies of group c, point i joining block j in copy j, then
            # group c - 1, point i opening block c - 1
            (same, kept), (opened, prev) = groups[c], groups[c - 1]
            top = c - 1
            cut = top * same  # the last copy's lanes run on into the opened ones
            low = (1 << cut) - 1
            tail = (1 << cut + same + opened) - 1 ^ low
            # the copies with bit k set come in runs of 2^k every 2^(k + 1),
            # from copy 2^k; starts marks where each period begins
            point = [0] * i.bit_length()
            starts = 1
            for k in reversed(range(top.bit_length())):
                run = same << k  # lanes of 2^k copies
                point[k] = (starts << 2 * run) - (starts << run) & low | tail * (top >> k & 1)
                starts |= starts << run
            width = cut + same
            copies = starts & (1 << width) - 1  # bit j * same for each copy j
            group = [x * copies | y << width for x, y in zip(kept, prev)] + point
            if i < n - 1:
                grown.append((width + opened, group))
            else:
                planes = [p | x << offset for p, x in zip(planes, group)]
                offset += width + opened
        groups = grown
    full = (1 << offset) - 1
    # a and b share a block in exactly the lanes where all their planes
    # agree, the missing high planes of the lower point read as zero
    w = (n - 1).bit_length()
    labels, at = [], 0
    for a in range(n):
        d = a.bit_length()
        labels.append(planes[at : at + d] + [0] * (w - d))
        at += d
    eq = [[full] * n for _ in range(n)]
    for a in range(n):
        for b in range(a):
            eq[a][b] = eq[b][a] = full ^ reduce(or_, map(xor, labels[a], labels[b]))
    return eq


def _exact_depth(frame: Frame) -> int:
    """Largest stabilization index over every set partition of the points,
    one lane per partition, all refined at once (see the module docstring).
    """
    n = frame.n
    eq = _lane_table(n)
    rows = [frame.rows(m) for m in range(len(frame.alphabet))]
    zero = [0] * n
    # per point and modality: the eq rows of its successors, or one zero row
    seen = [[[eq[t] for t in iter_bits(r[a])] or [zero] for r in rows] for a in range(n)]
    fold = partial(map, or_)  # two rows ORed entry by entry
    pairs = [(a, b) for a in range(n) for b in range(a)]
    depth = 0
    while True:
        # bit s of hit[a][m * n + c] is set iff a has an m-successor in c's
        # block in lane s; every modality reads the same eq
        hit = [[x for rs in per_mod for x in reduce(fold, rs)] for per_mod in seen]
        split = False
        live = []
        for a, b in pairs:
            e = eq[a][b]
            cut = e & reduce(or_, map(xor, hit[a], hit[b]), 0)
            if cut:
                split = True
                e ^= cut
                eq[a][b] = eq[b][a] = e
            if e:
                live.append((a, b))
        if not split:
            return depth
        depth += 1
        pairs = live


EXACT_DEPTH_LIMIT = 10


def frame_modal_depth(
    frame: Frame,
    mode: str = "exact",
    trials: int = 200,
    seed: int = 0,
) -> int:
    """Modal depth of the frame: the largest stabilization index of the
    refinement sequence over seed partitions of the points.

    Exact mode covers every set partition (Bell-number many, so the point
    count is capped at 10); the sequence depends only on the partition
    induced by a seeding family, which is why set partitions suffice. It
    refines all of them at once, one bit lane each. Sampled mode maximizes
    over random seed partitions and is only a lower bound.
    """
    trials, seed = _nat(trials, "trials"), _index(seed, "seed")
    n = frame.n
    if mode == "exact":
        if n > EXACT_DEPTH_LIMIT:
            raise ValueError(
                f"exact mode enumerates set partitions and needs n <= {EXACT_DEPTH_LIMIT}, got {n}"
            )
        return _exact_depth(frame)
    if mode != "sampled":
        raise ValueError(f"unknown mode {mode!r}")
    rng = random.Random(seed)
    seeds = (_random_partition_masks(rng, n) for _ in range(trials))
    return max((_stabilization_masks(frame, masks) for masks in seeds), default=0)


def subalgebra_size(frame: Frame, generators: Iterable[Iterable[int]]) -> int:
    """Size of the subalgebra of the frame's powerset modal algebra generated
    by the given point sets: 2 to the number of blocks of the coarsest tuned
    refinement of the induced partition (acceptance criterion 3)."""
    *_, fixed = _stages(frame, [_checked_mask(frame.n, s) for s in generators])
    return 2 ** len(fixed)


# count_k_formulas on n-point random frames of density 0.35 drawn from
# random.Random(n) (one modality, a 2-core x86-64 Xeon host, CPython 3.11.7):
# 8 points with k = 1 (256 profiles) took 0.05-0.28 s over five frames,
# 9 points with k = 1 (512) 1.9-2.6 s over two, 10 points with k = 1 (1024)
# 27-31 s over two, and 6 points with k = 2 (4096) 21 s. At this cap n * k <= 8,
# so for k >= 1 the disjoint sum has at most 256 * 8 = 2048 points, frames.POINT_LIMIT.
DEFAULT_PROFILE_CAP = 256


def count_k_formulas(frame: Frame, k: int, cap: int = DEFAULT_PROFILE_CAP) -> int:
    """Number of pairwise nonequivalent k-formulas over the frame's logic.

    Builds the disjoint sum of one copy of the frame per k-valuation, seeds
    one generator per variable (the union of its extents across copies), and
    counts the generated subalgebra.
    """
    k, cap = _nat(k, "k"), _nat(cap, "cap")
    n = frame.n
    bits = n * k
    if cap < 1 or bits >= cap.bit_length():  # exactly 2^bits > cap
        raise CapExceeded(f"2^{bits} valuation profiles exceed cap {cap}")
    if not n:  # one empty profile, whatever k: the subalgebra {0}
        return 1
    profiles = 1 << bits
    big = disjoint_sum([frame] * profiles, frame.alphabet)
    gen_masks = [0] * k
    off = 0
    for combo in itertools.product(range(1 << n), repeat=k):
        for l, m in enumerate(combo):
            gen_masks[l] |= m << off
        off += n
    *_, fixed = _stages(big, gen_masks)
    return 2 ** len(fixed)
