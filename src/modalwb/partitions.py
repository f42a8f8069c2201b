"""Partitions of frame points: tuned partitions, induced refinement
sequences, coarsest tuned refinements, frame modal depth, and subalgebra
counting.

Refinement from a family of point sets runs through one staged loop,
``_stages`` (exact depth and counts have their own, below): stage 0 is the
partition induced by the family, and each later stage splits the previous
one by the modal preimages of its blocks. Blocks only ever split, so a
stage is the fixpoint exactly when its successor has as many blocks, and on
an n-point frame the loop stops within n stages. Nor does a block mask come
back, so one record, ``birth``, maps each mask to the first stage that
holds it, and a block born at stage s is definable at modal depth s. Only
the blocks born at the previous stage need to split it: an older block has
already split it once, so every block lies inside or outside its preimage.
The fixpoint is tuned, and it is the coarsest tuned refinement of the seed:
every tuned refinement of the seed also refines it. The stabilization index
(the number of the fixpoint stage) is the modal depth of the seeding data,
and the maximum over all seed partitions is the modal depth of the frame.
``is_tuned`` has no stage before, so it splits a partition once by the
preimages of all its blocks and checks that nothing splits.

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
splits. Only the live lanes, those that split at the stage before, can
split again: each stage ANDs a pair's ``eq`` with them before it cuts,
and a pair drops out once no live lane holds it together.

The lanes come in chunks of at most ``_CHUNK_LANES``, read at each call,
enough for every set partition up to 10 points: n^2 ints of that many
bits at most. A chunk fixes the block numbers of the first points, blocks
numbered by least point (restricted growth, Knuth TAOCP 7.2.1.5), and
holds every partition that extends that prefix; a prefix with more
extensions than a chunk holds is split by the next point's block. The
depth is the max over chunks, and a prefix of c blocks is skipped once
the depth reaches n - c, the most any seed of c blocks reaches. A chunk's
table is built per call from label bit-planes: bit s of plane k of a
point is bit k of its block number in lane s, and ``eq[a][b]`` holds the
lanes where all planes agree. Point a needs a.bit_length() planes, as its
block number is at most a. The lanes are grouped by block count and
grown point by point from the prefix's one lane: group c for i + 1 points
is c copies of group c for i points, point i joining block j in copy j,
then group c - 1 with point i opening block c - 1. A kept plane is copied
by one multiplication; plane k of point i is stamped from its runs, the
copies with bit k set coming in runs of 2^k every 2^(k + 1), by two
shifts of the period marks and a subtraction, the marks doubling from
plane to plane down to the copies themselves. The last point's groups go
straight into the merged planes.

Formula counts refine one type per (valuation, point) pair: the staged
loop on the disjoint sum of one frame copy per valuation, without the
sum, as refinement never crosses copies. A stage interns each pair's
signature (Blom & Orzan 2003): its own type and, per modality, the
types of its successors under the same valuation.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from functools import partial, reduce
from itertools import count
from operator import or_, xor
from typing import Iterable, Sequence

from .frames import Frame, _checked_mask, iter_bits, mask_of, points_of
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
    """Every refinement stage from the partition induced by the masks, up
    to and including the first fixpoint: its block masks, and ``birth``,
    one dict shared by every stage from each mask seen so far to its birth
    stage. Only the blocks born at a stage split it (module docstring)."""
    pres = [frame.preimages(mod) for mod in range(len(frame.alphabet))]
    cur = fresh = _induced_masks(frame.n, initial_masks)
    birth = {}
    for stage in count():
        birth.update(dict.fromkeys(fresh, stage))
        yield cur, birth
        nxt = _split_masks(cur, [pre[b] for pre in pres for b in fresh])
        if len(nxt) == len(cur):
            return
        fresh = [b for b in nxt if b not in birth]
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
    carries per-block birth stages, and the trace's partitions share the
    point set of every block that survives a stage.
    """
    n = frame.n
    points: dict[int, frozenset[int]] = {}  # block mask -> its points
    trace = []
    for stage, (blocks, birth) in enumerate(_stages(frame, [_checked_mask(n, s) for s in initial])):
        points.update((b, points_of(b)) for b in blocks if birth[b] == stage)
        trace.append(Partition(n, tuple(map(points.get, blocks)), tuple(map(birth.get, blocks))))
    return trace, len(trace) - 1


def coarsest_tuned_refinement(frame: Frame, partition: Partition) -> Partition:
    """Stabilized refinement of the partition; tuned, refines the input, and
    is refined by every tuned refinement of the input, with birth stages;
    only the last stage of ``_stages`` becomes a ``Partition``."""
    _check_partition(frame, partition)
    for blocks, birth in _stages(frame, [mask_of(b) for b in partition.blocks]):
        pass  # blocks only split, so the last stage is the fixpoint
    return Partition(frame.n, tuple(map(points_of, blocks)), tuple(map(birth.get, blocks)))


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


def _lane_table(n: int, prefix: Sequence[int] = ()) -> list[list[int]]:
    """``eq[a][b]`` over one lane per set partition of the n points whose
    first points have the restricted-growth block numbers ``prefix`` (by
    default every set partition): bit s is set iff a and b share a block in
    lane s."""
    # group c: its lane count and planes, point by point: point a has
    # a.bit_length() of them, its block number being at most a, and bit s of
    # its plane k is bit k of that number in the group's lane s
    start = [l >> k & 1 for a, l in enumerate(prefix) for k in range(a.bit_length())]
    groups = [(0, [0] * len(start))] * (len(prefix) + 1)
    groups[max(prefix, default=-1) + 1] = (1, start)  # the prefix's one lane
    planes, offset = start, 1  # the last point's groups, merged side by side
    for i in range(len(prefix), n):
        held = len(groups[0][1])  # planes of the points before i
        groups.append((0, [0] * held))
        grown = [(0, [0] * (held + i.bit_length()))]
        if i == n - 1:  # the merged planes start as that group's zeros
            planes, offset = grown[0][1], 0
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


def _lane_depth(eq: list[list[int]], rows: list[tuple[int, ...]]) -> int:
    """Largest stabilization index over the lanes of ``eq``, all refined at
    once under the successor rows (see the module docstring); ``eq`` is
    refined in place."""
    n = len(eq)
    zero = [0] * n
    # per point and modality: the eq rows of its successors, or one zero row
    seen = [[[eq[t] for t in iter_bits(r[a])] or [zero] for r in rows] for a in range(n)]
    fold = partial(map, or_)  # two rows ORed entry by entry
    pairs = [(a, b) for a in range(n) for b in range(a)]
    moved = -1  # the lanes that split at the last stage: at first, all
    depth = 0
    while True:
        # bit s of hit[a][m * n + c] is set iff a has an m-successor in c's
        # block in lane s; every modality reads the same eq
        hit = [[x for rs in per_mod for x in reduce(fold, rs)] for per_mod in seen]
        cuts = 0
        live = []
        for a, b in pairs:
            # a lane that did not split at the last stage never splits again
            e = eq[a][b] & moved
            if e:
                cut = e & reduce(or_, map(xor, hit[a], hit[b]), 0)
                if cut:
                    cuts |= cut
                    eq[a][b] = eq[b][a] = eq[a][b] ^ cut
                    e ^= cut
                if e:
                    live.append((a, b))
        if not cuts:
            return depth
        depth += 1
        pairs, moved = live, cuts


EXACT_DEPTH_LIMIT = 12


def _placements(n: int) -> list[list[int]]:
    """``ways[r][c]``: the ways to place r more points after c blocks, each
    point joining a block or opening the next; ``ways[n][0]`` is Bell(n)."""
    ways = [[1] * (n + 1)]
    for _ in range(n):
        last = ways[-1]
        ways.append([c * last[c] + last[c + 1] for c in range(len(last) - 1)])
    return ways


_PLACEMENTS = _placements(EXACT_DEPTH_LIMIT)

# Lanes per chunk of the exact-depth table: up to 10 points, Bell(10) =
# 115975 lanes, every set partition fits in one. On a dense 12-point frame
# with three modalities, 2^16 lanes took 1.26 times as long and 2^18 lanes
# 1.09 times as long, with 1.6 times the memory
_CHUNK_LANES = 1 << 17


def _exact_depth(frame: Frame) -> int:
    """Largest stabilization index over every set partition of the points,
    one lane per partition, refined in chunks of at most ``_CHUNK_LANES``
    lanes, read at call time (see the module docstring)."""
    n = frame.n
    rows = [frame.rows(m) for m in range(len(frame.alphabet))]
    depth = 0
    prefixes = [()]  # restricted-growth block numbers of the first points
    while prefixes:
        prefix = prefixes.pop()
        c = max(prefix, default=-1) + 1
        if n - c <= depth:  # a seed of c blocks has index at most n - c
            continue
        if _PLACEMENTS[n - len(prefix)][c] > _CHUNK_LANES:
            # the next point joins each block or opens one, block 0 first
            prefixes += [prefix + (l,) for l in reversed(range(c + 1))]
        else:
            depth = max(depth, _lane_depth(_lane_table(n, prefix), rows))
    return depth


def frame_modal_depth(
    frame: Frame,
    mode: str = "exact",
    trials: int = 200,
    seed: int = 0,
) -> int:
    """Modal depth of the frame: the largest stabilization index of the
    refinement sequence over seed partitions of the points.

    Exact mode covers every set partition (Bell-number many, so the point
    count is capped at ``EXACT_DEPTH_LIMIT``); the sequence depends only on
    the partition induced by a seeding family, which is why set partitions
    suffice. It refines them in chunks, one bit lane each. Sampled mode
    maximizes over random seed partitions and is only a lower bound.
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
    for blocks, _ in _stages(frame, [_checked_mask(frame.n, s) for s in generators]):
        pass  # a loop holds one stage at a time, star unpacking every stage
    return 2 ** len(blocks)


# count_k_formulas on n-point random frames of density 0.35 drawn from
# random.Random(n) (one modality, a 2-core x86-64 Xeon host, CPython 3.11.7):
# 8 points with k = 1 (256 profiles) took 5-10 ms over five frames, 9 points
# with k = 1 (512) 27-40 ms over two, 10 points with k = 1 (1024) 0.11-0.14 s
# over two, 6 points with k = 2 (4096) 0.25 s, and 12 points with k = 1 (4096)
# 2.4-2.5 s at a peak of 578 MB, as the keys grow with the type count.
DEFAULT_PROFILE_CAP = 256


def count_k_formulas(frame: Frame, k: int, cap: int = DEFAULT_PROFILE_CAP) -> int:
    """Number of pairwise nonequivalent k-formulas over the frame's logic.

    Each (valuation, point) pair has a type, at first the point's literal
    profile under the valuation; each stage splits the types by the types
    of the successors under the same valuation, up to the first stage that
    splits none. A formula's extents across all valuations are a union of
    final types, and every union is one, so the count is 2 to the number
    of types.
    """
    k, cap = _nat(k, "k"), _nat(cap, "cap")
    n = frame.n
    bits = n * k
    if cap < 1 or bits >= cap.bit_length():  # exactly 2^bits > cap
        raise CapExceeded(f"2^{bits} valuation profiles exceed cap {cap}")
    if not n:  # one empty profile, whatever k: the subalgebra {0}
        return 1
    rows = [frame.rows(m) for m in range(len(frame.alphabet))]
    edges = [(p, m, q) for m, r in enumerate(rows, 1) for p in range(n) for q in iter_bits(r[p])]
    # keys[p][v]: valuation v gives point p the literal profile in bits p*k..p*k+k-1
    keys = [[v >> p * k & (1 << k) - 1 for v in range(1 << bits)] for p in range(n)]
    classes, ids = 0, {}
    while True:
        types = [[ids.setdefault(key, len(ids)) for key in row] for row in keys]
        if len(ids) == classes:  # types only split: a stage that splits none is the fixpoint
            return 2**classes
        classes, ids = len(ids), {}  # frees the old keys before the new are built
        # field 0 the own type, field m the OR of 1 << t over the types t of the
        # (m - 1)-successors in the same valuation; a field is classes bits wide
        keys = list(types)
        for p, m, q in edges:
            keys[p] = [key | 1 << t + m * classes for key, t in zip(keys[p], types[q])]
