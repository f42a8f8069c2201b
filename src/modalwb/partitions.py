"""Partitions of frame points: tuned partitions, induced refinement
sequences, coarsest tuned refinements, frame modal depth, and subalgebra
counting.

Refinement from a family of point sets runs through one staged loop,
``_stages`` (exact modal depth has its own, below): stage 0 is the
partition induced by the family, and each later stage splits the previous
one by the modal preimages of its blocks. Blocks only ever split, so a
stage is the fixpoint exactly when its successor has as many blocks, and
on an n-point frame the loop stops within n stages. The fixpoint is tuned,
and it is the coarsest tuned refinement of the seed: every tuned
refinement of the seed also refines it. The stabilization index (the
number of the fixpoint stage) is the modal depth of the seeding data, and
the maximum over all seed partitions is the modal depth of the frame.
``is_tuned`` takes one step of that loop and checks that it splits
nothing.

One stage is one call of ``_split_masks``, the only split loop: the
blocks, split by the preimage of every block under every modality. A
preimage is the OR of the frame's predecessor rows over the block's points
(``Frame.preimages``), the standard step of partition refinement
(Paige & Tarjan 1987). Many splitters repeat, or miss or cover every block;
the split loop skips them, and returns the blocks in min-element order.

Exact frame modal depth does not run that loop. It writes a partition as a
tuple of canonical labels, ``labels[a]`` being the least point of a's
block, and computes one stage as one packed int (the naive stage of
Kanellakis & Smolka 1990 in the signature form of Blom & Orzan 2003). Each
point owns a field of n bits for its own label and n bits per modality for
the labels its successors hit: bit l of a's segment for m is set iff a lies
in the m-preimage of the block labelled l, so points with equal fields
share a block of the next stage, labelled by the least of them. The bits
each point sets for each label it may carry are computed once per call from
its predecessor rows, so a stage is an OR of n precomputed ints and no
splitter is looked up. A stage is itself a set partition, so one memo per
call maps each label tuple met to its index (0 at a fixpoint, else 1 + the
index of its successor), and a seed's stages are computed only until they
reach a known partition. Seeds are enumerated depth first with the
signature of their prefix, so a seed costs one OR and its first stage one
field split, and a seed whose first stage splits nothing is tuned and never
reaches the memo. Since every stage before the fixpoint adds a block, a
partition with k blocks has index at most n - k, and the enumeration of
seeds skips every partition with too many blocks to beat the deepest seed
found so far.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass
from typing import Iterable, Sequence

from .frames import Frame, disjoint_sum, iter_bits, mask_of, points_of


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
        blocks = [frozenset(b) for b in blocks]
        seen: set[int] = set()
        for b in blocks:
            if not b:
                raise ValueError("empty block in partition")
            for p in b:
                if not 0 <= p < n:
                    raise ValueError(f"point {p} out of range")
                if p in seen:
                    raise ValueError(f"point {p} occurs in two blocks")
                seen.add(p)
        if len(seen) != n:
            raise ValueError("blocks do not cover all points")
        return cls(n, tuple(sorted(blocks, key=min)))

    def index_of(self, point: int) -> int:
        for i, b in enumerate(self.blocks):
            if point in b:
                return i
        raise ValueError(f"point {point} not covered")

    def __len__(self):
        return len(self.blocks)


def singletons(n: int) -> Partition:
    return Partition.of(n, [{i} for i in range(n)])


def one_block(n: int) -> Partition:
    return Partition.of(n, [set(range(n))] if n else [])


def refines(fine: Partition, coarse: Partition) -> bool:
    """True iff every block of ``fine`` lies inside a block of ``coarse``."""
    return all(any(b <= c for c in coarse.blocks) for b in fine.blocks)


def _split_masks(blocks: list[int], splitters: Iterable[int]) -> list[int]:
    """The blocks split by every splitter, in min-element order. A repeated
    splitter, or one that misses or covers every block, splits nothing and
    is skipped."""
    cover = 0
    for b in blocks:
        cover |= b
    out = list(blocks)
    for s in {s & cover for s in splitters} - {0, cover}:
        # the part outside s, appended, is not split by s again
        for i in range(len(out)):
            b = out[i]
            inside = b & s
            if inside and inside != b:
                out[i] = inside
                out.append(b ^ inside)
    out.sort(key=lambda m: m & -m)
    return out


def _induced_masks(n: int, set_masks: Iterable[int]) -> list[int]:
    full = (1 << n) - 1
    if full == 0:
        return []
    return _split_masks([full], set_masks)


def _family_masks(n: int, family: Iterable[Iterable[int]]) -> list[int]:
    masks = []
    for s in family:
        m = 0
        for p in s:
            if not 0 <= p < n:
                raise ValueError(f"point {p} out of range for {n} points")
            m |= 1 << p
        masks.append(m)
    return masks


def induced_partition(n: int, family: Iterable[Iterable[int]]) -> Partition:
    """Partition into classes of equal membership profile across the family."""
    blocks = tuple(points_of(m) for m in _induced_masks(n, _family_masks(n, family)))
    return Partition(n, blocks)


def _check_partition(frame: Frame, partition: Partition) -> None:
    if partition.n != frame.n:
        raise ValueError("partition is over a different point count")
    Partition.of(frame.n, partition.blocks)


def _next_stage_masks(frame: Frame, blocks: list[int], mods: Iterable[int]) -> list[int]:
    pres = [frame.preimages(mod) for mod in mods]
    return _split_masks(blocks, [pre[b] for pre in pres for b in blocks])


def _stages(frame: Frame, initial_masks: Iterable[int]):
    """Block masks of every refinement stage from the partition induced by
    the masks, up to and including the first fixpoint."""
    mods = range(len(frame.alphabet))
    cur = _induced_masks(frame.n, initial_masks)
    while True:
        yield cur
        nxt = _next_stage_masks(frame, cur, mods)
        if len(nxt) == len(cur):
            return
        cur = nxt


def is_tuned(frame: Frame, partition: Partition, modalities: Sequence[int] | None = None) -> bool:
    """True iff block-to-block visibility is all-or-nothing: for every
    modality and blocks U, V, either U lies inside the preimage of V or it
    misses it entirely."""
    _check_partition(frame, partition)
    mods = range(len(frame.alphabet)) if modalities is None else modalities
    blocks = [mask_of(b) for b in partition.blocks]
    return len(_next_stage_masks(frame, blocks, mods)) == len(blocks)


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
    for stage, blocks in enumerate(_stages(frame, _family_masks(n, initial))):
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


def _exact_depth(frame: Frame) -> int:
    """Largest stabilization index over every set partition of the points,
    each partition's index computed at most once (see the module docstring).
    """
    n = frame.n
    if not n:
        return 0
    mods = len(frame.alphabet)
    # point a's field: a's label in the low n bits, then one n-bit segment per
    # modality holding the labels of a's successors
    width = n * (mods + 1)
    shifts = range(0, n * width, width)
    field = (1 << width) - 1
    delta = []  # delta[b][l]: the bits that point b with label l sets
    for b in range(n):
        row = [1 << (b * width + l) for l in range(n)]
        for m in range(mods):
            spread = 0
            for a in iter_bits(frame.preimages(m)[1 << b]):
                spread |= 1 << (a * width + n * (m + 1))
            row = [d | spread << l for l, d in enumerate(row)]
        delta.append(row)
    index: dict[tuple[int, ...], int] = {}  # labels -> stabilization index
    best = 0
    # Seeds depth first, point by point, from a stack of (labels so far,
    # block leaders, their signature): the point joins each block in turn,
    # then opens its own. A recursive closure would keep the memo alive in a
    # reference cycle until the next collection.
    stack = [((0,), (0,), delta[0][0])]
    while stack:
        labels, leaders, sig = stack.pop()
        i = len(labels)
        if i < n:
            row = delta[i]
            # the seeds below a new block have index <= n - |leaders| - 1
            if n - len(leaders) > best + 1:
                stack.append((labels + (i,), leaders + (i,), sig | row[i]))
            for lab in reversed(leaders):
                stack.append((labels + (lab,), leaders, sig | row[lab]))
            continue
        fields = [sig >> s & field for s in shifts]
        key = tuple(map(fields.index, fields))  # stage 1
        if key == labels:  # tuned: index 0
            continue
        chain = []
        while key not in index:
            sig = 0
            for row, lab in zip(delta, key):
                sig |= row[lab]
            fields = [sig >> s & field for s in shifts]
            nxt = tuple(map(fields.index, fields))
            if nxt == key:
                index[key] = 0
                break
            chain.append(key)
            key = nxt
        d = index[key]
        for key in reversed(chain):
            d += 1
            index[key] = d
        best = max(best, d + 1)
    return best


EXACT_DEPTH_LIMIT = 8


def frame_modal_depth(
    frame: Frame,
    mode: str = "exact",
    trials: int = 200,
    seed: int = 0,
) -> int:
    """Modal depth of the frame: the largest stabilization index of the
    refinement sequence over seed partitions of the points.

    Exact mode covers every set partition (Bell-number many, so the point
    count is capped at 8); the sequence depends only on the partition
    induced by a seeding family, which is why set partitions suffice. It
    computes each partition's index at most once, memoised along the
    refinement chains, and skips the seeds with k blocks once the best index
    found is at least n - k, their bound. Sampled mode maximizes over random
    seed partitions and is only a lower bound.
    """
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
    refinement of the induced partition."""
    *_, fixed = _stages(frame, _family_masks(frame.n, generators))
    return 2 ** len(fixed)


def count_k_formulas(frame: Frame, k: int, cap: int = 4096) -> int:
    """Number of pairwise nonequivalent k-formulas over the frame's logic.

    Builds the disjoint sum of one copy of the frame per k-valuation, seeds
    one generator per variable (the union of its extents across copies), and
    counts the generated subalgebra.
    """
    if k < 0:
        raise ValueError("k must be non-negative")
    n = frame.n
    bits = n * k
    if cap < 1 or bits >= cap.bit_length():  # exactly 2^bits > cap
        raise CapExceeded(f"2^{bits} valuation profiles exceed cap {cap}")
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
