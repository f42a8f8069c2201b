"""Finite polymodal Kripke frames and their relational algorithms.

A frame is a point set {0..n-1} with one binary relation per modality of an
alphabet. Each relation is stored as successor rows: one integer bitmask per
point, bit b of row a set iff a sees b. The rows are the frame's only stored
relational data. The preimage mappings ``Frame.preimages``, one per
modality, are the only view cached on the frame: built on first use, they
hold the predecessor rows (the transposed rows, bit a of row b set iff a
sees b) and OR one of them per point of their argument. The pair sets,
``Frame.relations``, are derived from the rows on each access. Images of
point masks (upsets, two-step successors, the fibers a lexicographic sum's
index point sees) are one ``_RowUnion`` lookup over successor rows.
Closure rows, clusters and height all come from one search over the union
relation's rows, ``_closure``, which each call runs afresh. Frames are
immutable after construction and safe to share; point sets are plain
frozensets at the API surface while the algorithms work on integer
bitmasks internally. Points given from outside (pairs, point sets, seed
families, partitions, valuations) enter through one check,
``_checked_mask``, which refuses a bool and a point outside 0..n-1.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from itertools import accumulate
from typing import Iterable, Sequence

from .syntax import Alphabet, _index, _nat

Pair = tuple[int, int]

# Largest ``points`` value a frame file may declare. ``Frame`` allocates its
# n-entry rows before any check on the pairs; at this size ``modalwb frame
# info`` takes about 0.2 s as a process on an empty relation, a chain or a
# cycle, and 1.7 s on a random frame with 3 successors a point, most of it in
# ``transitivity_index`` (2-core x86-64 host, Python 3.11).
POINT_LIMIT = 2048


class PathBudgetExceeded(RuntimeError):
    """Raised when path enumeration exceeds its configured budget."""


def mask_of(points: Iterable[int]) -> int:
    m = 0
    for p in points:
        m |= 1 << p
    return m


def _checked_mask(n: int, points: Iterable[int]) -> int:
    """``mask_of(points)`` for points given from outside, the one check they
    pass: a point that is not an int, a bool included, raises TypeError and
    one outside 0..n-1 ValueError."""
    m = 0
    for p in points:
        p = _index(p, "point")
        if not 0 <= p < n:
            raise ValueError(f"point {p} out of range")
        m |= 1 << p
    return m


def iter_bits(mask: int):
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def points_of(mask: int) -> frozenset[int]:
    return frozenset(iter_bits(mask))


def _rel_rows(rel, n: int) -> list[int]:
    """Successor rows of a pair set on points 0..n-1; a pair outside them
    raises ValueError."""
    rows = [0] * n
    for a, b in rel:
        a, b = _index(a, "point"), _index(b, "point")
        if not (0 <= a < n and 0 <= b < n):
            raise ValueError(f"pair ({a},{b}) outside points 0..{n - 1}")
        rows[a] |= 1 << b
    return rows


def _rows_to_rel(rows) -> frozenset[Pair]:
    return frozenset((a, b) for a in range(len(rows)) for b in iter_bits(rows[a]))


def _image(mask: int, mapping) -> int:
    """Mask of the images of the points of ``mask``; ``mapping[p]`` is p's image."""
    out = 0
    for b in iter_bits(mask):
        out |= 1 << mapping[b]
    return out


def _closure(rows) -> tuple[list[int], int]:
    """Reflexive-transitive closure rows of successor rows, and the height:
    the most clusters (strongly connected components) on a chain. One
    iterative Tarjan search (SIAM J. Comput. 1972) finishes each cluster
    after the clusters it reaches, so its closure row is its members OR
    theirs (Purdom, BIT 1970) and its chain one more than their longest."""
    n = len(rows)
    image = _RowUnion(rows)
    closure = [0] * n
    chain = [0] * n  # the chain of a point's cluster once finished, 0 before
    low = [0] * n + [1]  # least stack position, from 1, seen from a point; 0 unvisited
    stack: list[int] = []  # the points of unfinished clusters, in visit order
    # point n sees every point: it roots the search and ends it as an empty cluster
    work = [(n, 1, iter(range(n)))]
    while work:
        a, pos, succ = work[-1]
        for b in succ:
            if not low[b]:
                stack.append(b)
                low[b] = len(stack)
                work.append((b, len(stack), iter_bits(rows[b])))
                break
            if not chain[b]:  # b is on the stack
                low[a] = min(low[a], low[b])
        else:
            work.pop()
            if low[a] < pos:  # a shares its cluster with a point visited earlier
                low[work[-1][0]] = min(low[work[-1][0]], low[a])
                continue
            cluster = stack[pos - 1 :]
            del stack[pos - 1 :]
            row = mask_of(cluster)
            out = image[row] & ~row  # all in finished clusters
            longest = 0
            while out:  # nothing b reaches has a longer chain than b
                b = (out & -out).bit_length() - 1
                row |= closure[b]
                longest = max(longest, chain[b])
                out &= ~row
            for b in cluster:
                closure[b] = row
                chain[b] = longest + 1
    return closure, max(chain, default=0)


class _RowUnion:
    """Map from a point mask to the OR of the rows of its points, one row per
    point: preimages over predecessor rows (``Frame.preimages``), images
    over successor rows (``_closure``, ``transitivity_index``, ``is_upset``,
    ``generated_upset`` over closure rows, ``audit.satisfies_structure``),
    and in ``lex_sum`` over the fibers' point sets, one per index point."""

    __slots__ = ("pred",)

    def __init__(self, pred: list[int]):
        self.pred = pred

    def __getitem__(self, vmask: int) -> int:
        pred = self.pred
        acc = 0
        while vmask:
            low = vmask & -vmask
            acc |= pred[low.bit_length() - 1]
            vmask ^= low
        return acc


class Frame:
    """Immutable frame; one tuple of successor rows per modality.

    ``Frame(alphabet, n, relations)`` takes one iterable of ordered pairs per
    modality; ``Frame.from_rows`` takes the rows themselves. The preimage
    mappings are built from the rows on first use and are the only cached
    view; ``relations``, the pair sets (one frozenset of pairs per
    modality), are derived from the rows on each access.
    """

    def __init__(self, alphabet: Alphabet, n: int, relations: Sequence[Iterable[Pair]]):
        n = _nat(n, "point count")  # before the rows, which take it as a length
        self._set(alphabet, n, tuple(tuple(_rel_rows(rel, n)) for rel in relations))

    @classmethod
    def from_rows(cls, alphabet: Alphabet, n: int, rows: Sequence[Sequence[int]]) -> "Frame":
        """Frame from per-modality successor rows (n bitmasks per modality)."""
        n = _nat(n, "point count")
        frame = cls.__new__(cls)
        frame._set(alphabet, n, tuple(tuple(r) for r in rows))
        if any(len(r) != n or any(m < 0 or m >> n for m in r) for r in frame._rows):
            raise ValueError(f"rows must be {n} bitmasks over points 0..{n - 1}")
        return frame

    def _set(self, alphabet: Alphabet, n: int, rows: tuple[tuple[int, ...], ...]) -> None:
        if len(rows) != len(alphabet):
            raise ValueError(f"{len(alphabet)} modalities but {len(rows)} relations given")
        self.alphabet = alphabet
        self.n = n
        self._rows = rows
        self._preimages = None

    @property
    def relations(self) -> tuple[frozenset[Pair], ...]:
        """One frozenset of ordered pairs per modality, derived from the rows
        on each access."""
        return tuple(map(_rows_to_rel, self._rows))

    def rows(self, mod: int) -> tuple[int, ...]:
        """Per-point successor bitmasks of one modality."""
        mod = _index(mod, "modality id")
        if not 0 <= mod < len(self._rows):
            raise ValueError(f"modality id {mod} outside alphabet of size {len(self._rows)}")
        return self._rows[mod]

    def preimages(self, mod: int):
        """Map from a point mask to the mask of the points that see some
        point of it under one modality: a ``_RowUnion`` over the
        modality's predecessor rows (``pred``), built on first use and kept
        on the frame (callers must not change it)."""
        self.rows(mod)  # rejects an id outside the alphabet
        if self._preimages is None:
            mappings = []
            for rows in self._rows:
                pred = [0] * self.n  # bit a of pred[b] set iff a sees b
                for a, row in enumerate(rows):
                    for b in iter_bits(row):
                        pred[b] |= 1 << a
                mappings.append(_RowUnion(pred))
            self._preimages = tuple(mappings)
        return self._preimages[mod]

    def preimage_mask(self, mod: int, vmask: int) -> int:
        """Mask of the points that see some point of the mask ``vmask``."""
        return self.preimages(mod)[vmask]

    def preimage(self, mod: int, points: Iterable[int]) -> frozenset[int]:
        return points_of(self.preimage_mask(mod, _checked_mask(self.n, points)))

    def __eq__(self, other):
        return (
            isinstance(other, Frame)
            and self.alphabet == other.alphabet
            and self.n == other.n
            and self._rows == other._rows
        )

    def __hash__(self):
        return hash((self.alphabet, self.n, self._rows))

    def __repr__(self):
        edges = sum(m.bit_count() for r in self._rows for m in r)
        return f"Frame(n={self.n}, alphabet={self.alphabet.names}, edges={edges})"


@dataclass(frozen=True)
class SkeletonPoset:
    """A frame's clusters, strictly ordered: the poset the height criterion is about."""

    clusters: tuple[frozenset[int], ...]
    order: frozenset[tuple[int, int]]


def union_rows(frame: Frame) -> list[int]:
    """Per-point successor bitmasks of the union of all relations."""
    out = [0] * frame.n
    for rows in frame._rows:
        for a, m in enumerate(rows):
            out[a] |= m
    return out


def union_relation(frame: Frame) -> frozenset[Pair]:
    """All relations' union as pairs: the R of the height and transitivity index."""
    return _rows_to_rel(union_rows(frame))


def rt_closure(rel: Iterable[Pair], n: int) -> frozenset[Pair]:
    """Reflexive transitive closure on {0..n-1}: the R* pretransitivity bounds."""
    return _rows_to_rel(_closure(_rel_rows(rel, _nat(n, "n")))[0])


def transitivity_index(frame: Frame) -> int:
    """Least m such that m+1 steps of the union relation collapse into at
    most m: the most steps a shortest path from a point to another point
    needs (0 when no point reaches another), one breadth-first search per
    point."""
    n = frame.n
    image = _RowUnion(union_rows(frame))  # a mask's one-step successors
    best = 0
    for a in range(n):
        seen = frontier = 1 << a
        for d in range(1, n):
            frontier = image[frontier] & ~seen
            if not frontier or best == n - 1:
                break
            seen |= frontier
            best = max(best, d)
    return best


def skeleton(frame: Frame) -> SkeletonPoset:
    """Clusters (mutual-reachability classes of the union relation, with the
    diagonal counted) and their strict order: the height criterion's poset."""
    clusters = _cluster_masks(frame)  # closure row -> members, least member first
    heads = [m & -m for m in clusters.values()]  # least member bits
    order = frozenset(
        (i, j) for i, row in enumerate(clusters) for j, h in enumerate(heads) if i != j and row & h
    )
    return SkeletonPoset(tuple(points_of(m) for m in clusters.values()), order)


def height(frame: Frame) -> int:
    """Size of the longest chain in the skeleton; 0 on the empty frame."""
    return _closure(union_rows(frame))[1]


def is_path_reducible(frame: Frame, m: int, budget: int = 10**6) -> bool:
    """True iff every union-relation path of m+1 steps has a repeated point
    or a one-step shortcut between its members.

    Enumerates only the paths that are still candidates for violating the
    property (simple, shortcut-free prefixes); raises PathBudgetExceeded
    after ``budget`` extension steps rather than guessing.
    """
    m, budget = _nat(m, "m"), _nat(budget, "budget")
    if m + 2 > frame.n:  # a path of m+1 steps visits m+2 points, so one repeats
        return True
    rows = union_rows(frame)
    steps = 0
    for start in range(frame.n):
        # one level per path point: its unvisited successors, the point, and
        # the points the path may not enter (its points, and those seen by its
        # members before this one, which would be shortcuts)
        stack = [(iter_bits(rows[start]), start, 1 << start)]
        while stack:
            succ, last, blocked = stack[-1]
            for b in succ:
                steps += 1
                if steps > budget:
                    raise PathBudgetExceeded(f"path enumeration exceeded budget of {budget}")
                if (blocked >> b) & 1:
                    continue  # repeated point or shortcut: the path satisfies the property
                if len(stack) == m + 1:
                    return False  # a simple, shortcut-free path of m+1 steps
                stack.append((iter_bits(rows[b]), b, blocked | rows[last] | 1 << b))
                break
            else:
                stack.pop()
    return True


def restriction(frame: Frame, points: Iterable[int]) -> Frame:
    """Restriction to a point subset, reindexed along sorted(points)."""
    keep = _checked_mask(frame.n, points)
    pts = list(iter_bits(keep))
    pos = {p: i for i, p in enumerate(pts)}
    rows = [[_image(r[p] & keep, pos) for p in pts] for r in frame._rows]
    return Frame.from_rows(frame.alphabet, len(pts), rows)


def _project(sets, pts: list[int]) -> list[frozenset[int]]:
    """Each set cut down to the sorted points ``pts`` and reindexed along them."""
    pos = {p: i for i, p in enumerate(pts)}
    return [frozenset(pos[p] for p in s if p in pos) for s in sets]


def is_upset(frame: Frame, points: Iterable[int]) -> bool:
    """True iff the set is closed under every relation's successors."""
    mask = _checked_mask(frame.n, points)
    return not _RowUnion(union_rows(frame))[mask] & ~mask


def generated_upset(frame: Frame, points: Iterable[int]) -> frozenset[int]:
    """Closure of the set under reachability along the union relation."""
    mask = _checked_mask(frame.n, points)
    return points_of(_RowUnion(_closure(union_rows(frame))[0])[mask])


def _cluster_masks(frame: Frame) -> dict[int, int]:
    """The skeleton's clusters without its order: each cluster's member mask,
    keyed by the reflexive-transitive closure row its points share, in
    order of least member."""
    # points share a cluster exactly when their closure rows agree
    clusters: dict[int, int] = {}
    for a, row in enumerate(_closure(union_rows(frame))[0]):
        clusters[row] = clusters.get(row, 0) | 1 << a
    return clusters


def min_part(frame: Frame) -> frozenset[int]:
    """Union of the minimal clusters of the skeleton: the points that no
    point outside their own cluster reaches."""
    reached = 0
    for row, members in _cluster_masks(frame).items():
        reached |= row & ~members
    return points_of(((1 << frame.n) - 1) & ~reached)


def cluster_frames(frame: Frame) -> list[Frame]:
    """Restriction of the frame to each cluster, in cluster order."""
    return [restriction(frame, iter_bits(c)) for c in _cluster_masks(frame).values()]


def disjoint_sum(frames_: Sequence[Frame], alphabet: Alphabet | None = None) -> Frame:
    """Tagged union of frames over a common alphabet; no cross edges."""
    frames_ = list(frames_)
    if alphabet is None:
        alphabet = frames_[0].alphabet if frames_ else Alphabet(())
    for f in frames_:
        if f.alphabet != alphabet:
            raise ValueError("alphabet mismatch in disjoint sum")
    rows: list[list[int]] = [[] for _ in alphabet.names]
    off = 0
    for f in frames_:
        for mi, r in enumerate(f._rows):
            rows[mi].extend(m << off for m in r)
        off += f.n
    return Frame.from_rows(alphabet, off, rows)


def lex_sum(
    index_frame: Frame,
    fibers: Sequence[Frame],
    fiber_alphabet: Alphabet | None = None,
) -> Frame:
    """Lexicographic sum: one fiber frame per index point. Vertical
    relations (those of the index frame) ignore the fiber coordinate;
    horizontal relations act inside each fiber."""
    fibers = list(fibers)
    if len(fibers) != index_frame.n:
        raise ValueError("one fiber frame per index point is required")
    if fiber_alphabet is None:
        if not fibers:
            raise ValueError("fiber alphabet required when the index frame is empty")
        fiber_alphabet = fibers[0].alphabet
    if set(index_frame.alphabet.names) & set(fiber_alphabet.names):
        raise ValueError("vertical and horizontal alphabets overlap")
    horizontal = disjoint_sum(fibers, fiber_alphabet)
    # fiber i as a point set of the sum: bits end - n .. end - 1
    ends = accumulate(f.n for f in fibers)
    spans = _RowUnion([(1 << e) - (1 << e - f.n) for f, e in zip(fibers, ends)])
    vertical = [
        [spans[r] for r, f in zip(irows, fibers) for _ in range(f.n)]
        for irows in index_frame._rows
    ]
    alphabet = Alphabet(index_frame.alphabet.names + fiber_alphabet.names)
    return Frame.from_rows(alphabet, horizontal.n, vertical + list(horizontal._rows))


def expand(frame: Frame, kind: str, name: str | None = None) -> Frame:
    """Add a universal (everything sees everything) or difference
    (everything sees everything else) modality."""
    full = (1 << frame.n) - 1
    if kind == "universal":
        name = name or "u"
        rows = [full] * frame.n
    elif kind == "difference":
        name = name or "neq"
        rows = [full ^ (1 << a) for a in range(frame.n)]
    else:
        raise ValueError(f"unknown expansion kind {kind!r}")
    if name in frame.alphabet.names:
        raise ValueError(f"modality name {name!r} already in the alphabet")
    return Frame.from_rows(
        Alphabet(frame.alphabet.names + (name,)), frame.n, frame._rows + (rows,)
    )


def quotient_filtration(frame: Frame, partition) -> tuple[Frame, tuple[int, ...]]:
    """Minimal filtration of the frame through a partition: blocks become
    points, related iff some representatives are. Returns the quotient frame
    and the canonical projection (point -> block index, blocks in
    min-element order)."""
    from .partitions import Partition  # partitions imports this module

    blocks = Partition.of(frame.n, getattr(partition, "blocks", partition)).blocks
    proj = [0] * frame.n
    for i, b in enumerate(blocks):
        for p in b:
            proj[p] = i
    rows = []
    for r in frame._rows:
        q = [0] * len(blocks)
        for a, m in enumerate(r):
            q[proj[a]] |= _image(m, proj)
        rows.append(q)
    return Frame.from_rows(frame.alphabet, len(blocks), rows), tuple(proj)


def is_pmorphism(frame: Frame, image: Frame, mapping: Sequence[int]) -> bool:
    """Check the forth and back conditions of a p-morphism, per modality."""
    mapping = tuple(_index(v, "mapping target") for v in mapping)
    if len(mapping) != frame.n:
        raise ValueError("mapping must be total on the source frame")
    if frame.alphabet != image.alphabet:
        raise ValueError("alphabet mismatch")
    if any(not 0 <= v < image.n for v in mapping):
        raise ValueError("mapping target out of range")
    # forth: the image of a's successors lies inside the successors of a's
    # image; back: it covers them. Together: the two masks are equal.
    for rows, image_rows in zip(frame._rows, image._rows):
        for a, m in enumerate(rows):
            if _image(m, mapping) != image_rows[mapping[a]]:
                return False
    return True


def to_dict(frame: Frame) -> dict:
    return {
        "alphabet": list(frame.alphabet.names),
        "points": frame.n,
        "rel": {
            nm: sorted([a, b] for a, b in rel)
            for nm, rel in zip(frame.alphabet.names, frame.relations)
        },
    }


def _is_int(x) -> bool:
    return isinstance(x, int) and not isinstance(x, bool)


def from_dict(data: dict) -> Frame:
    """Frame from its JSON object; raises ValueError on any malformed field."""
    try:
        names, n, rel = data["alphabet"], data["points"], data["rel"]
    except (KeyError, TypeError) as exc:
        raise ValueError(f"malformed frame object: {exc}") from None
    if not isinstance(names, list) or not all(isinstance(nm, str) for nm in names):
        raise ValueError("alphabet must be a list of modality names")
    if not _is_int(n):
        raise ValueError(f"points must be an integer, got {n!r}")
    if n > POINT_LIMIT:
        raise ValueError(f"points must be at most {POINT_LIMIT}, got {n}")
    if not isinstance(rel, dict) or set(rel) != set(names):
        raise ValueError(f"rel must map exactly the modalities {names} to pair lists")
    for nm in names:
        pairs = rel[nm]
        if not isinstance(pairs, list) or not all(
            isinstance(p, list) and len(p) == 2 and all(map(_is_int, p)) for p in pairs
        ):
            raise ValueError(f"relation {nm!r} must be a list of [int, int] pairs")
    return Frame(Alphabet(tuple(names)), n, [rel[nm] for nm in names])


def load_frame(path) -> Frame:
    with open(path, "r", encoding="utf-8") as fh:
        return from_dict(json.load(fh))


def dump_frame(frame: Frame, path) -> None:
    """Write a frame file, the inverse of ``load_frame``."""
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(to_dict(frame), fh, indent=2, sort_keys=True)
        fh.write("\n")


_DOT_COLORS = ("black", "red3", "blue3", "green4", "orange3", "purple3")


def to_dot(frame: Frame, name: str = "frame") -> str:
    """Graphviz rendering: one styled edge set per modality, clusters drawn
    as subgraph boxes."""
    lines = [f"digraph {name} {{"]
    for ci, cluster in enumerate(_cluster_masks(frame).values()):
        lines.append(f"  subgraph cluster_{ci} {{")
        lines.append("    style=rounded;")
        for p in iter_bits(cluster):
            lines.append(f'    n{p} [label="{p}"];')
        lines.append("  }")
    for mi, nm in enumerate(frame.alphabet.names):
        color = _DOT_COLORS[mi % len(_DOT_COLORS)]
        for a, row in enumerate(frame.rows(mi)):
            for b in iter_bits(row):
                lines.append(f'  n{a} -> n{b} [color={color}, label="{nm}"];')
    lines.append("}")
    return "\n".join(lines) + "\n"
