"""Independent brute-force oracles used to cross-check the library.

Everything here works on plain Python sets of frozensets and naive loops
over relation pairs, deliberately avoiding the bitmask machinery, the
compiled evaluator, and the split-based refinement of the package under
test. The one exception is ``disjoint_sum_count``, the formula count as the
package computed it through a disjoint sum, kept as the reference for the
count that replaced it.
"""

from __future__ import annotations

import itertools

from modalwb.frames import Frame, disjoint_sum
from modalwb.partitions import _stages
from modalwb.syntax import Alphabet, And, Dia, Falsum, Imp, Neg, Or, Var, conj


def naive_preimage(rel, pts):
    return {a for (a, b) in rel if b in pts}


def naive_extent(model, formula):
    """Recursive set evaluator, no sharing awareness, no masks."""
    frame = model.frame
    universe = set(range(frame.n))

    def ev(f):
        if isinstance(f, Var):
            return set(model.valuation[f.index])
        if isinstance(f, Falsum):
            return set()
        if isinstance(f, Neg):
            return universe - ev(f.child)
        if isinstance(f, And):
            return ev(f.left) & ev(f.right)
        if isinstance(f, Or):
            return ev(f.left) | ev(f.right)
        if isinstance(f, Imp):
            return (universe - ev(f.left)) | ev(f.right)
        if isinstance(f, Dia):
            inner = ev(f.child)
            if f.boxed:
                return universe - naive_preimage(frame.relations[f.mod], universe - inner)
            return naive_preimage(frame.relations[f.mod], inner)
        raise TypeError(f)

    return frozenset(ev(formula))


def _split_by(blocks, splitter):
    out = []
    for b in blocks:
        out.extend(part for part in (b & splitter, b - splitter) if part)
    return out


def refinement_step(blocks, relations):
    """One stage of refinement by modal preimages, in its first
    formulation: split every block by every block and by every relation's
    preimage of every block."""
    blocks = list(blocks)
    splitters = blocks + [
        frozenset(naive_preimage(rel, b)) for rel in relations for b in blocks
    ]
    out = blocks
    for s in splitters:
        out = _split_by(out, s)
    return out


def staged_refinement(frame, family):
    """Stages of refinement by modal preimages from the partition induced by
    the family, up to and including the first stage that one more step
    leaves unchanged. Each stage maps its blocks to their birth stages.
    Returns the stages and the stabilization index."""
    blocks = [frozenset(range(frame.n))] if frame.n else []
    for s in family:
        blocks = _split_by(blocks, frozenset(s))
    stages = [{b: 0 for b in blocks}]
    while True:
        nxt = refinement_step(stages[-1], frame.relations)
        if set(nxt) == set(stages[-1]):
            return stages, len(stages) - 1
        stage = len(stages)
        stages.append({b: stages[-1].get(b, stage) for b in nxt})


def set_partitions(points):
    """Every set partition of the points, as lists of frozensets: the first
    point joins one block of a partition of the rest, or makes its own."""
    points = list(points)
    if not points:
        yield []
        return
    first = frozenset(points[:1])
    for part in set_partitions(points[1:]):
        for i in range(len(part)):
            yield part[:i] + [part[i] | first] + part[i + 1:]
        yield [first] + part


def exact_modal_depth(frame):
    """Modal depth of the frame: the largest stabilization index of staged
    refinement over every set partition of its points, each run from
    scratch."""
    return max(
        staged_refinement(frame, blocks)[1] for blocks in set_partitions(range(frame.n))
    )


def stage_formulas(model):
    """A defining formula per block of the stabilized partition, in its
    first formulation on point sets: a stage-0 block conjoins the literals
    of its least point; a block that splits off at stage d conjoins its
    parent's formula with signed diamonds of previous-stage block formulas
    (modalities in order, blocks by least point), each kept when it excludes
    one more sibling inside the parent, until none is left."""
    frame = model.frame
    stages, _ = staged_refinement(frame, model.valuation)
    trace = [sorted(stage, key=min) for stage in stages]
    forms = {
        b: conj([Var(l) if min(b) in v else Neg(Var(l)) for l, v in enumerate(model.valuation)])
        for b in trace[0]
    }
    for prev, cur in zip(trace, trace[1:]):
        pool = [
            (mod, pb, naive_preimage(rel, pb))
            for mod, rel in enumerate(frame.relations)
            for pb in prev
        ]
        nxt = {}
        for block in cur:
            if block in prev:
                nxt[block] = forms[block]
                continue
            parent = next(b for b in prev if block <= b)
            remaining = [b for b in cur if b <= parent and b != block]
            conjuncts = [forms[parent]]
            for mod, pb, pre in pool:
                inside = min(block) in pre
                still = [s for s in remaining if (min(s) in pre) == inside]
                if len(still) < len(remaining):
                    dia = Dia(mod, forms[pb])
                    conjuncts.append(dia if inside else Neg(dia))
                    remaining = still
            assert not remaining
            nxt[block] = conj(conjuncts)
        forms = nxt
    return forms


def longest_cluster_chain(frame):
    """Height: the most clusters on a chain, by closing the union relation
    under composition as a pair set and memoised longest-path search over
    the strict cluster order."""
    n = frame.n
    reach = {(a, a) for a in range(n)}.union(*frame.relations)
    while True:
        extra = {(a, c) for (a, b) in reach for (b2, c) in reach if b == b2} - reach
        if not extra:
            break
        reach |= extra
    clusters = {
        frozenset(b for b in range(n) if (a, b) in reach and (b, a) in reach)
        for a in range(n)
    }
    longest = {}

    def chain(c):
        if c not in longest:
            above = [d for d in clusters if d != c and (min(c), min(d)) in reach]
            longest[c] = 1 + max((chain(d) for d in above), default=0)
        return longest[c]

    return max((chain(c) for c in clusters), default=0)


def boolean_closure(n, sets):
    """Closure of a family under complement and binary union."""
    universe = frozenset(range(n))
    out = {frozenset(), universe}
    out.update(frozenset(s) for s in sets)
    while True:
        extra = set()
        for s in out:
            c = universe - s
            if c not in out:
                extra.add(c)
        for s, t in itertools.combinations(out, 2):
            u = s | t
            if u not in out:
                extra.add(u)
        if not extra:
            return out
        out |= extra


def modal_closure(frame, generators):
    """Closure under Boolean operations and every relation's preimage."""
    out = boolean_closure(frame.n, generators)
    while True:
        extra = set()
        for s in out:
            for rel in frame.relations:
                p = frozenset(naive_preimage(rel, s))
                if p not in out:
                    extra.add(p)
        if not extra:
            return out
        out = boolean_closure(frame.n, out | extra)


def profile_partition(n, family):
    """Blocks of equal membership profile, as a frozenset of frozensets."""
    family = list(family)
    groups = {}
    for p in range(n):
        key = tuple(p in s for s in family)
        groups.setdefault(key, set()).add(p)
    return frozenset(frozenset(g) for g in groups.values())


def depth_extent_families(model, limit=64):
    """The extent family of depth-<=d formulas, per depth, until it stops
    growing: Boolean closure of the valuation extents, then of the previous
    family plus all its relational preimages."""
    frame = model.frame
    fam = boolean_closure(frame.n, [set(v) for v in model.valuation])
    fams = [fam]
    for _ in range(limit):
        pres = {
            frozenset(naive_preimage(rel, s))
            for s in fams[-1]
            for rel in frame.relations
        }
        nxt = boolean_closure(frame.n, fams[-1] | pres)
        fams.append(nxt)
        if nxt == fams[-2]:
            return fams
    raise AssertionError("extent families failed to stabilize")


def model_depth_oracle(model):
    """Least d with the depth-d and depth-(d+1) point equivalences equal."""
    fams = depth_extent_families(model)
    parts = [profile_partition(model.frame.n, fam) for fam in fams]
    for d in range(len(parts) - 1):
        if parts[d] == parts[d + 1]:
            return d
    return len(parts) - 1


def stage_partition_oracle(model, d):
    """Point partition induced by all formulas of depth at most d."""
    fams = depth_extent_families(model)
    fam = fams[min(d, len(fams) - 1)]
    return profile_partition(model.frame.n, fam)


def formula_count_oracle(frame, k):
    """Number of nonequivalent k-formulas over the frame's logic, as the
    size of the closure of the variable 'semantic vectors' (one extent per
    valuation) under pointwise operations."""
    n = frame.n
    subsets = [frozenset(p for p in range(n) if (m >> p) & 1) for m in range(1 << n)]
    valuations = list(itertools.product(subsets, repeat=k))
    universe = frozenset(range(n))

    def pointwise(fn, *vecs):
        return tuple(fn(*parts) for parts in zip(*vecs))

    bottom = tuple(frozenset() for _ in valuations)
    gens = {tuple(v[l] for v in valuations) for l in range(k)}
    out = {bottom} | gens
    while True:
        extra = set()
        for v in out:
            c = pointwise(lambda s: universe - s, v)
            if c not in out:
                extra.add(c)
            for rel in frame.relations:
                p = pointwise(lambda s: frozenset(naive_preimage(rel, s)), v)
                if p not in out:
                    extra.add(p)
        for v, w in itertools.combinations(out, 2):
            u = pointwise(lambda s, t: s | t, v, w)
            if u not in out:
                extra.add(u)
        if not extra:
            return len(out)
        out |= extra


def disjoint_sum_count(frame, k):
    """Number of nonequivalent k-formulas through the disjoint sum of one
    copy of the frame per k-valuation: one generator per variable (the
    union of its extents across copies), and 2 to the block count of the
    generated subalgebra's coarsest tuned refinement."""
    n = frame.n
    if not n:  # one empty profile, whatever k: the subalgebra {0}
        return 1
    profiles = 1 << n * k
    big = disjoint_sum([frame] * profiles, frame.alphabet)
    gen_masks = [0] * k
    off = 0
    for combo in itertools.product(range(1 << n), repeat=k):
        for l, m in enumerate(combo):
            gen_masks[l] |= m << off
        off += n
    *_, fixed = _stages(big, gen_masks)
    return 2 ** len(fixed)


def warshall_closure_rows(rows, reflexive):
    """Transitive closure of successor bitmask rows by Warshall's algorithm
    (J. ACM 1962), reflexive on request: the closure routine the library
    used before its one Tarjan search, kept as that search's reference."""
    n = len(rows)
    rows = list(rows)
    if reflexive:
        for a in range(n):
            rows[a] |= 1 << a
    for k in range(n):
        rk = rows[k]
        bit = 1 << k
        for a in range(n):
            if rows[a] & bit:
                rows[a] |= rk
    return rows


def reach_upto(frame, m):
    """R^{<=m} of the union relation, as a set of pairs, by path counting."""
    n = frame.n
    union = set().union(*frame.relations) if frame.relations else set()
    pairs = {(a, a) for a in range(n)}
    frontier = {(a, a) for a in range(n)}
    for _ in range(m):
        frontier = {(a, c) for (a, b) in frontier for (b2, c) in union if b2 == b}
        pairs |= frontier
    return pairs


def path_reducible(frame, m):
    """Every walk x_0 .. x_(m+1) of m+1 union-relation steps repeats a point
    or has a shortcut x_i R x_k with k >= i+2, by enumerating all walks."""
    union = set().union(*frame.relations) if frame.relations else set()
    walks = [(a,) for a in range(frame.n)]
    for _ in range(m + 1):
        walks = [w + (b,) for w in walks for (a, b) in union if a == w[-1]]
    for w in walks:
        distinct = len(set(w)) == len(w)
        shortcut = any(
            (w[i], w[k]) in union for i in range(len(w)) for k in range(i + 2, len(w))
        )
        if distinct and not shortcut:
            return False
    return True


# Pair-set formulations of the frame constructions, built with the pair
# constructor ``Frame(alphabet, n, relations)`` from ``frame.relations``.


def restriction_pairs(frame, points):
    pts = sorted(set(points))
    pos = {p: i for i, p in enumerate(pts)}
    rels = [
        {(pos[a], pos[b]) for a, b in rel if a in pos and b in pos}
        for rel in frame.relations
    ]
    return Frame(frame.alphabet, len(pts), rels)


def disjoint_sum_pairs(frames, alphabet):
    rels = [set() for _ in alphabet.names]
    off = 0
    for f in frames:
        for mi, rel in enumerate(f.relations):
            rels[mi].update((a + off, b + off) for a, b in rel)
        off += f.n
    return Frame(alphabet, off, rels)


def lex_sum_pairs(index_frame, fibers, fiber_alphabet):
    offs = []
    total = 0
    for f in fibers:
        offs.append(total)
        total += f.n
    vertical = []
    for rel in index_frame.relations:
        pairs = set()
        for i, j in rel:
            for a in range(fibers[i].n):
                for b in range(fibers[j].n):
                    pairs.add((offs[i] + a, offs[j] + b))
        vertical.append(pairs)
    horizontal = []
    for mi in range(len(fiber_alphabet)):
        pairs = set()
        for i, f in enumerate(fibers):
            pairs.update((offs[i] + a, offs[i] + b) for a, b in f.relations[mi])
        horizontal.append(pairs)
    alphabet = Alphabet(index_frame.alphabet.names + fiber_alphabet.names)
    return Frame(alphabet, total, vertical + horizontal)


def expand_pairs(frame, kind, name):
    n = frame.n
    if kind == "universal":
        rel = {(a, b) for a in range(n) for b in range(n)}
    else:
        rel = {(a, b) for a in range(n) for b in range(n) if a != b}
    return Frame(Alphabet(frame.alphabet.names + (name,)), n, frame.relations + (rel,))


def quotient_filtration_pairs(frame, blocks):
    blocks = sorted((frozenset(b) for b in blocks), key=min)
    proj = [0] * frame.n
    for i, b in enumerate(blocks):
        for p in b:
            proj[p] = i
    rels = [{(proj[a], proj[b]) for a, b in rel} for rel in frame.relations]
    return Frame(frame.alphabet, len(blocks), rels), tuple(proj)
