import random
from collections import Counter
from functools import reduce
from operator import and_, or_, xor

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from modalwb import partitions
from modalwb.frames import (
    Frame,
    disjoint_sum,
    generated_upset,
    iter_bits,
    mask_of,
    points_of,
    restriction,
    transitivity_index,
)
from modalwb.partitions import (
    _CHUNK_LANES,
    _PLACEMENTS,
    EXACT_DEPTH_LIMIT,
    CapExceeded,
    Partition,
    _exact_depth,
    _lane_depth,
    _lane_table,
    _random_partition_masks,
    _split_masks,
    _stages,
    coarsest_tuned_refinement,
    count_k_formulas,
    frame_modal_depth,
    induced_partition,
    is_tuned,
    refine_sequence,
    refines,
    subalgebra_size,
)
from modalwb.syntax import default_alphabet

import oracles

AL1 = default_alphabet(1)


def uni(n, pairs):
    return Frame(AL1, n, [set(pairs)])


def singletons(n):
    return Partition.of(n, [{i} for i in range(n)])


def one_block(n):
    return Partition.of(n, [range(n)] if n else [])


CHAIN3 = uni(3, [(0, 1), (1, 2)])


def difference_frame(n):
    return uni(n, [(a, b) for a in range(n) for b in range(n) if a != b])


def all_partitions(n):
    if n == 0:
        yield Partition(0, ())
        return
    labels = [0] * n

    def rec(i, used):
        if i == n:
            blocks = [set() for _ in range(used)]
            for p, l in enumerate(labels):
                blocks[l].add(p)
            yield Partition.of(n, blocks)
            return
        for l in range(used + 1):
            labels[i] = l
            yield from rec(i + 1, max(used, l + 1))

    yield from rec(1, 1)


def random_frame(rng, n, mods=1, density=0.4):
    rels = [
        {(a, b) for a in range(n) for b in range(n) if rng.random() < density}
        for _ in range(mods)
    ]
    return Frame(default_alphabet(mods), n, rels)


def test_partition_validation():
    with pytest.raises(ValueError):
        Partition.of(2, [{0}])
    with pytest.raises(ValueError):
        Partition.of(2, [{0, 1}, {1}])
    with pytest.raises(ValueError):
        Partition.of(2, [{0, 1}, set()])


@pytest.mark.parametrize("point", [1.0, "1", 1.5])
def test_partition_rejects_points_that_are_not_ints(point):
    # 1.0 would be accepted as point 1 and break is_tuned's masks later
    with pytest.raises(TypeError):
        Partition.of(2, [{0}, {point}])


def test_induced_partition_examples():
    assert induced_partition(3, []).blocks == (frozenset({0, 1, 2}),)
    assert induced_partition(3, [{0}]).blocks == (frozenset({0}), frozenset({1, 2}))
    assert induced_partition(3, [{0, 1}, {1, 2}]).blocks == (
        frozenset({0}),
        frozenset({1}),
        frozenset({2}),
    )


def test_induced_partition_rejects_a_negative_point_count():
    # the message names the argument, not the shift that would fail on it
    with pytest.raises(ValueError, match="n must be non-negative, got -1"):
        induced_partition(-1, [])


def test_is_tuned_examples():
    rng = random.Random(0)
    for _ in range(50):
        f = random_frame(rng, rng.randint(1, 5))
        assert is_tuned(f, singletons(f.n))
    universal = uni(3, [(a, b) for a in range(3) for b in range(3)])
    assert is_tuned(universal, one_block(3))
    assert not is_tuned(CHAIN3, Partition.of(3, [{0}, {1, 2}]))


def test_is_tuned_rejects_bad_partition():
    with pytest.raises(ValueError):
        is_tuned(CHAIN3, Partition(3, (frozenset({0}),)))


@pytest.mark.parametrize("mod", [-1, 5])
def test_is_tuned_rejects_modality_ids_outside_the_alphabet(mod):
    with pytest.raises(ValueError, match=f"modality id {mod} outside alphabet of size 1"):
        is_tuned(CHAIN3, Partition.of(3, [{0}, {1, 2}]), modalities=[mod])


def test_partitions_reject_points_outside_the_frame():
    with pytest.raises(ValueError, match="point 5 out of range"):
        Partition.of(3, [{0, 1}, {2, 5}])
    with pytest.raises(ValueError, match="partition is over a different point count"):
        is_tuned(CHAIN3, one_block(2))


def test_refine_sequence_chain():
    trace, stab = refine_sequence(CHAIN3, [])
    assert stab == 2
    assert [len(p.blocks) for p in trace] == [1, 2, 3]
    assert trace[-1].birth == (2, 2, 1)  # {0},{1} split at stage 2; {2} at 1


def test_refine_sequence_difference_frame():
    rng = random.Random(1)
    f = difference_frame(4)
    for _ in range(20):
        family = [
            {p for p in range(4) if rng.random() < 0.5} for _ in range(rng.randint(0, 3))
        ]
        _, stab = refine_sequence(f, family)
        assert stab == 0


def test_refine_sequence_singleton_start():
    _, stab = refine_sequence(CHAIN3, [{0}, {1}, {2}])
    assert stab == 0


def test_birth_stages_monotone():
    rng = random.Random(2)
    for _ in range(100):
        f = random_frame(rng, rng.randint(1, 6), mods=rng.randint(1, 2))
        family = [{p for p in range(f.n) if rng.random() < 0.5}]
        trace, stab = refine_sequence(f, family)
        assert stab == len(trace) - 1
        for d, part in enumerate(trace):
            assert part.birth is not None
            assert all(b <= d for b in part.birth)
            if d:
                prev = {blk: br for blk, br in zip(trace[d - 1].blocks, trace[d - 1].birth)}
                for blk, br in zip(part.blocks, part.birth):
                    if blk in prev:
                        assert br == prev[blk]
                    else:
                        assert br == d
        # the largest birth stage equals the stabilization index
        assert max(trace[-1].birth, default=0) == stab


def test_surviving_blocks_share_one_point_set():
    # a block present at stages s and s + 1 is one frozenset, not a copy
    rng = random.Random(4)
    for _ in range(100):
        f = random_frame(rng, rng.randint(1, 6), mods=rng.randint(1, 2))
        family = [{p for p in range(f.n) if rng.random() < 0.5}]
        trace, _ = refine_sequence(f, family)
        for prev, part in zip(trace, trace[1:]):
            earlier = {blk: blk for blk in prev.blocks}
            for blk in part.blocks:
                if blk in earlier:
                    assert blk is earlier[blk]
    # the seed {63} of a 64-chain survives all 62 stages as one object
    trace, stab = refine_sequence(uni(64, [(p, p + 1) for p in range(63)]), [{63}])
    assert stab == 62
    assert all(part.blocks[-1] is trace[0].blocks[-1] == {63} for part in trace)


def test_splitter_pair_law():
    # blocks born later are constant on preimages of any earlier block
    rng = random.Random(3)
    for _ in range(100):
        f = random_frame(rng, rng.randint(1, 6), mods=rng.randint(1, 2))
        family = [{p for p in range(f.n) if rng.random() < 0.5}]
        trace, _ = refine_sequence(f, family)
        for d in range(1, len(trace)):
            for c in range(d):
                for u in trace[c].blocks:
                    for mod in range(len(f.alphabet)):
                        pre = f.preimage(mod, u)
                        for v in trace[d].blocks:
                            assert v <= pre or not (v & pre)


def test_coarsest_tuned_refinement_examples():
    got = coarsest_tuned_refinement(CHAIN3, one_block(3))
    assert got.blocks == singletons(3).blocks
    universal = uni(3, [(a, b) for a in range(3) for b in range(3)])
    assert coarsest_tuned_refinement(universal, one_block(3)).blocks == one_block(3).blocks
    tuned = Partition.of(3, [{0}, {1}, {2}])
    assert coarsest_tuned_refinement(CHAIN3, tuned).blocks == tuned.blocks


def test_coarsest_tuned_refinement_exhaustive():
    rng = random.Random(4)
    for _ in range(40):
        n = rng.randint(1, 4)
        f = random_frame(rng, n, mods=rng.randint(1, 2))
        for seed in all_partitions(n):
            out = coarsest_tuned_refinement(f, seed)
            assert is_tuned(f, out)
            assert refines(out, seed)
            for q in all_partitions(n):
                if is_tuned(f, q) and refines(q, seed):
                    assert refines(q, out)


def test_refinement_order_independence():
    # applying the splitters in any order yields the same fixpoint
    rng = random.Random(5)
    for _ in range(60):
        n = rng.randint(1, 6)
        f = random_frame(rng, n, mods=rng.randint(1, 2))
        seed = [{p for p in range(n) if rng.random() < 0.5} for _ in range(2)]
        expected = set(coarsest_tuned_refinement(f, induced_partition(n, seed)).blocks)

        blocks = set(induced_partition(n, seed).blocks)
        while True:
            splitters = [
                f.preimage(mod, b)
                for mod in range(len(f.alphabet))
                for b in blocks
            ] + [set(b) for b in blocks]
            rng.shuffle(splitters)
            nxt = set(blocks)
            for s in splitters:
                pieces = set()
                for b in nxt:
                    inside = frozenset(b & s)
                    outside = frozenset(b - s)
                    pieces.update(x for x in (inside, outside) if x)
                nxt = pieces
            if nxt == blocks:
                break
            blocks = nxt
        assert blocks == expected


def test_frame_modal_depth_examples():
    assert frame_modal_depth(CHAIN3) == 2
    for n in range(2, 7):
        assert frame_modal_depth(difference_frame(n)) == 0
    for n in range(1, 6):
        universal = uni(n, [(a, b) for a in range(n) for b in range(n)])
        assert frame_modal_depth(universal) == 0


def test_frame_modal_depth_only_coarse_seed_reaches_max():
    tops = [
        stab
        for p in all_partitions(3)
        for _, stab in [refine_sequence(CHAIN3, p.blocks)]
    ]
    assert max(tops) == 2
    assert tops.count(2) == 1  # only the one-block seed


def test_frame_modal_depth_modes():
    assert frame_modal_depth(CHAIN3, mode="sampled", trials=50, seed=1) <= 2
    with pytest.raises(ValueError, match="exact"):
        frame_modal_depth(uni(EXACT_DEPTH_LIMIT + 1, []), mode="exact")
    with pytest.raises(ValueError, match="mode"):
        frame_modal_depth(CHAIN3, mode="nope")


def test_sampled_depth_rejects_negative_trials():
    with pytest.raises(ValueError, match="trials must be non-negative, got -5"):
        frame_modal_depth(CHAIN3, mode="sampled", trials=-5)
    assert frame_modal_depth(CHAIN3, mode="sampled", trials=0) == 0


@pytest.mark.parametrize("mode", ["exact", "sampled"])
@pytest.mark.parametrize("bad", [{"trials": True}, {"seed": 1.5}, {"seed": True}, {"seed": "x"}])
def test_modal_depth_checks_trials_and_seed_in_either_mode(mode, bad):
    # random.Random takes any hashable seed, so 1.5 and "x" used to seed it
    with pytest.raises(TypeError, match=f"^{next(iter(bad))} must be an int"):
        frame_modal_depth(CHAIN3, mode=mode, **bad)
    assert frame_modal_depth(CHAIN3, mode=mode, trials=3, seed=-1) == 2


def test_frame_modal_depth_generated_subframe():
    rng = random.Random(6)
    for _ in range(60):
        f = random_frame(rng, rng.randint(1, 6), mods=rng.randint(1, 2))
        up = generated_upset(f, [p for p in range(f.n) if rng.random() < 0.5])
        assert frame_modal_depth(restriction(f, up)) <= frame_modal_depth(f)


def test_frame_modal_depth_disjoint_sum_bound():
    rng = random.Random(7)
    for _ in range(40):
        f1 = random_frame(rng, rng.randint(1, 4), mods=2)
        f2 = random_frame(rng, rng.randint(1, 4), mods=2)
        total = disjoint_sum([f1, f2])
        bound = max(frame_modal_depth(f1), frame_modal_depth(f2)) + transitivity_index(total) + 1
        assert frame_modal_depth(total) <= bound


def test_subalgebra_size_examples():
    cycle = uni(2, [(0, 1), (1, 0)])
    assert subalgebra_size(cycle, [{0}]) == 4
    universal = uni(3, [(a, b) for a in range(3) for b in range(3)])
    assert subalgebra_size(universal, []) == 2
    assert subalgebra_size(CHAIN3, []) == 8


def test_subalgebra_size_matches_closure_oracle():
    rng = random.Random(8)
    for _ in range(40):
        n = rng.randint(1, 4)
        f = random_frame(rng, n, mods=rng.randint(1, 2))
        gens = [
            {p for p in range(n) if rng.random() < 0.5}
            for _ in range(rng.randint(0, 2))
        ]
        assert subalgebra_size(f, gens) == len(oracles.modal_closure(f, gens))


def test_count_k_formulas_examples():
    refl = uni(1, [(0, 0)])
    assert count_k_formulas(refl, 1) == 4
    cluster = uni(2, [(0, 0), (0, 1), (1, 0), (1, 1)])
    assert count_k_formulas(cluster, 1) == 16


def test_count_k_formulas_zero_vars():
    rng = random.Random(9)
    for _ in range(20):
        f = random_frame(rng, rng.randint(1, 4))
        assert count_k_formulas(f, 0) == subalgebra_size(f, [])


def test_count_k_formulas_cap():
    with pytest.raises(CapExceeded):
        count_k_formulas(uni(4, []), 4, cap=1000)


def test_count_k_formulas_cap_without_building_the_profile_count():
    # 2^(4*10^6) profiles: the check compares exponents, and the message
    # names the power instead of printing its million digits
    with pytest.raises(CapExceeded, match=r"2\^4000000 valuation profiles"):
        count_k_formulas(uni(4, []), 10**6)
    with pytest.raises(CapExceeded):
        count_k_formulas(uni(0, []), 1, cap=0)
    assert count_k_formulas(uni(1, [(0, 0)]), 1, cap=2) == 4


@pytest.mark.parametrize("cap, error", [(1.5, TypeError), (-1, ValueError)])
def test_count_k_formulas_rejects_a_bad_cap(cap, error):
    # a float cap used to end in a raw AttributeError from cap.bit_length
    with pytest.raises(error):
        count_k_formulas(CHAIN3, 1, cap=cap)


@st.composite
def frame_and_family(draw):
    n = draw(st.integers(1, 6))
    mods = draw(st.integers(1, 2))
    rels = [
        draw(
            st.sets(
                st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)),
                max_size=n * n,
            )
        )
        for _ in range(mods)
    ]
    family = draw(
        st.lists(st.sets(st.integers(0, n - 1), max_size=n), max_size=3)
    )
    return Frame(default_alphabet(mods), n, rels), family


@settings(max_examples=300, deadline=None)
@given(frame_and_family())
def test_coarsest_refinement_properties(data):
    frame, family = data
    seed = induced_partition(frame.n, family)
    out = coarsest_tuned_refinement(frame, seed)
    assert is_tuned(frame, out)
    assert refines(out, seed)
    # a fixpoint: refining once more changes nothing
    assert coarsest_tuned_refinement(frame, out).blocks == out.blocks


@settings(max_examples=300, deadline=None)
@given(frame_and_family())
def test_induced_partition_profiles(data):
    frame, family = data
    part = induced_partition(frame.n, family)
    assert part.blocks == induced_partition(frame.n, list(reversed(family))).blocks
    for block in part.blocks:
        profiles = {tuple(p in s for s in family) for p in block}
        assert len(profiles) == 1
    assert frozenset(part.blocks) == oracles.profile_partition(frame.n, family)


def test_count_k_formulas_matches_vector_oracle():
    # the oracle materializes the whole subalgebra, so only counts small
    # enough to enumerate are cross-checked
    rng = random.Random(10)
    checked = 0
    for _ in range(40):
        n = rng.randint(1, 3)
        f = random_frame(rng, n, mods=rng.randint(1, 2))
        k = rng.randint(0, 1)
        count = count_k_formulas(f, k)
        if count <= 64:
            checked += 1
            assert count == oracles.formula_count_oracle(f, k)
    assert checked >= 10


@st.composite
def count_cases(draw):
    # n * k <= 8, the default cap; 0 points and 0 modalities included, and
    # density 0 or 1 half the time
    n = draw(st.integers(0, 8))
    k = draw(st.integers(0, 8 // n if n else 4))
    mods = draw(st.integers(0, 3))
    density = draw(st.sampled_from([0.0, 1.0]) | st.floats(0, 1))
    return random_frame(random.Random(draw(st.integers(0, 2**16))), n, mods, density), k


@settings(max_examples=200, deadline=None)
@given(count_cases())
def test_count_k_formulas_matches_the_disjoint_sum_count(case):
    frame, k = case
    assert count_k_formulas(frame, k) == oracles.disjoint_sum_count(frame, k)


@pytest.mark.parametrize(
    "n, k, mods, density",
    [
        # 1 and 2 points at k = 3 and 4: the profiles present are sparse
        (1, 3, 1, 1.0), (1, 4, 2, 0.0), (2, 3, 1, 0.5),
        (2, 4, 0, 0.0), (2, 4, 3, 1.0), (2, 4, 2, 0.5),
        # n * k = 9, past the default cap
        (1, 9, 1, 1.0), (3, 3, 2, 0.5), (9, 1, 1, 0.35),
    ],
)
def test_count_k_formulas_matches_the_disjoint_sum_count_on_fixed_shapes(n, k, mods, density):
    frame = random_frame(random.Random(n * 10 + k), n, mods, density)
    count = count_k_formulas(frame, k, cap=1 << n * k)
    assert count == oracles.disjoint_sum_count(frame, k)


@pytest.mark.parametrize("family", [[{-1}], [{0}, {3}]])
def test_family_range_errors(family):
    for call in (
        lambda: induced_partition(3, family),
        lambda: refine_sequence(CHAIN3, family),
        lambda: subalgebra_size(CHAIN3, family),
    ):
        with pytest.raises(ValueError, match=r"^point (-1|3) out of range$"):
            call()


@settings(max_examples=300, deadline=None)
@given(frame_and_family(), st.data())
def test_staged_refinement_matches_pair_reference(case, data):
    frame, family = case
    stages, index = oracles.staged_refinement(frame, family)
    trace, stab = refine_sequence(frame, family)
    assert stab == index
    assert [dict(zip(p.blocks, p.birth)) for p in trace] == stages
    assert subalgebra_size(frame, family) == 2 ** len(stages[-1])

    mods = data.draw(st.lists(st.integers(0, len(frame.alphabet) - 1), unique=True))
    rels = [frame.relations[m] for m in mods]
    for stage in (stages[0], stages[-1]):
        part = data.draw(st.permutations(sorted(stage, key=min)))
        expected = set(oracles.refinement_step(part, rels)) == set(part)
        assert is_tuned(frame, Partition(frame.n, tuple(part)), mods) == expected

    trials = data.draw(st.integers(1, 8))
    seed = data.draw(st.integers(0, 2**16))
    rng = random.Random(seed)
    seeds = [_random_partition_masks(rng, frame.n) for _ in range(trials)]
    expected = max(
        oracles.staged_refinement(frame, [points_of(m) for m in masks])[1]
        for masks in seeds
    )
    assert frame_modal_depth(frame, mode="sampled", trials=trials, seed=seed) == expected


def test_sampled_depth_of_the_empty_frame():
    # no points, no blocks: a seed of one empty block [0] would be wrong
    assert _random_partition_masks(random.Random(0), 0) == []
    assert frame_modal_depth(uni(0, []), mode="sampled", trials=3) == 0


def all_blocks_stages(frame, masks):
    """Block masks of every refinement stage as computed before new-block
    splitters: each stage is the one before split by the preimage of every
    one of its blocks, in one ``_split_masks`` call. Kept as the reference
    for ``_stages``."""
    pres = [frame.preimages(mod) for mod in range(len(frame.alphabet))]
    full = (1 << frame.n) - 1
    cur = _split_masks([full], masks) if full else []
    stages = [cur]
    while True:
        nxt = _split_masks(cur, [pre[b] for pre in pres for b in cur])
        if len(nxt) == len(cur):
            return stages
        stages.append(nxt)
        cur = nxt


def assert_stages_match_references(frame, family):
    masks = [mask_of(s) for s in family]
    stages = [blocks for blocks, _ in _stages(frame, masks)]
    assert stages == all_blocks_stages(frame, masks)
    expected, index = oracles.staged_refinement(frame, family)
    assert [{points_of(b) for b in stage} for stage in stages] == [set(e) for e in expected]
    # birth stages: a block is born at the first stage that holds it
    trace, stab = refine_sequence(frame, family)
    assert stab == index == len(stages) - 1
    births = {}
    for d, stage in enumerate(stages):
        births.update((b, d) for b in stage if b not in births)
    for part, stage in zip(trace, stages):
        assert part.birth == tuple(births[b] for b in stage)
    # the fixpoint alone, built without the trace
    fixed = coarsest_tuned_refinement(frame, induced_partition(frame.n, family))
    assert fixed.blocks == tuple(sorted(expected[-1], key=min))
    assert fixed.birth == tuple(expected[-1][b] for b in fixed.blocks)


@st.composite
def frame_and_seed_sets(draw):
    n = draw(st.integers(0, 12))
    rows = st.lists(st.integers(0, (1 << n) - 1), min_size=n, max_size=n)
    rels = [
        {(a, b) for a, row in enumerate(draw(rows)) for b in iter_bits(row)}
        for _ in range(draw(st.integers(1, 3)))
    ]
    points = st.integers(0, n - 1) if n else st.nothing()
    family = draw(st.lists(st.sets(points), max_size=3))
    return Frame(default_alphabet(len(rels)), n, rels), family


@settings(max_examples=300, deadline=None)
@given(frame_and_seed_sets())
def test_new_block_splitters_give_the_all_blocks_stages(case):
    assert_stages_match_references(*case)


@pytest.mark.parametrize("n", [1, 2, 5, 12, 40])
def test_new_block_splitters_on_chains_and_cycles_with_one_point_seeds(n):
    # one new block a stage on the chain seeded at its last point: the
    # stage that splits nothing old must still split by the new one
    chain = uni(n, [(a, a + 1) for a in range(n - 1)])
    cycle = uni(n, [(a, (a + 1) % n) for a in range(n)])
    for frame in (chain, cycle):
        for p in sorted({0, n // 2, n - 1}):
            assert_stages_match_references(frame, [{p}])
    if n > 1:  # as on the 9-chain of the CI check: births n-2, n-2, n-3, ..., 0
        trace, stab = refine_sequence(chain, [{n - 1}])
        assert stab == n - 2
        assert trace[-1].birth == (n - 2,) + tuple(range(n - 2, -1, -1))


@st.composite
def small_frame(draw):
    # successor rows as bitmasks, so dense relations are as likely as sparse ones
    n = draw(st.integers(0, 6))
    rows = st.lists(st.integers(0, (1 << n) - 1), min_size=n, max_size=n)
    rels = [
        {(a, b) for a, row in enumerate(draw(rows)) for b in range(n) if row >> b & 1}
        for _ in range(draw(st.integers(1, 3)))
    ]
    return Frame(default_alphabet(len(rels)), n, rels)


@settings(max_examples=150, deadline=None)
@given(small_frame())
def test_frame_modal_depth_matches_unpruned_enumeration(frame):
    assert frame_modal_depth(frame) == oracles.exact_modal_depth(frame)


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_split_masks_matches_profile_partition(data):
    n = data.draw(st.integers(0, 70))
    # blocks of a partition of the points in ``cover``, in min-element order
    cover = data.draw(st.integers(0, (1 << n) - 1))
    labels = {}
    for p in iter_bits(cover):
        labels[p] = data.draw(st.integers(0, len(set(labels.values()))))
    blocks = [mask_of(p for p in labels if labels[p] == l) for l in sorted(set(labels.values()))]
    blocks.sort(key=lambda m: m & -m)
    # splitters: arbitrary masks, repeated ones, ones that miss or cover
    # every block, and unions of blocks, which split nothing
    masks = st.integers(0, (1 << n) - 1)
    unions = st.sets(st.sampled_from(blocks)).map(sum) if blocks else masks
    pool = data.draw(st.lists(masks | unions, max_size=4))
    extras = [0, cover, (1 << n) - 1, cover ^ ((1 << n) - 1)]
    splitters = data.draw(st.lists(st.sampled_from(pool + extras), max_size=8))
    out = _split_masks(list(blocks), splitters)

    family = [points_of(m) for m in blocks + splitters]
    covered = points_of(cover)
    expected = {c for c in oracles.profile_partition(n, family) if c <= covered}
    assert {points_of(m) for m in out} == expected
    assert len(out) == len(expected)
    lows = [m & -m for m in out]
    assert lows == sorted(lows)


@pytest.mark.parametrize(
    "pairs",
    [
        lambda n: [],
        lambda n: [(a, a) for a in range(n)],
        lambda n: [(a, b) for a in range(n) for b in range(n)],
        lambda n: [(a, b) for a in range(n) for b in range(n) if a != b],
    ],
    ids=["empty", "identity", "universal", "irreflexive-universal"],
)
def test_frame_modal_depth_zero_at_seven_points(pairs):
    # depth 0: the first stage splits no lane
    frame = uni(7, pairs(7))
    assert frame_modal_depth(frame) == oracles.exact_modal_depth(frame) == 0


def memoised_exact_depth(frame):
    """Exact frame modal depth as computed before labels and packed stages:
    block-mask tuples as memo keys and one ``_split_masks`` call per stage.
    Kept verbatim as the reference for ``frame_modal_depth``."""
    n = frame.n
    tables = [frame.preimages(mod) for mod in range(len(frame.alphabet))]
    index: dict[tuple[int, ...], int] = {}  # block masks -> stabilization index
    best = 0
    # Seeds depth first, point by point, from a stack of (next point, blocks
    # so far): the point joins each block in turn, then opens its own. A
    # recursive closure would keep the memo alive in a reference cycle until
    # the next collection.
    stack = [(1, [1])] if n else []
    while stack:
        i, blocks = stack.pop()
        if n - len(blocks) <= best:  # every seed below has index <= n - |blocks|
            continue
        if i < n:
            bit = 1 << i
            stack.append((i + 1, blocks + [bit]))
            for lab in range(len(blocks) - 1, -1, -1):
                child = blocks.copy()
                child[lab] |= bit
                stack.append((i + 1, child))
            continue
        chain = []
        while True:
            key = tuple(blocks)
            if key in index:
                break
            nxt = _split_masks(blocks, [t[b] for t in tables for b in blocks])
            if len(nxt) == len(blocks):
                index[key] = 0
                break
            chain.append(key)
            blocks = nxt
        d = index[key]
        for key in reversed(chain):
            d += 1
            index[key] = d
        best = max(best, d)
    return best


@pytest.mark.parametrize("n", [7, 8])
def test_frame_modal_depth_matches_memoised_masks(n):
    # 8 points give the most lanes, Bell(8) = 4140; the structured shapes
    # are where lanes and memoised seeds differ most in cost
    rng = random.Random(40 + n)
    frames = [
        random_frame(rng, n, mods=rng.randint(1, 3), density=rng.choice([0.1, 0.2, 0.35, 0.6]))
        for _ in range(30)
    ]
    frames += [
        uni(n, [(a, a + 1) for a in range(n - 1)]),  # chain
        uni(n, [(a, (a + 1) % n) for a in range(n)]),  # cycle
        uni(n, [(a, b) for a in range(n) for b in range(a, n)]),  # linear order
        uni(n, []),
        uni(n, [(a, b) for a in range(n) for b in range(n)]),
    ]
    if n == 8:  # the three-modality cycle of the CI check
        d0 = {(0, 1), (2, 3), (4, 5), (6, 7)}
        frames.append(Frame(default_alphabet(3), 8, [d0, {(1, 2), (3, 4), (5, 6)}, {(7, 0)}]))
    for f in frames:
        assert frame_modal_depth(f) == memoised_exact_depth(f)


@pytest.mark.parametrize("n", range(9))
def test_lane_table_holds_every_set_partition_once(n):
    # 7 and 8 points hold Bell(7) = 877 and Bell(8) = 4140 lanes
    eq = _lane_table(n)
    if n == 0:  # one lane, the empty partition, and no point to compare
        assert eq == []
        assert list(oracles.set_partitions(range(n))) == [[]]
        return
    full = eq[0][0]
    assert all(eq[a][a] == full for a in range(n))
    assert all(eq[a][b] == eq[b][a] for a in range(n) for b in range(a))
    lanes = [
        frozenset(frozenset(b for b in range(n) if eq[a][b] >> s & 1) for a in range(n))
        for s in range(full.bit_length())
    ]
    expected = [frozenset(p) for p in oracles.set_partitions(range(n))]
    assert Counter(lanes) == Counter(expected)
    assert len(set(expected)) == len(expected)


def grouped_lane_table(n):
    """The lane table as built before label bit-planes: per-block membership
    rows padded to n entries, ANDed pairwise. Kept verbatim as the reference
    for ``_lane_table``."""
    zero = [0] * n
    # group c: its lane count and rows[a][j], whose bit s is set iff point a
    # lies in block j of the group's lane s, blocks numbered by least point
    groups = [(1, [])]  # no points: one lane, the empty partition
    for i in range(n):
        groups.append((0, [zero] * i))
        grown = [(0, [zero] * (i + 1))]
        for c in range(1, i + 2):
            # c copies of group c, point i joining block j in copy j, then
            # group c - 1, point i opening block c - 1
            (same, kept), (opened, prev) = groups[c], groups[c - 1]
            width = c * same
            copies = sum(1 << k * same for k in range(c))
            rows = [[x * copies | y << width for x, y in zip(r, p)] for r, p in zip(kept, prev)]
            row = [((1 << same) - 1) << j * same for j in range(c)] + zero[c:]
            row[c - 1] |= ((1 << opened) - 1) << width
            grown.append((width + opened, rows + [row]))
        groups = grown
    member = [zero] * n
    offset = 0
    for count, rows in groups:
        member = [[m | x << offset for m, x in zip(ms, r)] for ms, r in zip(member, rows)]
        offset += count
    return [[reduce(or_, map(and_, ma, mb)) for mb in member] for ma in member]


@pytest.mark.parametrize("n", range(11))
def test_lane_table_matches_grouped_membership_rows(n):
    # 10 points, Bell(10) = 115975 lanes, are the largest one-chunk table; the
    # plane count (n - 1).bit_length() changes at 2, 3, 5 and 9 points
    assert _lane_table(n) == grouped_lane_table(n)


def planes_lane_table(n: int) -> list[list[int]]:
    """The lane table as built before runs stamped the new point's planes:
    w planes a point, the new point's planes set copy by copy, and the
    groups merged after the last point. Kept verbatim as the reference for
    ``_lane_table``."""
    w = (n - 1).bit_length()  # bits of a block number, 0 .. n - 1
    # group c: its lane count and planes[a * w + k], whose bit s is bit k of
    # the number of point a's block in the group's lane s
    groups = [(1, [])]  # no points: one lane, the empty partition
    for i in range(n):
        groups.append((0, [0] * (i * w)))
        grown = [(0, [0] * (i * w + w))]
        for c in range(1, i + 2):
            # c copies of group c, point i joining block j in copy j, then
            # group c - 1, point i opening block c - 1
            (same, kept), (opened, prev) = groups[c], groups[c - 1]
            width = c * same
            copies = sum(1 << k * same for k in range(c))
            point = [0] * w  # copy by copy; the last copy's lanes run on into the opened ones
            for j in range(c):
                lanes = ((1 << same + (j == c - 1) * opened) - 1) << j * same
                for k in range(w):
                    if j >> k & 1:
                        point[k] |= lanes
            planes = [x * copies | y << width for x, y in zip(kept, prev)]
            grown.append((width + opened, planes + point))
        groups = grown
    planes = [0] * (n * w)
    offset = 0
    for count, group in groups:
        planes = [p | x << offset for p, x in zip(planes, group)]
        offset += count
    full = (1 << offset) - 1
    # a and b share a block in exactly the lanes where all their planes agree
    labels = [planes[a * w : a * w + w] for a in range(n)]
    eq = [[full] * n for _ in range(n)]
    for a in range(n):
        for b in range(a):
            eq[a][b] = eq[b][a] = full ^ reduce(or_, map(xor, labels[a], labels[b]))
    return eq


@pytest.mark.parametrize("n", range(11))
def test_lane_table_matches_copy_by_copy_planes(n):
    assert _lane_table(n) == planes_lane_table(n)


def test_frame_modal_depth_at_the_exact_depth_limit():
    # 10 points, Bell(10) = 115975 lanes: the 10-chain splits one point a
    # stage, and random frames match the memoised seeds (about 2 s, most
    # of it the reference on two modalities, which a low depth slows)
    assert frame_modal_depth(uni(10, [(a, a + 1) for a in range(9)])) == 9
    rng = random.Random(430)
    frames = [
        random_frame(rng, 10, mods=mods, density=density)
        for mods, density in ((1, 0.2), (1, 0.3), (2, 0.2), (1, 0.4))
    ]
    # a cycle over three modalities, the widest fields
    d0, d1 = {(a, a + 1) for a in range(0, 9, 2)}, {(a, a + 1) for a in range(1, 9, 2)}
    frames.append(Frame(default_alphabet(3), 10, [d0, d1, {(9, 0)}]))
    for f in frames:
        assert frame_modal_depth(f) == memoised_exact_depth(f)


def test_frame_modal_depth_matches_oracle_at_seven_points():
    rng = random.Random(47)
    for mods in (1, 2, 3):
        f = random_frame(rng, 7, mods=mods, density=0.3)
        assert frame_modal_depth(f) == oracles.exact_modal_depth(f)


def test_frame_modal_depth_small_and_extreme_frames():
    for mods in (1, 3):
        for n in (0, 1):
            empty = Frame(default_alphabet(mods), n, [set()] * mods)
            full = Frame(default_alphabet(mods), n, [{(a, b) for a in range(n) for b in range(n)}] * mods)
            assert frame_modal_depth(empty) == frame_modal_depth(full) == 0
    # every point has a successor, so the one-block seed is tuned; the only
    # seed of index 1 has two blocks, its index bound n - 2
    assert frame_modal_depth(uni(3, [(0, 0), (1, 2), (2, 1), (2, 2)])) == 1
    assert frame_modal_depth(uni(8, [(a, a + 1) for a in range(7)])) == 7
    assert frame_modal_depth(uni(8, [])) == 0
    assert frame_modal_depth(uni(8, [(a, b) for a in range(8) for b in range(8)])) == 0


def table_lanes(n, eq):
    """The partition each lane of a lane table holds, lane by lane."""
    return [
        frozenset(frozenset(b for b in range(n) if eq[a][b] >> s & 1) for a in range(n))
        for s in range(eq[0][0].bit_length())
    ]


def growth_prefixes(j):
    """Every restricted-growth sequence of j block numbers."""
    out = [()]
    for _ in range(j):
        out = [p + (l,) for p in out for l in range(max(p, default=-1) + 2)]
    return out


@pytest.mark.parametrize("n", range(1, 9))
def test_lane_table_chunks_hold_the_extensions_of_their_prefix(n):
    expected = [frozenset(p) for p in oracles.set_partitions(range(n))]
    for j in range(min(n, 3) + 1):
        held = Counter()
        for prefix in growth_prefixes(j):
            lanes = table_lanes(n, _lane_table(n, prefix))
            # the partitions whose first j points are apart or together as
            # the prefix's block numbers say
            extending = [
                p
                for p in expected
                if all(
                    any({a, b} <= block for block in p) == (prefix[a] == prefix[b])
                    for a in range(j)
                    for b in range(a)
                )
            ]
            assert Counter(lanes) == Counter(extending)
            assert len(lanes) == _PLACEMENTS[n - j][max(prefix, default=-1) + 1]
            held.update(lanes)
        assert held == Counter(expected)  # every partition in exactly one chunk


def test_one_table_up_to_ten_points():
    assert [_PLACEMENTS[n][0] for n in range(13)] == [
        1, 1, 2, 5, 15, 52, 203, 877, 4140, 21147, 115975, 678570, 4213597
    ]
    assert _PLACEMENTS[10][0] <= _CHUNK_LANES < _PLACEMENTS[11][0]


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_chunked_depth_matches_one_table_and_memoised_seeds(data):
    n = data.draw(st.integers(0, 8))
    rows = st.lists(st.integers(0, (1 << n) - 1), min_size=n, max_size=n)
    rels = [
        {(a, b) for a, row in enumerate(data.draw(rows)) for b in range(n) if row >> b & 1}
        for _ in range(data.draw(st.integers(1, 3)))
    ]
    frame = Frame(default_alphabet(len(rels)), n, rels)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(partitions, "_CHUNK_LANES", data.draw(st.integers(1, 64)))
        chunked = _exact_depth(frame)
    assert chunked == _exact_depth(frame) == memoised_exact_depth(frame)


@pytest.mark.parametrize("mods", [1, 3])
def test_lanes_that_settle_early_keep_their_fixpoint(mods):
    # a 4-chain beside a 2-chain: seeds settle at every stage from 0 to 3,
    # and each lane must end at its own seed's coarsest tuned refinement
    n = 6
    pairs = [(0, 1), (1, 2), (2, 3), (4, 5)]
    frame = Frame(default_alphabet(mods), n, [set(pairs[m::mods]) for m in range(mods)])
    seeds = table_lanes(n, _lane_table(n))
    eq = _lane_table(n)
    depth = _lane_depth(eq, [frame.rows(m) for m in range(mods)])
    indices = Counter(refine_sequence(frame, seed)[1] for seed in seeds)
    assert depth == max(indices) == memoised_exact_depth(frame)
    assert len(indices) == depth + 1  # some lane settles at every stage
    for seed, fixed in zip(seeds, table_lanes(n, eq)):
        assert fixed == frozenset(coarsest_tuned_refinement(frame, Partition.of(n, seed)).blocks)


def test_chunked_depth_matches_one_table_at_eleven_points():
    # Bell(11) = 678570 lanes take several chunks; one table of them all
    # is about 0.1 s and 20 MB
    rng = random.Random(1100)
    frames = [
        uni(11, [(a, a + 1) for a in range(10)]),
        uni(11, [(a, (a + 1) % 11) for a in range(11)]),
        random_frame(rng, 11, mods=2, density=0.25),
    ]
    real_table = partitions._lane_table
    for f in frames:
        chunked = _exact_depth(f)
        prefixes = []  # one per table built

        def table(n, prefix):
            prefixes.append(prefix)
            return real_table(n, prefix)

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(partitions, "_CHUNK_LANES", _PLACEMENTS[11][0])
            mp.setattr(partitions, "_lane_table", table)
            one_table = _exact_depth(f)
        assert chunked == one_table
        assert prefixes == [()]  # the budget is read at the call: one table


def test_frame_modal_depth_at_twelve_points():
    assert frame_modal_depth(uni(12, [(a, a + 1) for a in range(11)])) == 11
