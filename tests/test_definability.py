import hashlib
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from modalwb import definability, semantics
from modalwb.definability import (
    ALL_GAMMA_FAMILIES,
    GAMMA_FORBIDS,
    DefinabilityReport,
    build_jankov,
    distinguishing_formulas,
    stable_top,
    verify_definability,
)
from modalwb.frames import (
    Frame,
    generated_upset,
    mask_of,
    min_part,
    restriction,
    transitivity_index,
)
from modalwb.partitions import frame_modal_depth, refine_sequence
from modalwb.semantics import Model, extent, model_depth
from modalwb.syntax import (
    And,
    Dia,
    Falsum,
    Neg,
    Var,
    box,
    conj,
    default_alphabet,
    depth,
    disj,
    iter_nodes,
    print_formula,
)

AL1 = default_alphabet(1)


def uni(n, pairs):
    return Frame(AL1, n, [set(pairs)])


CHAIN3 = uni(3, [(0, 1), (1, 2)])


def random_model(rng, n_max=6, mods=None, k=None):
    n = rng.randint(1, n_max)
    mods = mods if mods is not None else rng.randint(1, 2)
    k = k if k is not None else rng.randint(0, 2)
    rels = [
        {(a, b) for a in range(n) for b in range(n) if rng.random() < 0.4}
        for _ in range(mods)
    ]
    frame = Frame(default_alphabet(mods), n, rels)
    val = tuple(frozenset(p for p in range(n) if rng.random() < 0.5) for _ in range(k))
    return Model(frame, k, val)


def random_upset(rng, frame):
    up = generated_upset(frame, [p for p in range(frame.n) if rng.random() < 0.5])
    return up if up else frozenset(range(frame.n))


def conjunct_spine(f):
    while isinstance(f, And):
        yield from conjunct_spine(f.left)
        f = f.right
    yield f


def test_chain_top_point_formula():
    model = Model(CHAIN3, 0, ())
    forms = distinguishing_formulas(model)
    top_formula = forms[frozenset({2})]
    assert depth(top_formula) == 1
    assert extent(model, top_formula) == {2}
    # semantically the no-successor point: same extent as boxed falsum
    assert extent(model, box(0, Falsum())) == extent(model, top_formula)


def test_one_block_model_formula():
    universal = uni(2, [(0, 0), (0, 1), (1, 0), (1, 1)])
    model = Model(universal, 0, ())
    forms = distinguishing_formulas(model)
    (block, formula), = forms.items()
    assert block == frozenset({0, 1})
    assert depth(formula) == 0
    assert extent(model, formula) == {0, 1}


def test_distinguishing_formulas_exact_on_random_models():
    rng = random.Random(0)
    for _ in range(500):
        model = random_model(rng)
        trace, _ = refine_sequence(model.frame, model.valuation)
        forms = distinguishing_formulas(model)
        assert set(forms) == set(trace[-1].blocks)
        births = dict(zip(trace[-1].blocks, trace[-1].birth))
        for block, formula in forms.items():
            assert extent(model, formula) == block
            assert depth(formula) <= births[block]


def test_build_jankov_requires_upset():
    model = Model(CHAIN3, 0, ())
    with pytest.raises(ValueError, match="non-empty"):
        build_jankov(model, frozenset())
    with pytest.raises(ValueError, match="upset"):
        build_jankov(model, frozenset({0}))


@pytest.mark.parametrize("bad", [-1, 3])
@pytest.mark.parametrize("build", [build_jankov, verify_definability, stable_top])
def test_definability_names_an_upset_point_out_of_range(build, bad):
    with pytest.raises(ValueError, match=rf"^point {bad} out of range$"):
        build(Model(CHAIN3, 0, ()), [2, bad])


def test_alpha_formulas_carry_literal_profiles():
    rng = random.Random(1)
    for _ in range(100):
        model = random_model(rng, k=2)
        upset = random_upset(rng, model.frame)
        family, _, _ = build_jankov(model, upset)
        for block, alpha in family.formulas.items():
            spine = list(conjunct_spine(alpha))
            rep = min(block)
            for l in range(model.k):
                want = Var(l) if rep in model.valuation[l] else Neg(Var(l))
                assert want in spine
            assert depth(alpha) <= family.depth_bound


def test_jankov_on_cluster_model():
    cluster = uni(3, [(a, b) for a in range(3) for b in range(3)])
    model = Model(cluster, 1, (frozenset({0, 2}),))
    y = frozenset({0, 1, 2})
    family, gamma, beta = build_jankov(model, y)
    trace, _ = refine_sequence(model.frame, model.valuation)
    final = trace[-1]
    for a in sorted(y):
        want = next(b for b in final.blocks if a in b)
        assert extent(model, beta[a]) == want


def test_gamma_depth_bound():
    rng = random.Random(2)
    for _ in range(100):
        model = random_model(rng)
        upset = random_upset(rng, model.frame)
        family, gamma, beta = build_jankov(model, upset)
        m, d = family.m, family.depth_bound
        assert depth(gamma) <= m + d + 1
        for f in beta.values():
            assert depth(f) <= m + d + 1
        for alpha in family.formulas.values():
            assert depth(alpha) <= d


def test_verify_definability_random():
    rng = random.Random(3)
    for _ in range(100):
        model = random_model(rng)
        upset = random_upset(rng, model.frame)
        report = verify_definability(model, upset)
        assert report.ok(), report
        assert report.pairs_checked == len(upset) * model.frame.n


def test_verify_definability_k0():
    rng = random.Random(4)
    for _ in range(50):
        model = random_model(rng, k=0)
        report = verify_definability(model, random_upset(rng, model.frame))
        assert report.ok(), report


def test_dropping_a_gamma_family_breaks_definability():
    rng = random.Random(6)
    families = tuple(f for f in ALL_GAMMA_FAMILIES if f != GAMMA_FORBIDS)
    broken = 0
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(definability, "ALL_GAMMA_FAMILIES", families)
        for _ in range(100):
            model = random_model(rng)
            upset = random_upset(rng, model.frame)
            if not verify_definability(model, upset).ok():
                broken += 1
    assert broken > 0


def test_stable_top_whole_set():
    model = Model(CHAIN3, 0, ())
    z, cap, report = stable_top(model, frozenset({0, 1, 2}))
    assert z == frozenset({0, 1, 2})
    assert report.ok(), report


def test_stable_top_two_cluster_chain():
    # clusters {0,1} -> {2,3}, valuation separating the clusters
    frame = uni(4, [(0, 1), (1, 0), (0, 2), (1, 3), (2, 3), (3, 2)])
    model = Model(frame, 1, (frozenset({2, 3}),))
    y = frozenset({2, 3})
    z, cap, report = stable_top(model, y)
    assert z == y
    assert report.ok(), report


def test_stable_top_random():
    rng = random.Random(7)
    for _ in range(100):
        model = random_model(rng)
        upset = random_upset(rng, model.frame)
        z, cap, report = stable_top(model, upset)
        assert report.ok(), (report, z, cap)
        assert upset <= z
        d = model_depth(semantics.restrict_model(model, upset))[0]
        assert cap == transitivity_index(model.frame) + d + 1


def test_top_down_depth_bound():
    rng = random.Random(8)
    for _ in range(60):
        n = rng.randint(1, 6)
        frame = Frame(
            default_alphabet(1),
            n,
            [{(a, b) for a in range(n) for b in range(n) if rng.random() < 0.35}],
        )
        m = transitivity_index(frame)
        bottom = min_part(frame)
        from modalwb.frames import skeleton

        skel = skeleton(frame)
        has_below = {j for (_, j) in skel.order}
        minimal = [i for i in range(len(skel.clusters)) if i not in has_below]
        drop = set().union(
            *(skel.clusters[i] for i in minimal if rng.random() < 0.5)
        ) if minimal else set()
        upset = [p for p in range(n) if p not in drop]
        c = frame_modal_depth(restriction(frame, bottom))
        d = frame_modal_depth(restriction(frame, upset))
        assert frame_modal_depth(frame) <= d + m + c + 1


@st.composite
def small_models(draw):
    n = draw(st.integers(1, 6))
    mods = draw(st.integers(1, 2))
    pairs = st.tuples(st.integers(0, n - 1), st.integers(0, n - 1))
    rels = [draw(st.sets(pairs, max_size=n * n)) for _ in range(mods)]
    k = draw(st.integers(0, 2))
    val = tuple(draw(st.frozensets(st.integers(0, n - 1))) for _ in range(k))
    return Model(Frame(default_alphabet(mods), n, rels), k, val)


@settings(max_examples=300, deadline=None)
@given(small_models())
def test_distinguishing_formulas_match_point_set_reference(model):
    forms = distinguishing_formulas(model)
    reference = oracles.stage_formulas(model)
    assert set(forms) == set(reference)
    for block, formula in forms.items():
        assert print_formula(formula) == print_formula(reference[block])


def all_blocks_stage_formulas(model):
    """``definability._stage_formulas`` as written before new-block
    splitters: the splitter pool holds every block of the previous stage.
    Kept as the reference for the printed formulas."""
    frame, memo = model.frame, {}
    stages, _ = definability._stage_masks(model)
    forms = {b: conj(definability._literal_profile(model, b, memo)) for b in stages[0]}
    for prev, cur in zip(stages, stages[1:]):
        pool = [
            (mod, pb, frame.preimage_mask(mod, pb))
            for mod in range(len(frame.alphabet))
            for pb in prev
        ]
        nxt = {}
        for block in cur:
            parent = next(b for b in prev if block & b)
            remaining = [b for b in cur if b & parent and b != block]
            conjuncts = [forms[parent]]
            for mod, pb, pre in pool:
                if not remaining:
                    break
                inside = bool(block & pre)
                still = [s for s in remaining if bool(s & pre) == inside]
                if len(still) < len(remaining):
                    dia, neg = definability._signed_diamond(memo, mod, forms[pb])
                    conjuncts.append(dia if inside else neg)
                    remaining = still
            assert not remaining
            nxt[block] = conj(conjuncts)
        forms = nxt
    return stages, forms


def assert_stage_formulas_match_all_blocks_pool(model):
    stages, forms = definability._stage_formulas(model, {})
    ref_stages, reference = all_blocks_stage_formulas(model)
    assert stages == ref_stages
    assert list(forms) == list(reference)
    for block, formula in forms.items():
        assert print_formula(formula) == print_formula(reference[block])


@settings(max_examples=300, deadline=None)
@given(small_models())
def test_new_block_splitter_pool_prints_the_all_blocks_formulas(model):
    assert_stage_formulas_match_all_blocks_pool(model)


def test_new_block_splitter_pool_on_deep_models():
    # chains and cycles seeded at one point split one block a stage, so
    # most of the all-blocks pool is old; random models up to 9 points
    for n in (3, 7, 12):
        for pairs in ([(a, a + 1) for a in range(n - 1)], [(a, (a + 1) % n) for a in range(n)]):
            frame = uni(n, pairs)
            for p in (0, n // 2, n - 1):
                assert_stage_formulas_match_all_blocks_pool(Model(frame, 1, (frozenset({p}),)))
    rng = random.Random(27)
    for _ in range(150):
        assert_stage_formulas_match_all_blocks_pool(random_model(rng, n_max=9, k=rng.randint(0, 3)))


def stage_d_stable(stages, z_mask, cap):
    """``stable_top``'s stability as first written: every block of stage
    D = min(cap, index) that meets Z is a final block. Kept as the
    reference for the birth form."""
    finals = set(stages[-1])
    return all(b in finals for b in stages[min(cap, len(stages) - 1)] if b & z_mask)


def assert_stability_from_births_matches_stage_d(model, rng):
    stages, birth = definability._stage_masks(model)
    final = stages[-1]
    # every D up to past the index, Z a random union of final blocks
    for cap in range(len(stages) + 2):
        for _ in range(4):
            z_mask = sum(b for b in final if rng.random() < 0.5)
            by_births = all(birth[b] <= cap for b in final if b & z_mask)
            assert by_births == stage_d_stable(stages, z_mask, cap)
    z, cap, report = stable_top(model, random_upset(rng, model.frame))
    assert report.stability_ok == stage_d_stable(stages, mask_of(z), cap)


@settings(max_examples=300, deadline=None)
@given(small_models(), st.randoms(use_true_random=False))
def test_stability_from_births_matches_the_stage_d_blocks(model, rng):
    assert_stability_from_births_matches_stage_d(model, rng)


def test_stability_from_births_on_deep_models():
    # chains and cycles seeded at one point are born one block a stage
    rng = random.Random(41)
    for n in (3, 7, 12):
        for pairs in ([(a, a + 1) for a in range(n - 1)], [(a, (a + 1) % n) for a in range(n)]):
            for p in (0, n // 2, n - 1):
                model = Model(uni(n, pairs), 1, (frozenset({p}),))
                assert_stability_from_births_matches_stage_d(model, rng)
    for _ in range(150):
        assert_stability_from_births_matches_stage_d(random_model(rng, n_max=9), rng)


# a subset of the gamma families in table order, for the patched constant
GAMMA_SUBSETS = st.sets(st.sampled_from(ALL_GAMMA_FAMILIES)).map(
    lambda chosen: tuple(f for f in ALL_GAMMA_FAMILIES if f in chosen)
)


@settings(max_examples=150, deadline=None)
@given(small_models(), st.data())
def test_verify_definability_matches_per_beta_reference(model, data):
    frame = model.frame
    upset = generated_upset(frame, data.draw(st.sets(st.integers(0, frame.n - 1), min_size=1)))
    # dropping gamma families makes violations possible
    families = data.draw(GAMMA_SUBSETS)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(definability, "ALL_GAMMA_FAMILIES", families)
        family, _, beta = build_jankov(model, upset)
        report = verify_definability(model, upset)
    assert family.m == transitivity_index(frame)
    stages, _ = oracles.staged_refinement(frame, model.valuation)
    violations = []
    for a in sorted(upset):
        ext = oracles.naive_extent(model, beta[a])
        same_class = next(b for b in stages[-1] if a in b)
        for b in range(frame.n):
            if (b in ext) != (b in same_class):
                violations.append((a, b, b in ext, b in same_class))
    assert report == DefinabilityReport(
        pairs_checked=len(upset) * frame.n,
        violations=tuple(violations),
        max_beta_depth=max(depth(beta[a]) for a in upset),
        depth_limit=family.m + family.depth_bound + 1,
    )


@settings(max_examples=100, deadline=None)
@given(small_models(), st.data())
def test_stable_top_definability_matches_reference(model, data):
    frame = model.frame
    upset = generated_upset(frame, data.draw(st.sets(st.integers(0, frame.n - 1), min_size=1)))
    # dropping gamma families can leave Z undefined by the beta disjunction
    families = data.draw(GAMMA_SUBSETS)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(definability, "ALL_GAMMA_FAMILIES", families)
        z, cap, report = stable_top(model, upset)
        family, _, beta = build_jankov(model, upset)
    defining = disj([beta[min(c)] for c in sorted(family.formulas, key=min)])
    assert report.defining_depth == depth(defining)
    assert report.definable_ok == (
        oracles.naive_extent(model, defining) == z and depth(defining) <= cap
    )


def test_jankov_betas_share_one_diamond_per_modality_and_child():
    rng = random.Random(5)
    for _ in range(100):
        model = random_model(rng, n_max=7)
        _, _, beta = build_jankov(model, random_upset(rng, model.frame))
        dias = [(g.mod, id(g.child)) for g in iter_nodes(*beta.values()) if isinstance(g, Dia)]
        assert len(dias) == len(set(dias))


def test_jankov_betas_share_one_node_per_literal():
    rng = random.Random(6)
    for _ in range(100):
        model = random_model(rng, n_max=7)
        _, _, beta = build_jankov(model, random_upset(rng, model.frame))
        nodes = list(iter_nodes(*beta.values()))
        lits = [("var", g.index) for g in nodes if isinstance(g, Var)]
        lits += [
            ("neg", g.child.index)
            for g in nodes
            if isinstance(g, Neg) and isinstance(g.child, Var)
        ]
        assert len(lits) == len(set(lits))


# SHA-256 of print_formula(gamma) and of every beta, one per line in point
# order, recorded while each conjunct still built its own diamonds: sharing
# nodes must not change a printed formula
JANKOV_PRINT_DIGESTS = {
    0: "29f867e5699dec68f3f27963bae9b84dfa367b7109335a68bce49da663c3580a",
    1: "65fd0169cd165cc72db655bd418c1fd332117a1f7eae113ce07cb90c845fdd65",
    2: "a736f25cfd57cc5657c87bd87bbb2edbe568b989bcc703ff7315e3acd0d42d27",
    3: "6140578b57cb91b7245bf4a0d106934cad0de6781bca2470f489a38eaab383ee",
    4: "360381425b53242dde69f17082d46c15c9a5a99495da0c982288fb53e83d103c",
    5: "b8cfae51986adab7de416e8e65c3ea5d6980a1f3eba40cedbdf427ea14f13eae",
    6: "55b0f137e9e34204efc0e19cd73438eb7dd50bb678b2114a8cb4ef1c2706ac85",
    7: "22983959125edda592df53998bb7dd046ad89c8c0713d6d4509d2b6da8489e2b",
    8: "8c91c53f27be1ec2991133cb5da147f92062dfd2905cf789b8be98a052a4bff6",
    9: "8d986218a5e93f19ad8ac08296b2741933aac287a1ffd982c93f28a263c19b05",
    10: "112ce1d8ab114c2a3f8de3550ffc0da27c6159edeef0ca64befdaa3bec04696f",
    11: "16b8bf0b17a6dc5fdbdc282f8252a5931f8af060977d580604c4f3de5a44f193",
}


@pytest.mark.parametrize("seed", sorted(JANKOV_PRINT_DIGESTS))
def test_jankov_printed_formulas_are_unchanged(seed):
    rng = random.Random(seed)
    model = random_model(rng, n_max=7)
    _, gamma, beta = build_jankov(model, random_upset(rng, model.frame))
    text = "\n".join([print_formula(gamma)] + [print_formula(beta[p]) for p in sorted(beta)])
    assert hashlib.sha256(text.encode()).hexdigest() == JANKOV_PRINT_DIGESTS[seed]
