import itertools
import math
import random
from collections import Counter

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from modalwb import partitions, semantics
from modalwb.frames import Frame, expand, is_pmorphism, mask_of, points_of, quotient_filtration
from modalwb.partitions import CapExceeded, coarsest_tuned_refinement, is_tuned
from modalwb.semantics import (
    Model,
    extent,
    extents_and_depths,
    model_depth,
    restrict_model,
    validity_bruteforce,
)
from modalwb.syntax import (
    And,
    Dia,
    Falsum,
    Imp,
    Neg,
    Or,
    Var,
    default_alphabet,
    depth,
    finite_height_axiom_star,
    iter_nodes,
    parse,
    pretransitivity_axiom,
    print_formula,
    variables,
)

import oracles

AL1 = default_alphabet(1)
AL2 = default_alphabet(2)


def uni(n, pairs):
    return Frame(AL1, n, [set(pairs)])


CHAIN3 = uni(3, [(0, 1), (1, 2)])


def random_model(rng, n, mods=1, k=1, density=0.4):
    rels = [
        {(a, b) for a in range(n) for b in range(n) if rng.random() < density}
        for _ in range(mods)
    ]
    frame = Frame(default_alphabet(mods), n, rels)
    val = tuple(
        frozenset(p for p in range(n) if rng.random() < 0.5) for _ in range(k)
    )
    return Model(frame, k, val)


def test_extent_examples():
    m = Model(CHAIN3, 1, (frozenset({2}),))
    assert extent(m, Falsum()) == frozenset()
    assert extent(m, Dia(0, Var(0))) == {1}
    assert extent(m, Neg(Dia(0, Neg(Var(0))))) == {1, 2}  # box via sugar too


def test_extent_box_flag():
    m = Model(CHAIN3, 1, (frozenset({2}),))
    from modalwb.syntax import box

    assert extent(m, box(0, Var(0))) == {1, 2}


def test_extent_range_errors():
    m = Model(CHAIN3, 1, (frozenset(),))
    with pytest.raises(ValueError, match="variable"):
        extent(m, Var(3))
    with pytest.raises(ValueError, match="modality"):
        extent(m, Dia(1, Var(0)))


def test_extent_normality_law():
    rng = random.Random(0)
    for _ in range(200):
        m = random_model(rng, rng.randint(1, 5), mods=rng.randint(1, 2), k=2)
        lhs = extent(m, Dia(0, Or(Var(0), Var(1))))
        rhs = extent(m, Or(Dia(0, Var(0)), Dia(0, Var(1))))
        assert lhs == rhs


def test_extent_matches_naive_oracle():
    rng = random.Random(1)
    formulas = [
        parse("p0 -> <d0>(p1 & ~p0)", AL2),
        parse("[d0](p0 | <d1>p1)", AL2),
        parse("~(p0 & p1) | <d1><d0>p0", AL2),
    ]
    for _ in range(100):
        m = random_model(rng, rng.randint(1, 5), mods=2, k=2)
        for f in formulas:
            assert extent(m, f) == oracles.naive_extent(m, f)


def test_validity_normality():
    rng = random.Random(2)
    f = parse("<d0>(p0 | p1) -> <d0>p0 | <d0>p1", AL2)
    for _ in range(30):
        m = random_model(rng, rng.randint(1, 4), mods=2)
        assert validity_bruteforce(m.frame, f)


def test_validity_pretransitivity_on_chain():
    assert not validity_bruteforce(CHAIN3, pretransitivity_axiom((0,), 1))
    assert validity_bruteforce(CHAIN3, pretransitivity_axiom((0,), 2))


def test_validity_height_axiom():
    cluster = uni(2, [(0, 0), (0, 1), (1, 0), (1, 1)])
    assert validity_bruteforce(cluster, finite_height_axiom_star(1, 1, (0,)))
    two_chain = uni(2, [(0, 1)])
    assert not validity_bruteforce(two_chain, finite_height_axiom_star(1, 1, (0,)))


def test_validity_on_empty_frame():
    empty = uni(0, [])
    assert validity_bruteforce(empty, Falsum())


def test_validity_cap():
    big = uni(6, [])
    f = parse("p0 & p1 & p2 & p3", AL1)
    with pytest.raises(CapExceeded):
        validity_bruteforce(big, f, cap=1000)


@pytest.mark.parametrize(
    "k, valuation, message",
    [
        (2, [{0}], "expected 2 extents, got 1"),
        (1, [{0, 3}], "point 3 out of range"),
    ],
)
def test_model_rejects_a_bad_valuation(k, valuation, message):
    with pytest.raises(ValueError, match=f"^{message}$"):
        Model(CHAIN3, k, valuation)


@pytest.mark.parametrize("k", [True, 1.0])
def test_model_rejects_a_variable_count_that_is_not_an_int(k):
    # Model(f, True, [{0}]).k used to be True
    with pytest.raises(TypeError, match=rf"^k must be an int, got {k!r}$"):
        Model(CHAIN3, k, [{0}])


def test_validity_cap_errors_name_the_cap():
    # operator.index alone said "'float' object cannot be interpreted as an integer"
    with pytest.raises(TypeError, match=r"^cap must be an int, got 1\.5$"):
        validity_bruteforce(CHAIN3, Var(0), cap=1.5)


def test_model_depth_chain():
    depth, trace = model_depth(Model(CHAIN3, 0, ()))
    assert depth == 2
    assert [sorted(map(sorted, p.blocks)) for p in trace] == [
        [[0, 1, 2]],
        [[0, 1], [2]],
        [[0], [1], [2]],
    ]


def test_model_depth_universal_cluster():
    rng = random.Random(3)
    for _ in range(30):
        n = rng.randint(1, 5)
        cluster = uni(n, [(a, b) for a in range(n) for b in range(n)])
        val = (frozenset(p for p in range(n) if rng.random() < 0.5),)
        depth, _ = model_depth(Model(cluster, 1, val))
        assert depth <= 1


def test_model_depth_singleton():
    assert model_depth(Model(uni(1, []), 0, ()))[0] == 0


def test_model_depth_matches_extent_family_oracle():
    rng = random.Random(4)
    for _ in range(60):
        m = random_model(rng, rng.randint(1, 4), mods=rng.randint(1, 2), k=rng.randint(0, 2))
        assert model_depth(m)[0] == oracles.model_depth_oracle(m)


def test_stagewise_partitions_match_oracle():
    rng = random.Random(5)
    for _ in range(30):
        m = random_model(rng, rng.randint(1, 4), k=1)
        depth, trace = model_depth(m)
        for d, part in enumerate(trace):
            assert frozenset(part.blocks) == oracles.stage_partition_oracle(m, d)


def test_depth_quotient_is_tuned_and_stable():
    rng = random.Random(6)
    for _ in range(200):
        m = random_model(rng, rng.randint(1, 5), mods=rng.randint(1, 2), k=rng.randint(0, 2))
        depth, trace = model_depth(m)
        final = trace[-1]
        assert is_tuned(m.frame, final)
        again, _ = partitions.refine_sequence(m.frame, final.blocks)
        assert again[-1].blocks == final.blocks


def test_upset_restriction_stagewise_equality():
    from modalwb.frames import generated_upset

    rng = random.Random(7)
    for _ in range(100):
        m = random_model(rng, rng.randint(1, 5), k=rng.randint(0, 2))
        up = generated_upset(m.frame, [p for p in range(m.frame.n) if rng.random() < 0.5])
        pts = sorted(up)
        sub = restrict_model(m, up)
        d_full, trace_full = model_depth(m)
        d_sub, trace_sub = model_depth(sub)
        pos = {p: i for i, p in enumerate(pts)}
        for i in range(max(len(trace_full), len(trace_sub))):
            full_stage = trace_full[min(i, len(trace_full) - 1)]
            sub_stage = trace_sub[min(i, len(trace_sub) - 1)]
            projected = {
                frozenset(pos[p] for p in b if p in pos) for b in full_stage.blocks
            }
            projected.discard(frozenset())
            assert projected == set(sub_stage.blocks)


def test_model_depth_bounded_by_frame_depth():
    rng = random.Random(8)
    for _ in range(60):
        m = random_model(rng, rng.randint(1, 5), mods=rng.randint(1, 2), k=rng.randint(0, 2))
        assert model_depth(m)[0] <= partitions.frame_modal_depth(m.frame)


def test_validity_antitone_under_pmorphic_images():
    rng = random.Random(9)
    from modalwb import audit

    formulas = [
        parse("<d0>p0 -> p0", AL1),
        parse("p0 -> <d0>p0", AL1),
        parse("<d0><d0>p0 -> <d0>p0", AL1),
        finite_height_axiom_star(2, 2, (0,)),
    ]
    checked = 0
    for _ in range(200):
        n = rng.randint(1, 5)
        f = Frame(AL1, n, [{(a, b) for a in range(n) for b in range(n) if rng.random() < 0.4}])
        part = coarsest_tuned_refinement(f, audit.random_partition(rng, n))
        quot, proj = quotient_filtration(f, part)
        assert is_pmorphism(f, quot, proj)
        for formula in formulas:
            if validity_bruteforce(f, formula):
                checked += 1
                assert validity_bruteforce(quot, formula)
    assert checked > 20


@st.composite
def models_and_roots(draw):
    """A model (n <= 6, k <= 2) and a list of roots over one DAG: every new
    node takes its children from the nodes built so far, so roots share
    subformulas, and a root may repeat."""
    n = draw(st.integers(0, 6))
    mods = draw(st.integers(1, 2))
    points = st.integers(0, n - 1) if n else st.nothing()
    pairs = st.tuples(points, points)
    rels = [draw(st.sets(pairs, max_size=n * n)) for _ in range(mods)]
    k = draw(st.integers(0, 2))
    val = tuple(draw(st.frozensets(points)) for _ in range(k))
    pool = [Falsum()] + [Var(i) for i in range(k)]
    for _ in range(draw(st.integers(0, 30))):
        kind = draw(st.sampled_from(["neg", "and", "or", "imp", "dia", "box"]))
        child = draw(st.sampled_from(pool))
        if kind == "neg":
            pool.append(Neg(child))
        elif kind in ("dia", "box"):
            pool.append(Dia(draw(st.integers(0, mods - 1)), child, boxed=kind == "box"))
        else:
            other = draw(st.sampled_from(pool))
            pool.append({"and": And, "or": Or, "imp": Imp}[kind](child, other))
    roots = draw(st.lists(st.sampled_from(pool), max_size=8))
    return Model(Frame(default_alphabet(mods), n, rels), k, val), roots


@settings(max_examples=200, deadline=None)
@given(models_and_roots())
def test_extents_and_depths_match_per_root_references(case):
    model, roots = case
    results = extents_and_depths(model, roots)
    assert len(results) == len(roots)
    for f, (mask, d) in zip(roots, results):
        assert points_of(mask) == oracles.naive_extent(model, f)
        assert d == depth(f)


@st.composite
def frames_and_formulas(draw):
    """A frame (n <= 3, 1-2 modalities) and a formula DAG over 0-3 of the
    variables p0..p2, gaps allowed (only p1 and p2, say), with
    variable-free, boxed and shared subformulas. The root is the last node
    built, joined to a node of each drawn variable it lacks, and weakened
    half the time to g -> root with g from the same pool, so that many
    roots are valid and the enumeration runs to its end."""
    n = draw(st.integers(0, 3))
    mods = draw(st.integers(1, 2))
    points = st.integers(0, n - 1) if n else st.nothing()
    pairs = st.tuples(points, points)
    rels = [draw(st.sets(pairs, max_size=n * n)) for _ in range(mods)]
    names = draw(st.lists(st.integers(0, 2), max_size=3, unique=True))
    pool = [Falsum()] + [Var(i) for i in names]
    for _ in range(draw(st.integers(0, 12))):
        kind = draw(st.sampled_from(["neg", "and", "or", "imp", "dia", "box"]))
        child = draw(st.sampled_from(pool))
        if kind == "neg":
            pool.append(Neg(child))
        elif kind in ("dia", "box"):
            pool.append(Dia(draw(st.integers(0, mods - 1)), child, boxed=kind == "box"))
        else:
            other = draw(st.sampled_from(pool))
            pool.append({"and": And, "or": Or, "imp": Imp}[kind](child, other))
    f = pool[-1]
    for v in names:  # every drawn variable occurs
        if v not in variables(f):
            g = draw(st.sampled_from([g for g in pool if v in variables(g)]))
            f = draw(st.sampled_from([And, Or, Imp]))(f, g)
    if draw(st.booleans()):
        f = Imp(draw(st.sampled_from(pool)), f)
    return Frame(default_alphabet(mods), n, rels), f


def naive_validity(frame, f):
    """Quantify over the occurring variables' extents as frozensets and
    evaluate each valuation with the recursive oracle."""
    occurring = sorted(variables(f))
    k = max(occurring, default=-1) + 1
    subsets = [
        frozenset(p for p in range(frame.n) if (m >> p) & 1) for m in range(1 << frame.n)
    ]
    everything = frozenset(range(frame.n))
    for combo in itertools.product(subsets, repeat=len(occurring)):
        val = [frozenset()] * k
        for v, ext in zip(occurring, combo):
            val[v] = ext
        if oracles.naive_extent(Model(frame, k, tuple(val)), f) != everything:
            return False
    return True


@settings(max_examples=300, deadline=None)
@given(frames_and_formulas())
def test_validity_matches_naive_quantification_over_oracle_extents(case):
    frame, f = case
    assert validity_bruteforce(frame, f) == naive_validity(frame, f)


def fresh_copy(f):
    """The same formula built again: a new object for every node."""
    if isinstance(f, Var):
        return Var(f.index)
    if isinstance(f, Falsum):
        return Falsum()
    if isinstance(f, Neg):
        return Neg(fresh_copy(f.child))
    if isinstance(f, Dia):
        return Dia(f.mod, fresh_copy(f.child), boxed=f.boxed)
    return type(f)(fresh_copy(f.left), fresh_copy(f.right))


@st.composite
def frames_and_repeated_variables(draw, sizes, names):
    """A frame of one of the sizes (1-2 modalities) and a formula tree over
    the variable indices drawn from ``names``, in which every occurrence of
    a variable is its own ``Var`` object, with boxes and variable-free
    boxed or diamond subformulas. The root joins the tree to a fresh copy
    of itself: as f | ~f' or f -> f' it is valid, as f & f' or f it need
    not be, and either way each index occurs as at least two objects."""
    n = draw(st.sampled_from(sizes))
    mods = draw(st.integers(1, 2))
    points = st.integers(0, n - 1) if n else st.nothing()
    rels = [draw(st.sets(st.tuples(points, points), max_size=n * n)) for _ in range(mods)]
    indices = draw(st.lists(names, min_size=1, max_size=2, unique=True))
    modality = st.integers(0, mods - 1)
    closed = st.builds(Dia, modality, st.builds(Neg, st.builds(Falsum)), boxed=st.booleans())
    leaves = st.sampled_from(indices).map(Var) | st.builds(Falsum) | closed

    def extend(sub):
        binary = st.sampled_from([And, Or, Imp])
        return (
            st.builds(Neg, sub)
            | st.builds(Dia, modality, sub, boxed=st.booleans())
            | st.builds(lambda op, a, b: op(a, b), binary, sub, sub)
        )

    f = draw(st.recursive(leaves, extend, max_leaves=8))
    for i in indices:
        f = draw(st.sampled_from([And, Or, Imp]))(f, Dia(0, Var(i), boxed=draw(st.booleans())))
    shape = draw(st.sampled_from(["excluded middle", "implication", "conjunction", "plain"]))
    if shape == "excluded middle":
        f = Or(f, Neg(fresh_copy(f)))
    elif shape == "implication":
        f = Imp(f, fresh_copy(f))
    elif shape == "conjunction":
        f = And(f, fresh_copy(f))
    else:
        f = Or(f, And(Var(indices[0]), Falsum()))
    return Frame(default_alphabet(mods), n, rels), f


def assert_validity_matches_naive(frame, f):
    objects = [g for g in iter_nodes(f) if isinstance(g, Var)]
    assert len(objects) > len(variables(f))  # some index has several slots
    assert validity_bruteforce(frame, f) == naive_validity(frame, f)


@settings(max_examples=200, deadline=None)
@given(frames_and_repeated_variables(range(5), st.integers(0, 2)))
def test_validity_writes_every_occurrence_of_a_variable(case):
    assert_validity_matches_naive(*case)


@settings(max_examples=20, deadline=None)
@given(frames_and_repeated_variables([9, 10], st.just(1)))
def test_validity_above_the_table_size_matches_naive(case):
    assert_validity_matches_naive(*case)


def assert_program_follows_iter_nodes(frame, roots):
    """``_compile`` against its reference: one instruction per node of
    ``iter_nodes(*roots)``, in that order, reading its children's slots,
    with each node's own depth; and ``_levels`` over that program, each
    node's smallest variable position, with and without position 0 fixed."""
    prog, depths, outs, vars_ = semantics._compile(frame, *roots)
    nodes = list(iter_nodes(*roots))
    slot = {id(g): i for i, g in enumerate(nodes)}
    binary = {And: semantics._AND, Or: semantics._OR, Imp: semantics._IMP}
    assert len(prog) == len(nodes)
    for i, (g, ins) in enumerate(zip(nodes, prog)):
        if isinstance(g, Var):
            assert ins == (i, semantics._VAR, g.index, 0)
        elif isinstance(g, Falsum):
            assert ins == (i, semantics._FALSE, 0, 0)
        elif isinstance(g, Neg):
            assert ins == (i, semantics._NEG, slot[id(g.child)], 0)
        elif isinstance(g, Dia):
            op = semantics._BOX if g.boxed else semantics._DIA
            assert ins == (i, op, g.mod, slot[id(g.child)])
        else:
            assert ins == (i, binary[type(g)], slot[id(g.left)], slot[id(g.right)])
        assert depths[i] == depth(g)
    for fixed in ({}, {0}):
        position = {v: math.inf if p in fixed else p for p, v in enumerate(vars_)}
        levels = semantics._levels(prog, position)
        for g, level in zip(nodes, levels):
            assert level == min((position[v] for v in variables(g)), default=math.inf)
    assert outs == [slot[id(f)] for f in roots]
    assert vars_ == sorted(set().union(*map(variables, roots)))


def test_compile_order_with_shared_and_repeated_roots():
    p, q = Var(0), Var(1)
    shared = Dia(0, And(Neg(q), p))
    left = Or(shared, Imp(q, p))
    roots = [left, shared, Imp(shared, left), left, Neg(Neg(shared)), p]
    assert_program_follows_iter_nodes(CHAIN3, roots)
    assert_program_follows_iter_nodes(CHAIN3, [])


@settings(max_examples=200, deadline=None)
@given(models_and_roots())
def test_compile_order_matches_iter_nodes(case):
    model, roots = case
    assert_program_follows_iter_nodes(model.frame, roots)


def test_compile_deep_chain_without_recursion():
    m = Model(CHAIN3, 1, (frozenset({2}),))
    f = parse("~" * 3000 + "p0", AL1)
    assert extents_and_depths(m, [f, f.child]) == [(0b100, 0), (0b011, 0)]


def test_compile_heavily_shared_dag_once_per_node():
    # 201 nodes, 2^200 paths: one instruction per node, not per path
    f = Var(0)
    for _ in range(200):
        f = And(f, f)
    prog, _, outs, _ = semantics._compile(CHAIN3, f)
    assert len(prog) == 201 and outs == [200]
    assert_program_follows_iter_nodes(CHAIN3, [f])
    m = Model(CHAIN3, 1, (frozenset({2}),))
    assert extents_and_depths(m, [f]) == [(0b100, 0)]


def test_compile_rejects_non_formulas_and_unknown_modalities():
    m = Model(CHAIN3, 1, (frozenset(),))
    with pytest.raises(TypeError, match="not a formula"):
        extents_and_depths(m, [Var(0), "p0"])
    with pytest.raises(TypeError, match="not a formula"):
        extents_and_depths(m, [And(Var(0), Neg(None))])
    # every bad id is reported, once each, after the whole walk
    with pytest.raises(ValueError, match=r"modality ids \[1, 3\] outside alphabet of size 1"):
        extents_and_depths(m, [Dia(3, Dia(1, Var(0))), Dia(0, Var(0)), Dia(1, Falsum())])


def test_compile_rejects_negative_modality_ids():
    # -1 must not alias the last modality of a 2-modality frame
    frame = Frame(AL2, 2, [{(0, 1)}, {(1, 0)}])
    m = Model(frame, 1, (frozenset({0}),))
    with pytest.raises(ValueError, match=r"modality ids \[-2, -1\] outside alphabet of size 2"):
        extent(m, Or(Dia(-1, Var(0)), Dia(-2, Dia(-1, Var(0)))))
    with pytest.raises(ValueError, match=r"modality ids \[-1\] outside alphabet of size 2"):
        validity_bruteforce(frame, Imp(Dia(-1, Var(0)), Dia(1, Var(0))))


def test_compile_rejects_negative_variable_indices():
    # -1 must not alias the last variable of the valuation
    frame = Frame(AL1, 2, [{(0, 1)}])
    m = Model(frame, 1, (frozenset({0}),))
    with pytest.raises(ValueError, match=r"variable indices \[-1\] are negative"):
        extent(m, Var(-1))
    with pytest.raises(ValueError, match=r"variable indices \[-2, -1\] are negative"):
        validity_bruteforce(frame, Or(Var(-1), Dia(0, And(Var(-2), Var(0)))))


@pytest.mark.parametrize("index", [1.5, "a", True], ids=["float", "str", "bool"])
def test_compile_rejects_variable_indices_that_are_not_ints(index):
    # Var(1.5) used to read no valuation digit and make validity False; True
    # would alias p1
    frame = Frame(AL1, 2, [{(0, 1)}])
    m = Model(frame, 2, (frozenset({0}), frozenset({1})))
    with pytest.raises(TypeError, match="variable index must be an int"):
        validity_bruteforce(frame, Var(index))
    with pytest.raises(TypeError, match="variable index must be an int"):
        extent(m, Or(Var(0), Dia(0, Var(index))))


@pytest.mark.parametrize("mod", [True, 1.0], ids=["bool", "float"])
def test_compile_rejects_modality_ids_that_are_not_ints(mod):
    # Dia(True, p0) would read modality 1
    frame = Frame(AL2, 2, [{(0, 1)}, {(1, 0)}])
    m = Model(frame, 1, (frozenset({0}),))
    with pytest.raises(TypeError, match=rf"^modality id must be an int, got {mod!r}$"):
        extent(m, Dia(mod, Var(0)))
    with pytest.raises(TypeError, match=rf"^modality id must be an int, got {mod!r}$"):
        validity_bruteforce(frame, Imp(Dia(mod, Var(0)), Dia(1, Var(0))))


@pytest.mark.parametrize("cap, error", [(1.5, TypeError), (-1, ValueError)])
def test_validity_rejects_a_bad_cap(cap, error):
    # a float cap used to end in a raw AttributeError from cap.bit_length
    with pytest.raises(error):
        validity_bruteforce(CHAIN3, Var(0), cap=cap)


def scalar_validity_bruteforce(frame, f, cap=semantics.DEFAULT_VALUATION_CAP):
    """The scalar incremental enumeration that the bit-sliced chunks
    replaced, kept as the differential reference of ``validity_bruteforce``
    on inputs too large for ``naive_validity``. It keys each instruction by
    its node's smallest variable index, from ``variables``, not by the
    levels ``validity_bruteforce`` computes."""
    _compile, _evaluate, _VAR = semantics._compile, semantics._evaluate, semantics._VAR
    prog, _, outs, vars_ = _compile(frame, f)
    lows = [min(variables(g), default=math.inf) for g in iter_nodes(f)]
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


def random_formula(rng, indices, mods, size, weaken=True):
    """A formula tree with about ``size`` inner nodes over the variables
    ``indices`` (each occurring), with boxes, falsum and variable-free
    boxed or diamond subformulas. With ``weaken``, half the time it is
    joined to a fresh copy of itself as f | ~f' or f -> f', which is valid,
    so the enumeration runs through every chunk."""
    def grow(budget):
        if budget <= 0:
            r = rng.random()
            if r < 0.75:
                return Var(rng.choice(indices))
            if r < 0.85:
                return Falsum()
            return Dia(rng.randrange(mods), Neg(Falsum()), boxed=rng.random() < 0.5)
        kind = rng.randrange(5)
        if kind == 0:
            return Neg(grow(budget - 1))
        if kind == 1:
            return Dia(rng.randrange(mods), grow(budget - 1), boxed=rng.random() < 0.5)
        left = rng.randint(0, budget - 1)
        return rng.choice([And, Or, Imp])(grow(left), grow(budget - 1 - left))

    f = grow(size)
    for i in indices:
        link = Dia(rng.randrange(mods), Var(i), boxed=rng.random() < 0.5)
        f = rng.choice([And, Or, Imp])(f, link)
    if not weaken:
        return f
    shape = rng.randrange(4)
    if shape == 0:
        return Or(f, Neg(fresh_copy(f)))
    if shape == 1:
        return Imp(f, fresh_copy(f))
    return f


def random_frame_of(rng, n, mods):
    density = rng.choice([0.1, 0.3, 0.5, 0.9])
    pairs = [(a, b) for a in range(n) for b in range(n)]
    rels = [{ab for ab in pairs if rng.random() < density} for _ in range(mods)]
    return Frame(default_alphabet(mods), n, rels)


def test_sliced_validity_with_counter_fed_points_matches_scalar():
    """One variable on 9-11 points: two to eight chunks per formula, whose
    points 8 and up take their value from the chunk's counter."""
    rng = random.Random(41)
    verdicts = set()
    for _ in range(40):
        n, mods = rng.randint(9, 11), rng.randint(1, 2)
        frame, f = random_frame_of(rng, n, mods), random_formula(rng, [rng.randint(0, 2)], mods, 6)
        verdict = validity_bruteforce(frame, f)
        assert verdict == scalar_validity_bruteforce(frame, f)
        verdicts.add(verdict)
    assert verdicts == {False, True}


def falsifying_extents(frame, f):
    """The extents of the one variable of f, as point masks in counter
    order, under which f fails at some point; only ``[0]`` when the empty
    extent falsifies it. Each runs the whole program on plain point masks."""
    prog, _, [root], [v] = semantics._compile(frame, f)
    full = (1 << frame.n) - 1
    pre = [frame.preimages(mod) for mod in range(len(frame.alphabet))]
    vals, masks = [0] * len(prog), [0] * (v + 1)
    fails = []
    for t in range(1 << frame.n):
        masks[v] = t
        semantics._evaluate(prog, pre, masks, full, vals)
        if vals[root] != full:
            if not t:
                return [0]
            fails.append(t)
    return fails


def test_sliced_validity_failing_after_the_first_chunk_matches_scalar():
    """One variable on 9-11 points, each formula false under no valuation of
    the first chunk's 2^8 but under a later one: the points are relabelled
    so that at most n - 8 of them, numbered 8 and up, meet every falsifying
    extent. Position 0 changes between chunks here, so a run that kept its
    first-chunk values would call each formula valid."""
    rng = random.Random(44)
    chunks = []
    while len(chunks) < 12:
        n, mods = rng.randint(9, 11), rng.randint(1, 2)
        frame = random_frame_of(rng, n, mods)
        f = random_formula(rng, [rng.randint(0, 2)], mods, 6, weaken=False)
        fails = falsifying_extents(frame, f)
        if not fails:
            continue
        hitting = next(
            (
                h
                for r in range(1, n - 7)
                for h in itertools.combinations(range(n), r)
                if all(mask_of(h) & v for v in fails)
            ),
            None,
        )
        if hitting is None:
            continue
        order = [p for p in range(n) if p not in hitting] + list(hitting)
        label = {p: i for i, p in enumerate(order)}
        rels = [{(label[a], label[b]) for a, b in rel} for rel in frame.relations]
        moved = Frame(frame.alphabet, n, rels)
        first = falsifying_extents(moved, f)[0]
        assert first >= 1 << 8
        assert not validity_bruteforce(moved, f)
        assert not scalar_validity_bruteforce(moved, f)
        chunks.append(first >> 8)
    assert len(set(chunks)) > 2


def test_sliced_validity_with_slow_variables_matches_scalar_and_naive():
    """Two or three variables on at most 4 points: the slow variables stay
    scalar and are broadcast to the lanes at each chunk."""
    rng = random.Random(42)
    verdicts = set()
    for _ in range(150):
        n, mods, k = rng.randint(0, 4), rng.randint(1, 2), rng.randint(2, 3)
        indices = sorted(rng.sample(range(4), k))
        frame, f = random_frame_of(rng, n, mods), random_formula(rng, indices, mods, 7)
        verdict = validity_bruteforce(frame, f)
        assert verdict == scalar_validity_bruteforce(frame, f)
        if n <= 3 and k == 2:
            assert verdict == naive_validity(frame, f)
        verdicts.add(verdict)
    assert verdicts == {False, True}


def test_sliced_validity_fails_in_the_last_chunk_only():
    """On a frame where every point sees every point, [d0]p is true only
    when p holds everywhere, so these formulas fail under the very last
    valuation alone, and their weakenings are valid."""
    for n, indices in [(9, [0]), (11, [2]), (8, [0, 1]), (4, [0, 1, 2]), (3, [1, 3, 5])]:
        frame = uni(n, [(a, b) for a in range(n) for b in range(n)])
        boxes = [Dia(0, Var(i), boxed=True) for i in indices]
        f = Neg(boxes[0])
        for b in boxes[1:]:
            f = Imp(b, f)
        assert not validity_bruteforce(frame, f)
        assert not scalar_validity_bruteforce(frame, f)
        everywhere = Var(indices[0])
        for i in indices[1:]:
            everywhere = And(everywhere, Var(i))
        assert validity_bruteforce(frame, Or(f, everywhere))
        assert validity_bruteforce(frame, Imp(Dia(0, Falsum(), boxed=True), f))


def test_sliced_validity_resets_the_positions_below_a_carry():
    """<d0>p2 -> <d0>p1 fails on a frame where every point sees every point
    exactly when p1 is empty and p2 is not: first right after p2's first
    carry, which must reset p1 to empty as well as p0."""
    for n in (1, 2, 4):
        frame = uni(n, [(a, b) for a in range(n) for b in range(n)])
        f = Or(Imp(Dia(0, Var(2)), Dia(0, Var(1))), And(Var(0), Neg(Var(0))))
        assert not validity_bruteforce(frame, f)
        assert validity_bruteforce(frame, Or(f, Dia(0, Neg(Var(1)), boxed=True)))


@st.composite
def frames_and_odometer_formulas(draw, sizes, counts):
    """A frame of one of the sizes (1-2 modalities) and a formula over k
    variables, k from ``counts``: a subformula of the fastest variable
    alone joined to one over all k, so some instructions read position 0
    only. Weakened half the time to an excluded middle, which is valid, so
    the odometer runs to its end."""
    n = draw(st.sampled_from(sizes))
    mods = draw(st.integers(1, 2))
    points = st.integers(0, n - 1) if n else st.nothing()
    rels = [draw(st.sets(st.tuples(points, points), max_size=n * n)) for _ in range(mods)]
    k = draw(st.sampled_from(counts))
    indices = sorted(draw(st.lists(st.integers(0, 3), min_size=k, max_size=k, unique=True)))
    modality = st.integers(0, mods - 1)

    def tree(names):
        leaves = st.sampled_from(names).map(Var) | st.builds(Falsum)
        return st.recursive(
            leaves,
            lambda sub: st.builds(Neg, sub)
            | st.builds(Dia, modality, sub, boxed=st.booleans())
            | st.builds(lambda op, a, b: op(a, b), st.sampled_from([And, Or, Imp]), sub, sub),
            max_leaves=4,
        )

    fast, mixed = draw(tree(indices[:1])), draw(tree(indices))
    for i in indices:
        link = Dia(draw(modality), Var(i), boxed=draw(st.booleans()))
        mixed = draw(st.sampled_from([And, Or, Imp]))(mixed, link)
    f = draw(st.sampled_from([And, Or, Imp]))(Dia(draw(modality), fast), mixed)
    if draw(st.booleans()):
        f = Or(f, Neg(fresh_copy(f)))
    return Frame(default_alphabet(mods), n, rels), f


@settings(max_examples=100, deadline=None)
@given(frames_and_odometer_formulas(range(7), [2, 3]))
def test_validity_with_position_zero_in_the_lanes_matches_references(case):
    """n <= 8: position 0's digit lies wholly in the lanes, so its
    instructions run in the first chunk only. At most 2^12 valuations, so
    n <= 6 here; 8 points are counted in the test below."""
    frame, f = case
    k = len(variables(f))
    assume(frame.n * k <= 12)
    verdict = validity_bruteforce(frame, f)
    assert verdict == scalar_validity_bruteforce(frame, f)
    if frame.n * k <= 8:
        assert verdict == naive_validity(frame, f)


@settings(max_examples=12, deadline=None)
@given(frames_and_odometer_formulas([9, 10], [1, 2]))
def test_validity_with_position_zero_past_the_lanes_matches_references(case):
    """n > 8: position 0 carries from its lane bits into the counter, so
    its instructions re-run every chunk. Two variables on 9 points only:
    the scalar reference takes seconds over 2^20 valuations."""
    frame, f = case
    k = len(variables(f))
    assume(k == 1 or frame.n == 9)
    verdict = validity_bruteforce(frame, f)
    assert verdict == scalar_validity_bruteforce(frame, f)
    if k == 1:
        assert verdict == naive_validity(frame, f)


def test_validity_runs_a_position_zero_subformula_once_per_call(monkeypatch):
    """Count the instructions ``_evaluate`` runs: on n <= 8 points the
    subformula <d0><d0>p0 runs in the first chunk only, while the p1
    conjunct above it re-runs in every chunk; on 9 points p0 carries past
    the lanes, so both re-run."""
    runs = Counter()

    def counting(prog, *args):
        runs.update(ins[0] for ins in prog)
        return evaluate(prog, *args)

    evaluate = semantics._evaluate
    monkeypatch.setattr(semantics, "_evaluate", counting)
    fast = Dia(0, Dia(0, Var(0)))
    f = Imp(And(fast, Var(1)), Dia(0, Var(0)))  # transitivity under a p1 conjunct
    nodes = list(iter_nodes(f))
    slot = {id(g): i for i, g in enumerate(nodes)}
    for n, chunks in [(1, 2), (4, 16), (8, 256), (9, 2 ** 10)]:
        frame = uni(n, [(a, b) for a in range(n) for b in range(a + 1, n)])
        runs.clear()
        assert validity_bruteforce(frame, f)
        assert runs[slot[id(f)]] == runs[slot[id(f.left)]] == chunks
        assert runs[slot[id(fast)]] == runs[slot[id(fast.child)]] == (1 if n <= 8 else chunks)


def test_odometer_gives_each_position_its_digit_of_the_counter(monkeypatch):
    """The sliced extent each chunk reads: point a < c of position 0 holds
    in lane l iff bit a of l is set, and point a of position p otherwise
    in every lane iff bit p*n + a of the chunk's counter is set. A verdict
    cannot see this, since XOR updates that skip a reset or touch the lane
    points still meet every valuation, only in another order."""
    seen = []

    def recording(prog, pre, var_masks, full, vals):
        seen.append([vals[i] for i in occurrences])
        return evaluate(prog, pre, var_masks, full, vals)

    evaluate = semantics._evaluate
    monkeypatch.setattr(semantics, "_evaluate", recording)
    p, q = Var(0), Var(3)
    f = Imp(And(p, q), p)  # valid, so every chunk runs
    occurrences = [i for i, g in enumerate(iter_nodes(f)) if g is p or g is q]
    for n in (3, 9, 10):
        seen.clear()
        assert validity_bruteforce(uni(n, []), f)
        c, width = min(n, 8), 1 << min(n, 8)
        lane_points = [sum(1 << l for l in range(width) if l >> a & 1) for a in range(c)]
        for chunk, values in enumerate(seen):
            t = chunk * width
            want = []
            for pos in (0, 1):
                value = 0
                for a in range(n):
                    if pos == 0 and a < c:
                        lanes = lane_points[a]
                    else:
                        lanes = (1 << width) - 1 if t >> (pos * n + a) & 1 else 0
                    value |= lanes << a * width
                want.append(value)
            assert values == want
        assert len(seen) == 1 << (2 * n - c)


def closed_formula(rng, mods, size):
    """A formula without variables: falsum and verum under negations,
    boxes, diamonds and binary connectives."""
    if size <= 0:
        return Falsum() if rng.random() < 0.5 else Neg(Falsum())
    kind = rng.randrange(4)
    if kind == 0:
        return Neg(closed_formula(rng, mods, size - 1))
    if kind == 1:
        return Dia(rng.randrange(mods), closed_formula(rng, mods, size - 1), boxed=rng.random() < 0.5)
    left = rng.randint(0, size - 1)
    op = rng.choice([And, Or, Imp])
    return op(closed_formula(rng, mods, left), closed_formula(rng, mods, size - 1 - left))


def test_validity_without_variables_above_the_table_size_matches_scalar():
    """No variable on 9-12 points: one chunk of one lane, so sliced values
    are plain point masks and the diamonds go through the frame's
    ``_RowUnion``."""
    rng = random.Random(43)
    verdicts = set()
    for _ in range(120):
        n, mods = rng.randint(9, 12), rng.randint(1, 2)
        frame, f = random_frame_of(rng, n, mods), closed_formula(rng, mods, rng.randint(1, 8))
        if rng.random() < 0.3:
            f = Or(f, Neg(fresh_copy(f)))
        verdict = validity_bruteforce(frame, f)
        assert verdict == scalar_validity_bruteforce(frame, f)
        assert verdict == naive_validity(frame, f)
        verdicts.add(verdict)
    assert verdicts == {False, True}


def test_variable_free_validity_matches_extent_under_the_empty_valuation():
    """A formula without variables is one chunk of one lane: valid iff it is
    true at every point under the empty valuation, on 0 and 1 points and
    on either side of the 8 lane points."""
    rng = random.Random(46)
    verdicts = set()
    for n in (0, 1, 8, 9):
        for _ in range(60):
            mods = rng.randint(1, 2)
            frame, f = random_frame_of(rng, n, mods), closed_formula(rng, mods, rng.randint(0, 8))
            verdict = validity_bruteforce(frame, f)
            assert verdict == (extent(Model(frame, 0, ()), f) == frozenset(range(n)))
            verdicts.add(verdict)
    assert verdicts == {False, True}
    chain9 = uni(9, [(a, a + 1) for a in range(8)])
    for steps in (8, 9):
        f = Falsum()
        for _ in range(steps):
            f = Dia(0, f, boxed=True)
        assert validity_bruteforce(chain9, f) == (steps == 9)


def test_validity_on_frames_without_points():
    """Every formula is valid on the empty frame, with or without variables;
    the enumeration has the one valuation of empty extents."""
    rng = random.Random(44)
    for mods in (1, 2):
        frame = Frame(default_alphabet(mods), 0, [set()] * mods)
        for k in range(4):
            indices = sorted(rng.sample(range(4), k))
            for _ in range(10):
                if indices:
                    f = random_formula(rng, indices, mods, 5)
                else:
                    f = closed_formula(rng, mods, 5)
                assert validity_bruteforce(frame, f)
                assert scalar_validity_bruteforce(frame, f)
                assert naive_validity(frame, f)


def test_validity_fails_under_the_empty_valuation_only():
    """With a universal modality u, <u>p0 | <u>p1 is false exactly when p0
    and p1 are both empty, the very first valuation of the first chunk."""
    rng = random.Random(45)
    for n in (1, 2, 3, 5, 8, 9, 10):
        frame = expand(random_frame_of(rng, n, 1), "universal")
        u = len(frame.alphabet) - 1
        f = Or(Dia(u, Var(0)), Dia(u, Var(1)))
        nowhere = Dia(u, Or(Var(0), Var(1)), boxed=True)
        assert not validity_bruteforce(frame, f)
        assert not scalar_validity_bruteforce(frame, f)
        assert not validity_bruteforce(frame, Or(f, Dia(u, Falsum(), boxed=True)))
        if n <= 5:  # the weakening is valid, so it runs through every chunk
            assert validity_bruteforce(frame, Or(f, Neg(nowhere)))
            assert scalar_validity_bruteforce(frame, Or(f, Neg(nowhere)))
        if n <= 3:
            assert not naive_validity(frame, f)


def test_validity_on_two_modalities_with_one_used():
    """A two-modality frame whose formula reads one modality only: the
    other modality's mappings go unused."""
    rng = random.Random(46)
    verdicts = set()
    for _ in range(60):
        n, k = rng.randint(1, 10), rng.randint(1, 2)
        if n > 6:
            k = 1
        indices = sorted(rng.sample(range(3), k))
        frame = random_frame_of(rng, n, 2)
        used = rng.randrange(2)
        f = random_formula(rng, indices, 1, 5)
        if used:  # move every modality of the formula to d1
            f = parse(print_formula(f, default_alphabet(1)).replace("d0", "d1"), frame.alphabet)
        assert {g.mod for g in iter_nodes(f) if isinstance(g, Dia)} <= {used}
        verdict = validity_bruteforce(frame, f)
        assert verdict == scalar_validity_bruteforce(frame, f)
        if n <= 3:
            assert verdict == naive_validity(frame, f)
        verdicts.add(verdict)
    assert verdicts == {False, True}
