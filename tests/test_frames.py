import json
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from modalwb.frames import (
    POINT_LIMIT,
    Frame,
    PathBudgetExceeded,
    _closure,
    _cluster_masks,
    _rows_to_rel,
    cluster_frames,
    disjoint_sum,
    expand,
    from_dict,
    generated_upset,
    height,
    is_path_reducible,
    is_pmorphism,
    is_upset,
    lex_sum,
    mask_of,
    min_part,
    points_of,
    quotient_filtration,
    restriction,
    rt_closure,
    skeleton,
    to_dict,
    to_dot,
    transitivity_index,
    union_relation,
    union_rows,
)
from modalwb.partitions import Partition, induced_partition, refine_sequence, subalgebra_size
from modalwb.semantics import Model
from modalwb.syntax import Alphabet, default_alphabet

AL1 = default_alphabet(1)
AL2 = default_alphabet(2)


def uni(n, pairs):
    return Frame(AL1, n, [set(pairs)])


CHAIN3 = uni(3, [(0, 1), (1, 2)])
CYCLE2 = uni(2, [(0, 1), (1, 0)])
EMPTY = Frame(AL1, 0, [set()])


def random_frame(rng, n, mods=1, density=0.4):
    rels = [
        {(a, b) for a in range(n) for b in range(n) if rng.random() < density}
        for _ in range(mods)
    ]
    return Frame(default_alphabet(mods), n, rels)


def test_frame_validation():
    with pytest.raises(ValueError):
        Frame(AL1, 2, [{(0, 2)}])
    with pytest.raises(ValueError):
        Frame(AL2, 2, [set()])


def test_union_relation():
    f = Frame(AL2, 3, [{(0, 1)}, {(1, 2)}])
    assert union_relation(f) == {(0, 1), (1, 2)}
    assert union_relation(Frame(Alphabet(()), 2, [])) == frozenset()
    g = Frame(AL2, 2, [{(0, 0)}, {(1, 1)}])
    assert union_relation(g) == {(0, 0), (1, 1)}


def test_rt_closure():
    assert rt_closure({(0, 1), (1, 2)}, 3) == {
        (0, 0), (1, 1), (2, 2), (0, 1), (1, 2), (0, 2),
    }
    assert rt_closure(set(), 2) == {(0, 0), (1, 1)}
    assert rt_closure({(0, 1), (1, 0)}, 2) == {(0, 0), (0, 1), (1, 0), (1, 1)}


@pytest.mark.parametrize("pair", [(-1, 0), (0, 5), (5, 0)])
def test_rt_closure_rejects_pairs_outside_the_points(pair):
    with pytest.raises(ValueError, match=r"outside points 0\.\.1"):
        rt_closure({pair}, 2)


@pytest.mark.parametrize("pair", [(0.9, 1), ("0", True), (0, 1.0)])
def test_frame_rejects_pairs_that_are_not_ints(pair):
    # int() would read each of these as the pair (0, 1)
    with pytest.raises(TypeError):
        Frame(default_alphabet(1), 2, [{pair}])


def test_transitivity_index_examples():
    full2 = uni(2, [(0, 0), (0, 1), (1, 0), (1, 1)])
    assert transitivity_index(full2) == 1
    assert transitivity_index(CHAIN3) == 2
    assert transitivity_index(uni(2, [])) == 0
    assert transitivity_index(EMPTY) == 0


def test_transitivity_index_bounded_by_n():
    rng = random.Random(0)
    for _ in range(200):
        n = rng.randint(0, 5)
        f = random_frame(rng, n, mods=rng.randint(1, 2))
        assert transitivity_index(f) <= n


def test_transitivity_index_is_the_least_collapsing_step_count():
    """Against the definition: the least m with R^{<=m+1} = R^{<=m}, from
    the path-counting oracle, on sparse to dense frames with cycles."""
    rng = random.Random(21)
    for _ in range(150):
        n = rng.randint(0, 8)
        f = random_frame(rng, n, mods=rng.randint(1, 2), density=rng.choice([0.1, 0.2, 0.4, 0.7]))
        upto = [oracles.reach_upto(f, m) for m in range(n + 2)]
        assert transitivity_index(f) == next(m for m in range(n + 1) if upto[m + 1] == upto[m])


def test_transitivity_index_of_long_chains_and_cycles():
    n = POINT_LIMIT
    assert transitivity_index(uni(n, [(i, i + 1) for i in range(n - 1)])) == n - 1
    assert transitivity_index(uni(n, [(i, (i + 1) % n) for i in range(n)])) == n - 1
    # two chains, the longer one found from a later start point
    assert transitivity_index(uni(7, [(0, 1), (1, 2), (3, 4), (4, 5), (5, 6)])) == 3


def test_skeleton_examples():
    skel = skeleton(EMPTY)
    assert skel.clusters == () and skel.order == frozenset()

    skel = skeleton(CYCLE2)
    assert skel.clusters == (frozenset({0, 1}),)
    assert skel.order == frozenset()

    skel = skeleton(uni(1, []))
    assert skel.clusters == (frozenset({0}),)
    assert skel.order == frozenset()

    skel = skeleton(CHAIN3)
    assert skel.clusters == (frozenset({0}), frozenset({1}), frozenset({2}))
    assert skel.order == {(0, 1), (1, 2), (0, 2)}


def test_skeleton_order_strict_and_transitive():
    rng = random.Random(1)
    for _ in range(100):
        f = random_frame(rng, rng.randint(1, 6), mods=rng.randint(1, 2))
        skel = skeleton(f)
        for i, j in skel.order:
            assert i != j
            for j2, k in skel.order:
                if j2 == j:
                    assert (i, k) in skel.order


def test_height_examples():
    assert height(EMPTY) == 0
    assert height(CYCLE2) == 1
    assert height(uni(3, [(a, b) for a in range(3) for b in range(3)])) == 1
    assert height(CHAIN3) == 3


def test_path_reducible_examples():
    universal = uni(3, [(a, b) for a in range(3) for b in range(3)])
    assert is_path_reducible(universal, 1)
    assert not is_path_reducible(CHAIN3, 1)
    assert is_path_reducible(CHAIN3, 2)


def test_path_reducible_budget():
    big = uni(6, [(a, b) for a in range(6) for b in range(6) if a != b])
    with pytest.raises(PathBudgetExceeded):
        is_path_reducible(big, 4, budget=10)


def test_path_reducible_implies_pretransitive():
    rng = random.Random(2)
    for _ in range(500):
        f = random_frame(rng, rng.randint(1, 5), mods=rng.randint(1, 2))
        m = rng.randint(0, 3)
        if is_path_reducible(f, m):
            assert transitivity_index(f) <= m


def test_path_reducible_matches_walk_enumeration():
    rng = random.Random(5)
    for _ in range(400):
        f = random_frame(rng, rng.randint(0, 6), mods=rng.randint(1, 2), density=rng.random())
        m = rng.randint(0, 3)
        assert is_path_reducible(f, m) == oracles.path_reducible(f, m), (to_dict(f), m)


def test_path_reducible_long_chain_beyond_recursion_limit():
    # each point sees its successor; the longest path has n-1 steps
    n = 1100
    chain = uni(n, [(a, a + 1) for a in range(n - 1)])
    assert is_path_reducible(chain, n - 1)
    assert not is_path_reducible(chain, n - 2)


def test_path_reducible_without_enumeration_when_a_point_must_repeat():
    # a path of m+1 steps visits m+2 points, so m >= n-1 needs no search
    chain = uni(2048, [(a, a + 1) for a in range(2047)])
    assert is_path_reducible(chain, 2047, budget=0)
    assert is_path_reducible(EMPTY, 0, budget=0)
    rng = random.Random(15)
    for _ in range(200):
        n = rng.randint(0, 4)
        f = random_frame(rng, n, mods=rng.randint(1, 2), density=rng.random())
        m = rng.randint(max(n - 1, 0), n + 1)
        assert is_path_reducible(f, m) == oracles.path_reducible(f, m), (to_dict(f), m)


def test_restriction_examples():
    sub = restriction(CHAIN3, {1, 2})
    assert sub.n == 2 and sub.relations[0] == {(0, 1)}
    with pytest.raises(ValueError):
        restriction(CHAIN3, {5})


def test_upsets():
    assert is_upset(CHAIN3, {2})
    assert not is_upset(CHAIN3, {0})
    assert is_upset(CHAIN3, set())
    assert generated_upset(CHAIN3, {0}) == {0, 1, 2}
    assert generated_upset(CHAIN3, {1}) == {1, 2}


@pytest.mark.parametrize("bad", [-1, 3])
def test_is_upset_names_a_point_out_of_range(bad):
    with pytest.raises(ValueError, match=rf"^point {bad} out of range$"):
        is_upset(CHAIN3, {1, bad})


@pytest.mark.parametrize("bad", [-1, 3])
def test_generated_upset_names_a_point_out_of_range(bad):
    with pytest.raises(ValueError, match=rf"^point {bad} out of range$"):
        generated_upset(CHAIN3, {1, bad})


@pytest.mark.parametrize("bad", [-1, 3])
def test_preimage_names_a_point_out_of_range(bad):
    with pytest.raises(ValueError, match=rf"^point {bad} out of range$"):
        CHAIN3.preimage(0, {1, bad})


def test_cluster_frames():
    two_parts = uni(3, [(0, 1), (1, 0)])  # 2-cycle plus isolated point
    parts = cluster_frames(two_parts)
    assert [p.n for p in parts] == [2, 1]
    assert parts[0].relations[0] == {(0, 1), (1, 0)}
    assert parts[1].relations[0] == frozenset()


def test_min_part():
    assert min_part(CHAIN3) == {0}
    assert min_part(CYCLE2) == {0, 1}
    fork = uni(4, [(0, 2), (1, 2), (2, 3)])
    assert min_part(fork) == {0, 1}


def test_cluster_restriction_preserves_transitivity_index():
    # clusters are convex for reachability, so cutting one out never
    # lengthens shortest witnessing paths
    rng = random.Random(11)
    for _ in range(150):
        f = random_frame(rng, rng.randint(1, 6), mods=rng.randint(1, 2))
        m = transitivity_index(f)
        for c in cluster_frames(f):
            assert transitivity_index(c) <= m


def test_disjoint_sum():
    s = disjoint_sum([uni(1, []), uni(1, [])])
    assert s.n == 2 and s.relations[0] == frozenset()
    empty = disjoint_sum([])
    assert empty.n == 0 and len(empty.alphabet) == 0
    rng = random.Random(3)
    sizes = [rng.randint(0, 3) for _ in range(4)]
    parts = [random_frame(rng, n) for n in sizes]
    assert disjoint_sum(parts).n == sum(sizes)
    with pytest.raises(ValueError, match="alphabet"):
        disjoint_sum([uni(1, []), Frame(AL2, 1, [set(), set()])])


def test_height_laws():
    rng = random.Random(4)
    for _ in range(100):
        f = random_frame(rng, rng.randint(1, 6))
        up = generated_upset(f, [p for p in range(f.n) if rng.random() < 0.5])
        assert height(restriction(f, up)) <= height(f)
        g = random_frame(rng, rng.randint(0, 5))
        assert height(disjoint_sum([f, g])) == max(height(f), height(g))


def test_lex_sum_single_reflexive_index():
    index = Frame(Alphabet(("v",)), 1, [{(0, 0)}])
    fiber = Frame(Alphabet(("h",)), 3, [{(0, 1), (1, 2)}])
    s = lex_sum(index, [fiber])
    assert s.alphabet.names == ("v", "h")
    assert s.relations[0] == {(a, b) for a in range(3) for b in range(3)}
    assert s.relations[1] == {(0, 1), (1, 2)}


def test_lex_sum_no_vertical_edges():
    index = Frame(Alphabet(("v",)), 2, [set()])
    fibers = [Frame(Alphabet(("h",)), 1, [{(0, 0)}]) for _ in range(2)]
    s = lex_sum(index, fibers)
    assert s.relations[0] == frozenset()
    assert s.relations[1] == {(0, 0), (1, 1)}


def test_lex_sum_rejects_mismatch():
    index = Frame(Alphabet(("v",)), 2, [set()])
    with pytest.raises(ValueError, match="one fiber"):
        lex_sum(index, [Frame(Alphabet(("h",)), 1, [set()])])
    with pytest.raises(ValueError, match="overlap"):
        lex_sum(
            Frame(Alphabet(("x",)), 1, [set()]),
            [Frame(Alphabet(("x",)), 1, [set()])],
        )


def test_lex_sum_rejects_fibers_over_different_alphabets():
    index = Frame(Alphabet(("v",)), 2, [set()])
    fibers = [Frame(Alphabet(("h",)), 1, [set()]), Frame(Alphabet(("g",)), 1, [set()])]
    with pytest.raises(ValueError, match="alphabet mismatch in disjoint sum"):
        lex_sum(index, fibers)
    with pytest.raises(ValueError, match="alphabet mismatch in disjoint sum"):
        lex_sum(index, fibers, fiber_alphabet=Alphabet(("g",)))


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda: is_pmorphism(CHAIN3, CHAIN3, [0, 1]), "mapping must be total"),
        (
            lambda: is_pmorphism(CHAIN3, Frame(AL2, 3, [set(), set()]), [0, 1, 2]),
            "alphabet mismatch",
        ),
        (lambda: is_pmorphism(CHAIN3, CHAIN3, [0, 1, 3]), "mapping target out of range"),
        (lambda: expand(CHAIN3, "bogus"), "unknown expansion kind 'bogus'"),
        (lambda: is_path_reducible(CHAIN3, -1), "m must be non-negative"),
    ],
    ids=["short-mapping", "other-alphabet", "target-out-of-range", "bogus-kind", "negative-m"],
)
def test_frame_operations_reject_bad_arguments(call, message):
    with pytest.raises(ValueError, match=message):
        call()


def test_expand():
    g = expand(uni(3, []), "difference")
    assert len(g.relations[1]) == 6
    e = expand(EMPTY, "universal")
    assert e.n == 0 and e.relations[1] == frozenset()
    with pytest.raises(ValueError, match="already"):
        expand(uni(1, []), "universal", name="d0")


@pytest.mark.parametrize("kind", ["universal", "difference"])
def test_expand_takes_an_empty_name_as_a_name(kind):
    # "" used to fall back to the default name, like None
    with pytest.raises(ValueError, match=r"^invalid modality name ''$"):
        expand(uni(1, []), kind, name="")


def test_every_partition_tuned_for_universal_and_difference():
    from modalwb.partitions import is_tuned

    rng = random.Random(5)
    for _ in range(60):
        n = rng.randint(1, 5)
        f = random_frame(rng, n)
        g = expand(expand(f, "universal"), "difference")
        from modalwb import audit

        part = audit.random_partition(rng, n)
        assert is_tuned(g, part, modalities=[1])
        assert is_tuned(g, part, modalities=[2])


def test_quotient_filtration_examples():
    quot, proj = quotient_filtration(CYCLE2, [{0, 1}])
    assert quot.n == 1 and quot.relations[0] == {(0, 0)}
    assert proj == (0, 0)

    quot, proj = quotient_filtration(CHAIN3, [{0}, {1}, {2}])
    assert quot == CHAIN3 and proj == (0, 1, 2)

    with pytest.raises(ValueError):
        quotient_filtration(CHAIN3, [{0, 1}])


def test_quotient_projection_pmorphism_iff_tuned():
    from modalwb import audit
    from modalwb.partitions import is_tuned

    rng = random.Random(6)
    for _ in range(200):
        f = random_frame(rng, rng.randint(1, 5), mods=rng.randint(1, 2))
        part = audit.random_partition(rng, f.n)
        quot, proj = quotient_filtration(f, part)
        assert is_pmorphism(f, quot, proj) == is_tuned(f, part)


def test_is_pmorphism_examples():
    assert is_pmorphism(CHAIN3, CHAIN3, (0, 1, 2))
    loop = uni(1, [(0, 0)])
    assert is_pmorphism(CYCLE2, loop, (0, 0))
    two_chain = uni(2, [(0, 1)])
    assert not is_pmorphism(two_chain, loop, (0, 0))


@pytest.mark.parametrize("target", [True, 1.0, "1"])
def test_is_pmorphism_rejects_targets_that_are_not_ints(target):
    # True used to read as point 1, and 1.0 ended in a raw shift error
    with pytest.raises(TypeError, match=rf"^mapping target must be an int, got {target!r}$"):
        is_pmorphism(CHAIN3, uni(2, [(0, 1)]), [0, target, target])


@pytest.mark.parametrize("build", [Frame, Frame.from_rows])
def test_frames_check_the_point_count_before_the_relations(build):
    # a float count used to reach the rows as a list length
    with pytest.raises(TypeError, match=r"^point count must be an int, got 2\.0$"):
        build(AL1, 2.0, [[]])


def test_json_round_trip():
    f = Frame(AL2, 3, [{(0, 1), (1, 2)}, set()])
    d = to_dict(f)
    assert d == {
        "alphabet": ["d0", "d1"],
        "points": 3,
        "rel": {"d0": [[0, 1], [1, 2]], "d1": []},
    }
    assert from_dict(json.loads(json.dumps(d))) == f
    with pytest.raises(ValueError):
        from_dict({"alphabet": ["d0"], "points": 1})


def test_dot_export():
    dot = to_dot(Frame(AL2, 3, [{(0, 1)}, {(1, 2)}]))
    assert dot.startswith("digraph")
    assert "subgraph cluster_0" in dot
    assert 'n0 -> n1 [color=black, label="d0"];' in dot
    assert 'n1 -> n2 [color=red3, label="d1"];' in dot
    assert to_dot(EMPTY).startswith("digraph")


def test_from_rows_validation():
    f = Frame.from_rows(AL1, 3, [[0b010, 0b100, 0]])
    assert f == CHAIN3 and hash(f) == hash(CHAIN3)
    assert f.relations == CHAIN3.relations
    for rows in ([[0b100, 0]], [[-1, 0]], [[0]]):
        with pytest.raises(ValueError, match="bitmasks"):
            Frame.from_rows(AL1, 2, rows)
    with pytest.raises(ValueError, match="modalities"):
        Frame.from_rows(AL2, 1, [[0]])
    with pytest.raises(ValueError, match="non-negative"):
        Frame.from_rows(AL1, -1, [[]])


@pytest.mark.parametrize("entry", [True, False, 0.5, 2.0, "1", None], ids=repr)
def test_from_rows_takes_each_row_entry_as_an_int(entry):
    # a bool used to be stored as a row mask, and 0.5, "1" or None ended in
    # a raw shift or comparison error
    with pytest.raises(TypeError, match=rf"^row must be an int, got {entry!r}$"):
        Frame.from_rows(AL1, 2, [[entry, 0]])


def test_from_rows_stores_plain_int_masks():
    class Mask(int):
        pass

    f = Frame.from_rows(AL1, 2, [[Mask(2), Mask(0)]])
    assert f.rows(0) == (2, 0) and all(type(m) is int for m in f.rows(0))


def test_height_descending_chain_beyond_recursion_limit():
    # each point sees its predecessor; longer than the default recursion limit
    n = 1100
    assert height(uni(n, [(a + 1, a) for a in range(n - 1)])) == n


@pytest.mark.parametrize(
    "data,match",
    [
        ([], "malformed"),
        ({"alphabet": "d0", "points": 1, "rel": {"d0": []}}, "alphabet"),
        ({"alphabet": [0], "points": 1, "rel": {"0": []}}, "alphabet"),
        ({"alphabet": ["d0"], "points": True, "rel": {"d0": []}}, "points"),
        ({"alphabet": ["d0"], "points": "2", "rel": {"d0": []}}, "points"),
        ({"alphabet": ["d0"], "points": 2.0, "rel": {"d0": []}}, "points"),
        ({"alphabet": ["d0"], "points": 2, "rel": [[0, 1]]}, "exactly"),
        ({"alphabet": ["d0"], "points": 2, "rel": {}}, "exactly"),
        ({"alphabet": ["d0"], "points": 2, "rel": {"d0": [], "d9": [[5, 5]]}}, "exactly"),
        ({"alphabet": ["d0"], "points": 2, "rel": {"d0": [[0, 1, 1]]}}, "pairs"),
        ({"alphabet": ["d0"], "points": 2, "rel": {"d0": [[0]]}}, "pairs"),
        ({"alphabet": ["d0"], "points": 2, "rel": {"d0": [[0, "1"]]}}, "pairs"),
        ({"alphabet": ["d0"], "points": 2, "rel": {"d0": [[0, True]]}}, "pairs"),
        ({"alphabet": ["d0"], "points": 2, "rel": {"d0": [0, 1]}}, "pairs"),
        ({"alphabet": ["d0"], "points": 2, "rel": {"d0": {"0": 1}}}, "pairs"),
        ({"alphabet": ["d0"], "points": 2, "rel": {"d0": [[0, 2]]}}, "outside"),
    ],
)
def test_from_dict_rejects_malformed(data, match):
    with pytest.raises(ValueError, match=match):
        from_dict(data)


def test_from_dict_caps_points():
    data = {"alphabet": ["d0"], "points": POINT_LIMIT, "rel": {"d0": []}}
    assert from_dict(data).n == POINT_LIMIT
    with pytest.raises(ValueError, match=f"at most {POINT_LIMIT}"):
        from_dict(dict(data, points=POINT_LIMIT + 1))


def two_pass_from_dict(data):
    """``from_dict`` in two passes, the reference for the one-pass version:
    every pair's type is checked here, and ``Frame`` checks the names, the
    point count and the range of every pair again."""
    try:
        names, n, rel = data["alphabet"], data["points"], data["rel"]
    except (KeyError, TypeError) as exc:
        raise ValueError(f"malformed frame object: {exc}") from None
    if not isinstance(names, list) or not all(isinstance(nm, str) for nm in names):
        raise ValueError("alphabet must be a list of modality names")
    if not isinstance(n, int) or isinstance(n, bool):
        raise ValueError(f"points must be an integer, got {n!r}")
    if n > POINT_LIMIT:
        raise ValueError(f"points must be at most {POINT_LIMIT}, got {n}")
    if not isinstance(rel, dict) or set(rel) != set(names):
        raise ValueError(f"rel must map exactly the modalities {names} to pair lists")
    for nm in names:
        pairs = rel[nm]
        if not isinstance(pairs, list) or not all(
            isinstance(p, list) and len(p) == 2
            and all(isinstance(x, int) and not isinstance(x, bool) for x in p)
            for p in pairs
        ):
            raise ValueError(f"relation {nm!r} must be a list of [int, int] pairs")
    return Frame(Alphabet(tuple(names)), n, [rel[nm] for nm in names])


@st.composite
def frame_objects(draw):
    """Frame objects that reach every check of ``from_dict``, often several
    at once: bad names, point counts and keys, pairs of the wrong shape or
    type, and pairs outside the points."""
    def rarely(strategy, otherwise):
        return draw(strategy) if draw(st.integers(0, 9)) == 0 else otherwise

    names = draw(st.lists(st.sampled_from(["d0", "d1", "d2"]), max_size=3, unique=True))
    names += rarely(st.sampled_from([[""], ["0d"], [0], names[:1]]), [])
    n = rarely(st.sampled_from([True, 2.0, POINT_LIMIT + 1]), draw(st.integers(-1, 4)))
    top = n if isinstance(n, int) and 0 < n <= 4 else 3

    def point():
        return rarely(st.sampled_from([-1, top, 5]), draw(st.integers(0, top - 1)))

    def pair():
        bad = st.sampled_from([[0], [0, 1, 1], [0, True], [0, "1"], [0.0, 1], (0, 1), 0])
        return rarely(bad, [point(), point()])

    def relation():
        return rarely(st.sampled_from([{"0": 1}, (), None]), [pair() for _ in range(draw(st.integers(0, 5)))])

    rel = {nm: relation() for nm in names}
    rel.update(rarely(st.just({"d9": []}), {}))
    return {"alphabet": names, "points": n, "rel": rel}


@settings(max_examples=400, deadline=None)
@given(frame_objects())
def test_from_dict_matches_two_pass_reading(data):
    def outcome(read):
        try:
            return read(data)
        except ValueError as exc:
            return str(exc)

    assert outcome(from_dict) == outcome(two_pass_from_dict)


@st.composite
def small_frames(draw, alphabet=AL1, max_n=4):
    n = draw(st.integers(0, max_n))
    pairs = st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)) if n else st.nothing()
    rels = [draw(st.sets(pairs, max_size=n * n)) for _ in alphabet.names]
    return Frame(alphabet, n, rels)


@settings(max_examples=200, deadline=None)
@given(small_frames(AL2, max_n=6))
def test_min_part_matches_skeleton_order(frame):
    skel = skeleton(frame)
    below = {j for (_, j) in skel.order}
    minimal = [c for i, c in enumerate(skel.clusters) if i not in below]
    assert min_part(frame) == frozenset().union(*minimal)


def skeleton_dot(frame):
    """``to_dot`` text with the clusters taken from ``skeleton``."""
    lines = ["digraph frame {"]
    for ci, cluster in enumerate(skeleton(frame).clusters):
        lines += [f"  subgraph cluster_{ci} {{", "    style=rounded;"]
        lines += [f'    n{p} [label="{p}"];' for p in sorted(cluster)]
        lines.append("  }")
    colors = ("black", "red3", "blue3", "green4", "orange3", "purple3")
    for mi, nm in enumerate(frame.alphabet.names):
        for a, b in sorted(frame.relations[mi]):
            lines.append(f'  n{a} -> n{b} [color={colors[mi % 6]}, label="{nm}"];')
    return "\n".join(lines + ["}"]) + "\n"


@settings(max_examples=200, deadline=None)
@given(small_frames(AL2, max_n=6))
def test_clusters_from_closure_rows_match_skeleton(frame):
    assert to_dot(frame) == skeleton_dot(frame)
    assert cluster_frames(frame) == [restriction(frame, c) for c in skeleton(frame).clusters]


def assert_same_frame(built, reference):
    assert built == reference and hash(built) == hash(reference)
    assert built.relations == reference.relations


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_rows_constructions_match_pair_references(data):
    f = data.draw(small_frames(AL2))
    assert_same_frame(Frame(f.alphabet, f.n, f.relations), f)
    pts = data.draw(st.sets(st.integers(0, f.n - 1))) if f.n else set()
    assert_same_frame(restriction(f, pts), oracles.restriction_pairs(f, pts))
    g = data.draw(small_frames(AL2))
    assert_same_frame(disjoint_sum([f, g]), oracles.disjoint_sum_pairs([f, g], AL2))
    for kind, name in (("universal", "u"), ("difference", "neq")):
        assert_same_frame(expand(f, kind), oracles.expand_pairs(f, kind, name))
    labels = [data.draw(st.integers(0, p)) for p in range(f.n)]
    blocks = [{p for p in range(f.n) if labels[p] == l} for l in set(labels)]
    quot, proj = quotient_filtration(f, blocks)
    ref_quot, ref_proj = oracles.quotient_filtration_pairs(f, blocks)
    assert_same_frame(quot, ref_quot)
    assert proj == ref_proj
    v, h = Alphabet(("v",)), Alphabet(("h",))
    index = data.draw(small_frames(v, max_n=3))
    fibers = [data.draw(small_frames(h, max_n=2)) for _ in range(index.n)]
    assert_same_frame(
        lex_sum(index, fibers, fiber_alphabet=h), oracles.lex_sum_pairs(index, fibers, h)
    )


@settings(max_examples=300, deadline=None)
@given(small_frames(AL2, max_n=12))
def test_height_matches_pair_chain_reference(f):
    assert height(f) == oracles.longest_cluster_chain(f)


@st.composite
def row_frames(draw, mods=None, max_n=70):
    # up to 70 points, so row and argument masks cross 64 bits
    mods = draw(st.integers(1, 3)) if mods is None else mods
    n = draw(st.integers(0, max_n))
    rows = st.lists(st.integers(0, (1 << n) - 1), min_size=n, max_size=n)
    return Frame.from_rows(default_alphabet(mods), n, [draw(rows) for _ in range(mods)])


@settings(max_examples=200, deadline=None)
@given(row_frames())
def test_closure_rows_match_warshall(f):
    rows = union_rows(f)
    assert _closure(rows)[0] == oracles.warshall_closure_rows(rows, reflexive=True)


@settings(max_examples=100, deadline=None)
@given(row_frames(max_n=16))
def test_closure_rows_match_path_reference(f):
    # reach_upto joins pair sets, so it is kept to 16 points
    assert _rows_to_rel(_closure(union_rows(f))[0]) == oracles.reach_upto(f, f.n)


def joined_cycles(n, k):
    """Cycles of k points on 0..n-1 (the last one shorter when k does not
    divide n), each cycle's last point seeing the next cycle's first: a
    chain when k = 1, one cycle when k = n."""
    rows = [0] * n
    for a in range(n):
        if a + 1 < n:
            rows[a] |= 1 << a + 1
        if k > 1 and (a % k == k - 1 or a == n - 1):
            rows[a] |= 1 << a - a % k
    return rows


@pytest.mark.parametrize("k", [1, 2, 7, POINT_LIMIT])
def test_closure_of_joined_cycles_at_the_point_limit(k):
    # one search as deep as the frame, without recursion
    n = POINT_LIMIT
    closure, h = _closure(joined_cycles(n, k))
    full = (1 << n) - 1
    assert closure == [full ^ ((1 << a - a % k) - 1) for a in range(n)]
    assert h == -(-n // k)
    f = Frame.from_rows(AL1, n, [joined_cycles(n, k)])
    assert height(f) == h and len(_cluster_masks(f)) == h


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_preimage_mask_matches_pair_reference(data):
    f = data.draw(row_frames())
    built = data.draw(st.sampled_from(["from_rows", "restriction", "disjoint_sum"]))
    if built == "restriction" and f.n:
        f = restriction(f, data.draw(st.sets(st.integers(0, f.n - 1))))
    elif built == "disjoint_sum":
        f = disjoint_sum([f, data.draw(row_frames(len(f.alphabet), max_n=40))])
    dense = st.integers(0, (1 << f.n) - 1)
    sparse = st.sets(st.integers(0, f.n - 1), max_size=3).map(mask_of) if f.n else dense
    for mod in range(len(f.alphabet)):
        for v in data.draw(st.lists(dense | sparse, max_size=4)) + [0, (1 << f.n) - 1]:
            expected = oracles.naive_preimage(f.relations[mod], points_of(v))
            assert points_of(f.preimage_mask(mod, v)) == expected
            assert f.preimage(mod, points_of(v)) == expected


def test_preimage_rejects_points_out_of_range():
    assert CHAIN3.preimage(0, {2}) == {1}
    with pytest.raises(ValueError, match="out of range"):
        CHAIN3.preimage(0, {3})


@pytest.mark.parametrize("mod", [-1, 1, 5])
def test_preimages_reject_modality_ids_outside_the_alphabet(mod):
    # a negative id must not alias the last modality, nor a large one end in
    # an IndexError
    for call in (
        lambda: CHAIN3.preimages(mod),
        lambda: CHAIN3.preimage_mask(mod, 0b010),
        lambda: CHAIN3.preimage(mod, {1}),
    ):
        with pytest.raises(ValueError, match=f"modality id {mod} outside alphabet of size 1"):
            call()


@pytest.mark.parametrize("mod", [-1, 5])
def test_rows_reject_modality_ids_outside_the_alphabet(mod):
    # -1 must not return modality 0's rows, nor 5 end in an IndexError
    assert CHAIN3.rows(0) == (0b010, 0b100, 0)
    with pytest.raises(ValueError, match=f"modality id {mod} outside alphabet of size 1"):
        CHAIN3.rows(mod)


@pytest.mark.parametrize("mod", [True, 1.0], ids=["bool", "float"])
def test_rows_reject_modality_ids_that_are_not_ints(mod):
    # True would return modality 1's rows
    frame = Frame(AL2, 2, [{(0, 1)}, {(1, 0)}])
    with pytest.raises(TypeError, match=rf"^modality id must be an int, got {mod!r}$"):
        frame.rows(mod)


# every public way in for points from outside, each given the one bad point
POINT_ENTRIES = {
    "frame pair": lambda p: Frame(AL1, 2, [{(0, p)}]),
    "partition": lambda p: Partition.of(2, [{p}, {0}]),
    "induced_partition": lambda p: induced_partition(3, [{p}]),
    "refine_sequence": lambda p: refine_sequence(CHAIN3, [{p}]),
    "subalgebra_size": lambda p: subalgebra_size(CHAIN3, [{p}]),
    "model extent": lambda p: Model(CHAIN3, 1, [{p}]),
    "restriction": lambda p: restriction(CHAIN3, [p, 0]),
    "is_upset": lambda p: is_upset(CHAIN3, {p}),
    "generated_upset": lambda p: generated_upset(CHAIN3, {p}),
    "preimage": lambda p: CHAIN3.preimage(0, {p}),
}


@pytest.mark.parametrize("point", [True, 1.0], ids=["bool", "float"])
@pytest.mark.parametrize("entry", list(POINT_ENTRIES))
def test_points_from_outside_must_be_ints(entry, point):
    # True would be read as point 1, and 1.0 either as point 1 or as a raw
    # shift or index error
    with pytest.raises(TypeError, match=rf"^point must be an int, got {point!r}$"):
        POINT_ENTRIES[entry](point)


@pytest.mark.parametrize(
    "budget, error", [(None, TypeError), (1.5, TypeError), ("10", TypeError), (-1, ValueError)]
)
def test_path_reducibility_rejects_a_bad_budget(budget, error):
    # m = 2 needs no path search on 3 points, so the budget was never read
    with pytest.raises(error):
        is_path_reducible(CHAIN3, 2, budget=budget)


def test_path_reducibility_rejects_a_fractional_m():
    # 1.5 + 2 > 3 would answer True without looking at a path
    with pytest.raises(TypeError):
        is_path_reducible(CHAIN3, 1.5)
    assert is_path_reducible(CHAIN3, 1) is False


def assert_preimages_match_pairs(f, masks):
    for mod in range(len(f.alphabet)):
        pre = f.preimages(mod)
        for v in masks:
            assert points_of(pre[v]) == oracles.naive_preimage(f.relations[mod], points_of(v))


@pytest.mark.parametrize("n", [0, 1, 7, 8, 9])
def test_preimages_match_pair_reference_around_the_table_size(n):
    rng = random.Random(n)
    for mods in (1, 2):
        f = random_frame(rng, n, mods)
        assert_preimages_match_pairs(f, range(1 << n))
        for mod in range(mods):
            pre = f.preimages(mod)
            assert f.preimages(mod) is pre  # kept on the frame


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_preimages_of_disjoint_sums_match_pair_reference(data):
    # up to ten parts of at most 8 points each, in sums of up to 80 points
    parts = data.draw(st.lists(row_frames(mods=2, max_n=8), max_size=10))
    f = disjoint_sum(parts, AL2)
    full = (1 << f.n) - 1
    masks = data.draw(st.lists(st.integers(0, full), max_size=6)) + [0, full]
    assert_preimages_match_pairs(f, masks)
    for part in parts:
        assert_preimages_match_pairs(part, range(1 << part.n))


@pytest.mark.parametrize("n", [8, 9])
def test_preimage_rejects_points_out_of_range_on_both_sides_of_the_table_size(n):
    f = uni(n, [(a, a + 1) for a in range(n - 1)])
    assert f.preimage(0, {n - 1}) == {n - 2}
    with pytest.raises(ValueError, match="out of range"):
        f.preimage(0, {n})


def upset_by_pairs(f, pts):
    """The least superset of ``pts`` that every relation's pairs leave
    closed, grown one step at a time."""
    up = set(pts)
    while True:
        more = {b for rel in f.relations for a, b in rel if a in up} - up
        if not more:
            return up
        up |= more


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_is_upset_matches_pair_reference(data):
    f = data.draw(small_frames(default_alphabet(data.draw(st.integers(1, 3))), max_n=9))
    pts = data.draw(st.sets(st.integers(0, f.n - 1))) if f.n else set()
    closed = all(b in pts for rel in f.relations for a, b in rel if a in pts)
    assert is_upset(f, pts) == closed
    up = upset_by_pairs(f, pts)
    assert is_upset(f, up)
    assert generated_upset(f, pts) == up


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_lex_sum_matches_pair_reference_with_several_modalities(data):
    v = Alphabet(tuple(f"v{i}" for i in range(data.draw(st.integers(1, 2)))))
    h = Alphabet(tuple(f"h{i}" for i in range(data.draw(st.integers(1, 2)))))
    index = data.draw(small_frames(v, max_n=3))
    fibers = [data.draw(small_frames(h, max_n=3)) for _ in range(index.n)]
    assert_same_frame(
        lex_sum(index, fibers, fiber_alphabet=h), oracles.lex_sum_pairs(index, fibers, h)
    )
