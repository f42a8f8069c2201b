"""Degenerate shapes: zero-modality alphabets, empty frames and fibers,
singleton models, and a direct cross-check of the validity loop."""

import itertools
import random

import pytest

from modalwb import audit
from modalwb.definability import stable_top, verify_definability
from modalwb.frames import Frame, height, lex_sum, skeleton, transitivity_index
from modalwb.partitions import (
    Partition,
    coarsest_tuned_refinement,
    frame_modal_depth,
    is_tuned,
    refine_sequence,
)
from modalwb.semantics import Model, extent, model_depth, validity_bruteforce
from modalwb.syntax import (
    Alphabet,
    And,
    Dia,
    Falsum,
    Imp,
    Neg,
    Or,
    Var,
    default_alphabet,
    parse,
    print_formula,
)

import oracles

NO_MODS = Alphabet(())


def one_block(n):
    return Partition.of(n, [range(n)] if n else [])


def test_zero_modality_frame_pipeline():
    frame = Frame(NO_MODS, 3, [])
    assert transitivity_index(frame) == 0
    assert height(frame) == 1  # three incomparable singleton clusters
    assert len(skeleton(frame).clusters) == 3
    assert frame_modal_depth(frame) == 0
    assert is_tuned(frame, one_block(3))
    _, stab = refine_sequence(frame, [{0}])
    assert stab == 0


def test_zero_modality_model_and_definability():
    frame = Frame(NO_MODS, 3, [])
    model = Model(frame, 1, (frozenset({0, 2}),))
    assert extent(model, Var(0)) == {0, 2}
    assert model_depth(model)[0] == 0
    report = verify_definability(model, frozenset({0, 1, 2}))
    assert report.ok(), report
    z, cap, top_report = stable_top(model, frozenset({0, 1, 2}))
    assert z == frozenset({0, 1, 2})
    assert top_report.ok(), top_report


def test_zero_modality_validity():
    frame = Frame(NO_MODS, 2, [])
    assert validity_bruteforce(frame, Or(Var(0), Neg(Var(0))))
    assert not validity_bruteforce(frame, Var(0))


def test_singleton_irreflexive_model():
    frame = Frame(default_alphabet(1), 1, [set()])
    model = Model(frame, 0, ())
    assert model_depth(model)[0] == 0
    report = verify_definability(model, frozenset({0}))
    assert report.ok(), report


def test_lex_sum_empty_index_frame():
    index = Frame(Alphabet(("v",)), 0, [set()])
    total = lex_sum(index, [], fiber_alphabet=Alphabet(("h",)))
    assert total.n == 0
    assert total.alphabet.names == ("v", "h")
    with pytest.raises(ValueError, match="fiber alphabet"):
        lex_sum(index, [])


def test_lex_sum_with_empty_fibers():
    index = Frame(Alphabet(("v",)), 2, [{(0, 1)}])
    fibers = [
        Frame(Alphabet(("h",)), 0, [set()]),
        Frame(Alphabet(("h",)), 2, [{(0, 1)}]),
    ]
    total = lex_sum(index, fibers)
    assert total.n == 2
    assert total.relations[0] == frozenset()  # source fiber empty, no vertical edges
    assert total.relations[1] == {(0, 1)}


def test_validity_matches_naive_quantification():
    rng = random.Random(0)
    al2 = default_alphabet(2)
    formulas = [
        parse("p0 -> [d0]<d1>p0", al2),
        parse("<d0>p0 & <d1>p1 -> <d0>(p0 | p1)", al2),
        parse("[d0](p0 -> p1) -> ([d0]p0 -> [d0]p1)", al2),
        parse("<d0><d0>p0 -> <d0>p0 | p0", al2),
    ]
    for _ in range(60):
        n = rng.randint(1, 3)
        frame = Frame(
            al2,
            n,
            [
                {(a, b) for a in range(n) for b in range(n) if rng.random() < 0.45}
                for _ in range(2)
            ],
        )
        subsets = [
            frozenset(p for p in range(n) if (m >> p) & 1) for m in range(1 << n)
        ]
        everything = frozenset(range(n))
        for f in formulas:
            naive = all(
                oracles.naive_extent(Model(frame, 2, (v0, v1)), f) == everything
                for v0, v1 in itertools.product(subsets, repeat=2)
            )
            assert validity_bruteforce(frame, f) == naive


def test_formula_printing_of_degenerate_nodes():
    assert print_formula(Neg(Falsum())) == "~false"
    assert print_formula(Imp(Falsum(), Falsum())) == "false -> false"
    assert print_formula(And(Dia(0, Falsum()), Neg(Var(0)))) == "<d0>false & ~p0"


def test_coarsest_refinement_of_empty_frame():
    frame = Frame(default_alphabet(1), 0, [set()])
    out = coarsest_tuned_refinement(frame, one_block(0))
    assert out.blocks == ()
    assert frame_modal_depth(frame) == 0


def test_random_upset_never_empty():
    rng = random.Random(1)
    for _ in range(50):
        spec = audit.GenSpec(n_max=5, seed=rng.randint(0, 10**6))
        frame = audit.random_frame(spec)
        up = audit.random_upset(rng, frame)
        assert up
