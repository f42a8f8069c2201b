"""The int half of the public contract: each callable that ``modalwb``
exports takes its int parameters (counts, caps, seeds, and ids such as
points and modality ids) through one rule.

``ROWS`` holds one row per exported callable. A row maps each int parameter
to its kind and to a cheap call, on frames of at most 3 points, that takes
the value under test. A parameter may also be one element of a collection,
such as a point of a point set. Every int parameter gets the inputs -1, its
bound if it is an id, 1.5, 2.0, True, False, "1" and None:

- a bool, a float, a str or None raises TypeError. ``build_schema`` wraps
  that TypeError in a ValueError. None is valid where it is the default;
- a negative count or an id outside its range raises ValueError. A negative
  seed is valid;
- any other exception, or a call that returns where it should raise, fails.

Out of scope:

- object-typed parameters (a frame, a model, an rng, a spec, a formula).
  Type-checking each of them is more code than it prevents;
- ``Var``, ``Dia`` and ``box``, whose ids ``semantics._compile`` and
  ``print_formula`` check when the formula is used;
- the records the library returns (``AuditReport``, ``DefinableFamily``,
  ``SkeletonPoset``, and ``Partition``'s own constructor; ``Partition.of``
  is the checked way in) and the error classes the library raises.

These names get an empty row, as does every name with no int parameter.
"""

from typing import NamedTuple

import pytest

import modalwb
from modalwb import (
    Frame,
    GenSpec,
    Model,
    Partition,
    Var,
    build_jankov,
    build_schema,
    cluster_depth_bound,
    count_k_formulas,
    default_alphabet,
    diamond_union,
    diamond_upto,
    difference_axioms,
    finite_height_axiom,
    finite_height_axiom_star,
    frame_modal_depth,
    generated_upset,
    induced_partition,
    is_path_reducible,
    is_pmorphism,
    is_tuned,
    is_upset,
    lex_sum_axioms,
    non_adjacent_frame,
    pretransitivity_axiom,
    reducible_path_axiom,
    refine_sequence,
    restrict_model,
    restriction,
    rt_closure,
    run_suite,
    stable_top,
    star_translate,
    subalgebra_size,
    validity_bruteforce,
    verify_definability,
)


class Kind(NamedTuple):
    """``low`` is the least valid value (None: any int), ``bound`` the least
    invalid id above it (None: no bound), and ``optional`` says whether None
    is valid."""

    low: int | None
    bound: int | None = None
    optional: bool = False


COUNT = Kind(0)
SEED = Kind(None)


def ID(bound):
    return Kind(0, bound)


AL = default_alphabet(1)
CHAIN = Frame(AL, 3, [[(0, 1), (1, 2)]])  # transitivity index 2
MODEL = Model(CHAIN, 1, [{2}])
PART = Partition.of(3, [[0, 1], [2]])

NO_ROW = {}
# name -> {parameter: (kind, a valid value, call taking the value)}
ROWS = {
    # syntax
    "Alphabet": NO_ROW,
    "And": NO_ROW,
    "Dia": NO_ROW,
    "Falsum": NO_ROW,
    "Formula": NO_ROW,
    "Imp": NO_ROW,
    "Neg": NO_ROW,
    "Or": NO_ROW,
    "ParseError": NO_ROW,
    "Var": NO_ROW,
    "box": NO_ROW,
    "build_schema": {
        "h": (COUNT, 1, lambda v: build_schema("B_star", h=v, m=1, subset=[0])),
        "m": (COUNT, 1, lambda v: build_schema("B_star", h=1, m=v, subset=[0])),
        "subset": (COUNT, 0, lambda v: build_schema("B_star", h=1, m=1, subset=[v])),
    },
    "conj": NO_ROW,
    "default_alphabet": {"size": (COUNT, 2, default_alphabet)},
    "depth": NO_ROW,
    "diamond_union": {"subset": (COUNT, 0, lambda v: diamond_union([v], Var(0)))},
    "diamond_upto": {
        "m": (COUNT, 2, lambda v: diamond_upto(v, [0], Var(0))),
        "subset": (COUNT, 0, lambda v: diamond_upto(2, [v], Var(0))),
    },
    "difference_axioms": {
        "diff": (COUNT, 1, lambda v: difference_axioms(v, [5])),
        "others": (COUNT, 0, lambda v: difference_axioms(5, [v])),
    },
    "disj": NO_ROW,
    "finite_height_axiom": {"h": (COUNT, 2, finite_height_axiom)},
    "finite_height_axiom_star": {
        "h": (COUNT, 1, lambda v: finite_height_axiom_star(v, 1, [0])),
        "m": (COUNT, 1, lambda v: finite_height_axiom_star(1, v, [0])),
        "subset": (COUNT, 0, lambda v: finite_height_axiom_star(1, 1, [v])),
    },
    "lex_sum_axioms": {
        "vertical": (COUNT, 0, lambda v: lex_sum_axioms([v], [5])),
        "horizontal": (COUNT, 0, lambda v: lex_sum_axioms([5], [v])),
    },
    "parse": NO_ROW,
    "pretransitivity_axiom": {
        "subset": (COUNT, 0, lambda v: pretransitivity_axiom([v], 1)),
        "m": (COUNT, 1, lambda v: pretransitivity_axiom([0], v)),
    },
    "print_formula": NO_ROW,
    "reducible_path_axiom": {
        "m": (COUNT, 1, lambda v: reducible_path_axiom(v, [0])),
        "subset": (COUNT, 0, lambda v: reducible_path_axiom(1, [v])),
    },
    "star_translate": {
        "m": (COUNT, 1, lambda v: star_translate(Var(0), v, [0])),
        "subset": (COUNT, 0, lambda v: star_translate(Var(0), 1, [v])),
    },
    "top": NO_ROW,
    "variables": NO_ROW,
    # frames
    "Frame": {
        "n": (COUNT, 3, lambda v: Frame(AL, v, [[(0, 1)]])),
        "relations": (ID(3), 1, lambda v: Frame(AL, 3, [[(0, v)]])),
    },
    "PathBudgetExceeded": NO_ROW,
    "SkeletonPoset": NO_ROW,
    "cluster_frames": NO_ROW,
    "disjoint_sum": NO_ROW,
    "expand": NO_ROW,
    "generated_upset": {"points": (ID(3), 1, lambda v: generated_upset(CHAIN, [v]))},
    "height": NO_ROW,
    "is_path_reducible": {
        "m": (COUNT, 1, lambda v: is_path_reducible(CHAIN, v)),
        "budget": (COUNT, 100, lambda v: is_path_reducible(CHAIN, 1, v)),
    },
    "is_pmorphism": {"mapping": (ID(3), 0, lambda v: is_pmorphism(CHAIN, CHAIN, [v, 1, 2]))},
    "is_upset": {"points": (ID(3), 1, lambda v: is_upset(CHAIN, [v]))},
    "lex_sum": NO_ROW,
    "load_frame": NO_ROW,
    "min_part": NO_ROW,
    "quotient_filtration": NO_ROW,
    "restriction": {"points": (ID(3), 0, lambda v: restriction(CHAIN, [1, v]))},
    "rt_closure": {
        "n": (COUNT, 3, lambda v: rt_closure([], v)),
        "rel": (ID(3), 1, lambda v: rt_closure([(0, v)], 3)),
    },
    "skeleton": NO_ROW,
    "transitivity_index": NO_ROW,
    "union_relation": NO_ROW,
    # semantics
    "Model": {
        "k": (COUNT, 1, lambda v: Model(CHAIN, v, [{2}])),
        "valuation": (ID(3), 1, lambda v: Model(CHAIN, 1, [[2, v]])),
    },
    "extent": NO_ROW,
    "extents_and_depths": NO_ROW,
    "model_depth": NO_ROW,
    "restrict_model": {"points": (ID(3), 0, lambda v: restrict_model(MODEL, [1, v]))},
    "validity_bruteforce": {"cap": (COUNT, 64, lambda v: validity_bruteforce(CHAIN, Var(0), v))},
    # partitions
    "CapExceeded": NO_ROW,
    "Partition": {
        "n": (COUNT, 3, lambda v: Partition.of(v, [[0, 1], [2]])),
        "blocks": (ID(3), 1, lambda v: Partition.of(3, [[0, v], [2]])),
    },
    "coarsest_tuned_refinement": NO_ROW,
    "count_k_formulas": {
        "k": (COUNT, 1, lambda v: count_k_formulas(CHAIN, v)),
        "cap": (COUNT, 256, lambda v: count_k_formulas(CHAIN, 1, v)),
    },
    "frame_modal_depth": {
        "trials": (COUNT, 5, lambda v: frame_modal_depth(CHAIN, "sampled", v)),
        "seed": (SEED, 0, lambda v: frame_modal_depth(CHAIN, "sampled", 5, v)),
    },
    "induced_partition": {
        "n": (COUNT, 3, lambda v: induced_partition(v, [[0]])),
        "family": (ID(3), 0, lambda v: induced_partition(3, [[v]])),
    },
    "is_tuned": {"modalities": (ID(1), 0, lambda v: is_tuned(CHAIN, PART, [v]))},
    "refine_sequence": {"initial": (ID(3), 2, lambda v: refine_sequence(CHAIN, [[v]]))},
    "subalgebra_size": {"generators": (ID(3), 2, lambda v: subalgebra_size(CHAIN, [[v]]))},
    # definability
    "DefinableFamily": NO_ROW,
    "build_jankov": {
        "m": (Kind(0, optional=True), 2, lambda v: build_jankov(MODEL, [2], m=v)),
        "upset": (ID(3), 1, lambda v: build_jankov(MODEL, [2, v])),
    },
    "distinguishing_formulas": NO_ROW,
    "stable_top": {
        "m": (Kind(0, optional=True), 2, lambda v: stable_top(MODEL, [2], m=v)),
        "upset": (ID(3), 1, lambda v: stable_top(MODEL, [2, v])),
    },
    "verify_definability": {
        "m": (Kind(0, optional=True), 2, lambda v: verify_definability(MODEL, [2], m=v)),
        "upset": (ID(3), 1, lambda v: verify_definability(MODEL, [2, v])),
    },
    # audit
    "AuditReport": NO_ROW,
    "GenSpec": {
        "n_min": (COUNT, 1, lambda v: GenSpec(n_min=v)),
        "n_max": (COUNT, 4, lambda v: GenSpec(n_max=v)),
        "alphabet_size": (COUNT, 1, lambda v: GenSpec(alphabet_size=v)),
        "param": (Kind(None, optional=True), 1, lambda v: GenSpec(param=v)),
        "seed": (SEED, 0, lambda v: GenSpec(seed=v)),
    },
    "cluster_depth_bound": {
        "d": (COUNT, 1, lambda v: cluster_depth_bound(v, 1, 1)),
        "m": (COUNT, 1, lambda v: cluster_depth_bound(1, v, 1)),
        "h": (COUNT, 1, lambda v: cluster_depth_bound(1, 1, v)),
    },
    "emit_report": NO_ROW,
    "non_adjacent_frame": {"n": (COUNT, 3, non_adjacent_frame)},
    "random_frame": NO_ROW,
    "run_suite": {"trials": (COUNT, 1, lambda v: run_suite("byrd-frame", GenSpec(), v))},
}

PARAMS = [(name, param, *entry) for name, row in ROWS.items() for param, entry in row.items()]


def _expected(name, kind, value):
    """The exception the call must raise, or None where it must return."""
    if value is None and kind.optional:
        return None
    if type(value) is not int:
        return ValueError if name == "build_schema" else TypeError
    if value < 0 and kind.low is None:
        return None
    return ValueError  # below a low of 0, or at the bound


CASES = [
    pytest.param(name, call, value, _expected(name, kind, value), id=f"{name}-{param}-{value!r}")
    for name, param, kind, _, call in PARAMS
    for value in (-1, *([] if kind.bound is None else [kind.bound]), 1.5, 2.0, True, False, "1", None)
]


def test_every_exported_callable_has_a_row():
    exported = {name for name, obj in vars(modalwb).items() if callable(obj) and name[0] != "_"}
    assert exported == set(ROWS)


@pytest.mark.parametrize(
    "call, valid", [pytest.param(call, valid, id=f"{name}-{param}") for name, param, _, valid, call in PARAMS]
)
def test_a_valid_value_returns(call, valid):
    call(valid)


@pytest.mark.parametrize("name, call, value, expected", CASES)
def test_int_parameter_takes_an_int_in_range(name, call, value, expected):
    if expected is None:
        call(value)
    else:
        with pytest.raises(expected):
            call(value)
