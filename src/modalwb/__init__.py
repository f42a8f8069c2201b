"""Workbench for finite polymodal Kripke frames.

Tuned partitions, height and pretransitivity correspondences, lexicographic
sums, definability formulas, modal depth bounds, and brute-force audit
suites for all of them.
"""

from .syntax import (
    Alphabet,
    And,
    Dia,
    Falsum,
    Formula,
    Imp,
    Neg,
    Or,
    ParseError,
    Var,
    box,
    build_schema,
    conj,
    default_alphabet,
    depth,
    diamond_union,
    diamond_upto,
    difference_axioms,
    disj,
    finite_height_axiom,
    finite_height_axiom_star,
    lex_sum_axioms,
    parse,
    pretransitivity_axiom,
    print_formula,
    reducible_path_axiom,
    star_translate,
    top,
    variables,
)
from .frames import (
    Frame,
    PathBudgetExceeded,
    SkeletonPoset,
    cluster_frames,
    disjoint_sum,
    expand,
    generated_upset,
    height,
    is_path_reducible,
    is_pmorphism,
    is_upset,
    lex_sum,
    load_frame,
    min_part,
    quotient_filtration,
    restriction,
    rt_closure,
    skeleton,
    transitivity_index,
    union_relation,
)
from .semantics import (
    Model,
    extent,
    extents_and_depths,
    model_depth,
    restrict_model,
    validity_bruteforce,
)
from .partitions import (
    CapExceeded,
    Partition,
    coarsest_tuned_refinement,
    count_k_formulas,
    frame_modal_depth,
    induced_partition,
    is_tuned,
    refine_sequence,
    subalgebra_size,
)
from .definability import (
    DefinableFamily,
    build_jankov,
    distinguishing_formulas,
    stable_top,
    verify_definability,
)
from .audit import (
    AuditReport,
    GenSpec,
    cluster_depth_bound,
    emit_report,
    non_adjacent_frame,
    random_frame,
    run_suite,
)

__version__ = "0.1.0"
