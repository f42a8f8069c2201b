"""Workbench for finite polymodal Kripke frames.

Tuned partitions, height and pretransitivity correspondences, lexicographic
sums, definability formulas, modal depth bounds, and brute-force audit
suites for all of them.

``import modalwb`` loads no submodule. The names below resolve per submodule
on first use (PEP 562): the first access to an exported name, or to a
submodule by name, imports that submodule and binds all of its exported
names into the package, with those of every submodule loaded by then. So
``import modalwb.frames`` or ``modalwb check`` never loads ``audit`` or
``definability``.
"""

from importlib import import_module as _import_module

# each submodule and the names the package exports from it
_EXPORTS = {
    "syntax": (
        "Alphabet", "And", "Dia", "Falsum", "Formula", "Imp", "Neg", "Or",
        "ParseError", "Var", "box", "build_schema", "conj", "default_alphabet",
        "depth", "diamond_union", "diamond_upto", "difference_axioms", "disj",
        "finite_height_axiom", "finite_height_axiom_star", "lex_sum_axioms",
        "parse", "pretransitivity_axiom", "print_formula",
        "reducible_path_axiom", "star_translate", "top", "variables",
    ),
    "frames": (
        "Frame", "PathBudgetExceeded", "SkeletonPoset", "cluster_frames",
        "disjoint_sum", "expand", "generated_upset", "height",
        "is_path_reducible", "is_pmorphism", "is_upset", "lex_sum",
        "load_frame", "min_part", "quotient_filtration", "restriction",
        "rt_closure", "skeleton", "transitivity_index", "union_relation",
    ),
    "semantics": (
        "Model", "extent", "extents_and_depths", "model_depth",
        "restrict_model", "validity_bruteforce",
    ),
    "partitions": (
        "CapExceeded", "Partition", "coarsest_tuned_refinement",
        "count_k_formulas", "frame_modal_depth", "induced_partition",
        "is_tuned", "refine_sequence", "subalgebra_size",
    ),
    "definability": (
        "DefinableFamily", "build_jankov", "distinguishing_formulas",
        "stable_top", "verify_definability",
    ),
    "audit": (
        "AuditReport", "GenSpec", "cluster_depth_bound", "emit_report",
        "non_adjacent_frame", "random_frame", "run_suite",
    ),
}
_OWNER = {name: sub for sub, names in _EXPORTS.items() for name in names}

__all__ = [*_EXPORTS, *_OWNER]

__version__ = "0.1.0"


def __getattr__(name):
    sub = name if name in _EXPORTS else _OWNER.get(name)
    if sub is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    module = _import_module(f"{__name__}.{sub}")
    names = globals()
    # bind the names of this submodule and of every other one loaded by now:
    # a submodule that another one imports (frames imports syntax) is set on
    # the package by the import system, which never calls this function
    for loaded, exports in _EXPORTS.items():
        source = module if loaded == sub else names.get(loaded)
        if source is not None:
            for export in exports:
                names.setdefault(export, getattr(source, export))
    return module if name == sub else names[name]


def __dir__():
    return sorted({*globals(), *__all__})
