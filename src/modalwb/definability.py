"""Synthesis of distinguishing formulas and the bounded-box definability
construction for upsets of pretransitive models.

``distinguishing_formulas`` reads the refinement stages of a model (the
block masks of ``partitions._stages`` seeded by its valuation) and builds,
for every block of the stabilized partition, a formula whose extent
is exactly that block; a block born at stage s gets a formula of modal
depth at most s. On top of these, ``build_jankov`` assembles a Jankov-Fine
style formula: it encodes the minimal filtration table of an upset under a
bounded box (``syntax._box_upto`` over chains of union diamonds up to the
frame's transitivity index), so that each point's equivalence class becomes
definable in the whole model, not just inside the upset. Gamma is the
conjunction of that box over each selected body of one ``{family: body}``
table, read in ``ALL_GAMMA_FAMILIES`` order. ``verify_definability`` and
``stable_top`` model-check the resulting guarantees exhaustively. One
construction builds each literal ``Var(l)`` and ``Neg(Var(l))`` once and
each signed diamond ``Dia(mod, f)`` once (for the gamma, one preimage,
diamond and negation per modality and block, before the loop over blocks
that reuses them), and every alpha, splitter and gamma conjunct reuses
those nodes; the betas of one upset share their gamma, so
``verify_definability`` compiles, measures and evaluates the shared DAG in
one ``semantics.extents_and_depths`` pass per model.
"""

from __future__ import annotations

from dataclasses import dataclass

from . import frames, partitions, semantics
from .frames import iter_bits, mask_of, points_of
from .semantics import Model
from .syntax import (
    And,
    Dia,
    Formula,
    Imp,
    Neg,
    Var,
    _box_upto,
    _index,
    conj,
    disj,
)

GAMMA_FORCES = "forces"
GAMMA_FORBIDS = "forbids"
GAMMA_COVERS = "covers"
ALL_GAMMA_FAMILIES = (GAMMA_FORCES, GAMMA_FORBIDS, GAMMA_COVERS)


@dataclass(frozen=True, eq=False)
class DefinableFamily:
    """Per-class defining formulas for an upset.

    ``formulas`` maps each equivalence class within the upset (as a point
    set of the ambient model) to a formula that defines it inside the
    restricted model; every formula carries the full literal profile of its
    class and has modal depth at most ``depth_bound``. ``m`` is the
    transitivity index in force.
    """

    target: frozenset[int]
    formulas: dict[frozenset[int], Formula]
    m: int
    depth_bound: int


def _literal_profile(model: Model, block: int, memo: dict) -> list[Formula]:
    """The literals of the block's least point. ``Var(l)`` and its negation
    are built once per memo, under the key ``("var", l)``."""
    rep = (block & -block).bit_length() - 1
    out = []
    for l, ext in enumerate(model.valuation):
        key = ("var", l)
        if key not in memo:
            var = Var(l)
            memo[key] = var, Neg(var)
        var, neg = memo[key]
        out.append(var if rep in ext else neg)
    return out


def _signed_diamond(memo: dict, mod: int, f: Formula) -> tuple[Formula, Formula]:
    """``Dia(mod, f)`` and its negation, built once per memo. The memo keeps
    f alive through its diamond, so no other formula takes the key id(f)."""
    key = (mod, id(f))
    if key not in memo:
        dia = Dia(mod, f)
        memo[key] = dia, Neg(dia)
    return memo[key]


def _stage_masks(model: Model) -> list[list[int]]:
    """Block masks of every refinement stage seeded by the valuation."""
    return list(partitions._stages(model.frame, [mask_of(v) for v in model.valuation]))


def _class_of(blocks: list[int], point: int) -> int:
    return next(b for b in blocks if b >> point & 1)


def _stage_formulas(model: Model, memo: dict) -> tuple[list[list[int]], dict[int, Formula]]:
    """Refinement stages plus a defining formula per block of the final stage.

    Stage-0 blocks are defined by their literal profiles. A block that
    splits off at stage d is defined by its parent's formula together with
    signed splitters: diamonds of previous-stage block formulas, chosen
    greedily until every sibling inside the parent is excluded. Only blocks
    new at the previous stage are candidates: the preimage of an older one
    already split that stage, so it separates no siblings.
    """
    frame = model.frame
    stages = _stage_masks(model)
    forms = {b: conj(_literal_profile(model, b, memo)) for b in stages[0]}
    for before, prev, cur in zip([[]] + stages, stages, stages[1:]):
        old = set(before)
        pool = [
            (mod, pb, frame.preimage_mask(mod, pb))
            for mod in range(len(frame.alphabet))
            for pb in prev
            if pb not in old
        ]
        nxt: dict[int, Formula] = {}
        for block in cur:
            # a stage refines the one before, and every block of it lies
            # inside or outside each splitter
            parent = next(b for b in prev if block & b)
            remaining = [b for b in cur if b & parent and b != block]
            conjuncts = [forms[parent]]
            for mod, pb, pre in pool:
                if not remaining:
                    break
                inside = bool(block & pre)
                still = [s for s in remaining if bool(s & pre) == inside]
                if len(still) < len(remaining):
                    dia, neg = _signed_diamond(memo, mod, forms[pb])
                    conjuncts.append(dia if inside else neg)
                    remaining = still
            if remaining:
                raise AssertionError("refinement stage left siblings unseparated")
            nxt[block] = conj(conjuncts)
        forms = nxt
    return stages, forms


def distinguishing_formulas(model: Model) -> dict[frozenset[int], Formula]:
    """For each block of the model's stabilized partition, a formula whose
    extent is exactly that block; depth is bounded by the block's birth
    stage."""
    _, forms = _stage_formulas(model, {})
    return {points_of(b): f for b, f in forms.items()}


def build_jankov(
    model: Model,
    upset,
    m: int | None = None,
    families=ALL_GAMMA_FAMILIES,
):
    """Defining formulas for an upset's classes, valid across the whole model.

    Returns ``(family, gamma, beta)``: the per-class formulas, the boxed
    filtration-table formula gamma, and per point of the upset the formula
    beta = alpha(point's class) & gamma. ``m`` defaults to the frame's
    transitivity index and may be overridden upward for audits; ``families``
    selects which gamma conjunct families are emitted (exposed so the
    mutation tests in ``tests/test_definability.py`` and
    ``tests/test_acceptance.py`` can drop one).
    """
    frame = model.frame
    y = points_of(frames._checked_mask(frame.n, upset))
    if not y:
        raise ValueError("upset must be non-empty")
    if not frames.is_upset(frame, y):
        raise ValueError("target set is not an upset")
    index = frames.transitivity_index(frame)
    m = index if m is None else _index(m, "m")
    if m < index:
        raise ValueError(f"m={m} is below the transitivity index {index}")
    unknown = set(families) - set(ALL_GAMMA_FAMILIES)
    if unknown:
        raise ValueError(f"unknown gamma families {sorted(unknown)}")

    old = sorted(y)
    sub = semantics.restrict_model(model, y)
    memo: dict = {}  # shared with the splitters: with k = 0 an alpha is a stage formula
    substages, subforms = _stage_formulas(sub, memo)

    # lifting along sorted(y) keeps the blocks in min-element order
    alphas: dict[int, Formula] = {}
    for b, form in subforms.items():
        lifted = mask_of(old[p] for p in iter_bits(b))
        alphas[lifted] = conj(_literal_profile(sub, b, memo) + [form])
    blocks = list(alphas)

    all_mods = tuple(range(len(frame.alphabet)))
    forces, forbids = [], []
    for mod in all_mods:
        signed = [
            (frame.preimage_mask(mod, b), *_signed_diamond(memo, mod, alphas[b]))
            for b in blocks
        ]
        for a in blocks:
            alpha = alphas[a]
            for pre, dia, neg in signed:
                if a & pre:
                    forces.append(Imp(alpha, dia))
                else:
                    forbids.append(Imp(alpha, neg))
    bodies = {
        GAMMA_FORCES: conj(forces),
        GAMMA_FORBIDS: conj(forbids),
        GAMMA_COVERS: disj([alphas[b] for b in blocks]),
    }
    gamma = conj([_box_upto(m, all_mods, bodies[f]) for f in ALL_GAMMA_FAMILIES if f in families])

    beta = {p: And(alphas[_class_of(blocks, p)], gamma) for p in old}
    family = DefinableFamily(
        target=y,
        formulas={points_of(b): f for b, f in alphas.items()},
        m=m,
        depth_bound=len(substages) - 1,
    )
    return family, gamma, beta


@dataclass
class DefinabilityReport:
    """Outcome of model-checking the defining formulas across a model."""

    pairs_checked: int
    violations: tuple[tuple[int, int, bool, bool], ...]
    max_beta_depth: int
    depth_limit: int

    def ok(self) -> bool:
        return not self.violations and self.max_beta_depth <= self.depth_limit


def verify_definability(
    model: Model,
    upset,
    m: int | None = None,
    families=ALL_GAMMA_FAMILIES,
) -> DefinabilityReport:
    """Check, for every point a of the upset and every point b of the model,
    that beta(a) holds at b exactly when a and b lie in the same block of
    the model's stabilized partition. Violating pairs are report content,
    not errors."""
    family, _, beta = build_jankov(model, upset, m=m, families=families)
    final = _stage_masks(model)[-1]
    targets = sorted(family.target)
    # the betas share gamma: one program gives every extent and depth
    results = semantics.extents_and_depths(model, [beta[a] for a in targets])
    violations = []
    for a, (ext, _) in zip(targets, results):
        expected = _class_of(final, a)
        for b in iter_bits(ext ^ expected):
            holds = bool(ext >> b & 1)
            violations.append((a, b, holds, not holds))
    return DefinabilityReport(
        pairs_checked=len(targets) * model.frame.n,
        violations=tuple(violations),
        max_beta_depth=max((d for _, d in results), default=0),
        depth_limit=family.m + family.depth_bound + 1,
    )


@dataclass
class StableTopReport:
    """The four guarantees of the stable-top construction."""

    upset_ok: bool
    definable_ok: bool
    depth_ok: bool
    stability_ok: bool
    defining_depth: int
    depth_limit: int

    def ok(self) -> bool:
        return self.upset_ok and self.definable_ok and self.depth_ok and self.stability_ok


def stable_top(model: Model, upset, m: int | None = None):
    """Saturate an upset to the union Z of equivalence classes meeting it.

    Returns ``(Z, D, report)`` with D = m + depth(restricted model) + 1.
    The report checks that Z is an upset, that the disjunction of beta
    formulas over class representatives defines Z within depth D, that the
    restricted model's depth stays within D, and that stage-D equivalence
    already pins both membership in Z and the final class of every point
    of Z.
    """
    family, _, beta = build_jankov(model, upset, m=m)
    cap = family.m + family.depth_bound + 1
    stages = _stage_masks(model)
    final = stages[-1]
    target = mask_of(family.target)
    z_mask = sum(b for b in final if b & target)  # disjoint blocks
    z = points_of(z_mask)

    upset_ok = frames.is_upset(model.frame, z)

    reps = [min(b) for b in sorted(family.formulas, key=min)]
    defining = disj([beta[r] for r in reps])
    [(defined, defining_depth)] = semantics.extents_and_depths(model, [defining])
    definable_ok = defined == z_mask and defining_depth <= cap

    depth_ok = len(_stage_masks(semantics.restrict_model(model, z))) - 1 <= cap

    # the final stage refines stage D, so a stage-D block meeting Z pins
    # membership in Z and its final class exactly when it is a final block
    finals = set(final)
    stability_ok = all(
        b in finals for b in stages[min(cap, len(stages) - 1)] if b & z_mask
    )
    report = StableTopReport(
        upset_ok=upset_ok,
        definable_ok=definable_ok,
        depth_ok=depth_ok,
        stability_ok=stability_ok,
        defining_depth=defining_depth,
        depth_limit=cap,
    )
    return z, cap, report
