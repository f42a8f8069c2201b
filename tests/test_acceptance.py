"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with ``pytest -s tests/test_acceptance.py`` to see the lines; every
check is exact (zero tolerated failures) except the two wall-clock caps,
which are asserted as stated.
"""

import itertools
import random
import time

from modalwb import audit, definability, partitions
from modalwb.audit import GenSpec, cluster_depth_bound, non_adjacent_frame, run_suite
from modalwb.frames import Frame, height, transitivity_index
from modalwb.partitions import count_k_formulas, frame_modal_depth, subalgebra_size
from modalwb.syntax import default_alphabet

import oracles

AL1 = default_alphabet(1)


def criterion(num, name, ok, detail=""):
    status = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"[criterion {num:>2}] {name}: {status}{suffix}")
    assert ok, f"criterion {num} {name}: {detail}"


def test_criterion_1_correspondence_exactness():
    start = time.monotonic()
    spec = GenSpec(n_max=4, density=0.3, seed=101)
    reports = {
        suite: run_suite(suite, spec, 200)
        for suite in ("height-correspondence", "atr-correspondence", "rpp-correspondence")
    }
    elapsed = time.monotonic() - start
    zero = all(r.ok() for r in reports.values())
    detail = (
        ", ".join(f"{s} {r.passes}/{r.trials}" for s, r in reports.items())
        + f", {elapsed:.1f}s"
    )
    criterion(1, "correspondence exactness", zero and elapsed <= 30.0, detail)


def test_criterion_2_tuned_equivalences():
    spec = GenSpec(n_max=5, alphabet_size=2, density=0.4, seed=102)
    report = run_suite("tuned-equivalences", spec, 500)
    criterion(2, "tuned-partition equivalences", report.ok(), f"{report.passes}/500 pairs")


def test_criterion_3_subalgebra_oracle_exhaustive():
    checked = 0
    ok = True
    for n in range(4):
        pair_space = [(a, b) for a in range(n) for b in range(n)]
        subsets = [
            frozenset(p for p in range(n) if (m >> p) & 1) for m in range(1 << n)
        ]
        families = (
            [[]]
            + [[s] for s in subsets]
            + [list(c) for c in itertools.combinations(subsets, 2)]
        )
        for bits in range(1 << len(pair_space)):
            rel = {pair_space[i] for i in range(len(pair_space)) if (bits >> i) & 1}
            frame = Frame(AL1, n, [rel])
            for gens in families:
                want = len(oracles.modal_closure(frame, gens))
                got = subalgebra_size(frame, gens)
                checked += 1
                if got != want:
                    ok = False
    criterion(3, "subalgebra oracle equivalence", ok, f"{checked} exact matches")


def test_criterion_4_difference_logic_pipeline():
    start = time.monotonic()
    depths, indices = [], {}
    for size in range(2, 7):
        rel = {(a, b) for a in range(size) for b in range(size) if a != b}
        frame = Frame(AL1, size, [rel])
        depths.append(frame_modal_depth(frame, mode="exact"))
        indices[size] = transitivity_index(frame)
    elapsed = time.monotonic() - start
    md_ok = all(d == 0 for d in depths)
    idx_ok = all(indices[size] == 1 for size in range(3, 7))
    bound = max(depths) + max(indices[size] for size in range(3, 7)) + 1
    paper_value = 2
    criterion(
        4,
        "difference-logic depth pipeline",
        md_ok and idx_ok and bound == paper_value and elapsed <= 5.0,
        f"md(frames)=0, index=1, bound 0+1+1={bound}, {elapsed:.2f}s",
    )


def _bounded_height_frames(structure, seed, trials, h_cap=3):
    rng = random.Random(seed)
    spec = GenSpec(n_min=1, n_max=8, density=0.3, structure=structure, seed=seed)
    produced = 0
    while produced < trials:
        frame = audit.random_frame(spec, rng)
        if 1 <= height(frame) <= h_cap:
            produced += 1
            yield frame


def test_criterion_5_cluster_bound_instantiations():
    arithmetic_ok = all(
        cluster_depth_bound(1, 1, h) == 3 * h - 2
        and cluster_depth_bound(2, 1, h) == 4 * h - 2
        for h in range(1, 9)
    )
    preorder_ok = all(
        frame_modal_depth(f) <= 3 * height(f) - 2
        for f in _bounded_height_frames("preorder", 105, 100)
    )
    wk4_ok = all(
        frame_modal_depth(f) <= 4 * height(f) - 2
        for f in _bounded_height_frames("wk4", 106, 100)
    )
    generic = run_suite(
        "cluster-bound",
        GenSpec(n_max=8, density=0.3, structure="preorder", seed=107),
        100,
    )
    criterion(
        5,
        "cluster depth bound instantiations",
        arithmetic_ok and preorder_ok and wk4_ok and generic.ok(),
        f"(1,1)->3h-2, (2,1)->4h-2; preorders 100/100, wk4 100/100, "
        f"generic suite {generic.passes}/100",
    )


def test_criterion_6_definability_lemma():
    spec = GenSpec(n_max=8, density=0.3, seed=108)
    report = run_suite("definability", spec, 100)
    criterion(
        6,
        "definability lemma and stable top",
        report.ok(),
        f"{report.passes}/100 models, zero violations, depth within m+d+1",
    )


def test_criterion_7_top_down_lemma():
    spec = GenSpec(n_max=8, density=0.3, seed=109)
    report = run_suite("top-down", spec, 100)
    criterion(7, "top-down depth bound", report.ok(), f"{report.passes}/100")


def test_criterion_8_lexicographic_sums():
    spec = GenSpec(n_max=3, seed=110)
    report = run_suite("lex-phi", spec, 100)
    criterion(8, "lexicographic sum axioms", report.ok(), f"{report.passes}/100 sums")


def test_criterion_9_byrd_family():
    report = run_suite("byrd-frame", GenSpec(seed=111), 5)
    details = []
    for n in range(4, 9):
        frame = non_adjacent_frame(n + 1)
        seed = partitions._stabilization_masks(frame, [1])  # {0} against the rest
        details.append((n, transitivity_index(frame), height(frame), seed))
    # index 2 and height 1, while the seed index N - 2 grows with N = n + 1
    ok = report.ok() and all(idx == 2 and h == 1 and seed == n - 1 for n, idx, h, seed in details)
    criterion(
        9,
        "non-adjacency family indices",
        ok,
        "; ".join(f"n={n}: ({idx},{h}) seed index {seed}" for n, idx, h, seed in details),
    )


def test_criterion_10_formula_counts():
    refl = Frame(AL1, 1, [{(0, 0)}])
    cluster = Frame(AL1, 2, [{(0, 0), (0, 1), (1, 0), (1, 1)}])
    got_refl = count_k_formulas(refl, 1)
    got_cluster = count_k_formulas(cluster, 1)
    oracle_refl = oracles.formula_count_oracle(refl, 1)
    oracle_cluster = oracles.formula_count_oracle(cluster, 1)
    ok = (got_refl, got_cluster) == (4, 16) == (oracle_refl, oracle_cluster)
    criterion(
        10,
        "one-variable formula counts",
        ok,
        f"reflexive point {got_refl} (oracle {oracle_refl}), "
        f"cluster {got_cluster} (oracle {oracle_cluster})",
    )


def test_criterion_11_mutation_sensitivity(monkeypatch):
    # dropping the 'forbids' family from gamma must break definability
    real_families = definability.ALL_GAMMA_FAMILIES
    mutated_families = tuple(f for f in real_families if f != definability.GAMMA_FORBIDS)
    monkeypatch.setattr(definability, "ALL_GAMMA_FAMILIES", mutated_families)
    rep_def = run_suite("definability", GenSpec(n_max=8, density=0.3, seed=112), 100)
    monkeypatch.setattr(definability, "ALL_GAMMA_FAMILIES", real_families)

    # coarsening is_tuned to ignore one modality must break the equivalences
    real_tuned = partitions.is_tuned

    def coarsened(frame, part, modalities=None):
        return real_tuned(frame, part, modalities=range(max(len(frame.alphabet) - 1, 0)))

    monkeypatch.setattr(partitions, "is_tuned", coarsened)
    rep_tuned = run_suite(
        "tuned-equivalences",
        GenSpec(n_max=5, alphabet_size=2, density=0.4, seed=113),
        100,
    )
    monkeypatch.setattr(partitions, "is_tuned", real_tuned)

    ok = (not rep_def.ok()) and (not rep_tuned.ok())
    criterion(
        11,
        "mutation sensitivity",
        ok,
        f"gamma mutation: {len(rep_def.failures)} failures; "
        f"tuned mutation: {len(rep_tuned.failures)} failures (both expected > 0)",
    )
