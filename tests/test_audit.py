import hashlib
import json
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from modalwb import audit, cli, frames, partitions, semantics
from modalwb.audit import (
    GenSpec,
    cluster_depth_bound,
    emit_report,
    non_adjacent_frame,
    random_frame,
    run_suite,
    satisfies_structure,
)
from modalwb.frames import Frame
from modalwb.syntax import default_alphabet


def test_genspec_validation():
    with pytest.raises(ValueError, match="structure"):
        GenSpec(structure="weird")
    with pytest.raises(ValueError, match="parameter"):
        GenSpec(structure="pretransitive")
    with pytest.raises(ValueError):
        GenSpec(n_min=3, n_max=2)


@pytest.mark.parametrize(
    "bad, field",
    [
        ({"alphabet_size": -1}, "alphabet_size"),
        ({"density": -0.1}, "density"),
        ({"density": 1.5}, "density"),
        ({"density": float("nan")}, "density"),
    ],
)
def test_genspec_rejects_negative_alphabet_size_and_density_outside_unit_range(bad, field):
    with pytest.raises(ValueError, match=field):
        GenSpec(**bad)
    GenSpec(alphabet_size=0, density=0.0)
    GenSpec(density=1.0)


@pytest.mark.parametrize("field", ["n_min", "n_max", "alphabet_size", "param", "seed"])
def test_genspec_takes_counts_through_operator_index(field):
    # n_max=2.5 used to pass the range checks and fail in randrange
    base = {"n_min": 1, "n_max": 3, "alphabet_size": 1, "structure": "pretransitive", "param": 1}
    with pytest.raises(TypeError):
        GenSpec(**{**base, field: 2.5})

    class Two:
        def __index__(self):
            return 2

    spec = GenSpec(**{**base, field: Two()})
    assert type(getattr(spec, field)) is int and getattr(spec, field) == 2
    assert 1 <= random_frame(spec).n <= spec.n_max


def test_genspec_rejects_a_bool_density():
    with pytest.raises(TypeError, match="density"):
        GenSpec(density=True)


@pytest.mark.parametrize("structure, least", [("pretransitive", 0), ("bounded-height", 1)])
def test_genspec_rejects_a_param_no_frame_meets(structure, least):
    # no transitivity index is negative, and every drawn frame has height >= 1
    with pytest.raises(ValueError, match="param must be at least"):
        GenSpec(structure=structure, param=least - 1)
    assert run_suite("atr-correspondence", GenSpec(structure=structure, param=least), 2).ok()


def test_random_frame_deterministic():
    spec = GenSpec(n_max=5, alphabet_size=2, seed=42)
    assert random_frame(spec) == random_frame(spec)
    other = GenSpec(n_max=5, alphabet_size=2, seed=43)
    assert random_frame(spec) != random_frame(other)


def test_random_frame_structures():
    rng = random.Random(0)
    for structure, param in [
        ("preorder", None),
        ("transitive", None),
        ("wk4", None),
        ("pretransitive", 1),
        ("bounded-height", 2),
    ]:
        spec = GenSpec(n_max=6, structure=structure, param=param, seed=7)
        for _ in range(30):
            f = random_frame(spec, rng)
            assert satisfies_structure(f, structure, param)
            if structure == "preorder":
                assert frames.transitivity_index(f) <= 1
            if structure == "bounded-height":
                assert frames.height(f) <= 2


def structure_by_pairs(frame, structure):
    """``satisfies_structure`` for preorder, transitive and wk4 frames,
    joining each relation's pairs with themselves."""
    for rel in frame.relations:
        if structure == "preorder" and any((a, a) not in rel for a in range(frame.n)):
            return False
        for a, b in rel:
            for c in (c for b2, c in rel if b2 == b):
                if (a, c) not in rel and not (structure == "wk4" and a == c):
                    return False
    return True


def test_satisfies_structure_matches_pair_reference_on_any_frames():
    """Frames drawn without structure, so each structure is met by some and
    missed by others."""
    verdicts = {"preorder": set(), "transitive": set(), "wk4": set()}
    for seed in range(300):
        density = (0.2, 0.5, 0.9)[seed % 3]
        spec = GenSpec(n_max=5, alphabet_size=1 + seed % 2, density=density, seed=seed)
        frame = random_frame(spec)
        for structure, seen in verdicts.items():
            verdict = satisfies_structure(frame, structure, None)
            assert verdict == structure_by_pairs(frame, structure)
            seen.add(verdict)
    assert all(seen == {False, True} for seen in verdicts.values())


def warshall_random_frame(spec, rng):
    """``random_frame`` as it was when Warshall's algorithm closed its
    transitive, preorder and wk4 draws: the reference for those draws."""
    for _ in range(audit.REJECTION_BUDGET):
        n = rng.randint(spec.n_min, spec.n_max)
        rels = []
        for _ in range(spec.alphabet_size):
            rows = [0] * n
            for a in range(n):
                for b in range(n):
                    if rng.random() < spec.density:
                        rows[a] |= 1 << b
            rows = oracles.warshall_closure_rows(rows, spec.structure == "preorder")
            if spec.structure == "wk4":
                pairs = frames._rows_to_rel(rows)
                rows = [0] * n
                for a, b in pairs:
                    if a != b or rng.random() < 0.5:
                        rows[a] |= 1 << b
            rels.append(rows)
        frame = Frame.from_rows(default_alphabet(spec.alphabet_size), n, rels)
        if satisfies_structure(frame, spec.structure, spec.param):
            return frame


@pytest.mark.parametrize("structure", ["transitive", "preorder", "wk4"])
def test_closed_draws_match_warshall_draws(structure):
    for seed in range(10):
        spec = GenSpec(n_max=12, alphabet_size=1 + seed % 2, structure=structure, seed=seed)
        rng, reference = random.Random(seed), random.Random(seed)
        for _ in range(5):
            assert random_frame(spec, rng) == warshall_random_frame(spec, reference)


def test_unknown_suite():
    with pytest.raises(ValueError, match="unknown suite"):
        run_suite("nope", GenSpec(), 1)


def test_exact_depth_suites_reject_large_frames():
    with pytest.raises(ValueError, match="exact"):
        run_suite("top-down", GenSpec(n_max=partitions.EXACT_DEPTH_LIMIT + 1), 1)
    with pytest.raises(ValueError, match="md-sum"):
        run_suite("md-sum", GenSpec(n_max=8), 1)


def test_exact_depth_bound_scales_with_the_suite():
    # md-sum takes the depth of a sum of two frames, top-down of one frame
    with pytest.raises(ValueError, match="md-sum.*exact modal depth"):
        run_suite("md-sum", GenSpec(n_max=partitions.EXACT_DEPTH_LIMIT // 2 + 1), 1)
    assert run_suite("md-sum", GenSpec(n_max=4), 0).ok()
    assert run_suite("top-down", GenSpec(n_max=8), 0).ok()


def test_definability_is_not_bounded_by_exact_depth():
    # its law calls verify_definability and stable_top, never the exact depth
    report = run_suite("definability", GenSpec(n_max=10, density=0.3, seed=4), 20)
    assert report.passes == 20, [f.detail for f in report.failures]


@pytest.mark.parametrize(
    "suite,spec,trials",
    [
        ("tuned-equivalences", GenSpec(n_max=5, alphabet_size=2, density=0.4), 60),
        ("height-correspondence", GenSpec(n_max=4, density=0.3), 40),
        ("atr-correspondence", GenSpec(n_max=4, density=0.3), 40),
        ("rpp-correspondence", GenSpec(n_max=4, density=0.3), 40),
        ("md-sum", GenSpec(n_max=4), 20),
        ("top-down", GenSpec(n_max=8, density=0.3), 15),
        ("cluster-bound", GenSpec(n_max=8, density=0.3), 15),
        ("lex-phi", GenSpec(n_max=3), 40),
        ("diff-axioms", GenSpec(n_max=4), 40),
        ("definability", GenSpec(n_max=8, density=0.3), 15),
        ("byrd-frame", GenSpec(), 5),
    ],
)
def test_suites_pass(suite, spec, trials):
    report = run_suite(suite, spec, trials)
    assert report.passes == trials, [f.detail for f in report.failures]
    assert report.passes + len(report.failures) == report.trials


def test_lex_phi_draws_at_most_three_index_points_whatever_n_min():
    report = run_suite("lex-phi", GenSpec(n_min=4, n_max=8), 3)
    assert report.passes == 3 and report.ok()


def test_report_roundtrip_and_determinism(tmp_path):
    spec = GenSpec(n_max=4, seed=11)
    r1 = run_suite("atr-correspondence", spec, 25)
    r2 = run_suite("atr-correspondence", spec, 25)
    p1, p2 = tmp_path / "a.json", tmp_path / "b.json"
    emit_report(r1, p1)
    emit_report(r2, p2)
    assert p1.read_bytes() == p2.read_bytes()
    data = json.loads(p1.read_text())
    assert set(data) == {"suite", "seed", "trials", "passes", "failures", "config"}
    assert data["trials"] == 25


def test_empty_report_shape(tmp_path):
    report = run_suite("byrd-frame", GenSpec(seed=1), 0)
    assert report.trials == 0 and report.passes == 0 and report.failures == []
    emit_report(report, tmp_path / "r.json")
    data = json.loads((tmp_path / "r.json").read_text())
    assert data["failures"] == []


def test_errored_trials_are_reported_not_fatal(tmp_path):
    # frames past 12 points need more than the 2^24 valuations the cap allows
    report = run_suite("rpp-correspondence", GenSpec(n_max=40, density=0.3, seed=1), 20)
    assert report.errors and not report.ok()
    assert report.passes + len(report.failures) + len(report.errors) == 20
    assert all(e.detail.startswith("CapExceeded: ") for e in report.errors)
    emit_report(report, tmp_path / "r.json")
    data = json.loads((tmp_path / "r.json").read_text())
    assert [e["trial"] for e in data["errors"]] == [e.trial for e in report.errors]


@pytest.mark.parametrize(
    "error",
    [
        audit.GenerationError("no restriction"),
        partitions.CapExceeded("past the cap"),
        frames.PathBudgetExceeded("past the budget"),
    ],
    ids=lambda exc: type(exc).__name__,
)
def test_a_law_that_raises_while_minimizing_is_an_errored_trial(monkeypatch, error):
    # the law fails on every 3-point frame and raises on each of its restrictions
    def law(points):
        if len(points) < 3:
            raise error
        return False, "fails"

    def draw(spec, rng, trial):
        return non_adjacent_frame(3 if trial != 1 else 2), law

    monkeypatch.setitem(audit.SUITES, "raising", audit.Suite(draw, GenSpec(), 3, 0))
    report = run_suite("raising", GenSpec(), 3)
    assert report.passes == 0 and report.failures == [] and not report.ok()
    detail = f"{type(error).__name__}: {error}"
    assert [(e.trial, e.detail) for e in report.errors] == [(0, detail), (1, detail), (2, detail)]


def test_a_class_the_sampler_cannot_hit_errors_every_trial():
    # density 1 draws only the complete 3-point relation, whose index is 1, not 0
    spec = GenSpec(n_min=3, n_max=3, density=1.0, structure="pretransitive", param=0)
    report = run_suite("atr-correspondence", spec, 2)
    assert report.passes == 0 and not report.ok()
    assert [e.trial for e in report.errors] == [0, 1]
    assert all(e.detail.startswith("GenerationError: could not generate") for e in report.errors)


def test_correspondence_frame_budget_runs_out(monkeypatch):
    # every draw is too tall, so the picker gives up after its budget
    monkeypatch.setattr(audit, "REJECTION_BUDGET", 3)
    monkeypatch.setattr(frames, "height", lambda frame: 4)
    report = run_suite("height-correspondence", GenSpec(n_max=4, density=0.3), 2)
    assert report.passes == 0 and not report.ok()
    assert [e.detail for e in report.errors] == [
        "GenerationError: rejection budget exhausted for correspondence frame"
    ] * 2


def test_byrd_law_passes_proper_restrictions_vacuously():
    frame, law = audit.SUITES["byrd-frame"].draw(GenSpec(), random.Random(0), 0)
    assert frame.n == 5
    assert law([0, 1]) == (True, "proper restriction, vacuous")


OUTCOMES = {
    "gen": audit.GenerationError("no frame"),
    "cap": partitions.CapExceeded("too many valuations"),
    "path": frames.PathBudgetExceeded("too many paths"),
}


def outcome_suite(outcomes):
    """A suite whose trial t passes, fails or raises as ``outcomes[t]`` says;
    ``gen`` raises in the draw, ``cap`` and ``path`` in the law."""

    def draw(spec, rng, trial):
        if outcomes[trial] == "gen":
            raise OUTCOMES["gen"]

        def law(pts):
            if outcomes[trial] in OUTCOMES:
                raise OUTCOMES[outcomes[trial]]
            return outcomes[trial] == "pass", outcomes[trial]

        return non_adjacent_frame(1), law

    return audit.Suite(draw, GenSpec(), len(outcomes), 0)


@settings(max_examples=50, deadline=None)
@given(st.lists(st.sampled_from(["pass", "fail", "gen", "cap", "path"]), max_size=12))
def test_every_trial_is_a_pass_a_failure_or_an_error(outcomes):
    with pytest.MonkeyPatch.context() as mp:
        mp.setitem(audit.SUITES, "outcomes", outcome_suite(outcomes))
        report = run_suite("outcomes", GenSpec(), len(outcomes))
    assert report.passes + len(report.failures) + len(report.errors) == report.trials
    assert report.passes == outcomes.count("pass")
    assert [f.trial for f in report.failures] == [t for t, o in enumerate(outcomes) if o == "fail"]
    assert [(e.trial, e.detail) for e in report.errors] == [
        (t, f"{type(OUTCOMES[o]).__name__}: {OUTCOMES[o]}")
        for t, o in enumerate(outcomes)
        if o in OUTCOMES
    ]
    assert ("errors" in audit.report_to_dict(report)) == bool(report.errors)
    assert report.ok() == (report.passes == report.trials)


def test_failure_serializes_minimized_frame(monkeypatch):
    # coarsen the tuned check so the suite disagrees and emits counterexamples
    real = partitions.is_tuned

    def coarsened(frame, part, modalities=None):
        mods = range(max(len(frame.alphabet) - 1, 0))
        return real(frame, part, modalities=mods)

    monkeypatch.setattr(partitions, "is_tuned", coarsened)
    spec = GenSpec(n_max=5, alphabet_size=2, density=0.4, seed=3)
    report = run_suite("tuned-equivalences", spec, 80)
    assert report.failures
    failure = report.failures[0]
    frame = frames.from_dict(failure.frame)
    assert 1 <= frame.n <= 5
    # the frame JSON embeds the standard format
    assert set(failure.frame) == {"alphabet", "points", "rel"}


@pytest.mark.parametrize(
    "suite,module,name,broken",
    [
        ("md-sum", frames, "transitivity_index", lambda frame: -10**6),
        ("top-down", frames, "transitivity_index", lambda frame: -10**6),
        ("cluster-bound", audit, "cluster_depth_bound", lambda d, m, h: -1),
        ("lex-phi", semantics, "validity_bruteforce", lambda frame, f, cap=None: False),
        (
            "definability",
            semantics,
            "extents_and_depths",
            lambda model, roots: [(0, 0)] * len(roots),
        ),
    ],
)
def test_broken_law_minimizes_to_one_point(monkeypatch, suite, module, name, broken):
    # the law fails on every frame, so each failure shrinks to a single point
    monkeypatch.setattr(module, name, broken)
    report = run_suite(suite, audit.SUITES[suite].spec, 20)
    assert len(report.failures) == report.trials
    assert all(frames.from_dict(f.frame).n <= 1 for f in report.failures)


def test_byrd_family_values():
    report = run_suite("byrd-frame", GenSpec(), 5)
    assert report.ok()
    for size, want in [(4, 3), (5, 2), (6, 2), (7, 2), (8, 2), (9, 2)]:
        assert frames.transitivity_index(non_adjacent_frame(size)) == want
        assert frames.height(non_adjacent_frame(size)) == 1


def test_byrd_family_separates_finite_height_from_local_tabularity():
    # height 1 and transitivity index 2 throughout, while the number of
    # nonequivalent one-variable formulas grows with the frame (N = 4 is
    # left out: its count, 2^24, is above N = 5's 2^20)
    counts = []
    for size in range(5, 11):
        frame = non_adjacent_frame(size)
        assert frames.height(frame) == 1
        assert frames.transitivity_index(frame) == 2
        counts.append(partitions.count_k_formulas(frame, 1, cap=1 << size))
    assert all(a < b for a, b in zip(counts, counts[1:]))


def test_byrd_family_is_reflexive_and_symmetric():
    from modalwb import semantics
    from modalwb.syntax import default_alphabet, parse

    al = default_alphabet(1)
    reflexivity = parse("p0 -> <d0>p0", al)
    symmetry = parse("p0 -> [d0]<d0>p0", al)
    for size in range(5, 10):
        frame = non_adjacent_frame(size)
        assert semantics.validity_bruteforce(frame, reflexivity)
        assert semantics.validity_bruteforce(frame, symmetry)


def test_cluster_depth_bound_arithmetic():
    assert [cluster_depth_bound(1, 1, h) for h in range(1, 5)] == [1, 4, 7, 10]
    for h in range(1, 8):
        assert cluster_depth_bound(1, 1, h) == 3 * h - 2
        assert cluster_depth_bound(2, 1, h) == 4 * h - 2


@pytest.mark.parametrize("args", [(-1, 1, 1), (1, -1, 1), (1, 1, -1)])
def test_cluster_depth_bound_rejects_negative_arguments(args):
    # (-1 + 1 + 1) * 1 - 1 - 1 would be a bound of -1
    with pytest.raises(ValueError, match="must be non-negative"):
        cluster_depth_bound(*args)


def test_cluster_bound_law_passes_vacuously_on_no_points():
    # max() over the clusters of no points used to raise ValueError
    _, law = audit.SUITES["cluster-bound"].draw(GenSpec(), random.Random(0), 0)
    assert law([]) == (True, "no points, vacuous")


# sha256 of the report each suite writes at its CLI defaults and seed 0; a
# change to a suite's draw, law, defaults or RNG use changes its digest, and
# must say so where it re-records it
REPORT_DIGESTS = [
    ("tuned-equivalences", "830ca40c625b9b6dcdd66565c46ba9655949cd3906e1604088a854547d49748b"),
    ("height-correspondence", "4630c89308ac5df0f961766b2dcfdf07013651bce6686bf69fd8947579e5c12f"),
    ("atr-correspondence", "3627a071c0b69d7a9d2f39346fd175f8147c0fb17b45cca45504c54f25641b66"),
    ("rpp-correspondence", "6226c5f60a53a9f2af36d6e37a679f1585d2f5de5259766b3ac3374f1dfaedf1"),
    ("md-sum", "95bd6d104116afae49d2e03053d87e423bb1bd8dfd36722c0a2b47484f500ace"),
    ("top-down", "ca3279b70d8dc642c78b341b4cd486970453dde26d63f3f3a11fdccefeb07ad7"),
    ("cluster-bound", "6a10dbbdaf6ed99f715f74bed91d9707e1cac0690a6e323467d7463af6d6d744"),
    ("lex-phi", "6830516434fa45f56edf75c83ba71d1e6079e1803d7081df91e77816f89fdec0"),
    ("diff-axioms", "0de930d461906591fae4b5bcfc358f9d015c92d4c7ec6dc725f4bc1cc959aea8"),
    ("definability", "e5d14bcb2690d2fd2fc6a30e828c02afb498565e54c726d3c4491ed0251fe9af"),
    ("byrd-frame", "8b8740d84a577b2b6381b4d2cb8bb088f3df902fe73d52f49a88ba0ce3c71c92"),
]


def test_every_suite_has_a_pinned_digest():
    assert [suite for suite, _ in REPORT_DIGESTS] == list(audit.SUITES)


@pytest.mark.parametrize("suite,digest", REPORT_DIGESTS)
def test_default_report_bytes_are_pinned(tmp_path, capsys, suite, digest):
    out = tmp_path / "report.json"
    assert cli.main(["audit", suite, "--seed", "0", "--out", str(out)]) == 0
    capsys.readouterr()
    assert hashlib.sha256(out.read_bytes()).hexdigest() == digest
