"""Random frame generation and reproducible property suites.

Each suite re-checks one frame-level law with two independently computed
sides (a brute-force semantic side against a relational side, or a library
routine against an inline reimplementation). Suites are deterministic: the
per-trial RNG stream is derived from (seed, trial index), so reports are
byte-identical across reruns.

Each suite is one ``Suite`` record in ``SUITES``: its draw, its CLI
defaults and its exact-depth scale. Only md-sum, top-down and cluster-bound
take exact modal depth, so only their ``n_max`` is bounded by
``partitions.EXACT_DEPTH_LIMIT``; md-sum sums two frames, so its bound is half.

A suite draws its frame and states its law once, as a function of a point
subset that checks the law on the restriction to those points. The trial
checks it on every point; a failing trial serializes a counterexample frame,
greedily minimized by point deletion while the law still fails. Every suite
but ``byrd-frame`` is minimized: its law is about one member of a fixed
family, so its restrictions pass and its failures show the whole frame.
A trial whose draw or law raises ``GenerationError``, ``CapExceeded`` or
``PathBudgetExceeded`` is listed under the report's ``errors`` and counts as
neither a pass nor a failure.

Suite ids:

  tuned-equivalences    four characterizations of tuned partitions agree
  height-correspondence bounded-height axiom validity vs skeleton height
  atr-correspondence    pretransitivity axiom validity vs transitivity index
  rpp-correspondence    reducible-path axiom validity vs path enumeration
  md-sum                depth of a disjoint sum vs summand depths
  top-down              depth bound from an upset plus the minimal part
  cluster-bound         depth bound (d+m+1)h - m - 1 from cluster depths
  lex-phi               lexicographic-sum axioms valid in constructed sums
  diff-axioms           difference axioms valid in difference expansions
  definability          defining formulas exact, stable top checks pass
  byrd-frame            fixed family: |a-b| != 1 truncations, indices (2, 1)
"""

from __future__ import annotations

import json
import random
from dataclasses import asdict, dataclass, field
from typing import Callable, NamedTuple

from . import definability, frames, partitions, semantics, syntax
from .frames import Frame
from .partitions import Partition
from .semantics import Model
from .syntax import Alphabet, default_alphabet

REJECTION_BUDGET = 5000

STRUCTURES = ("any", "preorder", "transitive", "wk4", "pretransitive", "bounded-height")


class GenerationError(RuntimeError):
    """Raised when rejection sampling cannot hit the requested class."""


@dataclass(frozen=True)
class GenSpec:
    """Shape of the random frames a suite draws."""

    n_min: int = 1
    n_max: int = 4
    alphabet_size: int = 1
    density: float = 0.35
    structure: str = "any"
    param: int | None = None
    seed: int = 0

    def __post_init__(self):
        # a float or str count would pass the range checks and fail in the draw
        for name in ("n_min", "n_max", "seed"):
            object.__setattr__(self, name, syntax._index(getattr(self, name), name))
        object.__setattr__(self, "alphabet_size", syntax._nat(self.alphabet_size, "alphabet_size"))
        if self.param is not None:
            object.__setattr__(self, "param", syntax._index(self.param, "param"))
        if isinstance(self.density, bool) or not isinstance(self.density, (int, float)):
            raise TypeError(f"density must be an int or float, got {self.density!r}")
        if self.structure not in STRUCTURES:
            raise ValueError(f"unknown structure {self.structure!r}")
        # the least param a frame can meet: every drawn frame has a point,
        # so its height is at least 1
        least = {"pretransitive": 0, "bounded-height": 1}.get(self.structure)
        if least is not None and self.param is None:
            raise ValueError(f"structure {self.structure!r} needs a parameter")
        if least is not None and self.param < least:
            raise ValueError(
                f"param must be at least {least} for structure {self.structure!r}, "
                f"got {self.param}"
            )
        if not 0 < self.n_min <= self.n_max:
            raise ValueError("need 0 < n_min <= n_max")
        if not 0 <= self.density <= 1:
            raise ValueError(f"density must be in [0, 1], got {self.density}")


@dataclass
class Failure:
    trial: int
    frame: dict
    detail: str


@dataclass
class TrialError:
    """A trial whose draw or law raised a sampling, cap or path-budget error."""

    trial: int
    detail: str


@dataclass
class AuditReport:
    suite: str
    seed: int
    trials: int
    passes: int
    failures: list[Failure]
    config: dict
    errors: list[TrialError] = field(default_factory=list)

    def ok(self) -> bool:
        return not self.failures and not self.errors


def satisfies_structure(frame: Frame, structure: str, param: int | None) -> bool:
    if structure == "any":
        return True
    if structure == "pretransitive":
        return frames.transitivity_index(frame) <= param
    if structure == "bounded-height":
        return frames.height(frame) <= param
    # preorder: reflexive and transitive; transitive: two steps from a reach
    # only a's successors; wk4: only a's successors and a itself
    reflexive, wk4 = structure == "preorder", structure == "wk4"
    for mod in range(len(frame.alphabet)):
        rows = frame.rows(mod)
        image = frames._RowUnion(rows)  # a mask's one-step successors
        for a, row in enumerate(rows):
            if reflexive and not row >> a & 1:
                return False
            if image[row] & ~row & ~(wk4 << a):
                return False
    return True


def random_frame(spec: GenSpec, rng: random.Random | None = None) -> Frame:
    """Draw a frame from the declared structural class; deterministic for a
    fixed seed. Rejection-sampled classes raise GenerationError when the
    budget runs out."""
    rng = random.Random(spec.seed) if rng is None else rng
    alphabet = default_alphabet(spec.alphabet_size)
    for _ in range(REJECTION_BUDGET):
        n = rng.randint(spec.n_min, spec.n_max)
        rels = []
        for _ in range(spec.alphabet_size):
            rows = [0] * n
            for a in range(n):
                for b in range(n):
                    if rng.random() < spec.density:
                        rows[a] |= 1 << b
            if spec.structure in ("preorder", "transitive", "wk4"):
                closure = frames._closure(rows)[0]
                star = frames._RowUnion(closure)  # a mask's points and all they reach
                rows = closure if spec.structure == "preorder" else [star[r] for r in rows]
            if spec.structure == "wk4":
                # draws follow the pair set's iteration order; seeded frames depend on it
                pairs = frames._rows_to_rel(rows)
                rows = [0] * n
                for a, b in pairs:
                    if a != b or rng.random() < 0.5:
                        rows[a] |= 1 << b
            rels.append(rows)
        frame = Frame.from_rows(alphabet, n, rels)
        if satisfies_structure(frame, spec.structure, spec.param):
            return frame
    raise GenerationError(
        f"could not generate a {spec.structure!r} frame within {REJECTION_BUDGET} draws"
    )


def random_partition(rng: random.Random, n: int) -> Partition:
    masks = partitions._random_partition_masks(rng, n)
    return Partition.of(n, [frames.points_of(m) for m in masks])


def random_model(rng: random.Random, frame: Frame, k: int) -> Model:
    val = tuple(
        frozenset(p for p in range(frame.n) if rng.random() < 0.5) for _ in range(k)
    )
    return Model(frame, k, val)


def random_upset(rng: random.Random, frame: Frame) -> frozenset[int]:
    seeds = [p for p in range(frame.n) if rng.random() < 0.5]
    up = frames.generated_upset(frame, seeds)
    return up if up else frozenset(range(frame.n))


def non_adjacent_frame(n: int) -> Frame:
    """Unimodal frame on 0..n-1 where a sees b iff |a-b| differs from 1."""
    n = syntax._nat(n, "n")
    rel = {(a, b) for a in range(n) for b in range(n) if abs(a - b) != 1}
    return Frame(default_alphabet(1), n, [rel])


def cluster_depth_bound(d: int, m: int, h: int) -> int:
    """The height-times-cluster-depth bound (d+m+1)*h - m - 1."""
    d, m, h = syntax._nat(d, "d"), syntax._nat(m, "m"), syntax._nat(h, "h")
    return (d + m + 1) * h - m - 1


# A suite's law: the check on the restriction to a point subset, with a
# detail string. The trial calls it on every point, the minimiser on subsets.
Law = Callable[[list[int]], tuple[bool, str]]


def _tuned_by_inclusion(frame: Frame, part: Partition) -> bool:
    for mod in range(len(frame.alphabet)):
        for v in part.blocks:
            pre = frame.preimage(mod, v)
            for u in part.blocks:
                if not (u <= pre or not (u & pre)):
                    return False
    return True


def _tuned_by_composition(frame: Frame, part: Partition) -> bool:
    sim = {(a, b) for block in part.blocks for a in block for b in block}
    for rel in frame.relations:
        left = {(x, b) for (x, a) in sim for (a2, b) in rel if a2 == a}
        right = {(x, b) for (x, c) in rel for (c2, b) in sim if c2 == c}
        if not left <= right:
            return False
    return True


def _suite_tuned_equivalences(spec: GenSpec, rng: random.Random, trial: int):
    frame = random_frame(spec, rng)
    part = random_partition(rng, frame.n)

    def law(pts):
        sub = frames.restriction(frame, pts)
        pr = Partition.of(len(pts), [b for b in frames._project(part.blocks, pts) if b])
        a = partitions.is_tuned(sub, pr)
        quot, proj = frames.quotient_filtration(sub, pr)
        c = frames.is_pmorphism(sub, quot, proj)
        d = _tuned_by_inclusion(sub, pr)
        f = _tuned_by_composition(sub, pr)
        blocks = [sorted(b) for b in pr.blocks]
        return a == c == d == f, f"(a)={a} (c)={c} (d)={d} (f)={f} blocks={blocks}"

    return frame, law


def _pick_correspondence_frame(spec, rng):
    # both bounds are the 3 of the suite's rng.randint(..., 3) draws:
    # m = randint(index, 3) needs an index of at most 3, and h = randint(0, 3)
    # then spans every height the frame and its restrictions can have
    for _ in range(REJECTION_BUDGET):
        frame = random_frame(spec, rng)
        if frames.transitivity_index(frame) <= 3 and frames.height(frame) <= 3:
            return frame
    raise GenerationError("rejection budget exhausted for correspondence frame")


def _suite_height_correspondence(spec: GenSpec, rng: random.Random, trial: int):
    frame = _pick_correspondence_frame(spec, rng)
    h = rng.randint(0, 3)
    m = rng.randint(frames.transitivity_index(frame), 3)
    mods = tuple(range(len(frame.alphabet)))

    def law(pts):
        sub = frames.restriction(frame, pts)
        # the axiom needs m at least the index; a restriction can raise it
        m2 = max(m, frames.transitivity_index(sub))
        valid = semantics.validity_bruteforce(sub, syntax.finite_height_axiom_star(h, m2, mods))
        height = frames.height(sub)
        return valid == (height <= h), f"h={h} m={m2} height={height} valid={valid}"

    return frame, law


def _suite_atr_correspondence(spec: GenSpec, rng: random.Random, trial: int):
    frame = random_frame(spec, rng)
    m = rng.randint(0, 3)
    axiom = syntax.pretransitivity_axiom(range(len(frame.alphabet)), m)

    def law(pts):
        sub = frames.restriction(frame, pts)
        valid = semantics.validity_bruteforce(sub, axiom)
        index = frames.transitivity_index(sub)
        return valid == (index <= m), f"m={m} index={index} valid={valid}"

    return frame, law


def _suite_rpp_correspondence(spec: GenSpec, rng: random.Random, trial: int):
    frame = random_frame(spec, rng)
    n = max(1, frame.n)
    m_hi = min(3, max(0, 14 // n - 2))
    m = rng.randint(0, m_hi)
    axiom = syntax.reducible_path_axiom(m, range(len(frame.alphabet)))

    def law(pts):
        sub = frames.restriction(frame, pts)
        valid = semantics.validity_bruteforce(sub, axiom)
        relational = frames.is_path_reducible(sub, m)
        return valid == relational, f"m={m} path_reducible={relational} valid={valid}"

    return frame, law


def _suite_md_sum(spec: GenSpec, rng: random.Random, trial: int):
    f1 = random_frame(spec, rng)
    f2 = random_frame(spec, rng)

    def law(pts):
        s1 = frames.restriction(f1, [p for p in pts if p < f1.n])
        s2 = frames.restriction(f2, [p - f1.n for p in pts if p >= f1.n])
        total = frames.disjoint_sum([s1, s2])
        md1 = partitions.frame_modal_depth(s1)
        md2 = partitions.frame_modal_depth(s2)
        m = frames.transitivity_index(total)
        md = partitions.frame_modal_depth(total)
        bound = max(md1, md2) + m + 1
        return md <= bound, f"md(sum)={md} md1={md1} md2={md2} m={m} bound={bound}"

    return frames.disjoint_sum([f1, f2]), law


def _suite_top_down(spec: GenSpec, rng: random.Random, trial: int):
    frame = random_frame(spec, rng)
    low = frames.mask_of(frames.min_part(frame))
    # one draw per minimal cluster, in cluster order; dropping some leaves an upset
    removed = 0
    for c in frames._cluster_masks(frame).values():
        if c & low == c and rng.random() < 0.5:
            removed |= c
    upset = [p for p in range(frame.n) if not removed >> p & 1]

    def law(pts):
        sub = frames.restriction(frame, pts)
        low = frames.min_part(sub)
        # the bound needs an upset that leaves out minimal points only; the
        # non-minimal points form an upset, and a restriction can make a
        # dropped point non-minimal, so they are added back
        (up,) = frames._project([upset], pts)
        up |= frozenset(range(sub.n)) - low
        m = frames.transitivity_index(sub)
        c = partitions.frame_modal_depth(frames.restriction(sub, low))
        d = partitions.frame_modal_depth(frames.restriction(sub, up))
        return partitions.frame_modal_depth(sub) <= d + m + c + 1, f"upset={sorted(up)} m={m}"

    return frame, law


def _suite_cluster_bound(spec: GenSpec, rng: random.Random, trial: int):
    frame = random_frame(spec, rng)

    def law(pts):
        if not pts:  # the bound is -m - 1 < 0 at h = 0, so it does not cover n = 0
            return True, "no points, vacuous"
        sub = frames.restriction(frame, pts)
        h = frames.height(sub)
        m = frames.transitivity_index(sub)
        cluster_md = max(partitions.frame_modal_depth(c) for c in frames.cluster_frames(sub))
        dhat = cluster_md + m + 1
        md = partitions.frame_modal_depth(sub)
        bound = cluster_depth_bound(dhat, m, h)
        return md <= bound, f"md={md} h={h} m={m} dhat={dhat} bound={bound}"

    return frame, law


def _suite_lex_phi(spec: GenSpec, rng: random.Random, trial: int):
    n_index = rng.randint(min(spec.n_min, 3), min(3, spec.n_max))
    v_size = 1 + (rng.random() < 0.3)
    h_size = 1 + (rng.random() < 0.3)
    v_alpha = Alphabet(tuple(f"a{i}" for i in range(v_size)))
    h_alpha = Alphabet(tuple(f"b{i}" for i in range(h_size)))
    density = max(spec.density, 0.3)
    idx_rels = [
        {(a, b) for a in range(n_index) for b in range(n_index) if rng.random() < density}
        for _ in range(v_size)
    ]
    index_frame = Frame(v_alpha, n_index, idx_rels)
    budget = 6
    fibers = []
    for _ in range(n_index):
        size = rng.randint(0, min(2, budget))
        budget -= size
        rels = [
            {(a, b) for a in range(size) for b in range(size) if rng.random() < density}
            for _ in range(h_size)
        ]
        fibers.append(Frame(h_alpha, size, rels))
    total = frames.lex_sum(index_frame, fibers)
    axioms = syntax.lex_sum_axioms(
        range(v_size), range(v_size, v_size + h_size)
    )

    def law(pts):
        # a restriction of a lexicographic sum is the sum of the restricted fibers
        sub = frames.restriction(total, pts)
        bad = [
            syntax.print_formula(ax, sub.alphabet)
            for ax in axioms
            if not semantics.validity_bruteforce(sub, ax)
        ]
        return not bad, (f"sum n={sub.n}; failing axioms: {bad}" if bad else f"sum n={sub.n}")

    return total, law


def _suite_diff_axioms(spec: GenSpec, rng: random.Random, trial: int):
    frame = random_frame(spec, rng)
    diff = len(frame.alphabet)  # the difference modality comes last
    axioms = syntax.difference_axioms(diff, range(diff))

    def law(pts):
        expanded = frames.expand(frames.restriction(frame, pts), "difference")
        n = expanded.n
        structural = expanded.relations[diff] | {(a, a) for a in range(n)} == {
            (a, b) for a in range(n) for b in range(n)
        }
        bad = [
            syntax.print_formula(ax, expanded.alphabet)
            for ax in axioms
            if not semantics.validity_bruteforce(expanded, ax)
        ]
        return structural and not bad, f"structural={structural}; failing axioms: {bad}"

    return frame, law


def _suite_definability(spec: GenSpec, rng: random.Random, trial: int):
    frame = random_frame(spec, rng)
    k = rng.randint(0, 2)
    model = random_model(rng, frame, k)
    upset = random_upset(rng, frame)

    def law(pts):
        (up,) = frames._project([upset], pts)
        if not up:
            return True, "empty upset, vacuous"
        sub = semantics.restrict_model(model, pts)
        rep = definability.verify_definability(sub, up)
        _, _, top_rep = definability.stable_top(sub, up)
        return rep.ok() and top_rep.ok(), (
            f"k={k} upset={sorted(up)} violations={len(rep.violations)} "
            f"beta_depth={rep.max_beta_depth}<={rep.depth_limit} stable_top={top_rep}"
        )

    return frame, law


def _suite_byrd_frame(spec: GenSpec, rng: random.Random, trial: int):
    # truncation of the naturals at n, i.e. points {0..n}; the 4-point
    # restriction {0..3} is too small (its index is 3, not 2)
    n = 4 + trial % 5
    frame = non_adjacent_frame(n + 1)

    def law(pts):
        # the law is about this member of the family, not about its
        # restrictions, so they pass and a failure is never minimised
        if len(pts) < frame.n:
            return True, "proper restriction, vacuous"
        idx = frames.transitivity_index(frame)
        h = frames.height(frame)
        return idx == 2 and h == 1, f"n={n} index={idx} height={h}"

    return frame, law


class Suite(NamedTuple):
    """One suite: its draw, its CLI defaults and the point count of the
    largest frame whose exact modal depth a trial takes, as a multiple of
    ``n_max`` (0 when it takes none)."""

    draw: Callable[[GenSpec, random.Random, int], tuple[Frame, Law]]
    spec: GenSpec
    trials: int
    depth_scale: int


SUITES = {
    "tuned-equivalences": Suite(
        _suite_tuned_equivalences, GenSpec(n_max=5, alphabet_size=2, density=0.4), 500, 0
    ),
    "height-correspondence": Suite(
        _suite_height_correspondence, GenSpec(n_max=4, density=0.3), 200, 0
    ),
    "atr-correspondence": Suite(_suite_atr_correspondence, GenSpec(n_max=4, density=0.3), 200, 0),
    "rpp-correspondence": Suite(_suite_rpp_correspondence, GenSpec(n_max=4, density=0.3), 200, 0),
    "md-sum": Suite(_suite_md_sum, GenSpec(n_max=4, density=0.35), 100, 2),
    "top-down": Suite(_suite_top_down, GenSpec(n_max=8, density=0.3), 100, 1),
    "cluster-bound": Suite(_suite_cluster_bound, GenSpec(n_max=8, density=0.3), 100, 1),
    "lex-phi": Suite(_suite_lex_phi, GenSpec(n_max=3, density=0.4), 100, 0),
    "diff-axioms": Suite(_suite_diff_axioms, GenSpec(n_max=4, density=0.35), 100, 0),
    "definability": Suite(_suite_definability, GenSpec(n_max=8, density=0.3), 100, 0),
    "byrd-frame": Suite(_suite_byrd_frame, GenSpec(n_max=8), 5, 0),
}


def _trial_seed(seed: int, trial: int) -> int:
    return ((seed + 1) * 0x9E3779B97F4A7C15 + trial * 0xBF58476D1CE4E5B9) & (2**63 - 1)


def _minimize(frame: Frame, law: Law) -> Frame:
    """Delete points one at a time while the law still fails, which leaves a
    1-minimal failing restriction (Zeller & Hildebrandt, delta debugging)."""
    pts = list(range(frame.n))
    changed = True
    while changed and len(pts) > 1:
        changed = False
        for p in pts:
            cand = [q for q in pts if q != p]
            if not law(cand)[0]:
                pts = cand
                changed = True
                break
    return frames.restriction(frame, pts)


def run_suite(suite: str, spec: GenSpec, trials: int) -> AuditReport:
    """Run one property suite; deterministic for a fixed spec seed."""
    try:
        record = SUITES[suite]
    except (KeyError, TypeError):  # TypeError: an unhashable suite
        raise ValueError(f"unknown suite {suite!r}") from None
    scale = record.depth_scale
    if scale and spec.n_max * scale > partitions.EXACT_DEPTH_LIMIT:
        raise ValueError(
            f"suite {suite!r} takes exact modal depth on {scale} x n_max points "
            f"and needs n_max <= {partitions.EXACT_DEPTH_LIMIT // scale}"
        )
    trials = syntax._nat(trials, "trials")
    failures: list[Failure] = []
    errors: list[TrialError] = []
    passes = 0
    for t in range(trials):
        try:
            frame, law = record.draw(spec, random.Random(_trial_seed(spec.seed, t)), t)
            ok, detail = law(list(range(frame.n)))
            if ok:
                passes += 1
            else:
                # the minimiser runs the law on restrictions, which may raise too
                failures.append(Failure(t, frames.to_dict(_minimize(frame, law)), detail))
        except (GenerationError, partitions.CapExceeded, frames.PathBudgetExceeded) as exc:
            errors.append(TrialError(t, f"{type(exc).__name__}: {exc}"))
    config = asdict(spec)
    del config["seed"]
    return AuditReport(suite, spec.seed, trials, passes, failures, config, errors)


def report_to_dict(report: AuditReport) -> dict:
    """The report as a dict; ``errors`` appears only when a trial raised."""
    data = asdict(report)
    if not report.errors:
        del data["errors"]
    return data


def emit_report(report: AuditReport, path) -> None:
    """Write the report as JSON with stable key order; reruns with the same
    seed produce byte-identical files."""
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(report_to_dict(report), fh, indent=2, sort_keys=True)
        fh.write("\n")
